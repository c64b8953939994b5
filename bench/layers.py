"""The package's layers seen from outside: its modules, its memo tables, and
a tracer that records a span around every call into a layer.

Nothing in polyinj knows about this file.  Installing a :class:`Tracer`
replaces selected module attributes (and the ring operations of
``Character``) with wrappers, in every package module that holds the
function, so ``gl2.schur_character`` is traced as well as
``schur.schur_character``.  A span has a name, the op it belongs to, its
parent span, a start and an end.  Self time (duration minus the time child
spans cover) is summed as spans close, so the per-layer figures are exact
however many spans a run makes; the raw spans are kept up to ``SPAN_CAP``.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time

SPAN_CAP = 20000

# (module, attribute, span name); other public functions of gl2 are traced
# through GL2_CLOSED_FORMS and GL2_ORACLES below.
FUNCTIONS = (
    ("weights", "eadic_split", "weights.eadic_split"),
    ("weights", "digit_expansion", "weights.digit_expansion"),
    ("weights", "_is_prime", "weights.is_prime"),
    ("characters", "peel_into_basis", "characters.peel_into_basis"),
    ("schur", "schur_character", "schur.schur_character"),
    ("schur", "schur_character_jt", "schur.schur_character_jt"),
    ("schur", "h_character", "schur.h_character"),
    ("schur", "pieri_expand", "schur.pieri_expand"),
    ("schur", "sym_tensor_nabla_mult", "schur.sym_tensor_nabla_mult"),
    ("gl2", "simple_character", "gl2.simple_character"),
    ("gl2", "_decomposition_at_degree", "gl2.decomposition_at_degree"),
    ("gl2", "_sympow_simple_factors", "gl2.sympow_simple_factors"),
    ("gl2", "classify", "gl2.classify"),
)
CHARACTER_METHODS = (
    ("__mul__", "characters.mul"),
    ("__rmul__", "characters.mul"),
    ("__add__", "characters.add"),
    ("__sub__", "characters.add"),
    ("twist", "characters.twist"),
)
GL2_CLOSED_FORMS = ("divind_injective_closed", "is_critical_closed", "is_inf_injective_closed",
                    "standard_form", "reconstruct_weight", "is_gm_injective")
GL2_ORACLES = ("divind_injective_oracle", "is_critical_oracle", "is_inf_injective_inequality",
               "decomposition_number", "injective_character", "standard_form_character",
               "sympow_character_recursive", "comp_factor_oracle", "sym_power_factor_oracle")
# traced name -> memo table whose cache_info() gives its hit ratio
HIT_RATIO = {
    "schur.schur_character": "schur._schur_ssyt",
    "schur.h_character": "schur._h_character",
    "gl2.simple_character": "gl2._simple_character",
    "gl2.decomposition_at_degree": "gl2._decomposition_at_degree",
}
# gl2 spans that belong to the oracle side, beside GL2_ORACLES
GL2_ORACLE_INTERNALS = ("gl2.decomposition_at_degree", "gl2.simple_character",
                        "gl2.sympow_simple_factors")


def package_modules(package):
    """Short name -> module for the package and each of its submodules."""
    modules = {package.__name__: package}
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":  # importing it would run the CLI
            modules[info.name] = importlib.import_module("%s.%s" % (package.__name__, info.name))
    return modules


class MemoTables:
    """Every memo table of the package, found by scanning its modules for
    objects with ``cache_clear``, so tables added later are found too."""

    def __init__(self, modules):
        self.tables = {}
        for short, module in modules.items():
            for attr, obj in vars(module).items():
                if (getattr(obj, "__module__", None) == module.__name__
                        and callable(getattr(obj, "cache_clear", None))
                        and callable(getattr(obj, "cache_info", None))):
                    self.tables["%s.%s" % (short, attr)] = obj
        self.hits = dict.fromkeys(self.tables, 0)
        self.misses = dict.fromkeys(self.tables, 0)
        self.peak_size = dict.fromkeys(self.tables, 0)

    def clear(self, record):
        """Empty every table; with ``record``, first add its counters to the
        run totals (cache_clear resets them)."""
        for name, table in self.tables.items():
            if record:
                info = table.cache_info()
                self.hits[name] += info.hits
                self.misses[name] += info.misses
                self.peak_size[name] = max(self.peak_size[name], info.currsize)
            table.cache_clear()

    def hit_ratio(self, name):
        lookups = self.hits.get(name, 0) + self.misses.get(name, 0)
        return self.hits[name] / lookups if lookups else 0.0


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> [calls, self seconds]
        self.counts = {"characters.mul.term_pairs": 0, "characters.peel_into_basis.pivots": 0,
                       "schur.schur_character.tableaux": 0, "gl2.oracle_mismatch.count": 0}
        self.suite_of = {}  # checks span name -> suite name
        self.suite_instances = {}
        self.spans = []  # (op, name, parent index, start, end)
        self.spans_dropped = 0
        self.root_s = 0.0  # time covered by spans with no parent
        self.op = 0
        self.missing = []  # traced names absent from the package
        self._stack = []  # per open span: [child seconds, span index]
        self._patches = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """A wrapper recording one span per call.  ``before(args)`` returns a
        token handed to ``after(args, result, token)``; both run inside the
        span."""
        stat = self.stats.setdefault(name, [0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0, -1]
            if len(spans) < SPAN_CAP:
                frame[1] = len(spans)
                spans.append(None)
            else:
                self.spans_dropped += 1
            parent = stack[-1][1] if stack else -1
            stack.append(frame)
            t0 = clock()
            try:
                token = before(args) if before is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result, token)
                return result
            except BaseException as exc:
                self._note_exception(exc)
                raise
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                stat[0] += 1
                stat[1] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    self.root_s += duration
                if frame[1] >= 0:
                    spans[frame[1]] = (self.op, name, parent, t0, t1)

        return functools.wraps(fn)(traced)

    def _note_exception(self, exc):
        # counted once, at the innermost traced call it passes through
        if type(exc).__name__ == "OracleMismatch" and not getattr(exc, "_bench_counted", False):
            exc._bench_counted = True
            self.counts["gl2.oracle_mismatch.count"] += 1

    # -- installing --------------------------------------------------------

    def _patch_everywhere(self, modules, module_name, attr, name, before=None, after=None):
        module = modules.get(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(name)
            self.stats.setdefault(name, [0, 0.0])
            return
        wrapper = self.wrap(name, original, before, after)
        for mod in modules.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def install(self, modules, tables):
        character = modules["characters"].Character
        hooks = self._hooks(character, tables)
        for module_name, attr, name in FUNCTIONS:
            self._patch_everywhere(modules, module_name, attr, name, *hooks.get(name, ()))
        for attr in GL2_CLOSED_FORMS + GL2_ORACLES:
            self._patch_everywhere(modules, "gl2", attr, "gl2." + attr)
        for module_name, prefix in (("injectivity", ""), ("checks", "check_")):
            module = modules[module_name]
            for attr, obj in list(vars(module).items()):
                if (callable(obj) and getattr(obj, "__module__", None) == module.__name__
                        and attr.startswith(prefix) and not attr.startswith("_")
                        and not isinstance(obj, type)):
                    name = "%s.%s" % (module_name, attr)
                    after = self._suite_recorder(name) if module_name == "checks" else None
                    self._patch_everywhere(modules, module_name, attr, name, None, after)
        wrapped = {}
        for attr, name in CHARACTER_METHODS:
            original = vars(character).get(attr)
            if original is None:
                self.missing.append(name)
                continue
            if id(original) not in wrapped:
                wrapped[id(original)] = self.wrap(name, original, *hooks.get(name, ()))
            self._patches.append((character, attr, original))
            setattr(character, attr, wrapped[id(original)])

    def _hooks(self, character, tables):
        counts = self.counts
        ssyt = tables.tables.get(HIT_RATIO["schur.schur_character"])

        def term_pairs(args):
            a, b = args
            counts["characters.mul.term_pairs"] += len(a) * (len(b) if isinstance(b, character) else 1)

        def pivots(args, result, token):
            counts["characters.peel_into_basis.pivots"] += len(result)

        def misses(args):
            return ssyt.cache_info().misses if ssyt is not None else 0

        def tableaux(args, result, misses_before):
            if ssyt is not None and ssyt.cache_info().misses > misses_before:
                counts["schur.schur_character.tableaux"] += sum(m for _, m in result.items())

        return {
            "characters.mul": (term_pairs, None),
            "characters.peel_into_basis": (None, pivots),
            "schur.schur_character": (misses, tableaux),
        }

    def _suite_recorder(self, span_name):
        def record(args, result, token):
            self.suite_of[span_name] = result.name
            self.suite_instances[result.name] = (
                self.suite_instances.get(result.name, 0) + result.instances)
        return record

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results -----------------------------------------------------------

    def self_s(self, name):
        return self.stats.get(name, (0, 0.0))[1]

    def metrics(self, tables, op_time_s):
        """Every per-layer metric this run produced, by name."""
        out = {}
        for name, (calls, self_s) in self.stats.items():
            if name.startswith("checks."):
                fn = name[len("checks."):]
                suite = self.suite_of.get(name, fn[len("check_"):].replace("_", "-"))
                out["checks.%s.self_s" % suite] = self_s
                out["checks.%s.instances" % suite] = self.suite_instances.get(suite, 0)
                continue
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
        out.update(self.counts)
        for name, table in HIT_RATIO.items():
            out[name + ".hit_ratio"] = tables.hit_ratio(table)
        out["gl2.closed_forms.self_s"] = sum(self.self_s("gl2." + f) for f in GL2_CLOSED_FORMS)
        out["gl2.oracles.self_s"] = sum(self.self_s("gl2." + f) for f in GL2_ORACLES)
        out["injectivity.self_s"] = sum(s for n, (_, s) in self.stats.items()
                                        if n.startswith("injectivity."))
        for table, size in tables.peak_size.items():
            out["cache.%s.currsize" % table] = size
        oracle_s = (sum(s for n, (_, s) in self.stats.items()
                        if n.startswith(("schur.", "characters.")))
                    + out["gl2.oracles.self_s"]
                    + sum(self.self_s(n) for n in GL2_ORACLE_INTERNALS))
        out["oracle_layers.share"] = oracle_s / op_time_s if op_time_s else 0.0
        out["untraced_s"] = op_time_s - self.root_s
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                if span is not None:
                    op, name, parent, t0, t1 = span
                    fh.write(json.dumps({"op": op, "name": name, "parent": parent,
                                         "start": t0, "end": t1}) + "\n")

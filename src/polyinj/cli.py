"""Command-line front end.

Subcommands: ``expand`` (digit expansion), ``char`` (schur | simple |
injective | sympow), ``divind``, ``classify``, ``table``, ``selfcheck``.
Weights are passed as comma-separated integer lists (``--weight 5,2``),
the arithmetic context as ``--l`` and ``--p`` (characteristic-zero quantum
parameters are ``--p 0`` with ``--l`` at least 2).  Output formats: text
(default), json, csv (tables only).  Exit codes: 0 success, 1 usage error,
2 invariant or oracle disagreement.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from typing import Optional

from . import checks, gl2, injectivity
from .characters import PeelError
from .schur import partitions, schur_character
from .weights import GroupParams, Weight, digit_expansion, eadic_split

class UsageError(ValueError):
    pass


def parse_weight(text):
    try:
        entries = [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError("bad weight %r; expected comma-separated integers" % text)
    return Weight(entries)


def parse_params(args):
    if args.l is None or args.p is None:
        raise UsageError("--l and --p are required for this command")
    try:
        return GroupParams(args.l, args.p)
    except ValueError as exc:
        raise UsageError(str(exc))


def _weight_str(w):
    return ",".join(str(a) for a in w)


# ---------------------------------------------------------------------------
# table rows


@dataclass(frozen=True)
class TableRow:
    lam: Weight
    l: int
    p: int
    critical: bool
    divind: int
    inf_injective: bool
    gm_flags: tuple  # entries True/False/None (None: undefined in char 0)
    standard_form: Optional[gl2.FactorizationDescriptor]

    @property
    def degree(self):
        return self.lam.degree()

    @property
    def gm_injective_up_to(self):
        best = 0
        for m, flag in enumerate(self.gm_flags, start=1):
            if flag:
                best = m
        return best

    def to_json_obj(self):
        std = None
        if self.standard_form is not None:
            std = {
                "q_weight": list(self.standard_form.q_weight),
                "det_power": self.standard_form.det_power,
                "bar_weight": list(self.standard_form.bar_weight),
                "branch": self.standard_form.branch,
            }
        return {
            "degree": self.degree,
            "weight": list(self.lam),
            "l": self.l,
            "p": self.p,
            "critical": self.critical,
            "divind": self.divind,
            "inf_injective": self.inf_injective,
            "gm_flags": list(self.gm_flags),
            "gm_injective_up_to": self.gm_injective_up_to,
            "standard_form": std,
        }


def table_row_from_json(obj):
    std = None
    if obj.get("standard_form") is not None:
        raw = obj["standard_form"]
        std = gl2.FactorizationDescriptor(
            Weight(raw["q_weight"]), raw["det_power"], Weight(raw["bar_weight"]), raw["branch"]
        )
    return TableRow(
        lam=Weight(obj["weight"]),
        l=obj["l"],
        p=obj["p"],
        critical=obj["critical"],
        divind=obj["divind"],
        inf_injective=obj["inf_injective"],
        gm_flags=tuple(obj["gm_flags"]),
        standard_form=std,
    )


def table_rows(deg_max, params, gm_max=0):
    """One classified row per rank-2 partition of degree <= deg_max, sorted
    by (degree, lex-descending weight)."""
    rows = []
    for r in range(deg_max + 1):
        for lam in partitions(r, 2):
            cls = gl2.classify(lam, params)
            flags = []
            for m in range(1, gm_max + 1):
                if params.p == 0 and m >= 2:
                    flags.append(None)
                else:
                    flags.append(gl2.is_gm_injective(lam, m, params))
            rows.append(
                TableRow(
                    lam=lam,
                    l=params.l,
                    p=params.p,
                    critical=cls.critical,
                    divind=cls.divind,
                    inf_injective=cls.inf_injective,
                    gm_flags=tuple(flags),
                    standard_form=cls.standard_form,
                )
            )
    return rows


def _bool_str(v):
    if v is None:
        return ""
    return "true" if v else "false"


def render_table(rows, fmt, gm_max=0):
    if fmt == "json":
        return json.dumps([row.to_json_obj() for row in rows], indent=2, sort_keys=True) + "\n"
    gm_headers = ["gm%d" % m for m in range(1, gm_max + 1)]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["degree", "weight", "critical", "divind", "inf_injective"] + gm_headers + ["standard_form"])
        for row in rows:
            std = row.standard_form.rendered() if row.standard_form else ""
            writer.writerow(
                [row.degree, _weight_str(row.lam), _bool_str(row.critical), row.divind,
                 _bool_str(row.inf_injective)]
                + [_bool_str(f) for f in row.gm_flags]
                + [std]
            )
        return buf.getvalue()
    # text
    header = ["degree", "weight", "critical", "divind", "inf_injective"] + gm_headers + ["standard_form"]
    lines = ["\t".join(header)]
    for row in rows:
        std = row.standard_form.rendered() if row.standard_form else "-"
        fields = [str(row.degree), _weight_str(row.lam), _bool_str(row.critical),
                  str(row.divind), _bool_str(row.inf_injective)]
        fields += [_bool_str(f) or "-" for f in row.gm_flags]
        fields.append(std)
        lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _emit(text, out):
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


def cmd_expand(args, out):
    lam = parse_weight(args.weight)
    params = parse_params(args)
    exp = digit_expansion(lam, params)
    if args.format == "json":
        obj = {
            "weight": list(lam),
            "l": params.l,
            "p": params.p,
            "e": params.e,
            "quantum_digit": list(exp.quantum_digit),
            "classical_digits": [list(d) for d in exp.classical_digits],
        }
        _emit(json.dumps(obj, indent=2, sort_keys=True), out)
        return 0
    lines = [
        "weight: (%s)" % _weight_str(lam),
        "params: %s e=%d" % (params, params.e),
        "quantum digit (base %d): (%s)" % (params.e, _weight_str(exp.quantum_digit)),
    ]
    if params.p == 0:
        lines.append("classical weight (unrefined): (%s)" % _weight_str(exp.classical_digits[0]))
    elif exp.classical_digits:
        lines.append(
            "classical digits (base %d): %s"
            % (params.p, " ".join("(%s)" % _weight_str(d) for d in exp.classical_digits))
        )
    else:
        lines.append("classical digits (base %d): none" % params.p)
    _emit("\n".join(lines), out)
    return 0


def cmd_char(args, out):
    lam = parse_weight(args.weight)
    kind = args.kind
    if kind == "schur":
        chi = schur_character(lam)
    elif kind == "sympow":
        # the degree is the entry sum of --weight; the character lives in rank 2
        params = parse_params(args)
        if not lam.is_polynomial():
            raise UsageError("sympow needs a weight with nonnegative entries")
        chi = gl2.sympow_character_recursive(lam.degree(), params)
    else:
        params = parse_params(args)
        if lam.n != 2:
            raise UsageError("%s characters are implemented for rank 2 only" % kind)
        if kind == "simple":
            chi = gl2.simple_character(lam, params)
        else:
            chi = gl2.injective_character(lam, params)
    if args.format == "json":
        _emit(json.dumps({"kind": kind, "weight": list(lam), "character": chi.to_json_obj()},
                         indent=2, sort_keys=True), out)
    else:
        _emit(str(chi), out)
    return 0


def cmd_divind(args, out):
    lam = parse_weight(args.weight)
    if lam.n != 2:
        raise UsageError("divisibility indices are computed for rank 2 only")
    params = parse_params(args)
    closed = gl2.divind_injective_closed(lam, params)
    oracle = None
    if args.check:
        oracle = gl2.divind_injective_oracle(lam, params)
        if oracle != closed:
            raise gl2.OracleMismatch(
                "divind of %r at %s: closed %d vs oracle %d" % (lam, params, closed, oracle)
            )
    if args.format == "json":
        obj = {"weight": list(lam), "l": params.l, "p": params.p, "divind": closed}
        if oracle is not None:
            obj["oracle"] = oracle
        _emit(json.dumps(obj, indent=2, sort_keys=True), out)
    else:
        line = "divind: %d" % closed
        if oracle is not None:
            line += "\noracle: %d (agrees)" % oracle
        _emit(line, out)
    return 0


def cmd_classify(args, out):
    lam = parse_weight(args.weight)
    params = parse_params(args)
    if lam.n == 2:
        limit = lam.degree() if args.check else gl2.ORACLE_DEGREE_LIMIT
        cls = gl2.classify(lam, params, oracle_degree_limit=limit)
        if args.format == "json":
            row = TableRow(lam, params.l, params.p, cls.critical, cls.divind,
                           cls.inf_injective, (), cls.standard_form)
            obj = row.to_json_obj()
            obj["oracle_checked"] = args.check or lam.degree() <= gl2.ORACLE_DEGREE_LIMIT
            _emit(json.dumps(obj, indent=2, sort_keys=True), out)
            return 0
        lines = [
            "weight: (%s)" % _weight_str(lam),
            "params: %s e=%d" % (params, params.e),
            "critical: %s" % _bool_str(cls.critical),
            "divind: %d" % cls.divind,
            "inf_injective: %s" % _bool_str(cls.inf_injective),
        ]
        if cls.standard_form is not None:
            lines.append("standard_form: %s [%s]" % (cls.standard_form.rendered(), cls.standard_form.branch))
        if args.check or lam.degree() <= gl2.ORACLE_DEGREE_LIMIT:
            lines.append("oracle_checked: true")
        _emit("\n".join(lines), out)
        return 0
    # other ranks: the criterion layer decides what it can
    if not (lam.is_dominant() and lam.is_polynomial()):
        raise UsageError("classification needs a dominant polynomial weight")
    lam0, lbar = eadic_split(lam, params.e)
    in_range = injectivity.steinberg_range(lam0, params.e)
    if in_range:
        verdict = "infinitesimally injective (Steinberg range)"
    else:
        verdict = "conditional (needs a quotient-layer divisibility-index oracle)"
    if args.format == "json":
        obj = {
            "weight": list(lam),
            "l": params.l,
            "p": params.p,
            "quantum_digit": list(lam0),
            "steinberg_range": in_range,
            "verdict": "inf_injective" if in_range else "conditional",
        }
        _emit(json.dumps(obj, indent=2, sort_keys=True), out)
        return 0
    _emit(
        "weight: (%s)\nparams: %s e=%d\nquantum digit: (%s)\nsteinberg_range: %s\nverdict: %s"
        % (_weight_str(lam), params, params.e, _weight_str(lam0), _bool_str(in_range), verdict),
        out,
    )
    return 0


def cmd_table(args, out):
    params = parse_params(args)
    if args.deg_max < 0:
        raise UsageError("--deg-max must be nonnegative")
    if args.gm_max < 0:
        raise UsageError("--gm-max must be nonnegative")
    rows = table_rows(args.deg_max, params, gm_max=args.gm_max)
    out.write(render_table(rows, args.format, gm_max=args.gm_max))
    return 0


def cmd_selfcheck(args, out):
    if args.deg_max < 0:
        raise UsageError("--deg-max must be nonnegative")
    if (args.l is None) != (args.p is None):
        raise UsageError("give both --l and --p, or neither")
    if args.l is not None:
        grid = (GroupParams(args.l, args.p),)
    else:
        grid = checks.PARAM_GRID
    results = checks.run_all(deg_max=args.deg_max, grid=grid)
    for res in results:
        _emit(res.summary(), out)
    failed = sum(0 if res.ok else 1 for res in results)
    _emit(
        "selfcheck: %d suites, %d ok, %d failed (deg_max=%d)"
        % (len(results), len(results) - failed, failed, args.deg_max),
        out,
    )
    return 2 if failed else 0


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


def _add_params(sub, required=True):
    sub.add_argument("--l", type=int, required=required, default=None,
                     help="quantum parameter class (1 for q=1, else the root-of-unity order)")
    sub.add_argument("--p", type=int, required=required, default=None,
                     help="field characteristic (0 or a prime)")


def build_parser():
    parser = _Parser(prog="polyinj",
                     description="characters, divisibility indices and injectivity "
                                 "classification for polynomial modules of (quantized) GL_n")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sub = subs.add_parser("expand", help="digit expansion of a weight")
    sub.add_argument("--weight", required=True)
    _add_params(sub)
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.set_defaults(func=cmd_expand)

    sub = subs.add_parser("char", help="print a character")
    sub.add_argument("kind", choices=("schur", "simple", "injective", "sympow"))
    sub.add_argument("--weight", required=True,
                     help="highest weight; for sympow the degree is its entry sum")
    _add_params(sub, required=False)
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.set_defaults(func=cmd_char)

    sub = subs.add_parser("divind",
                          help="divisibility index of an injective envelope (rank 2)")
    sub.add_argument("--weight", required=True)
    _add_params(sub)
    sub.add_argument("--check", action="store_true", help="also run the character oracle")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.set_defaults(func=cmd_divind)

    sub = subs.add_parser("classify",
                          help="full classification (rank 2) or criterion-layer verdict")
    sub.add_argument("--weight", required=True)
    _add_params(sub)
    sub.add_argument("--check", action="store_true",
                     help="force the character oracles regardless of degree")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.set_defaults(func=cmd_classify)

    sub = subs.add_parser("table",
                          help="classification table over all rank-2 weights up to a degree")
    sub.add_argument("--deg-max", type=int, required=True, dest="deg_max")
    _add_params(sub)
    sub.add_argument("--gm-max", type=int, default=0, dest="gm_max",
                     help="also test injectivity over Frobenius kernels up to this index")
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sub.set_defaults(func=cmd_table)

    sub = subs.add_parser("selfcheck",
                          help="run every invariant suite; nonzero exit on any failure")
    sub.add_argument("--deg-max", type=int, default=20, dest="deg_max")
    _add_params(sub, required=False)
    sub.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args, out)
    except UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    except gl2.OracleMismatch as exc:
        sys.stderr.write("oracle disagreement: %s\n" % exc)
        return 2
    except (ValueError, PeelError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1

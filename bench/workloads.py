"""The three workloads: seeded inputs, output checks and input properties.

An op is one polyinj command line, run through ``polyinj.cli.main``.  Each
workload yields its ops in blocks.  A block is a balanced design (every
degree stratum and every parameter pair appears in it), and a run executes
whole blocks only, so two runs with different seeds or different lengths
cover the same mix of inputs.  That keeps the latency percentiles a
property of the program rather than of the draw.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from typing import Callable, Optional

# (l, p) pairs; p = 0 with l >= 2 is characteristic zero.
ORACLE_PAIRS = ((1, 2), (1, 3), (2, 3), (4, 2), (5, 7), (3, 0))
# the seven PARAM_GRID pairs, composite l, and large primes p
CLOSED_PAIRS = ((1, 2), (1, 3), (1, 5), (2, 3), (3, 2), (2, 0), (3, 0),
                (4, 2), (6, 3), (9, 2), (1, 10007), (7, 1000003))
ORACLE_DEGREES = (40, 160)       # uniform, inclusive
CLOSED_LOG10_DEGREES = (4, 15)   # log-uniform
SELFCHECK_ARGV = ("selfcheck", "--deg-max", "40")


@dataclass(frozen=True)
class Op:
    argv: tuple
    weight: Optional[tuple] = None  # rank-2 weight of a classify op
    l: int = 0
    p: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    block_size: int
    min_blocks: int   # a run never stops before this many blocks
    pool_blocks: int  # blocks generated at set-up; a long run cycles them
    make_blocks: Callable  # (rng, n) -> n blocks, each a list of Op
    check: Callable       # (op, exit code, stdout) -> (items verified, problem or None)

    @property
    def min_ops(self):
        return self.block_size * self.min_blocks

    def blocks(self, seed):
        return self.make_blocks(random.Random(seed), self.pool_blocks)


def _classify_op(r, b, l, p, fmt, check):
    argv = ["classify", "--weight", "%d,%d" % (r - b, b), "--l", str(l), "--p", str(p)]
    if check:
        argv.append("--check")
    if check or fmt != "text":
        argv += ["--format", fmt]
    return Op(tuple(argv), (r - b, b), l, p)


def _oracle_blocks(rng, n, strata=12, group=9):
    """Blocks of 12 ops, one per degree stratum, each pair twice.  Within a
    group of 9 blocks (the shortest run) every stratum is split into 9
    finer ones, one per block, so the degrees a run measures hardly depend
    on the seed; over a group every degree is equally likely."""
    lo, hi = ORACLE_DEGREES
    width = (hi - lo + 1) / strata
    blocks = []
    while len(blocks) < n:
        fine = [rng.sample(range(group), group) for _ in range(strata)]
        for k in range(group):
            pairs = list(ORACLE_PAIRS) * (strata // len(ORACLE_PAIRS))
            rng.shuffle(pairs)
            ops = []
            for i, (l, p) in enumerate(pairs):
                r = lo + int((i + (fine[i][k] + rng.random()) / group) * width)
                ops.append(_classify_op(r, rng.randint(0, r // 2), l, p, "json", check=True))
            rng.shuffle(ops)
            blocks.append(ops)
    return blocks[:n]


def _closed_blocks(rng, n):
    return [_closed_block(rng) for _ in range(n)]


def _closed_block(rng):
    lo, hi = CLOSED_LOG10_DEGREES
    pairs = list(CLOSED_PAIRS)
    rng.shuffle(pairs)
    formats = ["text", "json"] * (len(pairs) // 2)
    rng.shuffle(formats)
    ops = []
    for i, ((l, p), fmt) in enumerate(zip(pairs, formats)):
        r = int(10 ** (lo + (i + rng.random()) * (hi - lo) / len(pairs)))
        ops.append(_classify_op(r, rng.randint(0, r // 2), l, p, fmt, check=False))
    rng.shuffle(ops)
    return ops


def _selfcheck_blocks(rng, n):
    return [[Op(SELFCHECK_ARGV)] for _ in range(n)]


# ---------------------------------------------------------------------------
# output checks

_STD_TEXT = re.compile(r"Q\((-?\d+),(-?\d+)\)\*D\^(-?\d+)\*I\((-?\d+),(-?\d+)\)\^F \[(\w+)\]$")
_SUITE_LINE = re.compile(r"(ok  |FAIL)  (\S+)\s+(\d+) instances$")
_SELFCHECK_TAIL = re.compile(r"selfcheck: (\d+) suites, (\d+) ok, (\d+) failed \(deg_max=\d+\)$")
_PARAMS_TEXT = re.compile(r"l=(\d+),p=(\d+) e=(\d+)$")


def _parse_text_classify(stdout):
    fields = dict(line.split(": ", 1) for line in stdout.splitlines())
    l, p, e = map(int, _PARAMS_TEXT.match(fields["params"]).groups())
    rec = {
        "weight": [int(a) for a in fields["weight"].strip("()").split(",")],
        "l": l, "p": p, "e": e,
        "critical": {"true": True, "false": False}[fields["critical"]],
        "divind": int(fields["divind"]),
        "inf_injective": {"true": True, "false": False}[fields["inf_injective"]],
        "oracle_checked": fields.get("oracle_checked") == "true",
        "standard_form": None,
    }
    if "standard_form" in fields:
        q0, q1, m, b0, b1, branch = _STD_TEXT.match(fields["standard_form"]).groups()
        rec["standard_form"] = {"q_weight": [int(q0), int(q1)], "det_power": int(m),
                                "bar_weight": [int(b0), int(b1)], "branch": branch}
    return rec


def check_classify(op, rc, stdout, need_oracle=False):
    if rc != 0:
        return 0, "exit code %r" % (rc,)
    try:
        rec = json.loads(stdout) if stdout.startswith("{") else _parse_text_classify(stdout)
        problem = _classify_problem(op, rec, need_oracle)
    except (ValueError, KeyError, AttributeError, TypeError, IndexError) as exc:
        problem = "malformed output (%s: %s)" % (type(exc).__name__, exc)
    return (0, problem) if problem else (1, None)


def _classify_problem(op, rec, need_oracle):
    lam = list(op.weight)
    degree = sum(lam)
    e = op.l if op.l >= 2 else op.p
    if rec["weight"] != lam or rec["l"] != op.l or rec["p"] != op.p:
        return "output describes another input"
    if rec.get("e", e) != e or rec.get("degree", degree) != degree:
        return "wrong e or degree"
    div = rec["divind"]
    if not 0 <= 2 * div <= degree:
        return "divind %d outside [0, degree/2]" % div
    if rec["critical"] != (div == 0):
        return "critical disagrees with divind %d" % div
    std = rec["standard_form"]
    if (std is not None) != rec["inf_injective"]:
        return "standard form present iff inf_injective fails"
    if std is not None:
        q, m, bar = std["q_weight"], std["det_power"], std["bar_weight"]
        if [q[i] + m + e * bar[i] for i in range(2)] != lam:
            return "q + m*omega + e*bar != lam"
        if m != div:
            return "standard form splits off %d determinants, divind is %d" % (m, div)
    if need_oracle and rec.get("oracle_checked") is not True:
        return "oracle not run"
    return None


def check_selfcheck(op, rc, stdout):
    if rc != 0:
        return 0, "exit code %r" % (rc,)
    lines = stdout.splitlines()
    tail = _SELFCHECK_TAIL.match(lines[-1]) if lines else None
    suites = [_SUITE_LINE.match(line) for line in lines[:-1]]
    if tail is None or not suites or None in suites:
        return 0, "unparsable selfcheck report"
    total, ok, failed = map(int, tail.groups())
    if failed or not total == ok == len(suites) or any(m.group(1) != "ok  " for m in suites):
        return 0, "a suite failed"
    return sum(int(m.group(3)) for m in suites), None


def check_oracle_classify(op, rc, stdout):
    return check_classify(op, rc, stdout, need_oracle=True)


# 9 blocks of 12 give p90 at least 10 samples beyond it
WORKLOADS = {
    "oracle-deep": Workload("oracle-deep", 12, 9, 18, _oracle_blocks, check_oracle_classify),
    "closed-bulk": Workload("closed-bulk", 12, 9, 128, _closed_blocks, check_classify),
    "selfcheck": Workload("selfcheck", 1, 1, 1, _selfcheck_blocks, check_selfcheck),
}


# ---------------------------------------------------------------------------
# input properties (reported beside the metrics, never as metrics)


def _digit_critical(d, base):
    """Criticality of one digit; base 0 marks the unrefined quotient of
    characteristic zero, critical iff its last entry is 0."""
    return d[1] == 0 or (base > 0 and d[0] == base - 1)


def input_properties(ops, polyinj):
    """Properties of the classify inputs that the program's cost depends on.

    ``deep_share`` is the share of weights whose highest non-critical digit
    sits at index >= 1 (a classical digit), read from the public
    ``digit_expansion``: the deep branches of the closed form.
    """
    if any(op.weight is None for op in ops):
        return {"ops": len(ops), "argv": sorted({" ".join(op.argv) for op in ops})}
    degree_hist, digit_hist, p_hist = {}, {}, {}
    deep = char0 = 0
    for op in ops:
        degree = sum(op.weight)
        bucket = ("%d-%d" % (degree // 10 * 10, degree // 10 * 10 + 9) if degree < 1000
                  else "1e%d" % (len(str(degree)) - 1))
        degree_hist[bucket] = degree_hist.get(bucket, 0) + 1
        params = polyinj.GroupParams(op.l, op.p)
        exp = polyinj.digit_expansion(op.weight, params)
        digits = (exp.quantum_digit,) + exp.classical_digits
        bases = (params.e,) + (op.p,) * len(exp.classical_digits)
        bad = [i for i, (d, base) in enumerate(zip(digits, bases)) if not _digit_critical(d, base)]
        deep += bool(bad) and bad[-1] >= 1
        char0 += op.p == 0
        digits_key = "char0" if op.p == 0 else str(len(exp.classical_digits))
        digit_hist[digits_key] = digit_hist.get(digits_key, 0) + 1
        p_hist[str(op.p)] = p_hist.get(str(op.p), 0) + 1
    return {
        "ops": len(ops),
        "degree_hist": dict(sorted(degree_hist.items(), key=lambda kv: _bucket_key(kv[0]))),
        "classical_digits_hist": dict(sorted(digit_hist.items(),
                                             key=lambda kv: -1 if kv[0] == "char0" else int(kv[0]))),
        "deep_share": deep / len(ops),
        "char0_share": char0 / len(ops),
        "p_hist": p_hist,
    }


def _bucket_key(bucket):
    return float(bucket[2:]) * 1e6 if bucket.startswith("1e") else float(bucket.split("-")[0])

"""Command-line front end.

Subcommands: ``expand`` (digit expansion), ``char`` (schur | simple |
injective | sympow), ``divind``, ``classify``, ``table``, ``selfcheck``.
Weights are passed as comma-separated integer lists (``--weight 5,2``),
the arithmetic context as ``--l`` and ``--p`` (characteristic-zero quantum
parameters are ``--p 0`` with ``--l`` at least 2).  Output formats: text
(default), json, csv (tables only).  A command builds one record, its
(key, value, line) fields in text order, and :func:`render` writes it as
JSON or text; a table's text and csv are columns of :func:`_row_fields`.
:func:`main` writes what the command returns.  Exit codes: 0 success,
1 usage error, 2 invariant or oracle disagreement.  Every subcommand is
declared once in ``COMMANDS``.  :func:`parse_args` parses a line with the
parser of the subcommand its first argument names alone, and a line
that parser does not take whole with the parser of every subcommand;
either way help and usage errors are the same bytes.  Work that grows
with an argument is counted first against a budget (``TERM_LIMIT``,
``TABLE_ROW_LIMIT``, ``COLUMN_ROW_LIMIT``); a count over its limit is a
usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from collections import namedtuple

from . import checks, gl2, injectivity
from .characters import PeelError
from .schur import partitions, schur_character, tableau_count
from .weights import GroupParams, Weight, check_partition, digit_expansion, eadic_split


class UsageError(ValueError):
    pass


# Work budgets, each counted before the work it bounds; a count above its
# limit is a usage error.  TERM_LIMIT bounds the terms of a printed
# character.  A Schur character is counted by its tableaux, an upper bound
# on its terms: 892,500 for 13,7,3,1,0 take about 0.2 s, 996,072 for
# 7,5,2,2,2,2,2,0 about 0.5 s, and the 982,101 of 1400,0,0, each its own
# term, about 4 s, most of it printing.  Any other rank-2 character is a
# vector of degree + 1 coefficients.  TERM_LIMIT also bounds the printed
# cells of a table, rows times (6 + --gm-max).  TABLE_ROW_LIMIT bounds the
# rows of a table and COLUMN_ROW_LIMIT the lam_2 + 1 rows of the
# decomposition column that --check and char injective solve.  A row costs
# a few shifts of lam_2-bit ints per digit and two popcounts, whatever the
# column's support, so the limit bounds time: the worst case, 8191,8191
# at --l 1 --p 2 with all 8,192 rows nonzero, takes 0.22-0.23 s in a fresh
# process (2-vCPU Xeon, Python 3.11).
TERM_LIMIT = 10 ** 6
TABLE_ROW_LIMIT = 50_000
COLUMN_ROW_LIMIT = 2 ** 13


class ChecksFailed(Exception):
    """A selfcheck suite failed; carries the full report for stdout."""


def parse_weight(text):
    try:
        entries = [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError("bad weight %r; expected comma-separated integers" % text)
    return Weight(entries)


def _check_budget(count, limit, subject, unit):
    if count > limit:
        raise UsageError("%s has %d %s, above the limit of %d" % (subject, count, unit, limit))


def _check_column_rows(lam):
    if lam.is_dominant():  # any other weight is refused by gl2 itself
        _check_budget(lam[1] + 1, COLUMN_ROW_LIMIT, "column %s" % _weight_str(lam), "rows")


def parse_params(args):
    if args.l is None or args.p is None:
        raise UsageError("--l and --p are required for this command")
    try:
        return GroupParams(args.l, args.p)
    except ValueError as exc:
        raise UsageError(str(exc))


# ---------------------------------------------------------------------------
# rendering


def _weight_str(w):
    return ",".join(str(a) for a in w)


def _bool_str(v, blank=""):
    if v is None:
        return blank
    return "true" if v else "false"


def _json(obj):
    return json.dumps(obj, indent=2, sort_keys=True,
                      default=lambda value: value.to_json_obj()) + "\n"


def _lines(lines):
    return "\n".join(lines) + "\n"


def _json_obj(record):
    return {key: value for key, value, _ in record if key is not None}


def render(record, fmt):
    """Write ``record``, a list of (key, value, line) triples in text
    order: as JSON, the object of every (key, value) with sorted keys (a
    ``Weight`` is a tuple, so it comes out as a list); as text, every line.
    A None key is text only and a None line JSON only.  A value JSON cannot
    encode is written as its ``to_json_obj()`` and a line as its ``str()``,
    so a character is converted for the format asked for only."""
    if fmt == "json":
        return _json(_json_obj(record))
    return _lines([str(line) for _, _, line in record if line is not None])


def _weight_params(lam, params):
    """The weight and params fields that open a command's record."""
    return [("weight", lam, "weight: (%s)" % _weight_str(lam)),
            ("l", params.l, None),
            ("p", params.p, None),
            (None, None, "params: %s e=%d" % (params, params.e))]


def classification_record(cls, gm_max=0):
    """Record of a rank-2 classification with its Frobenius-kernel
    verdicts for m = 1..gm_max (None: undefined in characteristic 0)."""
    std = cls.standard_form
    return [("degree", cls.lam.degree(), None)] + _weight_params(cls.lam, cls.params) + [
        ("critical", cls.critical, "critical: %s" % _bool_str(cls.critical)),
        ("divind", cls.divind, "divind: %d" % cls.divind),
        ("inf_injective", cls.inf_injective, "inf_injective: %s" % _bool_str(cls.inf_injective)),
        ("gm_flags", cls.gm_flags(gm_max), None),
        ("gm_injective_up_to", min(cls.kernel_depth, gm_max), None),
        (("standard_form", None, None) if std is None else
         ("standard_form",
          {"q_weight": std.q_weight, "det_power": std.det_power,
           "bar_weight": std.bar_weight, "branch": std.branch},
          "standard_form: %s [%s]" % (std.rendered(), std.branch))),
    ]


# ---------------------------------------------------------------------------
# table


def table_rows(deg_max, params):
    """One classification per rank-2 partition of degree <= deg_max, sorted
    by (degree, lex-descending weight)."""
    return [gl2.classify(lam, params) for r in range(deg_max + 1) for lam in partitions(r, 2)]


def _row_fields(cls, gm_max, blank):
    """One table row for text (``blank`` is "-") or csv (``blank`` is "")."""
    std = cls.standard_form.rendered() if cls.standard_form else blank
    return ([str(cls.lam.degree()), _weight_str(cls.lam), _bool_str(cls.critical),
             str(cls.divind), _bool_str(cls.inf_injective)]
            + [_bool_str(flag, blank) for flag in cls.gm_flags(gm_max)] + [std])


def render_table(rows, fmt, gm_max=0):
    if fmt == "json":
        return _json([_json_obj(classification_record(cls, gm_max)) for cls in rows])
    header = (["degree", "weight", "critical", "divind", "inf_injective"]
              + ["gm%d" % m for m in range(1, gm_max + 1)] + ["standard_form"])
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(
            [header] + [_row_fields(cls, gm_max, "") for cls in rows])
        return buf.getvalue()
    return _lines(["\t".join(header)] + ["\t".join(_row_fields(cls, gm_max, "-")) for cls in rows])


# ---------------------------------------------------------------------------
# subcommands


def cmd_expand(args):
    lam = parse_weight(args.weight)
    params = parse_params(args)
    exp = digit_expansion(lam, params)
    if params.p == 0:
        digits = "classical weight (unrefined): (%s)" % _weight_str(exp.classical_digits[0])
    else:
        digits = "classical digits (base %d): %s" % (
            params.p, " ".join("(%s)" % _weight_str(d) for d in exp.classical_digits) or "none")
    return render(_weight_params(lam, params) + [
        ("e", params.e, None),
        ("quantum_digit", exp.quantum_digit,
         "quantum digit (base %d): (%s)" % (params.e, _weight_str(exp.quantum_digit))),
        ("classical_digits", exp.classical_digits, digits),
    ], args.format)


def cmd_char(args):
    lam = parse_weight(args.weight)
    kind = args.kind
    if kind == "schur":
        _check_budget(tableau_count(lam), TERM_LIMIT, "schur %s" % _weight_str(lam), "tableaux")
        chi = schur_character(lam)
    elif kind == "sympow":
        # the degree is the entry sum of --weight; the character lives in rank 2
        params = parse_params(args)
        if not lam.is_polynomial():
            raise UsageError("sympow needs a weight with nonnegative entries")
        _check_budget(lam.degree() + 1, TERM_LIMIT, "sympow of degree %d" % lam.degree(), "terms")
        chi = gl2.sympow_character_recursive(lam.degree(), params)
    else:
        params = parse_params(args)
        if lam.n != 2:
            raise UsageError("%s characters are implemented for rank 2 only" % kind)
        _check_budget(lam.degree() + 1, TERM_LIMIT, "%s %s" % (kind, _weight_str(lam)),
                     "coefficients")
        if kind == "injective":
            _check_column_rows(lam)
        chi = (gl2.simple_character if kind == "simple" else gl2.injective_character)(lam, params)
    return render([("kind", kind, None), ("weight", lam, None), ("character", chi, chi)],
                  args.format)


def cmd_divind(args):
    lam = parse_weight(args.weight)
    if lam.n != 2:
        raise UsageError("divisibility indices are computed for rank 2 only")
    params = parse_params(args)
    if args.check:
        _check_column_rows(lam)
    divind = gl2.classify(lam, params, check=args.check).divind
    record = [("weight", lam, None), ("l", params.l, None), ("p", params.p, None),
              ("divind", divind, "divind: %d" % divind)]
    if args.check:
        record.append(("oracle", divind, "oracle: %d (agrees)" % divind))
    return render(record, args.format)


def cmd_classify(args):
    lam = parse_weight(args.weight)
    params = parse_params(args)
    if lam.n == 2:
        if args.check:
            _check_column_rows(lam)
        cls = gl2.classify(lam, params, check=args.check)
        return render(classification_record(cls) + [
            ("oracle_checked", cls.oracle_checked,
             "oracle_checked: true" if cls.oracle_checked else None)], args.format)
    # other ranks: the criterion layer decides what it can
    lam0, lbar = eadic_split(check_partition(lam), params.e)
    in_range = injectivity.steinberg_range(lam0, params.e)
    return render(_weight_params(lam, params) + [
        ("quantum_digit", lam0, "quantum digit: (%s)" % _weight_str(lam0)),
        ("steinberg_range", in_range, "steinberg_range: %s" % _bool_str(in_range)),
        ("verdict", "inf_injective" if in_range else "conditional",
         "verdict: infinitesimally injective (Steinberg range)" if in_range
         else "verdict: conditional (needs a quotient-layer divisibility-index oracle)"),
    ], args.format)


def cmd_table(args):
    params = parse_params(args)
    if args.deg_max < 0:
        raise UsageError("--deg-max must be nonnegative")
    if args.gm_max < 0:
        raise UsageError("--gm-max must be nonnegative")
    # sum over r <= deg_max of (r // 2 + 1), the rank-2 partitions of each degree
    rows = (args.deg_max // 2 + 1) * ((args.deg_max + 1) // 2 + 1)
    _check_budget(rows, TABLE_ROW_LIMIT, "table to degree %d" % args.deg_max, "rows")
    # five verdict columns, one per Frobenius kernel, then the standard form
    _check_budget(rows * (6 + args.gm_max), TERM_LIMIT,
                  "table to degree %d with --gm-max %d" % (args.deg_max, args.gm_max), "cells")
    return render_table(table_rows(args.deg_max, params), args.format, gm_max=args.gm_max)


def cmd_selfcheck(args):
    if args.deg_max < 0:
        raise UsageError("--deg-max must be nonnegative")
    if (args.l is None) != (args.p is None):
        raise UsageError("give both --l and --p, or neither")
    grid = checks.PARAM_GRID if args.l is None else (GroupParams(args.l, args.p),)
    results = checks.run_all(deg_max=args.deg_max, grid=grid)
    failed = sum(not res.ok for res in results)
    report = _lines([res.summary() for res in results] + [
        "selfcheck: %d suites, %d ok, %d failed (deg_max=%d)"
        % (len(results), len(results) - failed, failed, args.deg_max)])
    if failed:
        raise ChecksFailed(report)
    return report


# ---------------------------------------------------------------------------
# parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write("error: %s\n" % message)
        raise SystemExit(1)


def _arg(*flags, **kwargs):
    return flags, kwargs


def _params(required=True):
    return [
        _arg("--l", type=int, required=required, default=None,
             help="quantum parameter class (1 for q=1, else the root-of-unity order)"),
        _arg("--p", type=int, required=required, default=None,
             help="field characteristic (0 or a prime)"),
    ]


_TEXT_JSON = _arg("--format", choices=("text", "json"), default="text")


# one subcommand: its name, help line, handler and the (flags, kwargs)
# pairs of its ``add_argument`` calls, in order
Command = namedtuple("Command", "name help func args")


COMMANDS = {cmd.name: cmd for cmd in [
    Command("expand", "digit expansion of a weight", cmd_expand,
            [_arg("--weight", required=True), *_params(), _TEXT_JSON]),
    Command("char", "print a character", cmd_char, [
        _arg("kind", choices=("schur", "simple", "injective", "sympow")),
        _arg("--weight", required=True,
             help="highest weight; for sympow the degree is its entry sum"),
        *_params(required=False), _TEXT_JSON]),
    Command("divind", "divisibility index of an injective envelope (rank 2)", cmd_divind, [
        _arg("--weight", required=True), *_params(),
        _arg("--check", action="store_true", help="also run the character oracle"),
        _TEXT_JSON]),
    Command("classify", "full classification (rank 2) or criterion-layer verdict", cmd_classify, [
        _arg("--weight", required=True), *_params(),
        _arg("--check", action="store_true",
             help="force the character oracles regardless of degree"),
        _TEXT_JSON]),
    Command("table", "classification table over all rank-2 weights up to a degree", cmd_table, [
        _arg("--deg-max", type=int, required=True, dest="deg_max"), *_params(),
        _arg("--gm-max", type=int, default=0, dest="gm_max",
             help="also test injectivity over Frobenius kernels up to this index"),
        _arg("--format", choices=("text", "json", "csv"), default="text")]),
    Command("selfcheck", "run every invariant suite; nonzero exit on any failure", cmd_selfcheck,
            [_arg("--deg-max", type=int, default=20, dest="deg_max"), *_params(required=False)]),
]}


def _add_command(parser, cmd):
    """Give ``parser`` the options of ``cmd`` and the defaults that name it."""
    for flags, kwargs in cmd.args:
        parser.add_argument(*flags, **kwargs)
    parser.set_defaults(command=cmd.name, func=cmd.func)
    return parser


def build_parser():
    """The argument parser of every subcommand.  It parses any command line
    and prints every help text and usage error."""
    parser = _Parser(prog="polyinj",
                     description="characters, divisibility indices and injectivity "
                                 "classification for polynomial modules of (quantized) GL_n")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for cmd in COMMANDS.values():
        _add_command(subs.add_parser(cmd.name, help=cmd.help), cmd)
    return parser


def parse_args(argv):
    """The namespace of ``argv``.  A line whose first argument names a
    subcommand is parsed by that subcommand's parser alone, built as
    :func:`build_parser` builds the one it hands the rest of the line to,
    so its help and errors are the same bytes.  Every other line (no
    arguments, ``-h``, an unknown name) and one that leaves an argument
    over goes to :func:`build_parser`, which prints the usage and error
    of the whole command."""
    if argv and argv[0] in COMMANDS:
        parser = _add_command(_Parser(prog="polyinj " + argv[0]), COMMANDS[argv[0]])
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None, out=None):
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        out.write(args.func(args))
    except ChecksFailed as exc:
        out.write(str(exc))
        return 2
    except (gl2.OracleMismatch, PeelError) as exc:
        sys.stderr.write("oracle disagreement: %s\n" % exc)
        return 2
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1
    return 0

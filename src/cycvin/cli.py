"""Command-line front end.

Subcommands: count, enumerate, table, formula, bijection-check, unavoidable,
witness, verify. Pattern arguments use the library grammar, e.g. "[1~3,2,4]";
a --set flag takes one or more patterns separated by spaces.

Exit codes: 0 success, 1 verification/diff failure, 2 bad input, 3 budget
exhausted.
"""

from __future__ import annotations

import argparse
import sys

from . import formulas
from .avoidability import (
    avoidable_up_to,
    blowup_witness,
    classify_minimal_unavoidable,
    patterns_with_min_at,
    witness_minus_one,
)
from .enumeration import (
    STATS,
    BudgetExceededError,
    CountTable,
    count_range,
    enumerate_avoiders,
)
from .matcher import avoids_set
from .patterns import PatternSet, PatternSyntaxError, parse_pattern
from .perms import LinearPerm
from .tables import TABLE_DEFAULT_N_MAX, TABLE_EXTENDED_N_MAX, check_table
from .verify import BIJECTIONS, SUITES, Suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _parse_set(text: str) -> PatternSet:
    parts = text.split()
    if not parts:
        raise PatternSyntaxError("empty pattern set")
    return PatternSet.from_texts(*parts)


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    n = int(text)
    return n, n


def _print_table(table: CountTable, fmt: str) -> None:
    if fmt == "csv":
        sys.stdout.write(table.to_csv())
    elif fmt == "json":
        sys.stdout.write(table.to_json())
    else:
        print(f"patterns: {' '.join(table.patterns)}")
        for n in range(table.n_min, table.n_max + 1):
            line = f"n={n:<3d} count={table.counts[n]}"
            if table.refinement is not None:
                name, per_n = table.refinement
                if n in per_n:
                    inner = " ".join(f"{k}:{v}" for k, v in sorted(per_n[n].items()))
                    line += f"  {name}: {inner}"
            print(line)


def _cmd_count(args: argparse.Namespace) -> int:
    pset = _parse_set(args.set)
    n_min, n_max = _parse_range(args.n)
    try:
        table = count_range(pset, n_min, n_max, jobs=args.jobs,
                            budget=args.budget_nodes, stat=args.stat)
    except BudgetExceededError as exc:
        if exc.partial is not None and exc.partial.counts:
            _print_table(exc.partial, args.format)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    _print_table(table, args.format)
    return EXIT_OK


def _cmd_enumerate(args: argparse.Namespace) -> int:
    pset = _parse_set(args.set)
    n_min, n_max = _parse_range(args.n)
    if n_min != n_max:
        print("error: enumerate takes a single n", file=sys.stderr)
        return EXIT_USAGE
    if args.limit is not None and args.limit < 1:
        print("error: --limit must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    count = 0
    for c in enumerate_avoiders(pset, n_min, budget=args.budget_nodes):
        print(c)
        count += 1
        if args.limit is not None and count >= args.limit:
            break
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    n_max = args.n_max
    if n_max is None:
        n_max = TABLE_EXTENDED_N_MAX[args.table] if args.extended else TABLE_DEFAULT_N_MAX
    result = check_table(args.table, n_max, jobs=args.jobs, budget=args.budget_nodes)
    for cell in result.cells:
        status = "PASS" if cell.ok else f"FAIL (computed {cell.computed})"
        print(f"table {args.table}  {cell.patterns:<22s} n={cell.n:<3d} "
              f"expected={cell.expected:<10d} {status}")
    if not result.ok:
        print(f"{len(result.mismatches)} mismatching cells", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


FORMULA_NAMES = {
    "catalan": lambda a: formulas.catalan(a.n),
    "catalan-triangle": lambda a: formulas.catalan_triangle(a.n, a.k),
    "updown": lambda a: formulas.updown(a.n),
    "strongly-monotone": lambda a: formulas.strongly_monotone(a.n),
    "dyck-uudd": lambda a: formulas.dyck_uudd(a.n),
    "dyck-uudd-explicit": lambda a: formulas.dyck_uudd_explicit(a.n),
    "bond12-34": lambda a: formulas.av_bond12_34(a.n),
    "bond23-14": lambda a: formulas.av_bond23_14(a.n),
    "consec-123": lambda a: formulas.av_consec_123(a.n),
    "consec-132": lambda a: formulas.av_consec_132(a.n),
    "consec-123-closed": lambda a: formulas.av_consec_123_closed_form(a.n, a.terms),
}


def _cmd_formula(args: argparse.Namespace) -> int:
    if args.name == "catalan-triangle" and args.k is None:
        print("error: catalan-triangle needs --k", file=sys.stderr)
        return EXIT_USAGE
    value = FORMULA_NAMES[args.name](args)
    if isinstance(value, float):
        print(f"{value!r}  # float approximation, {args.terms} terms each side")
    else:
        print(value)
    return EXIT_OK


def _check(suites: dict[str, Suite], names: list[str], n_max: int, what: str, flag: str) -> int:
    """Run the named suites at n_max and report the sizes each checked; exit
    2 below a suite's smallest size, where some of its checks run no size."""
    for name in names:
        if n_max < suites[name].low:
            print(f"error: {what} {name!r} needs {flag} >= {suites[name].low}: below it some "
                  f"of its checks run no size", file=sys.stderr)
            return EXIT_USAGE
    failures = [failure for name in names for failure in suites[name].check(n_max)]
    if failures:
        print(f"FAIL ({len(failures)} counterexamples); first: {failures[0]}")
        return EXIT_FAIL
    for name in names:
        print(f"PASS: {what} {name!r} checked {suites[name].checked(n_max)}")
    return EXIT_OK


def _cmd_bijection_check(args: argparse.Namespace) -> int:
    return _check(BIJECTIONS, [args.map], args.n, "map", "--n")


def _cmd_unavoidable(args: argparse.Namespace) -> int:
    if args.set is not None:
        report = avoidable_up_to(_parse_set(args.set), args.horizon,
                                 budget=args.budget_nodes)
        sys.stdout.write(report.to_json())
        return EXIT_OK
    report = classify_minimal_unavoidable(args.k, args.horizon,
                                          max_subsets=args.max_subsets,
                                          budget=args.budget_nodes)
    sys.stdout.write(report.to_json())
    return EXIT_OK


def _cmd_witness(args: argparse.Namespace) -> int:
    if args.kind == "blowup":
        if args.pattern is None or args.m is None:
            print("error: --kind blowup needs --pattern and --m", file=sys.stderr)
            return EXIT_USAGE
        pi = LinearPerm.from_text(args.pattern)
        w = blowup_witness(pi, args.m)
        from .avoidability import rotation_closure_complement

        ok = avoids_set(w, rotation_closure_complement(pi))
    else:
        if None in (args.i, args.k, args.excluded, args.n):
            print("error: --kind minus-one needs --i, --k, --excluded and --n",
                  file=sys.stderr)
            return EXIT_USAGE
        excluded = parse_pattern(args.excluded)
        w = witness_minus_one(args.i, args.k, excluded, args.n)
        rest = patterns_with_min_at(args.i, args.k).difference(
            PatternSet(frozenset({excluded}))
        )
        ok = avoids_set(w, rest)
    print(w)
    print("verified: avoids the target set" if ok else "VERIFICATION FAILED")
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_verify(args: argparse.Namespace) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    return _check(SUITES, names, args.n_max, "suite", "--n-max")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycvin",
        description="Vincular pattern avoidance on cyclic permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_budget(p: argparse.ArgumentParser) -> None:
        p.add_argument("--budget-nodes", type=int, default=None,
                       help="search node ceiling")

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility and changes nothing: every query "
                            "runs in one process (must be >= 1)")
        add_budget(p)

    p = sub.add_parser("count", help="count avoiders of a pattern set")
    p.add_argument("--set", required=True, help='patterns, e.g. "[1~3,2,4]" or "[1~2~3] [3~2~1]"')
    p.add_argument("--n", required=True, help="single n or range like 1..12")
    p.add_argument("--format", choices=("table", "csv", "json"), default="table")
    p.add_argument("--stat", choices=sorted(STATS), default=None,
                   help="also report counts refined by this statistic")
    add_common(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="list the avoiders themselves")
    p.add_argument("--set", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--limit", type=int, default=None, help="print at most this many (>= 1)")
    add_budget(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("table", help="recompute a bundled reference table and diff it")
    p.add_argument("--table", type=int, choices=(1, 2), required=True,
                   help="1: length-3 doubleton classes; 2: length-4 single-bond classes")
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--extended", action="store_true",
                   help="also run the tail rows: table 1 to n = 13, table 2 to n = 12 "
                        "(seconds each)")
    add_common(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("formula", help="evaluate a closed form or series")
    p.add_argument("name", choices=sorted(FORMULA_NAMES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="column for catalan-triangle")
    p.add_argument("--terms", type=int, default=50, help="truncation for consec-123-closed")
    p.set_defaults(func=_cmd_formula)

    p = sub.add_parser("bijection-check", help="run one bijection's round-trip suite")
    p.add_argument("--map", choices=tuple(BIJECTIONS), required=True)
    p.add_argument("--n", type=int, default=9)
    p.set_defaults(func=_cmd_bijection_check)

    p = sub.add_parser("unavoidable", help="horizon-bounded (un)avoidability reports")
    p.add_argument("--set", default=None, help="report per-n emptiness for this set")
    p.add_argument("--k", type=int, default=3, help="classify minimal sets among length-k patterns")
    p.add_argument("--horizon", type=int, default=8)
    p.add_argument("--max-subsets", type=int, default=None,
                   help="bound the lattice scan (report marked incomplete)")
    add_budget(p)
    p.set_defaults(func=_cmd_unavoidable)

    p = sub.add_parser("witness", help="build and verify an avoidance witness")
    p.add_argument("--kind", choices=("minus-one", "blowup"), required=True)
    p.add_argument("--i", type=int, help="anchored position (minus-one)")
    p.add_argument("--k", type=int, help="pattern length (minus-one)")
    p.add_argument("--excluded", help="the pattern left out (minus-one)")
    p.add_argument("--n", type=int, help="witness length (minus-one)")
    p.add_argument("--pattern", help="base permutation, e.g. 1,3,4,2 (blowup)")
    p.add_argument("--m", type=int, help="number of repeats (blowup)")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("verify", help="run a property suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--n-max", type=int, default=8)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "budget_nodes", None) is not None and args.budget_nodes < 1:
        print("error: --budget-nodes must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except (PatternSyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())

"""The four benchmark workloads and the independent checks of their answers.

A workload is a fixed list of operations (one "round") plus the expected
answers, all built from the seed. Every expectation comes from a source
computed apart from the search under test: the closed forms and series in
`cycvin.formulas`, the bundled reference tables, the brute-force oracle
`count_avoiders_naive`, the naive matcher `matcher.avoids_set`, and
constructions written out in this file (the anchored families, the blow-up
witnesses, a lexicographic scan for first avoiders).

Operations that hit a fault of the program every time carry the fault's
name in `Op.fault`; the harness counts them as failed instead of incorrect.
No workload is resized to keep a fault from showing.

The cycvin modules are passed in as `cv` rather than imported here, because
the harness re-imports the package for every set-up repetition and the
operations must call the modules of the last import.
"""

from __future__ import annotations

import random
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from itertools import permutations
from math import comb
from typing import Any, Callable

TABLE2_CLASSES = ("[1~2,3,4]", "[1~2,4,3]", "[1~3,2,4]", "[1~3,4,2]",
                  "[1~4,2,3]", "[1~4,3,2]", "[2~3,1,4]", "[2~3,4,1]")
TABLE1_SETS = ("[1~2~3] [2~3~1]", "[1~3~2] [2~1~3]", "[1~3~2] [3~1~2]",
               "[1~2~3]", "[1~3~2]", "[1~2~3] [3~2~1]")
POOL_CLASSES = ("[1~3,4,2]", "[2~3,1,4]", "[2~3,4,1]")
BUDGET_CLASS = "[1~3,2,4]"

FAULT_ODD_HORIZON = ("odd-horizon: classify_minimal_unavoidable tests emptiness only at "
                     "n = horizon, so at an odd horizon it reports {[1~2~3],[3~2~1]} "
                     "as unavoidable")
FAULT_UNPICKLABLE = ("budget-unpicklable: BudgetExceededError cannot be unpickled, so a "
                     "worker's budget error ends in BrokenProcessPool")
FAULT_WORKER_BUDGET = ("budget-per-worker: with jobs > 1 each worker gets the whole "
                       "budget, so the pooled count succeeds where jobs=1 raises")
FAULT_SHARD_NODES = ("budget-shard-nodes: the jobs=1 budget error reports the current "
                     "shard's nodes, not the running total, which is below the budget")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; the self-test uses TINY, the benchmark FULL."""

    table2_n: int
    small_n: int  # n of the brute-force cross-check before the timed phase
    table1_n: int
    even_horizon: int
    odd_horizon: int
    k4_horizon: int  # a multiple of 4, so the blow-up witnesses exist
    k4_max_subsets: int
    find_n: int  # a multiple of 4, for the same reason
    find_queries: int
    find_sizes: tuple[int, ...]
    empty_sample: int  # "no avoider" answers re-checked with count_avoiders
    first_n: int
    pool_n: int
    budget_n: int
    budgets: tuple[int, ...]


FULL = Sizes(table2_n=8, small_n=6, table1_n=10, even_horizon=8, odd_horizon=9,
             k4_horizon=8, k4_max_subsets=600, find_n=8, find_queries=1300,
             find_sizes=tuple(range(6, 19)), empty_sample=6, first_n=9, pool_n=9,
             budget_n=8, budgets=(100, 5000))
TINY = Sizes(table2_n=6, small_n=5, table1_n=6, even_horizon=6, odd_horizon=7,
             k4_horizon=8, k4_max_subsets=30, find_n=8, find_queries=20,
             find_sizes=(4, 12, 20), empty_sample=2, first_n=6, pool_n=6,
             budget_n=8, budgets=(100, 5000))


@dataclass
class Op:
    """One timed call into the program and the check of its answer.

    `layer` names the per-layer span the call is recorded under; `query`
    marks the operations whose latencies make query_ms_p50 and query_ms_p90.
    `check` returns None for a correct answer or a one-line reason.
    """

    name: str
    layer: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    wrong: Callable[[Any], Any]  # a planted wrong answer, for the self-test
    query: bool = False
    fault: str | None = None
    avoiders: Callable[[Any], int] = lambda _r: 0
    subsets: Callable[[Any], int] = lambda _r: 0
    witnesses: Callable[[Any], int] = lambda _r: 0


@dataclass
class Workload:
    ops: list[Op]
    prechecks: list[Callable[[], str | None]] = field(default_factory=list)
    # after each round: checks relating the answers of several operations,
    # each returning (operation name, reason) pairs for the answers it rejects
    round_checks: list[Callable[[dict[str, Any]], list[tuple[str, str]]]] = \
        field(default_factory=list)


# ---------------------------------------------------------------------------
# outcomes of calls that may raise

@dataclass(frozen=True)
class Raised:
    kind: str
    nodes: int | None
    message: str


def capture(fn: Callable[[], Any], errors: tuple[type[BaseException], ...]) -> Callable[[], Any]:
    """Run fn, turning the listed exceptions into a Raised outcome."""
    def call() -> Any:
        try:
            return fn()
        except errors as exc:
            return Raised(type(exc).__name__, getattr(exc, "nodes", None), str(exc))
    return call


# ---------------------------------------------------------------------------
# checks

def expect_witness(cv: Any, pset: Any, n: int) -> Callable[[Any], str | None]:
    """A witness must be a length-n cyclic permutation that the naive matcher
    finds free of every pattern of the set."""
    def check(got: Any) -> str | None:
        if got is None:
            return None
        if not isinstance(got, cv.perms.CyclicPerm) or got.n != n:
            return f"witness {got!r} is not a cyclic permutation of length {n}"
        if not cv.matcher.avoids_set(got, pset):
            return f"witness {got} contains a pattern of {pset}"
        return None
    return check


def lex_first(cv: Any, pset: Any, n: int, *, avoiding: bool) -> Any:
    """The lexicographically first canonical cyclic permutation of length n
    that avoids the set (or, with avoiding=False, contains one of its
    patterns), by a plain scan with the naive matcher; None if there is none.
    The containing one is the planted wrong witness of the self-test."""
    for rest in permutations(range(2, n + 1)):
        c = cv.perms.CyclicPerm(cv.perms.LinearPerm((1,) + rest))
        if cv.matcher.avoids_set(c, pset) == avoiding:
            return c
    return None


def tv_text(values: tuple[int, ...]) -> str:
    return "[" + "~".join(map(str, values)) + "]"


def anchored_families(cv: Any, k: int) -> set[frozenset]:
    """The 2k families of totally vincular length-k patterns with value 1, or
    value k, at a fixed position, written out directly."""
    fams = set()
    for i in range(k):
        for extreme in (1, k):
            fams.add(frozenset(cv.patterns.parse_pattern(tv_text(p))
                               for p in permutations(range(1, k + 1)) if p[i] == extreme))
    return fams


def blowup_word(pi: tuple[int, ...], m: int) -> tuple[int, ...]:
    """m vertically shifted copies of pi: every cyclic window of length k
    reduces to a rotation of pi."""
    return tuple(m * (x - 1) + r for r in range(1, m + 1) for x in pi)


def blowup_precheck(cv: Any, k: int, n: int) -> Callable[[], str | None]:
    """For every rotation class of length-k permutations, the blow-up of length
    n avoids all totally vincular patterns outside the class. Then every set of
    fewer than (k-1)! such patterns misses a whole class and is avoidable at n."""
    def check() -> str | None:
        for rest in permutations(range(2, k + 1)):
            pi = (1,) + rest
            rotations = {pi[t:] + pi[:t] for t in range(k)}
            outside = [tv_text(p) for p in permutations(range(1, k + 1)) if p not in rotations]
            word = blowup_word(pi, n // k)
            start = word.index(1)
            c = cv.perms.CyclicPerm(cv.perms.LinearPerm(word[start:] + word[:start]))
            if not cv.matcher.avoids_set(c, cv.patterns.PatternSet.from_texts(*outside)):
                return f"blow-up of {pi} at n={n} contains a pattern outside its rotations"
        return None
    return check


def small_n_precheck(cv: Any, texts: str, n: int) -> Callable[[], str | None]:
    def check() -> str | None:
        pset = cv.patterns.PatternSet.from_texts(*texts.split())
        got = cv.enumeration.count_avoiders(pset, n)
        want = cv.enumeration.count_avoiders_naive(pset, n)
        if got != want:
            return f"{texts} at n={n}: count_avoiders {got}, count_avoiders_naive {want}"
        return None
    return check


# ---------------------------------------------------------------------------
# workloads; each builder takes the harness context (run.Ctx): the modules
# `cv`, the bundled `tables`, the `sizes`, the `seed` and a traced `parse`

def _formula_count(cv: Any, texts: str, n: int) -> int | None:
    """The closed form or series for a class, where the paper gives one."""
    f = cv.formulas
    forms = {
        "[1~3,2,4]": lambda: f.catalan(n - 1),
        "[1~4,2,3]": lambda: f.catalan(n - 1),
        "[1~4,3,2]": lambda: f.catalan(n - 1),
        "[1~2,3,4]": lambda: f.av_bond12_34(n),
        "[1~2,4,3]": lambda: f.av_bond12_34(n),
        "[2~3,1,4]": lambda: f.av_bond23_14(n),
        "[1~3,4,2]": lambda: f.dyck_uudd(n + 1),
        "[1~2~3]": lambda: f.av_consec_123(n),
        "[1~3~2]": lambda: f.av_consec_132(n),
        # alternating cyclic permutations: none at odd n
        "[1~2~3] [3~2~1]": lambda: f.updown(n - 1) if n % 2 == 0 else 0,
    }
    form = forms.get(texts)
    return None if form is None else form()


def _count_op(ctx: Any, texts: str, pset: Any, n: int, *, jobs: int, layer: str,
              query: bool = True) -> Op:
    sources = [("bundled table", table[texts][n])
               for table in ctx.tables.values() if texts in table]
    formula = _formula_count(ctx.cv, texts, n)
    if formula is not None:
        sources.append(("closed form", formula))
    if not sources:
        raise ValueError(f"no independent source for {texts} at n={n}")

    def check(got: Any) -> str | None:
        for what, want in sources:
            if got != want:
                return f"{texts} n={n}: {what} gives {want}, count_avoiders gave {got!r}"
        return None

    count_avoiders = ctx.cv.enumeration.count_avoiders
    return Op(name=f"count {texts} n={n} jobs={jobs}", layer=layer,
              run=lambda: count_avoiders(pset, n, jobs=jobs), check=check, query=query,
              avoiders=lambda r: r, wrong=lambda r: r + 1)


def _refined_op(ctx: Any, texts: str, pset: Any, n: int, stat: str) -> Op:
    tri = ctx.cv.formulas.catalan_triangle
    if stat == "predecessor_of_n":
        want = {i: tri(n - 2, i - 1) for i in range(1, n)}
    else:
        want = {z: tri(n - 2, n - z) for z in range(2, n + 1)}
    want = {key: v for key, v in want.items() if v}

    def check(got: Any) -> str | None:
        if got != want:
            return f"{texts} n={n} by {stat}: Catalan triangle gives {want}, got {got!r}"
        return None

    def wrong(got: dict[int, int]) -> dict[int, int]:
        key = next(iter(got))
        return {**got, key: got[key] + 1}

    count_refined = ctx.cv.enumeration.count_refined
    return Op(name=f"refine {texts} n={n} by {stat}", layer="enumeration.refine_s",
              run=lambda: count_refined(pset, n, stat), check=check,
              avoiders=lambda r: sum(r.values()), wrong=wrong)


def table2_bonded(ctx: Any) -> Workload:
    n = ctx.sizes.table2_n
    classes = list(TABLE2_CLASSES)
    random.Random(ctx.seed).shuffle(classes)
    psets = {t: ctx.parse(t) for t in classes}
    ops = [_count_op(ctx, t, psets[t], n, jobs=1, layer="enumeration.count_s") for t in classes]
    ops.append(_refined_op(ctx, "[1~4,2,3]", psets["[1~4,2,3]"], n, "predecessor_of_n"))
    ops.append(_refined_op(ctx, "[1~4,3,2]", psets["[1~4,3,2]"], n, "zeil_reverse"))
    return Workload(ops,
                    prechecks=[small_n_precheck(ctx.cv, t, ctx.sizes.small_n) for t in classes])


def table1_windows(ctx: Any) -> Workload:
    n = ctx.sizes.table1_n
    sets = list(TABLE1_SETS)
    random.Random(ctx.seed).shuffle(sets)
    ops = [_count_op(ctx, t, ctx.parse(*t.split()), n, jobs=1, layer="enumeration.count_s")
           for t in sets]
    return Workload(ops,
                    prechecks=[small_n_precheck(ctx.cv, t, ctx.sizes.small_n) for t in sets])


def _classify_op(cv: Any, k: int, horizon: int, *, fault: str | None = None) -> Op:
    want = anchored_families(cv, k)
    parse = cv.patterns.parse_pattern

    def check(report: Any) -> str | None:
        got = {frozenset(parse(t) for t in s) for s in report.minimal_sets}
        if got != want:
            extra = sorted(" ".join(sorted(map(str, s))) for s in got - want)
            missing = sorted(" ".join(sorted(map(str, s))) for s in want - got)
            return (f"k={k} horizon={horizon}: minimal sets differ from the {len(want)} "
                    f"anchored families (extra {extra}, missing {missing})")
        return None

    def wrong(report: Any) -> Any:
        return replace(report, minimal_sets=report.minimal_sets[1:])

    classify = cv.avoidability.classify_minimal_unavoidable
    return Op(name=f"classify k={k} horizon={horizon}", layer="avoidability.classify_s",
              run=lambda: classify(k, horizon), check=check, fault=fault,
              subsets=lambda r: r.subsets_checked, wrong=wrong)


def _k4_scan_op(cv: Any, horizon: int, max_subsets: int) -> Op:
    # the scan visits subsets by increasing size; while max_subsets stays within
    # the subsets of at most 5 < 3! patterns, the blow-up precheck proves every
    # scanned subset avoidable at the horizon
    if max_subsets > sum(comb(24, s) for s in range(1, 6)):
        raise ValueError("the k=4 scan must stay within subsets of size <= 5")

    def check(report: Any) -> str | None:
        if report.minimal_sets:
            return f"k=4 scan at horizon {horizon}: blow-up witnesses avoid {report.minimal_sets[0]}"
        if report.subsets_checked != max_subsets or report.complete:
            return (f"k=4 scan: expected {max_subsets} subsets checked and an incomplete "
                    f"report, got {report.subsets_checked}, complete={report.complete}")
        return None

    def wrong(report: Any) -> Any:
        return replace(report, subsets_checked=report.subsets_checked + 1)

    classify = cv.avoidability.classify_minimal_unavoidable
    return Op(name=f"classify k=4 horizon={horizon} max_subsets={max_subsets}",
              layer="avoidability.classify_s",
              run=lambda: classify(4, horizon, max_subsets=max_subsets), check=check,
              subsets=lambda r: r.subsets_checked, wrong=wrong)


def _find_op(ctx: Any, q: int, size: int, pset: Any, n: int) -> Op:
    witness_ok = expect_witness(ctx.cv, pset, n)

    def check(got: Any) -> str | None:
        if got is None and size < 6 and n % 4 == 0:
            return f"query {q}: no avoider reported, but a blow-up witness avoids {pset}"
        return witness_ok(got)

    find_avoider = ctx.cv.avoidability.find_avoider
    return Op(name=f"find_avoider query {q} size={size} n={n}", layer="avoidability.find_s",
              run=lambda: find_avoider(pset, n), check=check, query=True,
              witnesses=lambda r: int(r is not None),
              wrong=lambda r: lex_first(ctx.cv, pset, n, avoiding=False))


def _empty_answers_check(cv: Any, finds: dict[str, Any], n: int, sample: int,
                         rng: random.Random) -> Callable[[dict[str, Any]], list[tuple[str, str]]]:
    """After the first round, count a seeded sample of the queries answered
    "no avoider" with count_avoiders; every later round must agree."""
    counted: dict[str, int] = {}

    def check(results: dict[str, Any]) -> list[tuple[str, str]]:
        if not counted:
            empty = sorted(name for name in finds if results[name] is None)
            for name in rng.sample(empty, min(sample, len(empty))):
                counted[name] = cv.enumeration.count_avoiders(finds[name], n)
        return [(name, f"no avoider reported, but count_avoiders finds {c}")
                for name, c in counted.items() if c and results[name] is None]
    return check


def _first_op(ctx: Any, texts: str, n: int, prechecks: list) -> Op:
    pset = ctx.parse(texts)
    witness_ok = expect_witness(ctx.cv, pset, n)
    first: dict[str, Any] = {}

    def scan() -> None:
        first["want"] = lex_first(ctx.cv, pset, n, avoiding=True)

    def check(got: Any) -> str | None:
        reason = witness_ok(got)
        if reason is None and got != first["want"]:
            reason = f"first avoider of {texts}: scan gives {first['want']}, got {got}"
        return reason

    prechecks.append(scan)
    enumerate_avoiders = ctx.cv.enumeration.enumerate_avoiders
    return Op(name=f"first avoider {texts} n={n}", layer="enumeration.first_ms",
              run=lambda: next(enumerate_avoiders(pset, n)), check=check,
              avoiders=lambda r: 1, wrong=lambda r: lex_first(ctx.cv, pset, n, avoiding=False))


def avoid_queries(ctx: Any) -> Workload:
    cv, sizes = ctx.cv, ctx.sizes
    rng = random.Random(ctx.seed)
    ops = [
        _classify_op(cv, 3, sizes.even_horizon),
        _classify_op(cv, 3, sizes.odd_horizon, fault=FAULT_ODD_HORIZON),
        _k4_scan_op(cv, sizes.k4_horizon, sizes.k4_max_subsets),
    ]
    prechecks: list[Callable[[], str | None]] = [blowup_precheck(cv, 4, sizes.k4_horizon)]

    # existence queries on subsets of the 24 totally vincular length-4
    # patterns: sizes taken in turn from find_sizes, members drawn at random
    n = sizes.find_n
    texts = [tv_text(p) for p in permutations(range(1, 5))]
    finds = {}
    for q in range(sizes.find_queries):
        size = sizes.find_sizes[q % len(sizes.find_sizes)]
        pset = ctx.parse(*sorted(rng.sample(texts, size)))
        op = _find_op(ctx, q, size, pset, n)
        finds[op.name] = pset
        ops.append(op)

    ops.extend(_first_op(ctx, t, sizes.first_n, prechecks) for t in TABLE2_CLASSES)
    return Workload(ops, prechecks=prechecks, round_checks=[
        _empty_answers_check(cv, finds, n, sizes.empty_sample, rng)])


def sharded_pool(ctx: Any) -> Workload:
    cv, sizes = ctx.cv, ctx.sizes
    n = sizes.pool_n
    classes = list(POOL_CLASSES)
    random.Random(ctx.seed).shuffle(classes)
    psets = {t: ctx.parse(t) for t in classes}
    # the same counts with jobs=2 and jobs=1, for the pool's speed-up
    ops = [_count_op(ctx, t, psets[t], n, jobs=2, layer="enumeration.pool_s") for t in classes]
    ops += [_count_op(ctx, t, psets[t], n, jobs=1, layer="enumeration.pool_serial_s", query=False)
            for t in classes]

    # budgeted counts: a budget error must report a running total above the
    # budget, a finished count must be right, and jobs=1 and jobs=2 must agree
    bn = sizes.budget_n
    bset = ctx.parse(BUDGET_CLASS)
    want = cv.formulas.catalan(bn - 1)
    # every prefix of an avoider is a node of any search that builds avoiders by
    # appending, so more distinct prefixes than the budget force a budget error
    prefixes: dict[str, int] = {}

    def count_prefixes() -> None:
        seen = set()
        for c in cv.perms.all_cyclic_perms(bn):
            if cv.matcher.avoids_set(c, bset):
                w = c.canonical.values
                seen.update(w[:length] for length in range(2, bn + 1))
        prefixes["n"] = len(seen)

    errors = (cv.enumeration.BudgetExceededError, BrokenProcessPool)
    count_avoiders = cv.enumeration.count_avoiders
    faults = {(100, 2): FAULT_UNPICKLABLE, (5000, 1): FAULT_SHARD_NODES,
              (5000, 2): FAULT_WORKER_BUDGET}
    names = {}
    for budget in sizes.budgets:
        for jobs in (1, 2):
            names[budget, jobs] = f"count {BUDGET_CLASS} n={bn} budget={budget} jobs={jobs}"

            def check(got: Any, budget: int = budget) -> str | None:
                if isinstance(got, Raised):
                    if got.kind != "BudgetExceededError":
                        return f"budget {budget}: {got.kind}: {got.message[:60]}"
                    if got.nodes is None or got.nodes <= budget:
                        return f"budget {budget}: error reports {got.nodes} nodes, not above the budget"
                    return None
                if prefixes["n"] > budget:
                    return (f"budget {budget}: count {got} returned, but the avoiders have "
                            f"{prefixes['n']} distinct prefixes")
                return None if got == want else f"budget {budget}: Catalan gives {want}, got {got}"

            def wrong(got: Any, budget: int = budget) -> Any:
                return replace(got, nodes=budget) if isinstance(got, Raised) else got + 1

            ops.append(Op(name=names[budget, jobs], layer="enumeration.budget_ms",
                          run=capture(lambda budget=budget, jobs=jobs:
                                      count_avoiders(bset, bn, jobs=jobs, budget=budget), errors),
                          check=check, fault=faults.get((budget, jobs)),
                          avoiders=lambda r: 0 if isinstance(r, Raised) else r, wrong=wrong))

    def agree(results: dict[str, Any]) -> list[tuple[str, str]]:
        out = []
        for budget in sizes.budgets:
            one, two = results[names[budget, 1]], results[names[budget, 2]]
            if isinstance(one, Raised) != isinstance(two, Raised):
                out.append((names[budget, 2], f"budget {budget}: jobs=1 gives {_outcome(one)}, "
                                              f"jobs=2 gives {_outcome(two)}"))
        return out

    return Workload(ops, prechecks=[count_prefixes], round_checks=[agree])


def _outcome(result: Any) -> str:
    return result.kind if isinstance(result, Raised) else f"count {result}"


WORKLOADS = {
    "table2_bonded": table2_bonded,
    "table1_windows": table1_windows,
    "avoid_queries": avoid_queries,
    "sharded_pool": sharded_pool,
}

"""Standalone property suites.

Each suite sweeps a bounded domain exhaustively (or with a seeded sample where
noted) and returns a list of counterexample descriptions; an empty list means
the suite passed. The CLI `verify` and `bijection-check` subcommands run
them through `SUITES` and `BIJECTIONS`, which say the sizes each run checks,
so that a report names those and never the size asked for; the test suite
calls them directly.
"""

from __future__ import annotations

import math
import random
from itertools import combinations
from typing import Callable, NamedTuple

from . import formulas
from .avoidability import (
    blowup_witness,
    classify_minimal_unavoidable,
    find_avoider,
    patterns_with_max_at,
    patterns_with_min_at,
    rotation_closure_complement,
    witness_minus_one,
)
from .bijections import (
    TRIPLE_CHAIN_AVOIDED,
    count_triple_chain_orders,
    delete_max,
    from_cyclic_order,
    insert_max_chain,
    insert_max_pred,
    to_cyclic_order,
    triple_chain_orders,
)
from .enumeration import (
    count_avoiders,
    count_avoiders_naive,
    count_refined,
    enumerate_avoiders,
    predecessor_of_n,
)
from .matcher import _contains_cyclic_rep, avoids_set, contains_cyclic
from .patterns import CYCLIC, Pattern, PatternSet, all_totally_vincular, parse_pattern
from .perms import CyclicPerm, LinearPerm, all_cyclic_perms, canonicalize


def _all_cyclic_patterns_len3() -> list[Pattern]:
    """The 14 distinct cyclic patterns of length 3 (0, 1, or 2 bonds)."""
    from itertools import permutations

    seen = set()
    out = []
    for vals in permutations((1, 2, 3)):
        for bonds in ({}, {1}, {2}, {3}, {1, 2}, {1, 3}, {2, 3}):
            p = Pattern(vals, frozenset(bonds), CYCLIC)
            if p not in seen:
                seen.add(p)
                out.append(p)
    return sorted(out, key=lambda p: (len(p.bonds), p.values, sorted(p.bonds)))


ONE_BOND_LEN4 = [
    "[1~2,3,4]", "[1~2,4,3]", "[1~3,2,4]", "[1~3,4,2]",
    "[1~4,2,3]", "[1~4,3,2]", "[2~3,1,4]", "[2~3,4,1]",
]


def verify_symmetry(n_max: int = 7) -> list[str]:
    """contains_cyclic commutes with reverse and complement of host and pattern."""
    failures = []
    pats = _all_cyclic_patterns_len3() + [parse_pattern(t) for t in ONE_BOND_LEN4]
    for n in range(1, n_max + 1):
        perms = all_cyclic_perms(n)
        for p in pats:
            pr, pc = p.reverse(), p.complement()
            for c in perms:
                base = contains_cyclic(c, p)
                if contains_cyclic(c.reverse(), pr) != base:
                    failures.append(f"reverse equivariance fails: {c} vs {p}")
                if contains_cyclic(c.complement(), pc) != base:
                    failures.append(f"complement equivariance fails: {c} vs {p}")
    # every cyclic permutation of length >= 2 has an ascent and a descent
    asc, desc = parse_pattern("[1~2]"), parse_pattern("[2~1]")
    for n in range(2, max(n_max, 8) + 1):
        for c in all_cyclic_perms(n):
            if not (contains_cyclic(c, asc) and contains_cyclic(c, desc)):
                failures.append(f"{c} misses an ascent or a descent")
    return failures


def verify_devincularization(n_max: int = 7) -> list[str]:
    """Removing a bond can only make a pattern easier to contain."""
    failures = []
    pats = [p for p in _all_cyclic_patterns_len3() if p.bonds]
    for p in pats:
        for slot in sorted(p.bonds):
            weaker = p.without_bond(slot)
            for n in range(1, n_max + 1):
                for c in all_cyclic_perms(n):
                    if contains_cyclic(c, p) and not contains_cyclic(c, weaker):
                        failures.append(f"monotonicity fails: {c}, {p} -> {weaker}")
    return failures


def verify_representative_independence(n_max: int = 7) -> list[str]:
    """Matching via any wrap-free representative agrees with the canonical one."""
    failures = []
    pats = _all_cyclic_patterns_len3() + [parse_pattern(t) for t in ONE_BOND_LEN4]
    for n in range(1, n_max + 1):
        perms = all_cyclic_perms(n)
        for p in pats:
            reps = p.wrap_free_reps()
            for c in perms:
                base = contains_cyclic(c, p)
                for values, bonds in reps:
                    if _contains_cyclic_rep(c, values, bonds) != base:
                        failures.append(f"representative mismatch: {c} vs {p} via {values}")
    return failures


def verify_pruning(n_max: int = 8, heavy_n_max: int | None = None) -> list[str]:
    """Pruned backtracking counts equal the pruning-free matcher filter.

    Length-3 patterns run to n_max; the length-4 single-bond classes and two
    multi-bond spot checks run to heavy_n_max (default n_max - 1) to keep the
    naive side affordable.
    """
    failures = []
    if heavy_n_max is None:
        heavy_n_max = max(1, n_max - 1)
    singles3 = [PatternSet(frozenset({p})) for p in _all_cyclic_patterns_len3()]
    for pset in singles3:
        for n in range(1, n_max + 1):
            a, b = count_avoiders(pset, n), count_avoiders_naive(pset, n)
            if a != b:
                failures.append(f"pruned {a} != naive {b} for {pset} at n={n}")
    heavy = [PatternSet.from_texts(t) for t in ONE_BOND_LEN4]
    heavy += [PatternSet.from_texts("[1~2~3,4]"), PatternSet.from_texts("[1~2,3~4]")]
    for pset in heavy:
        for n in range(1, heavy_n_max + 1):
            a, b = count_avoiders(pset, n), count_avoiders_naive(pset, n)
            if a != b:
                failures.append(f"pruned {a} != naive {b} for {pset} at n={n}")
    return failures


def verify_wilf_orbits(n_max: int = 9) -> list[str]:
    """Counts agree across each trivial Wilf orbit."""
    from .patterns import trivial_wilf_orbit

    failures = []
    seeds = [
        PatternSet.from_texts("[1~2,3,4]"),
        PatternSet.from_texts("[1~3,4,2]"),
        PatternSet.from_texts("[1~4,2,3]"),
        PatternSet.from_texts("[1~2~3]", "[2~3~1]"),
        PatternSet.from_texts("[1~3~2]", "[2~1~3]"),
        PatternSet.from_texts("[1~3~2]", "[3~1~2]"),
    ]
    for seed in seeds:
        orbit = trivial_wilf_orbit(seed)
        for n in range(1, n_max + 1):
            counts = {count_avoiders(s, n) for s in orbit}
            if len(counts) != 1:
                failures.append(f"orbit of {seed} disagrees at n={n}: {counts}")
    return failures


def _delta(n: int) -> CyclicPerm:
    return canonicalize(LinearPerm(tuple(range(n, 0, -1))))


def _iota(n: int) -> CyclicPerm:
    return CyclicPerm(LinearPerm(tuple(range(1, n + 1))))


ONE_BOND_LEN3_DELTA = ["[1~2,3]", "[2~3,1]", "[3~1,2]"]
ONE_BOND_LEN3_IOTA = ["[1~3,2]", "[2~1,3]", "[3~2,1]"]

DOUBLETONS_EMPTY = [
    ("[1~2~3]", "[1~3~2]"),
    ("[1~2~3]", "[2~1~3]"),
    ("[3~2~1]", "[2~3~1]"),
    ("[3~2~1]", "[3~1~2]"),
    ("[1~3~2]", "[2~3~1]"),
    ("[2~1~3]", "[3~1~2]"),
]


def verify_formulas(n_max: int = 10) -> list[str]:
    """Closed forms and series match the enumerator on their classes."""
    failures = []

    def expect(pset: PatternSet, n: int, want: int, what: str) -> None:
        got = count_avoiders(pset, n)
        if got != want:
            failures.append(f"{what}: expected {want}, enumerated {got} at n={n} for {pset}")

    for n in range(1, n_max + 1):
        expect(PatternSet.from_texts("[1~2]"), n, 1 if n == 1 else 0, "single ascent bond")
        for t in ONE_BOND_LEN3_DELTA + ONE_BOND_LEN3_IOTA:
            expect(PatternSet.from_texts(t), n, 1, "one-bond length 3")
        for pair in DOUBLETONS_EMPTY:
            expect(PatternSet.from_texts(*pair), n, 1 if n <= 2 else 0, "empty doubleton")
        alternating = 1 if n <= 2 else (0 if n % 2 else formulas.updown(n - 1))
        expect(PatternSet.from_texts("[1~2~3]", "[3~2~1]"), n, alternating, "alternating")
        expect(PatternSet.from_texts("[1~2~3]"), n, formulas.av_consec_123(n), "consec 123 series")
        expect(PatternSet.from_texts("[1~3~2]"), n, formulas.av_consec_132(n), "consec 132 series")
        if n >= 2:
            expect(PatternSet.from_texts("[1~2,3,4]"), n, formulas.av_bond12_34(n), "bond12 34")
            expect(PatternSet.from_texts("[1~2,4,3]"), n, formulas.av_bond12_34(n), "bond12 43")
            expect(PatternSet.from_texts("[2~3,1,4]"), n, formulas.av_bond23_14(n), "bond23 14")
        for t in ("[1~3,2,4]", "[1~4,2,3]", "[1~4,3,2]"):
            expect(PatternSet.from_texts(t), n, formulas.catalan(n - 1), "catalan class")
        expect(PatternSet.from_texts("[1~3,4,2]"), n, formulas.dyck_uudd(n + 1), "dyck uudd class")
    # unique avoiders of the one-bond length-3 patterns
    for n in range(1, n_max + 1):
        for t in ONE_BOND_LEN3_DELTA:
            avs = list(enumerate_avoiders(PatternSet.from_texts(t), n))
            if avs != [_delta(n)]:
                failures.append(f"unique avoider of {t} at n={n} is not the decreasing cycle")
        for t in ONE_BOND_LEN3_IOTA:
            avs = list(enumerate_avoiders(PatternSet.from_texts(t), n))
            if avs != [_iota(n)]:
                failures.append(f"unique avoider of {t} at n={n} is not the increasing cycle")
    # internal identities
    for n in range(0, 31):
        if sum(formulas.catalan_triangle(n, k) for k in range(n + 1)) != formulas.catalan(n + 1):
            failures.append(f"triangle row sum fails at n={n}")
        for k in range(0, n + 1):
            if formulas.catalan_triangle(n, k) != (
                1 if n == 0 else sum(formulas.catalan_triangle(n - 1, j) for j in range(min(k, n) + 1))
            ):
                failures.append(f"triangle recurrence fails at ({n},{k})")
    for n in range(2, 26):
        if formulas.dyck_uudd(n) != formulas.dyck_uudd_explicit(n):
            failures.append(f"dyck_uudd explicit form disagrees at n={n}")
    for n in range(3, 13):
        approx = formulas.av_consec_123_closed_form(n, 50)
        if abs(approx - formulas.av_consec_123(n)) >= 0.5:
            failures.append(f"closed-form sum off by >= 0.5 at n={n}")
    return failures


def verify_cyclic_order_bijection(n_max: int = 9, orders_n_max: int = 6) -> list[str]:
    """Avoiders <-> total cyclic orders: counts agree and maps invert each other."""
    failures = []
    for n in range(1, orders_n_max + 1):
        if count_triple_chain_orders(n) != count_avoiders(TRIPLE_CHAIN_AVOIDED, n + 2):
            failures.append(f"order count != avoider count at n={n}")
    for m in range(3, n_max + 1):
        for sigma in enumerate_avoiders(TRIPLE_CHAIN_AVOIDED, m):
            z = to_cyclic_order(sigma)
            if from_cyclic_order(z) != sigma:
                failures.append(f"order round trip fails for {sigma}")
        if m - 2 <= 7:
            for z in triple_chain_orders(m - 2):
                back = to_cyclic_order(from_cyclic_order(z))
                if back.arrangement != z.arrangement:
                    failures.append(f"avoider round trip fails for {z}")
    return failures


def verify_pred_bijection(n_max: int = 9) -> list[str]:
    """[1~4,2,3]: refinement by the value before the maximum matches the
    triangle, and delete/insert invert each other."""
    failures = []
    pat = PatternSet.from_texts("[1~4,2,3]")
    for n in range(4, n_max + 1):
        refined = count_refined(pat, n, "predecessor_of_n")
        for i, cnt in refined.items():
            if cnt != formulas.catalan_triangle(n - 2, i - 1):
                failures.append(f"pred refinement off at n={n}, i={i}")
        if sum(refined.values()) != formulas.catalan(n - 1):
            failures.append(f"pred refinement sum off at n={n}")
        for sigma in enumerate_avoiders(pat, n):
            if insert_max_pred(delete_max(sigma), predecessor_of_n(sigma)) != sigma:
                failures.append(f"pred round trip fails for {sigma}")
    return failures


def verify_chain_bijection(n_max: int = 9) -> list[str]:
    """[1~4,3,2]: refinement by the reverse Zeilberger statistic matches the
    triangle, and delete/insert invert each other."""
    failures = []
    pat = PatternSet.from_texts("[1~4,3,2]")
    for n in range(4, n_max + 1):
        refined = count_refined(pat, n, "zeil_reverse")
        for zr, cnt in refined.items():
            if cnt != formulas.catalan_triangle(n - 2, n - zr):
                failures.append(f"chain refinement off at n={n}, zeil_reverse={zr}")
        if sum(refined.values()) != formulas.catalan(n - 1):
            failures.append(f"chain refinement sum off at n={n}")
        for sigma in enumerate_avoiders(pat, n):
            if insert_max_chain(delete_max(sigma), n - sigma.zeil_reverse()) != sigma:
                failures.append(f"chain round trip fails for {sigma}")
    return failures


def verify_bijections(n_max: int = 9, orders_n_max: int = 6) -> list[str]:
    """Round trips and refined counts for all three bijections."""
    return (
        verify_cyclic_order_bijection(n_max, orders_n_max)
        + verify_pred_bijection(n_max)
        + verify_chain_bijection(n_max)
    )


def verify_cyclic_order_axioms(m_max: int = 8) -> list[str]:
    """Cyclicity, antisymmetry, transitivity of the produced orders."""
    failures = []
    for m in range(3, m_max + 1):
        for sigma in enumerate_avoiders(TRIPLE_CHAIN_AVOIDED, m):
            z = to_cyclic_order(sigma)
            triples = z.triples()
            for (x, y, w) in triples:
                if (y, w, x) not in triples:
                    failures.append(f"cyclicity fails in {z}")
                if (w, y, x) in triples:
                    failures.append(f"antisymmetry fails in {z}")
            for (x, y, w) in triples:
                for u in range(1, m + 1):
                    if (x, w, u) in triples and (x, y, u) not in triples:
                        failures.append(f"transitivity fails in {z}")
    return failures


def verify_avoidability(witness_k_max: int = 6, witness_n_max: int = 50,
                        seed: int = 2183) -> list[str]:
    """Unavoidable families, witness constructions, and the classification."""
    failures = []
    for k in range(1, 6):
        for i in range(1, k + 1):
            pset = patterns_with_min_at(i, k)
            if len(pset) != math.factorial(k - 1):
                failures.append(f"|patterns_with_min_at({i},{k})| wrong")
            for n in range(k, k + 5):
                if find_avoider(pset, n) is not None:
                    failures.append(f"min-at set ({i},{k}) avoidable at n={n}")
    # witness constructions: every excluded pattern, every length up to the cap
    for k in range(1, witness_k_max + 1):
        for i in range(1, k + 1):
            base = patterns_with_min_at(i, k)
            for exc in base:
                rest = base.difference(PatternSet(frozenset({exc})))
                for n in range(k, witness_n_max + 1):
                    w = witness_minus_one(i, k, exc, n)
                    if len(w) != n or not avoids_set(w, rest):
                        failures.append(f"witness fails for i={i}, k={k}, {exc}, n={n}")
    # blow-up witnesses
    from itertools import permutations as iperm

    for k in range(2, 5):
        for vals in iperm(range(1, k + 1)):
            pi = LinearPerm(vals)
            comp = rotation_closure_complement(pi)
            for m in range(1, 6):
                if not avoids_set(blowup_witness(pi, m), comp):
                    failures.append(f"blow-up fails for {pi}, m={m}")
    # monotonicity spot checks: supersets of an empty-at-horizon set stay empty
    rng = random.Random(seed)
    for k in (3, 4):
        pats = list(all_totally_vincular(k))
        for _ in range(20):
            base = patterns_with_min_at(rng.randrange(1, k + 1), k)
            extra = rng.sample(pats, rng.randrange(0, min(3, len(pats))))
            sup = base.union(PatternSet(frozenset(extra)))
            for n in range(k, 9):
                if find_avoider(sup, n) is not None:
                    failures.append(f"monotonicity fails for superset at k={k}, n={n}")
    # classification at k=3 is exactly the six min/max anchored pairs
    cls = classify_minimal_unavoidable(3, 8)
    expect = sorted(
        tuple(sorted(str(p) for p in s))
        for s in (
            [patterns_with_min_at(i, 3) for i in (1, 2, 3)]
            + [patterns_with_max_at(i, 3) for i in (1, 2, 3)]
        )
    )
    if sorted(tuple(s) for s in cls.minimal_sets) != expect:
        failures.append(f"k=3 classification mismatch: {cls.minimal_sets}")
    if cls.smallest_size != 2 or not cls.min_size_conjecture_consistent:
        failures.append("k=3 classification summary wrong")
    # maximum avoidable cardinality at k=3, horizon 9
    pats3 = list(all_totally_vincular(3))
    for size in (4, 5, 6):
        for combo in combinations(pats3, size):
            if find_avoider(PatternSet(frozenset(combo)), 9) is not None:
                failures.append(f"size-{size} subset avoidable at horizon 9")
    from .avoidability import max_avoidable_set

    if find_avoider(max_avoidable_set(3), 9) is None:
        failures.append("maximum avoidable set of size 3 not avoidable at horizon 9")
    return failures


class Suite(NamedTuple):
    """A property suite as the CLI runs it: `check(n_max)` checks each of the
    suite's families at every n in low..h, where h is n_max capped at `cap`.
    Below n_max = low some family would check no size. A suite with a
    `fixed` description checks fixed sizes whatever n_max is."""

    run: Callable[[int], list[str]]
    low: int = 1
    cap: int | None = None
    fixed: str | None = None

    def horizon(self, n_max: int) -> int:
        return n_max if self.cap is None else min(n_max, self.cap)

    def check(self, n_max: int) -> list[str]:
        return self.run(self.horizon(n_max))

    def checked(self, n_max: int) -> str:
        """What a run at n_max checks, for its report."""
        h = self.horizon(n_max)
        return self.fixed or (f"n={self.low}..{h}" if h > self.low else f"n={h}")


SUITES = {
    "symmetry": Suite(lambda h: (verify_symmetry(h) + verify_devincularization(h)
                                 + verify_representative_independence(h)), cap=7),
    "pruning": Suite(lambda h: verify_pruning(h, heavy_n_max=h), cap=8),
    "formulas": Suite(verify_formulas),
    "bijections": Suite(lambda h: (verify_bijections(h, orders_n_max=h - 2)
                                   + verify_cyclic_order_axioms(h)), low=4, cap=9),
    "avoidability": Suite(lambda h: verify_avoidability(),
                          fixed="fixed sizes: searches up to n=9, witnesses up to n=50"),
    "wilf": Suite(verify_wilf_orbits, cap=9),
}

# the suites of `cycvin bijection-check`, one per map
BIJECTIONS = {
    "cyclic-order": Suite(lambda h: verify_cyclic_order_bijection(h, h - 2), low=3, cap=9),
    "max-pred": Suite(verify_pred_bijection, low=4),
    "max-chain": Suite(verify_chain_bijection, low=4),
}

"""(Un)avoidability of sets of totally vincular cyclic patterns.

A set is unavoidable when no sufficiently long cyclic permutation avoids it.
That property is not decidable by finite search, so every report here is
horizon-relative: it records exactly which lengths up to the horizon admit
an avoider, and labels itself accordingly. A set counts as unavoidable at a
horizon only when Av_n is empty at two or more consecutive lengths ending at
the horizon; one empty length proves nothing about the next (the
alternating pair [1~2~3] [3~2~1] is empty at every odd n and at no even n).
Constructive witness families (the one-pattern-removed constructions and the
repeated blow-up) are valid for every length they are defined at,
independent of any horizon.

Existence questions are answered by the first leaf of the enumeration
engine (`enumeration.first_avoider`); this module has no search of its own.
Every set here is totally vincular, so that search is memoized on the window
state: a subtree it has finished holds no avoider, and a later prefix in the
same state is skipped. A search that exhausts its node budget raises
`enumeration.BudgetExceededError`, which the CLI reports with exit code 3
(`cycvin unavoidable --budget-nodes`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import combinations, permutations

from .enumeration import first_avoider
from .patterns import CYCLIC, Pattern, PatternSet, all_totally_vincular
from .perms import CyclicPerm, LinearPerm, canonicalize


def _totally_vincular_cyclic(values: tuple[int, ...]) -> Pattern:
    k = len(values)
    return Pattern(values, frozenset(range(1, k)), CYCLIC)


def patterns_with_min_at(i: int, k: int) -> PatternSet:
    """All (k-1)! totally vincular patterns of length k with value 1 at position i."""
    if not 1 <= i <= k:
        raise ValueError(f"need 1 <= i <= k, got i={i}, k={k}")
    rest = [v for v in range(2, k + 1)]
    out = set()
    for perm in permutations(rest):
        values = perm[: i - 1] + (1,) + perm[i - 1 :]
        out.add(_totally_vincular_cyclic(values))
    return PatternSet(frozenset(out))


def patterns_with_max_at(i: int, k: int) -> PatternSet:
    """Complement family: value k at position i."""
    return patterns_with_min_at(i, k).complement()


def rotation_closure(pi: LinearPerm) -> PatternSet:
    """The k totally vincular patterns whose value sequences rotate pi."""
    v = pi.values
    k = len(v)
    return PatternSet(
        frozenset(_totally_vincular_cyclic(v[t:] + v[:t]) for t in range(k))
    )


def rotation_closure_complement(pi: LinearPerm) -> PatternSet:
    """All totally vincular length-k patterns except the rotations of pi."""
    return all_totally_vincular(len(pi)).difference(rotation_closure(pi))


def max_avoidable_set(k: int) -> PatternSet:
    """An avoidable subset of maximum cardinality k! - k: everything except
    the rotations of the increasing pattern. The increasing cyclic permutation
    of any length avoids it.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    return rotation_closure_complement(LinearPerm(tuple(range(1, k + 1))))


def blowup_witness(pi: LinearPerm, m: int) -> CyclicPerm:
    """The length-mk cyclic permutation made of m vertically shifted copies of pi.

    Every window of k cyclically consecutive entries reduces to a rotation of
    pi, so the result avoids every totally vincular pattern outside
    rotation_closure(pi).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    v = pi.values
    word = tuple(m * (x - 1) + r for r in range(1, m + 1) for x in v)
    return canonicalize(LinearPerm(word))


def witness_minus_one(i: int, k: int, excluded: Pattern, n: int) -> CyclicPerm:
    """A cyclic permutation of length n avoiding patterns_with_min_at(i, k)
    minus the given pattern.

    Construction: embed the excluded pattern order isomorphically with its
    small values kept low and the rest on top, then append the remaining
    values in decreasing order; every window whose i-th entry is its minimum
    is then forced to match the excluded pattern. Positions right of the
    middle are handled by reversing the mirrored instance.
    """
    if not 1 <= i <= k:
        raise ValueError(f"need 1 <= i <= k, got i={i}")
    if n < k:
        raise ValueError(f"need n >= k, got n={n}, k={k}")
    if (
        excluded.kind != CYCLIC
        or excluded.k != k
        or not excluded.totally_vincular
        or excluded.values[i - 1] != 1
    ):
        raise ValueError(
            f"{excluded} is not a totally vincular length-{k} pattern with 1 at position {i}"
        )
    if 2 * i > k + 1:
        mirrored = witness_minus_one(k + 1 - i, k, excluded.reverse(), n)
        return mirrored.reverse()
    vals = excluded.values
    if k == 1 or 2 * i < k + 1:
        # 1 stays lowest, other pattern values sit on top of [2, n-k+1]
        word = tuple(1 if v == 1 else n - k + v for v in vals)
        tail = tuple(range(n - k + 1, 1, -1))
    else:
        # middle position, odd k; put the 2 low as well (mirror if 2 follows the 1)
        if vals.index(2) > i - 1:
            mirrored = witness_minus_one(i, k, excluded.reverse(), n)
            return mirrored.reverse()
        word = tuple(v if v <= 2 else n - k + v for v in vals)
        tail = tuple(range(n - k + 2, 2, -1))
    return canonicalize(LinearPerm(word + tail))


def find_avoider(pset: PatternSet, n: int, *, budget: int | None = None) -> CyclicPerm | None:
    """Lexicographically first avoider of a totally vincular cyclic pattern
    set, or None if Av_n is empty.

    The memoized search stops at its first leaf; it raises
    BudgetExceededError once it has visited more than `budget` nodes (by
    default DEFAULT_BUDGET), counting the root once and a memo hit as one.
    """
    if pset.patterns and (pset.kind != CYCLIC
                          or not all(p.totally_vincular for p in pset.patterns)):
        raise ValueError("find_avoider requires totally vincular cyclic patterns")
    return first_avoider(pset, n, budget=budget)


@dataclass
class AvoidabilityReport:
    """Per-length emptiness data for one pattern set up to a horizon."""

    patterns: tuple[str, ...]
    k: int
    horizon: int
    nonempty: dict[int, bool]
    witnesses: dict[int, str] = field(default_factory=dict)

    @property
    def empty_suffix_start(self) -> int | None:
        """Smallest n0 with Av_n empty for all n0 <= n <= horizon, if that
        empty suffix covers at least two lengths."""
        start = self.horizon + 1
        while start > self.k and not self.nonempty[start - 1]:
            start -= 1
        return start if start < self.horizon else None

    @property
    def horizon_unavoidable(self) -> bool:
        return self.empty_suffix_start is not None

    def to_json(self) -> str:
        return json.dumps(
            {
                "patterns": list(self.patterns),
                "k": self.k,
                "horizon": self.horizon,
                "nonempty": {str(n): self.nonempty[n] for n in sorted(self.nonempty)},
                "empty_suffix_start": self.empty_suffix_start,
                "horizon_relative": True,
            },
            indent=2,
        ) + "\n"


def avoidable_up_to(pset: PatternSet, horizon: int, *,
                    budget: int | None = None) -> AvoidabilityReport:
    """Check emptiness of Av_n for each k <= n <= horizon.

    The answer is horizon-relative evidence, never a proof of unavoidability.
    """
    if not pset.patterns:
        raise ValueError("avoidable_up_to needs a nonempty pattern set")
    k = pset.k
    if horizon < k:
        raise ValueError(f"horizon must be >= k = {k}")
    nonempty: dict[int, bool] = {}
    witnesses: dict[int, str] = {}
    for n in range(k, horizon + 1):
        w = find_avoider(pset, n, budget=budget)
        nonempty[n] = w is not None
        if w is not None:
            witnesses[n] = str(w)
    return AvoidabilityReport(
        patterns=tuple(pset.texts()), k=k, horizon=horizon,
        nonempty=nonempty, witnesses=witnesses,
    )


@dataclass
class ClassificationReport:
    """Minimal horizon-unavoidable subsets of the totally vincular patterns."""

    k: int
    horizon: int
    minimal_sets: list[list[str]]
    smallest_size: int | None
    min_size_conjecture_consistent: bool
    complete: bool
    subsets_checked: int

    def to_json(self) -> str:
        return json.dumps(
            {
                "k": self.k,
                "horizon": self.horizon,
                "minimal_sets": self.minimal_sets,
                "smallest_size": self.smallest_size,
                "min_size_conjecture_consistent": self.min_size_conjecture_consistent,
                "complete": self.complete,
                "subsets_checked": self.subsets_checked,
                "horizon_relative": True,
            },
            indent=2,
        ) + "\n"


def classify_minimal_unavoidable(k: int, horizon: int, *,
                                 max_subsets: int | None = None,
                                 budget: int | None = None) -> ClassificationReport:
    """Find all minimal subsets of the totally vincular length-k patterns whose
    avoidance class is empty at the horizon.

    Subsets are visited in increasing size; any superset of a recorded set is
    pruned, so every set recorded is minimal among horizon-unavoidable sets.
    For k >= 4 the lattice is huge: pass max_subsets to bound the scan (the
    report is then marked incomplete). A subset counts when Av_n is empty at
    n = horizon and at n = horizon - 1, the shortest empty suffix that
    `AvoidabilityReport.empty_suffix_start` accepts; the second length is
    searched only when the first is empty.
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    if horizon <= k:
        # a set counts only when Av_{horizon-1} is empty too, and every
        # permutation shorter than k avoids it
        raise ValueError(f"horizon must be > k = {k}")
    if max_subsets is not None and max_subsets < 1:
        raise ValueError("max_subsets must be >= 1")
    patterns = sorted(all_totally_vincular(k), key=lambda p: p.values)
    found: list[frozenset[Pattern]] = []
    minimal_sets: list[list[str]] = []
    checked = 0
    complete = True
    for size in range(1, len(patterns) + 1):
        for combo in combinations(patterns, size):
            s = frozenset(combo)
            if any(f <= s for f in found):
                continue
            if max_subsets is not None and checked >= max_subsets:
                complete = False
                break
            checked += 1
            pset = PatternSet(s)
            if (find_avoider(pset, horizon, budget=budget) is None
                    and find_avoider(pset, horizon - 1, budget=budget) is None):
                found.append(s)
                minimal_sets.append(pset.texts())
        if not complete:
            break
    smallest = min((len(s) for s in found), default=None)
    consistent = smallest is None or smallest >= math.factorial(k - 1)
    minimal_sets.sort(key=lambda texts: (len(texts), texts))
    return ClassificationReport(
        k=k, horizon=horizon, minimal_sets=minimal_sets, smallest_size=smallest,
        min_size_conjecture_consistent=consistent, complete=complete,
        subsets_checked=checked,
    )

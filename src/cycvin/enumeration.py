"""Exact enumeration of cyclic avoidance classes.

Every question about Av_n (counting, refined counting, listing, finding a
first avoider) is answered by a backtracking search that extends
sigma_2..sigma_n with sigma_1 = 1 fixed, so its leaves are exactly the
(n-1)! canonical cyclic permutations in lexicographic order. Two walks do
this, one per kind of set, and no logic is shared or duplicated between
them:

- A non-empty set of totally vincular patterns runs on the window walk,
  `_Search.leaves`, below, for counts, listings and first avoiders.
- Every other set runs on the occurrence walk of `occurrence`: bonded sets,
  sets whose patterns bond their 1 to its cyclic predecessor, sets mixing
  both kinds, and the empty set. Its state is the number of unused values
  and the live partial occurrences of every representative, so one kernel
  serves the prefix check, the seam and every question. This module imports
  it on first use.
- Refined counts of every set, totally vincular ones included, run the
  occurrence walk's memoized count with a vector of counts per key, so no
  avoider is walked leaf by leaf.

The window walk. A prefix is rejected as soon as it contains a forbidden
window: appending at the end never disturbs the adjacencies or relative
order already present, so such a window survives into every completion.
Each word on the search path carries a mask: the values whose appending
completes a forbidden window ending at the new entry. A table built once per
search maps the reduction of the last k-1 entries to the ranks a new value
must not take, and one window table shared by every search in the process
maps those k-1 entries themselves (the tail) to their reduction and the
value interval of each rank, so the mask is a lookup and an OR. Each child
is then rejected by `mask >> v & 1` (after it is counted as a node). A leaf
is checked for the k-1 windows across the seam, through the same table. The
tests validate this against the rotation-scanning matcher, which shares none
of this code and stays the oracle.

The unused values are one bitset, `free`, and the children of a word are its
members when the word is pushed. A seam lookahead skips dead ends: once
sigma_1..sigma_{k-1} are placed, the windows (sigma_n, sigma_1, ...,
sigma_{k-1}) across the seam bar some values from the last position, the
ranks listed in `last_ranks` for the reduction of sigma_1..sigma_{k-1}, read
through the window table. One unused value ends the word, so a word whose
unused values are all barred is a dead end: it is counted as a node and not
descended into. This finds only subtrees without an avoider, so node totals
fall and nothing else changes.

Every search runs in the calling process from one root, which counts as
one node, and one search object counts the nodes of the whole walk, so
BudgetExceededError is raised when the total first exceeds the budget, with
nodes = budget + 1. The jobs argument of the counting functions is accepted
for compatibility and changes nothing. Enumeration yields each avoider as
soon as it is found, so a caller that stops early pays only for the nodes
visited so far.

A count or a first avoider of a totally vincular set gives the window walk a
memo (the transfer-matrix view of consecutive patterns: Goulden and
Jackson's cluster method; Elizalde and Noy, "Consecutive patterns in
permutations", Adv. Appl. Math. 30, 2003). Whether a prefix of length m
completes to an avoider then depends only on the relative order of
sigma_2..sigma_{k-1} (the seam windows read them; sigma_1 = 1 is the global
minimum), the last k-1 entries and the unused values. From m = 2k-1 on,
where an untracked entry separates the two tracked runs, an accepted word is
keyed by m and the rank of each tracked value t among the tracked and unused
values: t minus the number of untracked entries below t, one popcount of
their bitset. Its subtree count is stored when its frame is popped, and a
later word with the same key adds that count without being descended into.
`count_by_state` folds the counts; `first_avoider` is the exists fold: it
stops at its first leaf, so every subtree it finishes holds no avoider,
stores 0, and a later word with the same key is skipped. A listing has no
memo and reads the leaves themselves: it must reach every leaf, which a memo
hit skips.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Iterator, Sequence

from .matcher import avoids_set
from .patterns import CYCLIC, PatternSet
from .perms import CyclicPerm, LinearPerm, all_cyclic_perms, reduce_window, zeil_word

DEFAULT_BUDGET = 100_000_000


class BudgetExceededError(RuntimeError):
    """Search node budget exhausted; carries how far the run got."""

    def __init__(self, message: str, nodes: int, n_reached: int | None = None,
                 partial: "CountTable | None" = None):
        super().__init__(message)
        self.nodes = nodes
        self.n_reached = n_reached
        self.partial = partial


@cache
def _windows(tail: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The reduction of a tail (the last k-1 entries of a word) and, for each
    rank r = 1..k, the bitset of the values a new entry of rank r among the
    tail and itself can take. The top rank's bitset is negative: every value
    above the tail's largest entry. So the table depends neither on n nor on
    the pattern set, and every search shares it, one entry per tail."""
    bounds = [0, *sorted(tail)]
    return reduce_window(tail), (*((1 << hi) - (2 << lo) for lo, hi in zip(bounds, bounds[1:])),
                                 -(2 << bounds[-1]))


def _ranked(ranks: dict[tuple[int, ...], list[int]], tail: Sequence[int]) -> int:
    """Bitset of the values whose rank among the tail and themselves is one
    that `ranks` lists for the tail's reduction."""
    reduction, intervals = _windows(tuple(tail))
    mask = 0
    for r in ranks.get(reduction, ()):
        mask |= intervals[r - 1]
    return mask


@cache
def _members(mask: int) -> tuple[int, ...]:
    """The values in a bitset, in increasing order."""
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


class _Search:
    """One search of a pattern set at length n: its node count and budget,
    and the window walk of a totally vincular set."""

    def __init__(self, pset: PatternSet, n: int, budget: int | None):
        self.pset = pset
        self.n = n
        self.budget = DEFAULT_BUDGET if budget is None else budget
        self.nodes = 0
        self.k = pset.k or 0
        # the ranks of a new value that complete a forbidden window, keyed by
        # the reduction of the k-1 entries before it
        self.window_ranks: dict[tuple[int, ...], list[int]] = {}
        # the ranks of the last entry sigma_n that complete a forbidden window
        # (sigma_n, sigma_1, ..., sigma_{k-1}) across the seam, keyed by the
        # reduction of sigma_1..sigma_{k-1}
        self.last_ranks: dict[tuple[int, ...], list[int]] = {}
        for values in {p.values for p in pset.patterns if p.totally_vincular}:
            self.window_ranks.setdefault(reduce_window(values[:-1]), []).append(values[-1])
            self.last_ranks.setdefault(reduce_window(values[1:]), []).append(values[0])
        self.found = 0  # avoiders found so far, memo hits included
        self.hits = 0  # words skipped by a memo hit
        self.memo: dict[tuple, int] | None = None

    def window_mask(self, word: Sequence[int]) -> int:
        """Bitset of the values whose appending to the word completes a
        forbidden window."""
        m, k = len(word), self.k
        if not self.window_ranks or m < k - 1:
            return 0
        return _ranked(self.window_ranks, word[m - k + 1:])

    def leaves(self) -> Iterator[tuple[int, ...]]:
        """Yield the avoiders of a totally vincular set in lexicographic
        order. The root counts as one node. The search keeps its stack of
        frames explicitly, so it can stop at any leaf; `found` counts the
        avoiders found so far. An accepted word that is a dead end (see the
        module docstring) is counted as a node and not descended into. With
        a memo (only `count_by_state` and `first_avoider` set one) a word
        whose window state is memoized adds the stored count to `found`,
        counts in `hits` and is not descended into, so the walk then yields
        only the leaves it reaches."""
        n, k, budget, memo, last_ranks = self.n, self.k, self.budget, self.memo, self.last_ranks
        word: list[int] = []
        free = (2 << n) - 2  # the unused values, as a bitset
        # from length k-1 on, sigma_1..sigma_{k-1} bar the values in `barred`
        # from the last position
        barred = 0
        # words are keyed from the first length at which an untracked entry
        # lies between sigma_2..sigma_{k-1} and the last k-1 entries (at
        # m = 2k-2 every key would be new); mid[m] is the bitset of those
        # untracked entries, sigma_k..sigma_{m-k+1}
        keyed = 2 * k - 1
        mid = [0] * (n + 1)
        # one frame per word on the path: its children (the values unused
        # when it was pushed), the values rejected among them, its memo key
        # (or None) and `found` when it was pushed
        stack: list[tuple[Iterator[int], int, tuple[int, ...] | None, int]] = [
            (iter((1,)), self.window_mask(word), None, self.found)]
        while stack:
            children, bad, key, before = stack[-1]
            for v in children:
                self.nodes += 1
                if self.nodes > budget:
                    raise BudgetExceededError("node budget exceeded", self.nodes, n)
                if bad >> v & 1:
                    continue
                word.append(v)
                free ^= 1 << v
                m = len(word)
                if m == n:
                    if self.seam_clean(word):
                        self.found += 1
                        yield tuple(word)
                else:
                    if m == k - 1:
                        barred = _ranked(last_ranks, word)
                    # a dead end: every unused value is barred from the end
                    if m < k - 1 or free & ~barred:
                        state = hit = None
                        if memo is not None and m >= keyed:
                            mid[m] = between = mid[m - 1] | 1 << word[m - k]
                            # sigma_2..sigma_{k-1} and the last k-1 entries,
                            # ranked among themselves and the unused values
                            state = (m, *[t - (between & ((1 << t) - 1)).bit_count()
                                          for t in word[1:k - 1] + word[m - k + 1:]])
                            hit = memo.get(state)
                        if hit is None:
                            # descend: `children` resumes once the new frame
                            # is popped
                            stack.append((iter(_members(free)), self.window_mask(word),
                                          state, self.found))
                            break
                        self.hits += 1
                        self.found += hit
                free |= 1 << word.pop()
            else:
                stack.pop()
                if key is not None:
                    memo[key] = self.found - before
                if word:
                    free |= 1 << word.pop()

    def seam_clean(self, word: Sequence[int]) -> bool:
        """No forbidden window crosses the seam of the complete word. This
        relies on the prefix check having rejected every forbidden window
        inside the word. A window across the seam is forbidden when its last
        entry is in the window mask of the k-1 entries before it."""
        n, k = len(word), self.k
        ends = word[n - k + 1:] + word[:k - 1]
        return n < k or not any(self.window_mask(ends[s:s + k - 1]) >> ends[s + k - 1] & 1
                                for s in range(k - 1))

    def count_by_state(self) -> int:
        """The number of avoiders of a set of totally vincular patterns: the
        walk of `leaves()` with a fresh memo, so subtree counts are memoized
        on the window state instead of walked leaf by leaf. Nodes count as
        in `leaves` (every appended value, a memo hit included). The memo is
        kept in `memo`, one entry per window state."""
        self.memo = {}
        deque(self.leaves(), maxlen=0)
        return self.found

    def words(self) -> Iterator[tuple[int, ...]]:
        """The avoiders in lexicographic order: on the window walk, without a
        memo, for a totally vincular set, on the occurrence walk otherwise."""
        if _by_state(self.pset):
            return self.leaves()
        from .occurrence import occurrence_leaves

        return occurrence_leaves(self)


def _validate(pset: PatternSet, n: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if pset.patterns and pset.kind != CYCLIC:
        raise ValueError("enumeration requires cyclic patterns")


def _by_state(pset: PatternSet) -> bool:
    """Is the set non-empty and totally vincular, so that its searches run on
    the window walk?"""
    return bool(pset.patterns) and all(p.totally_vincular for p in pset.patterns)


def _search(pset: PatternSet, n: int, jobs: int, budget: int | None) -> _Search:
    _validate(pset, n)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    return _Search(pset, n, budget)


def count_avoiders(pset: PatternSet, n: int, *, jobs: int = 1,
                   budget: int | None = None) -> int:
    """|Av_n| for a set of cyclic patterns: canonical cyclic permutations
    avoiding all. A set of totally vincular patterns is counted by memoized
    window state, and every other set by memoized partial occurrences. Every
    search runs in this process; jobs is accepted for compatibility and
    changes nothing."""
    search = _search(pset, n, jobs, budget)
    if _by_state(pset):
        return search.count_by_state()
    # the module is imported on first use
    from .occurrence import count_by_occurrence

    return count_by_occurrence(search)


def enumerate_avoiders(pset: PatternSet, n: int, *, budget: int | None = None) -> Iterator[CyclicPerm]:
    """Yield the avoiders in lexicographic order of canonical form, each as
    soon as the search reaches it."""
    _validate(pset, n)
    for word in _Search(pset, n, budget).words():
        yield CyclicPerm(LinearPerm(word))


def first_avoider(pset: PatternSet, n: int, *, budget: int | None = None) -> CyclicPerm | None:
    """The lexicographically first avoider, or None if Av_n is empty. For a
    totally vincular set it is the first leaf of `leaves()`, whose root
    counts as one node, with a memo (the exists fold): the walk stops at its
    first avoider, so every subtree it finishes holds none, and a later word
    with the same window state is skipped. Any other set takes the first
    leaf of the occurrence walk."""
    _validate(pset, n)
    search = _Search(pset, n, budget)
    if _by_state(pset):
        search.memo = {}
        word = next(search.leaves(), None)
    else:
        word = next(search.words(), None)
    return None if word is None else CyclicPerm(LinearPerm(word))


def count_avoiders_naive(pset: PatternSet, n: int) -> int:
    """Pruning-free oracle: filter all (n-1)! canonical permutations with the matcher."""
    _validate(pset, n)
    return sum(1 for c in all_cyclic_perms(n) if avoids_set(c, pset))


def _zeil_reverse(word: Sequence[int]) -> int:
    """CyclicPerm.zeil_reverse, read off the rotation that ends at the maximum."""
    i = word.index(len(word)) + 1
    return zeil_word((word[i:] + word[:i])[::-1])


# statistics of an avoider, as functions of its canonical word
STATS: dict[str, Callable[[Sequence[int]], int]] = {
    "predecessor_of_n": lambda word: word[word.index(len(word)) - 1],
    "zeil_reverse": _zeil_reverse,
}


def predecessor_of_n(c: CyclicPerm) -> int:
    """The value cyclically preceding the maximum."""
    return STATS["predecessor_of_n"](c.canonical.values)


def count_refined(pset: PatternSet, n: int, stat: str, *, jobs: int = 1,
                  budget: int | None = None) -> dict[int, int]:
    """Avoider counts per value of a statistic named in STATS, by increasing
    value, for any set and every n >= 1: the occurrence walk's memoized
    count with a vector of counts per key (`occurrence.refine_by_occurrence`),
    so no avoider is walked leaf by leaf. zeil_reverse walks the reverse
    complement of the set, so its node total is that walk's. Nodes count and
    the budget applies as in count_avoiders; jobs changes nothing."""
    if stat not in STATS:
        raise ValueError(f"unknown statistic {stat!r}; expected one of {tuple(STATS)}")
    from .occurrence import refine_by_occurrence

    return refine_by_occurrence(_search(pset, n, jobs, budget), stat)


@dataclass
class CountTable:
    """Results of an enumeration (or formula evaluation) over a range of n."""

    patterns: tuple[str, ...]
    n_min: int
    n_max: int
    counts: dict[int, int]
    elapsed_ms: dict[int, float] = field(default_factory=dict)
    refinement: tuple[str, dict[int, dict[int, int]]] | None = None

    def to_csv(self) -> str:
        lines = ["n,count,elapsed_ms"]
        for n in range(self.n_min, self.n_max + 1):
            ms = self.elapsed_ms.get(n, 0.0)
            lines.append(f"{n},{self.counts[n]},{ms:.1f}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        rows = []
        for n in range(self.n_min, self.n_max + 1):
            row: dict = {
                "patterns": list(self.patterns),
                "n": n,
                "count": str(self.counts[n]),
            }
            if self.refinement is not None:
                name, per_n = self.refinement
                if n in per_n:
                    row["refinement"] = {
                        "stat": name,
                        "counts": {str(k): str(v) for k, v in sorted(per_n[n].items())},
                    }
            rows.append(row)
        return json.dumps(rows, indent=2) + "\n"


def count_range(pset: PatternSet, n_min: int, n_max: int, *, jobs: int = 1,
                budget: int | None = None, stat: str | None = None) -> CountTable:
    """Count avoiders for each n in a range; budget failures carry the partial table."""
    if not 1 <= n_min <= n_max:
        raise ValueError("need 1 <= n_min <= n_max")
    refined: dict[int, dict[int, int]] = {}
    table = CountTable(patterns=tuple(pset.texts()), n_min=n_min, n_max=n_max, counts={},
                       refinement=None if stat is None else (stat, refined))
    for n in range(n_min, n_max + 1):
        t0 = time.perf_counter()
        try:
            if stat is None:
                table.counts[n] = count_avoiders(pset, n, jobs=jobs, budget=budget)
            else:
                refined[n] = count_refined(pset, n, stat, jobs=jobs, budget=budget)
                table.counts[n] = sum(refined[n].values())
        except BudgetExceededError as exc:
            table.n_max = n - 1
            raise BudgetExceededError(
                f"budget exhausted at n={n}", exc.nodes, n_reached=n - 1, partial=table
            ) from exc
        table.elapsed_ms[n] = (time.perf_counter() - t0) * 1000.0
    return table

"""The state of the occurrence memo: live partial occurrences projected onto
the unused values.

This is the gap-vector idea of enumeration schemes (Zeilberger, Ann. Comb.
2, 1998; Vatter, Combin. Probab. Comput. 17, 2008; Baxter and Pudwell,
"Enumeration schemes for vincular patterns", Discrete Math. 312, 2012). It
applies to a set with no totally vincular pattern and no pattern that bonds
its 1 to its cyclic predecessor: with sigma_1 = 1 fixed, every occurrence in
such a set's host is then a linear occurrence of a wrap-free representative
inside the word, so whether a prefix completes to an avoider depends only on
the number s of unused values and on its live partial occurrences.

A partial occurrence is a tuple (step, lo_0, hi_0, lo_1, hi_1, ...). The step
names the representative and the number i of its leading positions placed.
Each (lo, hi) pair stands for a maximal run of unplaced pattern values, in
value order: lo and hi are the numbers of unused values below the run's two
bounding placed host values (the sentinels are 0 and s), so the run may take
the unused values of ranks lo..hi-1. The bounds ascend.

Appending the unused value of rank r lowers every bound above r by one. An
occurrence extends when r lies in the range of the run holding rep[i], which
splits at r; it may skip the entry only when position i starts a block; and
every representative starts an occurrence at the new entry. A child is
rejected when an occurrence completes, or when an extension leaves one with
only a one-entry last block and a value in its range: every unused value is
appended later, so that block is placed. An occurrence is dropped when a run
holds fewer unused values than pattern values, or when another at the same
step has ranges holding all of its own, since whatever completes the first
completes the second. `count_by_occurrence` walks the states for a search of
`enumeration`, which imports this module on the first count that needs it.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from typing import NamedTuple

from .enumeration import BudgetExceededError, _Search
from .patterns import PatternSet

State = frozenset[tuple[int, ...]]


class _Step(NamedTuple):
    at: int  # index in the occurrence tuple of the lo of the run holding rep[i]
    below: int  # values of that run below rep[i]
    above: int  # values of that run above rep[i]
    free: bool  # position i starts a block, so the occurrence may skip an entry
    after: int  # the step reached by placing rep[i] (unused when final)
    final: bool  # placing rep[i] completes the occurrence or leaves one one-entry block
    sizes: tuple[int, ...]  # the number of pattern values in each run


class Steps:
    """The steps of a set's deduplicated wrap-free representatives, all of
    length k: step q(k-1) + i - 1 is representative q with i positions
    placed."""

    def __init__(self, reps: list[tuple[tuple[int, ...], frozenset[int]]], k: int):
        self.k = k
        steps = []
        for q, (values, bonds) in enumerate(reps):
            for i in range(1, k):
                unplaced = sorted(values[i:])
                runs = [[unplaced[0]]]
                for u, w in zip(unplaced, unplaced[1:]):
                    if w == u + 1:
                        runs[-1].append(w)
                    else:
                        runs.append([w])
                j = next(j for j, run in enumerate(runs) if values[i] in run)
                below = sum(u < values[i] for u in runs[j])
                steps.append(_Step(1 + 2 * j, below, len(runs[j]) - below - 1, i not in bonds,
                                   q * (k - 1) + i,
                                   i == k - 1 or (i == k - 2 and i + 1 not in bonds),
                                   tuple(map(len, runs))))
        self.steps = tuple(steps)
        # per representative: its step at i = 1 and rep[0]
        self.firsts = tuple((q * (k - 1), values[0]) for q, (values, _bonds) in enumerate(reps))

    def rejected(self, state: State) -> int:
        """Bitset of the ranks whose appending completes an occurrence, or
        extends one so that only a one-entry last block is left to place with
        an unused value to place it on."""
        bad = 0
        for occ in state:
            at, below, above, _free, _after, final, _sizes = self.steps[occ[0]]
            if final:
                bad |= (1 << occ[at + 1] - above) - (1 << occ[at] + below)
        return bad

    def child(self, state: State, s: int, r: int) -> State:
        """The occurrences after appending the unused value of rank r, which
        `rejected` does not hold, to a word with s unused values."""
        k = self.k
        child = set()
        for occ in state:
            at, below, above, free, after, _final, sizes = self.steps[occ[0]]
            lo, hi = occ[at], occ[at + 1]
            if lo + below <= r < hi - above:
                # rep[i] takes the new value, splitting its run at r
                child.add((after, *occ[1:at], *((lo, r) if below else ()),
                           *((r, hi - 1) if above else ()), *[b - 1 for b in occ[at + 2:]]))
            if free:
                c = bisect_right(occ, r, 1)
                # c even: r lies in run c/2 - 1, which must keep enough values
                if c & 1 or occ[c] - occ[c - 1] > sizes[c // 2 - 1]:
                    child.add((*occ[:c], *[b - 1 for b in occ[c:]]))
        for first, v0 in self.firsts:
            if v0 - 1 <= r <= s - 1 - k + v0:
                child.add((first, *((0, r) if v0 > 1 else ()), *((r, s - 1) if v0 < k else ())))
        return _undominated(child)


def _undominated(occs: set[tuple[int, ...]]) -> State:
    """Drop each occurrence whose every run range lies inside the range of the
    same run of another occurrence at the same step."""
    groups: dict[int, list[tuple[int, ...]]] = {}
    for occ in occs:
        groups.setdefault(occ[0], []).append(occ)
    if len(groups) == len(occs):
        return frozenset(occs)
    kept = []
    for group in groups.values():
        for occ in group:
            for other in group:
                if other is not occ:
                    for t in range(1, len(occ), 2):
                        if other[t] > occ[t] or other[t + 1] < occ[t + 1]:
                            break
                    else:
                        break  # other's ranges hold occ's
            else:
                kept.append(occ)
    return frozenset(kept)


@cache
def occurrence_steps(pset: PatternSet) -> Steps | None:
    """The steps of a set; None when a pattern is totally vincular or bonds
    its 1 to its cyclic predecessor, so that an occurrence need not be a
    linear occurrence of a representative inside the word."""
    if any(p.totally_vincular or any(1 in b[1:] for b in p.blocks()) for p in pset.patterns):
        return None
    reps = sorted({rep for p in pset.patterns for rep in p.wrap_free_reps()},
                  key=lambda rep: (rep[0], sorted(rep[1])))
    return Steps(reps, pset.k or 0)


def count_by_occurrence(search: _Search) -> int:
    """The number of avoiders of a search's set, for which `occurrence_steps`
    is not None, memoized on the number s of unused values and the set of
    live partial occurrences. Nodes count as in `count_by_state`: the root
    once, then every tried rank of every expanded state, a rejected child or
    a memo hit included. The memo is kept in `search.memo`, one entry per
    expanded state, and its hits in `search.hits`."""
    steps = occurrence_steps(search.pset)
    search.memo = {}
    search.nodes += 1  # the root, sigma_1 = 1: rank 0 of the n unused values
    if search.nodes > search.budget:
        raise BudgetExceededError("node budget exceeded", search.nodes, search.n)
    return _count_from(search, steps, search.n - 1, steps.child(frozenset(), search.n, 0))


def _count_from(search: _Search, steps: Steps, s: int, state: State) -> int:
    """The number of avoiders below a state with s unused values."""
    if not s:
        return 1
    memo, budget = search.memo, search.budget
    bad = steps.rejected(state)
    total = 0
    for r in range(s):
        search.nodes += 1
        if search.nodes > budget:
            raise BudgetExceededError("node budget exceeded", search.nodes, search.n)
        if bad >> r & 1:
            continue
        if s == 1:
            total += 1
            continue
        child = steps.child(state, s, r)
        hit = memo.get((s - 1, child))
        if hit is None:
            total += _count_from(search, steps, s - 1, child)
        else:
            search.hits += 1
            total += hit
    memo[s, state] = total
    return total

"""The occurrence walk: live partial occurrences projected onto the unused
values. It answers every question about a set that is not totally vincular,
and the refined counts of every set.

This is the gap-vector idea of enumeration schemes (Zeilberger, Ann. Comb.
2, 1998; Vatter, Combin. Probab. Comput. 17, 2008; Baxter and Pudwell,
"Enumeration schemes for vincular patterns", Discrete Math. 312, 2012). With
sigma_1 = 1 fixed, read an occurrence in a host from position 0. Its entries
in position order are a rotation of the pattern. If that rotation leaves the
wrap slot unbonded, the occurrence is a linear occurrence, anywhere in the
word, of a wrap-free representative. Otherwise its bond joins positions n-1
and 0. Position 0 holds the global minimum, so the pattern's 1 is there and
the pattern bonds its 1 to its cyclic predecessor. Such a pattern has one
anchored representative: the rotation that starts at the 1. If block b holds
the 1 at index j > 0, that is b[j:], the later blocks, the earlier blocks,
then b[:j]. Its first block starts at position 0 and its last block, of
width j, ends at position n-1. So whether a prefix completes to an avoider
depends only on the number s of unused values and its live partial
occurrences, which are the key `(s, state)` of the walks below.

A partial occurrence is a tuple (step, lo_0, hi_0, lo_1, hi_1, ...). The step
names the representative and the number i of its leading positions placed.
Each (lo, hi) pair stands for a maximal run of unplaced pattern values, in
value order: lo and hi are the numbers of unused values below the run's two
bounding placed host values (the sentinels are 0 and s), so the run may take
the unused values of ranks lo..hi-1. The bounds ascend.

Appending the unused value of rank r lowers every bound above r by one. An
occurrence extends when r lies in the range of the run holding rep[i], which
splits at r. It may skip the entry only when position i starts a block. Every
wrap-free representative starts an occurrence at the new entry; an anchored
one starts only at the root. An anchored last block of width j may start only
when s = j, so it fills the last j positions and the occurrence completes
only at position n-1. It is never skipped at s = j either: the runs always
hold at least the k - i values left to place, so at s = k - i they hold
exactly the unused values, and skipping any of them leaves a run short.

A child is rejected when an occurrence completes, or when an extension leaves
a wrap-free occurrence with only a one-entry last block and a value in its
range: every unused value is appended later, so that block is placed. An
anchored occurrence waiting for a one-entry last block whose range holds
every unused value keeps it so (it skips only values in that range), and the
value left for position n-1 completes it, so such a child is dead: counted
as a node and not descended into. This is the analogue
of the window walk's seam lookahead. An occurrence is dropped when a run
holds fewer unused values than pattern values, or when another at the same
step has ranges holding all of its own, since whatever completes the first
completes the second.

One recursion of one loop shape reads the states of a search of
`enumeration`, which imports this module on first use. Below a key it tries
every rank in increasing order, counts each as a node, skips a rejected or
dead child and descends into the key of any other. A word with no unused
value is a leaf, the root at n = 1 included. `_fold_from` folds a value over
the children by the rule of a `Fold` and memoizes it per key: `COUNT` sums
the avoiders below, and each statistic of `STATISTICS` sums a vector of
counts per value of the statistic. `_leaves_from` is the same loop as a
generator: it maps each rank to a value through the sorted list of unused
values, so it yields the avoiders in lexicographic order; listings and first
avoiders read it. When no avoider is found below a key, the key is recorded
as dead, and a later child with a dead key is skipped. All are sound because
the subtree below a word depends only on its key. The memo and the dead keys
live only as long as the search.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from .enumeration import BudgetExceededError, _Search
from .patterns import Pattern, PatternSet

State = frozenset[tuple[int, ...]]
Rep = tuple[tuple[int, ...], frozenset[int]]


class _Step(NamedTuple):
    at: int  # index in the occurrence tuple of the lo of the run holding rep[i]
    below: int  # values of that run below rep[i]
    above: int  # values of that run above rep[i]
    free: bool  # position i starts a block, so the occurrence may skip an entry
    after: int  # the step reached by placing rep[i] (unused when final)
    final: bool  # placing rep[i] completes the occurrence or (wrap-free only) leaves one
    #              one-entry block
    sizes: tuple[int, ...]  # the number of pattern values in each run
    anchor: int  # the width of an anchored last block starting at position i, else 0


class Steps:
    """The steps of a set's deduplicated wrap-free representatives, then of
    its anchored ones, all of length k: step q(k-1) + i - 1 is representative
    q with i positions placed."""

    def __init__(self, reps: list[Rep], anchored: list[Rep], k: int):
        self.k = k
        steps = []
        for q, (values, bonds) in enumerate(reps + anchored):
            ends = q >= len(reps)
            last = max(i for i in range(k) if i not in bonds)  # where the last block starts
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
                                   i == k - 1 or (not ends and i == k - 2 and i + 1 not in bonds),
                                   tuple(map(len, runs)), k - i if ends and i == last else 0))
        self.steps = tuple(steps)
        # per wrap-free representative: its step at i = 1 and rep[0]
        self.firsts = tuple((q * (k - 1), values[0]) for q, (values, _bonds) in enumerate(reps))
        # the steps at i = 1 of the representatives the root starts
        self.roots = tuple(q * (k - 1) for q, (values, _bonds) in enumerate(reps + anchored)
                           if values[0] == 1)
        # the steps that wait for an anchored one-entry last block
        self.waiting = frozenset(q for q, step in enumerate(steps) if step.anchor == 1)

    def rejected(self, state: State, s: int) -> int:
        """Bitset of the ranks whose appending to a word with s unused values
        completes an occurrence, or extends a wrap-free one so that only a
        one-entry last block is left to place with an unused value to place
        it on."""
        bad = 0
        for occ in state:
            at, below, above, _free, _after, final, _sizes, anchor = self.steps[occ[0]]
            if final and (not anchor or anchor == s):
                bad |= (1 << occ[at + 1] - above) - (1 << occ[at] + below)
        return bad

    def root(self, n: int) -> State | None:
        """The occurrences after sigma_1 = 1, the unused value of rank 0 of n,
        or None when that child is dead."""
        return self._kept({(q, 0, n - 1) for q in self.roots} if n >= self.k else set(), n - 1)

    def child(self, state: State, s: int, r: int) -> State | None:
        """The occurrences after appending the unused value of rank r, which
        `rejected` does not hold, to a word with s unused values, or None
        when the child is dead."""
        k = self.k
        child = set()
        for occ in state:
            at, below, above, free, after, _final, sizes, anchor = self.steps[occ[0]]
            lo, hi = occ[at], occ[at + 1]
            if lo + below <= r < hi - above and (not anchor or anchor == s):
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
        return self._kept(child, s - 1) if self.waiting else _undominated(child)

    def _kept(self, occs: set[tuple[int, ...]], s: int) -> State | None:
        """The undominated occurrences of a word with s unused values, or None
        when one waits for an anchored one-entry last block whose range holds
        every unused value."""
        state = _undominated(occs)
        if self.waiting and any(occ[0] in self.waiting and occ[1] == 0 and occ[2] == s
                                for occ in state):
            return None
        return state


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


def _anchored(p: Pattern) -> Rep | None:
    """The anchored representative of a pattern whose 1 is bonded to its
    cyclic predecessor: the rotation that starts at the 1, without the bond
    across its wrap slot. None for any other pattern."""
    k, t = p.k, p.values.index(1)
    bonds = frozenset((slot - 1 - t) % k + 1 for slot in p.bonds)
    return (p.values[t:] + p.values[:t], bonds - {k}) if k in bonds else None


def _ordered(reps: set[Rep]) -> list[Rep]:
    return sorted(reps, key=lambda rep: (rep[0], sorted(rep[1])))


@cache
def occurrence_steps(pset: PatternSet) -> Steps:
    """The steps of a set's wrap-free and anchored representatives."""
    return Steps(_ordered({rep for p in pset.patterns for rep in p.wrap_free_reps()}),
                 _ordered({rep for p in pset.patterns if (rep := _anchored(p))}),
                 pset.k or 0)


def _root(search: _Search, steps: Steps) -> State | None:
    """Count the root, sigma_1 = 1, as one node and return its state."""
    search.nodes += 1
    if search.nodes > search.budget:
        raise BudgetExceededError("node budget exceeded", search.nodes, search.n)
    return steps.root(search.n)


class Fold(NamedTuple):
    """A question folded over the keys of the walk. A complete word's fold is
    `leaf`. The fold below a key with s unused values starts from
    `zero * (s + 1)` (an int 0, or a list of s + 1 zeros), and
    `add(total, below, r, s)` returns it with the fold below the child of
    rank r added. A statistic's fold at the root has one entry per value,
    `values(n)` in entry order, and is taken over the reverse complement of
    the set when `reverse` is set."""

    leaf: Any
    zero: Any
    add: Callable[[Any, Any, int, int], Any]
    values: Callable[[int], Sequence[int]] | None = None
    reverse: bool = False


def _add_predecessor(total: list[int], below: Sequence[int], r: int, s: int) -> list[int]:
    """Appending the largest unused value (r = s - 1) makes the word's last
    entry its predecessor. Appending another rank r shifts the child's ranks
    from r on up by one, and the child's last entry is then rank r."""
    for j, count in enumerate(below):
        total[s if r == s - 1 else r if j == s - 1 else j + (j >= r)] += count
    return total


def _add_chain(total: list[int], below: Sequence[int], r: int, s: int) -> list[int]:
    """Appending rank 0 starts the chain, which the child's ranks continue;
    appending a rank r > 0 places it before ranks 0..r-1, so the chain stops
    at r at most."""
    for t, count in enumerate(below):
        total[t + 1 if r == 0 else min(t, r)] += count
    return total


# the count keeps plain ints: a fold of one-entry vectors is slower
COUNT = Fold(1, 0, lambda total, below, r, s: total + below)
# each statistic of `enumeration.STATS`, folded as a vector of s + 1 counts:
# - predecessor_of_n: entry j < s counts the avoiders below in which the
#   value before the largest unused value is the unused value of rank j, and
#   entry s those in which it is the word's last entry.
# - zeil_reverse: for an avoider sigma of a set S, zeil_reverse(sigma) is
#   t + 1 for the largest t such that the values 2..t+1 appear left to right
#   in the canonical word of rc(sigma), which avoids rc(S). Entry t counts the
#   avoiders below in which the unused values of ranks 0..t-1, and not rank
#   t, appear left to right.
STATISTICS = {
    "predecessor_of_n": Fold((1,), [0], _add_predecessor, lambda n: [*range(2, n + 1), 1]),
    "zeil_reverse": Fold((1,), [0], _add_chain, lambda n: range(1, n + 1), reverse=True),
}


def count_by_occurrence(search: _Search) -> int:
    """The number of avoiders of a search's set. Nodes count the root once,
    then every tried rank of every expanded state, a rejected or dead child
    or a memo hit included. The memo is kept in `search.memo`, one entry per
    expanded state, and its hits in `search.hits`."""
    return _fold_root(search, COUNT)


def refine_by_occurrence(search: _Search, stat: str) -> dict[int, int]:
    """The avoiders of a search's set counted per value of a statistic of
    `STATISTICS`, by increasing value. The walk, its nodes, memo and hits
    are those of `count_by_occurrence` on the set the statistic walks."""
    fold = STATISTICS[stat]
    totals = _fold_root(search, fold)
    return {value: count for value, count in sorted(zip(fold.values(search.n), totals)) if count}


def _fold_root(search: _Search, fold: Fold) -> Any:
    """The fold below the root of a search, from a fresh memo."""
    steps = occurrence_steps(search.pset.reverse_complement() if fold.reverse else search.pset)
    search.memo = {}
    state = _root(search, steps)
    s = search.n - 1
    return fold.zero * (s + 1) if state is None else _fold_from(search, steps, s, state, fold)


def _fold_from(search: _Search, steps: Steps, s: int, state: State, fold: Fold) -> Any:
    """The fold below a state with s unused values, stored in the memo."""
    if not s:
        return fold.leaf
    memo, budget, add = search.memo, search.budget, fold.add
    bad = steps.rejected(state, s)
    total = fold.zero * (s + 1)
    for r in range(s):
        search.nodes += 1
        if search.nodes > budget:
            raise BudgetExceededError("node budget exceeded", search.nodes, search.n)
        if bad >> r & 1:
            continue
        if s == 1:
            below = fold.leaf
        elif (child := steps.child(state, s, r)) is None:
            continue
        elif (below := memo.get((s - 1, child))) is None:
            below = _fold_from(search, steps, s - 1, child, fold)
        else:
            search.hits += 1
        total = add(total, below, r, s)
    memo[s, state] = total
    return total


def occurrence_leaves(search: _Search) -> Iterator[tuple[int, ...]]:
    """Yield the avoiders of a search's set in lexicographic order, each as
    soon as it is reached. Nodes count as in `count_by_occurrence`: the root
    once, then every tried rank, a rejected or dead child or a child with a
    dead key included."""
    steps = occurrence_steps(search.pset)
    state = _root(search, steps)
    if state is not None:
        yield from _leaves_from(search, steps, search.n - 1, state, [1],
                                list(range(2, search.n + 1)), set())


def _leaves_from(search: _Search, steps: Steps, s: int, state: State, word: list[int],
                 unused: list[int], dead: set[tuple[int, State]]) -> Iterator[tuple[int, ...]]:
    """Yield the avoiders below a word with s unused values, listed in
    increasing order in `unused`, and put its key in `dead` if none is."""
    if not s:
        search.found += 1
        yield tuple(word)
        return
    found, budget = search.found, search.budget
    bad = steps.rejected(state, s)
    for r in range(s):
        search.nodes += 1
        if search.nodes > budget:
            raise BudgetExceededError("node budget exceeded", search.nodes, search.n)
        if bad >> r & 1:
            continue
        if s == 1:
            search.found += 1
            yield (*word, unused[0])
        elif (child := steps.child(state, s, r)) is not None and (s - 1, child) not in dead:
            word.append(unused.pop(r))
            yield from _leaves_from(search, steps, s - 1, child, word, unused, dead)
            unused.insert(r, word.pop())
    if search.found == found:
        dead.add((s, state))

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

Three walks read the states of a search of `enumeration`, which imports
this module on first use. `count_by_occurrence` memoizes the count below
each key, and `refine_by_occurrence` the vector of counts per value of a
statistic below it. `occurrence_leaves` walks depth first over ranks and
maps each rank to a value through the sorted list of unused values, so it
yields the avoiders in lexicographic order; listings and first avoiders read
it. When a subtree finishes without a leaf, its key is recorded as dead, and
a later child with a dead key is skipped. All are sound because the subtree
below a word depends only on its key. The memo and the dead keys live only
as long as the search.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from functools import cache
from typing import Callable, Iterator, NamedTuple

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


def count_by_occurrence(search: _Search) -> int:
    """The number of avoiders of a search's set, memoized on the key. Nodes
    count the root once, then every tried rank of every expanded state, a
    rejected or dead child or a memo hit included. The memo is kept in
    `search.memo`, one entry per expanded state, and its hits in
    `search.hits`."""
    steps = occurrence_steps(search.pset)
    search.memo = {}
    state = _root(search, steps)
    return 0 if state is None else _count_from(search, steps, search.n - 1, state)


def _count_from(search: _Search, steps: Steps, s: int, state: State) -> int:
    """The number of avoiders below a state with s unused values."""
    if not s:
        return 1
    memo, budget = search.memo, search.budget
    bad = steps.rejected(state, s)
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
        if child is None:
            continue
        hit = memo.get((s - 1, child))
        if hit is None:
            total += _count_from(search, steps, s - 1, child)
        else:
            search.hits += 1
            total += hit
    memo[s, state] = total
    return total


def refine_by_occurrence(search: _Search, stat: str) -> dict[int, int]:
    """The avoiders counted per value of a statistic of `enumeration.STATS`,
    by increasing value, from one memoized vector fold over the keys of
    `count_by_occurrence`. The fold below a key with s unused values is a
    tuple of s + 1 counts, stored once per key in `search.memo`, with its
    hits in `search.hits`; nodes count as in `count_by_occurrence`.

    - predecessor_of_n: entry j < s counts the avoiders below in which the
      value before the largest unused value is the unused value of rank j,
      and entry s those in which it is the word's last entry. At the root,
      entry j is the value j + 2 and entry n - 1 the value 1.
    - zeil_reverse: the search is of the reverse complement rc(S) of the
      set S. For an avoider sigma of S, zeil_reverse(sigma) is t + 1 for
      the largest t such that the values 2..t+1 appear left to right in the
      canonical word of rc(sigma), which avoids rc(S). Entry t counts the
      avoiders below in which the unused values of ranks 0..t-1, and not
      rank t, appear left to right."""
    steps = occurrence_steps(search.pset)
    search.memo = {}
    state = _root(search, steps)
    n, pred = search.n, stat == "predecessor_of_n"
    fold = () if state is None else _fold_from(search, steps, n - 1, state,
                                               _add_predecessor if pred else _add_chain)
    values = [*range(2, n + 1), 1] if pred else range(1, n + 1)
    return {value: count for value, count in sorted(zip(values, fold)) if count}


def _fold_from(search: _Search, steps: Steps, s: int, state: State,
               add: Callable[[list[int], tuple[int, ...], int, int], None]) -> tuple[int, ...]:
    """The fold below a state with s unused values: `add` puts the fold of
    each child, at the rank appended, into it. A leaf's fold is (1,)."""
    memo, budget = search.memo, search.budget
    bad = steps.rejected(state, s)
    total = [0] * (s + 1)
    for r in range(s):
        search.nodes += 1
        if search.nodes > budget:
            raise BudgetExceededError("node budget exceeded", search.nodes, search.n)
        if bad >> r & 1:
            continue
        if s == 1:
            below = (1,)
        elif (child := steps.child(state, s, r)) is None:
            continue
        elif (below := memo.get((s - 1, child))) is None:
            below = _fold_from(search, steps, s - 1, child, add)
        else:
            search.hits += 1
        add(total, below, r, s)
    memo[s, state] = fold = tuple(total)
    return fold


def _add_predecessor(total: list[int], below: tuple[int, ...], r: int, s: int) -> None:
    """Appending the largest unused value (r = s - 1) makes the word's last
    entry its predecessor. Appending another rank r shifts the child's ranks
    from r on up by one, and the child's last entry is then rank r."""
    for j, count in enumerate(below):
        total[s if r == s - 1 else r if j == s - 1 else j + (j >= r)] += count


def _add_chain(total: list[int], below: tuple[int, ...], r: int, s: int) -> None:
    """Appending rank 0 starts the chain, which the child's ranks continue;
    appending a rank r > 0 places it before ranks 0..r-1, so the chain stops
    at r at most."""
    for t, count in enumerate(below):
        total[t + 1 if r == 0 else min(t, r)] += count


def occurrence_leaves(search: _Search) -> Iterator[tuple[int, ...]]:
    """Yield the avoiders of a search's set in lexicographic order, each as
    soon as it is reached. Nodes count as in `count_by_occurrence`: the root
    once, then every tried rank, a rejected or dead child or a child with a
    dead key included."""
    n, budget = search.n, search.budget
    steps = occurrence_steps(search.pset)
    state = _root(search, steps)
    if state is None:
        return
    if n == 1:
        yield (1,)
        return
    word, unused = [1], list(range(2, n + 1))
    found = 0
    dead: set[tuple[int, State]] = set()
    # one frame per word on the path: s, its state, the ranks it rejects, the
    # ranks left to try and the leaves found before it was pushed
    stack = [(n - 1, state, steps.rejected(state, n - 1), iter(range(n - 1)), found)]
    while stack:
        s, state, bad, ranks, before = stack[-1]
        for r in ranks:
            search.nodes += 1
            if search.nodes > budget:
                raise BudgetExceededError("node budget exceeded", search.nodes, n)
            if bad >> r & 1:
                continue
            if s == 1:
                found += 1
                yield (*word, unused[0])
                continue
            child = steps.child(state, s, r)
            if child is None or (s - 1, child) in dead:
                continue
            # descend: `ranks` resumes once the new frame is popped
            word.append(unused.pop(r))
            stack.append((s - 1, child, steps.rejected(child, s - 1), iter(range(s - 1)), found))
            break
        else:
            stack.pop()
            if found == before:
                dead.add((s, state))
            if stack:
                insort(unused, word.pop())

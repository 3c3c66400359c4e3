"""Exact enumeration of cyclic avoidance classes.

One backtracking engine, `_Search`, answers every question about Av_n:
counting, listing, and finding a first avoider all read its leaves. It
extends sigma_2..sigma_n with sigma_1 = 1 fixed, so the leaves are exactly
the (n-1)! canonical cyclic permutations in lexicographic order. A prefix is
rejected as soon as it contains a linear occurrence of any wrap-free
representative of a forbidden pattern: appending at the end never disturbs
adjacencies or relative order already present, so such an occurrence
survives into every completion. Read around the circle from position 0,
an occurrence in a complete permutation is a linear occurrence of a
wrap-free representative inside the word, unless the pattern bonds its
entries at positions n-1 and 0. Position 0 holds the value 1, so that bond
joins the pattern's 1 to its cyclic predecessor. The seam check of a leaf
therefore places only the patterns whose 1 is bonded that way: from the 1
to the end of its block at position 0, the head of that block at the end of
the word, and the other blocks between them. A pattern whose 1 starts its
block needs no seam check. A totally vincular pattern is instead looked up
in the k-1 windows across the seam. The tests validate this against the
rotation-scanning matcher.

The prefix check is mostly a bit test. Each word on the search path carries
a mask: the values whose appending completes an occurrence ending at the
new entry. It is computed once per word, and each child is then rejected by
`mask >> v & 1` (after it is counted as a node). Two sources feed the mask.
For the totally vincular patterns, a table built once per search maps the
reduction of the last k-1 entries to the ranks a new value must not take.
One window table shared by every search in the process maps those k-1
entries themselves (the tail) to their reduction and the value interval of
each rank, so the mask is a lookup and an OR; the seam windows read the same
table. The other patterns
are compiled once into placement programs, one per wrap-free
representative. A representative whose last block has width 1 is compiled
as its last earlier block (anchored at the end of the word), the other
earlier blocks from left to right, and the open final entry. A word's mask
is then its parent's mask OR the value intervals the final entry may take
over every placement whose last earlier block ends at the word's last
entry; one exhaustive walk per word finds them. A representative whose last
block is wider is checked at each appended entry instead: that block
anchored at the end of the word, then the other blocks from left to right.
Each program entry names the already placed entries holding its nearest
smaller and nearest larger pattern values, so the order check of a new
host value is two comparisons (the encoding of Kubica et al., "A linear
time algorithm for consecutive permutation pattern matching", IPL 2013),
and the values a final entry may take form one interval. `matcher` shares
none of this code and stays the oracle.

The unused values are one bitset, `free`, and the children of a word are its
members when the word is pushed. Every accepted word shorter than n gets one
dead-end test before it is pushed; a dead end is counted as a node and not
descended into. Each test finds a subtree without an avoider, so node totals
fall and nothing else changes (counts, leaves, memo values, the budget rule).
- The narrow masks are inherited. A value in the mask of the word or of an
  ancestor completes an occurrence wherever it is appended later: the final
  block of a narrow representative is one entry, bonded to nothing before
  it. Every unused value is appended somewhere later, so a word whose mask
  meets `free` is a dead end. The mask is ORed into a local copy; the word's
  later siblings still read their parent's.
- A seam lookahead for the totally vincular patterns. Once
  sigma_1..sigma_{k-1} are placed, the windows (sigma_n, sigma_1, ...,
  sigma_{k-1}) across the seam bar some values from the last position: the
  ranks listed in `last_ranks` for the reduction of sigma_1..sigma_{k-1},
  read through the window table. One unused value ends the word, so a word
  whose unused values are all barred is a dead end.

The search forest is split into n-1 shards by the value of sigma_2, and
`_Search.leaves(v2)` streams the avoiders of one shard; `leaves(None)` walks
every shard from one root. Counts and refined counts share one shard
driver, in which a shard's tally is its number of avoiders or a Counter of a
`STATS` statistic. One search object walks the shards in order and counts
nodes (the root once per shard) across all of them, so the node budget is
global: BudgetExceededError is raised when the running total first exceeds
the budget, with nodes = budget + 1. With jobs > 1 the shards run in worker
processes and their (tally, nodes) pairs are combined in shard order under
the same rule, so no result depends on the number of workers; at most
jobs + 1 shards are handed out at a time, so after an overrun only those
run to their end. Enumeration yields each avoider as soon as it is found, so
a caller that stops early pays only for the nodes visited so far.

`leaves` is the only search loop; a search of a non-empty set of totally
vincular patterns that counts or stops at its first leaf gives it a memo
(the transfer-matrix view of consecutive patterns: Goulden and Jackson's
cluster method; Elizalde and Noy, "Consecutive patterns in permutations",
Adv. Appl. Math. 30, 2003). Whether a prefix of length m completes to an
avoider then depends only on the relative order of sigma_2..sigma_{k-1}
(the seam windows read them; sigma_1 = 1 is the global minimum), the last
k-1 entries and the unused values. From m = 2k-1 on, where an untracked
entry separates the two tracked runs, an accepted word is keyed by m and
the rank of each tracked value t among the tracked and unused values:
t minus the number of untracked entries below t, one popcount of their
bitset. Its subtree count is stored when its frame is popped, and a later
word with the same key adds that count without being descended into. Both
memoized searches walk every shard from one root, so one memo spans all
shards. `count_by_state` folds the counts (and runs in the calling process
for any jobs); `first_avoider` is the exists fold: it stops at its first
leaf, so every subtree it finishes holds no avoider, stores 0, and a later
word with the same key is skipped. Every other search (refined counts,
enumeration) has no memo and reads the leaves themselves: a listing must
reach every leaf, which a memo hit skips.

A plain count of a set with no totally vincular pattern and no pattern that
bonds its 1 to its cyclic predecessor (so no seam program) runs a second
memoized walk, `occurrence.count_by_occurrence`: its state is the number of
unused values and the set of live partial occurrences, each projected onto
the unused values (the gap vectors of enumeration schemes). It counts nodes
like `count_by_state` and starts no pool.
"""

from __future__ import annotations

import json
import time
from collections import Counter, deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cache
from itertools import islice
from typing import Callable, Iterator, Sequence

from .matcher import avoids_set
from .patterns import CYCLIC, PatternSet, bond_blocks
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

    def __reduce__(self):
        # workers send this error back to the pool's parent process
        return type(self), (self.args[0], self.nodes, self.n_reached, self.partial)


# A placement program is a tuple of steps (width, room, entries), one per
# block in placement order; room is the total width of the later steps. An
# entry (slot, lo, hi) stores its host value in h[slot], which must lie
# strictly between h[lo] and h[hi]: the host values of the nearest smaller and
# nearest larger pattern values placed before it. Slots 0 and 1 hold the
# sentinels 0 and n + 1; the entries use slots 2, 3, ... in program order.
_Program = tuple[tuple[int, int, tuple[tuple[int, int, int], ...]], ...]


def _program(blocks: Sequence[tuple[int, ...]]) -> _Program:
    """Compile blocks, given in placement order, into a placement program."""
    placed: list[int] = []
    steps = []
    room = sum(map(len, blocks))
    for block in blocks:
        room -= len(block)
        entries = []
        for pv in block:
            below = [(q, slot) for slot, q in enumerate(placed, 2) if q < pv]
            above = [(q, slot) for slot, q in enumerate(placed, 2) if q > pv]
            entries.append((len(placed) + 2, max(below)[1] if below else 0,
                            min(above)[1] if above else 1))
            placed.append(pv)
        steps.append((len(block), room, tuple(entries)))
    return tuple(steps)


def _fits(word: Sequence[int], s: int, entries: tuple[tuple[int, int, int], ...],
          h: list[int]) -> bool:
    """Lay one block's entries on word[s:], recording the host values in h."""
    for slot, lo, hi in entries:
        v = word[s]
        if not h[lo] < v < h[hi]:
            return False
        h[slot] = v
        s += 1
    return True


def _place_blocks(word: Sequence[int], prog: _Program, bi: int, start: int, stop: int,
                  h: list[int]) -> bool:
    """Place steps bi.. of the program, left to right, into word[start:stop]."""
    width, room, entries = prog[bi]
    last = bi + 1 == len(prog)
    for s in range(start, stop - width - room + 1):
        if _fits(word, s, entries, h) and (
                last or _place_blocks(word, prog, bi + 1, s + width, stop, h)):
            return True
    return False


def _ends_at_last(word: Sequence[int], prog: _Program, h: list[int]) -> bool:
    """Does an occurrence end at the last entry of the word? The program
    starts with the pattern's last block, anchored there."""
    width, room, entries = prog[0]
    s0 = len(word) - width
    return (s0 >= room and _fits(word, s0, entries, h)
            and _place_blocks(word, prog, 1, 0, s0, h))


def _between(lo: int, hi: int) -> int:
    """Bitset of the values strictly between lo and hi."""
    return (1 << hi) - (2 << lo)


@cache
def _windows(tail: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The reduction of a tail (the last k-1 entries of a word) and, for each
    rank r = 1..k, the bitset of the values a new entry of rank r among the
    tail and itself can take. The top rank's bitset is negative: every value
    above the tail's largest entry. So the table depends neither on n nor on
    the pattern set, and every search shares it, one entry per tail."""
    bounds = [0, *sorted(tail)]
    return reduce_window(tail), (*map(_between, bounds, bounds[1:]), -(2 << bounds[-1]))


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


def _final_values(word: Sequence[int], prog: _Program, bi: int, start: int, stop: int,
                  h: list[int]) -> int:
    """Place steps bi.. of the program, all but its final one-entry step, left
    to right into word[start:stop] in every way; the OR of the values the
    final entry may take after each placement."""
    width, room, entries = prog[bi]
    if not room:
        ((_slot, lo, hi),) = entries
        return _between(h[lo], h[hi])
    mask = 0
    for s in range(start, stop - width - room + 2):
        if _fits(word, s, entries, h):
            mask |= _final_values(word, prog, bi + 1, s + width, stop, h)
    return mask


def _completed_at_next(word: Sequence[int], prog: _Program, h: list[int]) -> int:
    """Bitset of the values v for which word + [v] has an occurrence whose
    last block is v alone and whose last earlier block ends at the last entry
    of the word. The program starts with that earlier block, anchored there,
    and ends with the final entry."""
    width, room, entries = prog[0]
    s0 = len(word) - width
    if s0 < room - 1 or not _fits(word, s0, entries, h):
        return 0
    return _final_values(word, prog, 1, 0, s0, h)


class _Search:
    """The backtracking engine for one pattern set and length n."""

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
        general = [p for p in pset.patterns if not p.totally_vincular]
        # wrap-free representatives ending in a block of width 1 feed the
        # masks; the others are checked at each appended entry
        self.narrow: list[_Program] = []
        self.wide: list[_Program] = []
        for p in general:
            for values, bonds in p.wrap_free_reps():
                *earlier, last = bond_blocks(values, bonds)
                if len(last) == 1:
                    self.narrow.append(_program(earlier[-1:] + earlier[:-1] + [last]))
                else:
                    self.wide.append(_program([last] + earlier))
        # an occurrence the prefix check misses bonds the pattern's 1, at
        # position 0, to its cyclic predecessor at position n-1: from the 1 to
        # the end of its block, then the block's head (anchored at the end of
        # the word), then the other blocks from left to right
        self.seam = [_program([b[b.index(1):], b[:b.index(1)]] + blocks[i + 1:] + blocks[:i])
                     for blocks in (p.blocks() for p in general)
                     for i, b in enumerate(blocks) if 1 in b[1:]]
        self.h = [0, n + 1] + [0] * self.k
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

    def leaves(self, v2: int | None) -> Iterator[tuple[int, ...]]:
        """Yield the avoiders with sigma_2 = v2 in lexicographic order. With
        v2 None (always when n = 1) every shard is walked from one root,
        which counts as one node, not one per shard. The search keeps its
        stack of frames explicitly, so it can stop at any leaf; `found`
        counts the avoiders found so far. An accepted word that is a dead
        end (see the module docstring) is counted as a node and not
        descended into. With a memo (only `count_by_state` and
        `first_avoider` set one) a word whose window state is memoized adds
        the stored count to `found`, counts in `hits` and is not descended
        into, so the walk then yields only the leaves it reaches."""
        n, k, budget, memo = self.n, self.k, self.budget, self.memo
        narrow, wide, h, last_ranks = self.narrow, self.wide, self.h, self.last_ranks
        word: list[int] = []
        free = (2 << n) - 2  # the unused values, as a bitset
        # from length k-1 on, sigma_1..sigma_{k-1} bar the values in `barred`
        # from the last position; without totally vincular patterns, never
        seamed = k - 1 if last_ranks else n
        barred = 0
        # words are keyed from the first length at which an untracked entry
        # lies between sigma_2..sigma_{k-1} and the last k-1 entries (at
        # m = 2k-2 every key would be new); mid[m] is the bitset of those
        # untracked entries, sigma_k..sigma_{m-k+1}
        keyed = 2 * k - 1
        mid = [0] * (n + 1)
        # one frame per word on the path: its children (the values unused
        # when it was pushed), the values that complete a narrow occurrence
        # after it (inherited by its children), the values rejected among its
        # children, its memo key (or None) and `found` when it was pushed
        stack: list[tuple[Iterator[int], int, int, tuple[int, ...] | None, int]] = [
            (iter((1,)), 0, self.window_mask(word), None, self.found)]
        while stack:
            children, grown, bad, key, before = stack[-1]
            for v in children:
                self.nodes += 1
                if self.nodes > budget:
                    raise BudgetExceededError("node budget exceeded", self.nodes, n)
                if bad >> v & 1:
                    continue
                word.append(v)
                free ^= 1 << v
                if not (wide and any(_ends_at_last(word, prog, h) for prog in wide)):
                    m = len(word)
                    if m == n:
                        if self.seam_clean(word):
                            self.found += 1
                            yield tuple(word)
                    else:
                        if m == seamed:
                            barred = _ranked(last_ranks, word)
                        # a local copy: the word's later siblings read `grown`
                        mask = grown
                        for prog in narrow:
                            mask |= _completed_at_next(word, prog, h)
                        # a dead end: an unused value completes an occurrence
                        # wherever it goes, or every one is barred from the end
                        if not mask & free and (m < seamed or free & ~barred):
                            state = hit = None
                            if memo is not None and m >= keyed:
                                mid[m] = between = mid[m - 1] | 1 << word[m - k]
                                # sigma_2..sigma_{k-1} and the last k-1 entries,
                                # ranked among themselves and the unused values
                                state = (m, *[t - (between & ((1 << t) - 1)).bit_count()
                                              for t in word[1:k - 1] + word[m - k + 1:]])
                                hit = memo.get(state)
                            if hit is None:
                                # descend: `children` resumes once the new
                                # frame is popped
                                stack.append((iter((v2,) if m == 1 and v2 else _members(free)),
                                              mask, mask | self.window_mask(word), state,
                                              self.found))
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
        """No occurrence of a pattern crosses the seam of the complete word.
        This relies on the prefix check having rejected every linear
        occurrence of every wrap-free representative and every forbidden
        linear window inside the word, so only the windows across the seam
        and the occurrences that bond the 1 at position 0 to position n-1
        are left to look for."""
        n, k, h = len(word), self.k, self.h
        if n < k:
            return True
        if self.window_ranks:
            # a window across the seam is forbidden when its last entry is in
            # the window mask of the k-1 entries before it
            ends = word[n - k + 1:] + word[:k - 1]
            for s in range(k - 1):
                if self.window_mask(ends[s:s + k - 1]) >> ends[s + k - 1] & 1:
                    return False
        for prog in self.seam:
            width, _room, entries = prog[0]
            if _fits(word, 0, entries, h) and _ends_at_last(word[width:], prog[1:], h):
                return False
        return True

    def count_by_state(self) -> int:
        """The number of avoiders of a set of totally vincular patterns: the
        walk of `leaves(None)` with a fresh memo, so subtree counts are
        memoized on the window state instead of walked leaf by leaf. Nodes
        count as in `leaves` (every appended value, a memo hit included),
        and the root is one node, not one per shard. The memo is kept in
        `memo`, one entry per window state."""
        self.memo = {}
        return self.tally(None, None)

    def tally(self, v2: int | None, stat: str | None) -> int | Counter[int]:
        """The number of avoiders of one shard (v2 None: of all shards), or a
        Counter of a statistic."""
        if stat is not None:
            return Counter(map(STATS[stat], self.leaves(v2)))
        before = self.found
        deque(self.leaves(v2), maxlen=0)
        return self.found - before


def _validate(pset: PatternSet, n: int) -> None:
    if n < 1:
        raise ValueError("n must be >= 1")
    if pset.patterns and pset.kind != CYCLIC:
        raise ValueError("enumeration requires cyclic patterns")


def _by_state(pset: PatternSet) -> bool:
    """Is the set non-empty and totally vincular, so that its searches can be
    memoized on the window state?"""
    return bool(pset.patterns) and all(p.totally_vincular for p in pset.patterns)


def _shards(n: int) -> list[int | None]:
    return [None] if n == 1 else list(range(2, n + 1))


def _count_shard(pset: PatternSet, n: int, v2: int | None, budget: int | None,
                 stat: str | None = None) -> tuple[int | Counter[int], int]:
    """(tally, nodes) of one shard under a search of its own: a pool worker's job."""
    search = _Search(pset, n, budget)
    return search.tally(v2, stat), search.nodes


def _run_shards(pset: PatternSet, n: int, jobs: int, budget: int | None,
                stat: str | None = None) -> int | Counter[int]:
    """Sum of the shard tallies; the node budget covers all shards, for any jobs."""
    _validate(pset, n)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if stat is None and _by_state(pset):
        # the memo spans the shards, so this count runs in this process
        # whatever jobs is
        return _Search(pset, n, budget).count_by_state()
    if stat is None:
        # likewise for the occurrence memo; its module is imported on first use
        from .occurrence import count_by_occurrence, occurrence_steps

        if occurrence_steps(pset) is not None:
            return count_by_occurrence(_Search(pset, n, budget))
    shards = _shards(n)
    total: int | Counter[int] = 0 if stat is None else Counter()
    if jobs == 1 or len(shards) == 1:
        search = _Search(pset, n, budget)
        return sum((search.tally(v2, stat) for v2 in shards), total)
    limit = DEFAULT_BUDGET if budget is None else budget
    nodes = 0
    work = iter([(pset, n, v2, budget, stat) for v2 in shards])
    workers = min(jobs, len(shards))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # one shard more than there are workers is submitted at a time, so no
        # worker waits for work, and after an overrun no further shard starts
        running = deque(pool.submit(_count_shard, *args) for args in islice(work, workers + 1))
        while running:
            # a shard over the budget on its own raises in its worker, with
            # the same nodes = limit + 1 as below
            part, used = running.popleft().result()
            total += part
            nodes += used
            if nodes > limit:
                raise BudgetExceededError("node budget exceeded", limit + 1, n)
            running.extend(pool.submit(_count_shard, *args) for args in islice(work, 1))
    return total


def count_avoiders(pset: PatternSet, n: int, *, jobs: int = 1,
                   budget: int | None = None) -> int:
    """|Av_n| for a set of cyclic patterns: canonical cyclic permutations
    avoiding all. A set of totally vincular patterns is counted by memoized
    window state, and a set with no totally vincular pattern and no seam
    program by memoized partial occurrences, both in this process whatever
    jobs is."""
    return _run_shards(pset, n, jobs, budget)


def enumerate_avoiders(pset: PatternSet, n: int, *, budget: int | None = None) -> Iterator[CyclicPerm]:
    """Yield the avoiders in lexicographic order of canonical form, each as
    soon as the search reaches it."""
    _validate(pset, n)
    search = _Search(pset, n, budget)
    for v2 in _shards(n):
        for word in search.leaves(v2):
            yield CyclicPerm(LinearPerm(word))


def first_avoider(pset: PatternSet, n: int, *, budget: int | None = None) -> CyclicPerm | None:
    """The lexicographically first avoider, or None if Av_n is empty: the
    first leaf of `leaves(None)`, whose root counts as one node. A set of
    totally vincular patterns gets a memo (the exists fold): the walk stops
    at its first avoider, so every subtree it finishes holds none, and a
    later word with the same window state is skipped."""
    _validate(pset, n)
    search = _Search(pset, n, budget)
    if _by_state(pset):
        search.memo = {}
    word = next(search.leaves(None), None)
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
    """Avoider counts per value of a statistic named in STATS, by increasing value."""
    if stat not in STATS:
        raise ValueError(f"unknown statistic {stat!r}; expected one of {tuple(STATS)}")
    if n < 3:
        raise ValueError("refined counts need n >= 3")
    return dict(sorted(_run_shards(pset, n, jobs, budget, stat).items()))


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

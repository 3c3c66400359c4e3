"""Containment and avoidance of vincular patterns by linear and cyclic permutations.

A cyclic permutation contains a cyclic pattern when some rotation of it
contains the pattern's canonical linear representative; an occurrence may
go around the circle at most once. Totally vincular patterns get an O(n*k)
window-scan fast path.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .patterns import Pattern, PatternSet, CYCLIC, LINEAR, bond_blocks
from .perms import CyclicPerm, LinearPerm, reduce_window


def _occurrences_word(
    word: Sequence[int], values: tuple[int, ...], bonds: frozenset[int]
) -> Iterator[tuple[int, ...]]:
    """Yield 0-based index tuples of vincular occurrences, lexicographically."""
    m = len(word)
    k = len(values)
    if m < k:
        return
    blocks = bond_blocks(values, bonds)
    pairs: list[tuple[int, int]] = []  # (pattern value, host value) chosen so far

    def fits(pv: int, hv: int) -> bool:
        for qv, gv in pairs:
            if (pv < qv) != (hv < gv):
                return False
        return True

    def place(bi: int, start: int, taken: list[int]) -> Iterator[tuple[int, ...]]:
        if bi == len(blocks):
            yield tuple(taken)
            return
        block = blocks[bi]
        width = len(block)
        # leave room for the remaining blocks
        room = sum(len(b) for b in blocks[bi + 1 :])
        for s in range(start, m - width - room + 1):
            ok = True
            added = 0
            for t, pv in enumerate(block):
                hv = word[s + t]
                if not fits(pv, hv):
                    ok = False
                    break
                pairs.append((pv, hv))
                added += 1
            if ok:
                taken.extend(range(s, s + width))
                yield from place(bi + 1, s + width, taken)
                del taken[-width:]
            del pairs[len(pairs) - added :]

    yield from place(0, 0, [])


def occurrences_linear(perm: LinearPerm, pattern: Pattern) -> list[tuple[int, ...]]:
    """All occurrence index tuples (1-based), in lexicographic order."""
    if pattern.kind != LINEAR:
        raise ValueError("occurrences_linear requires a linear pattern")
    return [
        tuple(i + 1 for i in occ)
        for occ in _occurrences_word(perm.values, pattern.values, pattern.bonds)
    ]


def contains_linear(perm: LinearPerm, pattern: Pattern) -> bool:
    if pattern.kind != LINEAR:
        raise ValueError("contains_linear requires a linear pattern")
    return (
        next(_occurrences_word(perm.values, pattern.values, pattern.bonds), None)
        is not None
    )


def _contains_cyclic_rep(
    cperm: CyclicPerm, values: tuple[int, ...], bonds: frozenset[int]
) -> bool:
    """Match one linear representative against every rotation of the host."""
    word = cperm.canonical.values
    n = len(word)
    if n < len(values):
        return False
    for s in range(n):
        rot = word[s:] + word[:s]
        if next(_occurrences_word(rot, values, bonds), None) is not None:
            return True
    return False


def contains_cyclic(cperm: CyclicPerm, pattern: Pattern) -> bool:
    if pattern.kind != CYCLIC:
        raise ValueError("contains_cyclic requires a cyclic pattern")
    word = cperm.canonical.values
    n = len(word)
    k = pattern.k
    if n < k:
        return False
    if pattern.totally_vincular:
        doubled = word + word[: k - 1]
        target = pattern.values
        for i in range(n):
            if reduce_window(doubled[i : i + k]) == target:
                return True
        return False
    return _contains_cyclic_rep(cperm, pattern.values, pattern.bonds)


def avoids_set(cperm: CyclicPerm, pset: PatternSet) -> bool:
    """True iff the cyclic permutation contains no pattern of the set."""
    if pset.patterns and pset.kind != CYCLIC:
        raise ValueError("avoids_set requires cyclic patterns")
    word = cperm.canonical.values
    n = len(word)
    totally = [p for p in pset.patterns if p.totally_vincular and p.k <= n]
    general = [p for p in pset.patterns if not p.totally_vincular]
    if totally:
        forbidden = {p.values for p in totally}
        k = totally[0].k
        doubled = word + word[: k - 1]
        for i in range(n):
            if reduce_window(doubled[i : i + k]) in forbidden:
                return False
    for p in general:
        if contains_cyclic(cperm, p):
            return False
    return True

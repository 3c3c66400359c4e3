"""Vincular patterns (linear and cyclic): parsing, canonical forms, symmetries.

A pattern is a permutation of [k] plus a set of bond slots. Linear slot j
bonds positions j and j+1. Cyclic slots live on Z_k, slot k being the wrap
pair (k, 1); a cyclic pattern is stored in its canonical rotation: among the
rotations whose bond set avoids the wrap slot, the one with lexicographically
smallest value sequence. At most k-1 cyclic bonds are allowed, so a wrap-free
rotation always exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import permutations
from typing import Iterator

LINEAR = "linear"
CYCLIC = "cyclic"


class PatternSyntaxError(ValueError):
    """Raised on malformed pattern text; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


@dataclass(frozen=True)
class Pattern:
    values: tuple[int, ...]
    bonds: frozenset[int]
    kind: str = CYCLIC

    def __post_init__(self) -> None:
        vals = tuple(self.values)
        bonds = frozenset(self.bonds)
        k = len(vals)
        if self.kind not in (LINEAR, CYCLIC):
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        if sorted(vals) != list(range(1, k + 1)):
            raise ValueError(f"values {vals} are not a permutation of 1..{k}")
        if self.kind == LINEAR:
            if not all(1 <= s <= k - 1 for s in bonds):
                raise ValueError(f"linear bond slots {sorted(bonds)} outside 1..{k - 1}")
        else:
            if not all(1 <= s <= k for s in bonds):
                raise ValueError(f"cyclic bond slots {sorted(bonds)} outside 1..{k}")
            if len(bonds) > k - 1:
                raise ValueError("a cyclic pattern cannot bond all k adjacencies")
            vals, bonds = _canonical_rotation(vals, bonds)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "bonds", bonds)

    @property
    def k(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    @property
    def totally_vincular(self) -> bool:
        return len(self.bonds) == len(self.values) - 1

    def __str__(self) -> str:
        body = _format_body(self.values, self.bonds)
        return f"[{body}]" if self.kind == CYCLIC else body

    def pretty(self) -> str:
        """Grouped rendering, e.g. "(13)42" for the bonded pair 1,3 before 4,2."""
        parts = []
        for block in self.blocks():
            txt = "".join(str(v) for v in block) if self.k <= 9 else ",".join(str(v) for v in block)
            parts.append(f"({txt})" if len(block) > 1 else txt)
        sep = "" if self.k <= 9 else ","
        body = sep.join(parts)
        return f"[{body}]" if self.kind == CYCLIC else body

    def blocks(self) -> list[tuple[int, ...]]:
        """Maximal bonded runs of the (canonical) value sequence, in order."""
        return bond_blocks(self.values, self.bonds)

    def reverse(self) -> "Pattern":
        k = self.k
        vals = self.values[::-1]
        if self.kind == LINEAR:
            bonds = frozenset(k - s for s in self.bonds)
        else:
            bonds = frozenset(k if s == k else k - s for s in self.bonds)
        return Pattern(vals, bonds, self.kind)

    def complement(self) -> "Pattern":
        k = self.k
        return Pattern(tuple(k + 1 - v for v in self.values), self.bonds, self.kind)

    def reverse_complement(self) -> "Pattern":
        return self.reverse().complement()

    def without_bond(self, slot: int) -> "Pattern":
        if slot not in self.bonds:
            raise ValueError(f"slot {slot} is not bonded")
        return Pattern(self.values, self.bonds - {slot}, self.kind)

    def wrap_free_reps(self) -> list[tuple[tuple[int, ...], frozenset[int]]]:
        """All linear (values, bonds) representatives of this pattern.

        For a linear pattern there is exactly one. For a cyclic pattern,
        one per rotation whose bond set avoids the wrap slot; matching any
        single representative against all rotations of the host is
        equivalent to matching any other.
        """
        if self.kind == LINEAR:
            return [(self.values, self.bonds)]
        return _wrap_free_rotations(self.values, self.bonds)


def bond_blocks(vals: tuple[int, ...], bonds: frozenset[int]) -> list[tuple[int, ...]]:
    """Split a value sequence into its maximal runs joined by linear bond slots."""
    cuts = [0] + [j for j in range(1, len(vals)) if j not in bonds] + [len(vals)]
    return [tuple(vals[a:b]) for a, b in zip(cuts, cuts[1:])]


def _wrap_free_rotations(
    vals: tuple[int, ...], bonds: frozenset[int]
) -> list[tuple[tuple[int, ...], frozenset[int]]]:
    k = len(vals)
    out = []
    for t in range(k):
        shifted = frozenset((s - 1 - t) % k + 1 for s in bonds)
        if k not in shifted:
            out.append((vals[t:] + vals[:t], shifted))
    return out


def _canonical_rotation(
    vals: tuple[int, ...], bonds: frozenset[int]
) -> tuple[tuple[int, ...], frozenset[int]]:
    return min(_wrap_free_rotations(vals, bonds), key=lambda r: r[0])


def _format_body(vals: tuple[int, ...], bonds: frozenset[int]) -> str:
    parts = [str(vals[0])]
    for j in range(1, len(vals)):
        parts.append("~" if j in bonds else ",")
        parts.append(str(vals[j]))
    return "".join(parts)


@cache
def parse_pattern(text: str) -> Pattern:
    """Parse a pattern from its textual form.

    Grammar: comma-separated positive integers, '~' in place of a comma
    bonds the two neighbouring values, '[...]' wraps a cyclic pattern.
    Whitespace is insignificant. Examples: "2~1,3", "[1~3,4,2]".
    Each text is parsed once: a Pattern is immutable, so later calls return
    the same object; malformed text raises on every call.
    """
    raw = text
    stripped = "".join(text.split())
    kind = LINEAR
    offset = 0
    if stripped.startswith("["):
        if not stripped.endswith("]"):
            raise PatternSyntaxError(f"unclosed '[' in {raw!r}", 0)
        kind = CYCLIC
        stripped = stripped[1:-1]
        offset = 1
    elif stripped.endswith("]"):
        raise PatternSyntaxError(f"']' without '[' in {raw!r}", len(stripped) - 1)
    if not stripped:
        raise PatternSyntaxError(f"empty pattern in {raw!r}", offset)

    values: list[int] = []
    bonds: set[int] = set()
    i = 0
    while i < len(stripped):
        j = i
        while j < len(stripped) and stripped[j].isdigit():
            j += 1
        if j == i:
            raise PatternSyntaxError(
                f"expected a value, found {stripped[i]!r} in {raw!r}", i + offset
            )
        values.append(int(stripped[i:j]))
        i = j
        if i < len(stripped):
            if stripped[i] not in ",~":
                raise PatternSyntaxError(
                    f"expected ',' or '~', found {stripped[i]!r} in {raw!r}", i + offset
                )
            if stripped[i] == "~":
                bonds.add(len(values))
            i += 1
            if i == len(stripped):
                raise PatternSyntaxError(f"trailing separator in {raw!r}", i - 1 + offset)

    k = len(values)
    seen: set[int] = set()
    for pos, v in enumerate(values):
        if v in seen:
            raise PatternSyntaxError(f"duplicate value {v} in {raw!r}", pos + offset)
        seen.add(v)
        if not 1 <= v <= k:
            raise PatternSyntaxError(f"value {v} outside 1..{k} in {raw!r}", pos + offset)
    return Pattern(tuple(values), frozenset(bonds), kind)


@dataclass(frozen=True)
class PatternSet:
    """A finite set of patterns of one kind and one length."""

    patterns: frozenset[Pattern] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        pats = frozenset(self.patterns)
        object.__setattr__(self, "patterns", pats)
        kinds = {p.kind for p in pats}
        lengths = {p.k for p in pats}
        if len(kinds) > 1 or len(lengths) > 1:
            raise ValueError("all patterns in a set must share kind and length")

    @classmethod
    def from_texts(cls, *texts: str) -> "PatternSet":
        return cls(frozenset(parse_pattern(t) for t in texts))

    @property
    def kind(self) -> str | None:
        return next(iter(self.patterns)).kind if self.patterns else None

    @property
    def k(self) -> int | None:
        return next(iter(self.patterns)).k if self.patterns else None

    def __iter__(self) -> Iterator[Pattern]:
        return iter(sorted(self.patterns, key=lambda p: (p.values, sorted(p.bonds))))

    def __len__(self) -> int:
        return len(self.patterns)

    def __str__(self) -> str:
        return " ".join(str(p) for p in self)

    def texts(self) -> list[str]:
        return [str(p) for p in self]

    def reverse(self) -> "PatternSet":
        return PatternSet(frozenset(p.reverse() for p in self.patterns))

    def complement(self) -> "PatternSet":
        return PatternSet(frozenset(p.complement() for p in self.patterns))

    def reverse_complement(self) -> "PatternSet":
        return PatternSet(frozenset(p.reverse_complement() for p in self.patterns))

    def union(self, other: "PatternSet") -> "PatternSet":
        return PatternSet(self.patterns | other.patterns)

    def difference(self, other: "PatternSet") -> "PatternSet":
        return PatternSet(self.patterns - other.patterns)


def trivial_wilf_orbit(s: PatternSet) -> frozenset[PatternSet]:
    """Orbit of a pattern set under reverse/complement symmetry; size divides 4."""
    return frozenset({s, s.reverse(), s.complement(), s.reverse().complement()})


def all_totally_vincular(k: int, kind: str = CYCLIC) -> PatternSet:
    """The k! patterns of length k with every adjacency bonded."""
    if k < 1:
        raise ValueError("k must be >= 1")
    bonds = frozenset(range(1, k))
    return PatternSet(frozenset(Pattern(p, bonds, kind) for p in permutations(range(1, k + 1))))

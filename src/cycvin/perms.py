"""Permutations in one-line notation and their rotation (cyclic) classes.

Positions and values are 1-based everywhere in this package's contracts;
internally values are stored in plain 0-indexed tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


@dataclass(frozen=True)
class LinearPerm:
    """A permutation of [n] written in one-line notation."""

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        vals = tuple(self.values)
        object.__setattr__(self, "values", vals)
        n = len(vals)
        if n < 1:
            raise ValueError("permutation must have length >= 1")
        seen = set()
        for v in vals:
            if v in seen:
                raise ValueError(f"duplicate element {v}")
            seen.add(v)
        for v in vals:
            if not 1 <= v <= n:
                raise ValueError(f"value {v} outside 1..{n}")

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __str__(self) -> str:
        return ",".join(str(v) for v in self.values)

    @classmethod
    def from_text(cls, text: str) -> "LinearPerm":
        parts = [p.strip() for p in text.strip().split(",")]
        try:
            return cls(tuple(int(p) for p in parts))
        except ValueError as exc:
            raise ValueError(f"bad permutation text {text!r}: {exc}") from exc

    def rotations(self) -> list["LinearPerm"]:
        """All n rotations, starting with this permutation itself."""
        v = self.values
        return [LinearPerm(v[k:] + v[:k]) for k in range(len(v))]

    def reverse(self) -> "LinearPerm":
        return LinearPerm(self.values[::-1])

    def complement(self) -> "LinearPerm":
        n = len(self.values)
        return LinearPerm(tuple(n + 1 - v for v in self.values))

    def reverse_complement(self) -> "LinearPerm":
        return self.reverse().complement()

    def zeil(self) -> int:
        """Largest m such that n, n-1, ..., n-m+1 is a subsequence."""
        return zeil_word(self.values)

    def zeil_reverse(self) -> int:
        """Largest m such that n-m+1, ..., n-1, n is a subsequence."""
        return zeil_word(self.values[::-1])


@dataclass(frozen=True)
class CyclicPerm:
    """A rotation class of a linear permutation, stored with value 1 first."""

    canonical: LinearPerm

    def __post_init__(self) -> None:
        if self.canonical.values[0] != 1:
            raise ValueError("canonical rotation must start with value 1")

    @property
    def n(self) -> int:
        return self.canonical.n

    def __len__(self) -> int:
        return self.canonical.n

    def __str__(self) -> str:
        return f"[{self.canonical}]"

    @classmethod
    def from_text(cls, text: str) -> "CyclicPerm":
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError(f"cyclic permutation text must be bracketed: {text!r}")
        return canonicalize(LinearPerm.from_text(text[1:-1]))

    def rotations(self) -> list[LinearPerm]:
        return self.canonical.rotations()

    def reverse(self) -> "CyclicPerm":
        return canonicalize(self.canonical.reverse())

    def complement(self) -> "CyclicPerm":
        return canonicalize(self.canonical.complement())

    def reverse_complement(self) -> "CyclicPerm":
        return canonicalize(self.canonical.reverse_complement())

    def zeil(self) -> int:
        """Max over rotations of the linear statistic.

        The optimal rotation starts at the maximum value: any chain
        n, n-1, ... readable in some rotation is readable there too.
        """
        v = self.canonical.values
        p = v.index(len(v))
        return zeil_word(v[p:] + v[:p])

    def zeil_reverse(self) -> int:
        return self.reverse().zeil()


def zeil_word(vals: Sequence[int]) -> int:
    """Largest m such that n, n-1, ..., n-m+1 is a subsequence of the word."""
    n = len(vals)
    pos = [0] * (n + 1)
    for i, v in enumerate(vals):
        pos[v] = i
    m = 1
    while n - m >= 1 and pos[n - m] > pos[n - m + 1]:
        m += 1
    return m


def reduce(seq: Iterable[int]) -> LinearPerm:
    """Map a sequence of distinct integers onto [n] preserving relative order."""
    vals = tuple(seq)
    seen = set()
    for v in vals:
        if v in seen:
            raise ValueError(f"duplicate element {v}")
        seen.add(v)
    rank = {v: i + 1 for i, v in enumerate(sorted(vals))}
    return LinearPerm(tuple(rank[v] for v in vals))


def reduce_window(vals: Sequence[int]) -> tuple[int, ...]:
    """Reduction of a short window of distinct values, as a raw tuple."""
    order = sorted(vals)
    return tuple([order.index(v) + 1 for v in vals])


def canonicalize(p: LinearPerm) -> CyclicPerm:
    """The unique rotation of p with value 1 first."""
    v = p.values
    i = v.index(1)
    return CyclicPerm(LinearPerm(v[i:] + v[:i]))


def all_cyclic_perms(n: int) -> list[CyclicPerm]:
    """All (n-1)! cyclic permutations of length n, in lexicographic canonical order."""
    from itertools import permutations

    out = []
    for rest in permutations(range(2, n + 1)):
        out.append(CyclicPerm(LinearPerm((1,) + rest)))
    return out

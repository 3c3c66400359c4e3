"""Closed forms, recurrences, and series engines for the enumerated classes.

Everything is exact integer arithmetic except the truncated infinite-series
evaluator, which is explicitly a float approximation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(2 * n, n) // (n + 1)


def catalan_triangle(n: int, k: int) -> int:
    """Ballot-number entry T(n, k) = (n-k+1)/(n+1) * C(n+k, n), with T(n, n+1) = 0.

    Row sums give C_{n+1}; each entry is the partial row-sum of the row above.
    """
    if n < 0 or not 0 <= k <= n + 1:
        raise ValueError(f"need 0 <= k <= n+1, got n={n}, k={k}")
    if k == 0:
        return 1
    return math.comb(n + k, k) - math.comb(n + k, k - 1)


@lru_cache(maxsize=None)
def updown(n: int) -> int:
    """Number of up-down permutations of [n] (Euler zigzag numbers).

    Computed by the Seidel-Entringer boustrophedon recurrence.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    row = [1]
    for i in range(1, n + 1):
        prev = row
        row = [0] * (i + 1)
        for k in range(1, i + 1):
            row[k] = row[k - 1] + prev[i - k]
    return row[n]


def av_bond12_34(n: int) -> int:
    """Closed form for |Av_n| of the cyclic pattern [1~2,3,4] (equally [1~2,4,3]).

    1 + sum_{i=0}^{n-2} i*(i+1)^(n-i-2); each term counts the placements of
    the values below the increasing run of the i+1 largest elements.
    """
    if n < 2:
        raise ValueError("defined for n >= 2")
    return 1 + sum(i * (i + 1) ** (n - i - 2) for i in range(n - 1))


def dyck_uudd(n: int) -> int:
    """Catalan-like sequence 2, 1, 1, 2, 5, 13, ...: D_n = sum D_k D_{n-k}, k=1..n-3.

    For n > 1 it counts Dyck paths of semilength n-1 with no UUDD factor;
    |Av_n| of the cyclic pattern [1~3,4,2] equals the (n+1)st term.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    d = [0, 2, 1, 1]
    for m in range(4, n + 1):
        d.append(sum(d[k] * d[m - k] for k in range(1, m - 2)))
    return d[n]


def dyck_uudd_explicit(n: int) -> int:
    """Independent alternating-binomial form of dyck_uudd, valid for n >= 2."""
    if n < 2:
        raise ValueError("explicit sum defined for n >= 2")
    m = n - 1
    total = Fraction(0)
    for j in range(m // 2 + 1):
        total += (
            Fraction((-1) ** j, m - j)
            * math.comb(m - j, j)
            * math.comb(2 * m - 3 * j, m - j - 1)
        )
    if total.denominator != 1:
        raise ArithmeticError(f"non-integer sum for n={n}")
    return int(total)


_STRONGLY_MONOTONE_BUDGET = 13


@lru_cache(maxsize=None)
def strongly_monotone(n: int) -> int:
    """Number of set partitions of [n] whose blocks, ordered by minimum,
    also have increasing maxima. Definitional brute force over all partitions.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > _STRONGLY_MONOTONE_BUDGET:
        raise ValueError(f"brute-force budget is n <= {_STRONGLY_MONOTONE_BUDGET}")
    if n <= 1:
        return 1
    # Insert 1..n in order; blocks stay sorted by their minima, and each
    # block's maximum is the element inserted into it most recently.
    count = 0
    maxima: list[int] = [1]

    def place(x: int) -> None:
        nonlocal count
        if x > n:
            if all(maxima[i] < maxima[i + 1] for i in range(len(maxima) - 1)):
                count += 1
            return
        for i in range(len(maxima)):
            saved = maxima[i]
            maxima[i] = x
            place(x + 1)
            maxima[i] = saved
        maxima.append(x)
        place(x + 1)
        maxima.pop()

    place(2)
    return count


def av_bond23_14(n: int) -> int:
    """Closed form for |Av_n| of the cyclic pattern [2~3,1,4]:
    sum_{i=0}^{n-2} C(n-2, i) * strongly_monotone(i).
    """
    if n < 2:
        raise ValueError("defined for n >= 2")
    return sum(math.comb(n - 2, i) * strongly_monotone(i) for i in range(n - 1))


def av_consec_123(n: int) -> int:
    """|Av_n| of the totally vincular cyclic pattern [1~2~3].

    Coefficients of the exponential generating function E with a_m = |Av_{m+1}|,
    which satisfies E' = E^2 - E + 1:
        a_{m+1} = sum_j C(m, j) a_j a_{m-j} - a_m + [m = 0].
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = [1]
    for m in range(n - 1):
        sq = sum(math.comb(m, j) * a[j] * a[m - j] for j in range(m + 1))
        a.append(sq - a[m] + (1 if m == 0 else 0))
    return a[n - 1]


def av_consec_123_closed_form(n: int, terms: int = 50) -> float:
    """Truncated closed form (n-1)! * sum_k (sqrt(3) / (2*pi*(k+1/3)))^n.

    Float approximation over -terms <= k <= terms; for terms >= 50 and n >= 3
    it rounds to av_consec_123(n).
    """
    if n < 2 or terms < 1:
        raise ValueError("need n >= 2 and terms >= 1")
    base = math.sqrt(3.0) / (2.0 * math.pi)
    total = 0.0
    for k in range(-terms, terms + 1):
        total += (base / (k + 1.0 / 3.0)) ** n
    return math.factorial(n - 1) * total


def av_consec_132(n: int) -> int:
    """|Av_n| of the totally vincular cyclic pattern [1~3~2].

    Solves E' = exp(E - z^2/2) as a formal power series in exact rationals,
    where E is the exponential generating function of the counts (no constant
    term, and the coefficient of z is |Av_1| = 1). The exponential is computed
    with the derivative convolution G' = F'G, which keeps everything rational.
    Returns n! * [z^n] E.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    e = [Fraction(0), Fraction(1)]  # ordinary coefficients of E
    g = [Fraction(1)]  # G = exp(E - z^2/2); exp(0) = 1

    def f_coeff(m: int) -> Fraction:
        c = e[m] if m < len(e) else Fraction(0)
        if m == 2:
            c -= Fraction(1, 2)
        return c

    while len(e) <= n:
        m = len(g) - 1
        # (m+1) g_{m+1} = sum_{j=0}^{m} (j+1) f_{j+1} g_{m-j}
        s = sum((j + 1) * f_coeff(j + 1) * g[m - j] for j in range(m + 1))
        g.append(s / (m + 1))
        t = len(e)
        e.append(g[t - 1] / t)  # E' = G, so t e_t = g_{t-1}
    val = e[n] * math.factorial(n)
    if val.denominator != 1:
        raise ArithmeticError(f"non-integer count for n={n}")
    return int(val)

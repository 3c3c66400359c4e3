from itertools import permutations

import pytest

from cycvin import formulas as F

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796, 58786]
UPDOWN = [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521]
DYCK_UUDD = [2, 1, 1, 2, 5, 13, 35, 97, 275, 794, 2327, 6905, 20705]
STRONGLY_MONOTONE = [1, 1, 2, 4, 9, 22, 58, 164, 496, 1601]
CONSEC_123 = [1, 1, 1, 3, 9, 39, 189, 1107, 7281, 54351]
CONSEC_132 = [1, 1, 1, 2, 7, 28, 131, 720, 4513, 31824]


def test_catalan():
    assert [F.catalan(n) for n in range(12)] == CATALAN
    assert F.catalan(5) == 42


def test_catalan_triangle_values():
    assert F.catalan_triangle(3, 2) == 5
    assert F.catalan_triangle(2, 3) == 0
    assert [F.catalan_triangle(4, k) for k in range(5)] == [1, 4, 9, 14, 14]


def test_catalan_triangle_row_sums():
    for n in range(31):
        assert sum(F.catalan_triangle(n, k) for k in range(n + 1)) == F.catalan(n + 1)


def test_catalan_triangle_partial_sum_recurrence():
    for n in range(1, 31):
        for k in range(n + 1):
            assert F.catalan_triangle(n, k) == sum(
                F.catalan_triangle(n - 1, j) for j in range(min(k, n) + 1)
            )


def test_catalan_triangle_domain():
    with pytest.raises(ValueError):
        F.catalan_triangle(3, 5)
    with pytest.raises(ValueError):
        F.catalan_triangle(3, -1)


def test_updown_values():
    assert [F.updown(n) for n in range(11)] == UPDOWN


def test_updown_brute_force():
    for n in range(1, 8):
        want = sum(
            1
            for p in permutations(range(1, n + 1))
            if all((p[i] < p[i + 1]) == (i % 2 == 0) for i in range(n - 1))
        )
        assert F.updown(n) == want


def test_bond12_34_values():
    assert F.av_bond12_34(2) == 1
    assert F.av_bond12_34(5) == 14
    assert F.av_bond12_34(8) == 523
    assert F.av_bond12_34(12) == 182905


def test_dyck_uudd_values():
    assert [F.dyck_uudd(n) for n in range(1, 14)] == DYCK_UUDD
    assert F.dyck_uudd(5) == 5 and F.dyck_uudd(6) == 13


def test_dyck_uudd_explicit_agrees():
    for n in range(2, 26):
        assert F.dyck_uudd(n) == F.dyck_uudd_explicit(n)
    with pytest.raises(ValueError):
        F.dyck_uudd_explicit(1)


def test_dyck_uudd_large_n():
    # computed bottom-up: no recursion depth grows with n
    assert F.dyck_uudd(1000) == F.dyck_uudd_explicit(1000)


def test_strongly_monotone_values():
    assert [F.strongly_monotone(n) for n in range(10)] == STRONGLY_MONOTONE


def test_strongly_monotone_brute_force():
    # independent oracle: build every partition explicitly and sort its blocks
    def partitions(seq):
        if not seq:
            yield []
            return
        first, rest = seq[0], seq[1:]
        for sub in partitions(rest):
            for i in range(len(sub)):
                yield sub[:i] + [[first] + sub[i]] + sub[i + 1 :]
            yield [[first]] + sub

    for n in range(9):
        want = 0
        for part in partitions(list(range(1, n + 1))):
            blocks = sorted(part, key=min)
            maxima = [max(b) for b in blocks]
            if all(maxima[i] < maxima[i + 1] for i in range(len(maxima) - 1)):
                want += 1
        assert F.strongly_monotone(n) == want


def test_strongly_monotone_budget():
    with pytest.raises(ValueError, match="budget"):
        F.strongly_monotone(14)


def test_bond23_14_values():
    assert F.av_bond23_14(2) == 1
    assert F.av_bond23_14(5) == 14
    assert F.av_bond23_14(10) == 5583


def test_consec_123_values():
    assert [F.av_consec_123(n) for n in range(1, 11)] == CONSEC_123


def test_consec_132_values():
    assert [F.av_consec_132(n) for n in range(1, 11)] == CONSEC_132


def test_consec_132_is_exact():
    # the series solver works in rationals; a drifting coefficient would raise
    assert isinstance(F.av_consec_132(20), int)


def test_closed_form_rounds_to_series():
    for n in range(3, 13):
        approx = F.av_consec_123_closed_form(n, 50)
        assert abs(approx - F.av_consec_123(n)) < 0.5
    assert round(F.av_consec_123_closed_form(3, 50)) == 1
    assert round(F.av_consec_123_closed_form(4, 50)) == 3


def test_closed_form_domain():
    with pytest.raises(ValueError):
        F.av_consec_123_closed_form(1, 50)
    with pytest.raises(ValueError):
        F.av_consec_123_closed_form(5, 0)


def test_domains():
    for fn in (F.av_bond12_34, F.av_bond23_14):
        with pytest.raises(ValueError):
            fn(1)
    for fn in (F.av_consec_123, F.av_consec_132, F.dyck_uudd):
        with pytest.raises(ValueError):
            fn(0)

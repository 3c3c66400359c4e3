"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s`. All comparisons are exact
except the closed-form rounding check, which requires absolute deviation
below 0.5. The tail rows of both tables (Table 1 to n = 13, Table 2 to
n = 12) run in every pass: both are counted by a memo, not leaf by leaf.
"""

import pytest

from cycvin import formulas
from cycvin.enumeration import count_avoiders, enumerate_avoiders
from cycvin.patterns import PatternSet
from cycvin.perms import CyclicPerm, LinearPerm, canonicalize
from cycvin.tables import expected_counts
from cycvin.verify import (
    verify_avoidability,
    verify_bijections,
    verify_pruning,
    verify_representative_independence,
    verify_symmetry,
)

N_MAX = 10

TABLE2_CLASSES = [
    "[1~2,3,4]", "[1~2,4,3]", "[1~3,2,4]", "[1~3,4,2]",
    "[1~4,2,3]", "[1~4,3,2]", "[2~3,1,4]", "[2~3,4,1]",
]
TABLE1_CLASSES = ["[1~2~3] [2~3~1]", "[1~3~2] [2~1~3]", "[1~3~2] [3~1~2]"]


@pytest.fixture(scope="module")
def table2_counts():
    out = {}
    for label in TABLE2_CLASSES:
        pset = PatternSet.from_texts(label)
        out[label] = {n: count_avoiders(pset, n) for n in range(1, N_MAX + 1)}
    return out


@pytest.fixture(scope="module")
def table1_counts():
    out = {}
    for label in TABLE1_CLASSES:
        pset = PatternSet.from_texts(*label.split())
        out[label] = {n: count_avoiders(pset, n) for n in range(1, N_MAX + 1)}
    return out


def test_criterion_1_table2_reproduction(table2_counts):
    expected = expected_counts(2)
    for label in TABLE2_CLASSES:
        for n in range(1, N_MAX + 1):
            assert table2_counts[label][n] == expected[label][n], (label, n)
    row9 = [table2_counts[l][9] for l in
            ("[1~2,3,4]", "[1~3,2,4]", "[1~3,4,2]", "[2~3,1,4]", "[2~3,4,1]")]
    assert row9 == [2048, 1430, 794, 1537, 2792]
    print("ACCEPTANCE 1: PASS - length-4 single-bond classes match the reference "
          f"table exactly for 1 <= n <= {N_MAX}")


def test_criterion_2_table1_reproduction(table1_counts):
    expected = expected_counts(1)
    for label in TABLE1_CLASSES:
        for n in range(1, N_MAX + 1):
            assert table1_counts[label][n] == expected[label][n], (label, n)
    assert [table1_counts[l][10] for l in TABLE1_CLASSES] == [9460, 7272, 2268]
    print("ACCEPTANCE 2: PASS - length-3 doubleton classes match the reference "
          f"table exactly for 1 <= n <= {N_MAX}")


def test_criterion_3_formula_enumeration_agreement(table2_counts):
    for n in range(2, N_MAX + 1):
        assert table2_counts["[1~2,3,4]"][n] == formulas.av_bond12_34(n)
        assert table2_counts["[1~2,4,3]"][n] == formulas.av_bond12_34(n)
        assert table2_counts["[2~3,1,4]"][n] == formulas.av_bond23_14(n)
    for n in range(1, N_MAX + 1):
        for label in ("[1~3,2,4]", "[1~4,2,3]", "[1~4,3,2]"):
            assert table2_counts[label][n] == formulas.catalan(n - 1)
        assert table2_counts["[1~3,4,2]"][n] == formulas.dyck_uudd(n + 1)
        assert count_avoiders(PatternSet.from_texts("[1~2~3]"), n) == formulas.av_consec_123(n)
        assert count_avoiders(PatternSet.from_texts("[1~3~2]"), n) == formulas.av_consec_132(n)
        alternating = count_avoiders(PatternSet.from_texts("[1~2~3]", "[3~2~1]"), n)
        if n <= 2:
            assert alternating == 1
        elif n % 2:
            assert alternating == 0
        else:
            assert alternating == formulas.updown(n - 1)
    print("ACCEPTANCE 3: PASS - every closed form/series agrees with enumeration "
          f"exactly for 1 <= n <= {N_MAX}")


def _delta(n):
    return canonicalize(LinearPerm(tuple(range(n, 0, -1))))


def _iota(n):
    return CyclicPerm(LinearPerm(tuple(range(1, n + 1))))


def test_criterion_4_degenerate_classes():
    for n in range(1, N_MAX + 1):
        assert count_avoiders(PatternSet.from_texts("[1~2]"), n) == (1 if n == 1 else 0)
    for text, unique in [
        ("[1~2,3]", _delta), ("[2~3,1]", _delta), ("[3~1,2]", _delta),
        ("[1~3,2]", _iota), ("[2~1,3]", _iota), ("[3~2,1]", _iota),
    ]:
        pset = PatternSet.from_texts(text)
        for n in range(1, N_MAX + 1):
            avoiders = list(enumerate_avoiders(pset, n))
            assert len(avoiders) == 1, (text, n)
            if n >= 3:
                assert avoiders[0] == unique(n), (text, n)
    doubletons = [
        ("[1~2~3]", "[1~3~2]"), ("[1~2~3]", "[2~1~3]"),
        ("[3~2~1]", "[2~3~1]"), ("[3~2~1]", "[3~1~2]"),
        ("[1~3~2]", "[2~3~1]"), ("[2~1~3]", "[3~1~2]"),
    ]
    for pair in doubletons:
        pset = PatternSet.from_texts(*pair)
        for n in range(1, N_MAX + 1):
            assert count_avoiders(pset, n) == (1 if n <= 2 else 0), (pair, n)
    print("ACCEPTANCE 4: PASS - ascent/descent pair, one-bond length-3 singletons "
          "(with forced unique avoider), and the six empty doubletons all check out")


def test_criterion_5_bijection_suites():
    failures = verify_bijections(n_max=9, orders_n_max=6)
    assert failures == []
    print("ACCEPTANCE 5: PASS - cyclic-order bijection inverts with matching counts "
          "(n <= 6) and both triangle refinements round-trip for n <= 9")


def test_criterion_6_avoidability_suite():
    assert verify_avoidability() == []
    print("ACCEPTANCE 6: PASS - anchored sets empty through k+4 (k <= 5), all "
          "witnesses verified (k <= 6, n <= 50), blow-ups verified (k <= 4, m <= 5), "
          "k=3 classification exact, maximum avoidable size 3!-3 confirmed at horizon 9")


def test_criterion_7_closed_form_rounding():
    for n in range(3, 13):
        approx = formulas.av_consec_123_closed_form(n, 50)
        exact = formulas.av_consec_123(n)
        assert abs(approx - exact) < 0.5, (n, approx, exact)
        assert round(approx) == exact
    print("ACCEPTANCE 7: PASS - truncated closed form rounds to the series "
          "count for 3 <= n <= 12 (deviation < 0.5)")


def test_criterion_8_property_suites():
    assert verify_symmetry(7) == []
    assert verify_pruning(8) == []
    assert verify_representative_independence(7) == []
    print("ACCEPTANCE 8: PASS - symmetry equivariance (n <= 7), pruning vs naive "
          "filter (n <= 8), and representative independence (n <= 7): zero counterexamples")


def test_table1_tail_rows():
    # totally vincular sets are counted by memoized window state, not leaf by leaf
    expected1 = expected_counts(1)
    for label in TABLE1_CLASSES:
        pset = PatternSet.from_texts(*label.split())
        for n in (11, 12, 13):
            assert count_avoiders(pset, n, jobs=2) == expected1[label][n], (label, n)
    print("TABLE 1 TAIL: PASS - rows n = 11..13 match the reference table")


def test_extended_table_rows():
    # single-bond classes are counted by the occurrence memo, not leaf by leaf
    expected2 = expected_counts(2)
    for label in TABLE2_CLASSES:
        pset = PatternSet.from_texts(label)
        for n in (11, 12):
            assert count_avoiders(pset, n, jobs=2) == expected2[label][n], (label, n)
    print("EXTENDED: PASS - Table 2 tail rows (n = 11, 12) match the reference table")

import json
import random
from itertools import combinations

import pytest

from cycvin.avoidability import (
    avoidable_up_to,
    blowup_witness,
    classify_minimal_unavoidable,
    find_avoider,
    max_avoidable_set,
    patterns_with_max_at,
    patterns_with_min_at,
    rotation_closure,
    rotation_closure_complement,
    witness_minus_one,
)
from cycvin.enumeration import BudgetExceededError, enumerate_avoiders
from cycvin.matcher import avoids_set
from cycvin.patterns import PatternSet, all_totally_vincular, parse_pattern
from cycvin.perms import LinearPerm


def test_min_at_sets():
    s = patterns_with_min_at(1, 3)
    assert sorted(str(p) for p in s) == ["[1~2~3]", "[1~3~2]"]
    assert len(patterns_with_min_at(2, 4)) == 6
    assert sorted(str(p) for p in patterns_with_max_at(1, 3)) == ["[3~1~2]", "[3~2~1]"]
    with pytest.raises(ValueError):
        patterns_with_min_at(4, 3)


def test_rotation_closure():
    rc = rotation_closure(LinearPerm((1, 2, 3)))
    assert sorted(str(p) for p in rc) == ["[1~2~3]", "[2~3~1]", "[3~1~2]"]
    assert len(rotation_closure(LinearPerm((1, 3, 4, 2)))) == 4


def test_max_avoidable_set():
    m3 = max_avoidable_set(3)
    assert sorted(str(p) for p in m3) == ["[1~3~2]", "[2~1~3]", "[3~2~1]"]
    assert len(max_avoidable_set(4)) == 20


def test_blowup_witness_values():
    w = blowup_witness(LinearPerm((1, 3, 4, 2)), 4)
    assert w.canonical.values == (1, 9, 13, 5, 2, 10, 14, 6, 3, 11, 15, 7, 4, 12, 16, 8)
    assert blowup_witness(LinearPerm((1, 2)), 3).canonical.values == (1, 4, 2, 5, 3, 6)
    assert blowup_witness(LinearPerm((1, 2, 3)), 1).canonical.values == (1, 2, 3)


def test_blowup_witness_avoids():
    for k in range(2, 5):
        from itertools import permutations

        for vals in permutations(range(1, k + 1)):
            pi = LinearPerm(vals)
            comp = rotation_closure_complement(pi)
            for m in range(1, 6):
                assert avoids_set(blowup_witness(pi, m), comp)
    pi = LinearPerm((1, 3, 4, 2))
    comp = rotation_closure_complement(pi)
    assert len(comp) == 20
    assert avoids_set(blowup_witness(pi, 6), comp)


def test_witness_minus_one_case1():
    exc = parse_pattern("[1~2~3]")
    w = witness_minus_one(1, 3, exc, 6)
    assert len(w) == 6
    rest = patterns_with_min_at(1, 3).difference(PatternSet(frozenset({exc})))
    assert avoids_set(w, rest)
    # forced shape: 1, then the rest of the excluded pattern on top, then a descent
    assert w.canonical.values == (1, 5, 6, 4, 3, 2)


def test_witness_minus_one_grid():
    for k in range(1, 6):
        for i in range(1, k + 1):
            base = patterns_with_min_at(i, k)
            for exc in base:
                rest = base.difference(PatternSet(frozenset({exc})))
                for n in (k, k + 1, k + 4, 17):
                    w = witness_minus_one(i, k, exc, n)
                    assert len(w) == n
                    assert avoids_set(w, rest)


def test_witness_minus_one_validation():
    with pytest.raises(ValueError, match="position"):
        witness_minus_one(2, 3, parse_pattern("[1~2~3]"), 6)
    with pytest.raises(ValueError, match="n >= k"):
        witness_minus_one(1, 3, parse_pattern("[1~2~3]"), 2)
    with pytest.raises(ValueError):
        witness_minus_one(1, 3, parse_pattern("[1,2,3]"), 6)  # not totally vincular


def test_min_at_sets_are_horizon_empty():
    for k in range(1, 6):
        for i in range(1, k + 1):
            s = patterns_with_min_at(i, k)
            for n in range(k, k + 5):
                assert find_avoider(s, n) is None


def test_find_avoider_budget_error():
    with pytest.raises(BudgetExceededError) as info:
        find_avoider(patterns_with_min_at(1, 3), 9, budget=10)
    assert info.value.nodes == 11


def test_find_avoider_requires_totally_vincular():
    with pytest.raises(ValueError, match="totally vincular"):
        find_avoider(PatternSet.from_texts("[1~2,3]"), 5)


def test_avoidable_up_to_reports():
    rep = avoidable_up_to(patterns_with_min_at(1, 3), 10)
    assert rep.horizon_unavoidable
    assert rep.empty_suffix_start == 3
    assert not any(rep.nonempty.values())

    rep = avoidable_up_to(PatternSet.from_texts("[1~2~3]"), 10)
    assert not rep.horizon_unavoidable
    assert all(rep.nonempty.values())
    assert rep.witnesses[10].startswith("[1,")

    rep = avoidable_up_to(max_avoidable_set(3), 12)
    assert all(rep.nonempty.values())

    # the alternating pair is empty at odd lengths but revives at even ones,
    # so a single empty length at an odd horizon is no empty suffix
    for horizon in (9, 10):
        rep = avoidable_up_to(PatternSet.from_texts("[1~2~3]", "[3~2~1]"), horizon)
        assert rep.nonempty == {n: n % 2 == 0 for n in range(3, horizon + 1)}
        assert rep.empty_suffix_start is None
        assert not rep.horizon_unavoidable

    with pytest.raises(ValueError, match="horizon"):
        avoidable_up_to(patterns_with_min_at(1, 3), 2)


def test_report_json_is_horizon_labeled():
    rep = avoidable_up_to(patterns_with_min_at(1, 3), 8)
    data = json.loads(rep.to_json())
    assert data["horizon_relative"] is True
    assert data["empty_suffix_start"] == 3
    assert data["k"] == 3 and data["horizon"] == 8


def test_classification_k3():
    # the odd horizons must not add the alternating pair, which is empty only
    # at odd lengths; the whole report is pinned, horizon 11 included
    expected = sorted(
        sorted(str(p) for p in s)
        for s in [patterns_with_min_at(i, 3) for i in (1, 2, 3)]
        + [patterns_with_max_at(i, 3) for i in (1, 2, 3)]
    )
    for horizon in (8, 9, 10, 11):
        cls = classify_minimal_unavoidable(3, horizon)
        assert json.loads(cls.to_json()) == {
            "k": 3, "horizon": horizon, "minimal_sets": expected, "smallest_size": 2,
            "min_size_conjecture_consistent": True, "complete": True,
            "subsets_checked": 23, "horizon_relative": True,
        }


def _leaf_walk_first(s, n):
    # the first leaf of the memo-free walk that enumerate_avoiders reads
    return next(enumerate_avoiders(s, n), None)


def test_find_avoider_matches_the_leaf_walk_on_every_k3_set():
    pats = sorted(all_totally_vincular(3), key=lambda p: p.values)
    for size in range(1, len(pats) + 1):
        for combo in combinations(pats, size):
            s = PatternSet(frozenset(combo))
            for n in range(3, 11):
                assert find_avoider(s, n) == _leaf_walk_first(s, n), (s.texts(), n)


def test_find_avoider_matches_the_leaf_walk_on_sampled_k4_sets():
    # the query sizes of the benchmark's find_avoider queries: about 60% of
    # these sets have an avoider at n = 8
    pats = sorted(all_totally_vincular(4), key=lambda p: p.values)
    rng = random.Random(9)
    for q in range(300):
        s = PatternSet(frozenset(rng.sample(pats, 6 + q % 13)))
        for n in (8, 9):
            assert find_avoider(s, n) == _leaf_walk_first(s, n), (s.texts(), n)


def test_classification_needs_horizon_at_least_k():
    # below k every length is trivially non-empty, which is no evidence
    with pytest.raises(ValueError, match="horizon"):
        classify_minimal_unavoidable(3, 2)


@pytest.mark.parametrize("k", [3, 4])
def test_classification_needs_horizon_above_k(k):
    # a set also needs Av_{horizon-1} empty, and at horizon k that class holds
    # every permutation
    with pytest.raises(ValueError, match="horizon"):
        classify_minimal_unavoidable(k, k)


def test_classification_bounded_scan_is_marked_incomplete():
    cls = classify_minimal_unavoidable(4, 6, max_subsets=200)
    assert not cls.complete
    assert cls.subsets_checked == 200


def test_size_above_three_unavoidable_at_k3():
    pats = list(all_totally_vincular(3))
    for size in (4, 5, 6):
        for combo in combinations(pats, size):
            assert find_avoider(PatternSet(frozenset(combo)), 9) is None
    assert find_avoider(max_avoidable_set(3), 9) is not None

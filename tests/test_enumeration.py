import itertools
import json
import math
import random
from collections import Counter

import pytest

from cycvin.enumeration import (
    STATS,
    BudgetExceededError,
    _by_state,
    _Search,
    count_avoiders,
    count_avoiders_naive,
    count_range,
    count_refined,
    enumerate_avoiders,
    first_avoider,
    predecessor_of_n,
)
from cycvin.avoidability import find_avoider, patterns_with_min_at
from cycvin.formulas import (
    av_bond12_34,
    av_consec_123,
    av_consec_132,
    catalan,
    catalan_triangle,
    updown,
)
from cycvin.matcher import _contains_cyclic_rep, avoids_set
from cycvin.occurrence import (_anchored, count_by_occurrence, occurrence_leaves,
                               occurrence_steps, refine_by_occurrence)
from cycvin.patterns import (
    Pattern,
    PatternSet,
    all_totally_vincular,
    parse_pattern,
    trivial_wilf_orbit,
)
from cycvin.perms import CyclicPerm, all_cyclic_perms, reduce_window
from cycvin.verify import verify_pruning, verify_wilf_orbits


def test_count_known_values():
    assert count_avoiders(PatternSet.from_texts("[1~3,2,4]"), 8) == 429
    assert count_avoiders(PatternSet.from_texts("[1~2~3]", "[2~3~1]"), 9) == 1524
    assert count_avoiders(PatternSet.from_texts("[1~2]"), 5) == 0


def test_count_small_n_equals_all():
    # patterns longer than the host cannot occur
    s = PatternSet.from_texts("[1~3,2,4]")
    for n in range(1, 4):
        assert count_avoiders(s, n) == math.factorial(n - 1)


def test_enumerate_matches_count_and_order():
    s = PatternSet.from_texts("[1~4,2,3]")
    for n in range(1, 8):
        avs = list(enumerate_avoiders(s, n))
        assert len(avs) == count_avoiders(s, n)
        keys = [c.canonical.values for c in avs]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_enumerate_unique_avoider():
    avs = list(enumerate_avoiders(PatternSet.from_texts("[1~2,3]"), 5))
    assert [str(c) for c in avs] == ["[1,5,4,3,2]"]


def test_enumerate_empty_set_yields_everything():
    avs = list(enumerate_avoiders(PatternSet(frozenset()), 4))
    assert len(avs) == 6


def test_enumerate_ascent_descent_doubleton_is_empty():
    assert list(enumerate_avoiders(PatternSet.from_texts("[1~2]", "[2~1]"), 3)) == []


def test_oracle_agreement():
    for texts in (("[1~2,3,4]",), ("[2~3,4,1]",), ("[1~2~3]",), ("[1~3~2]", "[2~1~3]")):
        s = PatternSet.from_texts(*texts)
        for n in range(1, 8):
            assert count_avoiders(s, n) == count_avoiders_naive(s, n)


def test_pruning_suite():
    assert verify_pruning(7) == []


def test_wilf_orbit_counts_agree():
    assert verify_wilf_orbits(8) == []


def test_refined_counts_example():
    refined = count_refined(PatternSet.from_texts("[1~4,2,3]"), 5, "predecessor_of_n")
    assert refined == {1: 1, 2: 3, 3: 5, 4: 5}
    assert sum(refined.values()) == count_avoiders(PatternSet.from_texts("[1~4,2,3]"), 5)


def test_refined_zeil_reverse_sums_to_catalan():
    refined = count_refined(PatternSet.from_texts("[1~4,3,2]"), 5, "zeil_reverse")
    assert sum(refined.values()) == catalan(4) == 14


def test_refined_unknown_stat():
    with pytest.raises(ValueError, match="unknown statistic"):
        count_refined(PatternSet.from_texts("[1~4,3,2]"), 5, "descents")


def test_predecessor_of_n():
    assert predecessor_of_n(CyclicPerm.from_text("[1,3,6,2,5,4]")) == 3
    assert predecessor_of_n(CyclicPerm.from_text("[1,2]")) == 1


def test_budget_exceeded():
    s = PatternSet.from_texts("[1~3,2,4]")
    with pytest.raises(BudgetExceededError) as info:
        count_avoiders(s, 9, budget=50)
    assert info.value.nodes > 50


def test_budget_partial_table():
    # the occurrence memo counts n = 8 in 291 nodes and n = 9 in 594
    s = PatternSet.from_texts("[1~3,2,4]")
    with pytest.raises(BudgetExceededError) as info:
        count_range(s, 1, 9, budget=300)
    err = info.value
    assert err.partial is not None
    assert err.n_reached == err.partial.n_max == 8
    for n in range(1, err.n_reached + 1):
        assert err.partial.counts[n] == catalan(n - 1)


def test_jobs_do_not_change_counts():
    s = PatternSet.from_texts("[2~3,4,1]")
    assert count_avoiders(s, 7, jobs=1) == count_avoiders(s, 7, jobs=2) == 180
    for text, stat in (("[1~4,2,3]", "predecessor_of_n"), ("[1~4,3,2]", "zeil_reverse")):
        s = PatternSet.from_texts(text)
        one = count_refined(s, 7, stat, jobs=1)
        two = count_refined(s, 7, stat, jobs=2)
        assert one == two and list(one.items()) == list(two.items())
        assert list(one) == sorted(one) and sum(one.values()) == catalan(6)


def test_count_table_shapes():
    s = PatternSet.from_texts("[1~3,2,4]")
    table = count_range(s, 1, 6)
    assert table.patterns == ("[1~3,2,4]",)
    for n in range(1, 7):
        assert table.counts[n] <= math.factorial(n - 1)
    csv_text = table.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == "n,count,elapsed_ms"
    assert [int(line.split(",")[1]) for line in lines[1:]] == [1, 1, 2, 5, 14, 42]

    rows = json.loads(table.to_json())
    assert [row["n"] for row in rows] == list(range(1, 7))
    assert rows[5]["count"] == "42"
    assert rows[0]["patterns"] == ["[1~3,2,4]"]


def test_count_table_refinement_partitions_count():
    s = PatternSet.from_texts("[1~4,2,3]")
    table = count_range(s, 4, 7, stat="predecessor_of_n")
    name, per_n = table.refinement
    assert name == "predecessor_of_n"
    for n in range(4, 8):
        assert sum(per_n[n].values()) == table.counts[n]
    rows = json.loads(table.to_json())
    assert rows[0]["refinement"]["stat"] == "predecessor_of_n"


def test_json_output_deterministic():
    s = PatternSet.from_texts("[1~3,2,4]")
    a = count_range(s, 1, 5).to_json()
    b = count_range(s, 1, 5).to_json()
    assert a == b


def test_requires_cyclic_patterns():
    with pytest.raises(ValueError, match="cyclic"):
        count_avoiders(PatternSet.from_texts("1~2,3"), 4)
    with pytest.raises(ValueError, match="n must be"):
        count_avoiders(PatternSet.from_texts("[1~2,3]"), 0)


def _accepted(steps, n):
    """The words of length n that the occurrence kernel accepts: no prefix
    completes an occurrence or reaches a dead state. Every prefix is
    replayed once, with no memo and no dead keys."""
    accepted = set()

    def extend(word, unused, state):
        s = len(unused)
        bad = steps.rejected(state, s)
        for r, v in enumerate(unused):
            if bad >> r & 1:
                continue
            if s == 1:
                accepted.add((*word, v))
                continue
            child = steps.child(state, s, r)
            if child is not None:
                extend((*word, v), unused[:r] + unused[r + 1:], child)

    root = steps.root(n)
    if root is not None:
        if n == 1:
            accepted.add((1,))
        else:
            extend((1,), list(range(2, n + 1)), root)
    return accepted


SEAM_PATTERNS = (
    "[1~2,3]", "[1~3,2]", "[1~2~3]", "[1~3~2]", "[1,2,3]",
    "[1~2,3,4]", "[1~3,4,2]", "[2~3,1,4]", "[1~2~3,4]", "[1~2,3~4]", "[1~2~3~4]",
    "[2~3~1]", "[3~1~2]", "[2~1,3]", "[2,3~1]", "[2~1~3,5,4]", "[4,2~1,5,3]",
)


def test_seam_search_agrees_with_rotation_matcher():
    # the occurrence kernel's verdict on every word (not just the leaves the
    # walk reaches) equals the rotation-scanning matcher's. Read from
    # position 0, an occurrence is a linear occurrence of a wrap-free
    # representative, or it bonds the pattern's 1 at position 0 to its
    # cyclic predecessor at position n-1, which the anchored representative
    # places. Patterns whose canonical form does not start with 1 are the
    # ones that can match across the seam in a single block; [2~1~3,5,4] and
    # [4,2~1,5,3] bond 1 to its predecessor with blocks between the two
    # ends. The totally vincular ones check the seam windows that a mixed
    # set puts on this walk.
    for text in SEAM_PATTERNS:
        p = parse_pattern(text)
        steps = occurrence_steps(PatternSet(frozenset({p})))
        for n in range(1, 9):
            accepted = _accepted(steps, n)
            for c in all_cyclic_perms(n):
                assert (c.canonical.values in accepted) != _contains_cyclic_rep(
                    c, p.values, p.bonds), (str(c), text)


def test_anchored_reps_are_built_for_a_bonded_1_only():
    # only a pattern whose 1 is bonded to its cyclic predecessor can cross
    # the seam unseen by its wrap-free representatives; it gets one anchored
    # representative, the rotation that starts at its 1
    for text in ("[1~2,3,4]", "[1~2,4,3]", "[1~3,2,4]", "[1~3,4,2]", "[1~4,2,3]",
                 "[1~4,3,2]", "[2~3,1,4]", "[2~3,4,1]", "[1~2~3]", "[1,2,3]"):
        assert _anchored(parse_pattern(text)) is None, text
    for text, rep in (("[2~1]", ((1, 2), frozenset())),
                      ("[2~1,3]", ((1, 3, 2), frozenset())),
                      ("[2,3~1]", ((1, 2, 3), frozenset())),
                      ("[2~1~3,5,4]", ((1, 3, 5, 4, 2), frozenset({1}))),
                      ("[2~1~3]", ((1, 3, 2), frozenset({1}))),
                      ("[2~3~1]", ((1, 2, 3), frozenset({2})))):
        assert _anchored(parse_pattern(text)) == rep, text


@pytest.mark.parametrize("texts, n, nodes", [
    (("[1~3,2,4]",), 8, 2003),
    (("[2~3,4,1]",), 8, 2848),
    (("[1~2~3]", "[2~3~1]"), 9, 17657),
    (("[1~2~3]", "[3~2~1]"), 9, 10473),
])
def test_node_totals_are_pinned(texts, n, nodes):
    # the nodes of a listing: a change of pruning strength shows here. The
    # first two run on the occurrence walk, the last two on the window walk
    # from one root
    s = PatternSet.from_texts(*texts)
    search = _Search(s, n, None)
    assert sum(1 for _ in search.words()) == count_avoiders(s, n)
    assert search.nodes == nodes


@pytest.mark.parametrize("pset, n, first, nodes", [
    (PatternSet.from_texts("[1~2,3,4]"), 9, (1, 2, 9, 8, 7, 6, 5, 4, 3), 30),
    (PatternSet.from_texts("[2~3,4,1]"), 9, (1, 2, 9, 3, 8, 7, 6, 5, 4), 39),
    (patterns_with_min_at(2, 4), 8, None, 50),
    (PatternSet.from_texts("[1~2~3~4]", "[1~3,2,4]"), 8, (1, 2, 8, 4, 5, 3, 6, 7), 55),
])
def test_first_leaf_nodes_are_pinned(pset, n, first, nodes):
    # the nodes walked up to the first avoider (or to the end of an empty
    # class) by a listing: a rejected child still counts as a node. The
    # totally vincular set walks from one root without a memo
    search = _Search(pset, n, None)
    assert next(search.words(), None) == first
    assert search.nodes == nodes


def test_find_avoider_budget_edge():
    # find_avoider walks with the memo; on this empty class it visits the
    # same 50 nodes as the listing pinned above: both walks end at length 3,
    # before the first word that has a memo key
    s = patterns_with_min_at(2, 4)
    with pytest.raises(BudgetExceededError) as info:
        find_avoider(s, 8, budget=49)
    assert info.value.nodes == 50
    assert find_avoider(s, 8, budget=50) is None


@pytest.mark.parametrize("i, nodes", [(1, (260, 401, 586)), (2, (50, 65, 82))])
def test_anchored_families_are_proved_empty(i, nodes):
    # every cyclic window with its 1 at position i is forbidden, so the set is
    # empty at every n >= 4. With i = 2 that window is (sigma_n, 1, sigma_2,
    # sigma_3): once sigma_3 is placed, every unused value is barred from the
    # last position, so the search ends at length 3 (1 + (n-1) + (n-1)(n-2)
    # nodes). With i = 1 the prefix check rejects every word of length 4.
    # (At i = 3, 4 the window crosses the seam two or three entries before
    # the 1, which no dead-end test sees: tens of thousands of nodes at n=10.)
    s = patterns_with_min_at(i, 4)
    for n, total in zip(range(8, 11), nodes):
        assert first_avoider(s, n, budget=total) is None
        with pytest.raises(BudgetExceededError) as info:
            first_avoider(s, n, budget=total - 1)
        assert info.value.nodes == total


def _sets_of_each_kind(seed, per_kind, k_min=3):
    """Seeded random sets of one to three cyclic patterns of length
    k_min..5, per_kind of each kind: totally vincular, bonded (no totally
    vincular pattern and none that bonds its 1 to its cyclic predecessor),
    mixed, and bonded with an anchored representative (a seam set)."""
    rng = random.Random(seed)
    kinds = {"totally vincular": [], "bonded": [], "mixed": [], "seam": []}
    while any(len(sets) < per_kind for sets in kinds.values()):
        k = rng.randint(k_min, 5)
        s = PatternSet(frozenset(_random_pattern(rng, k, rng.random() < 0.5)
                                 for _ in range(rng.randint(1, 3))))
        tv = {p.totally_vincular for p in s}
        kind = ("totally vincular" if tv == {True} else "mixed" if len(tv) == 2
                else "seam" if any(map(_anchored, s)) else "bonded")
        if len(kinds[kind]) < per_kind and s not in kinds[kind]:
            kinds[kind].append(s)
    return kinds


def _assert_answers_match_a_scan(kind, s, n):
    """Counts, refined counts, the listing and the first avoider all equal a
    lexicographic scan of every cyclic permutation with the matcher (the
    filter of count_avoiders_naive)."""
    scan = [c for c in all_cyclic_perms(n) if avoids_set(c, s)]
    assert count_avoiders(s, n) == len(scan), (kind, s, n)
    assert list(enumerate_avoiders(s, n)) == scan, (kind, s, n)
    assert first_avoider(s, n) == (scan[0] if scan else None), (kind, s, n)
    for stat, of in (("predecessor_of_n", predecessor_of_n),
                     ("zeil_reverse", CyclicPerm.zeil_reverse)):
        expected = dict(sorted(Counter(map(of, scan)).items()))
        assert count_refined(s, n, stat) == expected, (kind, s, n, stat)


def test_dead_end_prunes_keep_every_answer():
    # the dead-end tests of both walks (the window walk's seam lookahead, the
    # occurrence walk's dead states and dead keys) skip only subtrees without
    # an avoider; the first set of each kind also runs at n = 8
    for kind, sets in _sets_of_each_kind(12, 3).items():
        for j, s in enumerate(sets):
            for n in range(1, 9 if j == 0 else 8):
                _assert_answers_match_a_scan(kind, s, n)


def test_every_query_matches_a_scan_on_sets_of_every_kind():
    # fresh seeded sets of each kind with k = 2..5, against the matcher; the
    # first two sets of each kind also run at n = 8
    for kind, sets in _sets_of_each_kind(20, 4, k_min=2).items():
        for j, s in enumerate(sets):
            for n in range(1, 9 if j < 2 else 8):
                _assert_answers_match_a_scan(kind, s, n)


@pytest.mark.parametrize("text", ["[1]", "[1~2]", "[2~1]", "[1,2]"])
def test_root_is_checked(text):
    # the root 1 is rejected by the mask of the empty word, so [1] is empty
    # even at n = 1
    s = PatternSet.from_texts(text)
    for n in range(1, 5):
        assert count_avoiders(s, n) == _leaf_count(s, n) == count_avoiders_naive(s, n), n


def _random_pattern(rng, k, totally_vincular):
    """A cyclic pattern of length k: totally vincular, or with a random set of
    fewer than k - 1 bonds."""
    values = tuple(rng.sample(range(1, k + 1), k))
    slots = rng.sample(range(1, k + 1), k - 1 if totally_vincular else rng.randrange(k - 1))
    return Pattern(values, frozenset(slots))


def test_masks_agree_with_the_matcher_on_random_sets():
    # a set that mixes a totally vincular pattern with a bonded one, or holds
    # several bonded ones, runs on the occurrence walk; a totally vincular
    # set runs on the window masks
    rng = random.Random(6)
    mixed = 0
    for i in range(24):
        k = 4 + i % 2
        pats = [_random_pattern(rng, k, i % 3 == 0)]
        pats += [_random_pattern(rng, k, rng.random() < 0.3) for _ in range(rng.randrange(3))]
        s = PatternSet(frozenset(pats))
        mixed += len({p.totally_vincular for p in s}) == 2
        for n in range(1, 8):
            assert _leaf_count(s, n) == count_avoiders(s, n) == count_avoiders_naive(s, n), (s, n)
            scan = next((c for c in all_cyclic_perms(n) if avoids_set(c, s)), None)
            assert next(enumerate_avoiders(s, n), None) == scan, (s, n)
    assert mixed >= 4


def test_enumerate_streams_under_a_small_budget():
    # the first avoider is the increasing word, reached after n nodes; the
    # search must not walk the rest of the tree before yielding it
    first = next(enumerate_avoiders(PatternSet.from_texts("[1~3,2,4]"), 8, budget=200))
    assert first.canonical.values == tuple(range(1, 9))


def _budget_outcome(s, n, budget, jobs, stat=None):
    try:
        if stat is not None:
            return "count", count_refined(s, n, stat, jobs=jobs, budget=budget)
        return "count", count_avoiders(s, n, jobs=jobs, budget=budget)
    except BudgetExceededError as exc:
        return "budget", exc.nodes


# in the orbit of [1~3,2,4] under reverse and complement, so counted by the
# Catalan numbers; its 1 is bonded to its cyclic predecessor, so it has an
# anchored representative
SEAM_CATALAN = PatternSet.from_texts("[2,3~1,4]")
# Table 1's first row: totally vincular, so it is counted on the window walk
# and its refined counts fold on the occurrence walk
TV_PAIR = PatternSet.from_texts("[1~2~3]", "[2~3~1]")


def test_budget_is_global_across_jobs():
    # no count, refined count or budget outcome depends on jobs; the refined
    # count of TV_PAIR at n = 9 takes 372 nodes
    s, stat = TV_PAIR, "predecessor_of_n"
    for budget in (100, 371):
        one = _budget_outcome(s, 9, budget, 1, stat)
        assert one == ("budget", budget + 1)
        assert _budget_outcome(s, 9, budget, 2, stat) == one
    whole = _budget_outcome(s, 9, 372, 1, stat)
    assert whole[0] == "count" and sum(whole[1].values()) == 1524
    assert _budget_outcome(s, 9, 372, 2, stat) == whole
    for jobs in (1, 2):
        assert _budget_outcome(SEAM_CATALAN, 8, 674, jobs) == ("count", 429)
        assert _budget_outcome(SEAM_CATALAN, 8, 673, jobs) == ("budget", 674)
        bonded = PatternSet.from_texts("[1~4,2,3]")
        outcome = _budget_outcome(bonded, 8, 400, jobs, "predecessor_of_n")
        assert outcome[0] == "count" and sum(outcome[1].values()) == catalan(7)
        assert _budget_outcome(bonded, 8, 399, jobs, "predecessor_of_n") == ("budget", 400)
    # jobs is accepted and changes nothing, but must be at least 1
    with pytest.raises(ValueError, match="jobs"):
        count_refined(s, 6, "predecessor_of_n", jobs=0)
    with pytest.raises(ValueError, match="jobs"):
        count_avoiders(SEAM_CATALAN, 6, jobs=0)


TV3 = list(all_totally_vincular(3))
TV4 = list(all_totally_vincular(4))


def _leaf_count(s, n):
    """The length of the listing: the window walk's leaves, without a memo,
    or the occurrence walk's."""
    return sum(1 for _ in _Search(s, n, None).words())


def test_refined_fold_matches_the_leaves_on_totally_vincular_sets():
    # the fold runs on the occurrence walk (of the set, or of its reverse
    # complement for zeil_reverse), the listing on the window walk, so the
    # two share no search code; STATS reads each listed word
    rng = random.Random(21)
    for _ in range(12):
        s = PatternSet(frozenset(rng.sample(TV4, rng.randint(4, 18))))
        for n in range(3, 10):
            words = list(_Search(s, n, None).words())
            for stat in STATS:
                expected = dict(sorted(Counter(map(STATS[stat], words)).items()))
                assert count_refined(s, n, stat) == expected, (s, n, stat)


def test_refined_fold_matches_the_catalan_triangle():
    # the two refinements that explain the Catalan classes, under the index
    # maps of the benchmark's refinement checks
    pred, chain = PatternSet.from_texts("[1~4,2,3]"), PatternSet.from_texts("[1~4,3,2]")
    for n in range(3, 15):
        assert count_refined(pred, n, "predecessor_of_n") == {
            i: catalan_triangle(n - 2, i - 1) for i in range(1, n)}, n
        assert count_refined(chain, n, "zeil_reverse") == {
            z: catalan_triangle(n - 2, n - z) for z in range(2, n + 1)}, n


def test_state_count_matches_leaves_on_every_k3_set():
    for r in range(1, len(TV3) + 1):
        for subset in itertools.combinations(TV3, r):
            s = PatternSet(frozenset(subset))
            for n in range(1, 9):
                assert _Search(s, n, None).count_by_state() == _leaf_count(s, n), (s, n)


def test_state_count_matches_leaves_on_sampled_k4_sets():
    rng = random.Random(4)
    for _ in range(20):
        s = PatternSet(frozenset(rng.sample(TV4, rng.randint(1, 8))))
        for n in range(1, 9):
            assert _Search(s, n, None).count_by_state() == _leaf_count(s, n), (s, n)
    # at k=5 the memo first hits at n = 10; large sets keep the leaf walk short
    tv5 = list(all_totally_vincular(5))
    for _ in range(2):
        s = PatternSet(frozenset(rng.sample(tv5, rng.randint(64, 72))))
        for n in range(1, 11):
            assert _Search(s, n, None).count_by_state() == _leaf_count(s, n), (s, n)


@pytest.mark.parametrize("n", [12, 16, 20])
def test_state_count_matches_series(n):
    assert count_avoiders(PatternSet.from_texts("[1~2~3]"), n) == av_consec_123(n)
    assert count_avoiders(PatternSet.from_texts("[1~3~2]"), n) == av_consec_132(n)
    assert count_avoiders(PatternSet.from_texts("[1~2~3]", "[3~2~1]"), n) == updown(n - 1)


def test_state_count_nodes_are_pinned():
    # the memoized count of Table 1's first row at n=10 visits fewer nodes
    # than the leaf walk does at n=9 (17664, pinned above)
    s = PatternSet.from_texts("[1~2~3]", "[2~3~1]")
    search = _Search(s, 10, None)
    assert search.count_by_state() == 9460
    assert search.nodes == 4590 < 17664
    assert len(search.memo) == 694
    assert search.hits == 2118
    # count_avoiders takes this path in this process for every jobs, under
    # the same budget rule
    for jobs in (1, 2):
        assert _budget_outcome(s, 10, 4590, jobs) == ("count", 9460)
        assert _budget_outcome(s, 10, 4589, jobs) == ("budget", 4590)


def _occurrence_sets(seed, count):
    """Seeded random sets of one to three cyclic patterns of length 3..5,
    not all totally vincular: the sets that run on the occurrence walk."""
    rng = random.Random(seed)
    sets = []
    while len(sets) < count:
        k = rng.randint(3, 5)
        s = PatternSet(frozenset(_random_pattern(rng, k, rng.random() < 0.2)
                                 for _ in range(rng.randint(1, 3))))
        if not _by_state(s):
            sets.append(s)
    return sets


def test_occurrence_count_matches_leaves_on_random_sets():
    # the count expands each key once and the listing skips only dead keys,
    # so the count never visits more nodes than the listing
    for s in _occurrence_sets(7, 16):
        for n in range(1, 10):
            search, leaves = _Search(s, n, None), _Search(s, n, None)
            count = sum(1 for _ in occurrence_leaves(leaves))
            assert count_by_occurrence(search) == count, (s, n)
            assert search.nodes <= leaves.nodes, (s, n)


def test_occurrence_count_matches_leaves_on_every_length4_orbit():
    # the 66 length-4 cyclic patterns that are not totally vincular fall into
    # 23 orbits under reverse and complement, which preserve counts; every
    # member of an orbit, with or without an anchored representative, has
    # the count of the orbit's listing
    patterns = {Pattern(values, frozenset(bonds))
                for values in itertools.permutations(range(1, 5))
                for r in range(3) for bonds in itertools.combinations(range(1, 5), r)}
    orbits = {trivial_wilf_orbit(PatternSet(frozenset({p}))) for p in patterns}
    assert (len(patterns), len(orbits)) == (66, 23)
    for orbit in orbits:
        for n in range(1, 10):
            listed = _leaf_count(min(orbit, key=str), n)
            for s in orbit:
                assert count_by_occurrence(_Search(s, n, None)) == listed, (s, n)


def test_occurrence_count_matches_the_oracle_on_random_sets():
    for s in _occurrence_sets(8, 30):
        for n in range(1, 8):
            assert count_by_occurrence(_Search(s, n, None)) == count_avoiders_naive(s, n), (s, n)


@pytest.mark.parametrize("text, form", [
    ("[1~3,2,4]", lambda n: catalan(n - 1)),
    ("[1~4,2,3]", lambda n: catalan(n - 1)),
    ("[1~4,3,2]", lambda n: catalan(n - 1)),
    ("[1~2,3,4]", av_bond12_34),
    ("[1~2,4,3]", av_bond12_34),
])
def test_occurrence_count_matches_closed_forms(text, form):
    s = PatternSet.from_texts(text)
    for n in range(2, 14):
        assert count_avoiders(s, n) == form(n), n


def test_occurrence_count_nodes_are_pinned():
    # its listing needs 2003 nodes at n=8 (pinned above); the count needs
    # 1181 at n=10
    s = PatternSet.from_texts("[1~3,2,4]")
    search = _Search(s, 10, None)
    assert count_by_occurrence(search) == 4862
    assert search.nodes == 1181
    assert len(search.memo) == 216
    assert search.hits == 279
    # count_avoiders takes this path in this process for every jobs, under
    # the same budget rule
    for jobs in (1, 2):
        assert _budget_outcome(s, 10, 1181, jobs) == ("count", 4862)
        assert _budget_outcome(s, 10, 1180, jobs) == ("budget", 1181)


@pytest.mark.parametrize("s, n, walk", [
    (PatternSet.from_texts("[1~3,2,4]"), 10, (1181, 216, 279)),
    (SEAM_CATALAN, 9, (1764, 400, 539)),
], ids=["bonded", "anchored"])
def test_count_and_refinement_take_one_walk(s, n, walk):
    # a count and a predecessor_of_n fold are one recursion over the same
    # keys: equal nodes, memo states and hits
    count, refined = _Search(s, n, None), _Search(s, n, None)
    assert count_by_occurrence(count) == catalan(n - 1)
    assert sum(refine_by_occurrence(refined, "predecessor_of_n").values()) == catalan(n - 1)
    assert (count.nodes, len(count.memo), count.hits) == walk
    assert (refined.nodes, len(refined.memo), refined.hits) == walk


def test_occurrence_memo_is_chosen_from_the_set():
    # a set that is not totally vincular (bonded, with an anchored
    # representative, mixed or empty) runs on the occurrence walk for every
    # question; a totally vincular set keeps the window walk for its counts
    # and folds its refined counts on the occurrence walk
    n = 8
    for s in (PatternSet.from_texts("[1~3,2,4]"), SEAM_CATALAN,
              PatternSet.from_texts("[1~2~3~4]", "[1~3,2,4]"), PatternSet(frozenset())):
        search = _Search(s, n, None)
        count = count_by_occurrence(search)
        assert count_avoiders(s, n, jobs=2) == count, s
        # the same walk: it finishes exactly within the memo's node total
        assert count_avoiders(s, n, budget=search.nodes) == count
        with pytest.raises(BudgetExceededError):
            count_avoiders(s, n, budget=search.nodes - 1)
        refined = count_refined(s, n, "predecessor_of_n", jobs=2)
        assert sum(refined.values()) == count
    assert count_avoiders(SEAM_CATALAN, n, jobs=2) == 429
    assert sum(count_refined(TV_PAIR, n, "predecessor_of_n", jobs=2).values()) == 278
    assert count_avoiders(TV_PAIR, n, jobs=2) == 278


@pytest.mark.parametrize("texts", [("[1~2~3]",), ("[1~2~3]", "[2~3~1]")])
def test_listing_has_no_memo(texts):
    # at these n the memo of a count and of find_avoider hits; a listing
    # walked with it would skip avoiders
    s = PatternSet.from_texts(*texts)
    for n in range(8, 11):
        assert sum(1 for _ in enumerate_avoiders(s, n)) == count_avoiders(s, n), n


def test_window_masks_match_reduce_window():
    # the shared window table against a recompute of every window
    rng = random.Random(5)
    for k in range(3, 6):
        pats = list(all_totally_vincular(k))
        for _ in range(3):
            s = PatternSet(frozenset(rng.sample(pats, rng.randint(1, len(pats) // 2))))
            forbidden = {p.values for p in s}
            for n in range(k - 1, 8):
                search = _Search(s, n, None)
                for tail in itertools.permutations(range(1, n + 1), k - 1):
                    expected = sum(1 << v for v in range(1, n + 1) if v not in tail
                                   and reduce_window(tail + (v,)) in forbidden)
                    assert search.window_mask(tail) & ((2 << n) - 1) == expected, (s, tail)

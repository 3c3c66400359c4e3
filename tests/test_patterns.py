from itertools import combinations, permutations

import pytest

from cycvin.patterns import (
    CYCLIC,
    LINEAR,
    Pattern,
    PatternSet,
    PatternSyntaxError,
    all_totally_vincular,
    parse_pattern,
    trivial_wilf_orbit,
)


def test_parse_cyclic_with_bond():
    p = parse_pattern("[1~3,4,2]")
    assert p.kind == CYCLIC
    assert p.values == (1, 3, 4, 2)
    assert p.bonds == frozenset({1})


def test_parse_totally_vincular():
    p = parse_pattern("[1~2~3]")
    assert p.totally_vincular
    assert p.bonds == frozenset({1, 2})


def test_parse_returns_one_object_per_text():
    # a parsed pattern is immutable, so a text is parsed once and shared;
    # malformed text is never cached and raises on every call
    assert parse_pattern("[1~3,2,4]") is parse_pattern("[1~3,2,4]")
    for _ in range(3):
        with pytest.raises(PatternSyntaxError, match="unclosed"):
            parse_pattern("[1~3,2")


def test_parse_linear():
    p = parse_pattern("2~1,3")
    assert p.kind == LINEAR
    assert p.values == (2, 1, 3) and p.bonds == frozenset({1})


def test_parse_whitespace_and_multidigit():
    p = parse_pattern("[ 1 ~ 10, 2,3,4,5,6,7,8,9 ]")
    assert p.k == 10 and p.values[1] == 10


@pytest.mark.parametrize(
    "text,message",
    [
        ("[1,3,3]", "duplicate value 3"),
        ("[1,5,2]", "outside"),
        ("1,,2", "expected a value"),
        ("1,2,", "trailing separator"),
        ("[1,2", "unclosed"),
        ("1,2]", "without"),
        ("", "empty"),
        ("1~x", "expected a value"),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(PatternSyntaxError, match=message):
        parse_pattern(text)


def test_parse_error_position():
    try:
        parse_pattern("[1,3,3]")
    except PatternSyntaxError as exc:
        assert exc.position is not None
    else:
        pytest.fail("expected a syntax error")


def _all_len3_cyclic():
    out = set()
    for vals in permutations((1, 2, 3)):
        for r in range(0, 3):
            for bonds in combinations((1, 2, 3), r):
                out.add(Pattern(vals, frozenset(bonds), CYCLIC))
    return sorted(out, key=lambda p: (p.values, sorted(p.bonds)))


def test_canonical_form_is_rotation_invariant():
    for p in _all_len3_cyclic() + [parse_pattern(t) for t in
                                   ("[1~2,3,4]", "[1~3,4,2]", "[2~3,1,4]", "[1~2~3,4]")]:
        for values, bonds in p.wrap_free_reps():
            assert Pattern(values, bonds, CYCLIC) == p


def test_round_trip_text():
    pats = _all_len3_cyclic() + [
        parse_pattern(t)
        for t in ("[1~2,3,4]", "2~1,3", "[1~2~3~4,5]", "1,2", "[12,1,2,3,4,5,6,7,8,9,10,11]")
    ]
    for p in pats:
        assert parse_pattern(str(p)) == p


def test_cyclic_pattern_rejects_full_bonding():
    with pytest.raises(ValueError, match="cannot bond all"):
        Pattern((1, 2, 3), frozenset({1, 2, 3}), CYCLIC)
    with pytest.raises(ValueError):
        Pattern((2, 1, 3), frozenset({4}), CYCLIC)
    with pytest.raises(ValueError):
        Pattern((1, 3, 2), frozenset({3}), LINEAR)


def test_reverse_examples():
    r = parse_pattern("1~3,4,2").reverse()
    assert r.values == (2, 4, 3, 1) and r.bonds == frozenset({3})
    c = parse_pattern("[1~2,3,4]").complement()
    assert c == parse_pattern("[4~3,2,1]")


def test_symmetries_are_involutions_and_commute():
    pats = _all_len3_cyclic() + [parse_pattern(t) for t in ("[1~3,4,2]", "[2~3,1,4]", "1~3,2")]
    for p in pats:
        assert p.reverse().reverse() == p
        assert p.complement().complement() == p
        assert p.reverse().complement() == p.complement().reverse()


@pytest.mark.parametrize(
    "texts,size",
    [
        (("[1~3,2,4]",), 4),
        (("[1~4,2,3]",), 2),
        (("[1~2~3]", "[3~2~1]"), 1),
        (("[1~2,3,4]",), 4),
    ],
)
def test_trivial_wilf_orbit_sizes(texts, size):
    orbit = trivial_wilf_orbit(PatternSet.from_texts(*texts))
    assert len(orbit) == size


def test_orbit_of_one_bond_c_class():
    orbit = trivial_wilf_orbit(PatternSet.from_texts("[1~3,2,4]"))
    texts = sorted(str(next(iter(s))) for s in orbit)
    assert texts == ["[1,3,2~4]", "[1,4~2,3]", "[1~3,2,4]", "[2,3~1,4]"]


def test_all_totally_vincular():
    assert [str(p) for p in all_totally_vincular(1)] == ["[1]"]
    assert len(all_totally_vincular(3)) == 6
    assert len(all_totally_vincular(4)) == 24
    assert all(p.totally_vincular for p in all_totally_vincular(4))


def test_pattern_set_validation():
    with pytest.raises(ValueError, match="share kind and length"):
        PatternSet(frozenset({parse_pattern("[1~2]"), parse_pattern("[1~2~3]")}))
    empty = PatternSet(frozenset())
    assert len(empty) == 0 and empty.kind is None


def test_pattern_set_text_is_sorted():
    s = PatternSet.from_texts("[3~2~1]", "[1~2~3]")
    assert str(s) == "[1~2~3] [3~2~1]"


def test_pretty():
    assert parse_pattern("[1~3,4,2]").pretty() == "[(13)42]"
    assert parse_pattern("2~1,3").pretty() == "(21)3"
    assert parse_pattern("[1~2~3]").pretty() == "[(123)]"


def test_without_bond():
    p = parse_pattern("[1~2~3]")
    weaker = p.without_bond(2)
    assert weaker.bonds == frozenset({1})
    with pytest.raises(ValueError):
        weaker.without_bond(2)

import gc
import weakref

import pytest
from hypothesis import given, strategies as st

import oracles
from dilemma import (
    InvalidParameterError,
    TableClass,
    VoteTable,
    build_poset,
    canonical,
    class_count,
    class_members,
    classical_rule,
    enumerate_classes,
    enumerate_tables,
    multinomial,
    table_class,
    table_count,
    transpose,
    whitney_numbers,
)
from dilemma.poset import MODES
from dilemma.ranking import _tree
from dilemma.tables import (
    _layout,
    class_sort_key,
    node_sort_key,
    validate_class,
    validate_n,
    validate_table,
)


@st.composite
def vote_tables(draw, max_n=9):
    n = draw(st.sampled_from(range(1, max_n + 1, 2)))
    a = draw(st.integers(0, n))
    b = draw(st.integers(0, n))
    c = draw(st.integers(0, n))
    a, b, c = sorted((a, b, c))
    return VoteTable(a, b - a, c - b, n - c)


def test_table_count_closed_form():
    assert [table_count(n) for n in (1, 3, 5, 7, 9)] == [3, 13, 34, 70, 125]
    for n in (1, 3, 5, 7, 9):
        assert table_count(n) == len(oracles.canonical_tables(n))


def test_class_count_closed_form():
    assert [class_count(n) for n in (1, 3, 5, 7)] == [3, 10, 21, 36]
    for n in (1, 3, 5, 7):
        assert class_count(n) == len(oracles.classes(n))


# every odd size up to 41, plus the largest
SIZES = (*range(1, 42, 2), 99)


def test_enumerate_tables_matches_brute_force():
    for n in SIZES:
        tabs = enumerate_tables(n)
        want = oracles.canonical_tables(n)
        assert [tuple(T) for T in tabs] == want
        assert len(tabs) == len(set(tabs)) == table_count(n)
        # the run-start formula numbers each table, and its transpose alike
        node = _layout(n).node
        assert [node(T) for T in want] == list(range(len(want)))
        assert [node((x, z, y, t)) for x, y, z, t in want] == list(range(len(want)))


def test_enumerate_tables_order():
    tabs = enumerate_tables(3)
    assert tuple(tabs[0]) == (3, 0, 0, 0)
    assert tuple(tabs[-1]) == (0, 0, 0, 3)
    keys = [node_sort_key(T) for T in tabs]
    assert keys == sorted(keys)


def test_enumerate_classes():
    for n in SIZES:
        cls = enumerate_classes(n)
        assert [tuple(c) for c in cls] == oracles.classes(n)
        keys = [class_sort_key(c) for c in cls]
        assert keys == sorted(keys)
    assert tuple(enumerate_classes(3)[0]) == (3, 0)
    assert tuple(enumerate_classes(3)[-1]) == (-3, 0)


def test_mutating_an_enumeration_leaves_the_cache_intact():
    tabs, cls = enumerate_tables(3), enumerate_classes(3)
    tabs.clear()
    cls.reverse()
    assert [tuple(T) for T in enumerate_tables(3)] == oracles.canonical_tables(3)
    assert [tuple(c) for c in enumerate_classes(3)] == oracles.classes(3)


def test_what_a_size_derives_lives_and_dies_with_its_layout():
    # n = 9 is the largest size with an unforced compact rank tree
    n = 9
    derived = ([build_poset(n, mode) for mode in MODES]
               + [classical_rule(kind, n) for kind in ("pb", "cb", "hb")])
    refs = [weakref.ref(v) for v in derived]
    rows = _tree(n, "compact")
    del derived
    for m in (1, 3, 5, 7):  # evict size 9
        _layout(m)
    gc.collect()
    assert [ref() for ref in refs] == [None] * len(refs)
    po = build_poset(n)
    assert po.nodes is _layout(n).tables
    assert po._up is _layout(n).up
    again = _tree(n, "compact")
    assert again == rows and again is not rows


def test_class_members_partition_tables():
    for n in (3, 5, 7):
        seen = []
        for c in enumerate_classes(n):
            members = class_members(c, n)
            for T in members:
                assert T.is_canonical()
                assert table_class(T) == c
            seen.extend(members)
        assert sorted(seen) == sorted(enumerate_tables(n))


@pytest.mark.parametrize("n", [*range(1, 22, 2), 99])
def test_class_members_match_the_oracle_grouping(n):
    want = {}
    for T in oracles.canonical_tables(n):
        want.setdefault((T[0] - T[3], T[1] - T[2]), []).append(T)
    for c in enumerate_classes(n):
        assert [tuple(T) for T in class_members(c, n)] == want.pop(tuple(c))
    assert want == {}


def test_class_members_validates_the_class_and_the_size():
    for cls, n in (((1, 0), "x"), ((1, 0), 4), ((1, 0), None), ((2, 0), 3), ((5, 0), 3)):
        with pytest.raises(InvalidParameterError):
            class_members(cls, n)


def test_class_members_examples():
    assert [tuple(T) for T in class_members(TableClass(1, 0), 3)] == [
        (2, 0, 0, 1),
        (1, 1, 1, 0),
    ]
    assert [tuple(T) for T in class_members(TableClass(3, 0), 3)] == [(3, 0, 0, 0)]


def test_whitney_numbers():
    assert whitney_numbers(3) == {-3: 1, -2: 1, -1: 3, 0: 3, 1: 3, 2: 1, 3: 1}
    for n in (1, 3, 5, 7):
        w = whitney_numbers(n)
        assert sum(w.values()) == table_count(n)
        direct = {}
        for T in enumerate_tables(n):
            direct[T.rho] = direct.get(T.rho, 0) + 1
        assert w == direct
        assert all(w[r] == w[-r] for r in w)


def test_transpose_and_canonical():
    T = VoteTable(1, 0, 2, 0)
    assert tuple(T.transpose()) == (1, 2, 0, 0)
    assert tuple(canonical(T)) == (1, 2, 0, 0)
    assert canonical(T).is_canonical()
    assert not T.is_canonical()
    assert transpose(transpose(T)) == T


def test_class_invariants():
    T = VoteTable(2, 1, 0, 0)
    c = table_class(T)
    assert (c.rho, c.alpha) == (2, 1)
    assert table_class(T.transpose()) == c
    assert T.n == 3 and T.rho == 2 and T.alpha == 1


def test_multinomial_values():
    assert multinomial(VoteTable(1, 1, 1, 0)) == 6
    assert multinomial(VoteTable(3, 0, 0, 0)) == 1
    for n in (1, 3, 5):
        total = sum(multinomial(VoteTable(*T)) for T in oracles.ordered_tables(n))
        assert total == 4**n


def test_validate_n_rejects_bad_input():
    for bad in (0, 2, -3, 101, 3.0, "3", True):
        with pytest.raises(InvalidParameterError):
            validate_n(bad)
    assert validate_n(99) == 99


def test_validate_table_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        validate_table((1, -1, 0, 1))
    with pytest.raises(InvalidParameterError):
        validate_table((1, 1, 0, 0))  # even total
    with pytest.raises(InvalidParameterError):
        validate_table((0, 0, 0, 0))
    with pytest.raises(InvalidParameterError):
        validate_table((1, 0, 0))
    with pytest.raises(InvalidParameterError):
        validate_table((1.0, 0, 0, 0))
    assert validate_table((1, 1, 1, 0)) == VoteTable(1, 1, 1, 0)


def test_validate_class_rejects_bad_input():
    with pytest.raises(InvalidParameterError):
        validate_class((1, 1))  # even rho + alpha
    with pytest.raises(InvalidParameterError):
        validate_class((1, -2))
    with pytest.raises(InvalidParameterError):
        validate_class((4, 1), n=3)  # outside the reachable range
    assert validate_class((1, 2), n=3) == TableClass(1, 2)
    assert validate_class((-3, 0)) == TableClass(-3, 0)


@given(vote_tables())
def test_canonical_is_idempotent_and_class_preserving(T):
    C = canonical(T)
    assert C.is_canonical()
    assert canonical(C) == C
    assert table_class(C) == table_class(T)
    assert C.n == T.n and C.rho == T.rho and C.alpha == T.alpha


@given(vote_tables())
def test_rho_alpha_parity(T):
    assert (T.rho + T.alpha) % 2 == 1
    assert abs(T.rho) + T.alpha <= T.n


@given(st.sampled_from((1, 3, 5, 7)))
def test_sort_keys_are_unique(n):
    tabs = enumerate_tables(n)
    assert len({node_sort_key(T) for T in tabs}) == len(tabs)
    cls = enumerate_classes(n)
    assert len({class_sort_key(c) for c in cls}) == len(cls)

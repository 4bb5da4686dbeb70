import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from dilemma import (
    DecisionRule,
    InvalidParameterError,
    StructuralError,
    TableClass,
    VoteTable,
    build_poset,
    class_members,
    classical_rule,
    empty_rule,
    enumerate_classes,
    optimal_rule,
    table_class,
)
from dilemma.tables import _layout


def as_pairs(covers):
    return {(tuple(a), tuple(b)) for a, b in covers}


PB3_POSITIVES = {(3, 0, 0, 0), (2, 1, 0, 0), (2, 0, 0, 1), (1, 1, 1, 0)}


def test_classical_pb_positives_frozen():
    pb = classical_rule("pb", 3)
    assert {tuple(T) for T in pb.positives} == PB3_POSITIVES
    assert pb.admissible
    assert pb.is_class_constant()
    assert [tuple(c) for c in pb.positive_classes()] == [(3, 0), (2, 1), (1, 0)]


def test_classical_rules_match_direct_predicates():
    preds = {"pb": oracles.pb, "cb": oracles.cb, "hb": oracles.hb}
    for n in (3, 5, 7):
        for kind, pred in preds.items():
            rule = classical_rule(kind, n)
            assert rule.admissible
            for T in oracles.ordered_tables(n):
                assert rule.decides(T) == int(pred(T))


def test_classical_rule_nesting():
    for n in (3, 5, 7):
        cb = classical_rule("cb", n).positives
        hb = classical_rule("hb", n).positives
        pb = classical_rule("pb", n).positives
        assert cb <= hb <= pb


def test_cb_equals_hb_only_for_small_committees():
    for n in (3, 5):
        assert classical_rule("cb", n).positives == classical_rule("hb", n).positives
    cb7 = classical_rule("cb", 7)
    hb7 = classical_rule("hb", 7)
    assert cb7.positives < hb7.positives
    witness = VoteTable(3, 2, 2, 0)
    assert hb7.decides(witness) == 1
    assert cb7.decides(witness) == 0


def test_cb_is_not_class_constant():
    from dilemma import table_class

    cb = classical_rule("cb", 3)
    assert table_class(VoteTable(2, 0, 0, 1)) == table_class(VoteTable(1, 1, 1, 0))
    assert cb.decides((2, 0, 0, 1)) == 1
    assert cb.decides((1, 1, 1, 0)) == 0
    assert not cb.is_class_constant()


def test_classical_rule_unknown_kind():
    with pytest.raises(InvalidParameterError):
        classical_rule("majority", 3)


def test_classical_rules_are_built_once_per_size():
    assert classical_rule("pb", 5) is classical_rule("pb", 5)
    assert classical_rule("pb", 1) is not classical_rule("hb", 1)
    # a cached n = 1 must not answer for True, which hashes like 1
    for n in (True, 1.0):
        with pytest.raises(InvalidParameterError, match="committee size"):
            classical_rule("pb", n)


def test_from_tables_canonicalizes_and_finds_antichain():
    rule = DecisionRule.from_tables(3, [(1, 0, 2, 0), (1, 1, 1, 0), (2, 1, 0, 0),
                                        (2, 0, 0, 1), (3, 0, 0, 0)])
    assert (1, 2, 0, 0) in {tuple(T) for T in rule.positives}
    assert [tuple(T) for T in rule.antichain] == [(2, 0, 0, 1), (1, 2, 0, 0),
                                                  (1, 1, 1, 0)]
    assert rule.admissible


def test_from_antichain_round_trip():
    po = build_poset(3, "extended")
    for chain in po.antichains():
        rule = DecisionRule.from_antichain(3, chain)
        assert rule.admissible
        assert rule.antichain == chain
        assert rule.positives == po.upper_set(chain)


def test_from_classes_matches_member_union():
    rule = DecisionRule.from_classes(3, [TableClass(1, 0), TableClass(2, 1),
                                         TableClass(3, 0)])
    assert rule.positives == classical_rule("pb", 3).positives
    assert rule.is_class_constant()


@pytest.mark.parametrize("n", [*range(1, 42, 2), 99])
def test_class_groups_match_the_class_members(n):
    layout = _layout(n)
    po = build_poset(n, "extended")
    assert po.nodes == layout.tables
    oracle = {}
    for i, (x, y, z, t) in enumerate(oracles.canonical_tables(n)):
        oracle.setdefault((x - t, y - z), []).append(i)
    groups = layout.groups
    assert list(groups) == list(enumerate_classes(n))
    assert {tuple(c): list(idxs) for c, idxs in groups.items()} == oracle
    for c, idxs in groups.items():
        assert idxs == tuple(sorted(po.index[T] for T in class_members(c, n)))
        assert all(table_class(po.nodes[i]) == c for i in idxs)
    # each cell decodes to its table; swapping its y and z digits, as the
    # per-voter law does, decodes to the transpose
    b = n + 1
    for T, c in zip(layout.tables, layout.cells):
        assert (c // (b * b), c // b % b, c % b) == T[:3]
        ct = c + (c % b - c // b % b) * (b - 1)
        assert (ct // (b * b), ct // b % b, ct % b) == T.transpose()[:3]


def test_class_groups_stay_within_the_cache_bound():
    for n in range(1, 2 * 4 + 6, 2):
        DecisionRule.from_classes(n, [(n, 0)])
    assert _layout.cache_info().currsize <= 4
    assert _layout.cache_info().maxsize == 4


@pytest.mark.parametrize("w,theta", [(0.5, 0.7), (0.3, 0.55), (0.8, 0.9), (0.5, 0.51)])
def test_optimal_antichain_at_99_matches_the_extended_poset(w, theta):
    rule = optimal_rule(99, w, theta)
    assert rule.admissible
    assert rule.antichain == build_poset(99).minimal_elements(rule.positives)
    low = build_poset(99, "quotient").minimal_elements(rule.positive_classes())
    assert {table_class(T) for T in rule.antichain} == set(low)
    assert rule.minimal_classes() == low


@functools.lru_cache(maxsize=None)
def class_closure(n):
    return oracles.closure_from_covers(oracles.classes(n), oracles.quotient_covers(n))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(range(1, 22, 2)), st.data())
def test_a_union_of_classes_is_certified_on_its_classes(n, data):
    """The class-local certificate gives the fields of the search over
    the member tables: on the empty set, on sets holding the bottom class
    (-n, 0), which has no lower neighbour, and on sets that are not
    upper sets, which it hands to the search."""
    classes = set(data.draw(st.lists(st.sampled_from(oracles.classes(n)), max_size=12)))
    if data.draw(st.booleans()):
        classes.add((-n, 0))
    if data.draw(st.booleans()):
        classes = set().union(*(class_closure(n)[c] for c in classes))
    groups = _layout(n).groups
    got = DecisionRule._of_classes(n, [TableClass(*c) for c in classes])
    want = DecisionRule._of(n, frozenset(i for c in classes for i in groups[c]))
    assert got.indices == want.indices
    assert got.antichain == want.antichain
    assert got.admissible == want.admissible


def test_class_unions_run_no_search(monkeypatch):
    import dilemma.rules
    from dilemma import RankingRequest, rank_rules

    calls = []
    search = dilemma.rules.strictly_above

    def counting(up, idxs):
        calls.append(1)
        return search(up, idxs)

    for kind in ("pb", "cb", "hb"):
        classical_rule(kind, 9)  # named in the ranking, and built by a search
    monkeypatch.setattr(dilemma.rules, "strictly_above", counting)
    optimal_rule(21, 0.5, 0.7)
    assert DecisionRule.from_classes(21, [(21, 0), (20, 1), (19, 0), (19, 2)]).admissible
    ranked = rank_rules(RankingRequest(9, 0.3, (0.6, 0.7, 0.8) * 3, mode="compact", k=20))
    assert len(ranked) == 20
    assert calls == []
    # a union that is not an upper set goes to the search
    assert not DecisionRule.from_classes(21, [(19, 0)]).admissible
    assert calls == [1]


def test_from_predicate():
    rule = DecisionRule.from_predicate(3, lambda T: T.x >= 2)
    assert {tuple(T) for T in rule.positives} == {(3, 0, 0, 0), (2, 1, 0, 0),
                                                  (2, 0, 0, 1)}
    assert rule.admissible


def test_inadmissible_rule_detected():
    rule = DecisionRule.from_tables(3, [(1, 1, 1, 0)])
    assert not rule.admissible
    assert [tuple(T) for T in rule.antichain] == [(1, 1, 1, 0)]
    hole = DecisionRule.from_tables(3, [(3, 0, 0, 0), (1, 1, 1, 0)])
    assert not hole.admissible


def test_admissible_iff_upper_set():
    po = build_poset(3, "extended")
    uppers = {frozenset(u) for u in oracles.all_upper_sets(
        [tuple(v) for v in po.nodes],
        {(tuple(a), tuple(b)) for a, b in po.covers})}
    import itertools
    for size in (0, 1, 2):
        for combo in itertools.combinations(po.nodes, size):
            rule = DecisionRule.from_tables(3, combo)
            assert rule.admissible == (
                frozenset(tuple(T) for T in rule.positives) in uppers)


@pytest.mark.parametrize("n", (1, 3, 5, 11, 13))
def test_from_tables_matches_cover_closure(n):
    po = build_poset(n, "extended")
    up = oracles.closure_from_covers([tuple(v) for v in po.nodes], as_pairs(po.covers))
    rng = random.Random(n)
    for _ in range(40):
        sub = {tuple(v) for v in rng.sample(po.nodes, rng.randint(0, min(40, len(po.nodes))))}
        closure = set().union(*(up[T] for T in sub))
        # a set and its upward closure share their minimal elements
        minimal = sorted((T for T in sub if not any(S != T and T in up[S] for S in sub)),
                         key=po.index.get)
        for pos in (sub, closure):
            # half the tables handed over with y and z swapped
            given = [(x, z, y, t) if rng.random() < 0.5 else (x, y, z, t)
                     for x, y, z, t in pos]
            rule = DecisionRule.from_tables(n, given)
            assert [tuple(T) for T in rule.antichain] == minimal
            assert rule.admissible == all(up[T] <= pos for T in pos)
            assert {tuple(T) for T in rule.positives} == pos


@functools.lru_cache(maxsize=None)
def cover_closure(n):
    po = build_poset(n, "extended")
    return oracles.closure_from_covers([tuple(v) for v in po.nodes], as_pairs(po.covers))


def assert_rule_is(rule, n, pos):
    """The fields and views of a rule as the cover closure gives them."""
    po = build_poset(n, "extended")
    up = cover_closure(n)
    above = set().union(*(up[T] - {T} for T in pos))
    assert {tuple(T) for T in rule.positives} == pos
    assert [tuple(T) for T in rule.antichain] == sorted(pos - above, key=po.index.get)
    assert rule.admissible == all(up[T] <= pos for T in pos)
    assert rule.indices == {po.index[T] for T in rule.positives}
    classes = {(x - t, y - z) for x, y, z, t in pos}
    assert [tuple(c) for c in rule.positive_classes()] == sorted(
        classes, key=lambda c: (-c[0], -c[1]))
    assert rule.is_class_constant() == all(
        T in pos for T in up if (T[0] - T[3], T[1] - T[2]) in classes)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, 3, 5, 7, 9, 11, 13)), st.data())
def test_every_constructor_matches_the_cover_closure(n, data):
    po = build_poset(n, "extended")
    up = cover_closure(n)
    nodes = [tuple(v) for v in po.nodes]
    pos = set(data.draw(st.lists(st.sampled_from(nodes), max_size=40)))
    if data.draw(st.booleans()):
        pos = set().union(*(up[T] for T in pos))

    def given_as(tables):
        # each table handed over as is or with y and z swapped
        flips = data.draw(st.lists(st.booleans(), min_size=len(tables),
                                   max_size=len(tables)))
        return [(x, z, y, t) if f else (x, y, z, t)
                for (x, y, z, t), f in zip(tables, flips)]

    assert_rule_is(DecisionRule.from_tables(n, given_as(sorted(pos))), n, pos)
    assert_rule_is(DecisionRule.from_predicate(n, lambda T: tuple(T) in pos), n, pos)
    closure = set().union(*(up[T] for T in pos))
    minimal = [T for T in nodes if T in closure
               and not any(S != T and T in up[S] for S in closure)]
    assert_rule_is(DecisionRule.from_antichain(n, given_as(minimal)), n, closure)
    classes = data.draw(st.lists(st.sampled_from(oracles.classes(n)), max_size=12))
    members = {T for T in nodes if (T[0] - T[3], T[1] - T[2]) in set(classes)}
    assert_rule_is(DecisionRule.from_classes(n, classes), n, members)


def test_decides_is_transpose_invariant():
    rule = classical_rule("pb", 5)
    for T in oracles.ordered_tables(5):
        x, y, z, t = T
        assert rule.decides(T) == rule.decides((x, z, y, t))


def test_decides_rejects_wrong_size():
    rule = classical_rule("pb", 3)
    with pytest.raises(InvalidParameterError):
        rule.decides((1, 1, 1, 2))


def test_from_tables_rejects_wrong_size():
    with pytest.raises(InvalidParameterError):
        DecisionRule.from_tables(3, [(1, 1, 1, 2)])


def test_from_antichain_rejects_comparable_tables():
    with pytest.raises(StructuralError):
        DecisionRule.from_antichain(3, [(1, 1, 1, 0), (3, 0, 0, 0)])


def test_empty_rule():
    rule = empty_rule(3)
    assert rule.admissible
    assert rule.positives == frozenset()
    assert rule.antichain == ()
    assert all(rule.decides(T) == 0 for T in oracles.ordered_tables(3))


def test_rules_are_hashable_and_comparable():
    a = classical_rule("pb", 3)
    b = DecisionRule.from_classes(3, [(1, 0), (2, 1), (3, 0)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != empty_rule(3)


def test_repr_mentions_antichain():
    rule = classical_rule("pb", 3)
    text = repr(rule)
    assert "admissible" in text and "(1, 1, 1, 0)" in text

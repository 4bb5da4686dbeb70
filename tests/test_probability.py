import math
import tracemalloc
from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from dilemma import (
    Homogeneous,
    InvalidParameterError,
    NegativePrior,
    PerVoter,
    State,
    VoteTable,
    as_profile,
    build_poset,
    classical_rule,
    enumerate_tables,
    loss,
    negative_mass,
    node_law,
    optimal_rule,
    positive_mass,
    rule_fn,
    rule_fp,
    rule_fp_bayes,
    single_vote_law,
    table_law,
    table_prob,
)
from dilemma import probability
from dilemma.probability import NEGATIVE_STATES, as_state, profile_thetas
from dilemma.tables import _layout

STATES = ("PQ", "PnQ", "nPQ", "nPnQ")


def all_admissible_rules(n):
    from dilemma import DecisionRule

    po = build_poset(n, "extended")
    return [DecisionRule.from_antichain(n, ac) for ac in po.antichains()]


def test_as_state():
    assert as_state("PnQ") is State.PnQ
    assert as_state(State.PQ) is State.PQ
    with pytest.raises(InvalidParameterError):
        as_state("QP")


def test_single_vote_law_values():
    c, i = 0.6, 0.4
    assert single_vote_law("PQ", 0.6) == (c * c, c * i, i * c, i * i)
    assert single_vote_law("PnQ", 0.6) == (c * i, c * c, i * i, i * c)
    assert single_vote_law("nPQ", 0.6) == (i * c, i * i, c * c, c * i)
    assert single_vote_law("nPnQ", 0.6) == (i * i, i * c, c * i, c * c)
    for state in STATES:
        assert math.fsum(single_vote_law(state, 0.73)) == pytest.approx(1.0, abs=1e-15)


def test_theta_validation():
    for bad in (0.0, 1.0, -0.2, 1.3):
        with pytest.raises(InvalidParameterError):
            single_vote_law("PQ", bad)
        with pytest.raises(InvalidParameterError):
            Homogeneous(bad)


def test_profiles():
    assert isinstance(as_profile(0.7), Homogeneous)
    assert isinstance(as_profile([0.7]), Homogeneous)
    assert isinstance(as_profile((0.6, 0.7)), PerVoter)
    p = as_profile(Homogeneous(0.8))
    assert p.theta == 0.8
    assert profile_thetas(Homogeneous(0.6), 3) == (0.6, 0.6, 0.6)
    assert profile_thetas(PerVoter((0.5, 0.6, 0.7)), 3) == (0.5, 0.6, 0.7)
    with pytest.raises(InvalidParameterError):
        profile_thetas(PerVoter((0.5, 0.6)), 3)
    with pytest.raises(InvalidParameterError):
        PerVoter(())


def test_a_string_profile_is_one_competence():
    hb = classical_rule("hb", 3)
    assert as_profile("0.7") == Homogeneous(0.7)
    assert loss(hb, 0.5, "0.7") == loss(hb, 0.5, 0.7)
    with pytest.raises(InvalidParameterError):
        loss(hb, 0.5, "x")


def test_table_prob_examples():
    assert table_prob((3, 0, 0, 0), "PQ", 0.6) == pytest.approx(0.6**6, abs=1e-15)
    th = 0.55
    assert table_prob((1, 1, 1, 0), "PQ", th) == pytest.approx(
        6 * th**4 * (1 - th) ** 2, abs=1e-15)
    assert table_prob((0, 0, 0, 3), "nPnQ", 0.6) == pytest.approx(0.6**6, abs=1e-15)


def test_table_law_matches_direct_formula():
    for n in (3, 5):
        for state in STATES:
            law = table_law(n, state, 0.7)
            for T in oracles.ordered_tables(n):
                assert law[VoteTable(*T)] == oracles.table_prob(T, state, 0.7)


def test_table_law_normalizes():
    for n in (1, 3, 5, 7):
        for state in STATES:
            for th in (0.51, 0.6, 0.85):
                law = table_law(n, state, th)
                assert math.fsum(law.values()) == pytest.approx(1.0, abs=1e-12)


def test_table_law_at_half_is_uniform_multinomial():
    law = table_law(3, "PQ", 0.5)
    for T, p in law.items():
        assert p == pytest.approx(oracles.multinom(tuple(T)) / 4**3, abs=1e-15)


def test_transpose_swaps_the_one_premiss_states():
    for T in oracles.ordered_tables(5):
        x, y, z, t = T
        tau = (x, z, y, t)
        assert oracles.table_prob(T, "PnQ", 0.7) == oracles.table_prob(tau, "nPQ", 0.7)
        assert table_prob(T, "PnQ", 0.7) == table_prob(tau, "nPQ", 0.7)


def test_reversal_swaps_the_two_premiss_states():
    for T in oracles.ordered_tables(5):
        x, y, z, t = T
        rev = (t, z, y, x)
        assert table_prob(T, "PQ", 0.7) == table_prob(rev, "nPnQ", 0.7)


def test_per_voter_law_matches_assignment_sum():
    thetas = (0.55, 0.6, 0.7)
    for state in ("PQ", "PnQ"):
        law = table_law(3, state, thetas)
        units = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        want = {}
        for slots in product(range(4), repeat=3):
            p = 1.0
            counts = [0, 0, 0, 0]
            for voter, slot in enumerate(slots):
                p *= oracles.table_prob(units[slot], state, thetas[voter])
                counts[slot] += 1
            key = tuple(counts)
            want[key] = want.get(key, 0.0) + p
        assert set(map(tuple, law)) == set(want)
        for T, p in law.items():
            assert p == pytest.approx(want[tuple(T)], rel=1e-12)


def test_per_voter_law_with_equal_thetas_matches_closed_form():
    for n in (1, 3, 5):
        hom = table_law(n, "PnQ", 0.65)
        per = table_law(n, "PnQ", PerVoter((0.65,) * n))
        for T, p in hom.items():
            assert per[T] == pytest.approx(p, abs=1e-13)


def test_rule_fp_fn_frozen_values():
    pb = classical_rule("pb", 3)
    assert rule_fp(pb, 0.6) == pytest.approx(3564 / 15625, abs=1e-12)
    assert rule_fn(pb, 0.6) == pytest.approx(9064 / 15625, abs=1e-12)
    assert rule_fp(pb, 0.6) == pytest.approx(0.228096, abs=1e-12)
    assert rule_fn(pb, 0.6) == pytest.approx(0.580096, abs=1e-12)


def test_rule_fp_fn_match_brute_force():
    preds = {"pb": oracles.pb, "cb": oracles.cb, "hb": oracles.hb}
    for n in (3, 5):
        for kind, pred in preds.items():
            rule = classical_rule(kind, n)
            for th in (0.55, 0.7, 0.9):
                assert rule_fp(rule, th) == pytest.approx(
                    oracles.rule_fp(pred, n, th), rel=1e-12)
                assert rule_fn(rule, th) == pytest.approx(
                    oracles.rule_fn(pred, n, th), rel=1e-12)


def test_positive_and_negative_mass_are_complementary():
    for rule in all_admissible_rules(3):
        for state in STATES:
            total = positive_mass(rule, state, 0.7) + negative_mass(rule, state, 0.7)
            assert total == pytest.approx(1.0, abs=1e-12)


def test_symmetric_rules_cannot_tell_the_one_premiss_states_apart():
    for rule in all_admissible_rules(3):
        for th in (0.55, 0.7, 0.9):
            fp_pnq = positive_mass(rule, "PnQ", th)
            fp_npq = positive_mass(rule, "nPQ", th)
            assert fp_pnq == fp_npq
            assert fp_pnq >= positive_mass(rule, "nPnQ", th) - 1e-12


def test_rule_fp_bayes():
    pb = classical_rule("pb", 3)
    th = 0.7
    masses = [negative_mass(pb, s, th) for s in NEGATIVE_STATES]
    uniform = rule_fp_bayes(pb, th, NegativePrior.uniform())
    assert uniform == pytest.approx(1.0 - math.fsum(masses) / 3.0, abs=1e-15)
    skewed = rule_fp_bayes(pb, th, (0.5, 0.3, 0.2))
    want = 1.0 - (0.5 * masses[0] + 0.3 * masses[1] + 0.2 * masses[2])
    assert skewed == pytest.approx(want, abs=1e-15)
    with pytest.raises(InvalidParameterError):
        NegativePrior(0.5, 0.5, 0.5)
    with pytest.raises(InvalidParameterError):
        NegativePrior(-0.1, 0.6, 0.5)
    for bad in ((math.nan, 0.5, 0.5), (0.5, math.inf, -math.inf), ("0.5", 0.25, 0.25),
                (None, 0.5, 0.5), (0.5j, 0.25, 0.25)):
        with pytest.raises(InvalidParameterError):
            NegativePrior(*bad)
        with pytest.raises(InvalidParameterError):
            rule_fp_bayes(pb, th, bad)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 3, 9, 21)), st.floats(0.5, 1 - 1e-9, exclude_min=True),
       st.sampled_from(("pb", "cb", "hb", "optimal")), st.booleans())
@example(21, 0.999, "optimal", False)  # 1 - P(no) gave 0.0 for 3.49e-28 here
@example(21, 1 - 1e-9, "pb", True)
def test_rule_fp_bayes_on_pnq_alone_is_rule_fp(n, th, kind, per_voter):
    rule = optimal_rule(n, 0.5, th) if kind == "optimal" else classical_rule(kind, n)
    profile = PerVoter(tuple(th ** (1 + i / n) for i in range(n))) if per_voter else th
    assert rule_fp_bayes(rule, profile, (1, 0, 0)) == rule_fp(rule, profile)


def test_rule_fp_bayes_builds_no_law_for_a_state_of_weight_zero():
    pb = classical_rule("pb", 9)
    profile = PerVoter(tuple(0.61 + 0.01 * i for i in range(9)))
    misses = probability._node_law.cache_info().misses
    assert rule_fp_bayes(pb, profile, (1, 0, 0)) == rule_fp(pb, profile)
    assert probability._node_law.cache_info().misses == misses + 1
    # the skipped terms were 0.0, so the sum is the three-term one
    prior = (0.25, 0, 0.75)
    want = math.fsum(wgt * positive_mass(pb, state, profile)
                     for state, wgt in zip(NEGATIVE_STATES, prior))
    assert rule_fp_bayes(pb, profile, prior) == want


def test_table_prob_is_the_table_law_entry():
    # every ordered table: both orientations, and y == z
    for n in (1, 3, 5, 7):
        for profile in (0.7, PerVoter(tuple(0.55 + 0.05 * i for i in range(n)))):
            for state in STATES:
                law = table_law(n, state, profile)
                assert {T: table_prob(T, state, profile) for T in law} == law


def test_table_prob_reads_one_entry_of_the_node_law(monkeypatch):
    law = node_law(99, "PnQ", 0.7)

    def refuse(n):
        raise AssertionError("table_prob listed the ordered tables")

    monkeypatch.setattr(probability, "ordered_tables", refuse)
    T = VoteTable(40, 29, 20, 10)
    node = _layout(99).node(T)
    assert table_prob(T, "PnQ", 0.7) == law.canon[node]
    assert table_prob(T.transpose(), "PnQ", 0.7) == law.trans[node]


def test_loss():
    pb = classical_rule("pb", 3)
    ev = loss(pb, 0.3, 0.6)
    assert ev.loss == 0.3 * ev.p_fp + 0.7 * ev.p_fn
    assert ev.w == 0.3
    assert ev.p_fp == rule_fp(pb, 0.6)
    for bad in (0.0, 1.0, -1.0):
        with pytest.raises(InvalidParameterError):
            loss(pb, bad, 0.6)


def test_mass_is_deterministic_and_cached():
    pb = classical_rule("pb", 5)
    a = positive_mass(pb, "PnQ", 0.7345)
    b = positive_mass(pb, "PnQ", 0.7345)
    assert a == b
    first = table_law(5, "PnQ", 0.7345)
    misses = probability._node_law.cache_info().misses
    again = table_law(5, "PnQ", 0.7345)
    assert list(again.items()) == list(first.items())
    assert probability._node_law.cache_info().misses == misses
    # the cache is keyed by the profile: a float and its Homogeneous share
    # one law, and the equal per-voter profile keeps its own
    law = node_law(5, "PnQ", 0.7)
    assert law is node_law(5, "PnQ", Homogeneous(0.7))
    assert law is not node_law(5, "PnQ", PerVoter((0.7,) * 5))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from((1, 3, 5)), st.sampled_from(STATES),
       st.floats(0.01, 0.99))
def test_law_normalization_property(n, state, th):
    law = table_law(n, state, th)
    assert math.fsum(law.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(p >= 0.0 for p in law.values())


@settings(max_examples=30, deadline=None)
@given(st.floats(0.51, 0.99), st.floats(0.01, 0.99))
def test_loss_bounds_property(th, w):
    pb = classical_rule("pb", 3)
    ev = loss(pb, w, th)
    assert 0.0 <= ev.p_fp <= 1.0
    assert 0.0 <= ev.p_fn <= 1.0
    assert 0.0 <= ev.loss <= 1.0


def assert_node_law_is_the_table_law(law, tables, n):
    """canon, trans and mass against an ordered-table law, bit for bit."""
    for T, c, t, m in zip(enumerate_tables(n), law.canon, law.trans, law.mass):
        tau = tuple(T.transpose())
        assert c == tables[tuple(T)]
        assert t == (tables[tau] if T.y != T.z else 0.0)
        assert m == (tables[tuple(T)] + tables[tau] if T.y != T.z else tables[tuple(T)])


odd_profiles = st.integers(0, 7).flatmap(
    lambda k: st.lists(st.one_of(st.just(0.5), st.floats(0.01, 0.99)),
                       min_size=2 * k + 1, max_size=2 * k + 1))


@settings(max_examples=30, deadline=None)
@given(odd_profiles, st.sampled_from(STATES))
@example([0.55 + 0.03 * i for i in range(15)], "PnQ")
@example([0.9 - 0.05 * i for i in range(15)], "nPnQ")
def test_per_voter_convolution_equals_the_dict_convolution_exactly(thetas, state):
    n = len(thetas)
    profile = PerVoter(tuple(thetas))
    want = oracles.per_voter_law(state, thetas)
    assert_node_law_is_the_table_law(node_law(n, state, profile), want, n)
    got = table_law(n, state, profile)
    assert {tuple(T): p for T, p in got.items()} == want


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10).map(lambda k: 2 * k + 1), st.sampled_from(STATES),
       st.one_of(st.just(0.5), st.floats(0.01, 0.99)))
def test_homogeneous_node_law_equals_the_closed_form_exactly(n, state, th):
    want = {T: oracles.table_prob(T, state, th) for T in oracles.ordered_tables(n)}
    assert_node_law_is_the_table_law(node_law(n, state, th), want, n)


competences = st.one_of(st.sampled_from((1e-300, 0.5, 1 - 2**-53)),
                        st.floats(0, 1, exclude_min=True, exclude_max=True))
# 31 competences, each drawn or all equal; a size-n law reads the first n
profiles_31 = st.one_of(st.lists(competences, min_size=31, max_size=31),
                        competences.map(lambda th: [th] * 31))


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9, 11, 21, 31])
@settings(max_examples=15, deadline=None)
@given(profiles_31)
@example([0.5] * 31)
@example([1e-300, 1 - 2**-53] * 15 + [0.6])
def test_the_plain_simplex_law_is_the_numpy_cube_bit_for_bit(n, thetas):
    profile = PerVoter(tuple(thetas[:n]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(probability, "_PLAIN_MAX_N", 0)
        cube = [probability._per_voter_law(n, state, profile) for state in State]
    # up to the crossover through the dispatch, above it straight to the executor
    plain = probability._per_voter_law if n <= 9 else probability._simplex_law
    assert [plain(n, state, profile) for state in State] == cube


def test_the_plain_law_serves_up_to_nine_voters_and_the_cube_above(monkeypatch):
    sizes, plain = [], probability._simplex_law
    monkeypatch.setattr(probability, "_simplex_law",
                        lambda n, *args: sizes.append(n) or plain(n, *args))
    for n in (9, 11):
        probability._per_voter_law(n, State.PQ, PerVoter((0.7,) * n))
    assert sizes == [9]


def test_masses_sum_the_node_law():
    rules = all_admissible_rules(3) + [classical_rule(k, 7) for k in ("pb", "cb", "hb")]
    for rule in rules:
        for profile in (0.7, PerVoter((0.55, 0.6, 0.9, 0.7, 0.65, 0.8, 0.75)[:rule.n])):
            for state in STATES:
                mass = node_law(rule.n, state, profile).mass
                pos = {i for i, T in enumerate(enumerate_tables(rule.n))
                       if T in rule.positives}
                assert positive_mass(rule, state, profile) == math.fsum(
                    mass[i] for i in pos)
                assert negative_mass(rule, state, profile) == math.fsum(
                    m for i, m in enumerate(mass) if i not in pos)


def test_node_law_validation():
    with pytest.raises(InvalidParameterError):
        node_law(4, "PQ", 0.6)
    with pytest.raises(InvalidParameterError):
        node_law(3, "PQ", PerVoter((0.6, 0.7)))
    with pytest.raises(InvalidParameterError):
        node_law(3, "QP", 0.6)


def test_theta_sweep_keeps_the_law_cache_bounded():
    cache = probability._node_law
    assert cache.cache_info().maxsize == probability.LAW_CACHE_SIZE
    rule = classical_rule("pb", 3)
    loss(rule, 0.5, 0.6)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for i in range(10_000):
            loss(rule, 0.5, 0.5 + (i + 0.5) / 20_000)
            assert cache.cache_info().currsize <= probability.LAW_CACHE_SIZE
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # an unbounded cache holds 20,000 laws here, about 57 MB
    assert peak < 2_000_000

import math

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from dilemma import (
    DecisionRule,
    Homogeneous,
    InvalidParameterError,
    RankingRequest,
    StructuralError,
    TableClass,
    TableType,
    classical_rule,
    classify,
    enumerate_classes,
    eta_star,
    g_eval,
    goodness_intervals,
    is_good,
    loss,
    optimal_rule,
    pb_optimal,
    pb_optimal_sufficient,
    pb_region,
    rank_rules,
    single_vote_law,
    table_class,
)

# greatest competence at which each class stays good, at w = 1/2
THETA0_AT_HALF = {
    (1, 2): 0.6477988712610424,
    (2, 3): 0.6628396990734372,
    (3, 4): 0.6657714015646663,
}


def xi(w):
    return 2.0 * (1.0 - w) / w


def log_g(cls, eta):
    """log G(eta) = (alpha - rho) log eta + log1p(eta**(-2 alpha)); never overflows."""
    rho, alpha = cls
    log_eta = math.log(eta)
    return (alpha - rho) * log_eta + math.log1p(math.exp(-2 * alpha * log_eta))


def log_xi(w):
    return math.log(2.0) + math.log1p(-w) - math.log(w)


# w down to 1e-300 and theta up to 1 - 1e-16, where G overflows
WS = st.one_of(st.sampled_from((1e-300, 1e-12, 0.5, 1 - 1e-12, 1 - 1e-16)),
               st.floats(1e-300, 1.0, exclude_max=True))
THETAS = st.one_of(st.sampled_from((0.5 + 1e-13, 0.9999, 1 - 1e-12, 1 - 1e-16)),
                   st.floats(0.5, 1 - 1e-16, exclude_min=True))


def test_classify():
    assert classify((3, 0)) is TableType.B
    assert classify((2, 1)) is TableType.B
    assert classify((1, 0)) is TableType.B
    assert classify((1, 2)) is TableType.C
    assert classify((2, 5)) is TableType.C
    assert classify((0, 1)) is TableType.A
    assert classify((0, 3)) is TableType.A
    assert classify((-1, 2)) is TableType.A
    assert classify((-3, 0)) is TableType.A
    assert classify((1, 1, 1, 0)) is TableType.B  # accepts tables too


def test_classify_rejects_bad_classes():
    with pytest.raises(InvalidParameterError):
        classify((1, 1))
    with pytest.raises(InvalidParameterError):
        classify((2, 2))
    with pytest.raises(InvalidParameterError):
        classify((1, -2))


def test_g_eval():
    assert g_eval((1, 0), 2.0) == 1.0
    assert g_eval((1, 2), 2.0) == 2.0 ** (-3) + 2.0
    with pytest.raises(InvalidParameterError):
        g_eval((1, 2), 1.0)
    with pytest.raises(InvalidParameterError):
        g_eval((1, 2), 0.9)
    for bad in (None, "e", 2j, [2.0]):
        with pytest.raises(InvalidParameterError, match="eta must be a real number"):
            g_eval((1, 2), bad)
    assert g_eval((1, 0), "2") == 1.0


def test_g_starts_at_two_with_slope_minus_two_rho():
    h = 1e-7
    for cls in ((1, 2), (3, 0), (-1, 2), (2, 1), (0, 3)):
        rho = cls[0]
        assert g_eval(cls, 1.0 + 1e-9) == pytest.approx(2.0, abs=1e-6)
        slope = (g_eval(cls, 1.0 + h) - g_eval(cls, 1.0 + 1e-12)) / h
        assert slope == pytest.approx(-2.0 * rho, abs=1e-3)


def test_eta_star():
    assert eta_star((1, 2)) == 3.0 ** 0.25
    for cls in ((1, 2), (2, 3), (1, 4), (3, 4)):
        es = eta_star(cls)
        assert g_eval(cls, es) < g_eval(cls, es * 1.01)
        assert g_eval(cls, es) < g_eval(cls, es * 0.99)
    with pytest.raises(InvalidParameterError):
        eta_star((3, 0))
    with pytest.raises(InvalidParameterError):
        eta_star((0, 1))


def test_is_good_basic():
    assert is_good((1, 0), 0.5, 0.7)
    assert is_good((3, 0), 0.5, 0.51)
    assert not is_good((0, 1), 0.5, 0.7)
    assert is_good((0, 1), 0.3, 0.51)
    assert is_good((1, 1, 1, 0), 0.5, 0.7)


def test_is_good_tie_counts_as_bad():
    # at w = theta = 3/4 the class (1, 0) sits exactly on the threshold
    assert g_eval((1, 0), 3.0) == xi(0.75)
    assert not is_good((1, 0), 0.75, 0.75)
    assert is_good((1, 0), 0.75, 0.76)


def test_is_good_validation():
    with pytest.raises(InvalidParameterError):
        is_good((1, 0), 0.5, 0.5)
    with pytest.raises(InvalidParameterError):
        is_good((1, 0), 0.5, 0.4)
    with pytest.raises(InvalidParameterError):
        is_good((1, 0), 0.0, 0.7)


def test_each_parameter_has_one_validator_and_one_message():
    def message(call, *args):
        with pytest.raises(InvalidParameterError) as exc:
            call(*args)
        return str(exc.value)

    pb = classical_rule("pb", 3)
    w_msg = "loss weight w must lie in (0, 1), got {}"
    assert message(loss, pb, 1.5, 0.6) == w_msg.format(1.5)
    assert message(is_good, (1, 0), 0.0, 0.7) == w_msg.format(0.0)
    assert message(goodness_intervals, (1, 0), 1.0) == w_msg.format(1.0)
    assert message(rank_rules, RankingRequest(3, -0.5, 0.6)) == w_msg.format(-0.5)
    # the probability model takes (0, 1); the goodness test (1/2, 1)
    model = "competence must lie in (0, 1), got {}"
    assert message(Homogeneous, 1.3) == model.format(1.3)
    assert message(single_vote_law, "PQ", 0.0) == model.format(0.0)
    goodness = "competence must lie in (1/2, 1) here, got {}"
    assert message(optimal_rule, 3, 0.5, 0.4) == goodness.format(0.4)
    assert message(is_good, (1, 0), 0.5, 0.5) == goodness.format(0.5)
    assert message(pb_optimal_sufficient, 0.5, 1.0) == goodness.format(1.0)
    assert Homogeneous(0.4).theta == 0.4


def test_non_numeric_w_and_theta_raise_the_validator_error():
    def message(call, *args):
        with pytest.raises(InvalidParameterError) as exc:
            call(*args)
        return str(exc.value)

    hb = classical_rule("hb", 3)
    w_msg = "loss weight w must be a real number, got {!r}"
    theta_msg = "competence must be a real number, got {!r}"
    assert message(optimal_rule, 3, None, 0.7) == w_msg.format(None)
    assert message(loss, hb, "x", 0.7) == w_msg.format("x")
    assert message(rank_rules, RankingRequest(3, 1j, 0.7)) == w_msg.format(1j)
    assert message(loss, hb, 0.5, "x") == theta_msg.format("x")
    assert message(loss, hb, 0.5, None) == theta_msg.format(None)
    assert message(is_good, (1, 0), 0.5, 0.7j) == theta_msg.format(0.7j)
    assert message(single_vote_law, "PQ", None) == theta_msg.format(None)
    # strings that parse as floats stay accepted
    assert optimal_rule(3, "0.5", "0.7") == optimal_rule(3, 0.5, 0.7)
    assert is_good((1, 0), "0.5", "0.7")


def test_goodness_intervals_type_a():
    prof = goodness_intervals((0, 1), 0.5)
    assert prof.kind is TableType.A and prof.intervals == ()
    assert goodness_intervals((-2, 1), 0.7).intervals == ()
    # for class (-1, 0) the threshold solves 2 eta = xi, so theta0 = 1 - w
    prof = goodness_intervals((-1, 0), 0.3)
    (lo, hi), = prof.intervals
    assert lo == 0.5
    assert hi == pytest.approx(0.7, abs=1e-9)
    assert is_good((-1, 0), 0.3, hi - 1e-6)
    assert not is_good((-1, 0), 0.3, hi + 1e-6)


def test_goodness_intervals_type_b():
    prof = goodness_intervals((3, 0), 0.5)
    assert prof.kind is TableType.B and prof.intervals == ((0.5, 1.0),)
    prof = goodness_intervals((3, 0), 0.7)
    (lo, hi), = prof.intervals
    assert hi == 1.0 and 0.5 < lo < 1.0
    root = oracles.bisect_g_root(3, 0, xi(0.7), 1.0, 10.0)
    assert lo == pytest.approx(root / (1.0 + root), abs=1e-10)
    assert is_good((3, 0), 0.7, lo + 1e-6)
    assert not is_good((3, 0), 0.7, lo - 1e-6)


def test_goodness_intervals_type_c_at_half():
    for cls, theta0 in THETA0_AT_HALF.items():
        prof = goodness_intervals(cls, 0.5)
        (lo, hi), = prof.intervals
        assert lo == 0.5
        assert hi == pytest.approx(theta0, abs=1e-9)
        root = oracles.bisect_g_root(cls[0], cls[1], 2.0, eta_star(cls), 10.0)
        assert hi == pytest.approx(root / (1.0 + root), abs=1e-10)


def test_goodness_intervals_type_c_two_roots():
    prof = goodness_intervals((1, 2), 0.52)
    (lo, hi), = prof.intervals
    assert 0.5 < lo < hi < 1.0
    mid = 0.5 * (lo + hi)
    assert is_good((1, 2), 0.52, mid)
    assert not is_good((1, 2), 0.52, lo - 1e-6)
    assert not is_good((1, 2), 0.52, hi + 1e-6)
    es = eta_star((1, 2))
    r1 = oracles.bisect_g_root(1, 2, xi(0.52), 1.0 + 1e-12, es)
    r2 = oracles.bisect_g_root(1, 2, xi(0.52), es, 10.0)
    assert lo == pytest.approx(r1 / (1.0 + r1), abs=1e-10)
    assert hi == pytest.approx(r2 / (1.0 + r2), abs=1e-10)


def test_goodness_intervals_type_c_empty_and_degenerate():
    prof = goodness_intervals((1, 2), 0.7)
    assert prof.intervals == () and not prof.degenerate
    es = eta_star((1, 2))
    w_t = 2.0 / (2.0 + g_eval((1, 2), es))
    prof = goodness_intervals((1, 2), w_t)
    assert prof.degenerate and prof.intervals == ()


def test_goodness_intervals_agree_with_pointwise_test():
    ws = (0.1, 0.3, 0.45, 0.5, 0.52, 0.55, 0.6, 0.7, 0.9)
    for cls in enumerate_classes(7):
        for w in ws:
            prof = goodness_intervals(cls, w)
            if prof.degenerate:
                continue
            endpoints = [e for iv in prof.intervals for e in iv]
            for i in range(1, 400):
                th = 0.5 + i / 800.0
                if any(abs(th - e) < 1e-9 for e in endpoints):
                    continue
                inside = any(lo < th < hi for lo, hi in prof.intervals)
                assert is_good(cls, w, th) == inside, (tuple(cls), w, th)


def test_optimal_rule_frozen_classes():
    rule = optimal_rule(3, 0.5, 0.6)
    assert {tuple(c) for c in rule.positive_classes()} == {
        (3, 0), (2, 1), (1, 2), (1, 0)}
    for th in (0.65, 0.7):
        rule = optimal_rule(3, 0.5, th)
        assert rule.positives == classical_rule("pb", 3).positives
    assert optimal_rule(3, 0.9, 0.55).positives == frozenset()


def test_optimal_rule_matches_pointwise_goodness():
    for n in (3, 5):
        for w in (0.3, 0.5, 0.7):
            for th in (0.55, 0.6, 2 / 3, 0.75, 0.9):
                rule = optimal_rule(n, w, th)
                assert rule.admissible
                assert rule.is_class_constant()
                good = {tuple(c) for c in enumerate_classes(n)
                        if is_good(c, w, th)}
                assert {tuple(c) for c in rule.positive_classes()} == good
                for T in oracles.ordered_tables(n):
                    want = int(is_good(table_class(T), w, th))
                    assert rule.decides(T) == want


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(range(1, 100, 2)), WS, THETAS)
@example(99, 0.5, 0.9999)  # G of (0, 99) overflows
@example(99, 1e-300, 1 - 1e-16)
def test_optimal_rule_is_the_union_of_the_good_classes(n, w, theta):
    rule = optimal_rule(n, w, theta)
    assert rule.positive_classes() == tuple(
        c for c in enumerate_classes(n) if is_good(c, w, theta))
    assert rule.is_class_constant()


@settings(max_examples=300, deadline=None)
@given(st.integers(-99, 99).flatmap(  # every class of some odd n <= 99
           lambda r: st.integers(0, (99 - abs(r)) // 2).map(
               lambda k: TableClass(r, 99 - abs(r) - 2 * k))),
       WS, THETAS)
def test_is_good_agrees_with_the_log_form(cls, w, theta):
    eta = theta / (1.0 - theta)
    g = g_eval(cls, eta)
    # the log form is only as good as its rounding near the threshold
    assume(math.isfinite(g) and abs(g - xi(w)) > 1e-12 * xi(w))
    assert is_good(cls, w, theta) == (log_g(cls, eta) < log_xi(w))


# competences above 1/2 on the two-decimal grid, and w on the same grid
GRID_THETAS = tuple(k / 100 for k in range(51, 100))
GRID_WS = tuple(k / 100 for k in range(1, 100))
DIAGONAL = THETAS.map(lambda theta: (theta, theta))  # w = theta, G = xi for (1, 0)


@st.composite
def classes_of(draw, n):
    """Any class of size n, class (1, 0) often: it ties on the diagonal."""
    if draw(st.booleans()):
        return TableClass(1, 0)
    rho = draw(st.integers(-n, n))
    return TableClass(rho, n - abs(rho) - 2 * draw(st.integers(0, (n - abs(rho)) // 2)))


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(range(1, 100, 2)).flatmap(
           lambda n: st.tuples(st.just(n), classes_of(n))),
       st.one_of(DIAGONAL, st.tuples(st.sampled_from(GRID_WS), st.sampled_from(GRID_THETAS)),
                 st.sampled_from(GRID_THETAS).map(lambda theta: (theta, theta)),
                 st.tuples(WS, THETAS)))
@example((3, TableClass(1, 0)), (0.7, 0.7))  # G = xi exactly; float G is below xi
@example((99, TableClass(1, 0)), (0.57, 0.57))
def test_goodness_agrees_with_exact_arithmetic(n_cls, w_theta):
    (n, cls), (w, theta) = n_cls, w_theta
    assert is_good(cls, w, theta) == oracles.exact_good(cls, w, theta)
    pb_class = ((n - 1) // 2, (n + 1) // 2)
    assert pb_optimal(n, w, theta) == (
        theta >= w and not oracles.exact_good(pb_class, w, theta))


def test_optimal_rule_validation():
    with pytest.raises(InvalidParameterError):
        optimal_rule(4, 0.5, 0.7)
    with pytest.raises(InvalidParameterError):
        optimal_rule(3, 0.5, 0.5)
    with pytest.raises(InvalidParameterError):
        optimal_rule(3, 1.0, 0.7)


def test_optimal_rule_rejects_an_inadmissible_rule(monkeypatch):
    bad = DecisionRule.from_tables(3, [(1, 1, 1, 0)])
    monkeypatch.setattr(DecisionRule, "_of_classes",
                        classmethod(lambda cls, n, classes: bad))
    with pytest.raises(StructuralError, match="upper set"):
        optimal_rule(3, 0.5, 0.6)


def test_goodness_beyond_the_float_range():
    # eta = 9999 and |exponent| = 99 overflow a float
    assert g_eval((0, 99), 9999.0) == math.inf
    assert not is_good((0, 99), 0.5, 0.9999)
    assert goodness_intervals((0, 99), 0.5).intervals == ()
    rule = optimal_rule(99, 0.5, 0.9999)
    assert rule.admissible
    assert pb_optimal(99, 0.5, 0.9999)
    assert rule.positives == classical_rule("pb", 99).positives


def test_pb_is_the_union_of_high_margin_classes():
    for n in (3, 5, 7):
        pb = classical_rule("pb", n)
        want = {tuple(c) for c in enumerate_classes(n) if c.rho > c.alpha}
        assert {tuple(c) for c in pb.positive_classes()} == want
        assert pb.is_class_constant()


def test_pb_optimal_flip_at_the_threshold():
    for n, cls in ((3, (1, 2)), (5, (2, 3)), (7, (3, 4))):
        theta0 = goodness_intervals(cls, 0.5).intervals[0][1]
        assert not pb_optimal(n, 0.5, theta0 - 1e-9)
        assert pb_optimal(n, 0.5, theta0 + 1e-9)


def test_pb_optimal_requires_theta_at_least_w():
    assert not pb_optimal(3, 0.8, 0.7)
    assert pb_optimal(3, 0.8, 0.85)


def test_pb_optimal_iff_optimal_rule_is_pb():
    for n in (3, 5, 7):
        pb = classical_rule("pb", n).positives
        for i in range(1, 21):
            th = 0.5 + i / 42.0
            for j in range(1, 19):
                w = j / 19.0
                got = pb_optimal(n, w, th)
                assert got == (optimal_rule(n, w, th).positives == pb), (n, w, th)


def test_pb_optimal_sufficient_implies_exact():
    for n in (3, 5, 7, 9):
        for i in range(1, 40):
            th = 0.5 + i / 80.0
            for j in range(1, 20):
                w = j / 20.0
                if pb_optimal_sufficient(w, th):
                    assert pb_optimal(n, w, th)


def test_pb_region_shape():
    rows = list(pb_region(3, 10))
    assert len(rows) == 100
    thetas = sorted({r[0] for r in rows})
    ws = sorted({r[1] for r in rows})
    assert len(thetas) == len(ws) == 10
    assert all(0.5 < th < 1.0 for th in thetas)
    assert all(0.0 < w < 1.0 for w in ws)
    assert rows[0][0] == thetas[0] and rows[0][1] == ws[0]
    for _, _, exact, sufficient in rows:
        assert isinstance(exact, bool) and isinstance(sufficient, bool)
        if sufficient:
            assert exact
    for resolution in (0, 2.5, True, "10"):
        with pytest.raises(InvalidParameterError):
            pb_region(3, resolution)

import contextlib
import hashlib
import heapq
import io
import json
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from dilemma import (
    DecisionRule,
    Homogeneous,
    InvalidParameterError,
    PerVoter,
    RankingRequest,
    State,
    as_profile,
    build_poset,
    classical_rule,
    empty_rule,
    evaluate_rule,
    loss,
    node_law,
    optimal_rule,
    rank_rules,
    ranking_record,
)
from dilemma.cli import run
import dilemma.ranking
from dilemma.ranking import (ENUMERATION_BOUND, _MARGIN, _masses, _scored, _table,
                           _tree)
from dilemma.tables import _layout

# SHA-256 prefixes of `dilemma rank --format json` then `--format text
# --precision 17` stdout, recorded before the rankings read the per-node
# law: exact ties (theta = 1/2 or w = 1/2, equal per-voter competences)
# are ordered by how the class weights were summed, so any change in
# that summation shows up here
RANK_TIE_DIGESTS = {
    (3, "0.5", "0.5", "both", 40): "060ca93242b12283",
    (3, "0.5", "0.6,0.6,0.7", "compact", 16): "6aff190378b7f16d",
    (5, "0.5", "0.5", "both", 12): "1793d87941d071d8",
    (5, "0.5", "0.5,0.5,0.5,0.5,0.5", "both", 12): "f2e4bfaa78300f45",
    (5, "0.5", "0.7,0.7,0.7,0.7,0.7", "both", 12): "a2264ee01a2145e9",
    (5, "0.3", "0.6,0.6,0.6,0.6,0.6", "extended", 12): "ef8f794429e18d0c",
    (5, "0.5", "0.6,0.6,0.6,0.6,0.6", "compact", 64): "9e436a3229ae9c0e",
    (7, "0.5", "0.5", "compact", 40): "7aef6ce1bd3f7ee7",
    (7, "0.5", "0.6", "compact", 60): "7437c1365a3941f2",
    (7, "0.5", "0.6,0.6,0.6,0.6,0.6,0.6,0.6", "compact", 40): "3694307d8b967473",
    (9, "0.5", "0.5", "compact", 40): "e99e02dc93e4591b",
    (9, "0.5", "0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5", "compact", 40): "0940ca6aeac72ea6",
    (9, "0.5", "0.6,0.6,0.6,0.6,0.6,0.6,0.6,0.6,0.6", "compact", 40): "53c5a1090012008f",
    # four equal printed losses whose order Python 3.12's compensated
    # builtin sum used to change
    (3, "0.3", "0.7", "extended", 40): "e2c26035872e61fd",
}


def test_rank_one_matches_optimal_rule():
    ranked = rank_rules(RankingRequest(3, 0.5, 0.6, mode="extended", k=1))
    assert len(ranked) == 1
    top = ranked[0]
    assert top.rank == 1
    assert top.rule.positives == optimal_rule(3, 0.5, 0.6).positives
    assert top.evaluation.loss == pytest.approx(0.39776, abs=1e-12)


def test_full_extended_ranking():
    ranked = rank_rules(RankingRequest(3, 0.5, 0.7, mode="extended", k=100))
    assert len(ranked) == 36
    assert [r.rank for r in ranked] == list(range(1, 37))
    losses = [r.evaluation.loss for r in ranked]
    assert losses == sorted(losses)
    assert ranked[0].rule.positives == classical_rule("pb", 3).positives
    assert ranked[0].name == "pb"


def test_ranking_minimum_matches_brute_force_over_all_rules():
    # global minimum over every monotone labeling, not only admissible ones
    n, w, th = 3, 0.5, 0.7
    po = build_poset(n, "extended")
    nodes = [tuple(v) for v in po.nodes]
    uppers = oracles.all_upper_sets(nodes, {(tuple(a), tuple(b))
                                            for a, b in po.covers})
    best = min(
        w * oracles.rule_fp(lambda T, u=u: oracles.canon(T) in u, n, th)
        + (1 - w) * oracles.rule_fn(lambda T, u=u: oracles.canon(T) in u, n, th)
        for u in uppers)
    top = rank_rules(RankingRequest(n, w, th, mode="extended", k=1))[0]
    assert top.evaluation.loss == pytest.approx(best, abs=1e-12)


def test_compact_ranking_covers_class_constant_rules():
    ranked = rank_rules(RankingRequest(3, 0.5, 0.6, mode="compact", k=100))
    assert len(ranked) == 16
    for r in ranked:
        assert r.rule.is_class_constant()
    ext = rank_rules(RankingRequest(3, 0.5, 0.6, mode="extended", k=1))[0]
    assert ranked[0].rule.positives == ext.rule.positives


def test_per_voter_ranking_agrees_across_modes():
    profile = PerVoter((0.6, 0.7, 0.8))
    ext = rank_rules(RankingRequest(3, 0.5, profile, mode="extended", k=1))[0]
    cmp_ = rank_rules(RankingRequest(3, 0.5, profile, mode="compact", k=1))[0]
    assert ext.rule.positives == cmp_.rule.positives
    assert ext.name == cmp_.name == "pb"
    assert ext.evaluation.loss == pytest.approx(cmp_.evaluation.loss, abs=1e-12)


def test_reported_losses_round_trip_through_the_library():
    req = RankingRequest(3, 0.35, 0.62, mode="extended", k=10)
    for r in rank_rules(req):
        ev = loss(r.rule, 0.35, 0.62)
        assert r.evaluation.loss == ev.loss
        assert r.evaluation.p_fp == ev.p_fp
        assert r.evaluation.p_fn == ev.p_fn
        rebuilt = DecisionRule.from_antichain(3, r.antichain)
        assert rebuilt.positives == r.rule.positives


def test_ranking_is_deterministic():
    req = RankingRequest(5, 0.4, 0.63, mode="extended", k=20)
    a = json.dumps(ranking_record(req, rank_rules(req)))
    b = json.dumps(ranking_record(req, rank_rules(req)))
    assert a == b


def test_no_rule_outranks_one_that_dominates_it():
    ranked = rank_rules(RankingRequest(3, 0.5, 0.6, mode="extended", k=100))
    for i, hi in enumerate(ranked):
        for lo in ranked[i + 1:]:
            strictly_better = (
                lo.evaluation.p_fp <= hi.evaluation.p_fp
                and lo.evaluation.p_fn <= hi.evaluation.p_fn
                and (lo.evaluation.p_fp < hi.evaluation.p_fp
                     or lo.evaluation.p_fn < hi.evaluation.p_fn))
            assert not strictly_better


def test_empty_rule_wins_when_nothing_is_good():
    top = rank_rules(RankingRequest(3, 0.9, 0.55, mode="extended", k=1))[0]
    assert top.antichain == ()
    assert top.rule.positives == frozenset()
    assert top.evaluation.loss == pytest.approx(0.1, abs=1e-12)


def test_classical_names():
    assert evaluate_rule(classical_rule("pb", 3), 0.5, 0.6).name == "pb"
    assert evaluate_rule(classical_rule("cb", 3), 0.5, 0.6).name == "cb,hb"
    assert evaluate_rule(classical_rule("cb", 7), 0.5, 0.6).name == "cb"
    assert evaluate_rule(empty_rule(3), 0.5, 0.6).name is None
    assert evaluate_rule(empty_rule(3), 0.5, 0.6).rank is None


def test_rank_rules_builds_each_classical_rule_once(monkeypatch):
    kinds = []

    def counting(kind, n):
        kinds.append(kind)
        return classical_rule(kind, n)

    monkeypatch.setattr("dilemma.ranking.classical_rule", counting)
    ranked = rank_rules(RankingRequest(3, 0.5, 0.7, mode="extended", k=5))
    assert sorted(kinds) == ["cb", "hb", "pb"]
    assert ranked[0].name == "pb"


def test_enumeration_bounds():
    assert ENUMERATION_BOUND == {"extended": 5, "compact": 9}
    with pytest.raises(InvalidParameterError, match="force"):
        rank_rules(RankingRequest(7, 0.5, 0.7, mode="extended"))
    with pytest.raises(InvalidParameterError, match="force"):
        rank_rules(RankingRequest(11, 0.5, 0.7, mode="compact"))


def test_force_allows_larger_compact_scans():
    top = rank_rules(RankingRequest(11, 0.5, 0.7, mode="compact", k=1,
                                    force=True))[0]
    assert top.name == "pb"
    assert top.rule.positives == classical_rule("pb", 11).positives


def test_request_validation():
    with pytest.raises(InvalidParameterError):
        rank_rules(RankingRequest(3, 0.5, 0.6, mode="quotient"))
    for k in (0, 2.5, True, "2"):
        with pytest.raises(InvalidParameterError):
            rank_rules(RankingRequest(3, 0.5, 0.6, k=k))
    with pytest.raises(InvalidParameterError):
        rank_rules(RankingRequest(3, 1.5, 0.6))
    with pytest.raises(InvalidParameterError):
        rank_rules(RankingRequest(3, 0.5, PerVoter((0.6, 0.7))))
    with pytest.raises(InvalidParameterError):
        rank_rules(RankingRequest(4, 0.5, 0.6))


def test_ranking_record_schema():
    req = RankingRequest(3, 0.5, 0.6, mode="extended", k=3)
    rec = ranking_record(req, rank_rules(req))
    assert set(rec) == {"mode", "n", "w", "thetas", "rules"}
    assert rec["mode"] == "extended" and rec["n"] == 3
    assert rec["thetas"] == [0.6]
    assert len(rec["rules"]) == 3
    for i, entry in enumerate(rec["rules"], start=1):
        assert entry["rank"] == i
        assert all(len(v) == 4 for v in entry["antichain"])
        assert set(entry) <= {"rank", "antichain", "name", "p_fp", "p_fn", "loss"}
    creq = RankingRequest(3, 0.5, PerVoter((0.6, 0.7, 0.8)), mode="compact", k=2)
    crec = ranking_record(creq, rank_rules(creq))
    assert crec["thetas"] == [0.6, 0.7, 0.8]
    assert all(len(v) == 2 for entry in crec["rules"]
               for v in entry["antichain"])


@pytest.mark.parametrize("case", sorted(RANK_TIE_DIGESTS))
def test_rank_output_is_byte_identical_on_ties(case):
    n, w, theta, mode, k = case
    digest = hashlib.sha256()
    for fmt in ("json", "text"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run(["rank", "--n", str(n), "--w", w, "--theta", theta,
                        "--mode", mode, "--k", str(k), "--format", fmt,
                        "--precision", "17"]) == 0
        digest.update(out.getvalue().encode())
    assert digest.hexdigest()[:16] == RANK_TIE_DIGESTS[case]


def _same_ranking(req):
    ranked, scanned = rank_rules(req), oracles.rank_scan(req)
    assert json.dumps(ranking_record(req, ranked)) == \
        json.dumps(ranking_record(req, scanned))
    assert [r.rule for r in ranked] == [r.rule for r in scanned]
    assert [r.antichain for r in ranked] == [r.antichain for r in scanned]


@st.composite
def ranking_requests(draw):
    mode = draw(st.sampled_from(("extended", "compact")))
    n = draw(st.sampled_from((1, 3, 5) if mode == "extended" else (1, 3, 5, 7, 9)))
    w = draw(st.one_of(st.just(0.5), st.floats(0.01, 0.99)))
    theta = st.one_of(st.sampled_from((0.5, 0.6, 0.7)), st.floats(0.5, 0.99))
    kind = draw(st.sampled_from(("homogeneous", "equal", "per-voter")))
    if kind == "homogeneous":
        profile = Homogeneous(draw(theta))
    elif kind == "equal":
        profile = PerVoter((draw(theta),) * n)
    else:
        profile = PerVoter(tuple(draw(theta) for _ in range(n)))
    k = draw(st.sampled_from((1, 5, 10**6)))
    return RankingRequest(n, w, profile, mode=mode, k=k)


@settings(max_examples=60, deadline=None)
@given(ranking_requests())
def test_table_ranking_matches_the_antichain_scan(req):
    # float bits and tie order included: theta = 1/2, w = 1/2 and
    # all-equal profiles make exact ties
    _same_ranking(req)


@pytest.mark.parametrize("n, mode", [(7, "extended"), (11, "compact")])
def test_forced_table_ranking_matches_the_antichain_scan(n, mode):
    _same_ranking(RankingRequest(n, 0.5, PerVoter((0.6,) * (n - 2) + (0.7, 0.8)),
                                 mode=mode, k=8, force=True))


# SHA-256 of repr of the upper-set table, recorded before the table was
# read off Poset.upper_sets
TABLE_DIGESTS = {
    (5, "extended"): "3676ad6ebdd75d7aa46f436ed6e97fbea4ce3d85a21cba7b13e337093d2d846e",
    (9, "compact"): "093a1460a70587dbe2abdef7911b90974757474a0ab4354a60f51b9f4456098f",
}


@pytest.mark.parametrize("n, mode", sorted(TABLE_DIGESTS))
def test_upper_set_table_is_byte_identical(n, mode):
    rows = _table(n, mode)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == TABLE_DIGESTS[n, mode]


def test_upper_set_tables_stay_within_the_cache_bound():
    # a table is kept by its size's node layout, and dropped with it
    first = _table(1, "compact")
    for mode, ns in (("extended", (1, 3, 5)), ("compact", (1, 3, 5, 7, 9))):
        for n in ns:
            rank_rules(RankingRequest(n, 0.5, 0.6, mode=mode, k=1))
            assert _table(n, mode) is _table(n, mode)
    assert _layout.cache_info().maxsize == 4  # sizes 3 to 9 evict size 1
    again = _table(1, "compact")
    assert again == first and again is not first


@pytest.mark.parametrize("mode", ["extended", "quotient"])
def test_node_order_is_a_linear_extension_of_the_covers(mode):
    # so a row less its last node is an upper set, the row's parent (not
    # claimed for optimality_reduced, whose node order is not one)
    for n in (*range(1, 42, 2), 99):
        po = build_poset(n, mode)
        assert all(u < j for j, ups in enumerate(po._up) for u in ups), n


@pytest.mark.parametrize("n, mode", [(n, "extended") for n in (1, 3, 5, 7)]
                         + [(n, "compact") for n in (1, 3, 5, 7, 9, 11)])
def test_rows_rebuild_from_their_parents(n, mode):
    # n = 7 extended and n = 11 compact are forced sizes
    rows = [()]
    for parent, last, _ in _tree(n, mode):
        assert parent < len(rows)
        rows.append(rows[parent] + (last,))
    assert tuple(rows) == _table(n, mode)
    # rows r+1 .. end-1 are exactly the rows that extend row r: each of
    # them starts with row r, and as many rows in all do
    extending = {}
    for row in rows:
        for i in range(len(row)):
            extending[row[:i]] = extending.get(row[:i], 0) + 1
    for r, (_, _, end) in enumerate(_tree(n, mode), start=1):
        row = rows[r]
        assert all(rows[q][:len(row)] == row for q in range(r + 1, end))
        assert end - r - 1 == extending.get(row, 0)


def _term_by_term(rows, masses):
    sums = []
    for row in rows:
        total = 0.0
        for i in row:
            total += masses[i]
        sums.append(total)
    return sums


def _node_masses(n, mode, profile):
    profile = as_profile(profile)
    return _masses(n, mode, node_law(n, State.PnQ, profile), node_law(n, State.PQ, profile))


def _every_row_scored(n, mode, fp_c, fn_c, w):
    """(score, fp, row) of every row, each mass summed term by term."""
    rows = _table(n, mode)
    fp, miss = _term_by_term(rows, fp_c), _term_by_term(rows, fn_c)
    fn_total = 0.0
    for m in fn_c:
        fn_total += m
    return [(w * f + (1.0 - w) * (fn_total - m), f, r)
            for r, (f, m) in enumerate(zip(fp, miss))]


@settings(max_examples=60, deadline=None)
@given(ranking_requests())
@example(RankingRequest(5, 0.5, Homogeneous(0.5), mode="extended", k=5))
@example(RankingRequest(9, 0.5, PerVoter((0.6,) * 9), mode="compact", k=5))
@example(RankingRequest(5, 5e-324, PerVoter((0.6, 0.7, 0.8, 0.9, 0.99)), mode="extended", k=5))
@example(RankingRequest(9, 5e-324, Homogeneous(0.7), mode="compact", k=1))
@example(RankingRequest(5, 1 - 1e-16, Homogeneous(0.6), mode="extended", k=5))
@example(RankingRequest(9, 1 - 1e-16, PerVoter((0.55, 0.9) * 4 + (0.7,)), mode="compact", k=10**6))
@example(RankingRequest(5, 0.3, Homogeneous(0.99999), mode="extended", k=5))
@example(RankingRequest(9, 0.7, Homogeneous(0.99999), mode="compact", k=5))
@example(RankingRequest(5, 0.5, PerVoter((0.7,) * 5), mode="extended", k=10**6))
@example(RankingRequest(9, 0.3, PerVoter((0.5,) * 9), mode="compact", k=8))
def test_rows_are_scored_from_their_parents(req):
    # float bits and tie order: the walk sums each row as the node-order
    # fold, skips no row that reaches the k best, and keeps the k best of
    # nsmallest over every (score, fp, row)
    fp_c, fn_c = _node_masses(req.n, req.mode, req.profile)
    every = _every_row_scored(req.n, req.mode, fp_c, fn_c, req.w)
    assert _scored(_tree(req.n, req.mode), fp_c, fn_c, req.w, req.k) == \
        heapq.nsmallest(req.k, every)


@pytest.mark.parametrize("n, mode", [(7, "extended"), (11, "compact")])
def test_forced_sizes_are_scored_as_every_row(n, mode):
    fp_c, fn_c = _node_masses(n, mode, PerVoter((0.6,) * (n - 2) + (0.7, 0.8)))
    for w in (0.2, 0.5, 0.8):
        every = _every_row_scored(n, mode, fp_c, fn_c, w)
        for k in (1, 8, 10**6):
            assert _scored(_tree(n, mode), fp_c, fn_c, w, k) == \
                heapq.nsmallest(k, every), (w, k)


@pytest.mark.parametrize("margin", [_MARGIN, 0.0])
def test_a_tie_inside_a_subtree_at_its_bound_is_kept(monkeypatch, margin):
    # rows (), (0,), (1,), (1, 2); at w = 1/2 every sum below is exact.
    # (0,) scores 1/2 first; the subtree of (1,) can lower its 11/16 by
    # 3/16 at most, down to 1/2 exactly, and (1, 2) ties (0,) there with
    # less false positive mass, so it must be walked into even with no margin
    monkeypatch.setattr(dilemma.ranking, "_MARGIN", margin)
    tree = ((0, 0, 2), (0, 1, 4), (2, 2, 4))
    fp_c, fn_c = (0.5, 0.125, 0.125), (0.75, 0.0, 0.5)
    assert _scored(tree, fp_c, fn_c, 0.5, 1) == [(0.5, 0.25, 3)]
    assert _scored(tree, fp_c, fn_c, 0.5, 2) == [(0.5, 0.25, 3), (0.5, 0.5, 1)]


@pytest.mark.parametrize("n, mode, profile", [
    (3, "extended", Homogeneous(0.5)),
    (5, "extended", PerVoter((0.55, 0.6, 0.7, 0.8, 0.99))),
    (5, "extended", Homogeneous(0.99999)),
    (7, "compact", Homogeneous(0.7)),
    (9, "compact", PerVoter((0.6, 0.7, 0.8) * 3)),
    (9, "compact", PerVoter((0.999999,) * 9)),
])
def test_float_scores_and_bounds_are_far_inside_the_margin(n, mode, profile):
    # the exact score of every row, and the exact least gain of the nodes
    # after each one, from the same float masses: the float walk is off by
    # less than a thousandth of the margin, so a skip never drops a row
    fp_c, fn_c = _node_masses(n, mode, profile)
    tree, ex_fp, ex_fn = _tree(n, mode), [Fraction(0)], [Fraction(0)]
    for parent, last, _ in tree:
        ex_fp.append(ex_fp[parent] + Fraction(fp_c[last]))
        ex_fn.append(ex_fn[parent] + Fraction(fn_c[last]))
    fn_total = sum(map(Fraction, fn_c))
    for w in (5e-324, 0.2, 0.5, 1 - 1e-16):
        fw = Fraction(w)
        floats = _every_row_scored(n, mode, fp_c, fn_c, w)
        for (s, _, _), f, m in zip(floats, ex_fp, ex_fn):
            assert abs(Fraction(s) - (fw * f + (1 - fw) * (fn_total - m))) < _MARGIN / 1000
        gains = [w * f - (1.0 - w) * m for f, m in zip(fp_c, fn_c)]
        below = accumulate(reversed(gains), lambda b, g: b + min(g, 0.0), initial=0.0)
        exact = accumulate((min(fw * Fraction(f) - (1 - fw) * Fraction(m), 0)
                            for f, m in zip(reversed(fp_c), reversed(fn_c))), initial=0)
        for b, e in zip(below, exact):
            assert abs(Fraction(b) - e) < _MARGIN / 1000


class _CountingMasses:
    """A sequence that counts its item reads and its passes."""

    def __init__(self, masses):
        self.masses, self.reads, self.passes = list(masses), 0, 0

    def __len__(self):
        return len(self.masses)

    def __getitem__(self, i):
        self.reads += 1
        return self.masses[i]

    def __iter__(self):
        self.passes += 1
        return iter(self.masses)


def test_each_walked_row_is_scored_with_one_addition_per_mass(monkeypatch):
    seen = []
    scored = dilemma.ranking._scored

    def counting(tree, fp_c, fn_c, w, k):
        seen.extend(map(_CountingMasses, (tree, fp_c, fn_c)))
        return scored(*seen, w, k)

    monkeypatch.setattr(dilemma.ranking, "_scored", counting)
    ranked = rank_rules(RankingRequest(9, 0.3, (0.6, 0.7, 0.8) * 3, mode="compact", k=5))
    assert len(ranked) == 5
    tree, fp, fn = seen
    walked = tree.reads  # every row after the empty one reads its tree entry once
    assert (fp.reads, fn.reads) == (walked, walked)
    # one pass over both, for fn_total and the node gains; none over the tree
    assert (fp.passes, fn.passes, tree.passes) == (1, 1, 0)
    assert walked + 1 < len(_table(9, "compact")) / 3


def test_the_mass_counter_sees_a_refold_of_every_row():
    rows = _table(9, "compact")
    masses = _CountingMasses([0.25] * len(_layout(9).groups))
    _term_by_term(rows, masses)
    assert masses.reads == sum(len(row) for row in rows) == 28_160

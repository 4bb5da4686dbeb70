import gc
import hashlib
import random
import re
import weakref

import pytest

import oracles
from dilemma import (
    InvalidParameterError,
    StructuralError,
    TableClass,
    VoteTable,
    build_poset,
    max_antichain_size,
    table_count,
    to_dot,
)
from dilemma.poset import MODES, Poset
from dilemma.tables import _layout

# Worked out by hand from the covering moves.
QUOTIENT_COVERS_N3 = {
    ((-3, 0), (-2, 1)),
    ((-2, 1), (-1, 0)),
    ((-2, 1), (-1, 2)),
    ((-1, 0), (0, 1)),
    ((-1, 2), (0, 1)),
    ((-1, 2), (0, 3)),
    ((0, 1), (1, 0)),
    ((0, 1), (1, 2)),
    ((0, 3), (1, 2)),
    ((1, 0), (2, 1)),
    ((1, 2), (2, 1)),
    ((2, 1), (3, 0)),
}

REDUCED_COVERS_N3 = {
    ((-3, 0), (-2, 1)),
    ((-2, 1), (-1, 2)),
    ((-1, 2), (-1, 0)),
    ((-1, 2), (0, 3)),
    ((-1, 0), (0, 1)),
    ((0, 3), (0, 1)),
    ((0, 1), (1, 2)),
    ((1, 2), (1, 0)),
    ((1, 0), (2, 1)),
    ((2, 1), (3, 0)),
}


# SHA-256 over to_dot for every mode and odd n <= 21, recorded before the
# covers were read off the (x, y, z) cube
HASSE_DIGEST = "c1eeecf432f930518231af18c2a941fdccbba377cde79083d3574e933687a96c"
ODD_N_TO_41 = range(1, 42, 2)


def as_pairs(covers):
    return {(tuple(a), tuple(b)) for a, b in covers}


def assert_covers_match(po, want):
    """covers equal the oracle pairs, as a set and in index-pair order."""
    assert as_pairs(po.covers) == want
    assert po.covers == tuple(sorted(want, key=lambda e: (po.index[e[0]], po.index[e[1]])))


def test_extended_nodes_and_covers_match_brute_force():
    for n in (*ODD_N_TO_41, 99):
        po = build_poset(n, "extended")
        assert len(po.nodes) == table_count(n)
        assert_covers_match(po, oracles.extended_covers(n))


def test_quotient_covers_frozen():
    po = build_poset(3, "quotient")
    assert as_pairs(po.covers) == QUOTIENT_COVERS_N3
    for n in ODD_N_TO_41:
        assert_covers_match(build_poset(n, "quotient"), oracles.quotient_covers(n))


def test_reduced_covers_frozen():
    po = build_poset(3, "optimality_reduced")
    assert as_pairs(po.covers) == REDUCED_COVERS_N3
    for n in ODD_N_TO_41:
        assert_covers_match(build_poset(n, "optimality_reduced"), oracles.reduced_covers(n))


def test_covers_raise_rank_by_one_in_graded_modes():
    for n in (3, 5):
        for mode in ("extended", "quotient"):
            po = build_poset(n, mode)
            for lo, hi in po.covers:
                assert po.rank(hi) == po.rank(lo) + 1


def test_reduced_mode_is_not_graded():
    po = build_poset(3, "optimality_reduced")
    same_rank = [(lo, hi) for lo, hi in po.covers if po.rank(hi) == po.rank(lo)]
    assert ((-1, 2), (-1, 0)) in as_pairs(same_rank)


def test_covers_are_a_transitive_reduction():
    for n in (3, 5):
        for mode in MODES:
            po = build_poset(n, mode)
            for lo, hi in po.covers:
                for mid in po.nodes:
                    if mid in (lo, hi):
                        continue
                    assert not (po.leq(lo, mid) and po.leq(mid, hi))


def test_leq_matches_cover_closure():
    for n in (3, 5):
        for mode in MODES:
            po = build_poset(n, mode)
            up = oracles.closure_from_covers(
                [tuple(v) for v in po.nodes], as_pairs(po.covers)
            )
            for a in po.nodes:
                for b in po.nodes:
                    assert po.leq(a, b) == (tuple(b) in up[tuple(a)])


def test_leq_without_bitmask_acceleration():
    po = build_poset(11, "quotient")
    up = oracles.closure_from_covers([tuple(v) for v in po.nodes], as_pairs(po.covers))
    for a in po.nodes:
        for b in po.nodes:
            assert po.leq(a, b) == (tuple(b) in up[tuple(a)])


def test_unique_top_and_bottom():
    for n in (1, 3, 5):
        for mode in MODES:
            po = build_poset(n, mode)
            tops = [v for v in po.nodes if all(po.leq(w, v) for w in po.nodes)]
            bots = [v for v in po.nodes if all(po.leq(v, w) for w in po.nodes)]
            assert len(tops) == 1 and len(bots) == 1
            if mode == "extended":
                assert tuple(tops[0]) == (n, 0, 0, 0)
                assert tuple(bots[0]) == (0, 0, 0, n)
            else:
                assert tuple(tops[0]) == (n, 0)
                assert tuple(bots[0]) == (-n, 0)


def test_quotient_order_is_compatible_with_extended_order():
    for n in (3, 5, 7):
        ext = build_poset(n, "extended")
        quo = build_poset(n, "quotient")
        for a in ext.nodes:
            ca = TableClass(a.rho, a.alpha)
            for b in ext.nodes:
                if ext.leq(a, b):
                    assert quo.leq(ca, TableClass(b.rho, b.alpha))


@pytest.mark.parametrize("n", [*ODD_N_TO_41, 99])
def test_quotient_covers_are_the_class_pairs_of_the_table_covers(n):
    """Every table cover joins a quotient cover, every quotient cover is
    joined, and every member of a class covers a table of each lower
    neighbour (rho-1, alpha+-1) that occurs: no other table may stand in
    for a class in an upper set."""
    layout = _layout(n)
    of = [(T.rho, T.alpha) for T in layout.tables]
    joined = {(of[i], of[j]) for i, js in enumerate(layout.up) for j in js}
    assert joined == as_pairs(build_poset(n, "quotient").covers)
    below = [set() for _ in of]
    for i, js in enumerate(layout.up):
        for j in js:
            below[j].add(of[i])
    for (r, a), idxs in layout.groups.items():
        lower = {d for d in ((r - 1, a + 1), (r - 1, abs(a - 1))) if d in layout.groups}
        assert all(below[i] == lower for i in idxs), (n, r, a)


@pytest.mark.parametrize("n", (1, 3, 5, 7, 9))
def test_the_minimal_tables_of_a_class_upper_set_fill_its_minimal_classes(n):
    quo, ext = build_poset(n, "quotient"), build_poset(n, "extended")
    groups = _layout(n).groups
    for chain in quo.antichains():
        upper = quo.upper_set(chain)
        low = quo.minimal_elements(upper)
        minimal = ext.minimal_elements([ext.nodes[i] for c in upper for i in groups[c]])
        assert minimal == tuple(ext.nodes[i] for i in sorted(i for c in low for i in groups[c]))
        assert {TableClass(T.rho, T.alpha) for T in minimal} == set(low)


def test_comparable():
    po = build_poset(3, "optimality_reduced")
    assert not po.comparable(TableClass(-1, 0), TableClass(0, 3))
    assert po.comparable(TableClass(-1, 2), TableClass(1, 0))
    quo = build_poset(3, "quotient")
    assert quo.comparable(TableClass(-1, 0), TableClass(0, 3)) is False
    assert quo.comparable(TableClass(0, 1), TableClass(2, 1))


def test_upper_set_example():
    got = build_poset(3, "quotient").upper_set([TableClass(1, 0)])
    assert {tuple(c) for c in got} == {(1, 0), (2, 1), (3, 0)}
    got = build_poset(3, "extended").upper_set([VoteTable(1, 1, 1, 0)])
    assert {tuple(T) for T in got} == {
        (1, 1, 1, 0),
        (2, 1, 0, 0),
        (3, 0, 0, 0),
    }


def test_upper_set_rejects_bad_input():
    quo = build_poset(3, "quotient")
    with pytest.raises(StructuralError):
        quo.upper_set([TableClass(1, 0), TableClass(3, 0)])
    with pytest.raises(StructuralError):
        quo.upper_set([TableClass(1, 0), TableClass(1, 0)])
    with pytest.raises(InvalidParameterError):
        quo.upper_set([TableClass(4, 1)])


def test_minimal_elements_rejects_non_upper_set():
    with pytest.raises(StructuralError):
        build_poset(3, "quotient").minimal_elements([TableClass(1, 0)])


def test_upper_set_and_minimal_elements_are_inverse():
    for n, mode in ((3, "extended"), (3, "quotient"), (3, "optimality_reduced"),
                    (5, "quotient")):
        po = build_poset(n, mode)
        for chain in po.antichains():
            up = po.upper_set(chain)
            assert po.minimal_elements(up) == chain


COVER_LOCAL_CASES = [(n, mode) for n in (1, 3, 5) for mode in MODES] + [
    (n, mode) for n in (11, 13) for mode in ("extended", "quotient")]


@pytest.mark.parametrize("n,mode", COVER_LOCAL_CASES)
def test_upper_set_and_minimal_elements_match_cover_closure(n, mode):
    po = build_poset(n, mode)
    up = oracles.closure_from_covers([tuple(v) for v in po.nodes], as_pairs(po.covers))
    rng = random.Random(f"{mode}:{n}")
    for _ in range(40):
        sub = [tuple(v) for v in rng.sample(po.nodes, rng.randint(0, min(6, len(po.nodes))))]
        closure = set().union(*(up[v] for v in sub))
        minimal = sorted((v for v in sub if not any(u != v and v in up[u] for u in sub)),
                         key=po.index.get)
        assert {tuple(v) for v in po.upper_set(minimal)} == closure
        assert [tuple(v) for v in po.minimal_elements(closure)] == minimal
        pairs = [(a, b) for i, a in enumerate(sub) for b in sub[i + 1:]
                 if b in up[a] or a in up[b]]
        if pairs:
            a, b = (po.nodes[po.index[v]] for v in pairs[0])
            with pytest.raises(StructuralError, match=re.escape(f"{a!r} and {b!r} are comparable")):
                po.upper_set(sub)
        else:
            assert {tuple(v) for v in po.upper_set(sub)} == closure
        if set(sub) != closure:
            with pytest.raises(StructuralError, match="not an upper set"):
                po.minimal_elements(sub)
        if sub:
            with pytest.raises(StructuralError, match="repeated"):
                po.upper_set(minimal + minimal[:1])


def test_antichain_counts_match_brute_force_labelings():
    for n in (1, 3):
        for mode in MODES:
            po = build_poset(n, mode)
            want = oracles.count_monotone_labelings(
                [tuple(v) for v in po.nodes], as_pairs(po.covers)
            )
            assert sum(1 for _ in po.antichains()) == want


def test_the_upper_set_oracle_matches_brute_force_labelings():
    for n in (1, 3):
        for mode in MODES:
            po = build_poset(n, mode)
            nodes, covers = [tuple(v) for v in po.nodes], as_pairs(po.covers)
            up = oracles.closure_from_covers(nodes, covers)
            uppers = oracles.all_upper_sets(nodes, covers)
            assert len(set(uppers)) == len(uppers) \
                == oracles.count_monotone_labelings(nodes, covers)
            assert all(up[v] <= u for u in uppers for v in u)


def decode(po, mask):
    """Nodes whose bit N-1-i is set, in node order."""
    N = len(po.nodes)
    return tuple(tuple(v) for i, v in enumerate(po.nodes) if mask >> (N - 1 - i) & 1)


UPPER_SET_CASES = [(n, "extended") for n in (1, 3, 5)] + [
    (n, mode) for n in (1, 3, 5, 7) for mode in ("quotient", "optimality_reduced")]


@pytest.mark.parametrize("n,mode", UPPER_SET_CASES)
def test_upper_sets_match_the_oracle(n, mode):
    po = build_poset(n, mode)
    nodes, covers = [tuple(v) for v in po.nodes], as_pairs(po.covers)
    up = oracles.closure_from_covers(nodes, covers)
    got = list(po.upper_sets())
    assert got[0] == (0, 0)
    uppers = [frozenset(decode(po, upper)) for upper, _ in got]
    assert len(set(uppers)) == len(uppers)
    assert set(uppers) == set(oracles.all_upper_sets(nodes, covers))
    for u, (_, minimal) in zip(uppers, got):
        assert decode(po, minimal) == tuple(
            v for v in nodes if v in u and not any(w != v and v in up[w] for w in u))


@pytest.mark.parametrize("mode", MODES)
def test_every_cover_raises_rho_then_lowers_alpha(mode):
    # the visiting order of upper_sets is a linear extension of the order
    for n in ODD_N_TO_41:
        po = build_poset(n, mode)
        for lo, hi in po.covers:
            assert (hi.rho, -hi.alpha) > (lo.rho, -lo.alpha), (n, lo, hi)


def test_enumeration_and_minimal_elements_search_nothing(monkeypatch):
    import dilemma.poset
    from dilemma.ranking import _tree

    calls = []
    search = dilemma.poset.strictly_above

    def counting(up, idxs):
        calls.append(1)
        return search(up, idxs)

    monkeypatch.setattr(dilemma.poset, "strictly_above", counting)
    po = build_poset(5, "quotient")
    po.minimal_elements(po.nodes)
    assert sum(1 for _ in po.upper_sets()) == 64
    assert len(_tree.__wrapped__(3, "extended")) == 35
    assert calls == []
    po.leq(po.nodes[-1], po.nodes[0])
    assert calls == [1]


def test_antichain_counts_frozen():
    def count(n, mode):
        return sum(1 for _ in build_poset(n, mode).antichains())

    assert count(3, "extended") == 36
    assert count(5, "extended") == 768
    assert [count(n, "quotient") for n in (3, 5, 7, 9)] == [16, 64, 256, 1024]
    assert count(3, "optimality_reduced") == 12


def test_antichain_stream_properties():
    po = build_poset(3, "extended")
    chains = list(po.antichains())
    assert chains[0] == ()
    assert chains == list(po.antichains())
    assert len(set(chains)) == len(chains)
    for chain in chains:
        idx = [po.nodes.index(v) for v in chain]
        assert idx == sorted(idx)
        for i, a in enumerate(chain):
            for b in chain[i + 1:]:
                assert not po.comparable(a, b)


def test_max_antichain_size():
    for n in (1, 3, 5):
        po = build_poset(n, "extended")
        width = max(len(c) for c in po.antichains())
        assert max_antichain_size(n, "extended") == width == (n + 3) * (n + 1) // 8
    for n in (1, 3, 5, 7, 9):
        po = build_poset(n, "quotient")
        width = max(len(c) for c in po.antichains())
        assert max_antichain_size(n, "quotient") == width == (n + 1) // 2
    with pytest.raises(InvalidParameterError):
        max_antichain_size(3, "optimality_reduced")


def test_build_poset_validation_and_caching():
    assert build_poset(3, "extended") is build_poset(3, "extended")
    with pytest.raises(InvalidParameterError):
        build_poset(4, "extended")
    with pytest.raises(InvalidParameterError):
        build_poset(3, "no-such-mode")


def test_build_poset_has_one_cache_entry_per_n_and_mode(monkeypatch):
    built = []
    init = Poset.__init__

    def counting(self, *args):
        built.append(args[:2])
        init(self, *args)

    monkeypatch.setattr(Poset, "__init__", counting)
    _layout.cache_clear()
    a = build_poset(41)
    b = build_poset(41, "extended")
    c = build_poset(41, mode="extended")
    assert a is b is c
    assert built == [(41, "extended")]


def test_the_extended_poset_reads_its_nodes_and_covers_off_the_layout():
    for n in (3, 21, 41):
        po = build_poset(n)
        layout = _layout(n)
        assert po.nodes is layout.tables
        assert po._up is layout.up


def test_the_poset_cache_is_bounded():
    maxsize = _layout.cache_info().maxsize
    first = weakref.ref(build_poset(1))
    for n in range(1, 4 * maxsize, 2):
        for mode in MODES:
            build_poset(n, mode)
    gc.collect()
    assert first() is None


def test_to_dot():
    po = build_poset(3, "quotient")
    dot = to_dot(po)
    assert dot.startswith("digraph")
    for node in po.nodes:
        assert f"({node.rho},{node.alpha})" in dot
    assert dot.count(" -> ") == len(po.covers)


def test_hasse_output_is_byte_identical():
    digest = hashlib.sha256()
    for mode in MODES:
        for n in range(1, 22, 2):
            digest.update(to_dot(build_poset(n, mode)).encode())
    assert digest.hexdigest() == HASSE_DIGEST

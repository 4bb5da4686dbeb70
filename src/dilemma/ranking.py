"""Top-k loss ranking of admissible rules.

Admissible rules are upper sets, so ranking scores the upper sets of
the chosen poset: ``extended`` mode ranks every admissible rule,
``compact`` mode only the class-constant ones (upper sets of the
quotient).  Their number grows steeply with n, so ranking is refused
above the poset's enumeration bound, n = 5 (extended) or n = 9
(compact), unless force is set.

The upper sets do not depend on the profile or on w.  For each (n,
mode) they are listed once, as ascending tuples of node indices, in a
table that the size-n node layout keeps and drops (``per_size`` in
``dilemma.tables``); the first query of an (n, mode) builds it by
sorting the upper-set bitmasks that ``Poset.upper_sets`` yields,
which puts the rows in bitset order.

Upper covers have lower node indices in both modes, so a row less its
last node is an upper set too, and its bitmask is smaller: an earlier
row, the parent.  The rows form a tree, kept beside the table as each
row's (parent, last node, end); bitset order is a depth-first preorder
of it, so a row's descendants are the rows after it, up to its end.
A query costs the profile's two node laws and one walk of the table in
order.  A row's false positive and missed mass are its parent's plus
its last node's, the term-by-term sum in node order with one addition
per row, and its score is w * fp + (1 - w) * (fn_total - missed).  A
descendant only adds later nodes, so when the row's score plus every
negative gain w * fp - (1 - w) * fn of those nodes, less a margin,
exceeds the k-th best score so far, the walk jumps to the row's end.
Only the k best rows are turned into rules.

Ties are broken deterministically: ascending score, then ascending
false positive mass, then lexicographic positive-set bitset in node
order.  Score and mass are those node-order sums, not the reported
``loss`` and ``p_fp`` (which are correctly rounded), so rules whose
printed losses are equal may come out in any p_fp order.  Repeated
runs of the same request produce byte-identical rankings, on every
supported Python version.
"""

from __future__ import annotations

import heapq
import math
from itertools import accumulate
from dataclasses import dataclass

from .errors import InvalidParameterError
from .optimal import classical_rule
from .poset import ENUMERATION_BOUND as _POSET_BOUND, build_poset
from .probability import (Homogeneous, PerVoter, RuleEvaluation, State,
                          _evaluate, as_profile, loss, node_law, profile_thetas)
from .rules import DecisionRule
from .tables import _layout, per_size, validate_n, validate_w

MODES = ("extended", "compact")
_POSET_MODE = {"extended": "extended", "compact": "quotient"}
ENUMERATION_BOUND = {mode: _POSET_BOUND[pm] for mode, pm in _POSET_MODE.items()}
DEFAULT_K = 5


@dataclass(frozen=True)
class RankingRequest:
    n: int
    w: float
    profile: Homogeneous | PerVoter
    mode: str = "extended"
    k: int = DEFAULT_K
    force: bool = False


@dataclass(frozen=True)
class RankedRule:
    rank: int | None
    antichain: tuple  # tables (extended) or classes (compact)
    name: str | None
    rule: DecisionRule
    evaluation: RuleEvaluation


def _classical_indices(n: int) -> dict:
    return {kind: classical_rule(kind, n).indices for kind in ("pb", "cb", "hb")}


def _classical_name(rule: DecisionRule, classical: dict) -> str | None:
    names = [kind for kind, idxs in classical.items() if rule.indices == idxs]
    return ",".join(names) if names else None


def evaluate_rule(rule: DecisionRule, w, profile) -> RankedRule:
    """Loss evaluation plus detection of the textbook rules."""
    profile = as_profile(profile)
    name = _classical_name(rule, _classical_indices(rule.n))
    return RankedRule(None, rule.antichain, name, rule, loss(rule, w, profile))


@per_size
def _table(n: int, mode: str) -> tuple:
    """Ascending node indices of each upper set, in bitset order."""
    po = build_poset(n, _POSET_MODE[mode])
    digits = f"0{len(po.nodes)}b"
    masks = sorted(upper for upper, _ in po.upper_sets())
    return tuple(tuple(i for i, bit in enumerate(format(mask, digits)) if bit == "1")
                 for mask in masks)


@per_size
def _tree(n: int, mode: str) -> tuple:
    """(parent row, last node, end row) of every row after the empty first one.

    Upper covers have lower node indices, so a row less its last node is
    an upper set too: the parent, an earlier row of the table.  A row's
    subtree is the rows from it up to, not including, its end.
    """
    rows = _table(n, mode)
    where = {row: r for r, row in enumerate(rows)}
    parents = [0] + [where[row[:-1]] for row in rows[1:]]
    ends = list(range(1, len(rows) + 1))
    for r in range(len(rows) - 1, 0, -1):  # subtree sizes, leaves first
        ends[parents[r]] += ends[r] - r
    return tuple(zip(parents[1:], (row[-1] for row in rows[1:]), ends[1:]))


def _masses(n: int, mode: str, law_fp, law_fn) -> tuple:
    """False positive and false negative mass of each node of the mode."""
    if mode == "extended":
        return law_fp.mass, law_fn.mass
    # the classes' extended node indices, in the quotient's node order
    members = _layout(n).groups.values()

    # class weights add each member's two tables in turn, in node order
    def class_mass(law):
        out = []
        for idxs in members:
            total = 0.0
            for j in idxs:
                total += law.canon[j]
                total += law.trans[j]
            out.append(total)
        return out

    return class_mass(law_fp), class_mass(law_fn)


# a score sums at most ~120 terms in [0, 1], each addition rounding by at
# most 2**-53 of a partial sum <= 1: its error is near 1e-14, far below this
_MARGIN = 1e-12


def _scored(tree, fp_c, fn_c, w, k) -> list:
    """(score, fp, row number) of the k best rows, ascending.

    Explicit loops, not builtin sum, which is compensated from Python
    3.12 on and would break exact ties differently.
    """
    fn_total, gains = 0.0, []
    for f, m in zip(fp_c, fn_c):
        fn_total += m
        gains.append(w * f - (1.0 - w) * m)
    # below[i]: the least that nodes i and after can add to a score
    below = list(accumulate(reversed(gains), lambda b, g: b + min(g, 0.0),
                            initial=0.0))[::-1]
    fp, miss = [0.0] * (len(tree) + 1), [0.0] * (len(tree) + 1)
    root = w * 0.0 + (1.0 - w) * (fn_total - 0.0)  # the empty row
    seen, worst = [(root, 0.0, 0)], [-math.inf] * min(k, len(fp))
    heapq.heapreplace(worst, -root)  # the k best scores, negated, as a heap
    r = 1
    while r < len(fp):
        parent, last, end = tree[r - 1]
        f = fp[r] = fp[parent] + fp_c[last]
        m = miss[r] = miss[parent] + fn_c[last]
        s = w * f + (1.0 - w) * (fn_total - m)
        seen.append((s, f, r))
        if s < -worst[0]:
            heapq.heapreplace(worst, -s)
        r = end if s + below[last + 1] - _MARGIN > -worst[0] else r + 1
    return sorted(t for t in seen if t[0] <= -worst[0])[:k]


def rank_rules(request: RankingRequest) -> list[RankedRule]:
    """Top-k admissible rules by expected loss, deterministic order."""
    n = validate_n(request.n)
    if request.mode not in MODES:
        raise InvalidParameterError(f"mode must be one of {MODES}, got {request.mode!r}")
    if not isinstance(request.k, int) or isinstance(request.k, bool) or request.k < 1:
        raise InvalidParameterError(f"k must be an int >= 1, got {request.k!r}")
    w = validate_w(request.w)
    bound = ENUMERATION_BOUND[request.mode]
    if n > bound and not request.force:
        raise InvalidParameterError(
            f"exhaustive {request.mode} ranking is bounded at n = {bound}; "
            f"pass force=True to scan n = {n} anyway")
    profile = as_profile(request.profile)
    profile_thetas(profile, n)  # length check up front

    rows = _table(n, request.mode)
    law_fp, law_fn = (node_law(n, s, profile) for s in (State.PnQ, State.PQ))
    fp_c, fn_c = _masses(n, request.mode, law_fp, law_fn)
    best = _scored(_tree(n, request.mode), fp_c, fn_c, w, request.k)

    classical = _classical_indices(n)
    classes = tuple(_layout(n).groups)  # the quotient's node order
    ranked = []
    for rank, (_, _, r) in enumerate(best, start=1):
        row = rows[r]
        if request.mode == "extended":
            rule = DecisionRule._of(n, frozenset(row))
            ac = rule.antichain
        else:
            rule = DecisionRule._of_classes(n, [classes[c] for c in row])
            ac = rule.minimal_classes()
        ranked.append(RankedRule(rank, ac, _classical_name(rule, classical), rule,
                                 _evaluate(rule, w, law_fp, law_fn)))
    return ranked


def ranking_record(request: RankingRequest, ranked: list[RankedRule]) -> dict:
    """JSON-ready summary of one ranking run."""
    profile = as_profile(request.profile)
    thetas = [profile.theta] if isinstance(profile, Homogeneous) \
        else list(profile.thetas)
    rules = []
    for r in ranked:
        entry = {"rank": r.rank,
                 "antichain": [list(v) for v in r.antichain]}
        if r.name:
            entry["name"] = r.name
        entry.update(p_fp=r.evaluation.p_fp, p_fn=r.evaluation.p_fn,
                     loss=r.evaluation.loss)
        rules.append(entry)
    return {"mode": request.mode, "n": request.n, "w": float(request.w),
            "thetas": thetas, "rules": rules}

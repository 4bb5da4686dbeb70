"""Exhaustive loss ranking of admissible rules.

Admissible rules are upper sets, so ranking scans the antichain stream
of the chosen poset: ``extended`` mode ranks every admissible rule,
``compact`` mode only the class-constant ones (upper sets of the
quotient).  Exhaustive scans are refused above n = 5 (extended) or
n = 9 (compact) unless force is set.

Ties are broken deterministically: ascending loss, then ascending
false positive probability, then lexicographic positive-set bitset in
node order.  Repeated runs of the same request produce byte-identical
rankings.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameterError
from .optimal import classical_rule
from .poset import build_poset
from .probability import (Homogeneous, PerVoter, RuleEvaluation, State,
                          as_profile, loss, node_law, profile_thetas)
from .rules import DecisionRule
from .tables import validate_n, validate_w

MODES = ("extended", "compact")
ENUMERATION_BOUND = {"extended": 5, "compact": 9}
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

    po = build_poset(n, "extended" if request.mode == "extended" else "quotient")
    law_fp = node_law(n, State.PnQ, profile)
    law_fn = node_law(n, State.PQ, profile)

    if request.mode == "extended":
        fp_c, fn_c = law_fp.mass, law_fn.mass
    else:
        # class weights add each member's two tables in turn, in node order
        members = [[] for _ in po.nodes]
        for j, T in enumerate(build_poset(n, "extended").nodes):
            members[po.index[T.rho, T.alpha]].append(j)

        def class_mass(law):
            out = []
            for idxs in members:
                total = 0.0
                for j in idxs:
                    total += law.canon[j]
                    total += law.trans[j]
                out.append(total)
            return out

        fp_c, fn_c = class_mass(law_fp), class_mass(law_fn)
    fn_total = sum(fn_c)
    N = len(po.nodes)

    candidates = []
    for ac in po.antichains():
        pos = po.upper_set(ac)
        fp = 0.0
        miss = 0.0
        bitset = 0
        for i, v in enumerate(po.nodes):
            if v in pos:
                fp += fp_c[i]
                miss += fn_c[i]
                bitset |= 1 << (N - 1 - i)
        score = w * fp + (1.0 - w) * (fn_total - miss)
        candidates.append((score, fp, bitset, ac))
    candidates.sort(key=lambda c: c[:3])

    classical = _classical_indices(n)
    ranked = []
    for rank, (_, _, _, ac) in enumerate(candidates[:request.k], start=1):
        if request.mode == "extended":
            rule = DecisionRule.from_antichain(n, ac)
        else:
            rule = DecisionRule.from_classes(n, po.upper_set(ac))
        ranked.append(RankedRule(rank, ac, _classical_name(rule, classical), rule,
                                 loss(rule, w, profile)))
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

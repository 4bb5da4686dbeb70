"""Table probabilities under the four states of nature.

Voters judge each premiss independently and are right about each with
probability theta (their competence).  Conditional on which premisses
actually hold (PQ, PnQ, nPQ, nPnQ), a ballot lands in one of the four
table slots with a product law, and the committee table is the sum of
n independent ballots.

Every loss computation reads one per-node law (``node_law``): for each
canonical table T, in node order, P(T) and P(T transposed), whose sum
is the mass a symmetric rule puts on the node.  For a homogeneous
committee each entry is the multinomial count times theta**a *
(1-theta)**b, with the counts computed once per n as exact integers
converted late; per-voter competences are convolved ballot by ballot,
in plain Python up to n = 9 and over a numpy (x, y, z) cube above, onto
the shared node layout (``dilemma.tables``), which keeps the counts.  Laws
live in an LRU cache of LAW_CACHE_SIZE entries keyed by the profile, so
a theta sweep or a long stream of committees keeps memory flat.
``table_law`` is an ordered-table dict view of a law, built per call for
tests and oracles; ``table_prob`` reads one entry of the law.

False positives weigh the positive tables under PnQ (by symmetry nPQ
gives the same number for any rule considered here); false negatives
weigh the negative tables under PQ.  A rule's mass sums ``mass[i]``
over its node indices with math.fsum, which is correctly rounded and
so independent of the order of the terms: repeated calls give
identical bytes.
"""

from __future__ import annotations

import math
import numbers
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

from .errors import InvalidParameterError
from .rules import DecisionRule
from .tables import (_layout, _Validated, ordered_tables, per_size, validate_n,
                     validate_table, validate_theta, validate_w)


class State(Enum):
    PQ = "PQ"
    PnQ = "PnQ"
    nPQ = "nPQ"
    nPnQ = "nPnQ"


NEGATIVE_STATES = (State.PnQ, State.nPQ, State.nPnQ)


def as_state(value) -> State:
    if isinstance(value, State):
        return value
    try:
        return State(value)
    except ValueError:
        raise InvalidParameterError(
            f"state must be one of {[s.value for s in State]}, got {value!r}") from None


class Homogeneous(_Validated, NamedTuple("Homogeneous", [("theta", float)])):
    """Every voter has the same competence."""
    __slots__ = ()

    def __new__(cls, theta):
        return super().__new__(cls, validate_theta(theta))


class PerVoter(_Validated, NamedTuple("PerVoter", [("thetas", tuple)])):
    """One competence per voter, in voter order."""
    __slots__ = ()

    def __new__(cls, thetas):
        thetas = tuple(validate_theta(t) for t in thetas)
        if not thetas:
            raise InvalidParameterError("per-voter profile needs at least one theta")
        return super().__new__(cls, thetas)


Profile = Homogeneous | PerVoter


def as_profile(theta) -> Profile:
    """Sequence -> PerVoter (singleton -> Homogeneous); else, strings too, Homogeneous."""
    if isinstance(theta, (Homogeneous, PerVoter)):
        return theta
    if isinstance(theta, (int, float, str)):
        return Homogeneous(theta)
    try:
        seq = tuple(theta)
    except TypeError:
        return Homogeneous(theta)
    if len(seq) == 1:
        return Homogeneous(seq[0])
    return PerVoter(seq)


def profile_thetas(profile: Profile, n: int) -> tuple:
    if isinstance(profile, Homogeneous):
        return (profile.theta,) * n
    if len(profile.thetas) != n:
        raise InvalidParameterError(
            f"profile has {len(profile.thetas)} thetas for committee size {n}")
    return profile.thetas


class NegativePrior(_Validated, NamedTuple("NegativePrior", [
        ("pnq", float), ("npq", float), ("npnq", float)])):
    """Prior weights over the three states where the conclusion fails."""
    __slots__ = ()

    def __new__(cls, pnq, npq, npnq):
        ws = (pnq, npq, npnq)
        # weights that sum to 1 lie in [0, 1]; NaN fails both comparisons
        if not all(isinstance(w, numbers.Real) and 0 <= w <= 1 for w in ws):
            raise InvalidParameterError(f"prior weights must be reals in [0, 1], got {ws}")
        if abs(math.fsum(ws) - 1.0) > 1e-12:
            raise InvalidParameterError(f"prior weights must sum to 1, got {ws}")
        return super().__new__(cls, *ws)

    @classmethod
    def uniform(cls) -> "NegativePrior":
        third = 1.0 / 3.0
        return cls(third, third, third)


class RuleEvaluation(NamedTuple):
    w: float
    p_fp: float
    p_fn: float
    loss: float


def single_vote_law(state, theta) -> tuple:
    """One ballot's slot probabilities (both, P only, Q only, neither)."""
    state = as_state(state)
    c = validate_theta(theta)
    i = 1.0 - c
    if state is State.PQ:
        return (c * c, c * i, i * c, i * i)
    if state is State.PnQ:
        return (c * i, c * c, i * i, i * c)
    if state is State.nPQ:
        return (i * c, i * i, c * c, c * i)
    return (i * i, i * c, c * i, c * c)


class NodeLaw(NamedTuple):
    """One state's law over the canonical tables, in node order.

    ``canon[i]`` is P(T) and ``trans[i]`` is P(T transposed), 0.0 when
    y == z; ``mass[i] = canon[i] + trans[i]`` is the probability that a
    symmetric rule sees node i.
    """
    canon: tuple
    trans: tuple
    mass: tuple


@per_size
def _terms(n: int):
    """float(multinomial(T)) per node; state -> (canon, trans) theta exponents."""
    comb = [[math.comb(a, b) for b in range(a + 1)] for a in range(n + 1)]
    mults, e_pq, e_y, e_z, e_npnq = [], [], [], [], []
    for x, y, z, t in _layout(n).tables:
        mults.append(float(comb[n][x] * comb[n - x][y] * comb[n - x - y][z]))
        # exponent of theta in the product law; 1 - theta takes the
        # rest of the 2n premiss judgments
        e_pq.append(2 * x + y + z)
        e_y.append(x + 2 * y + t)
        e_z.append(x + 2 * z + t)
        e_npnq.append(y + z + 2 * t)
    exponents = {State.PQ: (e_pq, e_pq), State.PnQ: (e_y, e_z),
                 State.nPQ: (e_z, e_y), State.nPnQ: (e_npnq, e_npnq)}
    return mults, exponents


def _homogeneous_law(n: int, state: State, profile: Homogeneous):
    mults, exponents = _terms(n)
    th = profile.theta
    e_canon, e_trans = exponents[state]
    # same operations, in the same order, as multinomial * th**a * (1-th)**b;
    # a table is its own transpose exactly when y == z, that is e_y == e_z
    pa = [th**k for k in range(2 * n + 1)]
    pb = [(1.0 - th) ** (2 * n - k) for k in range(2 * n + 1)]
    canon = [m * pa[a] * pb[a] for m, a in zip(mults, e_canon)]
    trans = [m * pa[a] * pb[a] if ey != ez else 0.0
             for m, a, ey, ez in zip(mults, e_trans, *exponents[State.PnQ])]
    return canon, trans


_PLAIN_MAX_N = 9  # up to here plain Python beats numpy, and its import


@per_size
def _simplex(n: int):
    """Per voter k, each cell x + y + z <= k as the positions of its sources
    t-1, z-1, y-1, x-1 (-1 if absent) in voter k-1's cells; then the final
    position of each node and of its transpose (-1 if y == z)."""
    steps, at = [], {(0, 0, 0): 0}
    for k in range(1, n + 1):
        cells = [(x, y, z) for x in range(k + 1) for y in range(k + 1 - x)
                 for z in range(k + 1 - x - y)]
        steps.append([(at.get((x, y, z), -1), at.get((x, y, z - 1), -1),
                       at.get((x, y - 1, z), -1), at.get((x - 1, y, z), -1))
                      for x, y, z in cells])
        at = {cell: i for i, cell in enumerate(cells)}
    return (steps, [at[x, y, z] for x, y, z, _ in _layout(n).tables],
            [at[x, z, y] if y != z else -1 for x, y, z, _ in _layout(n).tables])


def _simplex_law(n: int, state: State, profile: PerVoter):
    """The cube's floats in plain Python: position -1 reads the appended
    0.0, and a missing source's +0.0 leaves a sum of masses >= 0 as it is."""
    steps, canon_at, trans_at = _simplex(n)
    law = [1.0]
    for sources, th in zip(steps, profile.thetas):
        a, b, c, d = single_vote_law(state, th)
        law.append(0.0)
        law = [d * law[i] + c * law[j] + b * law[k] + a * law[m] for i, j, k, m in sources]
    law.append(0.0)
    return [law[i] for i in canon_at], [law[j] for j in trans_at]


def _per_voter_law(n: int, state: State, profile: PerVoter):
    """Convolve the ballots, t implied: plain Python up to _PLAIN_MAX_N, a numpy cube above.

    Each cell adds its sources in the order t-1, z-1, y-1, x-1, the
    order in which a voter-by-voter convolution over a dict of tables
    (see tests/oracles.py) meets them, so the floats agree exactly.
    """
    if n <= _PLAIN_MAX_N:
        return _simplex_law(n, state, profile)
    import numpy as np

    law = np.ones((1, 1, 1))
    for k, th in enumerate(profile.thetas, start=1):
        a, b, c, d = single_vote_law(state, th)
        new = np.zeros((k + 1, k + 1, k + 1))
        new[:k, :k, :k] = d * law
        new[:k, :k, 1:] += c * law
        new[:k, 1:, :k] += b * law
        new[1:, :k, :k] += a * law
        law = new
    cells = _layout(n).cells
    canon = law.ravel()[cells]
    # P(T transposed) is the law at (x, z, y), and 0.0 when y == z
    trans = law.transpose(0, 2, 1).ravel()[cells]
    trans[cells % (n + 1) == cells // (n + 1) % (n + 1)] = 0.0
    return canon.tolist(), trans.tolist()


def _law_key(n: int, state, profile):
    validate_n(n)
    state = as_state(state)
    profile = as_profile(profile)
    profile_thetas(profile, n)  # length check
    return state, profile


# bounded: a theta sweep or a stream of committees evicts old laws
LAW_CACHE_SIZE = 8


@lru_cache(maxsize=LAW_CACHE_SIZE)
def _node_law(n: int, state: State, profile: Profile) -> NodeLaw:
    make = _homogeneous_law if isinstance(profile, Homogeneous) else _per_voter_law
    canon, trans = make(n, state, profile)
    return NodeLaw(tuple(canon), tuple(trans),
                   tuple(c + t for c, t in zip(canon, trans)))


def node_law(n: int, state, profile) -> NodeLaw:
    """The per-node law every mass and loss computation sums over."""
    return _node_law(n, *_law_key(n, state, profile))


def table_law(n: int, state, profile) -> dict:
    """Probability of every ordered table under one state, as a dict.

    A view of node_law for tests and oracles, built on each call; the
    loss layer never builds it.
    """
    law, tables = node_law(n, state, profile), _layout(n).tables
    probs = dict(zip(tables, law.canon))
    probs.update((T.transpose(), t) for T, t in zip(tables, law.trans) if T.y != T.z)
    return {T: probs[T] for T in ordered_tables(n)}


def table_prob(table, state, profile) -> float:
    """Probability of one ordered table under a state of nature."""
    T = validate_table(table)
    law = node_law(T.n, state, profile)
    return (law.canon if T.is_canonical() else law.trans)[_layout(T.n).node(T)]


def positive_mass(rule: DecisionRule, state, profile) -> float:
    """Probability that the rule answers yes under the given state."""
    mass = node_law(rule.n, state, profile).mass
    return math.fsum(mass[i] for i in rule.indices)


def negative_mass(rule: DecisionRule, state, profile) -> float:
    mass = node_law(rule.n, state, profile).mass
    pos = rule.indices
    return math.fsum(m for i, m in enumerate(mass) if i not in pos)


def rule_fp(rule: DecisionRule, profile) -> float:
    """False positive probability: yes while only P holds."""
    return positive_mass(rule, State.PnQ, profile)


def rule_fn(rule: DecisionRule, profile) -> float:
    """False negative probability: no while both premisses hold."""
    return negative_mass(rule, State.PQ, profile)


def rule_fp_bayes(rule: DecisionRule, profile, prior: NegativePrior) -> float:
    """False positive probability against a prior over the failing states."""
    if not isinstance(prior, NegativePrior):
        prior = NegativePrior(*prior)
    weights = (prior.pnq, prior.npq, prior.npnq)
    # a sum of positive terms, not 1 - P(no): small values keep their
    # digits; a state of weight 0 adds 0.0, so its law is never built
    return math.fsum(wgt * positive_mass(rule, state, profile)
                     for state, wgt in zip(NEGATIVE_STATES, weights) if wgt)


def _evaluate(rule: DecisionRule, w: float, law_fp, law_fn) -> RuleEvaluation:
    """Expected loss at a valid w, from the rule's PnQ and PQ node laws."""
    pos = rule.indices
    p_fp = math.fsum(law_fp.mass[i] for i in pos)
    p_fn = math.fsum(m for i, m in enumerate(law_fn.mass) if i not in pos)
    return RuleEvaluation(w, p_fp, p_fn, w * p_fp + (1.0 - w) * p_fn)


def loss(rule: DecisionRule, w, profile) -> RuleEvaluation:
    """Expected loss w * P(FP) + (1 - w) * P(FN)."""
    w = validate_w(w)
    return _evaluate(rule, w, node_law(rule.n, State.PnQ, profile),
                     node_law(rule.n, State.PQ, profile))

"""The goodness test: which tables belong in the loss-minimizing rule.

For a homogeneous committee, whether a positive verdict on a table
lowers the expected loss depends on the table only through its class
(rho, alpha) and on the competence odds eta = theta / (1 - theta) > 1.
Writing

    G(eta) = eta**(-rho - alpha) + eta**(-rho + alpha)

the class is good (belongs in the optimal rule) exactly when
G(eta) < 2 * (1 - w) / w, with ties resolved against inclusion and
settled exactly: a float G within TIE_BAND of the threshold is compared
again in rationals.  G always starts at 2 as eta -> 1 with slope
-2 * rho; its shape splits classes into three types:

* type a (rho <= 0): G increases, so the class is good only for small
  w and weak competence;
* type b (rho > alpha): G decreases to zero, good whenever competence
  is high enough;
* type c (0 < rho < alpha): G dips to a minimum at eta_star and then
  diverges, good on at most one competence window.

The greatest competence at which a type-c class stays good is the root
theta_0 reported by goodness_intervals; those roots drive the order in
which classes leave the optimal rule as competence grows.

The test runs over a list of classes with eta and the threshold
xi = 2 * (1 - w) / w computed once: optimal_rule over every class of
the cached node layout, the rule being the union of the good classes
(certified on the classes), and is_good and pb_optimal over one each.
"""

from __future__ import annotations

import math
import sys
from enum import Enum
from typing import NamedTuple

from .errors import InvalidParameterError, StructuralError
from .rules import DecisionRule
from .tables import (TableClass, _as_float, _layout, per_size, table_class,
                     validate_class, validate_n, validate_theta, validate_w)

# |G(eta_star) - xi| below this band is reported as a degenerate
# tangency instead of guessing zero or two crossings
TANGENCY_BAND = 1e-14
TIE_BAND = 1e-12  # |G - xi| up to this share of xi is settled exactly
# largest bisection bracket end: the midpoint of two floats up to here
# cannot overflow, and eta / (1 + eta) rounds to 1 long before it
ETA_MAX = sys.float_info.max / 2


class TableType(Enum):
    A = "a"
    B = "b"
    C = "c"


def _as_class(cls_or_table) -> TableClass:
    seq = tuple(cls_or_table)
    if len(seq) == 4:
        return table_class(seq)
    return validate_class(seq)


def classify(cls_or_table) -> TableType:
    return _type(*_as_class(cls_or_table))


def _type(rho: int, alpha: int) -> TableType:
    if rho <= 0:
        return TableType.A
    if rho > alpha:
        return TableType.B
    # rho == +-alpha is ruled out by the parity check in validate_class
    return TableType.C


def _g(rho: int, alpha: int, eta: float) -> float:
    try:
        return eta ** (-rho - alpha) + eta ** (-rho + alpha)
    except OverflowError:
        # a sum of positive terms beyond the float range exceeds every
        # finite threshold, so inf keeps G < xi exact
        return math.inf


def g_eval(cls_or_table, eta) -> float:
    c = _as_class(cls_or_table)
    eta = _as_float(eta, "eta")
    if eta <= 1.0:
        raise InvalidParameterError(f"eta must exceed 1, got {eta}")
    return _g(c.rho, c.alpha, eta)


def eta_star(cls_or_table) -> float:
    """Location of the minimum of G; only type-c classes have one."""
    c = _as_class(cls_or_table)
    if _type(*c) is not TableType.C:
        raise InvalidParameterError(f"class {tuple(c)} is not type c")
    return _eta_star(*c)


def _eta_star(rho: int, alpha: int) -> float:
    return ((alpha + rho) / (alpha - rho)) ** (1.0 / (2 * alpha))


def _xi(w: float) -> float:
    return 2.0 * (1.0 - w) / w


def _good(classes, w: float, theta: float) -> list:
    """The classes with G(eta) < xi, in the given order; near a tie, or
    where both overflow, G is compared again in exact rationals."""
    eta, xi = theta / (1.0 - theta), _xi(w)
    band = TIE_BAND * xi
    good = []
    for c in classes:
        g = _g(c[0], c[1], eta)
        if g < xi if abs(g - xi) > band else _exactly_good(c, w, theta):
            good.append(c)
    return good


def _exactly_good(cls, w: float, theta: float) -> bool:
    from fractions import Fraction

    (rho, alpha), eta, w = cls, Fraction(theta) / (1 - Fraction(theta)), Fraction(w)
    return eta ** (-rho - alpha) + eta ** (-rho + alpha) < 2 * (1 - w) / w


def is_good(cls_or_table, w, theta) -> bool:
    """Strict goodness test; boundary equality counts as bad."""
    c = _as_class(cls_or_table)
    w = validate_w(w)
    theta = validate_theta(theta, goodness=True)
    return bool(_good((c,), w, theta))


class GoodnessProfile(NamedTuple):
    """Where in theta a class is good, at fixed w.

    ``intervals`` holds open intervals with endpoints in [1/2, 1]; the
    boundary values 0.5 and 1.0 stand for the ends of the competence
    range.  ``degenerate`` flags a type-c minimum within TANGENCY_BAND
    of the threshold, where the crossing count is numerically
    undecidable; no intervals are reported in that case.
    """
    cls: TableClass
    kind: TableType
    w: float
    intervals: tuple
    degenerate: bool = False


def _theta_of(eta: float) -> float:
    return eta / (1.0 + eta)


def _bisect(f, lo: float, hi: float, tol: float) -> float:
    sign_lo = f(lo) > 0
    for _ in range(300):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == sign_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def goodness_intervals(cls_or_table, w, tol: float = 1e-12) -> GoodnessProfile:
    """Solve G(eta) = 2(1-w)/w and return the good theta windows.

    Every crossing is bracketed analytically before bisection: the
    bound eta_a = xi**(1/(alpha-rho)) caps any crossing on a rising
    branch since eta**(alpha-rho) < G(eta), and for falling type-b
    curves (w/(1-w))**(1/(rho-alpha)) caps the single crossing.  At a
    denormal w, xi overflows to inf; eta_a is then held to ETA_MAX,
    where theta already rounds to 1, so every window end stays finite.
    """
    c = _as_class(cls_or_table)
    rho, alpha = c
    kind = _type(rho, alpha)
    w = validate_w(w)
    xi = _xi(w)
    eta_a = None if kind is TableType.B else min(xi ** (1.0 / (alpha - rho)), ETA_MAX)

    # the class is validated once, above: every step reads G directly
    def f(eta):
        # the bracket may start at the open end of the domain; G -> 2 there
        g = 2.0 if eta == 1.0 else _g(rho, alpha, eta)
        return g - xi

    degenerate = False
    if kind is TableType.A:
        if w >= 0.5:
            intervals = ()
        else:
            eta0 = _bisect(f, 1.0, eta_a, tol)
            intervals = ((0.5, _theta_of(eta0)),)
    elif kind is TableType.B:
        if w <= 0.5:
            intervals = ((0.5, 1.0),)
        else:
            hi = (w / (1.0 - w)) ** (1.0 / (rho - alpha))
            eta0 = _bisect(f, 1.0, hi, tol)
            intervals = ((_theta_of(eta0), 1.0),)
    else:
        es = _eta_star(rho, alpha)
        if w <= 0.5:
            eta0 = _bisect(f, es, eta_a, tol)
            intervals = ((0.5, _theta_of(eta0)),)
        else:
            gap = _g(rho, alpha, es) - xi
            if abs(gap) <= TANGENCY_BAND:
                intervals = ()
                degenerate = True
            elif gap > 0:
                intervals = ()
            else:
                lo = _bisect(f, 1.0, es, tol)
                hi = _bisect(f, es, eta_a, tol)
                intervals = ((_theta_of(lo), _theta_of(hi)),)
    return GoodnessProfile(c, kind, w, intervals, degenerate)


def optimal_rule(n: int, w, theta) -> DecisionRule:
    """Loss-minimizing admissible rule for a homogeneous committee."""
    validate_n(n)
    w = validate_w(w)
    theta = validate_theta(theta, goodness=True)
    # the goodness test of is_good, run once over the layout's classes
    rule = DecisionRule._of_classes(n, _good(_layout(n).groups, w, theta))
    if not rule.admissible:
        raise StructuralError(f"good classes at n = {n} do not form an upper set")
    return rule


def pb_optimal(n: int, w, theta) -> bool:
    """Exact test: the premiss-wise majority rule minimizes the loss."""
    validate_n(n)
    w = validate_w(w)
    theta = validate_theta(theta, goodness=True)
    # G of class ((n - 1)/2, (n + 1)/2) is eta + eta**(-n)
    return theta >= w and not _good((((n - 1) // 2, (n + 1) // 2),), w, theta)


def pb_optimal_sufficient(w, theta) -> bool:
    """Size-free sufficient condition for premiss-wise optimality."""
    w = validate_w(w)
    theta = validate_theta(theta, goodness=True)
    return theta >= w and theta >= (2.0 - 2.0 * w) / (2.0 - w)


_CLASSICAL = {
    # premiss-wise, majority on P and on Q: x - t > |y - z|, the type-b classes
    "pb": lambda n: DecisionRule._of_classes(
        n, [c for c in _layout(n).groups if c.rho > c.alpha]),
    # conclusion-wise: majority of voters accept both premisses
    "cb": lambda n: DecisionRule.from_predicate(n, lambda T: T.x > T.y + T.z + T.t),
    # both mixed margins: between the two above
    "hb": lambda n: DecisionRule.from_predicate(
        n, lambda T: T.x > T.z + T.t and T.x > T.y + T.t),
}


def classical_rule(kind: str, n: int) -> DecisionRule:
    """The named textbook rule: 'pb', 'cb' or 'hb'."""
    if kind not in _CLASSICAL:
        raise InvalidParameterError(
            f"kind must be one of {sorted(_CLASSICAL)}, got {kind!r}")
    # validated before the cache, which would take True for 1
    return _classical_rule(validate_n(n), kind)


# rules are immutable, so sharing is safe
@per_size
def _classical_rule(n: int, kind: str) -> DecisionRule:
    return _CLASSICAL[kind](n)


def pb_region(n: int, resolution: int = 100):
    """Midpoint grid over (theta, w) with both premiss-wise optimality tests.

    Returns an iterator of (theta, w, exact, sufficient) rows,
    theta-major; the arguments are checked before it is returned.
    """
    validate_n(n)
    if not isinstance(resolution, int) or isinstance(resolution, bool) or resolution < 1:
        raise InvalidParameterError(f"resolution must be an int >= 1, got {resolution!r}")
    thetas = [0.5 + (i + 0.5) / (2.0 * resolution) for i in range(resolution)]
    ws = [(j + 0.5) / resolution for j in range(resolution)]
    return ((theta, w, pb_optimal(n, w, theta), pb_optimal_sufficient(w, theta))
            for theta in thetas for w in ws)

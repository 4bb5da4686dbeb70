"""Vote tables for a committee judging a two-premiss conclusion.

A committee of n voters (n odd) votes yes/no on two premisses P and Q;
the conclusion passes for a voter iff they accept both.  A vote table
(x, y, z, t) counts voters by ballot: x accepted both premisses, y only
P, z only Q, t neither.  Swapping y and z (the transpose) relabels the
premisses, and reasonable rules treat P and Q symmetrically, so most
code works with the canonical representative having y >= z.

Tables carry two coordinates that drive everything downstream: the
margin rho = x - t and the imbalance alpha = |y - z|.  Tables sharing
(rho, alpha) form a class; for odd n, rho + alpha is always odd.

One node layout per committee size, from one walk over (rho, x, y) and
kept in an LRU cache of 4 entries, owns the nodes for every module: the
tables in node order and the run starts, which give a table's node in
closed form and, on first use, the class grouping, covers and cells.
What the other modules derive from n alone (posets, classical rules,
law terms, rank trees) is kept in the layout by ``per_size``, so its
bound is the only one on per-size data and nothing outlives it.

The validators of the scalar parameters (committee size n, loss
weight w, competence theta) live here too, one per parameter.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache, wraps
from typing import Iterator, NamedTuple

from .errors import InvalidParameterError

MAX_N = 99


class VoteTable(NamedTuple):
    x: int
    y: int
    z: int
    t: int

    @property
    def n(self) -> int:
        return self.x + self.y + self.z + self.t

    @property
    def rho(self) -> int:
        return self.x - self.t

    @property
    def alpha(self) -> int:
        return abs(self.y - self.z)

    def transpose(self) -> "VoteTable":
        return VoteTable(self.x, self.z, self.y, self.t)

    def is_canonical(self) -> bool:
        return self.y >= self.z


class TableClass(NamedTuple):
    rho: int
    alpha: int


class _Validated:
    """NamedTuple mixin: ``_make``, and so ``_replace``, go through ``__new__``."""
    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))


def validate_n(n) -> int:
    """Committee size: odd integer in 1..MAX_N."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise InvalidParameterError(f"committee size must be an int, got {n!r}")
    if n < 1 or n > MAX_N or n % 2 == 0:
        raise InvalidParameterError(
            f"committee size must be odd and in 1..{MAX_N}, got {n}")
    return n


def _as_float(value, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise InvalidParameterError(
            f"{what} must be a real number, got {value!r}") from None


def validate_w(w) -> float:
    """Loss weight: the share w of the loss put on false positives."""
    w = _as_float(w, "loss weight w")
    if not 0.0 < w < 1.0:
        raise InvalidParameterError(f"loss weight w must lie in (0, 1), got {w}")
    return w


def validate_theta(theta, *, goodness: bool = False) -> float:
    """Competence: (0, 1) in the probability model, (1/2, 1) for the
    goodness test, whose odds eta = theta / (1 - theta) must exceed 1."""
    theta = _as_float(theta, "competence")
    low, domain = (0.5, "(1/2, 1) here") if goodness else (0.0, "(0, 1)")
    if not low < theta < 1.0:
        raise InvalidParameterError(f"competence must lie in {domain}, got {theta}")
    return theta


def validate_table(table) -> VoteTable:
    try:
        t = VoteTable(*table)
    except TypeError:
        raise InvalidParameterError(
            f"a table needs exactly 4 entries, got {table!r}") from None
    if not all(isinstance(c, int) and not isinstance(c, bool) and c >= 0 for c in t):
        raise InvalidParameterError(f"table entries must be ints >= 0, got {table!r}")
    if t.n % 2 == 0 or t.n < 1:
        raise InvalidParameterError(f"table {table!r} sums to even or zero size {t.n}")
    return t


def validate_class(cls, n: int | None = None) -> TableClass:
    try:
        c = TableClass(*cls)
    except TypeError:
        raise InvalidParameterError(
            f"a class needs exactly 2 coordinates, got {cls!r}") from None
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in c):
        raise InvalidParameterError(f"class coordinates must be ints, got {cls!r}")
    if c.alpha < 0:
        raise InvalidParameterError(f"alpha must be >= 0, got {cls!r}")
    if (c.rho + c.alpha) % 2 == 0:
        # odd committees only: rho and alpha have opposite parity
        raise InvalidParameterError(f"rho + alpha must be odd, got {cls!r}")
    if n is not None:
        validate_n(n)
        if abs(c.rho) + c.alpha > n:
            raise InvalidParameterError(f"class {cls!r} does not occur for n={n}")
    return c


def transpose(table) -> VoteTable:
    return validate_table(table).transpose()


def canonical(table) -> VoteTable:
    """Representative of the transpose pair with y >= z."""
    t = validate_table(table)
    return t if t.y >= t.z else t.transpose()


def table_class(table) -> TableClass:
    t = validate_table(table)
    return TableClass(t.rho, t.alpha)


def node_sort_key(table: VoteTable):
    """Descending (rho, x, y), the node order."""
    return (-table.rho, -table.x, -table.y)


def class_sort_key(cls: TableClass):
    return (-cls.rho, -cls.alpha)


def table_count(n: int) -> int:
    """Number of canonical tables for committee size n."""
    validate_n(n)
    return (2 * n**3 + 15 * n**2 + 34 * n + 21) // 24


def class_count(n: int) -> int:
    validate_n(n)
    return (n + 1) * (n + 2) // 2


class _Layout:
    """Tables in node order and the first node of each (rho, x) run: a
    run fixes x and t = x - rho and counts z up from 0, so table
    (x, y, z, t) is node starts[n - rho][(n + rho)//2 - x] + z."""

    def __init__(self, n: int):
        # at margin rho a table with x voters for both premisses has
        # t = x - rho, y + z = s = n - x - t, and y runs down to y >= z
        tables = []
        self.starts = starts = []
        for rho in range(n, -n - 1, -1):
            starts.append(runs := [])
            for x in range((n + rho) // 2, max(rho, 0) - 1, -1):
                runs.append(len(tables))
                t, s = x - rho, n - 2 * x + rho
                tables.extend(VoteTable(x, y, s - y, t) for y in range(s, (s - 1) // 2, -1))
        self.n, self.tables, self.derived = n, tuple(tables), {}

    @cached_property
    def groups(self) -> dict:
        """Class -> its ascending node indices, in descending (rho, alpha).

        Run j holds alpha = s, s - 2, ... with s = 2j + alpha % 2, so the
        k-th member is start + (s - alpha)//2 = starts[alpha//2 + k] + k.
        """
        n = self.n
        out = {}
        for rho, runs in zip(range(n, -n - 1, -1), self.starts):
            for alpha in range(n - abs(rho), -1, -2):
                out[TableClass(rho, alpha)] = tuple(
                    start + k for k, start in enumerate(runs[alpha // 2:]))
        return out

    def node(self, table) -> int:
        """Node index of a table of size n, given in either orientation."""
        x, _, z, t = T = canonical(table)
        if T.n != self.n:
            raise InvalidParameterError(f"table {tuple(table)} has size {T.n}, not {self.n}")
        n, rho = self.n, x - t
        return self.starts[n - rho][(n + rho) // 2 - x] + z

    @cached_property
    def up(self) -> tuple:
        """Ascending upper-cover node indices of each node, shift order.

        z->x and y->x are offsets z - 1 and z of run (x + 1, t), t->y and
        t->z offsets z and z + 1 of run (x, t - 1), both one rank up; at
        y == z, y->x and t->z repeat z->x and t->y.
        """
        n, starts, up = self.n, self.starts, [()]  # the top table has no covers
        for rho in range(n - 1, -n - 1, -1):
            above = starts[n - rho - 1]
            for x in range((n + rho) // 2, max(rho, 0) - 1, -1):
                t, s, d = x - rho, n - 2 * x + rho, (n + rho + 1) // 2 - x
                # runs (x + 1, t) and (x, t - 1) start at above[d - 1] and
                # above[d]; the first is not read at s = 0, nor the second at t = 0
                a, b = above[d - 1], above[d] if t else 0
                for z in range(s // 2 + 1):
                    js = [a + z - 1] if z else []
                    if s - z > z:
                        js.append(a + z)
                    if t:
                        js.append(b + z)
                        if s - z > z:
                            js.append(b + z + 1)
                    up.append(tuple(js))
        return tuple(up)

    @cached_property
    def cells(self):
        """Cube cells (x*b + y)*b + z, b = n + 1, in node order, for numpy."""
        import numpy as np

        b = self.n + 1
        return np.array([(x * b + y) * b + z for x, y, z, _ in self.tables])


_layout = lru_cache(maxsize=4)(_Layout)


def per_size(make):
    """Keep make(n, *args), never None, in the size-n layout; n must be valid."""
    @wraps(make)
    def cached(n, *args):
        derived = _layout(n).derived
        if (value := derived.get((make, args))) is None:
            value = derived[make, args] = make(n, *args)
        return value
    return cached


def enumerate_tables(n: int) -> list[VoteTable]:
    """All canonical tables, sorted by descending (rho, x, y)."""
    return list(_layout(validate_n(n)).tables)


def enumerate_classes(n: int) -> list[TableClass]:
    """All classes (rho, alpha) occurring at size n, descending (rho, alpha)."""
    return list(_layout(validate_n(n)).groups)


def class_members(cls, n: int) -> list[VoteTable]:
    """Canonical tables of a class, in node order."""
    c = validate_class(cls, validate_n(n))
    layout = _layout(n)
    return [layout.tables[i] for i in layout.groups[c]]


def whitney_numbers(n: int) -> dict[int, int]:
    """Canonical tables per rank rho, for rho in -n..n.

    Closed form: (n - rho + 4)(n - rho + 2)/8 at odd rho >= 1, constant
    across the even rank just below, mirrored at negative ranks.
    """
    validate_n(n)
    w = {}
    for rho in range(n, -1, -1):
        w[rho] = (n - rho + 4) * (n - rho + 2) // 8 if rho % 2 else w[rho + 1]
    for rho in range(1, n + 1):
        w[-rho] = w[rho]
    return dict(sorted(w.items()))


def multinomial(table) -> int:
    """Exact count of voter orderings producing the ordered table."""
    t = validate_table(table)
    n = t.n
    return math.comb(n, t.x) * math.comb(n - t.x, t.y) * math.comb(n - t.x - t.y, t.z)


def ordered_tables(n: int) -> Iterator[VoteTable]:
    """All ordered tables (transposes not identified)."""
    validate_n(n)
    for x in range(n + 1):
        for y in range(n + 1 - x):
            for z in range(n + 1 - x - y):
                yield VoteTable(x, y, z, n - x - y - z)

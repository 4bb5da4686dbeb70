"""Decision rules: symmetric yes/no verdicts on vote tables.

A rule maps each table of a fixed committee size to a conclusion
verdict.  Rules here are always premiss-symmetric (they cannot tell y
from z), so a rule is stored as the set of node indices of the node
layout (``dilemma.tables``) that it accepts; ``positives``, the
canonical tables at those nodes, is a view derived from it.  A rule is
admissible when its positive set is also upward closed in the single
ballot shift order: shifting any voter toward the premisses never
flips a yes back to a no.  Admissible rules are exactly the upper sets
of the extended poset, encoded compactly by their antichain of minimal
positive tables; one upward search over the layout's covers finds both,
and only ``from_antichain`` builds the extended poset itself.

The classes (rho, alpha) of the nodes are read off the class grouping
of the same layout: the classes in descending (rho, alpha), each with
its ascending node indices.  ``from_classes`` takes the union of the
groups, ``positive_classes`` keeps the classes whose groups meet the
accepted indices, and ``is_class_constant`` tests that each of those
groups is accepted whole.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .poset import build_poset, strictly_above
from .tables import _layout, canonical, validate_class, validate_n


@dataclass(frozen=True)
class DecisionRule:
    n: int
    indices: frozenset  # layout node indices answered "yes"
    antichain: tuple    # minimal positives, node order
    admissible: bool

    @classmethod
    def _of(cls, n: int, idxs: frozenset) -> "DecisionRule":
        layout = _layout(n)
        above = strictly_above(layout.up, idxs)
        minimal = tuple(layout.tables[i] for i in sorted(idxs) if i not in above)
        return cls(n, idxs, minimal, above <= idxs)

    @classmethod
    def from_tables(cls, n: int, tables) -> "DecisionRule":
        return cls._of(n, frozenset(map(_layout(validate_n(n)).node, tables)))

    @classmethod
    def from_antichain(cls, n: int, antichain) -> "DecisionRule":
        po = build_poset(validate_n(n), "extended")
        pos = po.upper_set(tuple(canonical(T) for T in antichain))
        return cls.from_tables(n, pos)

    @classmethod
    def from_classes(cls, n: int, classes) -> "DecisionRule":
        groups = _layout(validate_n(n)).groups
        return cls._of(n, frozenset(i for c in classes for i in groups[validate_class(c, n)]))

    @classmethod
    def from_predicate(cls, n: int, predicate) -> "DecisionRule":
        """Rule accepting the canonical tables where predicate(T) is true."""
        tables = _layout(validate_n(n)).tables
        return cls._of(n, frozenset(i for i, T in enumerate(tables) if predicate(T)))

    @cached_property
    def positives(self) -> frozenset:
        """Canonical tables answered "yes", read off ``indices``."""
        tables = _layout(self.n).tables
        return frozenset(tables[i] for i in self.indices)

    def decides(self, table) -> int:
        return int(_layout(self.n).node(table) in self.indices)

    def positive_classes(self) -> tuple:
        """Classes touched by the positive set, descending (rho, alpha)."""
        return self._classes

    @cached_property
    def _classes(self) -> tuple:
        idxs = self.indices
        return tuple(c for c, group in _layout(self.n).groups.items()
                     if not idxs.isdisjoint(group))

    def is_class_constant(self) -> bool:
        """True when the verdict depends on the table only through its class."""
        groups = _layout(self.n).groups
        return all(self.indices.issuperset(groups[c]) for c in self.positive_classes())

    def __repr__(self):
        tag = "admissible" if self.admissible else "inadmissible"
        return (f"DecisionRule(n={self.n}, {tag}, "
                f"antichain={[tuple(T) for T in self.antichain]})")


def empty_rule(n: int) -> DecisionRule:
    """The constant-no rule (admissible; empty antichain)."""
    return DecisionRule.from_tables(n, ())

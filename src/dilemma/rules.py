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
positive tables; a set of tables gets both from one upward search over
the layout's covers.

The classes (rho, alpha) come from the layout's class grouping: the
classes in descending (rho, alpha), each with its ascending node
indices.  A union of classes is an upper set when it holds the upper
neighbours (rho+1, alpha+-1) of its classes, and its minimal tables
are then the members of its classes with no lower neighbour (rho-1,
alpha+-1) in it; ``minimal_classes`` are their classes.
``positive_classes`` keeps the classes whose groups meet the indices;
``is_class_constant`` tests that each is accepted whole.
"""

from __future__ import annotations

from functools import cached_property
from operator import attrgetter

from .poset import build_poset, strictly_above
from .tables import _layout, canonical, validate_class, validate_n


class DecisionRule:
    """Immutable; equal, and hashed alike, when n, indices (layout nodes answered
    "yes"), antichain (minimal positives, node order) and admissible are."""

    def __init__(self, n: int, indices: frozenset, antichain: tuple, admissible: bool):
        vars(self).update(n=n, indices=indices, antichain=antichain, admissible=admissible)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__
    _key = property(attrgetter("n", "indices", "antichain", "admissible"))

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    @classmethod
    def _of(cls, n: int, idxs: frozenset) -> "DecisionRule":
        layout = _layout(n)
        above = strictly_above(layout.up, idxs)
        minimal = tuple(layout.tables[i] for i in sorted(idxs) if i not in above)
        return cls(n, idxs, minimal, above <= idxs)

    @classmethod
    def _of_classes(cls, n: int, classes) -> "DecisionRule":
        """The union of the groups of ``classes``, certified class by class
        when it is an upper set of classes and by ``_of`` otherwise."""
        groups, have = _layout(n).groups, set(classes)
        idxs = frozenset(i for c in have for i in groups[c])
        if any((r + 1, a + 1) not in have and (r + 1, a + 1) in groups
               or (r + 1, a - 1) not in have and (r + 1, a - 1) in groups for r, a in have):
            return cls._of(n, idxs)
        low = sorted(i for r, a in have
                     if (r - 1, a + 1) not in have and (r - 1, abs(a - 1)) not in have
                     for i in groups[r, a])
        return cls(n, idxs, tuple(_layout(n).tables[i] for i in low), True)

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
        return cls._of_classes(validate_n(n), [validate_class(c, n) for c in classes])

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

    def minimal_classes(self) -> tuple:
        """Classes of the antichain: the minimal classes of a class-constant upper set."""
        low = {(T.rho, T.alpha) for T in self.antichain}
        return tuple(c for c in _layout(self.n).groups if c in low)

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

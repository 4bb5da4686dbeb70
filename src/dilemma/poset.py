"""Partial orders on vote tables induced by single-ballot shifts.

A table moves up the order when one voter shifts one ballot toward a
premiss: either a "neither" voter accepts P or Q, or a one-premiss
voter accepts the other premiss.  The four covering moves of a
canonical table (x, y, z, t),

    (x, y, z+1, t-1)   (x, y+1, z, t-1)   (x+1, y-1, z, t)   (x+1, y, z-1, t)

are fixed steps of 1, b, b*b - b and b*b - 1 on the cell (x*b + y)*b + z
of the flat (x, y, z) cube, b = n + 1, where a table and its transpose
name one node.  The extended nodes and these covers belong to the node
layout of ``dilemma.tables``, so the poset, the laws and the rules share
one node order and one cover table.  The margin rho = x - t is a rank:
every cover raises it by one.  Three poset modes exist:

* ``extended``: canonical tables under the shift order.
* ``quotient``: classes (rho, alpha) with covers (rho+1, alpha+-1);
  shifts never tell y-heavy from z-heavy tables apart.
* ``optimality_reduced``: classes reordered so that the upper sets are
  exactly the candidate optimal rules: covers (rho, alpha-2) and
  (rho+1, alpha+1), plus a final (n-1, 1) <= (n, 0).  This mode is not
  graded by rho.

Upper sets of these posets are in bijection with monotone symmetric
rules; the antichain of minimal elements is the compact encoding.
Every cover raises (rho, -alpha), so ``upper_sets`` visits the nodes
by descending rho, then ascending alpha, and lets a node join once all
its upper covers are in.  ``minimal_elements`` is cover-local too: a
set is an upper set when it holds its members' upper covers, and its
minimal members are those no member covers.  Closures take one upward
search over the covers, ``strictly_above``, in O(nodes + covers):
``upper_set``, ``leq`` and ``comparable`` here, and the rules of
``dilemma.rules`` given by their tables.

A ``Poset`` stores upper-cover indices only and derives ``covers`` from them.
Posets are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

from typing import Iterator

from .errors import InvalidParameterError, StructuralError
from .tables import _layout, enumerate_classes, per_size, validate_n

MODES = ("extended", "quotient", "optimality_reduced")
# largest n whose upper sets are listed unforced (768 extended at n = 5)
ENUMERATION_BOUND = {"extended": 5, "quotient": 9, "optimality_reduced": 9}


class Poset:
    """Nodes in a fixed order plus the ascending upper-cover indices of each."""

    def __init__(self, n: int, mode: str, nodes, up):
        self.n = n
        self.mode = mode
        self.nodes = tuple(nodes)
        self.index = {v: i for i, v in enumerate(self.nodes)}
        self._up = tuple(up)

    @property
    def covers(self) -> tuple:
        """Cover pairs (lower, upper), ordered by their index pairs."""
        nodes = self.nodes
        return tuple((nodes[i], nodes[j]) for i, js in enumerate(self._up) for j in js)

    def __len__(self):
        return len(self.nodes)

    def __repr__(self):
        return f"Poset(n={self.n}, mode={self.mode!r}, {len(self.nodes)} nodes)"

    def rank(self, node) -> int:
        return self.nodes[self._idx(node)].rho

    def _idx(self, node) -> int:
        try:
            return self.index[node]
        except (KeyError, TypeError):
            raise InvalidParameterError(
                f"{node!r} is not a node of this {self.mode} poset") from None

    def strictly_above(self, idxs) -> set[int]:
        """Indices of the nodes strictly above some node of ``idxs``."""
        return strictly_above(self._up, idxs)

    def _leq_idx(self, a: int, b: int) -> bool:
        return a == b or b in self.strictly_above((a,))

    def leq(self, a, b) -> bool:
        """a <= b in this poset."""
        return self._leq_idx(self._idx(a), self._idx(b))

    def comparable(self, a, b) -> bool:
        ia, ib = self._idx(a), self._idx(b)
        return self._leq_idx(ia, ib) or self._leq_idx(ib, ia)

    def upper_set(self, antichain) -> frozenset:
        """Upward closure of a pairwise-incomparable node set."""
        idxs = [self._idx(a) for a in antichain]
        if len(set(idxs)) != len(idxs):
            raise StructuralError(f"antichain has repeated nodes: {antichain!r}")
        closure = self.strictly_above(idxs)
        if not closure.isdisjoint(idxs):
            # some member lies above another; find the pair to name it
            for p, a in enumerate(idxs):
                for b in idxs[p + 1:]:
                    if self._leq_idx(a, b) or self._leq_idx(b, a):
                        raise StructuralError(
                            f"{self.nodes[a]!r} and {self.nodes[b]!r} are comparable")
        closure.update(idxs)
        return frozenset(self.nodes[i] for i in closure)

    def minimal_elements(self, nodes) -> tuple:
        """Minimal elements of an upper set, in node order."""
        idxs = {self._idx(v) for v in nodes}
        covered = {j for i in idxs for j in self._up[i]}
        if not covered <= idxs:
            raise StructuralError("input node set is not an upper set")
        return tuple(self.nodes[i] for i in sorted(idxs - covered))

    def upper_sets(self) -> Iterator[tuple[int, int]]:
        """Every upper set once, as bitmasks (upper, minimal) of its members
        and minimal elements, bit N-1-i for node i (ascending masks are in
        bitset order).  Depth first from the empty set: a set grows by a
        later node whose upper covers are all in, which is then minimal,
        and its covers stop being minimal."""
        nodes, N = self.nodes, len(self.nodes)
        bit = [1 << (N - 1 - i) for i in range(N)]
        order = sorted(range(N), key=lambda i: (-nodes[i].rho, nodes[i].alpha))
        steps = [(sum(bit[j] for j in self._up[i]), bit[i]) for i in order]
        stack = [(0, 0, 0)]
        while stack:
            upper, minimal, start = stack.pop()
            yield upper, minimal
            # pushed last to first, so the earliest node is grown first
            for p in range(N - 1, start - 1, -1):
                need, b = steps[p]
                if upper & need == need:
                    stack.append((upper | b, minimal & ~need | b, p + 1))

    def antichains(self) -> Iterator[tuple]:
        """Stream every antichain exactly once, elements in node order: the
        minimal elements of each upper set, in the order of ``upper_sets``,
        so the empty antichain comes first."""
        nodes, top = self.nodes, len(self.nodes) - 1
        for _, minimal in self.upper_sets():
            ac = []
            while minimal:
                b = minimal.bit_length() - 1
                ac.append(nodes[top - b])
                minimal ^= 1 << b
            yield tuple(ac)


def strictly_above(up, idxs) -> set[int]:
    """Indices strictly above some of ``idxs`` under the upper covers ``up``."""
    above = set()
    stack = list(idxs)
    while stack:
        for j in up[stack.pop()]:
            if j not in above:
                above.add(j)
                stack.append(j)
    return above


def _class_up(n, mode, classes):
    index = {c: i for i, c in enumerate(classes)}
    up = []
    for r, a in classes:
        # the reduced order steps down to (rho, alpha-2) instead, except
        # at (n-1, 1), the only class at rho = n-1, which sits below (n, 0)
        second = (r + 1, a - 1) if mode == "quotient" or r == n - 1 else (r, a - 2)
        up.append(tuple(index[d] for d in ((r + 1, a + 1), second) if d in index))
    return up


def build_poset(n: int, mode: str = "extended") -> Poset:
    """Construct (and cache) the poset for committee size n."""
    validate_n(n)
    if mode not in MODES:
        raise InvalidParameterError(f"mode must be one of {MODES}, got {mode!r}")
    # one cache entry per (n, mode), however the arguments were passed
    return _build_poset(n, mode)


@per_size
def _build_poset(n: int, mode: str) -> Poset:
    if mode == "extended":
        layout = _layout(n)
        return Poset(n, mode, layout.tables, layout.up)
    nodes = enumerate_classes(n)
    return Poset(n, mode, nodes, _class_up(n, mode, nodes))


def max_antichain_size(n: int, mode: str = "extended") -> int:
    """Width of the poset (largest antichain), closed form."""
    validate_n(n)
    if mode == "extended":
        return (n + 3) * (n + 1) // 8
    if mode == "quotient":
        return (n + 1) // 2
    raise InvalidParameterError(f"no width formula for mode {mode!r}")


def to_dot(poset: Poset) -> str:
    """Graphviz source for the Hasse diagram, one rank level per row."""
    def label(v):
        return '"(' + ",".join(str(c) for c in v) + ')"'

    lines = ["digraph hasse {", "  rankdir=BT;", "  node [shape=plaintext];"]
    levels: dict[int, list] = {}
    for v in poset.nodes:
        levels.setdefault(v.rho, []).append(v)
    for rho in sorted(levels, reverse=True):
        row = " ".join(label(v) + ";" for v in levels[rho])
        lines.append("  { rank=same; " + row + " }")
    for lo, hi in poset.covers:
        lines.append(f"  {label(lo)} -> {label(hi)};")
    lines.append("}")
    return "\n".join(lines) + "\n"

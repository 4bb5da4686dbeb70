"""Independent brute-force reference implementations for the tests.

Everything here works on plain tuples and recomputes results from the
definitions, deliberately not importing the package, so tests can
compare the two paths.  ``rank_scan``, ``upper_set_table`` and
``parent_tree`` are the exceptions.  Run on the package's poset and
laws, they keep what ``rank_rules`` once did, as references: the
antichain scan it used before it scored cached upper sets, and the
upper-set table and the parent tree derived from it that it kept
before it kept the tree alone.
"""

import math
from fractions import Fraction


def ordered_tables(n):
    out = []
    for x in range(n + 1):
        for y in range(n + 1 - x):
            for z in range(n + 1 - x - y):
                out.append((x, y, z, n - x - y - z))
    return out


def canon(T):
    x, y, z, t = T
    return (x, y, z, t) if y >= z else (x, z, y, t)


def canonical_tables(n):
    return sorted({canon(T) for T in ordered_tables(n)},
                  key=lambda T: (-(T[0] - T[3]), -T[0], -T[1]))


def classes(n):
    return sorted(((rho, alpha)
                   for rho in range(-n, n + 1)
                   for alpha in range(n + 1)
                   if (rho + alpha) % 2 == 1 and abs(rho) + alpha <= n),
                  key=lambda c: (-c[0], -c[1]))


def multinom(T):
    x, y, z, t = T
    n = x + y + z + t
    return math.comb(n, x) * math.comb(n - x, y) * math.comb(n - x - y, z)


def state_exponents(T, state):
    x, y, z, t = T
    if state == "PQ":
        return (2 * x + y + z, y + z + 2 * t)
    if state == "PnQ":
        return (x + 2 * y + t, x + 2 * z + t)
    if state == "nPQ":
        return (x + 2 * z + t, x + 2 * y + t)
    if state == "nPnQ":
        return (y + z + 2 * t, 2 * x + y + z)
    raise ValueError(state)


def table_prob(T, state, theta):
    a, b = state_exponents(T, state)
    return multinom(T) * theta**a * (1.0 - theta) ** b


def vote_slots(state, theta):
    """One ballot's law over the slots (both, P only, Q only, neither)."""
    c, i = theta, 1.0 - theta
    return {"PQ": (c * c, c * i, i * c, i * i),
            "PnQ": (c * i, c * c, i * i, i * c),
            "nPQ": (i * c, i * i, c * c, c * i),
            "nPnQ": (i * i, i * c, c * i, c * c)}[state]


def per_voter_law(state, thetas):
    """Ordered-table law of a committee, convolved voter by voter over a dict."""
    dist = {(0, 0, 0, 0): 1.0}
    for th in thetas:
        step = vote_slots(state, th)
        new = {}
        for (x, y, z, t), p in dist.items():
            for slot, key in enumerate(((x + 1, y, z, t), (x, y + 1, z, t),
                                        (x, y, z + 1, t), (x, y, z, t + 1))):
                new[key] = new.get(key, 0.0) + p * step[slot]
        dist = new
    return dist


def pb(T):
    x, y, z, t = T
    return x + y > z + t and x + z > y + t


def cb(T):
    x, y, z, t = T
    return x > y + z + t


def hb(T):
    x, y, z, t = T
    return x > z + t and x > y + t


def rule_fp(positive, n, theta):
    """positive: predicate on ordered tuples."""
    return sum(table_prob(T, "PnQ", theta) for T in ordered_tables(n) if positive(T))


def rule_fn(positive, n, theta):
    return sum(table_prob(T, "PQ", theta) for T in ordered_tables(n) if not positive(T))


# --- poset covers recomputed from the shift moves -------------------------

def extended_covers(n):
    nodes = set(canonical_tables(n))
    cov = set()
    for T in nodes:
        x, y, z, t = T
        succ = set()
        if t:
            succ.add(canon((x, y, z + 1, t - 1)))
            succ.add(canon((x, y + 1, z, t - 1)))
        if y:
            succ.add(canon((x + 1, y - 1, z, t)))
        if z:
            succ.add(canon((x + 1, y, z - 1, t)))
        for S in succ:
            assert S in nodes
            cov.add((T, S))
    return cov


def quotient_covers(n):
    have = set(classes(n))
    return {((r, a), (r + 1, na))
            for (r, a) in have
            for na in (a - 1, a + 1)
            if na >= 0 and (r + 1, na) in have}


def reduced_covers(n):
    have = set(classes(n))
    cov = set()
    for (r, a) in have:
        if a >= 2:
            cov.add(((r, a), (r, a - 2)))
        if (r + 1, a + 1) in have:
            cov.add(((r, a), (r + 1, a + 1)))
    cov.add(((n - 1, 1), (n, 0)))
    return cov


def closure_from_covers(nodes, covers):
    """node -> set of nodes >= node, by BFS over the cover digraph."""
    succ = {v: [] for v in nodes}
    for lo, hi in covers:
        succ[lo].append(hi)
    up = {}
    for v in nodes:
        seen = {v}
        stack = [v]
        while stack:
            for w in succ[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        up[v] = seen
    return up


def count_monotone_labelings(nodes, covers):
    """Number of upper sets, by trying all 2^N indicator labelings."""
    nodes = list(nodes)
    up = closure_from_covers(nodes, covers)
    idx = {v: i for i, v in enumerate(nodes)}
    upmask = []
    for v in nodes:
        m = 0
        for w in up[v]:
            m |= 1 << idx[w]
        upmask.append(m)
    count = 0
    for bits in range(1 << len(nodes)):
        ok = True
        for i, m in enumerate(upmask):
            if bits >> i & 1 and bits & m != m:
                ok = False
                break
        if ok:
            count += 1
    return count


def exact_good(cls, w, theta):
    """Goodness of class (rho, alpha) on the exact values of the floats w
    and theta: G(eta) < xi multiplied through by eta**(rho + alpha) > 0,
    that is eta**(2 alpha) + 1 < xi * eta**(rho + alpha); a tie is bad."""
    rho, alpha = cls
    theta, w = Fraction(theta), Fraction(w)
    eta = theta / (1 - theta)
    return eta ** (2 * alpha) + 1 < 2 * (1 - w) / w * eta ** (rho + alpha)


def bisect_g_root(rho, alpha, xi, lo, hi, tol=1e-13):
    """Root of eta**(-rho-alpha) + eta**(-rho+alpha) = xi on [lo, hi]."""
    def f(eta):
        return eta ** (-rho - alpha) + eta ** (-rho + alpha) - xi

    sign_lo = f(lo) > 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (f(mid) > 0) == sign_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def all_upper_sets(nodes, covers):
    """Every upper set as a frozenset, by splitting on one node v.

    The upper sets that hold v are the nodes above v joined with an
    upper set of the order left outside them; those without v are the
    upper sets of the order left outside the nodes below v.  Each upper
    set comes out once, and the work follows their number, not 2^N.
    """
    nodes = list(nodes)
    up = closure_from_covers(nodes, covers)
    down = {v: {u for u in nodes if v in up[u]} for v in nodes}

    def split(rest):
        if not rest:
            return [frozenset()]
        v = rest[0]
        above = up[v]
        with_v = [frozenset(above) | u for u in split([u for u in rest if u not in above])]
        return with_v + split([u for u in rest if u not in down[v]])

    return split(nodes)


def block_tally(n, state, thetas, trials, seed, block_trials=1 << 16):
    """The table-key tally (x * (n+1) + y) * (n+1) + z of a seeded run,
    drawing each block's two (m, n) arrays whole, as the simulator did
    before it read its draws in chunks."""
    import numpy as np

    thetas = np.asarray(thetas, dtype=float)
    p_true = state in ("PQ", "PnQ")
    q_true = state in ("PQ", "nPQ")

    nblocks = (trials + block_trials - 1) // block_trials
    children = np.random.SeedSequence(seed).spawn(nblocks)
    base = n + 1
    tally = np.zeros(base**3, dtype=np.int64)
    remaining = trials
    for child in children:
        m = min(block_trials, remaining)
        remaining -= m
        rng = np.random.Generator(np.random.PCG64(child))
        correct_p = rng.random((m, n)) < thetas
        correct_q = rng.random((m, n)) < thetas
        vote_p = correct_p if p_true else ~correct_p
        vote_q = correct_q if q_true else ~correct_q
        x = (vote_p & vote_q).sum(axis=1)
        y = (vote_p & ~vote_q).sum(axis=1)
        z = (~vote_p & vote_q).sum(axis=1)
        tally += np.bincount((x * base + y) * base + z, minlength=base**3)
    return tally


def rank_scan(request):
    """Top-k ranking by scanning every antichain, building its upper set
    and summing the node masses that the set contains in node order.

    The scan that ``rank_rules`` replaced, kept verbatim but for three
    things: no validation, the classical names looked up inline, and a
    false negative total that adds the masses left to right, as builtin
    sum did before Python 3.12.
    """
    from dilemma.optimal import classical_rule
    from dilemma.poset import build_poset
    from dilemma.probability import State, as_profile, loss, node_law
    from dilemma.ranking import RankedRule
    from dilemma.rules import DecisionRule

    n, w = request.n, request.w
    profile = as_profile(request.profile)
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
    fn_total = 0.0
    for m in fn_c:
        fn_total += m
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

    classical = {kind: classical_rule(kind, n).indices for kind in ("pb", "cb", "hb")}
    ranked = []
    for rank, (_, _, _, ac) in enumerate(candidates[:request.k], start=1):
        if request.mode == "extended":
            rule = DecisionRule.from_antichain(n, ac)
        else:
            rule = DecisionRule.from_classes(n, po.upper_set(ac))
        names = [kind for kind, idxs in classical.items() if rule.indices == idxs]
        ranked.append(RankedRule(rank, ac, ",".join(names) if names else None, rule,
                                 loss(rule, w, profile)))
    return ranked


def upper_set_table(n, mode):
    """Ascending node indices of each upper set of the ranking's poset, in
    bitset order: the table that ``rank_rules`` kept before it kept only
    the parent tree, built as it was then."""
    from dilemma.poset import build_poset

    po = build_poset(n, "extended" if mode == "extended" else "quotient")
    digits = f"0{len(po.nodes)}b"
    masks = sorted(upper for upper, _ in po.upper_sets())
    return tuple(tuple(i for i, bit in enumerate(format(mask, digits)) if bit == "1")
                 for mask in masks)


def parent_tree(rows):
    """(parent row, last node, end row) of every row of an upper-set table
    after the empty first one, derived from the rows as ``rank_rules``
    did while it kept the table."""
    where = {row: r for r, row in enumerate(rows)}
    parents = [0] + [where[row[:-1]] for row in rows[1:]]
    ends = list(range(1, len(rows) + 1))
    for r in range(len(rows) - 1, 0, -1):  # subtree sizes, leaves first
        ends[parents[r]] += ends[r] - r
    return tuple(zip(parents[1:], (row[-1] for row in rows[1:]), ends[1:]))

"""Reference answers computed apart from dilemma, and the checks that use them.

Nothing here imports the program.  Laws are summed over ordered tables
(x, y, z, t): homogeneous ones from exact multinomials, per-voter ones
by convolving single-ballot laws.  Posets are rebuilt from the four
shift moves.  ``check`` returns one list of problems per answer; an
empty list means the answer is right.

    python3 perfbench/reference.py

recomputes the stored upper-set counts below from scratch.
"""

import functools
import json
import math

TOL = 1e-12
Z_LIMIT = 5.0  # Monte Carlo rate versus closed form, in standard errors
KINDS = ("pb", "cb", "hb")
# upper sets of the extended poset at n = 5 and of the class poset at
# n = 9; the enumerator below must find exactly these many
UPPER_SET_COUNTS = {("extended", 5): 768, ("compact", 9): 1024}

# which premisses hold in each state of nature
TRUTH = {"PQ": (True, True), "PnQ": (True, False)}


def ordered_tables(n):
    return [(x, y, z, n - x - y - z)
            for x in range(n + 1)
            for y in range(n + 1 - x)
            for z in range(n + 1 - x - y)]


def canon(T):
    x, y, z, t = T
    return T if y >= z else (x, z, y, t)


def table_class(T):
    x, y, z, t = T
    return (x - t, abs(y - z))


def multinom(T):
    x, y, z, t = T
    n = x + y + z + t
    return math.comb(n, x) * math.comb(n - x, y) * math.comb(n - x - y, z)


def ballot_law(state, theta):
    """Slot probabilities of one ballot: both, P only, Q only, neither."""
    p_true, q_true = TRUTH[state]
    a = theta if p_true else 1.0 - theta  # ballot accepts P
    b = theta if q_true else 1.0 - theta  # ballot accepts Q
    return (a * b, a * (1.0 - b), (1.0 - a) * b, (1.0 - a) * (1.0 - b))


def homogeneous_law(n, state, theta):
    both, p_only, q_only, neither = ballot_law(state, theta)
    return {T: multinom(T) * both**T[0] * p_only**T[1] * q_only**T[2] * neither**T[3]
            for T in ordered_tables(n)}


def per_voter_law(state, thetas):
    dist = {(0, 0, 0, 0): 1.0}
    for theta in thetas:
        slots = ballot_law(state, theta)
        new = {}
        for (x, y, z, t), p in dist.items():
            for key, q in zip(((x + 1, y, z, t), (x, y + 1, z, t),
                               (x, y, z + 1, t), (x, y, z, t + 1)), slots):
                new[key] = new.get(key, 0.0) + p * q
        dist = new
    return dist


def shifts_up(T):
    """The four single-ballot shifts toward the premisses, canonical."""
    x, y, z, t = T
    out = set()
    if t:
        out.add(canon((x, y + 1, z, t - 1)))
        out.add(canon((x, y, z + 1, t - 1)))
    if y:
        out.add(canon((x + 1, y - 1, z, t)))
    if z:
        out.add(canon((x + 1, y, z - 1, t)))
    return out


def shifts_down(T):
    x, y, z, t = T
    out = set()
    if y:
        out.add(canon((x, y - 1, z, t + 1)))
    if z:
        out.add(canon((x, y, z - 1, t + 1)))
    if x:
        out.add(canon((x - 1, y + 1, z, t)))
        out.add(canon((x - 1, y, z + 1, t)))
    return out


def is_upper(tables):
    return all(S in tables for T in tables for S in shifts_up(T))


def up_closure(tables):
    seen = set(tables)
    stack = list(seen)
    while stack:
        for S in shifts_up(stack.pop()):
            if S not in seen:
                seen.add(S)
                stack.append(S)
    return seen


def minimal(tables):
    return {T for T in tables if not shifts_down(T) & tables}


def classical(kind, T):
    """Verdict of a textbook rule; works on ints and on numpy arrays."""
    x, y, z, t = T
    if kind == "pb":
        return (x + y > z + t) & (x + z > y + t)
    if kind == "cb":
        return x > y + z + t
    return (x > z + t) & (x > y + t)


def is_good(cls, w, theta):
    """The goodness test G(eta) < 2 (1 - w) / w, evaluated here."""
    rho, alpha = cls
    eta = theta / (1.0 - theta)
    return eta ** (-rho - alpha) + eta ** (-rho + alpha) < 2.0 * (1.0 - w) / w


def error_rates(law_fp, law_fn, positive):
    """p_fp, p_fn of the rule whose yes-set is ``positive(T)``."""
    p_fp = math.fsum(p for T, p in law_fp.items() if positive(T))
    p_fn = math.fsum(p for T, p in law_fn.items() if not positive(T))
    return p_fp, p_fn


def near(a, b):
    return abs(a - b) <= TOL


# --- optimal -------------------------------------------------------------

def check_optimal(q, answer, laws):
    n, w, theta = q["n"], q["w"], q["theta"]
    if answer["exit"] != 0:
        return [f"exit code {answer['exit']}"]
    out = json.loads(answer["stdout"])
    if theta not in laws:
        laws[theta] = (homogeneous_law(n, "PnQ", theta), homogeneous_law(n, "PQ", theta))
    law_fp, law_fn = laws[theta]
    problems = []

    good = {canon(T) for T in law_fp if is_good(table_class(T), w, theta)}
    if not is_upper(good):
        problems.append("the good classes do not form an upper set")
    antichain = {tuple(T) for T in out["antichain_tables"]}
    positives = up_closure(antichain)
    if positives != good:
        problems.append(f"positive set differs from the good classes in "
                        f"{len(positives ^ good)} tables")
    if antichain != minimal(positives):
        problems.append("antichain is not the set of minimal positives")
    classes = {tuple(c) for c in out["classes"] or ()}
    if classes != {table_class(T) for T in good}:
        problems.append("classes differ from the good classes")

    p_fp, p_fn = error_rates(law_fp, law_fn, lambda T: canon(T) in good)
    value = w * p_fp + (1.0 - w) * p_fn
    for name, want in (("p_fp", p_fp), ("p_fn", p_fn), ("loss", value)):
        if not near(out[name], want):
            problems.append(f"{name} {out[name]!r} != reference {want!r}")
    for kind in KINDS:
        fp, fn = error_rates(law_fp, law_fn, functools.partial(classical, kind))
        if out["loss"] > w * fp + (1.0 - w) * fn + TOL:
            problems.append(f"loss above that of {kind}")
    return problems


# --- rank ----------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def rank_poset(mode, n):
    """Nodes and, per node, the indices of its upper covers.

    ``extended``: canonical tables under the shift moves.  ``compact``:
    classes (rho, alpha) with covers (rho + 1, alpha +- 1).
    """
    tables = sorted({canon(T) for T in ordered_tables(n)})
    if mode == "extended":
        nodes = tables
        ups = [shifts_up(T) for T in nodes]
    else:
        nodes = sorted({table_class(T) for T in tables})
        have = set(nodes)
        ups = [{(r + 1, a + d) for d in (-1, 1)} & have for r, a in nodes]
    index = {v: i for i, v in enumerate(nodes)}
    return nodes, [sorted(index[u] for u in up) for up in ups]


@functools.lru_cache(maxsize=None)
def upper_sets(mode, n):
    """Every upper set, as a tuple of node indices.

    Nodes are decided from the top rank down; a node may join only if
    all its upper covers already have, which yields each upper set once.
    """
    nodes, ups = rank_poset(mode, n)
    rank = [v[0] - v[3] if mode == "extended" else v[0] for v in nodes]
    order = sorted(range(len(nodes)), key=lambda i: -rank[i])
    out = []
    chosen = [False] * len(nodes)

    def extend(pos, members):
        if pos == len(order):
            out.append(tuple(members))
            return
        i = order[pos]
        extend(pos + 1, members)
        if all(chosen[j] for j in ups[i]):
            chosen[i] = True
            members.append(i)
            extend(pos + 1, members)
            members.pop()
            chosen[i] = False

    extend(0, [])
    return tuple(out)


def node_weights(mode, n, law):
    nodes, _ = rank_poset(mode, n)
    index = {v: i for i, v in enumerate(nodes)}
    weight = [0.0] * len(nodes)
    key = canon if mode == "extended" else (lambda T: table_class(canon(T)))
    for T, p in law.items():
        weight[index[key(T)]] += p
    return weight


def ranked_losses(mode, n, w, thetas):
    """(loss, p_fp) of every upper set, ascending."""
    fp = node_weights(mode, n, per_voter_law("PnQ", thetas))
    fn = node_weights(mode, n, per_voter_law("PQ", thetas))
    fn_total = math.fsum(fn)
    out = []
    for members in upper_sets(mode, n):
        p_fp = sum(map(fp.__getitem__, members))
        p_fn = fn_total - sum(map(fn.__getitem__, members))
        out.append((w * p_fp + (1.0 - w) * p_fn, p_fp))
    out.sort()
    return out


def check_rank(q, answer):
    problems = []
    for mode, ranked in zip(("extended", "compact"), answer):
        thetas = q[mode]
        n = len(thetas)
        if len(upper_sets(mode, n)) != UPPER_SET_COUNTS.get((mode, n)):
            problems.append(f"{mode}: reference enumerator found "
                            f"{len(upper_sets(mode, n))} upper sets")
        best = ranked_losses(mode, n, q["w"], thetas)
        if len(ranked) != min(len(best), 5):
            problems.append(f"{mode}: {len(ranked)} rules returned")
        for i, r in enumerate(ranked):
            if r["rank"] != i + 1:
                problems.append(f"{mode}: rank {r['rank']} at position {i + 1}")
            if not near(r["loss"], best[i][0]):
                problems.append(f"{mode}: loss {r['loss']!r} at rank {i + 1}, "
                                f"reference {best[i][0]!r}")
            if not near(r["loss"], q["w"] * r["p_fp"] + (1.0 - q["w"]) * r["p_fn"]):
                problems.append(f"{mode}: loss is not w p_fp + (1 - w) p_fn")
        for a, b in zip(ranked, ranked[1:]):
            tied = near(a["loss"], b["loss"])
            if a["loss"] > b["loss"] + TOL or (tied and a["p_fp"] > b["p_fp"] + TOL):
                problems.append(f"{mode}: ranks {a['rank']} and {b['rank']} "
                                f"out of (loss, p_fp) order")
    return problems


# --- committee -----------------------------------------------------------

def convolved_law(state, thetas):
    """Per-voter law as an (n+1)^3 array over (x, y, z), t = n - x - y - z."""
    import numpy as np

    n = len(thetas)
    dist = np.zeros((n + 1,) * 3)
    dist[0, 0, 0] = 1.0
    for theta in thetas:
        both, p_only, q_only, neither = ballot_law(state, theta)
        new = neither * dist
        new[1:] += both * dist[:-1]
        new[:, 1:] += p_only * dist[:, :-1]
        new[:, :, 1:] += q_only * dist[:, :, :-1]
        dist = new
    return dist


def check_committee(q, answer):
    import numpy as np

    n, w = q["n"], q["w"]
    law_fp = convolved_law("PnQ", q["thetas"])
    law_fn = convolved_law("PQ", q["thetas"])
    x, y, z = np.indices(law_fp.shape)
    t = n - x - y - z
    valid = t >= 0
    problems = []
    rates = {}
    for kind in KINDS:
        yes = classical(kind, (x, y, z, t)) & valid
        p_fp = math.fsum(law_fp[yes])
        p_fn = math.fsum(law_fn[valid & ~yes])
        rates[kind] = (p_fp, p_fn)
        got = answer["evals"][kind]
        for name, want in (("p_fp", p_fp), ("p_fn", p_fn),
                           ("loss", w * p_fp + (1.0 - w) * p_fn)):
            if not near(got[name], want):
                problems.append(f"{kind} {name} {got[name]!r} != reference {want!r}")
    ev = answer["evals"]
    if not ev["cb"]["p_fp"] <= ev["hb"]["p_fp"] <= ev["pb"]["p_fp"]:
        problems.append("p_fp not ordered cb <= hb <= pb")
    if not ev["pb"]["p_fn"] <= ev["hb"]["p_fn"] <= ev["cb"]["p_fn"]:
        problems.append("p_fn not ordered pb <= hb <= cb")
    if answer["count_total"] != answer["trials"]:
        problems.append(f"table counts sum to {answer['count_total']}, "
                        f"not {answer['trials']} trials")
    p = rates["pb"][0]
    stderr = math.sqrt(p * (1.0 - p) / answer["trials"])
    if abs(answer["positive_rate"] - p) > Z_LIMIT * stderr:
        problems.append(f"pb positive rate {answer['positive_rate']!r} is more than "
                        f"{Z_LIMIT} standard errors from {p!r}")
    return problems


def check(workload, queries, answers):
    """One list of problems per answer; a missing answer has none here."""
    laws = {}
    out = []
    for q, a in zip(queries, answers):
        if a is None:
            out.append([])
        elif workload == "optimal":
            out.append(check_optimal(q, a, laws))
        elif workload == "rank":
            out.append(check_rank(q, a))
        else:
            out.append(check_committee(q, a))
    return out


if __name__ == "__main__":
    for (mode, n), stored in UPPER_SET_COUNTS.items():
        print(f"{mode} n={n}: {len(upper_sets(mode, n))} upper sets (stored {stored})")

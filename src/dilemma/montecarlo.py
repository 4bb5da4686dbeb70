"""Monte Carlo cross-check of the closed-form table probabilities.

Trials draw every voter's two premiss judgments, aggregate them into a
vote table, and tally tables (and rule verdicts, when a rule is
given).  Trials run in blocks of 2**16; each block gets its own child
seed from numpy's SeedSequence spawn, so results are reproducible and
independent of how blocks are distributed over workers.  The
generator algorithm is PCG64 and is recorded in every result.

A block of m trials reads m * n doubles for the P judgments from
PCG64(child) and the next m * n for the Q judgments, so the Q stream
starts at PCG64(child) advanced by m * n steps.  Both streams are read
in chunks of a few thousand trials into reused buffers, which keeps the
working set cache-sized and the draws identical to reading the block
at once.  Every simulation runs its blocks on a thread pool of up to
one thread per usable CPU, one thread for a single block (numpy
releases the GIL while it draws and counts); integer tallies add up in
any order, so the result is the same for any thread count.  numpy loads
when ``simulate`` runs; this module, when one of its names is first used.
"""

from __future__ import annotations

import math
import os
from typing import NamedTuple

from .errors import InvalidParameterError
from .probability import State, as_profile, as_state, profile_thetas
from .rules import DecisionRule
from .tables import VoteTable, _Validated, node_sort_key, validate_n

BLOCK_TRIALS = 1 << 16
RNG_ALGORITHM = "pcg64"
# trials per chunk of draws: a (4096, n) float buffer stays in cache
_CHUNK_TRIALS = 4096


class SimulationSpec(_Validated, NamedTuple("SimulationSpec", [
        ("n", int), ("state", State), ("profile", object), ("trials", int),
        ("seed", int), ("rule", DecisionRule | None)])):
    __slots__ = ()

    def __new__(cls, n, state, profile, trials, seed, rule=None):
        validate_n(n)
        state, profile = as_state(state), as_profile(profile)
        profile_thetas(profile, n)
        if not isinstance(trials, int) or isinstance(trials, bool) or trials < 1:
            raise InvalidParameterError(f"trials must be a positive int, got {trials!r}")
        # SeedSequence takes no negative entropy; remapping one would
        # silently alias another seed's stream
        if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
            raise InvalidParameterError(f"seed must be an int >= 0, got {seed!r}")
        if rule is not None and rule.n != n:
            raise InvalidParameterError(f"rule is for n = {rule.n}, spec says n = {n}")
        return super().__new__(cls, n, state, profile, trials, seed, rule)


class SimulationResult(NamedTuple):
    spec: SimulationSpec
    counts: dict          # ordered VoteTable -> trial count
    frequencies: dict
    stderrs: dict         # sqrt(f (1 - f) / trials) per table
    positives: int | None
    positive_rate: float | None
    positive_stderr: float | None
    rng: str = RNG_ALGORITHM
    block_trials: int = BLOCK_TRIALS

    def to_json(self) -> dict:
        spec = self.spec
        rec = {
            "spec": {
                "n": spec.n,
                "state": spec.state.value,
                "thetas": list(profile_thetas(spec.profile, spec.n)),
                "trials": spec.trials,
                "seed": spec.seed,
                "rule": None if spec.rule is None
                        else [list(T) for T in spec.rule.antichain],
            },
            "rng": self.rng,
            "block_trials": self.block_trials,
            "tables": [
                {"table": list(T), "count": self.counts[T],
                 "frequency": self.frequencies[T], "stderr": self.stderrs[T]}
                for T in sorted(self.counts, key=node_sort_key)
            ],
        }
        if spec.rule is not None:
            rec["positive"] = {"count": self.positives,
                               "rate": self.positive_rate,
                               "stderr": self.positive_stderr}
        return rec


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def _tally(blocks, thetas, p_true: bool, q_true: bool):
    """Counts of the table keys (x * b + y) * b + z, b = n + 1, over the
    given (child seed, trials) blocks.

    Runs on a worker thread, so it calls numpy and nothing else of the
    package.  With P, Q and PQ the per-trial counts of P votes, Q votes
    and votes for both, the key is P * b + Q + PQ * (b**2 - b - 1).
    """
    import numpy as np

    n = thetas.size
    base = n + 1
    longest = max(m for _, m in blocks)
    rows = min(_CHUNK_TRIALS, longest)
    draws = np.empty((rows, n))
    vote_p = np.empty((rows, n), dtype=bool)
    vote_q = np.empty((rows, n), dtype=bool)
    both = np.empty((rows, n), dtype=bool)
    count_p, count_q, count_pq = np.empty((3, rows), dtype=np.uint8)
    scratch = np.empty(rows, dtype=np.int64)
    keys = np.empty(longest, dtype=np.int64)
    # a voter judges a premiss correctly when its draw is below theta
    cmp_p = np.less if p_true else np.greater_equal
    cmp_q = np.less if q_true else np.greater_equal
    tally = np.zeros(base**3, dtype=np.int64)
    for child, m in blocks:
        gen_p = np.random.Generator(np.random.PCG64(child))
        gen_q = np.random.Generator(np.random.PCG64(child).advance(m * n))
        for lo in range(0, m, rows):
            k = min(rows, m - lo)
            gen_p.random(out=draws[:k])
            cmp_p(draws[:k], thetas, out=vote_p[:k])
            gen_q.random(out=draws[:k])
            cmp_q(draws[:k], thetas, out=vote_q[:k])
            np.logical_and(vote_p[:k], vote_q[:k], out=both[:k])
            np.einsum("ij->i", vote_p[:k].view(np.uint8), out=count_p[:k])
            np.einsum("ij->i", vote_q[:k].view(np.uint8), out=count_q[:k])
            np.einsum("ij->i", both[:k].view(np.uint8), out=count_pq[:k])
            # widen before multiplying: the products overflow uint8
            key = keys[lo:lo + k]
            np.multiply(count_p[:k], base, out=key, dtype=np.int64)
            np.add(key, count_q[:k], out=key)
            np.multiply(count_pq[:k], base * base - base - 1, out=scratch[:k],
                        dtype=np.int64)
            np.add(key, scratch[:k], out=key)
        counts = np.bincount(keys[:m])
        tally[:counts.size] += counts
    return tally


def simulate(spec: SimulationSpec) -> SimulationResult:
    """Run the trials; same spec, same result, regardless of scheduling."""
    import numpy as np

    n = spec.n
    thetas = np.asarray(profile_thetas(spec.profile, n))
    p_true = spec.state in (State.PQ, State.PnQ)
    q_true = spec.state in (State.PQ, State.nPQ)

    nblocks = (spec.trials + BLOCK_TRIALS - 1) // BLOCK_TRIALS
    children = np.random.SeedSequence(spec.seed).spawn(nblocks)
    blocks = [(child, min(BLOCK_TRIALS, spec.trials - i * BLOCK_TRIALS))
              for i, child in enumerate(children)]
    workers = min(nblocks, _usable_cpus())
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        parts = list(pool.map(lambda i: _tally(blocks[i::workers], thetas,
                                               p_true, q_true),
                              range(workers)))
    tally = parts.pop()
    for part in parts:
        tally += part

    base = n + 1
    counts = {}
    keys = np.flatnonzero(tally)
    for key, c in zip(keys.tolist(), tally[keys].tolist()):
        x, rest = divmod(key, base * base)
        y, z = divmod(rest, base)
        counts[VoteTable(x, y, z, n - x - y - z)] = c
    freqs = {T: c / spec.trials for T, c in counts.items()}
    errs = {T: math.sqrt(f * (1.0 - f) / spec.trials) for T, f in freqs.items()}

    positives = rate = err = None
    if spec.rule is not None:
        # the tallied tables are valid by construction: look them up
        # canonically instead of revalidating each through rule.decides
        pos = spec.rule.positives
        positives = sum(c for T, c in counts.items()
                        if (T if T.y >= T.z else T.transpose()) in pos)
        rate = positives / spec.trials
        err = math.sqrt(rate * (1.0 - rate) / spec.trials)
    return SimulationResult(spec, counts, freqs, errs, positives, rate, err)

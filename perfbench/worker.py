"""One benchmark process: set up one workload, then run its queries.

    python3 perfbench/worker.py WORKLOAD probe
    python3 perfbench/worker.py WORKLOAD run SEED QUERIES [trace]

Both modes print ``ready`` as soon as the first query could be sent.
``probe`` exits there; ``run`` then answers the seeded query list,
times each query, checks every answer against ``reference.py`` and
prints one JSON line.  With ``trace`` the
queries run under ``tracer.Tracer`` and the line also carries the
per-function and per-layer figures.

Until ``ready`` is printed this process loads nothing but ``dilemma``
itself, so the set-up time the parent measures is the program's own:
every other import sits inside the function that needs it.
"""

import sys
import time

N_OPTIMAL = 21
N_RANK_EXTENDED = 5
N_RANK_COMPACT = 9
N_COMMITTEE = 31
RANK_K = 5
TRIALS = 1 << 17
KINDS = ("pb", "cb", "hb")

# queries per second of run length; a run answers a fixed list of
# round(RATE * seconds) queries, so its inputs never depend on the clock
RATE = {"optimal": 10.0, "rank": 40.0, "committee": 9.0}
THETA_GROUP = 5  # optimal: each theta is asked with this many w


def setup(workload):
    """Import and build what the workload's queries need, through dilemma."""
    t0 = time.perf_counter()
    import dilemma
    if workload == "optimal":
        import dilemma.cli
    t1 = time.perf_counter()
    ctx = {}
    if workload == "optimal":
        dilemma.build_poset(N_OPTIMAL, "extended")
        dilemma.build_poset(N_OPTIMAL, "quotient")
    elif workload == "rank":
        dilemma.build_poset(N_RANK_EXTENDED, "extended")
        dilemma.build_poset(N_RANK_COMPACT, "quotient")
    elif workload == "committee":
        ctx["rules"] = {k: dilemma.classical_rule(k, N_COMMITTEE) for k in KINDS}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    t2 = time.perf_counter()
    return ctx, (t1 - t0) * 1e3, (t2 - t1) * 1e3


def query_count(workload, seconds):
    count = max(1, round(RATE[workload] * seconds))
    if workload == "optimal":
        count = THETA_GROUP * max(1, round(count / THETA_GROUP))
    return count


def make_queries(workload, seed, count):
    """The seeded query list.

    Each scalar input is drawn stratified: the range is cut into as many
    equal strata as there are queries, each stratum gets one jittered
    value and the strata are shuffled.  Two seeds then give the same
    spread of inputs, which keeps the cost mix of a run seed-independent.
    """
    import random
    rng = random.Random(f"{workload}:{seed}")

    def stratified(lo, hi, m, first=0, total=None):
        # strata first .. first+m-1 of `total` equal strata of (lo, hi)
        slots = list(range(first, first + m))
        rng.shuffle(slots)
        return [lo + (hi - lo) * (s + rng.random()) / (total or m) for s in slots]

    def profile(m, lo, hi):
        return tuple(rng.uniform(lo, hi) for _ in range(m))

    if workload == "optimal":
        # theta-groups: one stratum of theta each, asked with one w from
        # each fifth of the w range, so the run covers every w stratum once
        groups = count // THETA_GROUP
        ws = [stratified(0.2, 0.8, groups, j * groups, THETA_GROUP * groups)
              for j in range(THETA_GROUP)]
        return [{"n": N_OPTIMAL, "theta": theta, "w": w,
                 "argv": ["optimal", "--n", str(N_OPTIMAL), "--w", repr(w),
                          "--theta", repr(theta), "--format", "json"]}
                for g, theta in enumerate(stratified(0.55, 0.95, groups))
                for w in (ws[j][g] for j in range(THETA_GROUP))]
    if workload == "rank":
        return [{"w": w,
                 "extended": profile(N_RANK_EXTENDED, 0.55, 0.9),
                 "compact": profile(N_RANK_COMPACT, 0.55, 0.9)}
                for w in stratified(0.2, 0.8, count)]
    return [{"n": N_COMMITTEE, "w": w,
             "thetas": profile(N_COMMITTEE, 0.55, 0.9),
             "sim_seed": rng.getrandbits(63)}
            for w in stratified(0.3, 0.7, count)]


def make_runner(workload, ctx):
    """Query -> raw answer, calling dilemma the way a user does."""
    import contextlib
    import io

    import dilemma

    if workload == "optimal":
        from dilemma import cli

        def run(q):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(q["argv"])
            return code, buf.getvalue()
        return run

    if workload == "rank":
        def run(q):
            return [dilemma.rank_rules(dilemma.RankingRequest(
                        len(q[mode]), q["w"], dilemma.PerVoter(q[mode]),
                        mode=mode, k=RANK_K))
                    for mode in ("extended", "compact")]
        return run

    rules = ctx["rules"]

    def run(q):
        profile = dilemma.PerVoter(q["thetas"])
        evals = {k: dilemma.loss(rules[k], q["w"], profile) for k in KINDS}
        sim = dilemma.simulate(dilemma.SimulationSpec(
            q["n"], "PnQ", profile, TRIALS, q["sim_seed"], rules["pb"]))
        return evals, sim
    return run


def summarize(workload, raw):
    """Reduce a raw answer to the plain values the checks read.

    Runs outside the timed region; dropping the raw answer keeps the
    harness's memory out of the program's peak RSS.
    """
    if workload == "optimal":
        return {"exit": raw[0], "stdout": raw[1]}
    if workload == "rank":
        return [[{"rank": r.rank, "loss": r.evaluation.loss,
                  "p_fp": r.evaluation.p_fp, "p_fn": r.evaluation.p_fn}
                 for r in ranked] for ranked in raw]
    evals, sim = raw
    return {"evals": {k: {"p_fp": e.p_fp, "p_fn": e.p_fn, "loss": e.loss}
                      for k, e in evals.items()},
            "trials": sim.spec.trials,
            "count_total": sum(sim.counts.values()),
            "positive_rate": sim.positive_rate}


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list, q in (0, 100]."""
    k = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[k - 1]


def run_queries(workload, ctx, queries, tracer=None):
    """Closed loop, one client: each query is sent when the last returns."""
    run = make_runner(workload, ctx)
    if tracer is not None:
        tracer.install()
    clock = time.perf_counter
    latencies, answers, errors = [], [], []
    for q in queries:
        t0 = clock()
        try:
            raw = run(q)
        except Exception as exc:  # a failed operation, counted by the caller
            latencies.append(clock() - t0)
            answers.append(None)
            errors.append(repr(exc))
            continue
        latencies.append(clock() - t0)
        answers.append(summarize(workload, raw))
        # free the raw answer now, not during the next query: kept alive
        # across it, its objects would be promoted to the oldest GC
        # generation and trigger full collections the program never causes
        del raw
    return latencies, answers, errors


def main(argv):
    workload, mode = argv[0], argv[1]
    ctx, import_ms, prepare_ms = setup(workload)
    print("ready", flush=True)
    if mode == "probe":
        return 0

    import json
    import resource

    import reference
    seed, count = int(argv[2]), int(argv[3])
    queries = make_queries(workload, seed, count)

    tracer = None
    if argv[4:] == ["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
    latencies, answers, errors = run_queries(workload, ctx, queries, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wrong = reference.check(workload, queries, answers)
    failed = sum(1 for a, p in zip(answers, wrong) if a is None or p)
    lat = sorted(latencies)
    busy_s = sum(latencies)
    result = {
        "attempted": len(queries),
        "failed": failed,
        "wrong": sum(1 for p in wrong if p),
        "errors": errors[:5],
        "problems": [p for p in wrong if p][:5],
        "busy_s": busy_s,
        "queries_per_s": len(queries) / busy_s,
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_p90_ms": percentile(lat, 90) * 1e3,
        "samples": len(lat),
        "peak_rss_mb": peak_rss_mb,
        "import_ms": import_ms,
        "prepare_ms": prepare_ms,
    }
    if tracer is not None:
        result["functions"] = tracer.summary()
        result["layers"] = tracing.layer_metrics(result["functions"], len(queries),
                                                 TRIALS)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

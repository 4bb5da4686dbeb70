"""Benchmark of the dilemma package: three closed-loop workloads.

    python3 perfbench/run.py [--workload optimal|rank|committee|all]
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the program is imported from
``src``.  Each workload runs in fresh worker processes (``worker.py``),
one client with no extra threads.  A run answers a fixed seeded list of
round(RATE * S) queries (see ``worker.RATE``) and checks every answer
after the timed loop; a query that raises or answers wrongly counts as
failed.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` is the median
of at least SETUP_STARTS fresh starts, from spawning the interpreter to
the first query being ready, taken around the timed run that gives the
rest.  ``--trace 1``
runs the queries once untraced and once under ``tracer.Tracer``, each in
a fresh process, and prints the per-layer metrics; the full trace is
written to ``perfbench/out``.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("optimal", "rank", "committee")
# fresh starts per run for setup_s: at least SETUP_STARTS, and more until
# SETUP_BUDGET_S is spent, since one fast start varies by tens of percent
SETUP_STARTS = 9
SETUP_BUDGET_S = 3.0
CHILD_TIMEOUT_S = 150
# a latency percentile is reported only with this many samples beyond it
TAIL_SAMPLES = 10

sys.path.insert(0, HERE)
from tracer import LAYER_METRICS  # noqa: E402
from worker import query_count  # noqa: E402

END_TO_END = (("queries_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_p90_ms", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = tuple((name, unit) for name, unit, *_ in LAYER_METRICS) + (
    ("montecarlo.trials_per_s", "1/s"), ("setup.import_ms", "ms"),
    ("setup.prepare_ms", "ms"), ("trace.overhead_ms", "ms"))


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args):
    """Spawn a worker; return the process and its seconds to ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT)
    ready = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if ready != "ready\n":
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args} did not start: {ready!r}")
    return proc, elapsed


def finish(proc, args):
    """Wait for the worker; return its last output line parsed, if any."""
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {args} timed out") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def setup_samples(workload, at_least, budget_s=0.0):
    """Seconds from spawning a fresh interpreter to ready, one per start.

    Starts until there are ``at_least`` samples and they add up to
    ``budget_s``.
    """
    samples = []
    while len(samples) < at_least or sum(samples) < budget_s:
        proc, elapsed = start_worker([workload, "probe"])
        finish(proc, [workload, "probe"])
        samples.append(elapsed)
    return samples


def timed_run(workload, seed, count, trace=False):
    args = [workload, "run", str(seed), str(count)] + (["trace"] if trace else [])
    proc, _ = start_worker(args)
    return finish(proc, args)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds):
    # the first start only warms the file and bytecode caches; the kept
    # starts are split around the timed run, so that one slow spell of
    # the machine reaches fewer of them
    setup_samples(workload, 1)
    before = setup_samples(workload, SETUP_STARTS // 2, SETUP_BUDGET_S / 2)
    res = timed_run(workload, seed, query_count(workload, seconds))
    after = setup_samples(workload, SETUP_STARTS - SETUP_STARTS // 2, SETUP_BUDGET_S / 2)
    setup_s = statistics.median(before + after)
    values = {"queries_per_s": res["queries_per_s"],
              "latency_p50_ms": res["latency_p50_ms"],
              "latency_p90_ms": res["latency_p90_ms"],
              "setup_s": setup_s, "peak_rss_mb": res["peak_rss_mb"]}
    if res["samples"] < 10 * TAIL_SAMPLES:
        del values["latency_p90_ms"]
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END
               if name in values}
    return res, metrics


def per_layer(workload, seed, seconds):
    count = query_count(workload, seconds)
    plain = timed_run(workload, seed, count)
    res = timed_run(workload, seed, count, trace=True)
    layers = dict(res["layers"])
    layers["setup.import_ms"] = res["import_ms"]
    layers["setup.prepare_ms"] = res["prepare_ms"]
    layers["trace.overhead_ms"] = (res["busy_s"] - plain["busy_s"]) * 1e3 / count
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace_{workload}_seed{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "queries": count,
                   "layers": layers, "functions": res["functions"]}, fh, indent=1)
    print(f"trace written to {os.path.relpath(path, ROOT)}")
    res["wrong"] += plain["wrong"]
    return res, {name: metric(layers[name], unit) for name, unit in PER_LAYER}


def run_workload(workload, seed, seconds, trace):
    res, metrics = (per_layer if trace else end_to_end)(workload, seed, seconds)
    for problem in res["errors"] + res["problems"]:
        print(f"{workload}: {problem}", file=sys.stderr)
    print(f"{workload}: attempted={res['attempted']} failed={res['failed']}")
    for name, m in metrics.items():
        print(f"  {workload:<10} {name:<30} {m['value']:>14.6g} {m['unit']}")
    return {"correct": res["wrong"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "dilemma", "__init__.py")):
        print(f"error: no dilemma sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, args.trace) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{name}": m for w, r in results.items()
                             for name, m in r["metrics"].items()}}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"result_{args.workload}_seed{args.seed}"
                                f"_trace{args.trace}.json"), "w") as fh:
        json.dump(final, fh, indent=1)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's checks accept the program's answers and reject wrong ones.

Run from the repository root:

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import dilemma  # noqa: E402
import reference  # noqa: E402
import worker  # noqa: E402


def answer_first(workload, queries, ctx=None):
    if ctx is None:
        ctx, _, _ = worker.setup(workload)
    _, answers, errors = worker.run_queries(workload, ctx, queries)
    assert errors == []
    return answers


def with_wrong_loss(workload, answer):
    bad = copy.deepcopy(answer)
    if workload == "optimal":
        out = json.loads(bad["stdout"])
        out["loss"] += 1e-9
        bad["stdout"] = json.dumps(out)
    elif workload == "rank":
        bad[1][0]["loss"] += 1e-9
    else:
        bad["evals"]["hb"]["loss"] += 1e-9
    return bad


def committee_queries():
    # a small committee keeps the test fast; the checks do not depend on n
    return [{"n": 7, "w": 0.45, "thetas": (0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9),
             "sim_seed": 11}]


def test_each_checker_accepts_the_program_and_rejects_a_wrong_loss():
    cases = {"optimal": (worker.make_queries("optimal", 1, 5)[:1], None),
             "rank": (worker.make_queries("rank", 1, 1), None),
             "committee": (committee_queries(),
                           {"rules": {k: dilemma.classical_rule(k, 7) for k in worker.KINDS}})}
    for workload, (queries, ctx) in cases.items():
        answers = answer_first(workload, queries, ctx)
        assert reference.check(workload, queries, answers) == [[]], workload
        bad = [with_wrong_loss(workload, answers[0])]
        problems = reference.check(workload, queries, bad)[0]
        assert any("loss" in p for p in problems), (workload, problems)


def test_queries_repeat_for_a_seed_and_differ_across_seeds():
    for workload in worker.RATE:
        count = worker.query_count(workload, 2)
        first = worker.make_queries(workload, 5, count)
        assert first == worker.make_queries(workload, 5, count)
        assert first != worker.make_queries(workload, 6, count)


def test_optimal_theta_groups():
    queries = worker.make_queries("optimal", 3, 20)
    thetas = [q["theta"] for q in queries]
    assert len(set(thetas)) == 20 // worker.THETA_GROUP
    assert all(0.55 < t < 0.95 for t in thetas)
    assert all(0.2 < q["w"] < 0.8 for q in queries)


def test_reference_upper_set_counts():
    for (mode, n), stored in reference.UPPER_SET_COUNTS.items():
        assert len(reference.upper_sets(mode, n)) == stored

import contextlib
import hashlib
import io
import math
import os
import random
import subprocess
import sys
import tracemalloc

import numpy as np
import oracles
import pytest

import dilemma
from dilemma import (
    BLOCK_TRIALS,
    InvalidParameterError,
    PerVoter,
    SimulationSpec,
    State,
    classical_rule,
    rule_fp,
    simulate,
    table_law,
)
from dilemma import montecarlo
from dilemma.cli import run

STATES = ("PQ", "PnQ", "nPQ", "nPnQ")
ORACLE_TRIALS = (1, 4095, 4096, 4097, 65535, 65536, 65537, 2 * 65536 + 5)


def tally_of(res):
    """The simulator's counts as the oracle's key-indexed tally."""
    base = res.spec.n + 1
    tally = np.zeros(base**3, dtype=np.int64)
    for T, c in res.counts.items():
        tally[(T.x * base + T.y) * base + T.z] = c
    return tally


def test_spec_validation():
    with pytest.raises(InvalidParameterError):
        SimulationSpec(4, "PQ", 0.6, 100, 1)
    with pytest.raises(InvalidParameterError):
        SimulationSpec(3, "XX", 0.6, 100, 1)
    for trials in (0, True, 2.5):
        with pytest.raises(InvalidParameterError):
            SimulationSpec(3, "PQ", 0.6, trials, 1)
    with pytest.raises(InvalidParameterError):
        SimulationSpec(3, "PQ", 0.6, 100, 1.5)
    with pytest.raises(InvalidParameterError):
        SimulationSpec(3, "PQ", 1.2, 100, 1)
    with pytest.raises(InvalidParameterError):
        SimulationSpec(3, "PQ", 0.6, 100, 1, rule=classical_rule("pb", 5))
    for seed in (-1, -(2**70), True):
        with pytest.raises(InvalidParameterError, match="seed must be an int >= 0"):
            SimulationSpec(3, "PQ", 0.6, 100, seed)
    assert SimulationSpec(3, "PQ", 0.6, 100, 0).seed == 0


def test_counts_sum_to_trials():
    for trials in (1, 1000, BLOCK_TRIALS + 17):
        res = simulate(SimulationSpec(3, "PQ", 0.6, trials, 42))
        assert sum(res.counts.values()) == trials
        assert all(c > 0 for c in res.counts.values())
        for T, c in res.counts.items():
            assert T.n == 3
            assert res.frequencies[T] == c / trials


def test_same_seed_same_result():
    spec = SimulationSpec(3, "PnQ", 0.6, 2 * BLOCK_TRIALS + 5, 99)
    assert simulate(spec).counts == simulate(spec).counts
    other = SimulationSpec(3, "PnQ", 0.6, 2 * BLOCK_TRIALS + 5, 100)
    assert simulate(other).counts != simulate(spec).counts


def test_frequencies_track_the_closed_form_law():
    trials = 200_000
    for state in ("PQ", "PnQ"):
        res = simulate(SimulationSpec(3, state, 0.6, trials, 7))
        law = table_law(3, state, 0.6)
        for T, p in law.items():
            f = res.frequencies.get(T, 0.0)
            sigma = math.sqrt(p * (1.0 - p) / trials)
            assert abs(f - p) <= 5.0 * sigma + 1e-9, (state, tuple(T))


def test_per_voter_frequencies_track_the_law():
    trials = 200_000
    profile = PerVoter((0.55, 0.7, 0.85))
    res = simulate(SimulationSpec(3, "PnQ", profile, trials, 11))
    law = table_law(3, "PnQ", profile)
    for T, p in law.items():
        f = res.frequencies.get(T, 0.0)
        sigma = math.sqrt(p * (1.0 - p) / trials)
        assert abs(f - p) <= 5.0 * sigma + 1e-9


def test_rule_positive_rate_tracks_false_positive_probability():
    trials = 200_000
    pb = classical_rule("pb", 3)
    res = simulate(SimulationSpec(3, "PnQ", 0.6, trials, 13, rule=pb))
    p = rule_fp(pb, 0.6)
    sigma = math.sqrt(p * (1.0 - p) / trials)
    assert res.positives == sum(c for T, c in res.counts.items()
                                if pb.decides(T))
    assert abs(res.positive_rate - p) <= 5.0 * sigma
    assert res.positive_stderr == pytest.approx(
        math.sqrt(res.positive_rate * (1 - res.positive_rate) / trials))


def test_result_json_shape():
    pb = classical_rule("pb", 3)
    spec = SimulationSpec(3, State.PnQ, 0.6, 5000, 21, rule=pb)
    rec = simulate(spec).to_json()
    assert rec["rng"] == "pcg64"
    assert rec["block_trials"] == BLOCK_TRIALS == 65536
    assert rec["spec"]["n"] == 3
    assert rec["spec"]["state"] == "PnQ"
    assert rec["spec"]["thetas"] == [0.6, 0.6, 0.6]
    assert rec["spec"]["rule"] == [[2, 0, 0, 1], [1, 1, 1, 0]]
    assert sum(e["count"] for e in rec["tables"]) == 5000
    rhos = [e["table"][0] - e["table"][3] for e in rec["tables"]]
    assert rhos == sorted(rhos, reverse=True)
    assert rec["positive"]["count"] == sum(
        e["count"] for e in rec["tables"]
        if pb.decides(tuple(e["table"])))


def test_results_without_rule_have_no_positive_block():
    res = simulate(SimulationSpec(3, "PQ", 0.6, 1000, 3))
    assert res.positives is None and res.positive_rate is None
    assert "positive" not in res.to_json()


@pytest.mark.parametrize("n", (1, 3, 31, 99))
@pytest.mark.parametrize("state", STATES)
@pytest.mark.parametrize("level", (0.01, 0.99))
def test_chunked_tally_equals_the_whole_block_oracle(n, state, level):
    # per-voter competences near 0.01 or 0.99 push the keys to both ends
    # of the base**3 range; n = 99 catches a uint8 count times base wrapping
    rng = random.Random(f"{n}:{state}:{level}")
    thetas = tuple(level + rng.uniform(-0.005, 0.005) for _ in range(n))
    for seed, trials in enumerate(ORACLE_TRIALS):
        res = simulate(SimulationSpec(n, state, thetas, trials, seed))
        want = oracles.block_tally(n, state, thetas, trials, seed)
        assert np.array_equal(tally_of(res), want), (n, state, level, trials)


def test_thread_count_and_chunk_size_do_not_change_the_result(monkeypatch):
    pb = classical_rule("pb", 9)
    spec = SimulationSpec(9, "PnQ", PerVoter(tuple(0.55 + 0.04 * i for i in range(9))),
                          5 * BLOCK_TRIALS + 3, 17, rule=pb)
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 1)
    want = simulate(spec)
    assert np.array_equal(tally_of(want), oracles.block_tally(
        9, "PnQ", spec.profile.thetas, spec.trials, spec.seed))
    # more threads than cores, switching often
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus, chunk in ((2, 4096), (3, 4096), (4, 1000), (1, 1000),
                            (3, 2 * BLOCK_TRIALS)):
            monkeypatch.setattr(montecarlo, "_usable_cpus", lambda c=cpus: c)
            monkeypatch.setattr(montecarlo, "_CHUNK_TRIALS", chunk)
            res = simulate(spec)
            assert res.counts == want.counts, (cpus, chunk)
            assert list(res.counts) == list(want.counts)
            assert res.positives == want.positives
    finally:
        sys.setswitchinterval(interval)


# SHA-256 of `dilemma simulate` stdout, recorded before the draws were
# read in chunks on several threads
PROFILE_31 = ",".join(f"{0.55 + 0.011 * i:.3f}" for i in range(31))
SIMULATE_DIGESTS = (
    ("--n 3 --theta 0.6 --state PnQ --trials 20000 --seed 5 --rule pb --format json",
     "6e7441708497744087347fa0c22277045fce6a185192b75f5437ac6907a0a3f7"),
    (f"--n 31 --theta {PROFILE_31} --state PnQ --trials 131077 --seed 7 --rule hb"
     " --format json",
     "8a4bb62c54e237ec2abe5617d5f8aec84222d07a477eecfac403c340fcf8a57c"),
    ("--n 9 --theta 0.7 --state nPnQ --trials 65537 --seed 123 --format text",
     "205123a7bb1a1abc9de57b91f41afb4f67a1ec1310d2d46d3d557bf2d9a8a9ff"),
    ("--n 99 --theta 0.55 --state PQ --trials 4097 --seed 2 --rule cb --format json",
     "f481298fd82f1f19f533a019ea54e4235b6a5fe13705a5d7809650242bfd4180"),
    ("--n 1 --theta 0.01 --state nPQ --trials 70000 --seed 0 --format text"
     " --precision 17",
     "583453d40bec2ce4fdf010ef03534cb129bc38b42b255fe18deee297669e47b3"),
    ("--n 5 --theta 0.99,0.01,0.5,0.987,0.013 --state PQ --trials 4095 --seed 99"
     " --rule pb --format text",
     "21933bc10f86d98a62be649e8b99b47d6dca2008d16467c6b257561815cfd06f"),
    ("--n 7 --theta 0.8 --state PnQ --trials 4096 --seed 31 --rule optimal --w 0.3"
     " --format text",
     "4cd4312f4afdc7fcea9d0ed2ab71277b47953cfc363f51905d0b1cb4ed6c3c39"),
)


@pytest.mark.parametrize("args, digest", SIMULATE_DIGESTS)
def test_simulate_stdout_is_byte_identical(args, digest):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run(["simulate", *args.split()]) == 0
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


def test_simulate_memory_stays_chunk_sized():
    # drawing each 2^16-trial block whole peaks at about 27 MB here
    spec = SimulationSpec(31, "PnQ", 0.7, 2 * BLOCK_TRIALS, 4)
    simulate(SimulationSpec(31, "PnQ", 0.7, 1, 4))  # imports out of the trace
    tracemalloc.start()
    try:
        simulate(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6, peak


def test_importing_the_package_and_cli_leaves_numpy_unloaded():
    src = os.path.dirname(os.path.dirname(os.path.abspath(dilemma.__file__)))
    report = ("print(sorted(m for m in ('numpy', 'concurrent.futures') "
              "if m in sys.modules))")
    for code in (
        "import sys, dilemma, dilemma.cli\n",
        # a homogeneous ranking reads the pure-Python law
        "import contextlib, io, sys, dilemma.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert dilemma.cli.run(['rank', '--n', '5', '--w', '0.5',\n"
        "                            '--theta', '0.7', '--mode', 'both']) == 0\n",
    ):
        out = subprocess.run([sys.executable, "-c", code + report], capture_output=True,
                             text=True, env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.strip() == "[]", code

import csv
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

import dilemma
from dilemma import classical_rule, cli, loss, optimal_rule, rule_fp
from dilemma.cli import build_parser, run

# SHA-256 of `dilemma optimal --n 99 --w 0.5 --theta 0.7 --format json`
# stdout, recorded before the covers were read off the (x, y, z) cube
OPTIMAL_99_DIGEST = "eb7a2c4d5bbbe019f646f8f8fccbba978715a5813e43b061bcd57daf5fbe5179"
# SHA-256 over `dilemma optimal` stdout, JSON then text, for every odd
# n <= 21, theta in (0.55, 0.7, 0.9) and w in (0.3, 0.5, 0.8), recorded
# before rules were stored as node index sets
OPTIMAL_SWEEP_DIGEST = "9ea959639ea777a24f79d9c15c6349a09ffb9c1ba1fb6a47f82040fd0f315468"

# SHA-256 of the stdout of each command, recorded before a table's node
# index became a closed form of the layout's run starts: the per-voter
# law, the class grouping and pb_optimal each reach stdout here
PATH_DIGESTS = (
    ("optimal --n 5 --w 0.4 --theta 0.6,0.65,0.7,0.75,0.8 --format json",
     "c061381630157c0a3dccc3a858a7bf0315e1db44f76ff18760afff34ea9e6015"),
    ("rank --n 9 --w 0.45 --theta 0.56,0.6,0.64,0.68,0.72,0.76,0.8,0.84,0.88"
     " --mode compact --k 8 --format json",
     "425644c91e6a41c3e354f11ee0f73a057fb106a2349e4c63a4946b9f6831adc7"),
    ("rank --n 5 --w 0.4 --theta 0.6,0.65,0.7,0.75,0.8 --mode extended --k 8"
     " --precision 17",
     "80f5ea3ccd14c97ad11bb6414527478273649586dabb5d7cb3657f0f2c17aad9"),
    ("classify --n 21 --w 0.3 --format csv --precision 12",
     "34ee44332f2e310ae70b0690b6ab6b4dfd00493af810d632be881c026ebd2733"),
    ("count --n 5 --format json",
     "934296cab594ad4a03df72e664bfef80886334715d6f66038488fb68f2b070a7"),
    ("region --n 99 --grid 100",
     "c6b80bf539a384f3cec1063bd83d5fdbde4c0131dae1e8250451a14066f473e7"),
    ("decide --n 21 --w 0.35 --theta 0.66 --table 9,5,3,4 --format json",
     "582ef5c2559037d5d118d63a29af5ff8491257f547f84d81c965c21769fb787e"),
)

# SHA-256 of `dilemma classify` stdout, recorded while the bisection still
# revalidated the class on every step
CLASSIFY_DIGESTS = (
    ("classify --n 99 --w 0.5 --format json",
     "a440c404087b525434788eef970cf81f1c713dbc97b4e8223f7134018a939069"),
    ("classify --n 41 --w 0.73 --format json",
     "4ef8ce3b0a182e5f3ce7f213d27003a1daf7380e956e51d4c3031915a9f775ce"),
)


def run_ok(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    assert code == 0, out.err
    return out.out


def test_exit_codes(capsys):
    assert run([]) == 2
    assert run(["--help"]) == 0
    assert run(["no-such-command"]) == 2
    assert run(["optimal", "--n", "4", "--w", "0.5", "--theta", "0.6"]) == 2
    assert run(["optimal", "--n", "3", "--w", "0.5", "--theta", "abc"]) == 2
    assert run(["optimal", "--n", "3", "--w", "1.5", "--theta", "0.6"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_bad_arguments_exit_2_before_any_output(tmp_path, capsys):
    assert run(["optimal", "--n", "3", "--w", "0.5", "--theta", "0.6",
                "--precision", "-1"]) == 2
    assert capsys.readouterr().out == ""
    assert run(["region", "--n", "3", "--grid", "0"]) == 2
    assert capsys.readouterr().out == ""
    assert run(["simulate", "--n", "3", "--theta", "0.7", "--state", "PQ",
                "--trials", "10", "--seed", "-1"]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "seed must be an int >= 0" in out.err
    for target in (tmp_path / "missing" / "graph.dot", tmp_path):
        assert run(["hasse", "--n", "3", "--output", str(target)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: cannot write ")


def test_optimal_n99_json_is_byte_identical(capsys):
    out = run_ok(capsys, "optimal", "--n", "99", "--w", "0.5", "--theta", "0.7",
                 "--format", "json")
    assert hashlib.sha256(out.encode()).hexdigest() == OPTIMAL_99_DIGEST


def test_optimal_sweep_is_byte_identical(capsys):
    digest = hashlib.sha256()
    for n in range(1, 22, 2):
        for theta in ("0.55", "0.7", "0.9"):
            for w in ("0.3", "0.5", "0.8"):
                for fmt in ("json", "text"):
                    digest.update(run_ok(capsys, "optimal", "--n", str(n), "--w", w,
                                         "--theta", theta, "--format", fmt).encode())
    assert digest.hexdigest() == OPTIMAL_SWEEP_DIGEST


@pytest.mark.parametrize("command,digest", PATH_DIGESTS + CLASSIFY_DIGESTS,
                         ids=[c for c, _ in PATH_DIGESTS + CLASSIFY_DIGESTS])
def test_paths_are_byte_identical(capsys, command, digest):
    out = run_ok(capsys, *command.split())
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_an_exact_tie_leaves_the_class_out(capsys):
    # on the diagonal w = theta class (1, 0) has G = xi exactly
    for k in range(51, 100):
        theta = f"0.{k}"
        out = run_ok(capsys, "optimal", "--n", "3", "--w", theta, "--theta", theta)
        assert out.splitlines()[1] == "classes: (3,0) (2,1)", theta


def test_decide_beyond_the_float_range(capsys):
    out = run_ok(capsys, "decide", "--n", "99", "--w", "0.5", "--theta", "0.9999",
                 "--table", "0,99,0,0")
    assert out.rstrip().endswith("-> ¬C")


def test_optimal_text(capsys):
    out = run_ok(capsys, "optimal", "--n", "3", "--w", "0.5", "--theta", "0.6")
    assert "classes: (3,0) (2,1) (1,2) (1,0)" in out
    assert "antichain (classes): (1,2) (1,0)" in out
    assert "antichain (tables): (2,0,0,1) (1,2,0,0) (1,1,1,0)" in out
    assert "loss=0.39776" in out


def test_optimal_json_round_trip(capsys):
    out = run_ok(capsys, "optimal", "--n", "3", "--w", "0.5", "--theta", "0.6",
                 "--format", "json")
    rec = json.loads(out)
    rule = optimal_rule(3, 0.5, 0.6)
    assert rec["antichain_tables"] == [list(T) for T in rule.antichain]
    assert rec["classes"] == [list(c) for c in rule.positive_classes()]
    ev = loss(rule, 0.5, 0.6)
    assert rec["p_fp"] == ev.p_fp
    assert rec["p_fn"] == ev.p_fn
    assert rec["loss"] == ev.loss


def test_optimal_with_per_voter_thetas(capsys):
    out = run_ok(capsys, "optimal", "--n", "3", "--w", "0.5",
                 "--theta", "0.6,0.7,0.8", "--format", "json")
    rec = json.loads(out)
    assert rec["thetas"] == [0.6, 0.7, 0.8]
    assert rec["antichain_tables"] == [[2, 0, 0, 1], [1, 1, 1, 0]]


def test_rank_default_covers_both_modes(capsys):
    out = run_ok(capsys, "rank", "--n", "3", "--w", "0.5", "--theta", "0.6")
    assert "mode extended" in out and "mode compact" in out
    assert out == run_ok(capsys, "rank", "--n", "3", "--w", "0.5",
                         "--theta", "0.6")


def test_rank_json_round_trip(capsys):
    out = run_ok(capsys, "rank", "--n", "3", "--w", "0.5", "--theta", "0.6",
                 "--mode", "extended", "--k", "4", "--format", "json")
    rec = json.loads(out)
    assert rec["mode"] == "extended"
    assert [r["rank"] for r in rec["rules"]] == [1, 2, 3, 4]
    from dilemma import DecisionRule

    for entry in rec["rules"]:
        rule = DecisionRule.from_antichain(3, [tuple(T) for T in entry["antichain"]])
        ev = loss(rule, 0.5, 0.6)
        assert entry["loss"] == ev.loss
        assert entry["p_fp"] == ev.p_fp
        assert entry["p_fn"] == ev.p_fn


def test_rank_respects_bounds(capsys):
    assert run(["rank", "--n", "7", "--w", "0.5", "--theta", "0.6",
                "--mode", "extended"]) == 2
    assert "force" in capsys.readouterr().err
    out = run_ok(capsys, "rank", "--n", "7", "--w", "0.5", "--theta", "0.7",
                 "--mode", "compact", "--k", "1")
    assert "[pb]" in out


@pytest.mark.parametrize("argv", [
    ["optimal", "--n", "7", "--w", "0.5", "--theta", "0.6,0.6,0.6,0.6,0.6,0.7,0.8"],
    ["rank", "--n", "11", "--w", "0.5", "--theta", "0.7", "--mode", "compact"],
])
def test_a_refused_size_names_the_force_flag(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--force" in captured.err
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_classify_text_frozen_thresholds(capsys):
    out = run_ok(capsys, "classify", "--n", "7", "--w", "0.5")
    for needle in ("(3,4)", "(2,3)", "(1,2)", "(2,5)", "(1,4)", "(1,6)"):
        assert needle in out
    for value in ("0.6658", "0.6628", "0.6478", "0.5449", "0.5326", "0.5141"):
        assert value in out


def test_classify_precision_flag(capsys):
    out = run_ok(capsys, "classify", "--n", "3", "--w", "0.5",
                 "--precision", "6")
    assert "0.647799" in out


def test_classify_csv_and_json(capsys):
    out = run_ok(capsys, "classify", "--n", "3", "--w", "0.5", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10
    byclass = {(int(r["rho"]), int(r["alpha"])): r for r in rows}
    assert byclass[(3, 0)]["type"] == "b"
    assert byclass[(0, 1)]["intervals"] == ""
    assert byclass[(1, 2)]["intervals"].startswith("0.5000:0.6478")

    out = run_ok(capsys, "classify", "--n", "3", "--w", "0.5", "--format", "json")
    rec = json.loads(out)
    assert len(rec) == 10
    entry = next(e for e in rec if e["class"] == [1, 2])
    assert entry["type"] == "c"
    (lo, hi), = entry["intervals"]
    assert lo == 0.5 and hi == pytest.approx(0.6477988712610356, abs=1e-9)


def test_decide(capsys):
    out = run_ok(capsys, "decide", "--n", "3", "--w", "0.5", "--theta", "0.6",
                 "--table", "1,1,1,0")
    assert "-> C" in out and "class (1,0)" in out and "type b" in out
    out = run_ok(capsys, "decide", "--n", "3", "--w", "0.5", "--theta", "0.6",
                 "--table", "0,1,1,1", "--format", "json")
    rec = json.loads(out)
    assert rec["verdict"] == "¬C" and rec["good"] is False
    assert rec["class"] == [-1, 0]
    assert run(["decide", "--n", "3", "--w", "0.5", "--theta", "0.6,0.7",
                "--table", "1,1,1,0"]) == 2
    assert run(["decide", "--n", "3", "--w", "0.5", "--theta", "0.6",
                "--table", "1,1,1"]) == 2
    assert run(["decide", "--n", "5", "--w", "0.5", "--theta", "0.6",
                "--table", "1,1,1,0"]) == 2


def test_region_csv(capsys):
    out = run_ok(capsys, "region", "--n", "3", "--grid", "6")
    lines = out.strip().splitlines()
    assert lines[0] == "theta,w,pb_optimal_exact,pb_optimal_sufficient"
    assert len(lines) == 37
    for line in lines[1:]:
        theta, w, exact, sufficient = line.split(",")
        assert 0.5 < float(theta) < 1.0
        assert 0.0 < float(w) < 1.0
        assert exact in "01" and sufficient in "01"
        if sufficient == "1":
            assert exact == "1"


def test_hasse_stdout_and_file(tmp_path, capsys):
    out = run_ok(capsys, "hasse", "--n", "3", "--mode", "quotient")
    assert out.startswith("digraph") and out.count(" -> ") == 12
    target = tmp_path / "graph.dot"
    blank = run_ok(capsys, "hasse", "--n", "3", "--mode", "reduced",
                   "--output", str(target))
    assert blank == ""
    text = target.read_text()
    assert text.count(" -> ") == 10
    alias = run_ok(capsys, "hasse", "--n", "3", "--mode", "optimality_reduced")
    assert alias == text


def test_simulate_json(capsys):
    argv = ("simulate", "--n", "3", "--theta", "0.6", "--state", "PnQ",
            "--trials", "20000", "--seed", "5", "--rule", "pb")
    out = run_ok(capsys, *argv)
    rec = json.loads(out)
    assert rec["rng"] == "pcg64"
    assert rec["spec"]["seed"] == 5
    assert sum(e["count"] for e in rec["tables"]) == 20000
    p = rule_fp(classical_rule("pb", 3), 0.6)
    assert abs(rec["positive"]["rate"] - p) <= 5 * rec["positive"]["stderr"]
    assert out == run_ok(capsys, *argv)


def test_simulate_text(capsys):
    out = run_ok(capsys, "simulate", "--n", "3", "--theta", "0.6", "--state",
                 "PQ", "--trials", "1000", "--seed", "5", "--format", "text")
    assert "rng=pcg64" in out
    assert "(3,0,0,0)" in out


def test_count_text(capsys):
    out = run_ok(capsys, "count", "--n", "3")
    assert "tables=13" in out
    assert "classes=10" in out
    assert "whitney=1,1,3,3,3,1,1" in out
    assert "max_antichain_extended=3" in out
    assert "max_antichain_quotient=2" in out
    assert "upper_sets_extended=36" in out
    assert "upper_sets_quotient=16" in out
    assert "upper_sets_optimality_reduced=12" in out


def test_count_respects_bounds(capsys):
    code = run(["count", "--n", "7"])
    out = capsys.readouterr()
    assert code == 0
    assert "upper_sets_extended" not in out.out
    assert "upper_sets_quotient=256" in out.out
    assert "skipped" in out.err
    forced = run_ok(capsys, "count", "--n", "7", "--force")
    assert "upper_sets_extended=38904" in forced


def test_count_json(capsys):
    rec = json.loads(run_ok(capsys, "count", "--n", "5", "--format", "json"))
    assert rec["tables"] == 34
    assert rec["upper_sets"] == {"extended": 768, "quotient": 64,
                                 "optimality_reduced": 33}
    assert sum(rec["whitney"]) == 34


def test_parser_builds_all_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for name in ("optimal", "rank", "classify", "decide", "region", "hasse",
                 "simulate", "count"):
        assert name in text


# a JSON query, a flag optimal does not have (exit 2), a rank with a
# non-default k, then optimal in the default text format
REUSE_CALLS = (
    ["optimal", "--n", "5", "--w", "0.4", "--theta", "0.7", "--format", "json"],
    ["optimal", "--n", "5", "--w", "0.4", "--theta", "0.7", "--k", "3"],
    ["rank", "--n", "3", "--w", "0.5", "--theta", "0.7", "--k", "3"],
    ["optimal", "--n", "5", "--w", "0.4", "--theta", "0.7"],
)


def test_one_parser_serves_every_run_without_leaking_flags(monkeypatch, capsys):
    def outputs():
        results = []
        for argv in REUSE_CALLS:
            code = run(argv)
            out = capsys.readouterr()
            results.append((code, out.out, out.err))
        return results

    with monkeypatch.context() as patch:
        patch.setattr(cli, "_parser", build_parser)  # a fresh parser per call
        fresh = outputs()
    built = []

    def counting():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    assert outputs() == fresh
    assert [code for code, _, _ in fresh] == [0, 2, 0, 0]
    assert len(built) == 1


def test_a_closed_pipe_exits_141_without_a_message(monkeypatch):
    class ClosedPipe(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    # run leaves a closed pipe to main instead of calling it an internal error
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(BrokenPipeError):
        run(["count", "--n", "3"])
    monkeypatch.undo()
    # about 190 kB of CSV, far more than a pipe buffers: the writer must
    # hit the closed pipe after the reader takes one line
    src = os.path.dirname(os.path.dirname(os.path.abspath(dilemma.__file__)))
    with subprocess.Popen(
            [sys.executable, "-c", "from dilemma.cli import main; main()", "region", "--n", "3"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src}) as proc:
        assert proc.stdout.readline() == b"theta,w,pb_optimal_exact,pb_optimal_sufficient\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    assert err == b""

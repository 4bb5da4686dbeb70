"""Robustness over the documented domain and its edges.

Inside the domain (odd n <= 99, w in (0, 1), theta in (0, 1), or
(1/2, 1) for the goodness test) every call returns; outside it the only
exception is InvalidParameterError, and the CLI exits 2 with nothing on
stdout.  Each example draws in-domain values, edges included (the
denormal and near-1 ends of w and theta), and then spoils at most one
parameter with an out-of-domain value: nan, an infinity, a bound, a
value that is not a number, or a count that is not an int.
"""

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings, strategies as st

from dilemma import (DecisionRule, InvalidParameterError, NegativePrior,
                     RankingRequest, classical_rule, goodness_intervals, is_good,
                     loss, optimal_rule, pb_optimal, pb_optimal_sufficient,
                     pb_region, rank_rules, rule_fp_bayes)
from dilemma.cli import run

GOOD = {
    "n": st.sampled_from((1, 3, 5, 21, 99)),
    "w": st.one_of(st.sampled_from((5e-324, 1e-300, 1e-12, 0.5, 1 - 1e-12, 1 - 1e-16)),
                   st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    "theta": st.one_of(st.sampled_from((0.5 + 1e-13, 0.75, 1 - 1e-12, 1 - 1e-16)),
                       st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)),
    "cls": st.integers(-21, 21).flatmap(
        lambda r: st.integers(0, 21 - abs(r)).filter(lambda a: (r + a) % 2).map(
            lambda a: (r, a))),
    "k": st.sampled_from((1, 2, 3)),
}
BAD = {
    "n": st.sampled_from((-1, 0, 2, 101, True, 3.0, "3")),
    "w": st.sampled_from((0.0, 1.0, -0.5, 1.5, math.nan, math.inf, -math.inf,
                          None, "x", 1j)),
    "theta": st.sampled_from((0.0, 0.5, 1.0, math.nan, math.inf, -math.inf,
                              None, "x", 1j)),
    "cls": st.sampled_from(((1, 1), (0, -1), (3, 100), (1.0, 0), (1,), "ab")),
    "k": st.sampled_from((-1, 0, 2.5, True, "2")),
}


@st.composite
def spoiled(draw, good, bad):
    """One value per parameter, at most one of them out of its domain."""
    spoil = draw(st.sampled_from((None,) + tuple(bad)))
    return {key: draw((bad if key == spoil else good)[key]) for key in good}


def _prior(w):
    """A prior with w on PnQ; no arithmetic on a w that is not a float."""
    rest = (1.0 - w) / 2 if isinstance(w, float) else 0.5
    return NegativePrior(w, rest, rest)


LIBRARY_CALLS = {
    "optimal_rule": lambda p: optimal_rule(p["n"], p["w"], p["theta"]),
    "pb_optimal": lambda p: pb_optimal(p["n"], p["w"], p["theta"]),
    "pb_optimal_sufficient": lambda p: pb_optimal_sufficient(p["w"], p["theta"]),
    "is_good": lambda p: is_good(p["cls"], p["w"], p["theta"]),
    "goodness_intervals": lambda p: goodness_intervals(p["cls"], p["w"]),
    "loss": lambda p: loss(classical_rule("hb", p["n"]), p["w"], p["theta"]),
    "from_classes": lambda p: DecisionRule.from_classes(p["n"], [p["cls"]]),
    # n > 5 is refused without force, which is one more clean error
    "rank_rules": lambda p: rank_rules(RankingRequest(p["n"], p["w"], p["theta"],
                                                      k=p["k"])),
    "pb_region": lambda p: list(pb_region(p["n"], p["k"])),
    "rule_fp_bayes": lambda p: rule_fp_bayes(classical_rule("pb", 3), p["theta"],
                                             _prior(p["w"])),
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(LIBRARY_CALLS)), spoiled(GOOD, BAD))
def test_library_raises_only_invalid_parameter_error(name, params):
    try:
        LIBRARY_CALLS[name](params)
    except InvalidParameterError:
        pass


CLI_GOOD = {
    "n": st.sampled_from(("1", "3", "5", "21", "99")),
    "small_n": st.sampled_from(("1", "3", "5")),
    "w": st.sampled_from(("5e-324", "1e-300", "0.5", "0.3", "0.9999999999999999")),
    "theta": st.sampled_from(("0.5000000000001", "0.6", "0.9", "0.9999999999999999")),
    "thetas": st.sampled_from(("0.6,0.7,0.8", "0.55,0.6,0.7,0.8,0.9", "0.5,0.99,0.7")),
    "extra": st.sampled_from(([], ["--format", "json"], ["--precision", "3"],
                              ["--precision", "0"])),
}
CLI_BAD = {
    "n": st.sampled_from(("0", "2", "-1", "101", "3.0", "x")),
    "small_n": st.sampled_from(("0", "7", "x")),
    "w": st.sampled_from(("0", "1", "1.5", "-0.5", "nan", "inf", "-inf", "x")),
    "theta": st.sampled_from(("0.5", "1", "nan", "inf", "-inf", "x", ",", "")),
    "thetas": st.sampled_from(("0.6,nan,0.8", "0.6,0.7", "0.6,,0.7", "0.6,1.5,0.7")),
    "extra": st.sampled_from((["--precision", "-1"], ["--format", "xml"],
                              ["--k", "0"], ["--k", "2.5"])),
}


def _cli_argv(cmd, p, per_voter):
    theta = p["thetas"] if per_voter else p["theta"]
    if cmd == "optimal":
        n = p["small_n"] if per_voter else p["n"]
        return ["optimal", "--n", n, "--w", p["w"], "--theta", theta] + p["extra"]
    if cmd == "decide":
        # a table of the drawn size, or a malformed one when n is spoiled
        k = int(p["n"]) if p["n"].isdigit() else 3
        table = f"{k // 2},{k - k // 2},0,0" if k % 2 else "1,2"
        return ["decide", "--n", p["n"], "--w", p["w"], "--theta", theta,
                "--table", table] + p["extra"]
    if cmd == "classify":
        return ["classify", "--n", p["small_n"], "--w", p["w"]] + p["extra"]
    if cmd == "rank":
        return ["rank", "--n", p["small_n"], "--w", p["w"], "--theta", theta,
                "--k", "2"] + p["extra"]
    return ["hasse", "--n", p["small_n"]]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(("optimal", "decide", "classify", "rank", "hasse")),
       spoiled(CLI_GOOD, CLI_BAD), st.booleans())
def test_cli_exits_0_or_2_with_empty_stdout_on_2(cmd, params, per_voter):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(_cli_argv(cmd, params, per_voter))
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert "error" in err.getvalue()


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("1", "3", "5", "21")),
       st.one_of(st.sampled_from((5e-324, 1e-310, 2.2250738585072014e-308, 1e-300)),
                 st.floats(5e-324, 1.0, exclude_max=True)))
def test_classify_json_windows_are_finite_down_to_denormal_w(n, w):
    out = io.StringIO()
    with redirect_stdout(out):
        assert run(["classify", "--n", n, "--w", repr(w), "--format", "json"]) == 0
    for entry in json.loads(out.getvalue(), parse_constant=_not_json):
        for lo, hi in entry["intervals"]:
            assert 0.5 <= lo <= hi <= 1.0

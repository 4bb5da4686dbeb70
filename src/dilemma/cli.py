"""Command line front end.

Subcommands mirror the library: ``optimal`` (best rule for given w and
competence), ``rank`` (top-k rules, extended and compact), ``classify``
(per-class type and good competence windows), ``decide`` (verdict for
one table), ``region`` (CSV grid of premiss-wise optimality), ``hasse``
(Graphviz export), ``simulate`` (Monte Carlo tallies) and ``count``
(structure counts).  Everything is controlled by flags; there are no
config files or environment variables.  Exit codes: 0 success, 2 bad
arguments, 1 internal failure, 141 (128 + SIGPIPE) when the reader of
stdout closes it early; nothing goes to stderr in that case.

``run`` builds the argument parser on its first call and reuses it later;
importing this module builds none and loads no ``dilemma.montecarlo``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache

from .errors import InvalidParameterError, StructuralError
from .optimal import (GoodnessProfile, classical_rule, classify,
                      goodness_intervals, is_good, optimal_rule, pb_region)
from .poset import ENUMERATION_BOUND, build_poset, max_antichain_size, to_dot
from .probability import Homogeneous, as_profile, loss
from .ranking import DEFAULT_K, RankingRequest, rank_rules, ranking_record
from .rules import DecisionRule
from .tables import (class_count, enumerate_classes, table_class, table_count,
                     validate_table, whitney_numbers)

_POSET_MODES = {"extended": "extended", "quotient": "quotient",
                "reduced": "optimality_reduced",
                "optimality_reduced": "optimality_reduced"}


def _sig(value: float, digits: int) -> str:
    return f"{value:.{digits}g}"


def _theta_values(text: str) -> list[float]:
    try:
        vals = [float(v) for v in text.split(",") if v]
    except ValueError:
        raise InvalidParameterError(f"cannot parse competences from {text!r}") from None
    if not vals:
        raise InvalidParameterError("at least one competence is required")
    return vals


def _table_arg(text: str):
    try:
        parts = [int(v) for v in text.split(",")]
    except ValueError:
        raise InvalidParameterError(f"cannot parse table from {text!r}") from None
    if len(parts) != 4:
        raise InvalidParameterError(f"a table needs 4 entries, got {text!r}")
    return validate_table(parts)


def _fmt_tuple(v) -> str:
    return "(" + ",".join(str(c) for c in v) + ")"


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


# --- optimal ---------------------------------------------------------------

def _cmd_optimal(args) -> int:
    thetas = _theta_values(args.theta)
    profile = as_profile(thetas)
    if isinstance(profile, Homogeneous):
        rule = optimal_rule(args.n, args.w, profile.theta)
    else:
        ranked = rank_rules(RankingRequest(args.n, args.w, profile,
                                           mode="extended", k=1, force=args.force))
        rule = ranked[0].rule
    ev = loss(rule, args.w, profile)
    classes = rule.positive_classes() if rule.is_class_constant() else None
    if args.format == "json":
        _print_json({
            "n": args.n, "w": args.w, "thetas": thetas,
            "antichain_tables": [list(T) for T in rule.antichain],
            "antichain_classes": None if classes is None
                                 else [list(c) for c in rule.minimal_classes()],
            "classes": None if classes is None else [list(c) for c in classes],
            "p_fp": ev.p_fp, "p_fn": ev.p_fn, "loss": ev.loss,
        })
        return 0
    d = args.precision
    print(f"n={args.n} w={_sig(args.w, d)} thetas={','.join(_sig(t, d) for t in thetas)}")
    if classes is not None:
        print("classes: " + (" ".join(_fmt_tuple(c) for c in classes) or "(none)"))
        print("antichain (classes): "
              + (" ".join(_fmt_tuple(c) for c in rule.minimal_classes()) or "(empty)"))
    print("antichain (tables): "
          + (" ".join(_fmt_tuple(T) for T in rule.antichain) or "(empty)"))
    print(f"p_fp={_sig(ev.p_fp, d)} p_fn={_sig(ev.p_fn, d)} loss={_sig(ev.loss, d)}")
    return 0


# --- rank ------------------------------------------------------------------

def _cmd_rank(args) -> int:
    modes = ("extended", "compact") if args.mode == "both" else (args.mode,)
    profile = as_profile(_theta_values(args.theta))
    reqs = [RankingRequest(args.n, args.w, profile, mode=mode, k=args.k, force=args.force)
            for mode in modes]
    records = [(req, rank_rules(req)) for req in reqs]
    if args.format == "json":
        out = [ranking_record(req, ranked) for req, ranked in records]
        _print_json(out[0] if len(out) == 1 else out)
        return 0
    d = args.precision
    thetas = [profile.theta] if isinstance(profile, Homogeneous) else profile.thetas
    for req, ranked in records:
        print(f"mode {req.mode}  n={req.n} w={_sig(req.w, d)} "
              f"thetas={','.join(_sig(t, d) for t in thetas)}")
        for r in ranked:
            ac = " ".join(_fmt_tuple(v) for v in r.antichain) or "(empty)"
            tag = f"  [{r.name}]" if r.name else ""
            print(f"{r.rank:3d}. loss={_sig(r.evaluation.loss, d)} "
                  f"p_fp={_sig(r.evaluation.p_fp, d)} "
                  f"p_fn={_sig(r.evaluation.p_fn, d)}  {{{ac}}}{tag}")
    return 0


# --- classify --------------------------------------------------------------

def _fmt_intervals(prof: GoodnessProfile, decimals: int) -> str:
    if prof.degenerate:
        return "degenerate tangency"
    if not prof.intervals:
        return "-"
    return " ".join(f"({lo:.{decimals}f}, {hi:.{decimals}f})"
                    for lo, hi in prof.intervals)


def _cmd_classify(args) -> int:
    profs = [goodness_intervals(c, args.w) for c in enumerate_classes(args.n)]
    if args.format == "json":
        _print_json([{
            "class": list(p.cls), "type": p.kind.value,
            "intervals": [list(iv) for iv in p.intervals],
            "degenerate": p.degenerate,
        } for p in profs])
        return 0
    if args.format == "csv":
        print("rho,alpha,type,intervals")
        for p in profs:
            ivs = ";".join(f"{lo:.{args.precision}f}:{hi:.{args.precision}f}"
                           for lo, hi in p.intervals)
            if p.degenerate:
                ivs = "degenerate"
            print(f"{p.cls.rho},{p.cls.alpha},{p.kind.value},{ivs}")
        return 0
    print(f"n={args.n} w={args.w:g}")
    print("class  type  good theta windows")
    for p in profs:
        print(f"{_fmt_tuple(p.cls):<7}  {p.kind.value}   "
              f"{_fmt_intervals(p, args.precision)}")
    return 0


# --- decide ----------------------------------------------------------------

def _cmd_decide(args) -> int:
    thetas = _theta_values(args.theta)
    if len(thetas) != 1:
        raise InvalidParameterError(
            "decide uses the class test and needs a single homogeneous theta")
    T = _table_arg(args.table)
    if T.n != args.n:
        raise InvalidParameterError(f"table {tuple(T)} has size {T.n}, not {args.n}")
    cls = table_class(T)
    good = is_good(cls, args.w, thetas[0])
    verdict = "C" if good else "¬C"
    if args.format == "json":
        _print_json({"table": list(T), "class": list(cls),
                     "type": classify(cls).value, "good": good,
                     "verdict": verdict})
        return 0
    print(f"table {_fmt_tuple(T)}  class {_fmt_tuple(cls)}  "
          f"type {classify(cls).value}  -> {verdict}")
    return 0


# --- region ----------------------------------------------------------------

def _cmd_region(args) -> int:
    rows = pb_region(args.n, args.grid)
    print("theta,w,pb_optimal_exact,pb_optimal_sufficient")
    for theta, w, exact, sufficient in rows:
        print(f"{theta!r},{w!r},{int(exact)},{int(sufficient)}")
    return 0


# --- hasse -----------------------------------------------------------------

def _cmd_hasse(args) -> int:
    dot = to_dot(build_poset(args.n, _POSET_MODES[args.mode]))
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(dot)
        except OSError as exc:
            raise InvalidParameterError(f"cannot write the output: {exc}") from None
    else:
        sys.stdout.write(dot)
    return 0


# --- simulate --------------------------------------------------------------

def _make_rule(kind: str | None, n: int, w, profile) -> DecisionRule | None:
    if kind is None:
        return None
    if kind == "optimal":
        if not isinstance(profile, Homogeneous):
            raise InvalidParameterError(
                "--rule optimal needs a single homogeneous theta")
        return optimal_rule(n, w, profile.theta)
    return classical_rule(kind, n)


def _cmd_simulate(args) -> int:
    from .montecarlo import SimulationSpec, simulate

    profile = as_profile(_theta_values(args.theta))
    rule = _make_rule(args.rule, args.n, args.w, profile)
    spec = SimulationSpec(args.n, args.state, profile, args.trials, args.seed, rule)
    result = simulate(spec)
    if args.format == "json":
        _print_json(result.to_json())
        return 0
    d = args.precision
    print(f"n={args.n} state={spec.state.value} trials={args.trials} "
          f"seed={args.seed} rng={result.rng}")
    for entry in result.to_json()["tables"]:
        T = tuple(entry["table"])
        print(f"{_fmt_tuple(T)} count={entry['count']} "
              f"freq={_sig(entry['frequency'], d)} stderr={_sig(entry['stderr'], d)}")
    if rule is not None:
        print(f"positive rate={_sig(result.positive_rate, d)} "
              f"stderr={_sig(result.positive_stderr, d)}")
    return 0


# --- count -----------------------------------------------------------------

def _cmd_count(args) -> int:
    n = args.n
    wh = whitney_numbers(n)
    info = {
        "n": n,
        "tables": table_count(n),
        "classes": class_count(n),
        "whitney": [wh[r] for r in sorted(wh)],
        "max_antichain_extended": max_antichain_size(n, "extended"),
        "max_antichain_quotient": max_antichain_size(n, "quotient"),
    }
    upper = {}
    skipped = []
    for mode, bound in ENUMERATION_BOUND.items():
        if n <= bound or args.force:
            upper[mode] = sum(1 for _ in build_poset(n, mode).upper_sets())
        else:
            skipped.append((mode, bound))
    if args.format == "json":
        info["upper_sets"] = upper
        _print_json(info)
        return 0
    print(f"n={n}")
    print(f"tables={info['tables']}")
    print(f"classes={info['classes']}")
    print("whitney=" + ",".join(str(v) for v in info["whitney"]))
    print(f"max_antichain_extended={info['max_antichain_extended']}")
    print(f"max_antichain_quotient={info['max_antichain_quotient']}")
    for mode, cnt in upper.items():
        print(f"upper_sets_{mode}={cnt}")
    for mode, bound in skipped:
        print(f"# upper_sets_{mode} skipped (n > {bound}); use --force", file=sys.stderr)
    return 0


# --- parser ----------------------------------------------------------------

def _int_arg(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}")


def _digits_arg(value: str) -> int:
    digits = _int_arg(value)
    if digits < 0:
        raise argparse.ArgumentTypeError(f"expected a count >= 0, got {value!r}")
    return digits


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dilemma",
        description="Optimal decision rules for committees voting on a "
                    "two-premiss conclusion.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json"), precision=6):
        p.add_argument("--format", choices=formats, default=formats[0])
        p.add_argument("--precision", type=_digits_arg, default=precision,
                       help="significant digits (classify: decimals)")

    p = sub.add_parser("optimal", help="loss-minimizing rule")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--theta", required=True,
                   help="competence, or comma list of per-voter competences")
    p.add_argument("--force", action="store_true",
                   help="allow exhaustive scans beyond the documented bounds")
    common(p)
    p.set_defaults(func=_cmd_optimal)

    p = sub.add_parser("rank", help="top-k rules by expected loss")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--mode", choices=("extended", "compact", "both"), default="both")
    p.add_argument("--k", type=_int_arg, default=DEFAULT_K)
    p.add_argument("--force", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("classify", help="class types and good theta windows")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--w", type=float, default=0.5)
    common(p, formats=("text", "json", "csv"), precision=4)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("decide", help="verdict for one table")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--w", type=float, required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--table", required=True, help="x,y,z,t")
    common(p)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("region", help="CSV grid of premiss-wise optimality")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--grid", type=_int_arg, default=100)
    p.add_argument("--format", choices=("csv",), default="csv")
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("hasse", help="Graphviz source of a Hasse diagram")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--mode", choices=tuple(_POSET_MODES), default="extended")
    p.add_argument("--output", help="write to a file instead of stdout")
    p.add_argument("--format", choices=("dot",), default="dot")
    p.set_defaults(func=_cmd_hasse)

    p = sub.add_parser("simulate", help="Monte Carlo table tallies")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--state", required=True, choices=("PQ", "PnQ", "nPQ", "nPnQ"))
    p.add_argument("--trials", type=_int_arg, required=True)
    p.add_argument("--seed", type=_int_arg, required=True)
    p.add_argument("--rule", choices=("pb", "cb", "hb", "optimal"))
    p.add_argument("--w", type=float, default=0.5,
                   help="loss weight used only by --rule optimal")
    common(p, formats=("json", "text"))
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("count", help="structure counts and identities")
    p.add_argument("--n", type=_int_arg, required=True)
    p.add_argument("--force", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_count)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    # parse_args fills a fresh namespace per call, so one parser serves all
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except BrokenPipeError:
        raise  # the reader went away; main reports it, not as a fault
    except (InvalidParameterError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # point fd 1 at devnull, so the flush at interpreter exit has
        # nowhere to fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    main()

"""Optimal decision rules for committees voting on a two-premiss conclusion.

A committee of n voters (n odd) judges premisses P and Q; the
conclusion holds iff both do.  This package enumerates the vote tables
and the single-ballot-shift order on them, evaluates false positive
and false negative probabilities of symmetric monotone rules under a
common competence model, computes the loss-minimizing rule in closed
form, ranks all admissible rules exhaustively, and cross-checks the
probabilities by seeded Monte Carlo.  The ``dilemma`` command exposes
the same operations on the command line; ``dilemma.montecarlo`` loads on first use.
"""

from .errors import InvalidParameterError, StructuralError
from .optimal import (TANGENCY_BAND, GoodnessProfile, TableType,
                      classical_rule, classify, eta_star, g_eval,
                      goodness_intervals, is_good, optimal_rule, pb_optimal,
                      pb_optimal_sufficient, pb_region)
from .poset import Poset, build_poset, max_antichain_size, to_dot
from .probability import (Homogeneous, NegativePrior, NodeLaw, PerVoter,
                          Profile, RuleEvaluation, State, as_profile, loss,
                          negative_mass, node_law, positive_mass, rule_fn,
                          rule_fp, rule_fp_bayes, single_vote_law, table_law,
                          table_prob)
from .ranking import (RankedRule, RankingRequest, evaluate_rule, rank_rules,
                      ranking_record)
from .rules import DecisionRule, empty_rule
from .tables import (MAX_N, TableClass, VoteTable, canonical, class_count,
                     class_members, enumerate_classes, enumerate_tables,
                     multinomial, ordered_tables, table_class, table_count,
                     transpose, whitney_numbers)

__version__ = "0.1.0"

__all__ = [
    "BLOCK_TRIALS", "DecisionRule", "GoodnessProfile", "Homogeneous",
    "InvalidParameterError", "MAX_N", "NegativePrior", "NodeLaw", "PerVoter",
    "Poset", "Profile", "RNG_ALGORITHM", "RankedRule", "RankingRequest",
    "RuleEvaluation", "SimulationResult", "SimulationSpec", "State",
    "StructuralError", "TANGENCY_BAND", "TableClass", "TableType",
    "VoteTable", "as_profile", "build_poset", "canonical", "class_count",
    "class_members", "classical_rule", "classify", "empty_rule",
    "enumerate_classes", "enumerate_tables", "eta_star", "evaluate_rule",
    "g_eval", "goodness_intervals", "is_good", "loss", "max_antichain_size",
    "multinomial", "negative_mass", "node_law", "optimal_rule",
    "ordered_tables", "pb_optimal", "pb_optimal_sufficient", "pb_region",
    "positive_mass", "rank_rules", "ranking_record", "rule_fn", "rule_fp",
    "rule_fp_bayes", "simulate", "single_vote_law", "table_class",
    "table_count", "table_law", "table_prob", "to_dot", "transpose",
    "whitney_numbers",
]

_LAZY = ("BLOCK_TRIALS", "RNG_ALGORITHM", "SimulationResult", "SimulationSpec", "simulate")


def __getattr__(name):
    if name != "montecarlo" and name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(".montecarlo", __name__)
    return module if name == "montecarlo" else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})

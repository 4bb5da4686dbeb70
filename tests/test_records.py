"""The contract of the public value records.

Nine records are NamedTuples and ``DecisionRule`` is a plain class;
all ten are immutable, and equal records hash alike (a
``SimulationResult`` holds dicts, so it compares but does not hash).
The records that check their fields do so on every way of building
one: the constructor, ``_make`` and ``_replace``.
"""

import pytest

from dilemma import (DecisionRule, GoodnessProfile, Homogeneous, InvalidParameterError,
                     NegativePrior, PerVoter, RankedRule, RankingRequest, RuleEvaluation,
                     SimulationResult, SimulationSpec, classical_rule, goodness_intervals,
                     loss, rank_rules, simulate)

# each record with one of its fields and a way to build it afresh
RECORDS = {
    Homogeneous: ("theta", lambda: Homogeneous(0.7)),
    PerVoter: ("thetas", lambda: PerVoter([0.6, 0.7, 0.8])),
    NegativePrior: ("pnq", lambda: NegativePrior.uniform()),
    RuleEvaluation: ("loss", lambda: loss(classical_rule("pb", 3), 0.4, 0.7)),
    GoodnessProfile: ("intervals", lambda: goodness_intervals((1, 0), 0.4)),
    RankingRequest: ("k", lambda: RankingRequest(3, 0.4, Homogeneous(0.7), k=2)),
    RankedRule: ("rule", lambda: rank_rules(RankingRequest(3, 0.4, Homogeneous(0.7)))[0]),
    SimulationSpec: ("seed", lambda: SimulationSpec(3, "PQ", 0.7, 100, 1,
                                                    classical_rule("pb", 3))),
    SimulationResult: ("counts", lambda: simulate(SimulationSpec(3, "PQ", 0.7, 100, 1))),
    DecisionRule: ("n", lambda: classical_rule("pb", 3)),
}
NAMES = [cls.__name__ for cls in RECORDS]


@pytest.mark.parametrize("cls", RECORDS, ids=NAMES)
def test_a_record_is_immutable(cls):
    field, build = RECORDS[cls]
    record = build()
    assert type(record) is cls
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("cls", RECORDS, ids=NAMES)
def test_equal_records_hash_alike(cls):
    build = RECORDS[cls][1]
    a, b = build(), build()
    assert a == b and not a != b
    if cls is SimulationResult:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_a_record_reads_and_compares_as_its_fields():
    assert repr(Homogeneous(0.7)) == "Homogeneous(theta=0.7)"
    assert repr(PerVoter((0.6, 0.7))) == "PerVoter(thetas=(0.6, 0.7))"
    assert Homogeneous(0.7) == (0.7,) and hash(Homogeneous(0.7)) == hash((0.7,))
    assert RankingRequest(3, 0.4, 0.7) == (3, 0.4, 0.7, "extended", 5, False)
    assert classical_rule("pb", 3) != (3,)


@pytest.mark.parametrize("build", [
    lambda: Homogeneous(1.5),
    lambda: PerVoter(()),
    lambda: PerVoter((0.6, "x")),
    lambda: NegativePrior(0.5, 0.5, 0.5),
    lambda: SimulationSpec(3, "PQ", 0.7, 100, -1),
    lambda: SimulationSpec(3, "PQ", 0.7, 0, 1),
    lambda: SimulationSpec(3, "PQ", 0.7, 100, 1, classical_rule("pb", 5)),
    lambda: SimulationSpec(3, "PQ", (0.6, 0.7), 100, 1),
    lambda: Homogeneous(0.7)._replace(theta=1.5),
    lambda: PerVoter._make([()]),
    lambda: NegativePrior.uniform()._replace(pnq=1.0),
    lambda: SimulationSpec(3, "PQ", 0.7, 100, 1)._replace(seed=-1),
    lambda: SimulationSpec._make((3, "PQ", 0.7, 100, 1, classical_rule("pb", 5))),
], ids=["theta", "no-thetas", "theta-string", "prior-sum", "seed", "trials", "rule-size",
        "profile-size", "replace-theta", "make-thetas", "replace-prior", "replace-seed",
        "make-rule-size"])
def test_bad_fields_raise_on_every_way_in(build):
    with pytest.raises(InvalidParameterError):
        build()


def test_make_and_replace_normalize_like_the_constructor():
    spec = SimulationSpec(3, "PQ", 0.7, 100, 1)
    assert spec._replace(profile=[0.6, 0.7, 0.8]).profile == PerVoter((0.6, 0.7, 0.8))
    assert SimulationSpec._make(spec) == spec
    assert type(Homogeneous._make(["0.7"]).theta) is float


def test_a_rule_keeps_its_cached_views_after_the_freeze():
    rule = classical_rule("pb", 3)
    positives = rule.positives
    assert rule.positives is positives and vars(rule)["positives"] is positives
    assert rule.positive_classes() is rule.positive_classes()
    with pytest.raises(AttributeError):
        rule.n = 4
    assert rule.n == 3 and rule.positives is positives

"""A seeded sample of class A, every net of which small_scope.py checks
against the explicit engine."""

import random

from small_scope import CLASS_A_SIZE, class_a_net, tally


def test_class_a_numbers_each_net_once():
    nets = {class_a_net(i) for i in range(0, CLASS_A_SIZE, 97)}
    assert len(nets) == len(range(0, CLASS_A_SIZE, 97))
    first, last = class_a_net(0), class_a_net(CLASS_A_SIZE - 1)
    assert not first.leader_transitions and not first.contributor_transitions
    assert first.leader.accepting == {"p0"}
    assert len(last.leader_transitions) == len(
        last.contributor_transitions) == 8
    assert last.leader.accepting == {"p0", "p1"}


def test_a_sample_of_class_a_agrees_with_the_explicit_engine():
    rng = random.Random(0)
    result = tally(rng.randrange(CLASS_A_SIZE) for _ in range(2_000))
    assert result["disagreements"] == []
    assert result["nets"] == 2_000
    assert set(result["verdicts"]) == {"NONEMPTY", "EMPTY"}
    assert min(result["verdicts"].values()) >= 200

"""Cross-module invariants exercised with seeded random sweeps."""

import itertools

import numpy as np
import pytest

from wignerlab import qcore
from wignerlab.paradox import (
    constraints_from_born,
    enumerate_satisfying,
    scenario_constraints,
)
from wignerlab.scenario import (
    FRIENDS,
    OUTCOME_VARIABLE,
    WIGNERS,
    ScenarioModel,
    context_born_table,
    erasure_check,
    run_friend_stage,
    sample_outcomes,
    scenario_context,
)

# The record context plus the four constraint contexts, one agent per lab.
AGENT_TRIPLES = (
    ("Alice", "Bob", "Charlie"),
    ("Eugene", "Bob", "Charlie"),
    ("Alice", "Johnny", "Charlie"),
    ("Alice", "Bob", "Daniel"),
    ("Eugene", "Johnny", "Daniel"),
)

ALL_TRANSVERSALS = tuple(itertools.product(
    ("Alice", "Eugene"), ("Bob", "Johnny"), ("Charlie", "Daniel")))


def random_unitary(rng, layout):
    """A mask form with a random mask and random unit phases."""
    d = layout.total_dim
    phases = np.exp(2j * np.pi * rng.random(d)).tolist()
    return qcore.Operator.from_pauli_mask(layout, int(rng.integers(d)), phases.__getitem__)


def test_random_subsystem_unitaries_preserve_norm():
    # Each unitary acts where a random +-1 diagonal on the other registers
    # reads -1, through apply_controlled.
    rng = np.random.default_rng(31415)
    layout = qcore.qubits("p", "q", "r")
    labels = layout.labels
    for _ in range(50):
        vec = rng.normal(size=8) + 1j * rng.normal(size=8)
        vec /= np.linalg.norm(vec)
        state = qcore.SparseState(layout, dict(enumerate(vec)))
        k = int(rng.integers(1, 3))
        chosen = set(rng.choice(3, size=k, replace=False).tolist())
        sub, rest = ([labels[i] for i in range(3) if (i in chosen) is side] for side in (True, False))
        signs = rng.choice([1.0, -1.0], size=2 ** (3 - k)).tolist()
        control = qcore.Operator.from_pauli_mask(layout.subset(rest), 0, signs.__getitem__)
        moved = qcore.apply_controlled(control, random_unitary(rng, layout.subset(sub)), state)
        assert abs(np.linalg.norm(list(moved.entries.values())) - 1.0) <= 1e-12


@pytest.fixture(scope="module")
def post_friend():
    model = ScenarioModel()
    return model, run_friend_stage(model)


def test_every_joint_context_is_normalized(post_friend):
    model, state = post_friend
    for agents in ALL_TRANSVERSALS:
        table = context_born_table(state, scenario_context(model, agents))
        assert abs(sum(table.rows.values()) - 1.0) <= 1e-12
        assert all(p >= -1e-12 for p in table.rows.values())
    for agent in FRIENDS + WIGNERS:
        table = context_born_table(state, scenario_context(model, (agent,)))
        assert abs(sum(table.rows.values()) - 1.0) <= 1e-12


def test_marginals_agree_across_overlapping_contexts(post_friend):
    model, state = post_friend
    tables = {
        agents: context_born_table(state, scenario_context(model, agents))
        for agents in AGENT_TRIPLES
    }
    for first, second in itertools.combinations(AGENT_TRIPLES, 2):
        shared = sorted(set(first) & set(second))
        if not shared:
            continue
        left = tables[first].marginal_rows(tuple(shared))
        right = tables[second].marginal_rows(tuple(shared))
        for outcome, p in left.items():
            assert abs(p - right[outcome]) <= 1e-12


def test_single_agent_marginals_match_direct_tables(post_friend):
    model, state = post_friend
    joint = context_born_table(
        state, scenario_context(model, ("Alice", "Bob", "Charlie")))
    for agent in FRIENDS:
        direct = context_born_table(state, scenario_context(model, (agent,)))
        margin = joint.marginal_rows((agent,))
        for outcome, p in direct.rows.items():
            assert abs(p - margin[outcome]) <= 1e-12


@pytest.mark.parametrize("width", [1, 2, 3])
def test_lab_width_leaves_the_structure_alone(width):
    model = ScenarioModel(lab_width=width)
    state = run_friend_stage(model)
    tables = []
    for agents, sign in zip(AGENT_TRIPLES[1:], (1.0, 1.0, 1.0, -1.0)):
        context = scenario_context(model, agents)
        tables.append(context_born_table(state, context).with_names(
            tuple(OUTCOME_VARIABLE[a] for a in agents)))
        assert abs(qcore.product_expectation(context.values(), state, "L1")[0]
                   - sign) <= 1e-12
    extraction = constraints_from_born(tables)
    assert extraction.skipped == ()
    assert extraction.system.lines() == scenario_constraints().lines()
    assert enumerate_satisfying(extraction.system) == 0
    assert len(extraction.system.universe) == 6
    erasure = erasure_check(model)
    assert abs(erasure.p_plus_given_plus - 0.5) <= 1e-12
    assert abs(erasure.p_plus_given_minus - 0.5) <= 1e-12


def test_samples_sit_inside_supports(post_friend):
    model, state = post_friend
    for agents in AGENT_TRIPLES:
        context = scenario_context(model, agents)
        table = context_born_table(state, context)
        support = set(table.support())
        for seed in range(30):
            outcome = sample_outcomes(table, seed)
            assert outcome in support and table.names == tuple(agents)

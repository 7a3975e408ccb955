import pytest

from wignerlab.contexts import (
    NAMED_CONTEXT_IDS,
    DecoherenceEnvironment,
    common_extension,
    incompatibility_graph,
    maximal_contexts,
    primary_context,
)
from wignerlab.scenario import (
    AGENTS,
    LAB_INDEX,
    ScenarioModel,
    atom_label,
    lab_label,
)
from wignerlab.spacetime import collinear_geometry, default_geometry


@pytest.fixture(scope="module")
def model():
    return ScenarioModel()


def test_primary_context_of_friend():
    env = primary_context("Alice")
    assert env.id == "E_A"
    assert env.agents == frozenset({"Alice"})


def test_primary_context_of_wigner():
    env = primary_context("Eugene")
    assert env.id == "E_U"
    assert env.agents == frozenset({"Eugene"})


def test_resolve_observable_matches_model(model):
    # A record's observable is its agent's scenario observable, supported
    # within the agent's lab: a lab-measuring agent reads the same atom and
    # pointer as the friend inside.
    for agent in AGENTS:
        assert primary_context(agent).agents == {agent}
        op = model.scenario_observable(agent)
        i = LAB_INDEX[agent]
        assert frozenset(op.layout.labels) <= {atom_label(i), lab_label(i)}
    assert model.scenario_observable("Bob").layout == model.record_observable("Bob").layout


def test_incompatibility_graph_is_the_three_lab_pairs(model):
    assert incompatibility_graph(model) == (("A", "U"), ("B", "V"), ("C", "W"))


def test_incompatibility_graph_stable_at_width_two():
    assert incompatibility_graph(ScenarioModel(lab_width=2)) == (
        ("A", "U"), ("B", "V"), ("C", "W"))


def test_compatible_extension_and_its_failure(model):
    env_a = primary_context("Alice")
    env_ab = common_extension(model, [env_a, primary_context("Bob")])
    assert env_ab is not None
    assert env_ab.id == "E_AB"
    # env_ab holds everything env_a does, consistently; not the reverse.
    assert common_extension(model, [env_ab, env_a]) == env_ab
    assert common_extension(model, [env_a, env_ab]) != env_a


def test_no_common_extension_across_a_sealed_lab(model):
    envs = [primary_context(a)
            for a in ("Alice", "Bob", "Charlie", "Eugene")]
    assert common_extension(model, envs) is None


def test_common_extension_id_uses_event_letter_order(model):
    env = common_extension(model, [primary_context(a)
                                   for a in ("Eugene", "Bob", "Charlie")])
    assert env.id == "E_BCU"
    assert env.agents == frozenset({"Eugene", "Bob", "Charlie"})


def test_maximal_contexts_are_the_eight_transversals(model):
    reports = maximal_contexts(model, default_geometry())
    assert len(reports) == 8
    ids = [r.environment.id for r in reports]
    assert ids == sorted(ids)
    for report in reports:
        assert len(report.environment.agents) == 3
        # One agent per lab: never a friend and their own observer together.
        assert sorted(LAB_INDEX[a] for a in report.environment.agents) == [1, 2, 3]


@pytest.mark.parametrize("width", [1, 2])
def test_maximal_context_environment_is_the_common_extension(width):
    # Oracle: the checked union of the agents' primary contexts.
    wide = ScenarioModel(lab_width=width)
    for report in maximal_contexts(wide, default_geometry()):
        oracle = common_extension(wide, [primary_context(a)
                                         for a in report.environment.agents])
        assert oracle is not None
        assert report.environment == oracle


def test_named_contexts_flagged(model):
    reports = maximal_contexts(model, default_geometry())
    named = {r.environment.id for r in reports if r.named}
    assert named == NAMED_CONTEXT_IDS
    assert NAMED_CONTEXT_IDS == {"E_ABC", "E_ABW", "E_ACV", "E_BCU", "E_UVW"}
    unnamed = {r.environment.id for r in reports if not r.named}
    assert unnamed == {"E_AVW", "E_BUW", "E_CUV"}


def test_maximal_contexts_with_default_geometry_all_framed(model):
    reports = maximal_contexts(model, geometry=default_geometry())
    assert len(reports) == 8
    for report in reports:
        assert report.frame is not None and report.frame.exists
        assert report.frame.velocity.speed < 1.0
    filtered = [r for r in reports if r.frame.exists]
    assert len(filtered) == 8


def test_collinear_geometry_frames_only_same_stage_contexts(model):
    filtered = [r for r in maximal_contexts(model, geometry=collinear_geometry())
                if r.frame.exists]
    assert {r.environment.id for r in filtered} == {"E_ABC", "E_UVW"}
    for report in filtered:
        assert report.frame.velocity.speed == 0.0


def test_every_agent_is_assessable_somewhere(model):
    reports = maximal_contexts(model, default_geometry())
    for agent in AGENTS:
        homes = [r for r in reports if agent in r.environment.agents]
        assert len(homes) == 4
        for report in homes:
            extended = [report.environment, primary_context(agent)]
            assert common_extension(model, extended) == report.environment


def test_environment_ids_are_deterministic(model):
    first = maximal_contexts(model, default_geometry())
    second = maximal_contexts(model, default_geometry())
    assert [r.environment.id for r in first] == [r.environment.id for r in second]
    env = DecoherenceEnvironment("E_X", frozenset())
    assert env.agents == frozenset()

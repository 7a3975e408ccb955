import math

import numpy as np
import pytest

import dense_oracle as oracle
from wignerlab.decoherence import (
    DephasingChannel,
    correlation_decay,
    dephase,
    dephased_states,
    diagonality_trajectory,
    expectation_trajectory,
    onset_step,
    pointer_diagonality,
)
from wignerlab.errors import UnknownLabelError
from wignerlab.qcore import (
    RegisterLayout,
    SparseState,
    born_table,
    pure_density,
    qubits,
)
from wignerlab.scenario import (
    FRIENDS,
    PROTOCOL_CONTEXTS,
    ScenarioModel,
    run_friend_stage,
    scenario_context,
)


def plus_state():
    return SparseState(qubits("q"), {0: 1 / np.sqrt(2), 1: 1 / np.sqrt(2)})


def bell_pair():
    return SparseState(qubits("a1", "L1"), {0b00: 1 / np.sqrt(2), 0b11: 1 / np.sqrt(2)})


def test_dephase_scales_off_diagonal():
    rho = dephase(pure_density(plus_state()), DephasingChannel("q", 0.5))
    expected = np.array([[0.5, 0.25], [0.25, 0.5]])
    assert np.max(np.abs(oracle.matrix(rho) - expected)) <= 1e-12


def test_trusted_outputs_are_read_only():
    rho = pure_density(plus_state())
    for rho in (rho, dephase(rho, DephasingChannel("q", 0.5))):
        with pytest.raises(TypeError):
            rho.entries[0, 1] = 0.0


def test_full_strength_kills_coherence():
    rho = dephase(pure_density(plus_state()), DephasingChannel("q", 1.0))
    assert np.max(np.abs(oracle.matrix(rho) - np.eye(2) / 2)) <= 1e-12


def test_two_steps_compose_like_one():
    lam = 0.3
    once = DephasingChannel("L1", lam)
    bell = pure_density(bell_pair())
    rho = dephase(dephase(bell, once), once)
    combined = DephasingChannel("L1", 1.0 - (1.0 - lam) ** 2)
    direct = dephase(bell, combined)
    assert np.max(np.abs(oracle.matrix(rho) - oracle.matrix(direct))) <= 1e-12


def test_unknown_target_rejected():
    with pytest.raises(UnknownLabelError):
        dephase(pure_density(plus_state()), DephasingChannel("nope", 0.5))


def test_pointer_diagonality_values():
    assert pointer_diagonality(plus_state(), "q") == pytest.approx(0.5)
    assert pointer_diagonality(bell_pair(), "L1") == pytest.approx(0.25)
    zero = SparseState(qubits("q"), {0: 1.0})
    assert pointer_diagonality(zero, "q") == 0.0


def test_trajectory_halves_each_step():
    traj = diagonality_trajectory(bell_pair(), DephasingChannel("L1", 0.5), 8)
    assert len(traj) == 9
    for k, value in enumerate(traj):
        assert value == pytest.approx(0.25 * 0.5 ** k, abs=1e-12)


def test_onset_and_robustness_threshold():
    traj = diagonality_trajectory(bell_pair(), DephasingChannel("L1", 0.5), 10)
    # 0.25 * 0.5^8 = 9.77e-4 is the first value at or under 1e-3.
    assert onset_step(traj, 1e-3) == 8
    # Every value from the onset on stays under the threshold; the one
    # before it does not.
    assert all(v <= 1e-3 for v in traj[8:])
    assert traj[7] > 1e-3
    assert onset_step(traj, 0.25) == 0
    # The onset is the first step of the final run under the threshold, so
    # an early dip that rises again does not count.
    bumpy = (0.5, 1e-4, 0.5, 1e-4, 1e-5)
    assert onset_step(bumpy, 1e-3) == 3
    # A value equal to the threshold is at or under it.
    assert onset_step((0.5, 1e-3), 1e-3) == 1
    assert onset_step(traj, 1e-9) is None


def random_mixed(rng, layout, rank):
    d = layout.total_dim
    a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    mat = a @ a.conj().T
    return oracle.density(layout, mat / np.trace(mat).real)


def test_channel_preserves_trace_positivity_and_marginal():
    # dephase checks nothing on its output, so its properties are asserted
    # here, on pure and mixed inputs, against the oracle's channel.
    rng = np.random.default_rng(20260822)
    layout = RegisterLayout((("a1", 2), ("L1", 4)))
    for trial in range(25):
        if trial % 2:
            vec = rng.normal(size=8) + 1j * rng.normal(size=8)
            state = pure_density(oracle.sparse(layout, vec / np.linalg.norm(vec)))
        else:
            state = random_mixed(rng, layout, rank=int(rng.integers(2, 9)))
        lam = float(rng.uniform(0.0, 1.0))
        rho = oracle.matrix(dephase(state, DephasingChannel("L1", lam)))
        assert np.max(np.abs(rho - oracle.dephase(oracle.matrix(state), layout, "L1", lam))
                      ) <= 1e-12
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) >= -1e-12
        before = oracle.partial_trace(oracle.matrix(state), layout, ("a1",))
        after = oracle.partial_trace(rho, layout, ("a1",))
        assert np.max(np.abs(before - after)) <= 1e-12


def test_diagonality_monotone_in_strength_and_steps():
    rng = np.random.default_rng(7)
    for _ in range(10):
        lam_small = float(rng.uniform(0.05, 0.45))
        lam_big = float(rng.uniform(0.55, 0.95))
        weak = diagonality_trajectory(bell_pair(),
                                      DephasingChannel("L1", lam_small), 6)
        strong = diagonality_trajectory(bell_pair(),
                                        DephasingChannel("L1", lam_big), 6)
        for k in range(6):
            assert weak[k + 1] <= weak[k] + 1e-12
            assert strong[k + 1] <= weak[k + 1] + 1e-12


@pytest.mark.parametrize(
    "agents,sign",
    [
        (("Eugene", "Johnny", "Daniel"), -1.0),
        (("Eugene", "Bob", "Charlie"), 1.0),
    ],
)
def test_x_type_correlations_decay_geometrically(agents, sign):
    model = ScenarioModel()
    values = expectation_trajectory(model, DephasingChannel("L1", 0.5),
                                    agents, 4)
    for k, value in enumerate(values):
        assert value == pytest.approx(sign * 0.5 ** k, abs=1e-10)


@pytest.mark.parametrize(
    "agents",
    [("Alice", "Johnny", "Charlie"), ("Alice", "Bob", "Daniel")],
)
def test_record_type_correlations_survive(agents):
    model = ScenarioModel()
    values = expectation_trajectory(model, DephasingChannel("L1", 0.5),
                                    agents, 4)
    for value in values:
        assert value == pytest.approx(1.0, abs=1e-10)


def test_correlation_decay_analytic_law():
    model = ScenarioModel()
    lam = 0.3
    values = correlation_decay(model, DephasingChannel("L1", lam), 10)
    assert len(values) == 11
    for k, value in enumerate(values):
        assert abs(value - (-((1.0 - lam) ** k))) <= 1e-12


def test_correlation_decay_edge_strengths():
    model = ScenarioModel()
    flat = correlation_decay(model, DephasingChannel("L2", 0.0), 5)
    assert all(abs(v + 1.0) <= 1e-12 for v in flat)
    dead = correlation_decay(model, DephasingChannel("L3", 1.0), 2)
    assert abs(dead[0] + 1.0) <= 1e-12
    assert abs(dead[1]) <= 1e-12
    assert abs(dead[2]) <= 1e-12


def test_record_context_table_is_invariant():
    model = ScenarioModel()
    context = scenario_context(model, ("Alice", "Johnny", "Charlie"))
    state = run_friend_stage(model)
    clean = born_table(tuple(context.values()), state, names=tuple(context))
    rho = pure_density(state)
    chan = DephasingChannel("L1", 0.7)
    for _ in range(3):
        rho = dephase(rho, chan)
    noisy = oracle.born_rows(tuple(context.values()), oracle.matrix(rho), state.layout)
    for outcome, p in clean.rows.items():
        assert noisy[outcome] == pytest.approx(p, abs=1e-10)


def record_contexts(target):
    """The two constraint contexts that read the target lab through its record."""
    friend = {"L1": "Alice", "L2": "Bob", "L3": "Charlie"}[target]
    mixed = (("Eugene", "Bob", "Charlie"), ("Alice", "Johnny", "Charlie"),
             ("Alice", "Bob", "Daniel"))
    return [agents for agents in mixed if friend in agents]


def iterated_series(model, channel, steps, contexts):
    """Every series read off the oracle's iterated dense channel, one state at a time."""
    psi = run_friend_stage(model)
    tables = {agents: scenario_context(model, agents) for agents in contexts}
    series = {agents: [] for agents in contexts}
    diagonality = []
    rho = oracle.matrix(pure_density(psi))
    for _ in range(steps + 1):
        for agents, context in tables.items():
            rows = oracle.born_rows(tuple(context.values()), rho, psi.layout)
            series[agents].append(sum(math.prod(o) * p for o, p in rows.items()))
        diagonality.append(oracle.pointer_diagonality(rho, psi.layout, channel.target))
        rho = oracle.dephase(rho, psi.layout, channel.target, channel.strength)
    return series, diagonality


def largest_gap(a, b):
    assert len(a) == len(b)
    return max(abs(x - y) for x, y in zip(a, b))


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("target", ["L1", "L2", "L3"])
@pytest.mark.parametrize("width", [1, 2])
def test_closed_form_matches_iterated_channel(width, target, lam):
    model = ScenarioModel(width)
    channel = DephasingChannel(target, lam)
    steps = 3 if width == 1 else 2
    contexts = record_contexts(target)
    series, diagonality = iterated_series(
        model, channel, steps, [("Eugene", "Johnny", "Daniel")] + contexts)
    decay = correlation_decay(model, channel, steps)
    assert largest_gap(decay, series[("Eugene", "Johnny", "Daniel")]) <= 1e-12
    for agents in contexts:
        closed = expectation_trajectory(model, channel, agents, steps)
        assert largest_gap(closed, series[agents]) <= 1e-12
    traj = diagonality_trajectory(run_friend_stage(model), channel, steps)
    assert largest_gap(traj, diagonality) <= 1e-12


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("target", ["L1", "L2", "L3"])
@pytest.mark.parametrize("width", [1, 2])
def test_iterates_would_pass_the_public_checks(width, target, lam):
    # pure_density and dephase build these without validation; each must be
    # bitwise Hermitian, keep the first trace bitwise, and have no eigenvalue
    # below -1e-10 (eigvalsh on d = 512 is run for one case at width 2 only).
    model = ScenarioModel(width)
    channel = DephasingChannel(target, lam)
    states = list(dephased_states(model.post_premeasurement_state(), channel, 3))
    trace = np.trace(oracle.matrix(states[0]))
    assert abs(trace - 1.0) <= 1e-12
    for rho in states:
        m = oracle.matrix(rho)
        assert np.array_equal(m, m.conj().T)
        assert np.trace(m) == trace
        if width == 1 or (target, lam) == ("L2", 0.3):
            assert np.min(np.linalg.eigvalsh(m)) >= -1e-10


def test_pure_state_diagonality_matches_density_path():
    rng = np.random.default_rng(5)
    layout = RegisterLayout((("a", 2), ("p", 8), ("b", 4)))
    for _ in range(10):
        vec = rng.normal(size=64) + 1j * rng.normal(size=64)
        vec /= np.linalg.norm(vec)
        state = oracle.sparse(layout, vec)
        for target, _ in layout.sites:
            fast = pointer_diagonality(state, target)
            assert fast == pointer_diagonality(pure_density(state), target)
            assert abs(fast - oracle.pointer_diagonality(
                np.outer(vec, vec.conj()), layout, target)) <= 1e-12
            traj = diagonality_trajectory(state, DephasingChannel(target, 0.5), 1)
            assert traj == (fast, 0.5 * fast)


def test_dephased_states_iterates_the_channel():
    chan = DephasingChannel("L1", 0.5)
    states = list(dephased_states(bell_pair(), chan, 3))
    assert len(states) == 4
    assert dict(states[0].entries) == dict(pure_density(bell_pair()).entries)
    for before, after in zip(states, states[1:]):
        assert dict(dephase(before, chan).entries) == dict(after.entries)


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("target", ["L1", "L2", "L3"])
@pytest.mark.parametrize("width", [1, 2])
def test_diagonality_equals_the_masked_sum(width, target, lam):
    # The oracle's residual coherence is an off-diagonal mask broadcast over
    # every axis of the d x d matrix.
    model = ScenarioModel(width)
    channel = DephasingChannel(target, lam)
    states = list(dephased_states(model.post_premeasurement_state(), channel, 3))
    for rho in states:
        assert pointer_diagonality(rho, target) == oracle.pointer_diagonality(
            oracle.matrix(rho), rho.layout, target)
    if lam == 1.0:
        assert pointer_diagonality(states[1], target) == 0.0


@pytest.mark.parametrize("target", ["L1", "L2", "L3", "a2"])
@pytest.mark.parametrize("width", [1, 2])
def test_entries_form_channel_equals_the_dense_channel(width, target):
    # psi starts an entries form over supp(psi) x supp(psi); the oracle
    # starts a d x d array from psi's dense vector.  Both must agree bit for
    # bit, as must each step's residual coherence and that of psi itself.
    psi = ScenarioModel(width).post_premeasurement_state()
    vec = oracle.tensor(psi).reshape(-1)
    for lam in (0.0, 0.3, 0.5, 1.0):
        channel = DephasingChannel(target, lam)
        slow = np.outer(vec, vec.conj())
        for fast in dephased_states(psi, channel, 3):
            assert len(fast.entries) == len(psi.entries) ** 2
            assert np.array_equal(oracle.matrix(fast), slow)
            assert pointer_diagonality(fast, target) == oracle.pointer_diagonality(
                slow, psi.layout, target)
            slow = oracle.dephase(slow, psi.layout, target, lam)
            assert np.array_equal(oracle.matrix(dephase(fast, channel)), slow)
    assert pointer_diagonality(psi, target) == oracle.pointer_diagonality(
        np.outer(vec, vec.conj()), psi.layout, target)


PARITY_CONTEXTS = tuple(agents for agents, parity in PROTOCOL_CONTEXTS.items()
                        if parity is not None)


@pytest.mark.parametrize("target", ["L1", "L2", "L3"])
@pytest.mark.parametrize("width", [1, 2])
def test_one_pass_series_matches_born_tables_on_the_iterated_channel(width, target):
    # All four parity contexts, the target lab's Wigner context included.
    model = ScenarioModel(width)
    channel = DephasingChannel(target, 0.3)
    series, _ = iterated_series(model, channel, 2, PARITY_CONTEXTS)
    for agents in PARITY_CONTEXTS:
        closed = expectation_trajectory(model, channel, agents, 2)
        assert largest_gap(closed, series[agents]) <= 1e-12
        # Fully dephased, only the branch part is left: 0 where the target
        # lab's Wigner moves its pointer, the coherent value where a record reads it.
        dead = expectation_trajectory(model, DephasingChannel(target, 1.0), agents, 1)
        reads_record = agents[int(target[1]) - 1] in FRIENDS
        assert dead[1] == (dead[0] if reads_record else 0.0)

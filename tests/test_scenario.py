import collections
import hashlib
import itertools
import math

import numpy as np
import pytest

import dense_oracle as oracle
from test_sparse import run_wigner_stage
from wignerlab import qcore, scenario
from wignerlab.qcore import Operator, qubits
from wignerlab.scenario import (
    FRIENDS,
    PROTOCOL_CONTEXTS,
    WIGNERS,
    MeasurementSpec,
    ScenarioModel,
    atom_label,
    context_born_table,
    erasure_check,
    extend_with_probe,
    run_friend_stage,
    sample_outcomes,
    scenario_context,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def sigma_z(label):
    return Operator.from_pauli_mask(qubits(label), 0, (1.0, -1.0).__getitem__)


def premeasurement_matrix(spec):
    """The oracle's premeasurement of ``spec`` on every basis state, as a matrix."""
    layout = spec.observable.layout.concat(spec.pointer)
    d = layout.total_dim
    eye = np.eye(d, dtype=complex).reshape(layout.shape + (d,))
    return oracle.premeasure(spec.observable, spec.pointer, eye, layout).reshape(d, d)


def product_value(model, agents, state):
    """<psi|O_1 O_2 O_3|psi> from product_expectation, checked against the oracle."""
    ops = [model.scenario_observable(a) for a in agents]
    value, _ = qcore.product_expectation(ops, state, "L1")
    tens = oracle.tensor(state)
    image = tens
    for op in reversed(ops):
        image = oracle.act(op.matrix, op.layout, image, state.layout)
    assert abs(value - np.vdot(tens, image).real) <= 1e-12
    return value


def test_vn_unitary_is_cnot_for_z():
    spec = MeasurementSpec(sigma_z("a"), qubits("p"))
    assert np.max(np.abs(premeasurement_matrix(spec) - CNOT)) <= 1e-12
    for col in range(4):
        basis = qcore.SparseState(qubits("a", "p"), {col: 1.0})
        assert np.array_equal(oracle.tensor(spec.apply(basis)).reshape(-1), CNOT[:, col])


def test_vn_unitary_is_unitary_for_random_involutory():
    rng = np.random.default_rng(41)
    for width in (1, 2):
        signs = rng.choice([1.0, -1.0], size=4).tolist()
        obs = Operator.from_pauli_mask(qubits("s", "t"), 3, lambda j: signs[min(j, j ^ 3)])
        pointer = qcore.RegisterLayout((("p", 2**width),))
        spec = MeasurementSpec(obs, pointer)
        u = premeasurement_matrix(spec)
        assert np.max(np.abs(u @ u.conj().T - np.eye(len(u)))) <= 1e-12
        layout = obs.layout.concat(pointer)
        raw = rng.normal(size=layout.shape) + 1j * rng.normal(size=layout.shape)
        state = oracle.sparse(layout, raw / np.linalg.norm(raw))
        moved = oracle.tensor(spec.apply(state))
        assert abs(np.linalg.norm(moved) - 1.0) <= 1e-12
        assert np.max(np.abs(moved.reshape(-1) - u @ raw.reshape(-1) / np.linalg.norm(raw))) <= 1e-12


def test_vn_unitary_correlates_pointer():
    # Measuring sigma_z on |+> then reading both registers: perfect correlation.
    plus = qcore.SparseState(qubits("a"), {0: 1 / np.sqrt(2), 1: 1 / np.sqrt(2)})
    ready = qcore.SparseState(qubits("p"), {0: 1.0})
    state = MeasurementSpec(sigma_z("a"), qubits("p")).apply(qcore.tensor(plus, ready))
    t = qcore.born_table([sigma_z("a"), sigma_z("p")], state)
    assert abs(t.rows[(1, 1)] - 0.5) <= 1e-12
    assert abs(t.rows[(-1, -1)] - 0.5) <= 1e-12
    assert abs(t.rows[(1, -1)]) <= 1e-12
    assert abs(t.rows[(-1, 1)]) <= 1e-12


def test_lifted_x_is_xx_at_width_one():
    # Dense oracle: conjugate sigma_x (x) I by the explicit premeasurement.
    model = ScenarioModel(1)
    got = model.lifted_x_observable("Eugene")
    conjugated = CNOT @ np.kron(X, I2) @ CNOT.conj().T
    assert np.max(np.abs(got.matrix - conjugated)) <= 1e-12
    assert np.max(np.abs(got.matrix - np.kron(X, X))) <= 1e-12


@pytest.mark.parametrize("width", [1, 2, 3])
def test_lifted_x_general_width_oracle(width):
    # Oracle: conjugate sigma_x (x) I by Bob's explicit premeasurement.
    model = ScenarioModel(width)
    got = model.lifted_x_observable("Johnny")
    spec = model.friend_spec("Bob")
    v = premeasurement_matrix(spec)
    conjugated = v @ np.kron(X, np.eye(2**width)) @ v.conj().T
    assert got.layout == spec.observable.layout.concat(spec.pointer)
    assert np.max(np.abs(got.matrix - conjugated)) <= 1e-12


@pytest.mark.parametrize("width", [1, 2, 3])
def test_scenario_observable_built_once_per_model(width):
    model = ScenarioModel(width)
    for agent in FRIENDS + WIGNERS:
        op = model.scenario_observable(agent)
        assert op is model.scenario_observable(agent)
        fresh = (model.record_observable(agent) if agent in FRIENDS
                 else model.lifted_x_observable(agent))
        assert fresh is not op
        assert op.layout == fresh.layout
        assert np.array_equal(op.matrix, fresh.matrix)
    context = scenario_context(model, ("Eugene", "Bob", "Charlie"))
    assert context["Eugene"] is model.scenario_observable("Eugene")
    assert model.wigner_spec("Eugene").observable is model.scenario_observable("Eugene")


@pytest.mark.parametrize("width", [1, 2])
def test_post_premeasurement_state_built_once_per_model(width):
    model = ScenarioModel(width)
    psi = model.post_premeasurement_state()
    assert psi is model.post_premeasurement_state()
    assert psi.layout == model.layout
    assert dict(psi.entries) == dict(run_friend_stage(model).entries)


@pytest.mark.parametrize("width", [1, 2])
def test_observables_commute_matches_dense_check(width):
    model = ScenarioModel(width)
    for x, y in itertools.product(FRIENDS + WIGNERS, repeat=2):
        expected = oracle.commutes(model.scenario_observable(x), model.scenario_observable(y))
        assert model.observables_commute(x, y) is expected
    # Only a lab's record and its conjugated x fail to commute.
    bad = {frozenset((f, w)) for f, w in zip(FRIENDS, WIGNERS)}
    for x, y in itertools.combinations(FRIENDS + WIGNERS, 2):
        assert model.observables_commute(x, y) is (frozenset((x, y)) not in bad)


def test_record_observable_widths():
    assert np.max(np.abs(ScenarioModel(1).record_observable("Alice").matrix - Z)) <= 1e-12
    m2 = ScenarioModel(2).record_observable("Bob").matrix
    assert np.max(np.abs(m2 - np.diag([1.0, 1.0, -1.0, -1.0]))) <= 1e-12
    m3 = ScenarioModel(3).record_observable("Charlie").matrix
    expected = np.diag([1, 1, 1, -1, 1, -1, -1, -1]).astype(float)
    assert np.max(np.abs(m3 - expected)) <= 1e-12


def test_initial_state_layout_and_marginals():
    model = ScenarioModel(1)
    s = model.initial_state()
    assert s.layout.labels == ("a1", "a2", "a3", "L1", "L2", "L3")
    red = oracle.partial_trace(oracle.matrix(qcore.pure_density(s)), s.layout,
                               ["L1", "L2", "L3"])
    ready = np.zeros((8, 8))
    ready[0, 0] = 1.0
    assert np.max(np.abs(red - ready)) <= 1e-12


def test_friend_stage_order_invariance():
    model = ScenarioModel(1)
    reference = oracle.tensor(run_friend_stage(model))
    for order in itertools.permutations(FRIENDS):
        got = oracle.tensor(run_friend_stage(model, order))
        assert np.max(np.abs(got - reference)) <= 1e-12


POST_FRIEND_EXPECTATIONS = [
    (("Eugene", "Bob", "Charlie"), 1.0),
    (("Alice", "Johnny", "Charlie"), 1.0),
    (("Alice", "Bob", "Daniel"), 1.0),
    (("Eugene", "Johnny", "Daniel"), -1.0),
]


@pytest.mark.parametrize("agents,expected", POST_FRIEND_EXPECTATIONS)
def test_post_friend_product_expectations(agents, expected):
    model = ScenarioModel(1)
    assert abs(product_value(model, agents, run_friend_stage(model)) - expected) <= 1e-12


@pytest.mark.parametrize("agents,expected", POST_FRIEND_EXPECTATIONS)
def test_post_friend_tables_support_and_rows(agents, expected):
    model = ScenarioModel(1)
    post = run_friend_stage(model)
    table = context_born_table(post, scenario_context(model, agents))
    for outcome, p in table.rows.items():
        sign = outcome[0] * outcome[1] * outcome[2]
        if sign == expected:
            assert abs(p - 0.25) <= 1e-12
        else:
            assert abs(p) <= 1e-12
    assert abs(product_value(model, agents, post) - expected) <= 1e-12


def test_scenario_maps_pinned():
    # Written out here, so a change to any derived map fails this test.
    assert scenario.EVENT_OF_AGENT == {
        "Alice": "A", "Bob": "B", "Charlie": "C",
        "Eugene": "U", "Johnny": "V", "Daniel": "W"}
    assert scenario.OUTCOME_VARIABLE == {
        "Alice": "a", "Bob": "b", "Charlie": "c",
        "Eugene": "u", "Johnny": "v", "Daniel": "w"}
    assert scenario.LAB_INDEX == {
        "Alice": 1, "Bob": 2, "Charlie": 3,
        "Eugene": 1, "Johnny": 2, "Daniel": 3}
    # In order: the records context, then the parity contexts whose
    # products the two tests above check against Born tables.
    assert list(scenario.PROTOCOL_CONTEXTS.items()) == (
        [(("Alice", "Bob", "Charlie"), None)]
        + [(agents, int(expected)) for agents, expected in POST_FRIEND_EXPECTATIONS])


def test_post_friend_record_table_is_uniform():
    model = ScenarioModel(1)
    post = run_friend_stage(model)
    table = context_born_table(post, scenario_context(model, FRIENDS))
    for p in table.rows.values():
        assert abs(p - 0.125) <= 1e-12


def test_record_matches_atom_z_in_tables():
    # Invariant: swapping a pointer record for sigma_z on the measured atom
    # changes no row of any standard context table.
    model = ScenarioModel(1)
    post = run_friend_stage(model)
    for agents in [("Eugene", "Bob", "Charlie"), ("Alice", "Bob", "Daniel")]:
        ctx = scenario_context(model, agents)
        swapped = {}
        for agent, obs in ctx.items():
            if agent in FRIENDS:
                swapped[agent] = sigma_z(atom_label(scenario.LAB_INDEX[agent]))
            else:
                swapped[agent] = obs
        t1 = context_born_table(post, ctx)
        t2 = context_born_table(post, swapped)
        for outcome in t1.rows:
            assert abs(t1.rows[outcome] - t2.rows[outcome]) <= 1e-12


def test_wigner_probe_reproduces_lifted_x_statistics():
    # Measuring the conjugated x and then reading the probe's record gives
    # the same distribution as the observable itself: vN consistency.
    model = ScenarioModel(1)
    post = run_friend_stage(model)
    direct = context_born_table(post, scenario_context(model, ["Eugene", "Bob"]))
    final = run_wigner_stage(model, post, ["Eugene"])
    probe_z = sigma_z("e1")
    record_b = model.record_observable("Bob")
    indirect = qcore.born_table([probe_z, record_b], final, names=("Eugene", "Bob"))
    for outcome in direct.rows:
        assert abs(direct.rows[outcome] - indirect.rows[outcome]) <= 1e-12


def test_wigner_stage_order_invariance():
    model = ScenarioModel(1)
    post = run_friend_stage(model)
    tables = []
    for order in itertools.permutations(WIGNERS):
        final = run_wigner_stage(model, post, order)
        obs = [sigma_z(f"e{i}") for i in (1, 2, 3)]
        tables.append(qcore.born_table(obs, final, names=("u", "v", "w")))
    for t in tables[1:]:
        for outcome in tables[0].rows:
            assert abs(t.rows[outcome] - tables[0].rows[outcome]) <= 1e-12


def test_project_record_branches():
    model = ScenarioModel(1)
    post = run_friend_stage(model)
    record = model.record_observable("Alice")
    for value in (1, -1):
        cond, p = qcore.project(record, post, value)
        assert abs(p - 0.5) <= 1e-12
        assert abs(qcore.product_expectation([record], cond, "L1")[0] - value) <= 1e-12


def test_erasure_check_half_half():
    report = erasure_check(ScenarioModel(1))
    assert abs(report.p_plus_given_plus - 0.5) <= 1e-12
    assert abs(report.p_plus_given_minus - 0.5) <= 1e-12


def test_sample_outcomes_deterministic_and_supported():
    model = ScenarioModel(1)
    post = run_friend_stage(model)
    table = context_born_table(post, scenario_context(model, ["Eugene", "Bob", "Charlie"]))
    rec1 = sample_outcomes(table, seed=123)
    rec2 = sample_outcomes(table, seed=123)
    assert rec1.values == rec2.values
    assert tuple(rec1.values) == ("Eugene", "Bob", "Charlie")
    prod = rec1.values["Eugene"] * rec1.values["Bob"] * rec1.values["Charlie"]
    assert prod == 1
    assert abs(rec1.probability - 0.25) <= 1e-12


def test_sample_outcomes_empirical_frequency():
    # Law-of-large-numbers check against the exact table.
    model = ScenarioModel(1)
    post = run_friend_stage(model)
    table = context_born_table(post, scenario_context(model, ["Eugene", "Bob", "Charlie"]))
    rng = scenario.outcome_rng(7, table.names)
    hits = sum(table.sample(rng) == (1, 1, 1) for _ in range(100_000))
    assert abs(hits / 100_000 - 0.25) <= 0.01


def protocol_tables(width=1):
    model = ScenarioModel(width)
    post = model.post_premeasurement_state()
    return [context_born_table(post, scenario_context(model, agents))
            for agents in PROTOCOL_CONTEXTS]


def test_outcome_stream_is_the_sha256_counter_stream():
    # Draw k: the top 53 bits of sha256(seed, names, k) over 2**53.
    names = ("Eugene", "Bob", "Charlie")
    rng = scenario.outcome_rng(2**64 - 1, names)
    for k in range(5):
        block = b"\xff" * 8 + b"Eugene,Bob,Charlie" + k.to_bytes(8, "big")
        top = int.from_bytes(hashlib.sha256(block).digest()[:8], "big") >> 11
        assert rng.random() == top / 2**53


def test_outcome_stream_is_deterministic_per_seed_and_context():
    for names in PROTOCOL_CONTEXTS:
        first = [scenario.outcome_rng(3, names).random() for _ in range(2)]
        assert first[0] == first[1]
        a, b = scenario.outcome_rng(3, names), scenario.outcome_rng(3, names)
        assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]
        assert scenario.outcome_rng(4, names).random() != first[0]
    tables = protocol_tables()
    for seed in (0, 7):
        assert ([sample_outcomes(t, seed) for t in tables]
                == [sample_outcomes(t, seed) for t in protocol_tables(3)])


def test_each_context_draws_its_own_stream():
    # One seed no longer gives every context the same draw.
    for seed in range(100):
        draws = [scenario.outcome_rng(seed, names).random() for names in PROTOCOL_CONTEXTS]
        assert len(set(draws)) == len(draws), seed


def test_sampled_frequencies_match_the_born_rows():
    # 100 000 draws per context, each row within 4 standard deviations.
    n = 100_000
    for table in protocol_tables():
        rng = scenario.outcome_rng(11, table.names)
        counts = collections.Counter(table.sample(rng) for _ in range(n))
        for row, p in table.rows.items():
            assert abs(counts[row] / n - p) <= 4 * math.sqrt(p * (1 - p) / n), (table.names, row)


def test_extend_with_probe_ready_state():
    model = ScenarioModel(2)
    post = run_friend_stage(model)
    ext = extend_with_probe(model, post, "Johnny")
    assert ext.layout.labels[-1] == "e2"
    assert dict(ext.layout.sites)["e2"] == 4


@pytest.mark.parametrize("width", [2, 3])
def test_post_friend_expectations_wider_labs(width):
    model = ScenarioModel(width)
    post = run_friend_stage(model)
    for agents, expected in POST_FRIEND_EXPECTATIONS:
        assert abs(product_value(model, agents, post) - expected) <= 1e-12

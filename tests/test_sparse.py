"""Mask-form operators and sparse states against their dense oracles.

The scenario's observables and pointer flips are built in mask form, an XOR
mask plus a phase rule, and psi is a ``SparseState``.  A mask form is a monomial
operator, one nonzero per row and per column, and the test names say so.
Every fast result here is compared with the dense path at lab widths up to
4, at the pinned 1e-12, and the lazily built matrices with the dense
builders they replace, bit for bit.
"""

import itertools

import numpy as np
import pytest

from wignerlab import qcore
from wignerlab.decoherence import pointer_diagonality
from wignerlab.errors import ContextIncompatibleError
from wignerlab.qcore import Operator, RegisterLayout, SparseState, qubits
from wignerlab.stabilizer import ghz_scenario_state
from wignerlab.scenario import (
    AGENTS,
    FRIENDS,
    MAX_LAB_WIDTH,
    PROTOCOL_CONTEXTS,
    WIGNERS,
    ScenarioModel,
    _flip,
    erasure_check,
    extend_with_probe,
    run_friend_stage,
    run_wigner_stage,
    scenario_context,
    vn_unitary,
)

TOL = 1e-12
WIDTHS = (1, 2, 3, 4)
X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


def loop_majority_diagonal(width):
    """The earlier Python loop over every pointer index."""
    dim = 2**width
    diag = np.empty(dim)
    for idx in range(dim):
        ones = bin(idx).count("1")
        zeros = width - ones
        if ones == zeros:
            diag[idx] = 1.0 if idx < dim // 2 else -1.0
        else:
            diag[idx] = 1.0 if zeros > ones else -1.0
    return diag


def controlled_flip(signs, dp):
    """The permutation |s, p> -> |s, p> or |s, p ^ (dp - 1)> by the sign of s."""
    d = len(signs) * dp
    rows = [s * dp + (p if signs[s] > 0 else p ^ (dp - 1))
            for s in range(len(signs)) for p in range(dp)]
    mat = np.zeros((d, d), dtype=np.complex128)
    mat[rows, np.arange(d)] = 1.0
    return mat


def random_pm1_observable(rng, layout):
    """A random +-1 observable in mask form: real phases, equal across j and j ^ mask."""
    d = layout.total_dim
    mask = int(rng.integers(d))
    index = np.arange(d)
    phase = rng.choice([1.0, -1.0], size=d)[np.minimum(index, index ^ mask)]
    return Operator.from_mask(layout, mask, phase)


def same_flags(op, dense):
    return (op.is_hermitian, op.is_unitary, op.is_involutory) == (
        dense.is_hermitian, dense.is_unitary, dense.is_involutory)


@pytest.mark.parametrize("width", range(1, 11))
def test_majority_diagonal_matches_the_loop(width):
    from wignerlab.scenario import _majority_diagonal
    phase = _majority_diagonal(width)
    assert [phase(j) for j in range(2**width)] == loop_majority_diagonal(width).tolist()


@pytest.mark.parametrize("width", WIDTHS)
def test_scenario_operators_are_bitwise_the_dense_builders(width):
    model = ScenarioModel(width)
    flip = np.eye(2**width, dtype=np.complex128)[::-1]
    for agent in AGENTS:
        op = model.scenario_observable(agent)
        assert op.mask_form is not None
        if agent in FRIENDS:
            old = np.array(np.diag(loop_majority_diagonal(width)), dtype=np.complex128)
        else:
            old = np.kron(X, flip)
        assert op.matrix.tobytes() == old.tobytes()
        assert same_flags(op, Operator(op.layout, old))
    for agent in FRIENDS:
        spec = model.friend_spec(agent)
        u = spec.unitary()
        assert u.mask_form is None
        old = controlled_flip([1.0, -1.0], 2**width)
        assert u.matrix.tobytes() == old.tobytes()
        assert u.is_unitary


def test_pauli_y_monomial_is_bitwise_dense_y():
    op = Operator.from_mask(qubits("q"), 1, [1j, -1j])
    assert op.matrix.tobytes() == Y.tobytes()
    assert same_flags(op, Operator(qubits("q"), Y))
    assert op.is_hermitian and op.is_unitary and op.is_involutory


def test_monomial_flags_match_dense_on_random_forms():
    rng = np.random.default_rng(11)
    lay = RegisterLayout((("a", 2), ("b", 4)))
    phases = np.array([1.0, -1.0, 1j, -1j, np.exp(0.3j), 0.5])
    seen = set()
    for _ in range(300):
        mask = int(rng.integers(8))
        phase = rng.choice(phases, size=8)
        if rng.random() < 0.5:  # conjugate phases across each pair j, j ^ mask
            for j in range(8):
                if j ^ mask >= j:
                    phase[j ^ mask] = np.conj(phase[j])
                    if j ^ mask == j:
                        phase[j] = rng.choice([1.0, -1.0])
        op = Operator.from_mask(lay, mask, phase)
        dense = Operator(lay, op.matrix)
        assert same_flags(op, dense)
        seen.add((dense.is_hermitian, dense.is_unitary, dense.is_involutory))
    assert len(seen) >= 4  # the draws reach both answers of every flag


def test_monomial_form_guards_and_dense_fallback():
    with pytest.raises(qcore.LayoutMismatchError):
        Operator.from_mask(RegisterLayout((("q", 3),)), 0, [1, 1, 1])
    with pytest.raises(qcore.LayoutMismatchError):
        Operator.from_mask(qubits("q"), 0, [1, 1, 1])
    with pytest.raises(ValueError):
        Operator.from_mask(qubits("q"), 2, [1, 1])
    with pytest.raises(ValueError):
        Operator.from_mask(qubits("q"), -1, [1, 1])
    # A non-mask observable keeps the dense path, and qcore.apply and
    # born_table refuse a sparse state.
    h = Operator(qubits("a"), (X + Z) / np.sqrt(2))
    assert h.mask_form is None
    u = vn_unitary(h, qubits("p"))
    assert u.mask_form is None
    ready = SparseState(qubits("a", "p"), {(0, 0): 1.0})
    with pytest.raises(TypeError):
        qcore.apply(u, ready)
    with pytest.raises(TypeError):
        qcore.born_table([Operator(qubits("a"), Z)], ready)


def test_sparse_state_round_trip_and_guards():
    rng = np.random.default_rng(3)
    lay = RegisterLayout((("a", 2), ("b", 3), ("c", 4)))
    vec = rng.normal(size=24) + 1j * rng.normal(size=24)
    vec[rng.random(24) < 0.5] = 0.0
    dense = qcore.QState(lay, vec / np.linalg.norm(vec))
    sparse = SparseState.from_dense(dense)
    assert len(sparse.entries) == np.count_nonzero(dense.amplitudes)
    assert np.array_equal(sparse.to_dense().amplitudes, dense.amplitudes)
    with pytest.raises(ValueError):
        SparseState(lay, {(0, 0, 0): 2.0})
    with pytest.raises(qcore.LayoutMismatchError):
        SparseState(lay, {(0, 3, 0): 1.0})
    with pytest.raises(qcore.LayoutMismatchError):
        SparseState(lay, {(0, 0): 1.0})
    with pytest.raises(TypeError):
        sparse.entries[(0, 0, 0)] = 1.0
    other = SparseState(qubits("d"), {(1,): 1.0})
    joint = qcore.tensor(sparse, other)
    assert np.array_equal(joint.to_dense().amplitudes,
                          qcore.tensor(dense, other.to_dense()).amplitudes)


def test_sparse_born_table_matches_dense_on_random_monomials():
    rng = np.random.default_rng(17)
    lay = RegisterLayout((("c", 2), ("a", 2), ("b", 4), ("d", 2)))
    supports = (("a",), ("b", "c"), ("d",))
    for _ in range(10):
        vec = rng.normal(size=32) + 1j * rng.normal(size=32)
        vec[rng.random(32) < 0.6] = 0.0
        vec[0] = 1.0
        dense = qcore.QState(lay, vec / np.linalg.norm(vec))
        observables = [Operator.from_mask(lay.subset(["a"]), 1, [1j, -1j])]
        # Disjoint supports, so they commute.
        observables += [random_pm1_observable(rng, lay.subset(support))
                        for support in supports[1:]]
        sparse_table = qcore.born_table(observables, SparseState.from_dense(dense))
        dense_table = qcore.born_table(observables, dense)
        assert list(sparse_table.rows) == list(dense_table.rows)
        for outcome, p in dense_table.rows.items():
            assert abs(sparse_table.rows[outcome] - p) <= TOL


def _random_sparse(rng, layout, zero_share=0.6):
    d = layout.total_dim
    vec = rng.normal(size=d) + 1j * rng.normal(size=d)
    vec[rng.random(d) < zero_share] = 0.0
    vec[0] = 1.0
    dense = qcore.QState(layout, vec / np.linalg.norm(vec))
    return SparseState.from_dense(dense), dense


def test_expectation_and_partial_trace_take_a_sparse_state():
    rng = np.random.default_rng(5)
    lay = RegisterLayout((("a", 2), ("b", 4), ("c", 2)))
    y = Operator.from_mask(lay.subset(["a"]), 1, [1j, -1j])
    swap = Operator.from_mask(lay.subset(["b", "c"]), 7, [1, -1, 1, 1, 1, 1, -1, 1])
    hadamard = Operator(lay.subset(["c"]), (X + Z) / np.sqrt(2))  # dense path
    for _ in range(5):
        sparse, dense = _random_sparse(rng, lay)
        for op in (y, swap, hadamard):
            assert abs(qcore.expectation(op, sparse) - qcore.expectation(op, dense)) <= TOL
        for keep in (["a"], ["b", "c"]):
            assert np.array_equal(qcore.partial_trace(sparse, keep).matrix,
                                  qcore.partial_trace(dense, keep).matrix)


def test_project_and_split_register_match_dense():
    rng = np.random.default_rng(11)
    lay = RegisterLayout((("a", 2), ("b", 3), ("c", 2)))
    y = Operator.from_mask(lay.subset(["a"]), 1, [1j, -1j])
    for _ in range(5):
        sparse, dense = _random_sparse(rng, lay, zero_share=0.3)
        for value in (1, -1):
            fast, p_fast = qcore.project(y, sparse, value)
            slow, p_slow = qcore.project(y, dense, value)
            assert isinstance(fast, SparseState)
            assert abs(p_fast - p_slow) <= TOL
            assert np.max(np.abs(fast.to_dense().amplitudes - slow.amplitudes)) <= TOL
        tens = dense.tensor_view()
        branches = qcore.split_register(sparse, "b")
        slices = [tens[:, j, :] for j in range(3) if np.any(tens[:, j, :])]
        assert len(branches) == len(slices)
        total = np.zeros_like(tens)
        for (weight, branch), piece in zip(branches, slices):
            assert abs(weight - np.vdot(piece, piece).real) <= TOL
            total += np.sqrt(weight) * branch.to_dense().tensor_view()
        assert np.max(np.abs(total - tens)) <= TOL
    with pytest.raises(ValueError):
        qcore.project(y, sparse, 0)
    with pytest.raises(TypeError):
        qcore.split_register(dense, "b")


def test_apply_controlled_matches_the_dense_premeasurement():
    rng = np.random.default_rng(23)
    lay = RegisterLayout((("a", 2), ("b", 2), ("p", 4)))
    pointer = lay.subset(["p"])
    flip = Operator.from_mask(pointer, 3, np.ones(4))
    controls = (Operator.from_mask(lay.subset(["a"]), 1, [1j, -1j]),  # Y
                Operator.from_mask(lay.subset(["a", "b"]), 0, [1, -1, -1, 1]),
                Operator.from_mask(lay.subset(["a", "b"]), 3, [1, -1, -1, 1]))
    for control in controls:
        unitary = vn_unitary(control, pointer)
        for _ in range(3):
            sparse, dense = _random_sparse(rng, lay, zero_share=0.5)
            fast = qcore.apply_controlled(control, flip, sparse)
            slow = qcore.apply(unitary, dense)
            assert isinstance(fast, SparseState)
            assert np.max(np.abs(fast.to_dense().amplitudes - slow.amplitudes)) <= TOL
    with pytest.raises(TypeError):
        qcore.apply_controlled(controls[0], flip, dense)
    with pytest.raises(qcore.LayoutMismatchError):
        qcore.apply_controlled(controls[0], Operator(lay.subset(["a"]), X), sparse)
    twice = Operator.from_mask(lay.subset(["b"]), 0, [2.0, 0.5])
    with pytest.raises(qcore.NotInvolutoryError):
        qcore.apply_controlled(twice, flip, sparse)


def _dense_friend_stage(model):
    state = model.initial_state().to_dense()
    for agent in FRIENDS:
        state = qcore.apply(model.friend_spec(agent).unitary(), state)
    return state


@pytest.mark.parametrize("width", WIDTHS)
def test_friend_stage_and_tables_match_the_dense_oracle(width):
    model = ScenarioModel(width)
    psi = model.post_premeasurement_state()
    assert isinstance(psi, SparseState)
    assert len(psi.entries) == 8
    dense = _dense_friend_stage(model)
    assert np.array_equal(psi.to_dense().amplitudes, dense.amplitudes)
    for agents in tuple(PROTOCOL_CONTEXTS) + (WIGNERS,):
        context = scenario_context(model, agents)
        sparse_table = qcore.born_table(tuple(context.values()), psi)
        dense_table = qcore.born_table(tuple(context.values()), dense)
        for outcome, p in dense_table.rows.items():
            assert abs(sparse_table.rows[outcome] - p) <= TOL


@pytest.mark.parametrize("width", WIDTHS)
def test_pointer_branches_and_diagonality_match_the_dense_oracle(width):
    model = ScenarioModel(width)
    psi = model.post_premeasurement_state()
    dense = psi.to_dense()
    tens = dense.tensor_view()
    for target in ("L1", "L2", "L3"):
        # Oracle: project the dense tensor onto each pointer state of the target.
        ax = dense.layout.axis(target)
        slow = []
        for j in range(tens.shape[ax]):
            branch = np.zeros_like(tens)
            index = (slice(None),) * ax + (j,)
            branch[index] = tens[index]
            weight = float(np.vdot(branch, branch).real)
            if weight > 0.0:
                slow.append((weight, branch.reshape(-1) / np.sqrt(weight)))
        fast = qcore.split_register(psi, target)
        assert len(fast) == len(slow) == 2
        for (w_fast, s_fast), (w_slow, s_slow) in zip(fast, slow):
            assert abs(w_fast - w_slow) <= TOL
            assert np.max(np.abs(s_fast.to_dense().amplitudes - s_slow)) <= TOL
        # Oracle: ((sum m_j)**2 - sum m_j**2)/d over the summed magnitudes.
        m = np.moveaxis(np.abs(tens), ax, 0).reshape(tens.shape[ax], -1).sum(axis=1)
        expected = (m.sum() ** 2 - np.dot(m, m)) / dense.layout.total_dim
        assert abs(pointer_diagonality(psi, target) - expected) <= TOL
        if width <= 2:
            assert abs(pointer_diagonality(psi, target)
                       - pointer_diagonality(qcore.pure_density(dense), target)) <= TOL


@pytest.mark.parametrize("width", [*range(1, 9), MAX_LAB_WIDTH])
def test_support_state_of_psi_is_the_width_one_psi(width):
    psi1 = ScenarioModel(1).post_premeasurement_state()
    psi = ScenarioModel(width).post_premeasurement_state()
    # A lab that read 1 holds all ones.
    assert dict(psi.entries) == {
        tuple(i * (dim - 1) for i, dim in zip(index, psi.layout.shape)): amp
        for index, amp in psi1.entries.items()}
    compact = qcore.support_state(psi)
    assert compact.layout == psi1.layout
    assert dict(compact.entries) == dict(psi1.entries)


@pytest.mark.parametrize("seed", range(5))
def test_support_state_renumbers_each_register_one_to_one(seed):
    rng = np.random.default_rng(seed)
    layout = RegisterLayout((("a", 3), ("b", 4), ("c", 5)))
    tens = rng.normal(size=layout.shape) + 1j * rng.normal(size=layout.shape)
    tens[rng.random(layout.shape) < 0.7] = 0.0
    tens[:, 1, :] = tens[:, :, [0, 3]] = 0.0  # values the state never uses
    tens[2, 3, 4] = 1.0
    state = SparseState.from_dense(qcore.QState(layout, tens / np.linalg.norm(tens)))
    compact = qcore.support_state(state)
    assert compact.layout.labels == layout.labels
    assert compact.layout.dim("b") <= 3 and compact.layout.dim("c") <= 3
    old, new = sorted(state.entries), sorted(compact.entries)
    assert [state.entries[i] for i in old] == [compact.entries[j] for j in new]
    for ax, dim in enumerate(compact.layout.shape):
        # Each used value of the register maps to one new value, in order,
        # and the new values are exactly 0..dim-1.
        pairs = sorted({(i[ax], j[ax]) for i, j in zip(old, new)})
        assert [o for o, _ in pairs] == sorted({i[ax] for i in old})
        assert [n for _, n in pairs] == list(range(dim))


def _dense_erasure(model):
    """The earlier erasure_check, on the dense psi with the dense unitary."""
    post = model.post_premeasurement_state().to_dense()
    record = model.scenario_observable("Alice")
    plus_proj, _ = qcore.spectral_projectors(record)
    probs = {}
    for branch in (1, -1):
        cond, _ = qcore.project(record, post, branch)
        work = extend_with_probe(model, cond, "Eugene")
        work = qcore.apply(model.wigner_spec("Eugene").unitary(), work)
        amp = qcore._apply_to_vector(plus_proj.matrix, plus_proj.layout, work)
        probs[branch] = float(np.real(np.vdot(amp, amp)))
    return probs


@pytest.mark.parametrize("width", WIDTHS)
def test_erasure_check_matches_the_dense_oracle(width):
    model = ScenarioModel(width)
    report = erasure_check(model)
    oracle = _dense_erasure(model)
    assert abs(report.p_plus_given_plus - oracle[1]) <= TOL
    assert abs(report.p_plus_given_minus - oracle[-1]) <= TOL


@pytest.mark.parametrize("width", [1, 2])
def test_sparse_conditioning_and_wigner_stage_match_dense(width):
    model = ScenarioModel(width)
    psi = model.post_premeasurement_state()
    dense = psi.to_dense()
    for agent, value in itertools.product(AGENTS, (1, -1)):
        observable = model.scenario_observable(agent)
        fast, p_fast = qcore.project(observable, psi, value)
        slow, p_slow = qcore.project(observable, dense, value)
        assert abs(p_fast - p_slow) <= TOL
        assert np.max(np.abs(fast.to_dense().amplitudes - slow.amplitudes)) <= TOL
    for order in itertools.permutations(WIGNERS):
        fast = run_wigner_stage(model, psi, order)
        slow = run_wigner_stage(model, dense, order)
        assert isinstance(fast, SparseState)
        assert np.max(np.abs(fast.to_dense().amplitudes - slow.amplitudes)) <= TOL


def test_max_lab_width_builds_no_dense_matrix():
    model = ScenarioModel(MAX_LAB_WIDTH)
    psi = run_friend_stage(model)
    assert len(psi.entries) == 8
    for agents in PROTOCOL_CONTEXTS:
        table = qcore.born_table(tuple(scenario_context(model, agents).values()), psi)
        assert abs(sum(table.rows.values()) - 1.0) <= TOL
    report = erasure_check(model)
    assert abs(report.p_plus_given_plus - 0.5) <= TOL
    assert all(model.scenario_observable(a)._matrix is None for a in AGENTS)


def computed_flags(op):
    """The O(d) flags of the same mask form, read off its phases tabulated."""
    mask, phase = op.mask_form
    fresh = Operator.from_mask(op.layout, mask, [phase(j) for j in range(op.layout.total_dim)])
    return {"hermitian": fresh.is_hermitian, "unitary": fresh.is_unitary,
            "involutory": fresh.is_involutory}


@pytest.mark.parametrize("width", range(1, 13))
def test_scenario_flags_set_at_construction_equal_the_computed_flags(width):
    model = ScenarioModel(width)
    operators = [model.scenario_observable(a) for a in AGENTS]
    for friend in FRIENDS:
        spec = model.friend_spec(friend)
        operators += [spec.observable, _flip(spec.pointer)]
    for op in operators:
        built = dict(op._flags)  # before any flag is read
        assert built == {"hermitian": True, "unitary": True, "involutory": True}
        assert built == computed_flags(op)


def norm(state):
    return float(np.linalg.norm(list(state.entries.values())))


@pytest.mark.parametrize("width", WIDTHS)
def test_trusted_sparse_producers_are_unit_and_match_dense(width):
    model = ScenarioModel(width)
    # tensor: the initial state against the dense Kronecker product.
    ghz = ghz_scenario_state(labels=("a1", "a2", "a3"))
    ready = SparseState(model.layout.subset(["L1", "L2", "L3"]), {(0, 0, 0): 1.0})
    start = qcore.tensor(ghz, ready)
    assert np.array_equal(start.to_dense().amplitudes,
                          qcore.tensor(ghz.to_dense(), ready.to_dense()).amplitudes)
    # apply_controlled: each friend's premeasurement against its dense unitary.
    sparse, dense = start, start.to_dense()
    produced = [start]
    for friend in FRIENDS:
        spec = model.friend_spec(friend)
        sparse, dense = spec.apply(sparse), qcore.apply(spec.unitary(), dense)
        assert np.max(np.abs(sparse.to_dense().amplitudes - dense.amplitudes)) <= TOL
        produced.append(sparse)
    for agent, value in itertools.product(AGENTS, (1, -1)):
        observable = model.scenario_observable(agent)
        # project, against the dense projector.
        fast, _ = qcore.project(observable, sparse, value)
        slow, _ = qcore.project(observable, dense, value)
        assert np.max(np.abs(fast.to_dense().amplitudes - slow.amplitudes)) <= TOL
        produced.append(fast)
    for target in ("L1", "L2", "L3"):
        produced += [branch for _, branch in qcore.split_register(sparse, target)]
    compact = qcore.support_state(sparse)
    assert list(compact.entries.values()) == list(sparse.entries.values())
    for state in produced + [compact]:
        assert abs(norm(state) - 1.0) <= TOL


@pytest.mark.parametrize("width", WIDTHS)
def test_product_expectation_matches_born_tables_on_the_branches(width):
    model = ScenarioModel(width)
    psi = model.post_premeasurement_state()
    for agents, target in itertools.product(PROTOCOL_CONTEXTS, ("L1", "L2", "L3")):
        context = scenario_context(model, agents)
        value, part = qcore.product_expectation(context.values(), psi, target)
        # Oracle: the Born table on psi, and the weighted tables on its branches.
        table = qcore.born_table(context.values(), psi)
        assert abs(value - table.expectation_product()) <= TOL
        branches = sum(w * qcore.born_table(context.values(), branch).expectation_product()
                       for w, branch in qcore.split_register(psi, target))
        assert abs(part - branches) <= TOL
    with pytest.raises(ContextIncompatibleError):
        qcore.product_expectation(scenario_context(model, ("Alice", "Eugene")).values(),
                                  psi, "L1")

"""Mask-form operators and sparse states against the dense oracle.

The scenario's observables and pointer flips are built in mask form, an XOR
mask plus a phase rule, and psi is a ``SparseState``.  A mask form is a monomial
operator, one nonzero per row and per column, and the test names say so.
Every fast result here is compared with ``dense_oracle`` at lab widths up
to 4, at the pinned 1e-12, and the dense matrices with the builders they
replaced, bit for bit.
"""

import itertools

import numpy as np
import pytest

import dense_oracle as oracle
from wignerlab import qcore
from wignerlab.decoherence import pointer_diagonality
from wignerlab.errors import ContextIncompatibleError
from wignerlab.qcore import Operator, RegisterLayout, SparseState, qubits
from wignerlab.stabilizer import ghz_scenario_state
from wignerlab.scenario import (
    AGENTS,
    FRIENDS,
    LAB_INDEX,
    MAX_LAB_WIDTH,
    PROTOCOL_CONTEXTS,
    WIGNERS,
    ScenarioModel,
    _flip,
    erasure_check,
    extend_with_probe,
    lab_label,
    premeasure,
    run_friend_stage,
    scenario_context,
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
    phase = rng.choice([1.0, -1.0], size=d)[np.minimum(index, index ^ mask)].tolist()
    return Operator.from_pauli_mask(layout, mask, phase.__getitem__)


def friend_premeasurement(model, agent):
    """A friend's premeasurement: sigma_z of the atom onto the lab's pointer."""
    return (model.friend_observable(agent),
            model.layout.subset([lab_label(LAB_INDEX[agent])]))


def run_friend_stage_in(model, order):
    """``run_friend_stage`` with the friends' premeasurements in ``order``."""
    state = model.initial_state()
    for agent in order:
        state = premeasure(*friend_premeasurement(model, agent), state)
    return state


def run_wigner_stage(model, state, order=WIGNERS):
    """Each lab measurement of ``order``, its probe adjoined first."""
    for agent in order:
        state = premeasure(model.scenario_observable(agent), model.probe_layout(agent),
                           extend_with_probe(model, state, agent))
    return state


def dense_wigner_stage(model, tens, layout, order=WIGNERS):
    """``run_wigner_stage`` on the oracle's tensor, the probe as a new last axis."""
    for agent in order:
        probe = model.probe_layout(agent)
        ready = np.zeros(probe.shape, dtype=np.complex128)
        ready[0] = 1.0
        layout = layout.concat(probe)
        tens = oracle.premeasure(model.scenario_observable(agent), probe,
                                 np.multiply.outer(tens, ready), layout)
    return tens


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
        if agent in FRIENDS:
            old = np.array(np.diag(loop_majority_diagonal(width)), dtype=np.complex128)
        else:
            old = np.kron(X, flip)
        assert op.matrix.tobytes() == old.tobytes()
    for agent in FRIENDS:
        # The premeasurement, as the oracle applies it to each basis state,
        # is the controlled flip.
        observable, pointer = friend_premeasurement(model, agent)
        layout = observable.layout.concat(pointer)
        d = layout.total_dim
        eye = np.eye(d, dtype=np.complex128).reshape(layout.shape + (d,))
        u = oracle.premeasure(observable, pointer, eye, layout).reshape(d, d)
        assert u.tobytes() == controlled_flip([1.0, -1.0], 2**width).tobytes()


def test_pauli_y_monomial_is_bitwise_dense_y():
    op = Operator.from_pauli_mask(qubits("q"), 1, (1j, -1j).__getitem__)
    assert op.matrix.tobytes() == Y.tobytes()


def test_monomial_flags_match_dense_on_random_forms():
    # The oracle's O(d) flags against its dense ones, on forms of unit phases
    # whose product across each pair j, j ^ mask is one constant c.
    rng = np.random.default_rng(11)
    lay = RegisterLayout((("a", 2), ("b", 4)))
    units = np.array([1.0, -1.0, 1j, -1j, np.exp(0.3j)])
    seen = set()
    for _ in range(300):
        mask = int(rng.integers(8))
        c = units[rng.integers(5)] if mask else rng.choice([1.0, -1.0])
        phase = np.exp(2j * np.pi * rng.random(8))
        for j in range(8):
            if j < j ^ mask:
                phase[j ^ mask] = c / phase[j]
            elif j == j ^ mask:
                phase[j] = np.sqrt(complex(c)) * rng.choice([1.0, -1.0])
        op = Operator.from_pauli_mask(lay, mask, phase.tolist().__getitem__)
        assert oracle.monomial_flags(lay, mask, phase) == oracle.flags(op)
        seen.add(oracle.flags(op)[0])
    assert seen == {True, False}  # the draws reach both answers


def test_monomial_form_guards_and_dense_fallback():
    # Out of 0..1, or no integer: a float mask is not truncated.
    for mask in (2, -1, 1.7, 1.0):
        with pytest.raises(ValueError, match="not an integer"):
            Operator.from_pauli_mask(qubits("q"), mask, lambda j: 1.0)
    assert Operator.from_pauli_mask(qubits("q"), np.int64(1), lambda j: 1.0).mask_form[0] == 1


def test_sparse_state_round_trip_and_guards():
    rng = np.random.default_rng(3)
    lay = RegisterLayout((("a", 2), ("b", 8), ("c", 4)))
    vec = rng.normal(size=64) + 1j * rng.normal(size=64)
    vec[rng.random(64) < 0.5] = 0.0
    dense = (vec / np.linalg.norm(vec)).reshape(lay.shape)
    sparse = oracle.sparse(lay, dense)
    assert len(sparse.entries) == np.count_nonzero(dense)
    # numpy's integer keys are stored as the ints they stand for.
    assert all(type(j) is int for j in sparse.entries)
    assert np.array_equal(oracle.tensor(sparse), dense)
    with pytest.raises(ValueError):
        SparseState(lay, {0: 2.0})
    # Out of 0..63, a register tuple, a float and a float in a tuple are no index.
    for index in (64, -1, (0, 0), 0.7, (True, 1.9)):
        with pytest.raises(qcore.LayoutMismatchError, match="not an integer"):
            SparseState(lay, {index: 1.0})
    with pytest.raises(TypeError):
        sparse.entries[0] = 1.0
    other = SparseState(qubits("d"), {1: 1.0})
    joint = qcore.tensor(sparse, other)
    assert np.array_equal(oracle.tensor(joint),
                          np.multiply.outer(dense, oracle.tensor(other)))


def test_sparse_born_table_matches_dense_on_random_monomials():
    rng = np.random.default_rng(17)
    lay = RegisterLayout((("c", 2), ("a", 2), ("b", 4), ("d", 2)))
    supports = (("a",), ("b", "c"), ("d",))
    for _ in range(10):
        sparse, dense = _random_sparse(rng, lay)
        observables = [Operator.from_pauli_mask(lay.subset(["a"]), 1, (1j, -1j).__getitem__)]
        # Disjoint supports, so they commute.
        observables += [random_pm1_observable(rng, lay.subset(support))
                        for support in supports[1:]]
        sparse_table = qcore.born_table(observables, sparse)
        dense_table = oracle.born_rows(observables, dense, lay)
        assert list(sparse_table.rows) == list(dense_table)
        for outcome, p in dense_table.items():
            assert abs(sparse_table.rows[outcome] - p) <= TOL


def _random_sparse(rng, layout, zero_share=0.6):
    """A random SparseState and its oracle tensor."""
    d = layout.total_dim
    vec = rng.normal(size=d) + 1j * rng.normal(size=d)
    vec[rng.random(d) < zero_share] = 0.0
    vec[0] = 1.0
    dense = (vec / np.linalg.norm(vec)).reshape(layout.shape)
    return oracle.sparse(layout, dense), dense


def test_expectation_and_partial_trace_take_a_sparse_state():
    # product_expectation of one observable, and the reduced matrices of
    # pure_density's entries, against the oracle on the dense tensor.
    rng = np.random.default_rng(5)
    lay = RegisterLayout((("a", 2), ("b", 4), ("c", 2)))
    y = Operator.from_pauli_mask(lay.subset(["a"]), 1, (1j, -1j).__getitem__)
    swap = Operator.from_pauli_mask(lay.subset(["b", "c"]), 7,
                                    (1, -1, 1, 1, 1, 1, -1, 1).__getitem__)
    for _ in range(5):
        sparse, dense = _random_sparse(rng, lay)
        for op in (y, swap):
            value, _ = qcore.product_expectation([op], sparse, "a")
            assert abs(value - oracle.expectation(op, dense, lay)) <= TOL
        vec = dense.reshape(-1)
        rho = oracle.matrix(qcore.pure_density(sparse))
        assert np.max(np.abs(rho - np.outer(vec, vec.conj()))) <= TOL
        for keep in (["a"], ["b", "c"]):
            red = oracle.partial_trace(rho, lay, keep)
            sub = lay.subset(keep)
            a = np.moveaxis(dense, [lay.axis(l) for l in sub.labels],
                            range(len(keep))).reshape(sub.total_dim, -1)
            assert np.max(np.abs(red - a @ a.conj().T)) <= TOL


def test_project_matches_dense():
    rng = np.random.default_rng(11)
    lay = RegisterLayout((("a", 2), ("b", 4), ("c", 2)))
    y = Operator.from_pauli_mask(lay.subset(["a"]), 1, (1j, -1j).__getitem__)
    for _ in range(5):
        sparse, tens = _random_sparse(rng, lay, zero_share=0.3)
        for value in (1, -1):
            fast, p_fast = qcore.project(y, sparse, value)
            slow, p_slow = oracle.project(y, tens, lay, value)
            assert isinstance(fast, SparseState)
            assert abs(p_fast - p_slow) <= TOL
            assert np.max(np.abs(oracle.tensor(fast) - slow)) <= TOL


def test_apply_controlled_matches_the_dense_premeasurement():
    rng = np.random.default_rng(23)
    lay = RegisterLayout((("a", 2), ("b", 2), ("p", 4)))
    pointer = lay.subset(["p"])
    flip = Operator.from_pauli_mask(pointer, 3, lambda j: 1.0)
    controls = (Operator.from_pauli_mask(lay.subset(["a"]), 1, (1j, -1j).__getitem__),  # Y
                Operator.from_pauli_mask(lay.subset(["a", "b"]), 0,
                                         (1, -1, -1, 1).__getitem__),
                Operator.from_pauli_mask(lay.subset(["a", "b"]), 3,
                                         (1, -1, -1, 1).__getitem__))
    cases = [(control, flip) for control in controls]
    # X on a and on p's high bit, Z on p's low bit: a and p are not adjacent,
    # so a mask digit lifted to the wrong stride or a phase read off the
    # wrong digits of j shows; b is its pointer.
    cases.append((Operator.from_pauli_mask(lay.subset(["a", "p"]), 0b110,
                                           (1, -1, 1, -1, 1, -1, 1, -1).__getitem__),
                  Operator.from_pauli_mask(lay.subset(["b"]), 1, lambda j: 1.0)))
    for control, unitary in cases:
        for _ in range(3):
            sparse, dense = _random_sparse(rng, lay, zero_share=0.5)
            fast = qcore.apply_controlled(control, unitary, sparse)
            slow = oracle.premeasure(control, unitary.layout, dense, lay)
            assert isinstance(fast, SparseState)
            assert np.max(np.abs(oracle.tensor(fast) - slow)) <= TOL


def _dense_friend_stage(model):
    state = model.initial_state()
    tens, layout = oracle.tensor(state), state.layout
    for agent in FRIENDS:
        tens = oracle.premeasure(*friend_premeasurement(model, agent), tens, layout)
    return tens


@pytest.mark.parametrize("width", WIDTHS)
def test_friend_stage_and_tables_match_the_dense_oracle(width):
    model = ScenarioModel(width)
    psi = model.post_premeasurement_state()
    assert isinstance(psi, SparseState)
    assert len(psi.entries) == 8
    dense = _dense_friend_stage(model)
    assert np.array_equal(oracle.tensor(psi), dense)
    for agents in tuple(PROTOCOL_CONTEXTS) + (WIGNERS,):
        context = scenario_context(model, agents)
        sparse_table = qcore.born_table(tuple(context.values()), psi)
        dense_table = oracle.born_rows(tuple(context.values()), dense, psi.layout)
        for outcome, p in dense_table.items():
            assert abs(sparse_table.rows[outcome] - p) <= TOL


def dense_branches(tens, layout, target):
    """(w_j, psi_j) for each pointer state j of ``target`` with w_j > 0: the
    dense tensor projected onto it, w_j its squared norm, psi_j renormalized."""
    ax = layout.axis(target)
    out = []
    for j in range(tens.shape[ax]):
        branch = np.zeros_like(tens)
        index = (slice(None),) * ax + (j,)
        branch[index] = tens[index]
        weight = float(np.vdot(branch, branch).real)
        if weight > 0.0:
            out.append((weight, branch / np.sqrt(weight)))
    return out


@pytest.mark.parametrize("width", WIDTHS)
def test_pointer_branches_and_diagonality_match_the_dense_oracle(width):
    model = ScenarioModel(width)
    psi = model.post_premeasurement_state()
    tens = oracle.tensor(psi)
    for target in ("L1", "L2", "L3"):
        branches = dense_branches(tens, psi.layout, target)
        assert len(branches) == 2
        assert abs(sum(w for w, _ in branches) - 1.0) <= TOL
        # Oracle: ((sum m_j)**2 - sum m_j**2)/d over each branch's summed
        # magnitudes m_j, as |psi><psi|'s entries are |c_a||c_b|.
        m = np.array([np.sqrt(w) * np.abs(branch).sum() for w, branch in branches])
        expected = (m.sum() ** 2 - np.dot(m, m)) / psi.layout.total_dim
        assert abs(pointer_diagonality(psi, target) - expected) <= TOL
        if width <= 2:
            vec = tens.reshape(-1)
            assert abs(pointer_diagonality(psi, target) - oracle.pointer_diagonality(
                np.outer(vec, vec.conj()), psi.layout, target)) <= TOL


@pytest.mark.parametrize("width", [*range(1, 9), MAX_LAB_WIDTH])
def test_support_state_of_psi_is_the_width_one_psi(width):
    # psi on its support is width-1 psi: the same 8 amplitudes in the same
    # order, with each lab that read 1 holding all ones, 2**width - 1.
    psi1 = ScenarioModel(1).post_premeasurement_state()
    psi = ScenarioModel(width).post_premeasurement_state()
    widened = {}
    for j, amp in psi1.entries.items():
        k = 0
        for label, dim in psi.layout.sites:
            k = k * dim + psi1.layout.digit(label)(j) * (dim - 1)
        widened[k] = amp
    assert dict(psi.entries) == widened
    assert list(psi.entries.values()) == list(psi1.entries.values())


def _dense_erasure(model):
    """The earlier erasure_check, on the oracle's dense psi."""
    psi = model.post_premeasurement_state()
    record = model.scenario_observable("Alice")
    probs = {}
    for branch in (1, -1):
        cond, _ = oracle.project(record, oracle.tensor(psi), psi.layout, branch)
        work = dense_wigner_stage(model, cond, psi.layout, ["Eugene"])
        layout = psi.layout.concat(model.probe_layout("Eugene"))
        probs[branch] = oracle.born_rows([record], work, layout)[(1,)]
    return probs


@pytest.mark.parametrize("width", WIDTHS)
def test_erasure_check_matches_the_dense_oracle(width):
    model = ScenarioModel(width)
    report = erasure_check(model)
    oracle_probs = _dense_erasure(model)
    assert abs(report.p_plus_given_plus - oracle_probs[1]) <= TOL
    assert abs(report.p_plus_given_minus - oracle_probs[-1]) <= TOL


@pytest.mark.parametrize("width", [1, 2])
def test_sparse_conditioning_and_wigner_stage_match_dense(width):
    model = ScenarioModel(width)
    psi = model.post_premeasurement_state()
    dense = oracle.tensor(psi)
    for agent, value in itertools.product(AGENTS, (1, -1)):
        observable = model.scenario_observable(agent)
        fast, p_fast = qcore.project(observable, psi, value)
        slow, p_slow = oracle.project(observable, dense, psi.layout, value)
        assert abs(p_fast - p_slow) <= TOL
        assert np.max(np.abs(oracle.tensor(fast) - slow)) <= TOL
    for order in itertools.permutations(WIGNERS):
        fast = run_wigner_stage(model, psi, order)
        slow = dense_wigner_stage(model, dense, psi.layout, order)
        assert isinstance(fast, SparseState)
        assert np.max(np.abs(oracle.tensor(fast) - slow)) <= TOL


def test_max_lab_width_builds_no_dense_matrix(monkeypatch):
    monkeypatch.setattr(Operator, "matrix", property(lambda op: pytest.fail("matrix built")))
    model = ScenarioModel(MAX_LAB_WIDTH)
    psi = run_friend_stage(model)
    assert len(psi.entries) == 8
    for agents in PROTOCOL_CONTEXTS:
        table = qcore.born_table(tuple(scenario_context(model, agents).values()), psi)
        assert abs(sum(table.rows.values()) - 1.0) <= TOL
    report = erasure_check(model)
    assert abs(report.p_plus_given_plus - 0.5) <= TOL


def computed_flags(op):
    """The O(d) flags of the same mask form, read off its phases tabulated."""
    mask, phase = op.mask_form
    hermitian, unitary, involutory = oracle.monomial_flags(
        op.layout, mask, [phase(j) for j in range(op.layout.total_dim)])
    return {"hermitian": hermitian, "unitary": unitary, "involutory": involutory}


@pytest.mark.parametrize("width", range(1, 13))
def test_scenario_flags_set_at_construction_equal_the_computed_flags(width):
    model = ScenarioModel(width)
    operators = [model.scenario_observable(a) for a in AGENTS]
    for friend in FRIENDS:
        observable, pointer = friend_premeasurement(model, friend)
        operators += [observable, _flip(pointer)]
    for op in operators:
        assert computed_flags(op) == {"hermitian": True, "unitary": True, "involutory": True}


def norm(state):
    return float(np.linalg.norm(list(state.entries.values())))


@pytest.mark.parametrize("width", WIDTHS)
def test_trusted_sparse_producers_are_unit_and_match_dense(width):
    model = ScenarioModel(width)
    # tensor: the initial state against the dense Kronecker product.
    ghz = ghz_scenario_state(labels=("a1", "a2", "a3"))
    ready = SparseState(model.layout.subset(["L1", "L2", "L3"]), {0: 1.0})
    start = qcore.tensor(ghz, ready)
    assert np.array_equal(oracle.tensor(start),
                          np.multiply.outer(oracle.tensor(ghz), oracle.tensor(ready)))
    # apply_controlled: each friend's premeasurement against the oracle's.
    sparse, dense = start, oracle.tensor(start)
    produced = [start]
    for friend in FRIENDS:
        observable, pointer = friend_premeasurement(model, friend)
        sparse = premeasure(observable, pointer, sparse)
        dense = oracle.premeasure(observable, pointer, dense, model.layout)
        assert np.max(np.abs(oracle.tensor(sparse) - dense)) <= TOL
        produced.append(sparse)
    for agent, value in itertools.product(AGENTS, (1, -1)):
        observable = model.scenario_observable(agent)
        # project, against the dense projector.
        fast, _ = qcore.project(observable, sparse, value)
        slow, _ = oracle.project(observable, dense, model.layout, value)
        assert np.max(np.abs(oracle.tensor(fast) - slow)) <= TOL
        produced.append(fast)
    for state in produced:
        assert abs(norm(state) - 1.0) <= TOL


def row_product(table) -> float:
    """The expectation of the product of a table's outcomes, read off its rows."""
    return sum(np.prod(outcome) * p for outcome, p in table.rows.items())


@pytest.mark.parametrize("width", WIDTHS)
def test_product_expectation_matches_born_tables_on_the_branches(width):
    model = ScenarioModel(width)
    psi = model.post_premeasurement_state()
    tens = oracle.tensor(psi)
    for agents, target in itertools.product(PROTOCOL_CONTEXTS, ("L1", "L2", "L3")):
        context = scenario_context(model, agents)
        value, part = qcore.product_expectation(context.values(), psi, target)
        # Oracle: the Born table on psi, and the weighted tables on its
        # branches, the dense tensor's slices.
        assert abs(value - row_product(qcore.born_table(context.values(), psi))) <= TOL
        branches = sum(w * row_product(qcore.born_table(context.values(),
                                                        oracle.sparse(psi.layout, branch)))
                       for w, branch in dense_branches(tens, psi.layout, target))
        assert abs(part - branches) <= TOL
    with pytest.raises(ContextIncompatibleError):
        qcore.product_expectation(scenario_context(model, ("Alice", "Eugene")).values(),
                                  psi, "L1")

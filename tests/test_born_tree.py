"""born_table's outcome-tree walk against two oracles.

The dense oracle builds every projector product on the full space with
``embed``; the per-row oracle is the earlier implementation, which rebuilt
the chain of (I +- O)/2 products for each row separately.  For the
scenario's and the Pauli tables the tree must agree with the per-row chain
bit for bit, since their observables are monomial with entries in
{0, +-1, +-i}.
"""

import itertools

import numpy as np
import pytest

from wignerlab import qcore
from wignerlab.qcore import (
    DensityMatrix,
    Operator,
    QState,
    RegisterLayout,
    born_table,
    embed,
    pure_density,
)
from wignerlab.scenario import PROTOCOL_CONTEXTS, ScenarioModel, scenario_context
from wignerlab.stabilizer import joint_eigenstate, parse_pauli, to_operator


def per_row_chain_rows(observables, state):
    """The earlier born_table body: one projector chain per row, k * 2**k contractions."""
    layout = state.layout

    def contract(matrix, arr, axes):
        k = len(axes)
        dims = [layout.shape[a] for a in axes]
        out = np.tensordot(matrix.reshape(dims + dims), arr,
                           axes=(list(range(k, 2 * k)), axes))
        return np.moveaxis(out, list(range(k)), axes)

    projectors = []
    for o in observables:
        eye = np.eye(o.layout.total_dim, dtype=np.complex128)
        projectors.append({1: (eye + o.matrix) / 2.0, -1: (eye - o.matrix) / 2.0})
    rows = {}
    for outcome in itertools.product((1, -1), repeat=len(observables)):
        if isinstance(state, QState):
            vec = state.amplitudes
            for o, proj, s in zip(observables, projectors, outcome):
                axes = qcore._check_sublayout(o.layout, layout)
                vec = contract(proj[s], vec.reshape(layout.shape), axes).reshape(-1)
            rows[outcome] = float(np.real(np.vdot(vec, vec)))
        else:
            d = layout.total_dim
            mat = state.matrix
            for o, proj, s in zip(observables, projectors, outcome):
                axes = qcore._check_sublayout(o.layout, layout)
                mat = contract(proj[s], mat.reshape(layout.shape + (d,)), axes).reshape(d, d)
            rows[outcome] = float(np.real(np.trace(mat)))
    return rows


def dense_oracle_rows(observables, state):
    """Each row from the full-space projector product built with ``embed``."""
    layout = state.layout
    d = layout.total_dim
    full = [embed(o, layout).matrix for o in observables]
    rows = {}
    for outcome in itertools.product((1, -1), repeat=len(observables)):
        proj = np.eye(d, dtype=np.complex128)
        for m, s in zip(full, outcome):
            proj = proj @ ((np.eye(d) + s * m) / 2.0)
        if isinstance(state, QState):
            rows[outcome] = float(np.real(state.amplitudes.conj() @ proj @ state.amplitudes))
        else:
            rows[outcome] = float(np.real(np.trace(proj @ state.matrix)))
    return rows


def _random_unitary(rng, d):
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(raw)
    return q


# Mixed dimensions, in an order no operator below uses.
_LAYOUT = RegisterLayout((("c", 2), ("a", 2), ("b", 3), ("d", 2)))
# Supports overlap on registers and list them in orders of their own.
_SUPPORTS = (("a", "b"), ("b", "c"), ("d",), ("c", "a", "d"))


def _commuting_involutions(rng, k):
    """k non-monomial observables diagonal in one random product basis.

    Each is R D R^dagger on its support, with R the tensor product of fixed
    random single-register unitaries and D a random +-1 diagonal, so all
    of them commute although their supports overlap.
    """
    rotations = {label: _random_unitary(rng, dim) for label, dim in _LAYOUT.sites}
    out = []
    for support in _SUPPORTS[:k]:
        sub = RegisterLayout(tuple((l, _LAYOUT.dim(l)) for l in support))
        r = np.array([[1.0 + 0j]])
        for label in support:
            r = np.kron(r, rotations[label])
        signs = rng.choice([1.0, -1.0], size=sub.total_dim)
        signs[0], signs[-1] = 1.0, -1.0  # neither +I nor -I
        out.append(Operator(sub, r @ np.diag(signs) @ r.conj().T))
    return out


def _random_state(rng):
    d = _LAYOUT.total_dim
    raw = rng.normal(size=d) + 1j * rng.normal(size=d)
    return QState(_LAYOUT, raw / np.linalg.norm(raw))


def _random_density(rng):
    d = _LAYOUT.total_dim
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = raw @ raw.conj().T
    return DensityMatrix(_LAYOUT, rho / np.trace(rho).real)


@pytest.mark.parametrize("kind", ["pure", "mixed"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_tree_matches_dense_projector_oracle(seed, k, kind):
    rng = np.random.default_rng(100 * seed + 10 * k + (kind == "mixed"))
    observables = _commuting_involutions(rng, k)
    assert all(np.count_nonzero(np.abs(o.matrix) > 1e-9) > o.layout.total_dim
               for o in observables)  # not monomial
    state = _random_state(rng) if kind == "pure" else _random_density(rng)
    table = born_table(observables, state)
    assert list(table.rows) == list(itertools.product((1, -1), repeat=k))
    oracle = dense_oracle_rows(observables, state)
    for outcome, p in table.rows.items():
        assert abs(p - oracle[outcome]) <= 1e-12


def _paradox_contexts(model):
    return [scenario_context(model, agents)
            for agents in PROTOCOL_CONTEXTS]


@pytest.mark.parametrize("width", [1, 2, 3])
def test_tree_is_bitwise_the_per_row_chain_on_paradox_contexts(width):
    model = ScenarioModel(width)
    psi = model.post_premeasurement_state().to_dense()
    for context in _paradox_contexts(model):
        observables = tuple(context.values())
        rows = born_table(observables, psi).rows
        assert rows == per_row_chain_rows(observables, psi)
        assert list(rows) == list(itertools.product((1, -1), repeat=3))


def test_tree_is_bitwise_the_per_row_chain_on_density_matrices():
    model = ScenarioModel(1)
    psi = model.post_premeasurement_state().to_dense()
    rng = np.random.default_rng(5)
    d = psi.layout.total_dim
    raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    mixed = raw @ raw.conj().T
    for rho in (pure_density(psi),
                DensityMatrix(psi.layout, mixed / np.trace(mixed).real)):
        for context in _paradox_contexts(model):
            observables = tuple(context.values())
            assert born_table(observables, rho).rows == per_row_chain_rows(observables, rho)


def _ghz_contexts(labels):
    def single(letter, who):
        return to_operator(parse_pauli(letter), (labels[who],))

    yield tuple(single("Y", i) for i in range(3))
    yield tuple(single("X", i) for i in range(3))
    for who in range(3):
        yield tuple(single("X" if i == who else "Z", i) for i in range(3))


@pytest.mark.parametrize("generators", [("+XZZ", "+ZXZ", "+ZZX"),
                                        ("-XZZ", "+ZXZ", "-ZZX")])
def test_tree_is_bitwise_the_per_row_chain_on_ghz_tables(generators):
    state = joint_eigenstate(tuple(parse_pauli(g) for g in generators)).to_dense()
    for observables in _ghz_contexts(state.layout.labels):
        assert born_table(observables, state).rows == per_row_chain_rows(observables, state)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_tree_makes_one_contraction_per_inner_node(monkeypatch, k):
    calls = []
    original = qcore._contract

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(qcore, "_contract", counting)
    rng = np.random.default_rng(k)
    born_table(_commuting_involutions(rng, k), _random_state(rng))
    assert len(calls) == 2 ** k - 1  # the per-row chain made k * 2**k


@pytest.mark.parametrize("axes", [[0], [2], [3], [1, 2], [3, 0], [2, 0, 3]])
@pytest.mark.parametrize("trailing", [(), (5,)])
def test_contract_output_is_contiguous_and_equals_moveaxis_tensordot(axes, trailing):
    rng = np.random.default_rng(len(axes) + len(trailing))
    shape = _LAYOUT.shape + trailing
    arr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    dims = [_LAYOUT.shape[a] for a in axes]
    m = int(np.prod(dims))
    matrix = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    got = qcore._contract(matrix, arr, _LAYOUT, axes)
    k = len(axes)
    expected = np.moveaxis(
        np.tensordot(matrix.reshape(dims + dims), arr, axes=(list(range(k, 2 * k)), axes)),
        list(range(k)), axes)
    assert got.flags.c_contiguous
    assert got.shape == shape
    assert np.array_equal(got, expected)

"""born_table's outcome-tree walk against the dense oracle.

The oracle, ``dense_oracle.born_rows``, is the earlier implementation: it
rebuilds the chain of (I +- O)/2 products for each row separately, k * 2**k
contractions on the state tensor.  For the scenario's and the Pauli tables
the tree must agree with the per-row chain to the pinned 1e-12, since their
observables are monomial with entries in {0, +-1, +-i}.
"""

import itertools

import numpy as np
import pytest

import dense_oracle as oracle
from wignerlab import qcore
from wignerlab.qcore import Operator, RegisterLayout, born_table
from wignerlab.scenario import PROTOCOL_CONTEXTS, ScenarioModel, scenario_context
from wignerlab.stabilizer import joint_eigenstate, parse_pauli, to_operator

TOL = 1e-12

# Mixed dimensions, in an order no operator below uses.
_LAYOUT = RegisterLayout((("c", 2), ("a", 2), ("b", 4), ("d", 2)))
# Supports overlap on registers and list them in orders of their own.
_SUPPORTS = (("a", "b"), ("b", "c"), ("d",), ("c", "a", "d"))


def _pm1_observable(rng, layout):
    """A random +-1 mask form: real signs, equal across j and j ^ mask."""
    d = layout.total_dim
    mask = int(rng.integers(d))
    signs = rng.choice([1.0, -1.0], size=d).tolist()
    return Operator.from_pauli_mask(layout, mask, lambda j: signs[min(j, j ^ mask)])


def _commuting_involutions(rng, k):
    """k random +-1 mask forms on overlapping supports, each drawn again
    until it commutes with those before it (by the oracle's commutator)."""
    out = []
    for support in _SUPPORTS[:k]:
        sub = RegisterLayout(tuple((label, dict(_LAYOUT.sites)[label]) for label in support))
        op = _pm1_observable(rng, sub)
        while not all(oracle.commutes(op, other) for other in out):
            op = _pm1_observable(rng, sub)
        out.append(op)
    return out


def _random_state(rng):
    raw = rng.normal(size=_LAYOUT.shape) + 1j * rng.normal(size=_LAYOUT.shape)
    return oracle.sparse(_LAYOUT, raw / np.linalg.norm(raw))


@pytest.mark.parametrize("kind", ["pure", "mixed"])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", range(3))
def test_tree_matches_dense_projector_oracle(seed, k, kind):
    # A mixed state enters as its pure components: the tree's rows, weighted,
    # against the oracle's Tr(P rho) on the mixture's d x d matrix.
    rng = np.random.default_rng(100 * seed + 10 * k + (kind == "mixed"))
    observables = _commuting_involutions(rng, k)
    states = [_random_state(rng) for _ in range(3 if kind == "mixed" else 1)]
    weights = rng.dirichlet(np.ones(len(states)))
    tables = [born_table(observables, s) for s in states]
    assert all(list(t.rows) == list(itertools.product((1, -1), repeat=k)) for t in tables)
    rho = sum(w * oracle.matrix(qcore.pure_density(s)) for w, s in zip(weights, states))
    expected = oracle.born_rows(observables, rho, _LAYOUT)
    for outcome in expected:
        got = sum(w * t.rows[outcome] for w, t in zip(weights, tables))
        assert abs(got - expected[outcome]) <= TOL


def _paradox_contexts(model):
    return [scenario_context(model, agents)
            for agents in PROTOCOL_CONTEXTS]


@pytest.mark.parametrize("width", [1, 2, 3])
def test_tree_is_bitwise_the_per_row_chain_on_paradox_contexts(width):
    model = ScenarioModel(width)
    psi = model.post_premeasurement_state()
    for context in _paradox_contexts(model):
        observables = tuple(context.values())
        rows = born_table(observables, psi).rows
        assert rows == oracle.born_rows(observables, oracle.tensor(psi), psi.layout)
        assert list(rows) == list(itertools.product((1, -1), repeat=3))


def test_tree_is_bitwise_the_per_row_chain_on_density_matrices():
    model = ScenarioModel(1)
    psi = model.post_premeasurement_state()
    rho = oracle.matrix(qcore.pure_density(psi))
    for context in _paradox_contexts(model):
        observables = tuple(context.values())
        assert born_table(observables, psi).rows == oracle.born_rows(observables, rho,
                                                                     psi.layout)


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
    state = joint_eigenstate(tuple(parse_pauli(g) for g in generators))
    for observables in _ghz_contexts(state.layout.labels):
        assert born_table(observables, state).rows == oracle.born_rows(
            observables, oracle.tensor(state), state.layout)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_tree_makes_one_contraction_per_inner_node(monkeypatch, k):
    calls = []
    original = qcore._sparse_contract

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(qcore, "_sparse_contract", counting)
    rng = np.random.default_rng(k)
    born_table(_commuting_involutions(rng, k), _random_state(rng))
    assert len(calls) == 2 ** k - 1  # the per-row chain made k * 2**k

import itertools
import math
import random

import numpy as np
import pytest

import dense_oracle as oracle
from wignerlab import qcore
from wignerlab.errors import (
    ContextIncompatibleError,
    LabelClashError,
    LayoutMismatchError,
    UnknownLabelError,
)
from wignerlab.qcore import (
    BornTable,
    Operator,
    RegisterLayout,
    SparseState,
    born_table,
    commutes,
    embed,
    pure_density,
    qubits,
    tensor,
)
from wignerlab.scenario import AGENTS, ScenarioModel
from wignerlab.stabilizer import PauliString, parse_pauli, pauli_commutes, to_operator

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def kron(*mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def pauli(word, *labels):
    return to_operator(parse_pauli(word), labels)


def random_state(rng, layout):
    raw = rng.normal(size=layout.shape) + 1j * rng.normal(size=layout.shape)
    return oracle.sparse(layout, raw / np.linalg.norm(raw))


def test_layout_basics():
    lay = RegisterLayout((("a", 2), ("b", 4), ("c", 2)))
    assert lay.labels == ("a", "b", "c")
    assert lay.shape == (2, 4, 2)
    assert lay.total_dim == 16
    assert lay.axis("b") == 1
    assert dict(lay.sites)["b"] == 4
    assert lay.subset(["c", "a"]).labels == ("a", "c")
    # Each register's digit of j is its index in the row-major unravel of j.
    for j in range(lay.total_dim):
        assert tuple(lay.digit(l)(j) for l in lay.labels) == np.unravel_index(j, lay.shape)


def test_layout_rejects_dimensions_off_powers_of_two():
    # A register is a bit field, so only a power of two is a dimension.
    for dim in (0, 3, 6):
        with pytest.raises(ValueError, match=f"register 't' has invalid dimension {dim}"):
            RegisterLayout((("a", 2), ("t", dim)))
    assert RegisterLayout((("t", 1),)).total_dim == 1


def test_layout_label_clash():
    with pytest.raises(LabelClashError):
        RegisterLayout((("a", 2), ("a", 2)))
    with pytest.raises(LabelClashError):
        qubits("a", "b").concat(qubits("b"))


def test_layout_unknown_label():
    lay = qubits("a", "b")
    with pytest.raises(UnknownLabelError):
        lay.axis("z")
    with pytest.raises(UnknownLabelError):
        lay.subset(["a", "z"])


def test_state_norm_guard():
    lay = qubits("a")
    with pytest.raises(ValueError):
        SparseState(lay, {0: 1.0, 1: 1.0})
    SparseState(lay, {0: 1 / np.sqrt(2), 1: 1 / np.sqrt(2)})


def test_state_is_immutable():
    s = SparseState(qubits("a"), {0: 1.0})
    with pytest.raises(TypeError):
        s.entries[0] = 0.0


def test_apply_on_sublayout():
    # A premeasurement on (b, p) of a state on (a, b, p, c); the oracle is
    # its matrix on (b, p), explicitly embedded by kron.
    lay = qubits("a", "b", "p", "c")
    rng = np.random.default_rng(7)
    s = random_state(rng, lay)
    sub = qubits("b", "p")
    eye = np.eye(4, dtype=complex).reshape(2, 2, 4)
    u = oracle.premeasure(pauli("+Y", "b"), qubits("p"), eye, sub).reshape(4, 4)
    got = qcore.apply_controlled(pauli("+Y", "b"), pauli("+X", "p"), s)
    expected = kron(I2, u, I2) @ oracle.tensor(s).reshape(-1)
    assert np.max(np.abs(oracle.tensor(got).reshape(-1) - expected)) <= 1e-12


def test_apply_rejects_unknown_register():
    with pytest.raises(LayoutMismatchError):
        qcore.apply_controlled(pauli("+Z", "a"), pauli("+X", "z"),
                               SparseState(qubits("a"), {0: 1.0}))


def test_apply_rejects_dimension_clash():
    four = Operator.from_pauli_mask(RegisterLayout((("a", 4),)), 3, lambda j: 1.0)
    ready = SparseState(qubits("a", "p"), {0: 1.0})
    with pytest.raises(LayoutMismatchError):
        qcore.apply_controlled(four, pauli("+X", "p"), ready)


def bell_state():
    return SparseState(qubits("q1", "q2"), {0b00: 1 / np.sqrt(2), 0b11: 1 / np.sqrt(2)})


def test_expectation_bell_zz():
    value, _ = qcore.product_expectation([pauli("+Z", "q1"), pauli("+Z", "q2")],
                                         bell_state(), "q1")
    assert abs(value - 1.0) <= 1e-12


def ghz():
    return SparseState(qubits("q1", "q2", "q3"), {0b000: 1 / np.sqrt(2), 0b111: 1 / np.sqrt(2)})


def test_partial_trace_ghz_single_qubit():
    # Oracle: explicit outer product and axis sum, against the reduced
    # matrix of pure_density's entries.
    amp = oracle.tensor(ghz()).reshape(-1)
    full = np.outer(amp, amp.conj()).reshape(2, 2, 2, 2, 2, 2)
    expected = np.einsum("iabjab->ij", full)
    red = oracle.partial_trace(oracle.matrix(pure_density(ghz())), ghz().layout, ["q1"])
    assert np.max(np.abs(red - expected)) <= 1e-12
    assert np.max(np.abs(red - I2 / 2)) <= 1e-12


def test_partial_trace_of_density_matrix_matches_vector_path():
    lay = qubits("a", "b", "c")
    s = random_state(np.random.default_rng(3), lay)
    tens = oracle.tensor(s)
    # Vector path: the kept axes first, A A^dagger.
    a = tens.transpose(0, 2, 1).reshape(4, 2)
    via_rho = oracle.partial_trace(oracle.matrix(pure_density(s)), lay, ["a", "c"])
    assert np.max(np.abs(a @ a.conj().T - via_rho)) <= 1e-12


def test_partial_trace_preserves_trace():
    lay = qubits("a", "b")
    s = random_state(np.random.default_rng(11), lay)
    red = oracle.partial_trace(oracle.matrix(pure_density(s)), lay, ["b"])
    assert abs(np.trace(red) - 1.0) <= 1e-12


def test_commutes_basic():
    a = pauli("+X", "q1")
    assert commutes(a, pauli("+Z", "q2"))
    assert not commutes(a, pauli("+Z", "q1"))


def test_commutes_overlapping_supports():
    # X on (a,b) block vs Z on b alone: embedded oracle on the union.
    zb = pauli("+Z", "b")
    assert not commutes(pauli("+XX", "a", "b"), zb)
    assert commutes(pauli("+ZZ", "a", "b"), zb)


def _random_operator(rng, layout):
    """A mask form with a random mask and random unit phases: neither
    hermitian nor involutory in general, and its flags are not read."""
    d = layout.total_dim
    phases = np.exp(2j * np.pi * rng.random(d)).tolist()
    return Operator.from_pauli_mask(layout, int(rng.integers(d)), phases.__getitem__)


@pytest.mark.parametrize("seed", range(4))
def test_commutes_disjoint_supports_matches_embed_oracle(seed):
    # Random operators on disjoint registers of mixed dimensions.  The dense
    # oracle on a permuted union layout finds the commutator exactly zero,
    # which commutes() returns without forming it.
    rng = np.random.default_rng(seed)
    a = _random_operator(rng, RegisterLayout((("p", 4), ("q", 2))))
    b = _random_operator(rng, RegisterLayout((("s", 4), ("r", 2))))
    assert not oracle.flags(a)[0] and not oracle.flags(b)[0]
    sites = a.layout.sites + b.layout.sites
    union = RegisterLayout(tuple(sites[i] for i in rng.permutation(len(sites))))
    am, bm = oracle.full(a, union), oracle.full(b, union)
    assert np.max(np.abs(am @ bm - bm @ am)) == 0.0
    assert commutes(a, b) and commutes(b, a)


def test_commutes_rejects_shared_label_with_other_dimension():
    a = pauli("+XZ", "p", "q")
    b = Operator.from_pauli_mask(RegisterLayout((("q", 4), ("r", 2))), 0, lambda j: 1.0)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(LayoutMismatchError, match="'q'"):
            commutes(x, y)


def test_embed_matches_kron_oracle():
    lay = qubits("a", "b")
    assert np.max(np.abs(embed(pauli("+X", "b"), lay).matrix - kron(I2, X))) <= 1e-12
    assert np.max(np.abs(embed(pauli("+Y", "a"), lay).matrix - kron(Y, I2))) <= 1e-12


def test_embed_permuted_two_site_operator():
    # A controlled Z given on (c, a) of an (a, b, c) layout.
    lay = qubits("a", "b", "c")
    op = Operator.from_pauli_mask(qubits("c", "a"), 0, lambda j: -1.0 if j == 3 else 1.0)
    got = embed(op, lay).matrix
    # Oracle: diagonal with -1 exactly when a=1 and c=1.
    diag = np.ones(8, dtype=complex)
    for idx in range(8):
        a_bit, _, c_bit = (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
        if a_bit and c_bit:
            diag[idx] = -1
    assert np.max(np.abs(got - np.diag(diag))) <= 1e-12


def _scenario_pairs(width):
    model = ScenarioModel(width)
    return [(model.scenario_observable(x), model.scenario_observable(y))
            for x, y in itertools.combinations(AGENTS, 2)]


def _seeded_word_pairs(seed, count=40):
    """Pairs of signed Pauli words on random subsets of five qubits."""
    rng = random.Random(seed)
    labels = ("q1", "q2", "q3", "q4", "q5")
    pairs = []
    for _ in range(count):
        words = []
        for _ in range(2):
            on = rng.sample(labels, rng.randint(1, 4))
            word = parse_pauli(rng.choice(("+", "-", "+i", "-i")) + "".join(
                rng.choice("IXYZ") for _ in on))
            words.append((word, to_operator(word, on)))
        pairs.append(tuple(words))
    return pairs


def _assert_mask_embedding_is_the_dense_one(op, layout):
    got = embed(op, layout)
    assert np.array_equal(got.matrix, oracle.full(op, layout))


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_mask_embed_matches_the_dense_embedding_on_scenario_unions(width):
    for a, b in _scenario_pairs(width):
        for op in (a, b):
            _assert_mask_embedding_is_the_dense_one(op, oracle.union(a, b))


@pytest.mark.parametrize("seed", range(3))
def test_mask_embed_matches_the_dense_embedding_for_seeded_words(seed):
    layout = qubits("q3", "q1", "q5", "q2", "q4")
    for (_, a), (_, b) in _seeded_word_pairs(seed):
        for op in (a, b):
            _assert_mask_embedding_is_the_dense_one(op, layout)
            _assert_mask_embedding_is_the_dense_one(op, oracle.union(a, b))


def test_mask_embed_keeps_wider_registers():
    # A phase rule over a dimension-4 register, lifted between wider ones.
    phases = [1, -1, 1j, -1j, -1, 1, 1j, 1j]
    op = Operator.from_pauli_mask(RegisterLayout((("p", 4), ("a", 2))), 0b110,
                                  phases.__getitem__)
    _assert_mask_embedding_is_the_dense_one(
        op, RegisterLayout((("b", 2), ("a", 2), ("c", 4), ("p", 4))))


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_commutes_matches_the_dense_verdict_on_scenario_pairs(width):
    pairs = _scenario_pairs(width)
    verdicts = [commutes(a, b) for a, b in pairs]
    assert verdicts == [oracle.commutes(a, b) for a, b in pairs]
    assert verdicts.count(False) == 3


@pytest.mark.parametrize("seed", range(3))
def test_commutes_matches_the_dense_verdict_for_seeded_words(seed):
    for (pa, a), (pb, b) in _seeded_word_pairs(seed):
        verdict = commutes(a, b)
        assert verdict is oracle.commutes(a, b)
        # The symplectic rule on the words padded to the union.
        labels = oracle.union(a, b).labels
        padded = [PauliString(p.phase_exp, "".join(
            dict(zip(op.layout.labels, p.letters)).get(label, "I") for label in labels))
                  for p, op in ((pa, a), (pb, b))]
        assert verdict is pauli_commutes(*padded)


def test_commuting_overlapping_mask_forms_are_decided_with_no_matrix(monkeypatch):
    built = []
    matrix = Operator.matrix.fget
    monkeypatch.setattr(Operator, "matrix",
                        property(lambda op: built.append(op.layout.labels) or matrix(op)))
    zz = pauli("+ZZ", "a", "b")
    # Commuting pairs sweep every column of the union, non-commuting ones
    # stop at the first column that is not zero.
    assert commutes(zz, pauli("+XX", "a", "b")) and commutes(pauli("+Z", "b"), zz)
    assert not commutes(pauli("+X", "a"), zz)
    assert built == []


def test_spectral_projectors_sigma_z():
    # project() applies (I +- Z)/2: |+> goes to |0> or |1>, each with p = 1/2.
    plus = SparseState(qubits("a"), {0: 1 / np.sqrt(2), 1: 1 / np.sqrt(2)})
    for value, kept in ((1, 0), (-1, 1)):
        state, p = qcore.project(pauli("+Z", "a"), plus, value)
        assert dict(state.entries) == {kept: 1.0}
        assert abs(p - 0.5) <= 1e-12


def test_spectral_projectors_completeness_random_involutory():
    # P_plus + P_minus = I, P_plus P_minus = 0 and P_plus P_plus = P_plus,
    # read through project() on random states, against the oracle.
    rng = np.random.default_rng(5)
    lay = qubits("a", "b")
    for _ in range(20):
        mask = int(rng.integers(4))
        signs = rng.choice([1.0, -1.0], size=4).tolist()
        op = Operator.from_pauli_mask(lay, mask, lambda j: signs[min(j, j ^ mask)])
        s = random_state(rng, lay)
        branches = [qcore.project(op, s, v) for v in (1, -1)]
        assert abs(branches[0][1] + branches[1][1] - 1.0) <= 1e-10
        for value, (state, p) in zip((1, -1), branches):
            dense, p_dense = oracle.project(op, oracle.tensor(s), lay, value)
            assert abs(p - p_dense) <= 1e-10
            assert np.max(np.abs(oracle.tensor(state) - dense)) <= 1e-10
            again, p_again = qcore.project(op, state, value)
            assert abs(p_again - 1.0) <= 1e-10


def test_born_table_single_z_on_plus():
    s = SparseState(qubits("a"), {0: 1 / np.sqrt(2), 1: 1 / np.sqrt(2)})
    t = born_table([pauli("+Z", "a")], s)
    assert abs(t.rows[(1,)] - 0.5) <= 1e-12
    assert abs(t.rows[(-1,)] - 0.5) <= 1e-12


def test_born_table_zero_rows_retained():
    s = SparseState(qubits("a", "b"), {0: 1.0})
    t = born_table([pauli("+Z", "a"), pauli("+Z", "b")], s)
    assert set(t.rows) == set(itertools.product((1, -1), repeat=2))
    assert abs(t.rows[(1, 1)] - 1.0) <= 1e-12
    assert t.rows[(1, -1)] == pytest.approx(0.0, abs=1e-12)
    assert t.rows[(-1, 1)] == pytest.approx(0.0, abs=1e-12)
    assert t.rows[(-1, -1)] == pytest.approx(0.0, abs=1e-12)


def test_born_table_rejects_noncommuting():
    with pytest.raises(ContextIncompatibleError):
        born_table([pauli("+X", "a"), pauli("+Z", "a")], SparseState(qubits("a"), {0: 1.0}))


def test_born_table_matches_projector_oracle():
    # Independent oracle: explicit projector products on the full space.
    rng = np.random.default_rng(21)
    s = random_state(rng, qubits("q1", "q2"))
    t = born_table([pauli("+Z", "q1"), pauli("+X", "q2")], s)
    vec = oracle.tensor(s).reshape(-1)
    mats = [kron(Z, I2), kron(I2, X)]
    for outcome, p in t.rows.items():
        proj = np.eye(4, dtype=complex)
        for m, sign in zip(mats, outcome):
            proj = proj @ (np.eye(4) + sign * m) / 2
        expected = np.real(vec.conj() @ proj @ vec)
        assert abs(p - expected) <= 1e-12


def test_born_table_on_density_matrix_matches_pure_path():
    # The oracle's Tr(P rho) on pure_density's entries, against the walk on psi.
    rng = np.random.default_rng(22)
    s = random_state(rng, qubits("q1", "q2"))
    obs = [pauli("+Z", "q1"), pauli("+Z", "q2")]
    t_pure = born_table(obs, s)
    t_rho = oracle.born_rows(obs, oracle.matrix(pure_density(s)), s.layout)
    for outcome in t_pure.rows:
        assert abs(t_pure.rows[outcome] - t_rho[outcome]) <= 1e-12


def test_born_table_normalization_and_marginal():
    rng = np.random.default_rng(23)
    s = random_state(rng, qubits("q1", "q2", "q3"))
    obs = [pauli("+Z", q) for q in ("q1", "q2", "q3")]
    t = born_table(obs, s, names=("a", "b", "c"))
    assert abs(sum(t.rows.values()) - 1.0) <= 1e-12
    m = t.marginal_rows(["a", "c"])
    t_direct = born_table([obs[0], obs[2]], s, names=("a", "c"))
    for outcome in m:
        assert abs(m[outcome] - t_direct.rows[outcome]) <= 1e-12


def test_born_table_sampling_is_seeded():
    s = SparseState(qubits("a"), {0: 1 / np.sqrt(2), 1: 1 / np.sqrt(2)})
    t = born_table([pauli("+Z", "a")], s)
    draws1 = [t.sample(np.random.default_rng(42)) for _ in range(5)]
    draws2 = [t.sample(np.random.default_rng(42)) for _ in range(5)]
    assert draws1 == draws2


class FixedDraws:
    """Any object with ``random()`` drives ``BornTable.sample``."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


def test_sample_takes_one_draw_against_the_normalized_cumulative_rows():
    # The rows sum to 1 - 8e-10, inside the Born-sum bound, and the last two
    # are zero (one slightly negative).  Normalized, the first row ends at
    # 0.5 exactly: a draw there takes the next row, and a draw near 1 still
    # lands on the last nonzero row.
    t = BornTable(("a", "b"), {(1, 1): 0.5 - 4e-10, (1, -1): 0.5 - 4e-10,
                               (-1, 1): 0.0, (-1, -1): -1e-13})
    rng = FixedDraws(0.0, 0.5 - 4e-10, 0.5, 0.75, 1 - 2**-53)
    assert [t.sample(rng) for _ in range(5)] == [(1, 1), (1, 1), (1, -1), (1, -1), (1, -1)]
    assert rng.draws == []


def test_sample_never_returns_a_zero_row():
    # Ten rows of 0.1 then six zero rows: normalized, the running sum ends at
    # 1 - 2**-53, so the largest draw passes every row and takes the last one
    # of positive weight.
    outcomes = list(itertools.product((1, -1), repeat=4))
    t = BornTable(tuple("abcd"), {o: 0.1 if k < 10 else 0.0 for k, o in enumerate(outcomes)})
    assert t.sample(FixedDraws((2**53 - 1) / 2**53)) == outcomes[9]


def test_tensor_states_and_operators():
    a = SparseState(qubits("a"), {1: 1.0})
    b = SparseState(qubits("b"), {0: 1.0})
    ab = tensor(a, b)
    assert ab.layout.labels == ("a", "b")
    assert dict(ab.entries) == {0b10: 1.0}


def test_operator_flags():
    assert oracle.flags(pauli("+X", "a")) == (True, True, True)
    assert oracle.flags(pauli("+iZ", "a")) == (False, True, False)


# The fixed thresholds, pinned on either side: qcore.NUMERIC_TOL (1e-12)
# for commutators, qcore.STRUCTURAL_TOL (1e-10) for norms, 1e-9 for the
# row sum of a Born table and qcore.SUPPORT_TOL (1e-10) for its support.

@pytest.mark.parametrize("eps,expected", [(1e-12, False), (2.5e-13, True)])
def test_commutes_threshold(eps, expected):
    # B = cos(t) X + sin(t) Y with sin(t) = eps, in mask form: [X, B] =
    # 2i eps Z, so the residue is 2 eps: 2e-12 and 5e-13.
    lay = qubits("a")
    t = math.asin(eps)
    b = Operator.from_pauli_mask(lay, 1, (complex(math.cos(t), math.sin(t)),
                                          complex(math.cos(t), -math.sin(t))).__getitem__)
    assert np.max(np.abs(oracle.full(pauli("+X", "a"), lay) @ b.matrix
                         - b.matrix @ oracle.full(pauli("+X", "a"), lay))) == pytest.approx(2 * eps)
    assert commutes(pauli("+X", "a"), b) is expected


@pytest.mark.parametrize("make", [
    lambda lay, amp: qcore.SparseState(lay, {0: amp}),
], ids=["sparse"])
def test_state_norm_threshold(make):
    lay = qubits("a")
    with pytest.raises(ValueError, match="norm"):
        make(lay, 1.0 + 2e-10)
    make(lay, 1.0 + 5e-11)


def test_born_table_sum_threshold():
    with pytest.raises(ValueError, match="sum"):
        BornTable(("a",), {(1,): 0.5 + 2e-9, (-1,): 0.5})
    BornTable(("a",), {(1,): 0.5 + 5e-10, (-1,): 0.5})


def test_support_threshold():
    at = BornTable(("a",), {(1,): 1.0, (-1,): qcore.SUPPORT_TOL})
    assert at.support() == ((1,),)
    above = BornTable(("a",), {(1,): 1.0, (-1,): math.nextafter(qcore.SUPPORT_TOL, 1.0)})
    assert above.support() == ((1,), (-1,))

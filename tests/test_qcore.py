import itertools
import math
import random

import numpy as np
import pytest

from wignerlab import qcore
from wignerlab.errors import (
    ContextIncompatibleError,
    LabelClashError,
    LayoutMismatchError,
    NotHermitianError,
    NotInvolutoryError,
    NotUnitaryError,
    UnknownLabelError,
)
from wignerlab.qcore import (
    BornTable,
    DensityMatrix,
    Operator,
    QState,
    RegisterLayout,
    apply,
    basis_state,
    born_table,
    commutes,
    embed,
    expectation,
    partial_trace,
    pure_density,
    qubits,
    spectral_projectors,
    tensor,
)
from wignerlab.scenario import AGENTS, ScenarioModel
from wignerlab.stabilizer import PauliString, parse_pauli, pauli_commutes, to_operator

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
I2 = np.eye(2, dtype=complex)


def kron(*mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def test_layout_basics():
    lay = RegisterLayout((("a", 2), ("b", 4), ("c", 2)))
    assert lay.labels == ("a", "b", "c")
    assert lay.shape == (2, 4, 2)
    assert lay.total_dim == 16
    assert lay.axis("b") == 1
    assert lay.dim("b") == 4
    assert lay.subset(["c", "a"]).labels == ("a", "c")


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
        QState(lay, [1.0, 1.0])
    QState(lay, [1.0, 1.0] / np.sqrt(2) * np.ones(2))


def test_state_is_immutable():
    s = basis_state(qubits("a"), 0)
    with pytest.raises(ValueError):
        s.amplitudes[0] = 0.0


def test_apply_hadamards_uniform():
    # Oracle: dense kron matrix times the basis vector.
    lay = qubits("q1", "q2", "q3")
    s = basis_state(lay, 0)
    h3 = Operator(lay, kron(H, H, H))
    got = apply(h3, s).amplitudes
    expected = kron(H, H, H) @ np.eye(8)[:, 0]
    assert np.max(np.abs(got - expected)) <= 1e-12
    assert np.max(np.abs(np.abs(got) - 1 / np.sqrt(8))) <= 1e-12


def test_apply_on_sublayout():
    # X on the middle register only; oracle is the explicitly embedded kron.
    lay = qubits("a", "b", "c")
    rng = np.random.default_rng(7)
    raw = rng.normal(size=8) + 1j * rng.normal(size=8)
    s = QState(lay, raw / np.linalg.norm(raw))
    op = Operator(qubits("b"), X)
    got = apply(op, s).amplitudes
    expected = kron(I2, X, I2) @ s.amplitudes
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_apply_rejects_nonunitary():
    lay = qubits("a")
    with pytest.raises(NotUnitaryError):
        apply(Operator(lay, [[1, 0], [0, 0]]), basis_state(lay, 0))


def test_apply_rejects_unknown_register():
    op = Operator(qubits("z"), X)
    with pytest.raises(LayoutMismatchError):
        apply(op, basis_state(qubits("a"), 0))


def test_apply_rejects_dimension_clash():
    op = Operator(RegisterLayout((("a", 4),)), np.eye(4))
    with pytest.raises(LayoutMismatchError):
        apply(op, basis_state(qubits("a"), 0))


def bell_state():
    lay = qubits("q1", "q2")
    return QState(lay, np.array([1, 0, 0, 1]) / np.sqrt(2))


def test_expectation_bell_zz():
    s = bell_state()
    zz = Operator(s.layout, kron(Z, Z))
    assert abs(expectation(zz, s) - 1.0) <= 1e-12


def test_expectation_rejects_nonhermitian():
    lay = qubits("a")
    with pytest.raises(NotHermitianError):
        expectation(Operator(lay, [[0, 1], [0, 0]]), basis_state(lay, 0))


def test_partial_trace_ghz_single_qubit():
    # Oracle: explicit outer product and axis sum.
    lay = qubits("q1", "q2", "q3")
    amp = np.zeros(8)
    amp[0] = amp[7] = 1 / np.sqrt(2)
    s = QState(lay, amp)
    red = partial_trace(s, ["q1"])
    full = np.outer(amp, amp.conj()).reshape(2, 2, 2, 2, 2, 2)
    expected = np.einsum("iabjab->ij", full)
    assert np.max(np.abs(red.matrix - expected)) <= 1e-12
    assert np.max(np.abs(red.matrix - I2 / 2)) <= 1e-12


def test_partial_trace_of_density_matrix_matches_vector_path():
    lay = qubits("a", "b", "c")
    rng = np.random.default_rng(3)
    raw = rng.normal(size=8) + 1j * rng.normal(size=8)
    s = QState(lay, raw / np.linalg.norm(raw))
    via_state = partial_trace(s, ["a", "c"])
    via_rho = partial_trace(pure_density(s), ["a", "c"])
    assert via_state.layout.labels == ("a", "c")
    assert np.max(np.abs(via_state.matrix - via_rho.matrix)) <= 1e-12


def test_partial_trace_preserves_trace():
    lay = qubits("a", "b")
    rng = np.random.default_rng(11)
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    s = QState(lay, raw / np.linalg.norm(raw))
    red = partial_trace(s, ["b"])
    assert abs(np.trace(red.matrix) - 1.0) <= 1e-12


def test_density_matrix_guards():
    lay = qubits("a")
    with pytest.raises(NotHermitianError):
        DensityMatrix(lay, [[0.5, 0.5], [-0.5, 0.5]])
    with pytest.raises(ValueError):
        DensityMatrix(lay, [[0.9, 0], [0, 0.9]])
    with pytest.raises(ValueError):
        DensityMatrix(lay, [[1.5, 0], [0, -0.5]])


def test_density_matrix_rejects_negative_eigenvalue():
    lay = qubits("a")
    # Hermitian with unit trace, so only the eigenvalue check can object.
    for mat in ([[1.5, 0], [0, -0.5]], [[0.5, 1.0], [1.0, 0.5]]):
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(lay, mat)


def test_density_matrix_copies_its_input():
    lay = qubits("a")
    m = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=np.complex128)
    rho = DensityMatrix(lay, m)
    assert m.flags.writeable
    m[0, 1] = m[1, 0] = 0.0
    assert np.array_equal(rho.matrix, np.full((2, 2), 0.5))
    assert not rho.matrix.flags.writeable


def test_commutes_basic():
    a = Operator(qubits("q1"), X)
    b = Operator(qubits("q2"), Z)
    assert commutes(a, b)
    c = Operator(qubits("q1"), Z)
    assert not commutes(a, c)


def test_commutes_overlapping_supports():
    # X on (a,b) block vs Z on b alone: embedded oracle on the union.
    ab = qubits("a", "b")
    xa_xb = Operator(ab, kron(X, X))
    zb = Operator(qubits("b"), Z)
    assert not commutes(xa_xb, zb)
    za_zb = Operator(ab, kron(Z, Z))
    assert commutes(za_zb, zb)


def _random_operator(rng, layout):
    d = layout.total_dim
    return Operator(layout, rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))


@pytest.mark.parametrize("seed", range(4))
def test_commutes_disjoint_supports_matches_embed_oracle(seed):
    # Random complex non-hermitian operators on disjoint registers of mixed
    # dimensions.  The dense oracle on a permuted union layout finds the
    # commutator exactly zero, which commutes() returns without forming it.
    rng = np.random.default_rng(seed)
    a = _random_operator(rng, RegisterLayout((("p", 3), ("q", 2))))
    b = _random_operator(rng, RegisterLayout((("s", 4), ("r", 2))))
    assert not a.is_hermitian and not b.is_hermitian
    sites = a.layout.sites + b.layout.sites
    union = RegisterLayout(tuple(sites[i] for i in rng.permutation(len(sites))))
    am, bm = embed(a, union).matrix, embed(b, union).matrix
    assert np.max(np.abs(am @ bm - bm @ am)) == 0.0
    assert commutes(a, b) and commutes(b, a)


def test_commutes_rejects_shared_label_with_other_dimension():
    a = Operator(RegisterLayout((("p", 2), ("q", 2))), kron(X, Z))
    b = Operator(RegisterLayout((("q", 3), ("r", 2))), np.eye(6))
    for x, y in ((a, b), (b, a)):
        with pytest.raises(LayoutMismatchError, match="'q'"):
            commutes(x, y)


def test_embed_matches_kron_oracle():
    lay = qubits("a", "b")
    op = Operator(qubits("b"), X)
    assert np.max(np.abs(embed(op, lay).matrix - kron(I2, X))) <= 1e-12
    op2 = Operator(qubits("a"), Y)
    assert np.max(np.abs(embed(op2, lay).matrix - kron(Y, I2))) <= 1e-12


def test_embed_permuted_two_site_operator():
    # Operator given on (c, a) of an (a, b, c) layout.
    lay = qubits("a", "b", "c")
    cz = np.diag([1, 1, 1, -1]).astype(complex)
    op = Operator(qubits("c", "a"), cz)
    got = embed(op, lay).matrix
    # Oracle: diagonal with -1 exactly when a=1 and c=1.
    diag = np.ones(8, dtype=complex)
    for idx in range(8):
        a_bit, _, c_bit = (idx >> 2) & 1, (idx >> 1) & 1, idx & 1
        if a_bit and c_bit:
            diag[idx] = -1
    assert np.max(np.abs(got - np.diag(diag))) <= 1e-12


def _dense(op):
    """The same operator without its mask form, for the dense branches."""
    return Operator(op.layout, op.matrix)


def _union(a, b):
    return RegisterLayout(a.layout.sites + tuple(s for s in b.layout.sites
                                                 if s not in a.layout.sites))


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
    assert got.mask_form is not None
    assert np.array_equal(got.matrix, embed(_dense(op), layout).matrix)
    assert (got.is_hermitian, got.is_unitary, got.is_involutory) == (
        op.is_hermitian, op.is_unitary, op.is_involutory)


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_mask_embed_matches_the_dense_embedding_on_scenario_unions(width):
    for a, b in _scenario_pairs(width):
        for op in (a, b):
            _assert_mask_embedding_is_the_dense_one(op, _union(a, b))


@pytest.mark.parametrize("seed", range(3))
def test_mask_embed_matches_the_dense_embedding_for_seeded_words(seed):
    layout = qubits("q3", "q1", "q5", "q2", "q4")
    for (_, a), (_, b) in _seeded_word_pairs(seed):
        for op in (a, b):
            _assert_mask_embedding_is_the_dense_one(op, layout)
            _assert_mask_embedding_is_the_dense_one(op, _union(a, b))


def test_mask_embed_keeps_wider_registers_and_goes_dense_off_powers_of_two():
    # A phase rule over a dimension-4 register, and a layout with a qutrit.
    op = Operator.from_mask(RegisterLayout((("p", 4), ("a", 2))), 0b110,
                            [1, -1, 1j, -1j, -1, 1, 1j, 1j])
    _assert_mask_embedding_is_the_dense_one(
        op, RegisterLayout((("b", 2), ("a", 2), ("c", 4), ("p", 4))))
    odd = RegisterLayout((("a", 2), ("t", 3), ("p", 4)))
    got = embed(op, odd)
    assert got.mask_form is None
    assert np.array_equal(got.matrix, embed(_dense(op), odd).matrix)


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_commutes_matches_the_dense_verdict_on_scenario_pairs(width):
    pairs = _scenario_pairs(width)
    verdicts = [commutes(a, b) for a, b in pairs]
    assert verdicts == [commutes(_dense(a), _dense(b)) for a, b in pairs]
    assert verdicts.count(False) == 3


@pytest.mark.parametrize("seed", range(3))
def test_commutes_matches_the_dense_verdict_for_seeded_words(seed):
    for (pa, a), (pb, b) in _seeded_word_pairs(seed):
        verdict = commutes(a, b)
        assert verdict is commutes(_dense(a), _dense(b))
        # The symplectic rule on the words padded to the union.
        labels = _union(a, b).labels
        padded = [PauliString(p.phase_exp, "".join(
            dict(zip(op.layout.labels, p.letters)).get(label, "I") for label in labels))
                  for p, op in ((pa, a), (pb, b))]
        assert verdict is pauli_commutes(*padded)


def test_commuting_overlapping_mask_forms_reach_the_dense_branch(monkeypatch):
    built = []
    matrix = Operator.matrix.fget
    monkeypatch.setattr(Operator, "matrix",
                        property(lambda op: built.append(op.layout.labels) or matrix(op)))
    zz = to_operator(parse_pauli("+ZZ"), ("a", "b"))
    xx = to_operator(parse_pauli("+XX"), ("a", "b"))
    zb = to_operator(parse_pauli("+Z"), ("b",))
    assert commutes(zz, xx) and commutes(zb, zz)
    # Each call reads both embedded matrices on its union layout.
    assert built == [("a", "b")] * 2 + [("b", "a")] * 2
    built.clear()
    # X on a against Z x Z: the entry at |0> differs, and no matrix is built.
    assert not commutes(to_operator(parse_pauli("+X"), ("a",)), zz)
    assert built == []


def test_spectral_projectors_sigma_z():
    op = Operator(qubits("a"), Z)
    plus, minus = spectral_projectors(op)
    assert np.max(np.abs(plus.matrix - np.diag([1, 0]))) <= 1e-12
    assert np.max(np.abs(minus.matrix - np.diag([0, 1]))) <= 1e-12


def test_spectral_projectors_completeness_random_involutory():
    rng = np.random.default_rng(5)
    for _ in range(20):
        # Random involutory hermitian: U diag(+-1) U+.
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u, _ = np.linalg.qr(raw)
        signs = np.diag(rng.choice([1.0, -1.0], size=4))
        op = Operator(qubits("a", "b"), u @ signs @ u.conj().T)
        plus, minus = spectral_projectors(op)
        eye = np.eye(4)
        assert np.max(np.abs(plus.matrix + minus.matrix - eye)) <= 1e-10
        assert np.max(np.abs(plus.matrix @ minus.matrix)) <= 1e-10
        assert np.max(np.abs(plus.matrix @ plus.matrix - plus.matrix)) <= 1e-10


def test_spectral_projectors_rejects_noninvolutory():
    op = Operator(qubits("a"), [[2, 0], [0, -2]])
    with pytest.raises(NotInvolutoryError):
        spectral_projectors(op)


def test_born_table_single_z_on_plus():
    lay = qubits("a")
    s = QState(lay, np.array([1, 1]) / np.sqrt(2))
    t = born_table([Operator(lay, Z)], s)
    assert abs(t.rows[(1,)] - 0.5) <= 1e-12
    assert abs(t.rows[(-1,)] - 0.5) <= 1e-12


def test_born_table_zero_rows_retained():
    lay = qubits("a", "b")
    s = basis_state(lay, 0)
    t = born_table([Operator(qubits("a"), Z), Operator(qubits("b"), Z)], s)
    assert set(t.rows) == set(itertools.product((1, -1), repeat=2))
    assert abs(t.rows[(1, 1)] - 1.0) <= 1e-12
    assert t.rows[(1, -1)] == pytest.approx(0.0, abs=1e-12)
    assert t.rows[(-1, 1)] == pytest.approx(0.0, abs=1e-12)
    assert t.rows[(-1, -1)] == pytest.approx(0.0, abs=1e-12)


def test_born_table_rejects_repeated_names():
    # The assignment searches in ``paradox`` give each name one variable.
    with pytest.raises(ValueError, match="repeated"):
        BornTable(("a", "a"), {(1, 1): 1.0, (1, -1): 0.0, (-1, 1): 0.0, (-1, -1): 0.0})


def test_born_table_rejects_noncommuting():
    lay = qubits("a")
    with pytest.raises(ContextIncompatibleError):
        born_table([Operator(lay, X), Operator(lay, Z)], basis_state(lay, 0))


def test_born_table_rejects_noninvolutory():
    lay = qubits("a")
    with pytest.raises(NotInvolutoryError):
        born_table([Operator(lay, [[2, 0], [0, -2]])], basis_state(lay, 0))


def test_born_table_matches_projector_oracle():
    # Independent oracle: explicit projector products on the full space.
    lay = qubits("q1", "q2")
    rng = np.random.default_rng(21)
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    s = QState(lay, raw / np.linalg.norm(raw))
    obs = [Operator(qubits("q1"), Z), Operator(qubits("q2"), X)]
    t = born_table(obs, s)
    mats = [kron(Z, I2), kron(I2, X)]
    for outcome, p in t.rows.items():
        proj = np.eye(4, dtype=complex)
        for m, sign in zip(mats, outcome):
            proj = proj @ (np.eye(4) + sign * m) / 2
        expected = np.real(s.amplitudes.conj() @ proj @ s.amplitudes)
        assert abs(p - expected) <= 1e-12


def test_born_table_on_density_matrix_matches_pure_path():
    lay = qubits("q1", "q2")
    rng = np.random.default_rng(22)
    raw = rng.normal(size=4) + 1j * rng.normal(size=4)
    s = QState(lay, raw / np.linalg.norm(raw))
    obs = [Operator(qubits("q1"), Z), Operator(qubits("q2"), Z)]
    t_pure = born_table(obs, s)
    t_rho = born_table(obs, pure_density(s))
    for outcome in t_pure.rows:
        assert abs(t_pure.rows[outcome] - t_rho.rows[outcome]) <= 1e-12


def test_born_table_normalization_and_marginal():
    lay = qubits("q1", "q2", "q3")
    rng = np.random.default_rng(23)
    raw = rng.normal(size=8) + 1j * rng.normal(size=8)
    s = QState(lay, raw / np.linalg.norm(raw))
    obs = [Operator(qubits(q), Z) for q in ("q1", "q2", "q3")]
    t = born_table(obs, s, names=("a", "b", "c"))
    assert abs(sum(t.rows.values()) - 1.0) <= 1e-12
    m = t.marginal(["a", "c"])
    t_direct = born_table([obs[0], obs[2]], s, names=("a", "c"))
    for outcome in m.rows:
        assert abs(m.rows[outcome] - t_direct.rows[outcome]) <= 1e-12


def test_born_table_sampling_is_seeded():
    lay = qubits("a")
    s = QState(lay, np.array([1, 1]) / np.sqrt(2))
    t = born_table([Operator(lay, Z)], s)
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
    a = basis_state(qubits("a"), 1)
    b = basis_state(qubits("b"), 0)
    ab = tensor(a, b)
    assert ab.layout.labels == ("a", "b")
    assert abs(ab.amplitudes[2] - 1.0) <= 1e-12
    xa = Operator(qubits("a"), X)
    zb = Operator(qubits("b"), Z)
    exp = kron(X, Z)
    assert np.max(np.abs(tensor(xa, zb).matrix - exp)) <= 1e-12
    with pytest.raises(TypeError):
        tensor(a, xa)


def test_operator_flags():
    op = Operator(qubits("a"), X)
    assert op.is_hermitian and op.is_unitary and op.is_involutory
    rot = Operator(qubits("a"), [[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    assert rot.is_unitary and not rot.is_hermitian and not rot.is_involutory


# The fixed thresholds, pinned on either side: qcore.NUMERIC_TOL (1e-12)
# for commutators, qcore.STRUCTURAL_TOL (1e-10) for norms, 1e-9 for the
# row sum of a Born table and qcore.SUPPORT_TOL (1e-10) for its support.

@pytest.mark.parametrize("eps,expected", [(1e-12, False), (2.5e-13, True)])
def test_commutes_threshold(eps, expected):
    # [Z, Z + eps X] = 2i eps Y, so the residue is 2 eps: 2e-12 and 5e-13.
    lay = qubits("a")
    assert commutes(Operator(lay, Z), Operator(lay, Z + eps * X)) is expected


@pytest.mark.parametrize("make", [
    lambda lay, amp: QState(lay, [amp, 0.0]),
    lambda lay, amp: qcore.SparseState(lay, {(0,): amp}),
], ids=["dense", "sparse"])
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

import itertools
import math
import random

import numpy as np
import pytest

from wignerlab import qcore
from wignerlab.errors import NoncommutingGeneratorsError, RankNotOneError
from wignerlab.stabilizer import (
    SCENARIO_GENERATORS,
    PauliString,
    ghz_scenario_state,
    joint_eigenstate,
    parse_pauli,
    pauli_commutes,
    to_operator,
)

import dense_oracle


def test_parse_and_str_round_trip():
    for text in ("+XZZ", "-XXX", "+iZY", "-iYIX", "+I", "-Z"):
        assert str(parse_pauli(text)) == text
    assert str(parse_pauli("XZZ")) == "+XZZ"


def test_parse_round_trip_random():
    rng = np.random.default_rng(17)
    letters = np.array(list("IXYZ"))
    for _ in range(200):
        n = int(rng.integers(1, 7))
        word = "".join(rng.choice(letters, size=n))
        p = PauliString(int(rng.integers(0, 4)), word)
        assert parse_pauli(str(p)) == p


def test_parse_rejects_bad_letters():
    with pytest.raises(ValueError):
        parse_pauli("+XQZ")
    with pytest.raises(ValueError):
        parse_pauli("+")


def test_commutes_examples():
    assert pauli_commutes(parse_pauli("+XZZ"), parse_pauli("+ZXZ"))
    assert not pauli_commutes(parse_pauli("+X"), parse_pauli("+Z"))
    assert pauli_commutes(parse_pauli("+XX"), parse_pauli("+ZZ"))


def test_commutes_matches_dense_commutator():
    rng = np.random.default_rng(31)
    letters = np.array(list("IXYZ"))
    for _ in range(200):
        n = int(rng.integers(1, 5))
        p = PauliString(0, "".join(rng.choice(letters, size=n)))
        q = PauliString(0, "".join(rng.choice(letters, size=n)))
        a, b = to_operator(p).matrix, to_operator(q).matrix
        dense = np.max(np.abs(a @ b - b @ a)) <= 1e-12
        assert pauli_commutes(p, q) == dense


def test_to_operator_phase_and_letters():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    m = to_operator(parse_pauli("-XXX")).matrix
    assert np.max(np.abs(m + np.kron(x, np.kron(x, x)))) <= 1e-12
    iy = to_operator(parse_pauli("+iY")).matrix
    assert np.max(np.abs(iy - 1j * np.array([[0, -1j], [1j, 0]]))) <= 1e-12


def test_to_operator_custom_labels():
    op = to_operator(parse_pauli("+XZ"), labels=("a2", "a3"))
    assert op.layout.labels == ("a2", "a3")


def test_joint_eigenstate_single_z():
    s = joint_eigenstate([parse_pauli("+Z")])
    assert np.max(np.abs(dense_oracle.tensor(s) - np.array([1, 0]))) <= 1e-12


def test_joint_eigenstate_bell():
    s = joint_eigenstate([parse_pauli("+XX"), parse_pauli("+ZZ")])
    expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
    assert np.max(np.abs(dense_oracle.tensor(s).reshape(-1) - expected)) <= 1e-12


def test_joint_eigenstate_rejects_noncommuting():
    with pytest.raises(NoncommutingGeneratorsError):
        joint_eigenstate([parse_pauli("+X"), parse_pauli("+Z")])


def test_joint_eigenstate_rejects_contradictory():
    with pytest.raises(RankNotOneError):
        joint_eigenstate([parse_pauli("+Z"), parse_pauli("-Z")])


def test_joint_eigenstate_rejects_dependent():
    with pytest.raises(RankNotOneError):
        joint_eigenstate([parse_pauli("+ZZ")])


GHZ_SIGNS = np.array([1, 1, 1, -1, 1, -1, -1, -1], dtype=float)


def test_scenario_state_frozen_amplitudes():
    # Derived and frozen: all eight amplitudes have modulus 1/sqrt(8) and
    # this exact sign pattern once the global phase is fixed.
    s = ghz_scenario_state()
    expected = GHZ_SIGNS / np.sqrt(8)
    assert np.max(np.abs(dense_oracle.tensor(s).reshape(-1) - expected)) <= 1e-12


def test_scenario_state_matches_eigenvector_oracle():
    # Independent oracle: dense projector, eigendecomposition, top vector.
    mats = [to_operator(g).matrix for g in SCENARIO_GENERATORS]
    proj = np.eye(8, dtype=complex)
    for m in mats:
        proj = proj @ (np.eye(8) + m) / 2
    vals, vecs = np.linalg.eigh(proj)
    assert abs(vals[-1] - 1.0) <= 1e-12
    assert abs(vals[-2]) <= 1e-12
    vec = vecs[:, -1]
    first = np.flatnonzero(np.abs(vec) > 1e-12)[0]
    vec = vec * (vec[first].conjugate() / abs(vec[first]))
    assert np.max(np.abs(dense_oracle.tensor(ghz_scenario_state()).reshape(-1) - vec)) <= 1e-12


@pytest.mark.parametrize(
    "text,value",
    [("+XZZ", 1.0), ("+ZXZ", 1.0), ("+ZZX", 1.0), ("+XXX", -1.0),
     ("+YYI", 1.0), ("+YIY", 1.0), ("+IYY", 1.0), ("+ZZZ", 0.0)],
)
def test_scenario_state_expectations(text, value):
    s = ghz_scenario_state()
    op = to_operator(parse_pauli(text))
    assert abs(qcore.product_expectation([op], s, "q1")[0] - value) <= 1e-12
    assert abs(dense_oracle.expectation(op, dense_oracle.tensor(s), s.layout) - value) <= 1e-12


def test_scenario_state_custom_labels():
    s = ghz_scenario_state(labels=("a1", "a2", "a3"))
    assert s.layout.labels == ("a1", "a2", "a3")
    assert np.max(np.abs(dense_oracle.tensor(s).reshape(-1) - GHZ_SIGNS / np.sqrt(8))) <= 1e-12


# The Pauli words of the generator sets the tests use: the scenario's, the
# sign-flipped one and the contradictory one; then every word on three qubits.
GENERATOR_SETS = (("+XZZ", "+ZXZ", "+ZZX"), ("+XZZ", "+ZXZ", "-ZZX"),
                  ("+XZZ", "+ZXZ", "-YYI"))
ALL_WORDS = tuple(PauliString(exp, "".join(letters)) for exp in range(4)
                  for letters in itertools.product("IXYZ", repeat=3))


@pytest.mark.parametrize("words", [
    [parse_pauli(w) for words in GENERATOR_SETS for w in words],
    [parse_pauli(letter) for letter in "IXYZ"],
    ALL_WORDS,
], ids=["generator sets", "ghz-check letters", "every 3-qubit word"])
def test_pauli_word_flags_are_set_at_construction_and_match_the_dense_flags(words):
    for p in words:
        op = to_operator(p)
        mask, phase = op.mask_form
        computed = dense_oracle.monomial_flags(
            op.layout, mask, [phase(j) for j in range(op.layout.total_dim)])
        for flags in (computed, dense_oracle.flags(op)):
            assert flags == (p.is_hermitian, True, p.is_hermitian)


def kron_matrix(p):
    """The dense matrix of a Pauli string as a Kronecker product of letters."""
    letters = {"I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
               "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1])}
    mat = np.array([[1j ** p.phase_exp]], dtype=complex)
    for letter in p.letters:
        mat = np.kron(mat, letters[letter])
    return mat


def test_mask_form_words_equal_their_kronecker_products():
    for p in ALL_WORDS:
        assert np.array_equal(to_operator(p).matrix, kron_matrix(p))


# ghz-check's five contexts: one letter per atom.
GHZ_CONTEXTS = ("YYY", "XXX", "XZZ", "ZXZ", "ZZX")


@pytest.mark.parametrize("generators", GENERATOR_SETS[:2] + (("+XXX", "+ZZI", "+IZZ"),
                                                             ("+XYY", "+YXY", "+YYX")))
def test_ghz_check_sparse_tables_match_the_dense_tables(generators):
    dense = dense_oracle.joint_eigenstate([parse_pauli(g) for g in generators])
    sparse = joint_eigenstate([parse_pauli(g) for g in generators])
    labels = sparse.layout.labels
    for letters in GHZ_CONTEXTS:
        observables = [to_operator(parse_pauli(letter), (label,))
                       for letter, label in zip(letters, labels)]
        fast = qcore.born_table(observables, sparse)
        slow = dense_oracle.born_rows(observables, dense, sparse.layout)
        assert list(fast.rows) == list(slow)
        assert max(abs(fast.rows[o] - p) for o, p in slow.items()) <= 1e-12


def test_scenario_state_amplitudes_are_exact():
    # Every amplitude is +-1 over sqrt(8), one correctly rounded division.
    s = ghz_scenario_state()
    assert list(s.entries) == sorted(s.entries)
    signs = GHZ_SIGNS.tolist()
    assert list(s.entries.values()) == [complex(sign / math.sqrt(8)) for sign in signs]
    assert s.entries[0] == 0.35355339059327373


# Every generator set the tests and CI hand to joint_eigenstate or ghz-check,
# accepted or rejected.
USED_SETS = GENERATOR_SETS + (
    ("-XZZ", "+ZXZ", "-ZZX"), ("+XXX", "+ZZI", "+IZZ"), ("+XYY", "+YXY", "+YYX"),
    ("+XZZ", "+XZZ", "+ZZX"), ("+XZZ", "+ZXZ", "+XXZ"),
    ("+Z",), ("+XX", "+ZZ"), ("+X", "+Z"), ("+Z", "-Z"), ("+ZZ",),
)


def outcome(build, generators):
    """The state as a dense vector, or the class of the error it raised."""
    try:
        state = build([parse_pauli(g) for g in generators])
    except Exception as exc:  # compared by class below
        return type(exc)
    return state if isinstance(state, np.ndarray) else dense_oracle.tensor(state).reshape(-1)


def assert_matches_oracle(generators):
    exact = outcome(joint_eigenstate, generators)
    dense = outcome(dense_oracle.joint_eigenstate, generators)
    if isinstance(dense, type):
        assert exact is dense
        return False
    assert not isinstance(exact, type), exact
    assert np.max(np.abs(exact - dense)) <= 1e-12
    return True


@pytest.mark.parametrize("generators", USED_SETS, ids=",".join)
def test_exact_state_matches_the_dense_oracle_on_the_sets_in_use(generators):
    assert_matches_oracle(generators)


def test_exact_state_matches_the_dense_oracle_on_sampled_signed_words():
    words = [sign + "".join(letters) for sign in "+-"
             for letters in itertools.product("IXYZ", repeat=3)]
    rng = random.Random(22)
    accepted = sum(assert_matches_oracle(rng.sample(words, 3)) for _ in range(3000))
    assert accepted > 100  # the sample reaches the rank-1 case often

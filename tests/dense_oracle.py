"""Dense first-principles builds that the library's exact paths are checked against.

``joint_eigenstate`` is the oracle of ``stabilizer.joint_eigenstate``'s exact
build: it multiplies the 2**n-square projectors (I + G_i)/2, reads the
rank off a float trace and takes a normalized column.
"""

import numpy as np

from wignerlab import qcore
from wignerlab.errors import RankNotOneError
from wignerlab.stabilizer import commuting_hermitian, to_operator


def joint_eigenstate(generators, labels=None) -> qcore.QState:
    """Unique joint +1 eigenstate of commuting hermitian Pauli generators, densely.

    Requires the projector prod (I + G_i)/2 to have rank 1 within 1e-9; the
    state's global phase makes its first nonzero amplitude real and positive.
    """
    gens = commuting_hermitian(generators)
    if labels is None:
        labels = tuple(f"q{i + 1}" for i in range(len(gens[0])))
    layout = qcore.qubits(*labels)
    d = layout.total_dim
    proj = np.eye(d, dtype=np.complex128)
    for g in gens:
        proj = proj @ (np.eye(d) + to_operator(g, labels).matrix) / 2.0
    rank = float(np.real(np.trace(proj)))
    if abs(rank - 1.0) > 1e-9:
        raise RankNotOneError(
            f"projector rank {rank:.6f}; generators dependent or contradictory"
        )
    col = int(np.argmax(np.linalg.norm(proj, axis=0)))
    vec = proj[:, col]
    vec = vec / np.linalg.norm(vec)
    first = int(np.flatnonzero(np.abs(vec) > 1e-12)[0])
    vec = vec * (vec[first].conjugate() / abs(vec[first]))
    return qcore.QState(layout, vec)

"""Polarization-qubit density matrices and their analysis: the W state
W_N, fidelity to a pure state, the W-state witness, and the entanglement of
formation of every two-qubit marginal.

This is the analysis layer: it imports no module of the optics (``fock``,
``optics``, ``gates``, ``sources``), which may import it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tolerances import CONCURRENCE_SLACK, HERMITICITY_ATOL, PSD_ATOL, TRACE_ATOL

_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_PAULI_Y, _PAULI_Y)


@dataclass
class DensityMatrix:
    """Density operator over polarization qubits.

    ``qubit_order`` records which spatial mode each qubit came from; the
    first entry is the most significant bit of the matrix index.  The
    matrix is checked once, here: construction raises ValueError unless it
    is Hermitian, positive semidefinite and of trace one within the strict
    tolerances, so every function that takes a ``DensityMatrix`` trusts it.
    """

    matrix: np.ndarray
    qubit_order: list[int]

    def __post_init__(self):
        m = self.matrix = np.asarray(self.matrix, dtype=complex)
        if not np.isfinite(m).all():
            raise ValueError("density matrix has a non-finite entry")
        dim = 2 ** len(self.qubit_order)
        if m.shape != (dim, dim):
            raise ValueError(
                f"density matrix of shape {m.shape} does not match "
                f"{len(self.qubit_order)} qubits in qubit_order"
            )
        if np.max(np.abs(m - m.conj().T)) > HERMITICITY_ATOL:
            raise ValueError("density matrix is not Hermitian")
        eigenvalues = np.linalg.eigvalsh((m + m.conj().T) / 2)
        if eigenvalues.min() < -PSD_ATOL:
            raise ValueError(
                f"density matrix has negative eigenvalue {eigenvalues.min():.3e}"
            )
        if abs(np.trace(m).real - 1.0) > TRACE_ATOL:
            raise ValueError(f"density matrix trace {np.trace(m).real!r} != 1")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_qubits(self) -> int:
        return len(self.qubit_order)

    def to_json(self) -> dict:
        """Serialization with fixed field names {dim, qubit_order, re, im}."""
        return {
            "dim": self.dim,
            "qubit_order": list(self.qubit_order),
            "re": self.matrix.real.ravel().tolist(),
            "im": self.matrix.imag.ravel().tolist(),
        }


def w_state_qubits(n: int) -> np.ndarray:
    """The symmetric single-V qubit state of dimension 2^n: 1/sqrt(n) on
    each basis index with V (bit 1) on exactly one qubit."""
    if n < 1:
        raise ValueError("W state needs at least one qubit")
    vec = np.zeros(2**n, dtype=complex)
    vec[[1 << k for k in range(n)]] = 1.0 / math.sqrt(n)
    return vec


def fidelity(rho: DensityMatrix, target) -> float:
    """<psi| rho |psi> against a pure target state."""
    vec = np.asarray(target, dtype=complex)
    if vec.shape != (rho.dim,):
        raise ValueError("target state dimension does not match the density matrix")
    return float(np.real(vec.conj() @ rho.matrix @ vec))


def witness_value(rho: DensityMatrix) -> float:
    """Tr(W rho) = (N-1)/N - <W_N| rho |W_N> for the N-qubit W-class witness
    W = ((N-1)/N) 1 - |W_N><W_N|; a negative value certifies genuine
    N-partite entanglement of the W class."""
    n = rho.n_qubits
    return (n - 1) / n - fidelity(rho, w_state_qubits(n))


def _pair_marginal(stack: np.ndarray, n_qubits: int, i: int, j: int) -> np.ndarray:
    """The (B, 4, 4) marginals of qubits i < j of a (B, d, d) stack of
    n-qubit density matrices, one trace per traced qubit for the stack.

    The other qubits are traced out in increasing order, so once ``done``
    of them are gone, qubit k sits at row axis 1 + k - done.
    """
    tensor = stack.reshape([len(stack)] + [2] * (2 * n_qubits))
    done = 0
    for k in range(n_qubits):
        if k not in (i, j):
            ax = 1 + k - done
            tensor = np.trace(tensor, axis1=ax, axis2=ax + n_qubits - done)
            done += 1
    return tensor.reshape(-1, 4, 4)


def _concurrences(stack: np.ndarray) -> np.ndarray:
    """Concurrence of each two-qubit density matrix in a (k, 4, 4) stack,
    with one ``eigvals`` call for the whole stack.

    max(0, l1 - l2 - l3 - l4) with l_i the decreasing square roots of the
    eigenvalues of rho (Y x Y) rho* (Y x Y).
    """
    flipped = stack @ _YY @ stack.conj() @ _YY
    eigenvalues = np.sort(np.abs(np.real(np.linalg.eigvals(flipped))))[:, ::-1]
    lam = np.sqrt(eigenvalues)
    return np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def eof_from_concurrence(c: float) -> float:
    if not 0.0 <= c <= 1.0 + CONCURRENCE_SLACK:
        raise ValueError(f"concurrence {c} outside [0, 1]")
    c = min(c, 1.0)
    return binary_entropy((1.0 + math.sqrt(1.0 - c * c)) / 2.0)


def pairwise_eof_table(rhos: Sequence[DensityMatrix]) -> list[dict]:
    """Entanglement of formation of every two-qubit marginal of each matrix
    in a non-empty sequence of one qubit count, from one stack: one table
    per matrix, keyed by (mode id, mode id) pairs from its qubit order."""
    sizes = {rho.n_qubits for rho in rhos}
    if len(sizes) != 1 or min(sizes) < 2:
        raise ValueError(f"need matrices of one qubit count >= 2; got {sorted(sizes)}")
    (n,) = sizes
    pairs = list(itertools.combinations(range(n), 2))
    stack = np.stack([rho.matrix for rho in rhos])
    marginals = np.stack([_pair_marginal(stack, n, i, j) for i, j in pairs], 1)
    values = _concurrences(marginals.reshape(-1, 4, 4)).reshape(len(rhos), -1)
    return [
        {(o[i], o[j]): eof_from_concurrence(float(c)) for (i, j), c in zip(pairs, row)}
        for o, row in zip([rho.qubit_order for rho in rhos], values)
    ]

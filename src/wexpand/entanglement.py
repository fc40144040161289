"""Entanglement analysis: marginals, W-state witnesses, concurrence and
entanglement of formation."""

from __future__ import annotations

import itertools
import math

import numpy as np

from .fock import DensityMatrix, as_matrix
from .gates import w_state_qubits
from .tolerances import (
    CONCURRENCE_SLACK,
    HERMITICITY_ATOL,
    TWO_QUBIT_PSD_ATOL,
    TWO_QUBIT_TRACE_ATOL,
)

_PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
_YY = np.kron(_PAULI_Y, _PAULI_Y)


def _symmetrized(rho) -> np.ndarray:
    """Hermitian-symmetrize a matrix or a stack of matrices, rejecting
    anything asymmetric beyond tolerance."""
    m = as_matrix(rho)
    adjoint = np.swapaxes(m, -1, -2).conj()
    if np.max(np.abs(m - adjoint)) > HERMITICITY_ATOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return (m + adjoint) / 2.0


def witness_value(rho, n_qubits: int) -> float:
    """Tr(W rho) for the N-qubit W-class witness W = ((N-1)/N) 1 - |W_N><W_N|;
    a negative value certifies genuine N-partite entanglement of the W
    class."""
    m = _symmetrized(rho)
    dim = 2**n_qubits
    if m.shape[0] != dim:
        raise ValueError("density matrix does not match the stated qubit count")
    w = w_state_qubits(n_qubits)
    operator = ((n_qubits - 1) / n_qubits) * np.eye(dim) - np.outer(w, w.conj())
    return float(np.einsum("ij,ji->", operator, m).real)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduce to the qubits at the given positions (in the given order)."""
    keep = list(keep)
    n = rho.n_qubits
    if not keep:
        raise ValueError("must keep at least one qubit")
    if len(set(keep)) != len(keep):
        raise ValueError("duplicate qubit indices")
    if any(k < 0 or k >= n for k in keep):
        raise ValueError(f"qubit index out of range 0..{n - 1}")
    reduced = _ptrace_matrix(_symmetrized(rho), n, keep)
    return DensityMatrix(reduced, [rho.qubit_order[k] for k in keep])


def _ptrace_matrix(matrix: np.ndarray, n_qubits: int, keep: list[int]) -> np.ndarray:
    tensor = matrix.reshape([2] * (2 * n_qubits))
    traced = [k for k in range(n_qubits) if k not in keep]
    # Contract row and column axes of every traced qubit.
    for offset, k in enumerate(traced):
        ax = k - sum(1 for t in traced[:offset] if t < k)
        remaining = n_qubits - offset
        tensor = np.trace(tensor, axis1=ax, axis2=ax + remaining)
    # Axes now follow the kept qubits in their original order; permute to
    # the requested order.
    order = sorted(range(len(keep)), key=lambda i: keep[i])
    inverse = [order.index(i) for i in range(len(keep))]
    perm = inverse + [len(keep) + i for i in inverse]
    tensor = tensor.transpose(perm)
    dim = 2 ** len(keep)
    return tensor.reshape(dim, dim)


def _concurrences(stack) -> np.ndarray:
    """Concurrence of each two-qubit density matrix in a (k, 4, 4) stack,
    with one validation and one ``eigvals`` call for the whole stack.

    max(0, l1 - l2 - l3 - l4) with l_i the decreasing square roots of the
    eigenvalues of rho (Y x Y) rho* (Y x Y).
    """
    m = _symmetrized(stack)
    if m.shape[1:] != (4, 4):
        raise ValueError("expected a two-qubit (4x4) density matrix")
    if np.max(np.abs(np.trace(m, axis1=1, axis2=2).real - 1.0)) > TWO_QUBIT_TRACE_ATOL:
        raise ValueError("density matrix trace differs from 1")
    if np.linalg.eigvalsh(m).min() < -TWO_QUBIT_PSD_ATOL:
        raise ValueError("density matrix is not positive semidefinite")
    flipped = m @ _YY @ m.conj() @ _YY
    eigenvalues = np.sort(np.abs(np.real(np.linalg.eigvals(flipped))))[:, ::-1]
    lam = np.sqrt(eigenvalues)
    return np.maximum(0.0, lam[:, 0] - lam[:, 1] - lam[:, 2] - lam[:, 3])


def concurrence(rho) -> float:
    """Two-qubit concurrence from the spin-flipped spectrum."""
    return float(_concurrences(as_matrix(rho)[None])[0])


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def eof_from_concurrence(c: float) -> float:
    if not 0.0 <= c <= 1.0 + CONCURRENCE_SLACK:
        raise ValueError(f"concurrence {c} outside [0, 1]")
    c = min(c, 1.0)
    return binary_entropy((1.0 + math.sqrt(1.0 - c * c)) / 2.0)


def eof(rho) -> float:
    """Two-qubit entanglement of formation via the concurrence."""
    return eof_from_concurrence(concurrence(rho))


def pairwise_eof_table(rho: DensityMatrix) -> dict[tuple[int, int], float]:
    """Entanglement of formation of every two-qubit marginal.

    Keys are (mode id, mode id) pairs taken from the qubit order.
    """
    n = rho.n_qubits
    if n < 2:
        raise ValueError("need at least two qubits")
    pairs = list(itertools.combinations(range(n), 2))
    m = _symmetrized(rho)
    marginals = np.stack([_ptrace_matrix(m, n, list(pair)) for pair in pairs])
    return {
        (rho.qubit_order[i], rho.qubit_order[j]): eof_from_concurrence(float(c))
        for (i, j), c in zip(pairs, _concurrences(marginals))
    }

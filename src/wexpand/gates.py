"""The W-state expansion gate.

Wiring (fixed spatial ids): the input photon in mode 1 meets the two-photon
ancilla from mode 2 on a 50:50 beamsplitter whose outputs are mode 3 and
mode 4; a half-wave plate on mode 4 flips the sign of V to compensate the
reflection phase; mode 3 then splits on a second 50:50 beamsplitter (vacuum
auxiliary input, mode 7) into modes 5 and 6.  Success is post-selected on
one photon in each of the output modes 4, 5 and 6, which maps an N-qubit
W state whose accessed qubit enters mode 1 onto the (N+2)-qubit W state
with probability (N+2)/(16N).

The gate conserves the number of V photons, so a W-class input, one V
among its qubits, stays in the single-excitation subspace at any overlap.
``expand`` maps such a state, held as an (M x M) matrix, to its
(M+2 x M+2) post-selected output from two one-photon gate runs.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .fock import (
    DensityMatrix,
    PhotonicState,
    _qubit_vectors,
    number_state,
    single_photon,
    tensor,
    H,
    V,
)
from .optics import apply_circuit, apply_delay, beamsplitter, wave_plate
from .tolerances import POSTSELECT_MIN_PROBABILITY

MODE_INPUT = 1
MODE_ANCILLA = 2
MODE_INTERNAL = 3
MODE_AUX = 7
OUTPUT_MODES = (4, 5, 6)

# Mode ids every gate run expects to find in vacuum.
_GATE_CLEAN_MODES = (MODE_INTERNAL, MODE_AUX) + OUTPUT_MODES


class GateInputError(ValueError):
    """The gate input already holds photons in internal or output modes."""


# The gate wiring, in propagation order.
GATE_ELEMENTS = (
    beamsplitter(MODE_INPUT, MODE_ANCILLA, MODE_INTERNAL, OUTPUT_MODES[0]),
    wave_plate(OUTPUT_MODES[0], ((1, 0), (0, -1))),  # pi phase on V
    beamsplitter(
        MODE_INTERNAL, MODE_AUX, OUTPUT_MODES[1], OUTPUT_MODES[2], minus_on_out_a=True
    ),
)


def run_gate(state: PhotonicState) -> PhotonicState:
    """Propagate a state with photons in modes 1 and 2 through the gate."""
    dirty = state.spatial_modes() & set(_GATE_CLEAN_MODES)
    if dirty:
        raise GateInputError(f"gate input must leave modes {sorted(dirty)} in vacuum")
    return apply_circuit(state, GATE_ELEMENTS)


def w_state_qubits(n: int) -> np.ndarray:
    """The symmetric single-V qubit state of dimension 2^n."""
    if n < 1:
        raise ValueError("W state needs at least one qubit")
    vec = np.zeros(2**n, dtype=complex)
    vec[excitation_indices(n)] = 1.0 / math.sqrt(n)
    return vec


def two_photon_ancilla() -> PhotonicState:
    """Ideal ancilla: two H photons in the ancilla mode."""
    return number_state(MODE_ANCILLA, H, 2)


def through_gate(w_input: PhotonicState, overlap: float = 1.0) -> PhotonicState:
    """A W state whose accessed photon is in mode 1, and the two-photon
    ancilla delayed to wavepacket overlap ``overlap``, through the gate."""
    state = tensor(w_input, two_photon_ancilla())
    if overlap < 1.0:
        state = apply_delay(state, MODE_ANCILLA, overlap)
    return run_gate(state)


def success_probability_analytic(n: int) -> float:
    """Post-selection success probability (N+2)/(16N) for an N-qubit input."""
    if n < 1:
        raise ValueError("W state needs at least one qubit")
    return (n + 2) / (16.0 * n)


def excitation_indices(n: int) -> list[int]:
    """Basis index of the n-qubit state with V on qubit i, for each i."""
    return [1 << (n - 1 - i) for i in range(n)]


def excitation_density(matrix, qubit_order: Sequence[int]) -> DensityMatrix:
    """The 2^n density matrix of an unnormalized single-excitation matrix
    over the qubits of ``qubit_order``, normalized by its trace."""
    matrix = np.asarray(matrix, dtype=complex)
    probability = np.trace(matrix).real
    if probability <= POSTSELECT_MIN_PROBABILITY:
        raise ValueError("post-selection probability vanished")
    n = len(qubit_order)
    dense = np.zeros((2**n, 2**n), dtype=complex)
    dense[np.ix_(excitation_indices(n), excitation_indices(n))] = matrix / probability
    return DensityMatrix(dense, list(qubit_order))


def expand(rho, k: int, overlap: float = 1.0) -> np.ndarray:
    """Send qubit ``k`` of a single-excitation state through the gate.

    ``rho`` is an unnormalized M x M matrix whose entry (i, j) belongs to V
    on qubit i and V on qubit j.  The result is the same kind of matrix for
    the post-selected output: the M-1 untouched qubits in their order, then
    the output modes 4, 5, 6.  Its trace is the success probability.

    For each temporal-bin pattern b of the outputs, let h_b be the |HHH>
    amplitude of an H photon in mode 1 through the gate, and v_b the three
    single-V amplitudes of a V photon, both with the ancilla at wavepacket
    overlap ``overlap``.  With s = sum_b |h_b|^2, c = sum_b h_b v_b^* and
    G = sum_b v_b v_b^dagger, the output holds s rho_ij between untouched
    qubits, rho_ik c_a between untouched qubit i and output qubit a, and
    rho_kk G on the outputs.  The H run fills only untouched rows, so a
    one-qubit input runs the gate once.
    """
    rho = np.asarray(rho, dtype=complex)
    m = len(rho)
    if rho.shape != (m, m) or not 0 <= k < m:
        raise ValueError(f"need a square matrix and a qubit index below {m}")

    def outputs(pol):
        state = through_gate(single_photon(MODE_INPUT, pol), overlap)
        return _qubit_vectors(state, OUTPUT_MODES)[0]

    v = {b: vec[excitation_indices(3)] for b, vec in outputs(V).items()}
    out = np.zeros((m + 2, m + 2), dtype=complex)
    out[m - 1 :, m - 1 :] = rho[k, k] * sum(
        (np.outer(vb, vb.conj()) for vb in v.values()), np.zeros((3, 3))
    )
    if m > 1:
        h = {b: vec[0] for b, vec in outputs(H).items()}
        s = sum(abs(hb) ** 2 for hb in h.values())
        c = sum((hb * v[b].conj() for b, hb in h.items() if b in v), np.zeros(3))
        rest = [i for i in range(m) if i != k]
        out[: m - 1, : m - 1] = s * rho[np.ix_(rest, rest)]
        out[: m - 1, m - 1 :] = np.outer(rho[rest, k], c)
        out[m - 1 :, : m - 1] = np.outer(c.conj(), rho[k, rest])
    return out

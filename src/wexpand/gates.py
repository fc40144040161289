"""The W-state expansion gate.

Wiring (fixed spatial ids): the input photon in mode 1 meets the two-photon
ancilla from mode 2 on a 50:50 beamsplitter whose outputs are mode 3 and
mode 4; a half-wave plate on mode 4 flips the sign of V to compensate the
reflection phase; mode 3 then splits on a second 50:50 beamsplitter (vacuum
auxiliary input, mode 7) into modes 5 and 6.  Success is post-selected on
one photon in each of the output modes 4, 5 and 6, which maps an N-qubit
W state whose accessed qubit enters mode 1 onto the (N+2)-qubit W state
with probability (N+2)/(16N).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .fock import (
    DensityMatrix,
    PhotonicState,
    basis_vector,
    mode,
    number_state,
    postselect_qubits,
    qubit_amplitudes,
    single_photon,
    tensor,
    H,
    V,
)
from .optics import apply_circuit, apply_delay, beamsplitter, wave_plate

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
    amp = 1.0 / math.sqrt(n)
    for j in range(n):
        vec[1 << (n - 1 - j)] = amp
    return vec


def photonic_w_state(mode_ids: Sequence[int]) -> PhotonicState:
    """W state embedded as one photon per listed spatial mode."""
    ids = list(mode_ids)
    if not ids:
        raise ValueError("W state needs at least one mode")
    amp = 1.0 / math.sqrt(len(ids))
    return PhotonicState(
        {
            basis_vector({mode(m, V if m == v_mode else H): 1 for m in ids}): amp
            for v_mode in ids
        }
    )


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


def untouched_mode_ids(n: int) -> list[int]:
    """Spatial ids of the N-1 W-state photons that never enter the gate.

    Mode 0 comes first (the two-qubit seed keeps its untouched photon
    there); further photons take ids above the gate's wiring range.
    """
    if n < 1:
        raise ValueError("W state needs at least one qubit")
    if n == 1:
        return []
    return [0] + [MODE_AUX + 1 + k for k in range(n - 2)]


def success_probability_analytic(n: int) -> float:
    """Post-selection success probability (N+2)/(16N) for an N-qubit input."""
    if n < 1:
        raise ValueError("W state needs at least one qubit")
    return (n + 2) / (16.0 * n)


def _gate_branches() -> tuple[np.ndarray, np.ndarray]:
    """The output qubit amplitudes of an H and of a V photon alone in mode
    1 through the gate: the two gate runs every expansion is built from."""
    return tuple(
        qubit_amplitudes(through_gate(single_photon(MODE_INPUT, pol)), OUTPUT_MODES)
        for pol in (H, V)
    )


def expand_w(n: int) -> tuple[DensityMatrix, float]:
    """Expand an ideal N-qubit W state into an (N+2)-qubit one.

    The accessed qubit is routed photonically through the gate; the N-1
    untouched qubits never enter the optics and are carried directly as
    polarization qubits, which keeps the state size linear in N; the gate
    runs once for an H and once for a V photon in mode 1.  Output qubit
    order: untouched modes ascending, then the gate outputs 4, 5, 6.
    """
    if n < 1:
        raise ValueError("W state needs at least one qubit")
    return _expand_from_branches(n, _gate_branches())


def _expand_from_branches(
    n: int, branches: tuple[np.ndarray, np.ndarray]
) -> tuple[DensityMatrix, float]:
    """``expand_w(n)`` from the two runs of ``_gate_branches``."""
    branch_h, branch_v = branches
    rest = untouched_mode_ids(n)
    n_rest = len(rest)
    out = np.zeros(2 ** (n_rest + 3), dtype=complex)
    amp = 1.0 / math.sqrt(n)
    block = 8  # the three gate-output qubits are the least significant bits
    # V on one of the untouched qubits: the gate sees an H photon.
    for j in range(n_rest):
        rest_index = 1 << (n_rest - 1 - j)
        out[rest_index * block : (rest_index + 1) * block] += amp * branch_h
    # V enters the gate.
    out[0:block] += amp * branch_v

    probability = float(np.vdot(out, out).real)
    qubit_order = rest + list(OUTPUT_MODES)
    return DensityMatrix.from_pure(out, qubit_order), probability


def expand_w_full_photonic(n: int) -> tuple[DensityMatrix | None, float]:
    """Same expansion with every W-state photon represented in Fock space.

    Exponentially heavier than ``expand_w``; used to cross-check it on
    small instances.
    """
    if n < 1:
        raise ValueError("W state needs at least one qubit")
    rest = untouched_mode_ids(n)
    state = through_gate(photonic_w_state(rest + [MODE_INPUT]))
    return postselect_qubits(state, rest + list(OUTPUT_MODES))

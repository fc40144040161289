"""The W-state expansion gate.

Wiring (fixed spatial ids): the input photon in mode 1 meets the two-photon
ancilla from mode 2 on a 50:50 beamsplitter whose outputs are mode 3 and
mode 4; a half-wave plate on mode 4 flips the sign of V to compensate the
reflection phase; mode 3 then splits on a second 50:50 beamsplitter (vacuum
auxiliary input, mode 7) into modes 5 and 6.  Success is post-selected on
one photon in each of the output modes 4, 5 and 6, which maps an N-qubit
W state whose accessed qubit enters mode 1 onto the (N+2)-qubit W state
with probability (N+2)/(16N).

The gate is linear optics, so its one-photon map fixes every output.  A
photon from mode 1 or 2 lands only on the output modes 4, 5, 6, in its own
polarization and temporal bin; ``_TRANSFER`` holds its three amplitudes
there, composed once at import from ``GATE_ELEMENTS``, and ``run_gate``
looks them up.  The gate conserves the number of V photons, so a W-class
input, one V among its qubits, stays in the single-excitation subspace at
any overlap, where ``gate_constants`` gives the gate's map at overlap xi:
xi^2 times that of matched photons plus 1 - xi^2 times that of
distinguishable ones, the dip's model.  ``expand`` applies it to a state
held as an (M x M) matrix.  The W state and every statistic of a density
matrix live in ``entanglement``, which imports nothing from here.
"""

from __future__ import annotations

import math

import numpy as np

from .fock import mode, H, V
from .optics import _compose, beamsplitter, wave_plate

MODE_INPUT = 1
MODE_ANCILLA = 2
MODE_INTERNAL = 3
MODE_AUX = 7
OUTPUT_MODES = (4, 5, 6)


# The gate wiring, in propagation order.
GATE_ELEMENTS = (
    beamsplitter(MODE_INPUT, MODE_ANCILLA, MODE_INTERNAL, OUTPUT_MODES[0]),
    wave_plate(OUTPUT_MODES[0], ((1, 0), (0, -1))),  # pi phase on V
    beamsplitter(
        MODE_INTERNAL, MODE_AUX, OUTPUT_MODES[1], OUTPUT_MODES[2], minus_on_out_a=True
    ),
)


# (spatial, pol) -> amplitudes on outputs 4, 5, 6 of a photon from input
# mode 1 or 2; the two columns of each polarization form its 3 x 2 transfer
# matrix.
_TRANSFER = {
    (m, pol): tuple(
        complex(dict(_compose(mode(m, pol), GATE_ELEMENTS)).get(mode(out, pol), 0))
        for out in OUTPUT_MODES
    )
    for pol in (H, V)
    for m in (MODE_INPUT, MODE_ANCILLA)
}


def run_gate(spatial: int, pol: str) -> tuple[complex, complex, complex]:
    """The amplitudes on the output modes 4, 5, 6 of one photon entering on
    spatial mode ``spatial`` (1 or 2) with polarization ``pol``."""
    return _TRANSFER[spatial, pol]


def success_probability_analytic(n: int) -> float:
    """Post-selection success probability (N+2)/(16N) for an N-qubit input."""
    if n < 1:
        raise ValueError("W state needs at least one qubit")
    return (n + 2) / (16.0 * n)


def gate_constants(overlap: float = 1.0) -> tuple[float, tuple, tuple]:
    """The gate's map on single-excitation matrices at overlap xi, as plain
    numbers (s, c, G): sending qubit k of rho gives s rho_ij between
    untouched qubits, rho_ik c_a between untouched qubit i and output a, and
    rho_kk G (3 x 3, by rows) on the outputs.

    With u the input photon's ``run_gate`` amplitudes and g the ancilla
    photon's, the input photon lands in output i, one photon in each, at
    w_i = sqrt(2) u_i prod_{j != i} g_j: the permanent with the ancilla row
    taken twice, over the two-photon ancilla's norm sqrt(2).  h is w for an
    H input on |HHH>, v for a V input.  The output is xi^2 times the
    coherent one plus 1 - xi^2 times the one whose three routes do not
    interfere: s = xi^2 |sum h|^2 + (1 - xi^2) sum |h|^2,
    c = (xi^2 sum h + (1 - xi^2) h) v^* and G = xi^2 v v^dagger + (1 - xi^2) diag |v|^2.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap {overlap} outside [0, 1]")
    xi2 = float(overlap) ** 2
    g = run_gate(MODE_ANCILLA, H)
    # sqrt(2) prod_{j != i} g_j, for the input photon in output i.
    others = [math.sqrt(2) * g[j] * g[k] for j, k in ((1, 2), (0, 2), (0, 1))]
    h = [u * w for u, w in zip(run_gate(MODE_INPUT, H), others)]
    v = [u * w for u, w in zip(run_gate(MODE_INPUT, V), others)]
    total = sum(h)
    s = xi2 * abs(total) ** 2 + (1 - xi2) * sum((x.conjugate() * x).real for x in h)
    c = tuple((xi2 * total + (1 - xi2) * x) * y.conjugate() for x, y in zip(h, v))
    # Grouped as xi^2 (v_a v_b^*): a reordering moves reports in their last bits.
    gram = [[x * y.conjugate() for y in v] for x in v]
    g_block = tuple(tuple(xi2 * z + (1 - xi2) * (z if a == b else 0j) for b, z in enumerate(row))
                    for a, row in enumerate(gram))
    return s, c, g_block


def expand(rho, overlap: float = 1.0) -> np.ndarray:
    """Send the last qubit of a single-excitation state through the gate.

    ``rho`` is an unnormalized M x M matrix over "V on qubit i"; so is the
    post-selected output, filled from ``gate_constants``: the M-1 untouched
    qubits in their order, then the output modes 4, 5, 6.  Its trace is the
    success probability.
    """
    rho = np.asarray(rho, dtype=complex)
    m = len(rho)
    if m == 0 or rho.shape != (m, m):
        raise ValueError(f"need a non-empty square matrix; got shape {rho.shape}")
    s, c, g_block = gate_constants(overlap)
    out = np.empty((m + 2, m + 2), dtype=complex)  # at M = 1, three blocks are empty
    out[: m - 1, : m - 1] = s * rho[:-1, :-1]
    out[: m - 1, m - 1 :] = np.outer(rho[:-1, -1], c)
    out[m - 1 :, : m - 1] = np.outer(np.conj(c), rho[-1, :-1])
    out[m - 1 :, m - 1 :] = rho[-1, -1] * np.array(g_block)
    return out

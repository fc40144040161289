"""Test oracles and state helpers that the program itself does not need.

The Fock-space oracle sends whole photonic states through the gate's
elements with ``optics.apply_circuit``, where the program reads only the
gate's transfer table.  The states it starts from, number states and the
creation operator that builds the sources, live here too: no scenario
builds a Fock state.
"""

import cmath
import itertools
import math
from typing import Mapping, Sequence

import numpy as np

from wexpand.entanglement import (
    DensityMatrix,
    _concurrences,
    eof_from_concurrence,
    w_state_qubits,
)
from wexpand.fock import (
    PRINCIPAL,
    Basis,
    ModeLabel,
    PhotonicState,
    mode,
    postselect_qubits,
    tensor,
)
from wexpand.gates import (
    GATE_ELEMENTS,
    MODE_ANCILLA,
    MODE_AUX,
    MODE_INPUT,
    OUTPUT_MODES,
    expand,
)
from wexpand.optics import apply_circuit, apply_delay
from wexpand.sources import N_MAX, _poisson_weights
from wexpand.tomography import (
    PROJECTOR_KETS,
    default_settings,
    imlm_reconstruct,
    w_statistics,
)

ZERO_NORM = 1e-300  # a state or vector of smaller norm cannot be normalized
# The EOF of concurrence 1/2 (a W4 pair) and 2/3 (a W3 pair), frozen from
# the closed-form h((1+sqrt(1-C^2))/2), evaluated independently.
EOF_AT_HALF = 0.35457890266527003
EOF_AT_TWO_THIRDS = 0.5500477595827576

VACUUM: Basis = ()


def basis_vector(occupations: Mapping[ModeLabel, int]) -> Basis:
    """The basis vector with the given photon count per mode."""
    photons: list[ModeLabel] = []
    for label, count in occupations.items():
        if count < 0:
            raise ValueError(f"negative occupation {count} at {label!r}")
        photons.extend([label] * int(count))
    return tuple(sorted(photons))


def vacuum_state() -> PhotonicState:
    return PhotonicState({VACUUM: 1.0})


def number_state(spatial: int, pol: str, n: int, tbin: str = PRINCIPAL) -> PhotonicState:
    """Normalized n-photon state in a single mode."""
    if n < 0:
        raise ValueError("photon number must be nonnegative")
    return PhotonicState({basis_vector({mode(spatial, pol, tbin): n}): 1.0})


def single_photon(spatial: int, pol: str, tbin: str = PRINCIPAL) -> PhotonicState:
    return number_state(spatial, pol, 1, tbin)


def apply_creation(state: PhotonicState, label: ModeLabel) -> PhotonicState:
    """Creation operator on one mode; output is generally unnormalized."""
    out: dict[Basis, complex] = {}
    for fbv, amp in state.items():
        new = tuple(sorted(fbv + (label,)))
        out[new] = out.get(new, 0.0) + amp * math.sqrt(new.count(label))
    return PhotonicState(out)


def norm(state: PhotonicState) -> float:
    return math.sqrt(state.norm_squared())


def normalized(state: PhotonicState) -> PhotonicState:
    n = norm(state)
    if n < ZERO_NORM:
        raise ValueError("cannot normalize a zero state")
    return scaled(state, 1.0 / n)


def inner_product(a: PhotonicState, b: PhotonicState) -> complex:
    """<a|b>, conjugate-linear in ``a``."""
    other = b.terms
    return sum(
        (amp.conjugate() * other[fbv] for fbv, amp in a.items() if fbv in other),
        0.0 + 0.0j,
    )


def scaled(state: PhotonicState, factor: complex) -> PhotonicState:
    return PhotonicState({fbv: amp * factor for fbv, amp in state.items()})


def density_from_pure(vector, qubit_order: Sequence[int]) -> DensityMatrix:
    """|v><v| / <v|v> on the listed qubits."""
    vec = np.asarray(vector, dtype=complex)
    norm = np.linalg.norm(vec)
    if norm < ZERO_NORM:
        raise ValueError("cannot build a density matrix from a zero vector")
    vec = vec / norm
    return DensityMatrix(np.outer(vec, vec.conj()), list(qubit_order))


def w_density(n) -> DensityMatrix:
    return density_from_pure(w_state_qubits(n), list(range(n)))


def random_density(rng, dim: int, rank: int | None = None) -> np.ndarray:
    """A random dim x dim density matrix of the given rank (full by default)."""
    rank = rank or dim
    x = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def setting_projector(setting: Sequence[str]) -> np.ndarray:
    """Oracle for one setting of the measurement model: the rank-one
    projector onto the tensor product of the labeled kets."""
    ket = np.array([1.0], dtype=complex)
    for label in setting:
        ket = np.kron(ket, PROJECTOR_KETS[label])
    return np.outer(ket, ket.conj())


def born_probabilities(rho: DensityMatrix) -> np.ndarray:
    """Oracle for ``tomography.excitation_probabilities`` that takes any
    state: Tr(rho P_j) for every setting of ``default_settings``, one dense
    projector at a time, clipped at zero as the program's map is."""
    settings = default_settings(rho.n_qubits)
    traces = [np.trace(setting_projector(s) @ rho.matrix).real for s in settings]
    return np.clip(traces, 0.0, None)


def concurrence(rho: DensityMatrix) -> float:
    """Two-qubit concurrence from the spin-flipped spectrum: the kernel of
    ``pairwise_eof_table`` on one 4x4 matrix."""
    if rho.dim != 4:
        raise ValueError("expected a two-qubit (4x4) density matrix")
    return float(_concurrences(rho.matrix[None])[0])


def eof(rho: DensityMatrix) -> float:
    """Two-qubit entanglement of formation via the concurrence."""
    return eof_from_concurrence(concurrence(rho))


def partial_trace(rho: DensityMatrix, keep: Sequence[int]) -> DensityMatrix:
    """Oracle marginal on the qubits at positions ``keep``, in that order:
    entry (a, b) is the sum over every basis pattern t of the traced qubits
    of rho[(a, t), (b, t)], with each index assembled bit by bit."""
    keep = list(keep)
    n = rho.n_qubits
    traced = [q for q in range(n) if q not in keep]

    def index(kept_bits, traced_bits):
        bits = [0] * n
        for q, bit in zip(keep + traced, kept_bits + traced_bits):
            bits[q] = bit
        return sum(bit << (n - 1 - q) for q, bit in enumerate(bits))

    patterns = list(itertools.product((0, 1), repeat=len(keep)))
    rest = list(itertools.product((0, 1), repeat=len(traced)))
    marginal = np.zeros((len(patterns), len(patterns)), dtype=complex)
    for a, bits_a in enumerate(patterns):
        for b, bits_b in enumerate(patterns):
            marginal[a, b] = sum(
                rho.matrix[index(bits_a, t), index(bits_b, t)] for t in rest
            )
    return DensityMatrix(marginal, [rho.qubit_order[q] for q in keep])


def dip_table_by_enumeration(
    u: Sequence[complex], v: Sequence[complex], n_max: int
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Oracle for ``sources._dip_table``: every arrangement of the one photon
    of output amplitudes ``u`` and the n photons of amplitudes ``v``.

    With the first photon at a and the others at m - a, occupations m get
    m_a s_a, s_a = sqrt(n! / prod m!) u_a v^(m - a).  Their probability is
    |sum_a m_a s_a|^2 at xi = 1, where the photons interfere, and
    sum_a m_a |s_a|^2 at xi = 0, where they do not.  Only the arrangements
    with photons at both detectors, indices 0 and 1, count."""
    ids = range(len(u))
    flat, slope = [], []
    for n in range(n_max + 1):
        distinguishable = matched = 0.0
        for out in itertools.combinations_with_replacement(ids, n + 1):
            if not {0, 1} <= set(out):
                continue
            m = [out.count(j) for j in ids]
            root = math.sqrt(math.factorial(n) / math.prod(map(math.factorial, m)))
            s = [
                (m[a], root * u[a] * math.prod(v[j] ** (m[j] - (j == a)) for j in ids))
                for a in ids
                if m[a]
            ]
            matched += abs(sum(m_a * s_a for m_a, s_a in s)) ** 2
            distinguishable += sum(m_a * abs(s_a) ** 2 for m_a, s_a in s)
        flat.append(distinguishable)
        slope.append(matched - distinguishable)
    return tuple(flat), tuple(slope)


def fock_gate(state: PhotonicState) -> PhotonicState:
    """Oracle gate: a whole Fock state through the gate's elements."""
    return apply_circuit(state, GATE_ELEMENTS)


def two_photon_ancilla() -> PhotonicState:
    """Ideal ancilla: two H photons in the ancilla mode."""
    return number_state(MODE_ANCILLA, "H", 2)


def through_gate(w_input: PhotonicState, overlap: float = 1.0) -> PhotonicState:
    """A W state whose accessed photon is in mode 1, and the two-photon
    ancilla delayed to wavepacket overlap ``overlap``, through the gate."""
    state = tensor(w_input, two_photon_ancilla())
    if overlap < 1.0:
        state = apply_delay(state, MODE_ANCILLA, overlap)
    return fock_gate(state)


def weak_coherent_pulse(
    nu: float, spatial_mode: int = MODE_ANCILLA, phase: float = 0.0
) -> PhotonicState:
    """H-polarized coherent state of mean photon number ``nu``, truncated at
    ``N_MAX`` photons.

    Number-state amplitudes are sqrt(p_n) e^(i n phase), with p_n the Poisson
    weight renormalized over n <= N_MAX; a bright pulse gives |N_MAX>.
    """
    weights = _poisson_weights(nu, N_MAX)
    total = sum(weights)
    label = mode(spatial_mode, "H")
    return PhotonicState(
        {
            basis_vector({label: n}): math.sqrt(w / total) * cmath.exp(1j * n * phase)
            for n, w in enumerate(weights)
        }
    )


def spdc_pair(
    gamma: float,
    modes: tuple[int, int] = (0, 1),
    include_double_pairs: bool = False,
) -> PhotonicState:
    """Down-conversion output on two spatial modes, mostly vacuum.

    A diagonal pump emits sqrt(gamma) times the symmetric pair
    (|1_H 1_V> + |1_V 1_H>)/sqrt(2), already written in the local frame
    where it matches the two-qubit W state.  With ``include_double_pairs``
    the exponential pair-creation series is kept to second order, adding
    double-pair terms at amplitude O(gamma).
    """
    m0, m1 = modes
    root_gamma = math.sqrt(gamma)
    inv = 1.0 / math.sqrt(2.0)
    pair_ops = [
        ((mode(m0, "H"), mode(m1, "V")), inv),
        ((mode(m0, "V"), mode(m1, "H")), inv),
    ]

    def create_pair(state: PhotonicState) -> PhotonicState:
        grown: dict[Basis, complex] = {}
        for (lab_a, lab_b), coeff in pair_ops:
            for fbv, amp in apply_creation(apply_creation(state, lab_a), lab_b).items():
                grown[fbv] = grown.get(fbv, 0.0) + coeff * amp
        return PhotonicState(grown)

    terms = {VACUUM: 1.0}
    one_pair = create_pair(vacuum_state())
    for fbv, amp in one_pair.items():
        terms[fbv] = terms.get(fbv, 0.0) + root_gamma * amp
    if include_double_pairs:
        for fbv, amp in create_pair(one_pair).items():
            terms[fbv] = terms.get(fbv, 0.0) + (gamma / 2.0) * amp
    return normalized(PhotonicState(terms))


def rotation(angle: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Jones matrix of a polarization rotation by ``angle``; pi/2 maps H to V."""
    c, s = math.cos(angle), math.sin(angle)
    return ((c, -s), (s, c))


def heralded_single_photon(
    herald_mode: int = 0, signal_mode: int = MODE_INPUT
) -> PhotonicState:
    """Pair state conditioned on a herald click: |1_H>_herald |1_H>_signal."""
    return tensor(number_state(herald_mode, "H", 1), number_state(signal_mode, "H", 1))


def photonic_single_excitation(amplitudes, mode_ids: Sequence[int]) -> PhotonicState:
    """One photon per listed spatial mode, V on mode i with amplitude
    ``amplitudes[i]`` and H on all the others."""
    ids = list(mode_ids)
    return PhotonicState(
        {
            basis_vector({mode(m, "V" if m == v_mode else "H"): 1 for m in ids}): amp
            for v_mode, amp in zip(ids, amplitudes)
        }
    )


def photonic_w_state(mode_ids: Sequence[int]) -> PhotonicState:
    """W state embedded as one photon per listed spatial mode."""
    n = len(mode_ids)
    return photonic_single_excitation([1.0 / math.sqrt(n)] * n, mode_ids)


def untouched_mode_ids(n: int) -> list[int]:
    """Spatial ids of the N-1 W-state photons that never enter the gate:
    mode 0 first, then ids above the gate's wiring range."""
    return [0] + [MODE_AUX + 1 + k for k in range(n - 2)] if n > 1 else []


def expand_w_full_photonic(n: int, overlap: float = 1.0):
    """Oracle for expanding W_N: every W-state photon in Fock space, the
    ancilla at wavepacket overlap ``overlap``, post-selected on one photon
    per untouched mode and per output mode.  Exponentially heavier than
    ``gates.expand``."""
    rest = untouched_mode_ids(n)
    state = through_gate(photonic_w_state(rest + [MODE_INPUT]), overlap)
    return postselect_qubits(state, rest + list(OUTPUT_MODES))


def excitation_indices(n: int) -> list[int]:
    """Basis index of the n-qubit state with V on qubit i, for each i."""
    return [1 << (n - 1 - i) for i in range(n)]


def excitation_density(matrix, qubit_order: Sequence[int]) -> DensityMatrix:
    """The dense 2^n density matrix of an unnormalized single-excitation
    matrix over the qubits of ``qubit_order``, normalized by its trace."""
    matrix = np.asarray(matrix, dtype=complex)
    n = len(qubit_order)
    dense = np.zeros((2**n, 2**n), dtype=complex)
    single = np.ix_(excitation_indices(n), excitation_indices(n))
    dense[single] = matrix / np.trace(matrix).real
    return DensityMatrix(dense, list(qubit_order))


def expanded_w(n: int, overlap: float = 1.0) -> tuple[DensityMatrix, float]:
    """W_N expanded by ``gates.expand`` on its last qubit, as the dense
    state and the success probability, in the oracle's qubit order."""
    expanded = expand(np.ones((n, n)) / n, overlap)
    order = untouched_mode_ids(n) + list(OUTPUT_MODES)
    return excitation_density(expanded, order), float(np.trace(expanded).real)


def scaling_row_by_expansion(n: int, overlap: float) -> dict:
    """A ``scaling`` report row, less ``n`` and ``analytic``, read off the
    expansion of the whole W_N = J/N matrix: its trace, its fidelity
    sum(rho)/(N+2) and witness, and the smallest 2|rho_ij| over the pairs
    of each class, None for a class with no pair.  The untouched qubits
    come first."""
    expanded = expand(np.ones((n, n)) / n, overlap)
    probability = float(np.trace(expanded).real)
    rho = expanded / probability
    fid = float(rho.sum().real) / (n + 2)
    pairs = 2 * np.abs(rho)
    np.fill_diagonal(pairs, np.inf)
    u = n - 1

    def smallest(block):
        value = block.min(initial=np.inf)
        return float(value) if value < np.inf else None

    return {
        "simulated": probability,
        "fidelity": fid,
        "witness": (n + 1) / (n + 2) - fid,
        "pair_concurrence": {
            "untouched_untouched": smallest(pairs[:u, :u]),
            "untouched_new": smallest(pairs[:u, u:]),
            "new_new": smallest(pairs[u:, u:]),
        },
    }


def cold_bootstrap(counts, n_resamples: int, seed: int, qubit_order) -> tuple[dict, int]:
    """Reference for ``tomography.bootstrap_errors``: the same Poisson
    resamples, each fitted by one ``imlm_reconstruct`` from its own default
    start.  Returns the spread of their ``w_statistics``, under the same
    keys, and how many of the fits did not converge."""
    data = np.asarray(counts, dtype=float)
    fits = []
    for child in np.random.SeedSequence(seed).spawn(n_resamples):
        resampled = np.random.default_rng(child).poisson(data)
        if not resampled.any():
            resampled[:] = 1
        fits.append(imlm_reconstruct(resampled, qubit_order=qubit_order))
    stats = w_statistics([fit.rho for fit in fits])

    def spread(values):
        return float(np.std(list(values)))

    errors = {
        "fidelity": spread(s["fidelity"] for s in stats),
        "witness": spread(s["witness"] for s in stats),
        "pairwise_eof": {
            pair: spread(s["pairwise_eof"][pair] for s in stats)
            for pair in stats[0]["pairwise_eof"]
        },
    }
    return errors, sum(not fit.converged for fit in fits)

"""Mode labels and the sparse bosonic Fock engine.

A mode is labeled by (spatial path, polarization, temporal bin).  No
scenario runs the Fock engine: every number a scenario reports follows from
the gate's transfer table, and the engine is the reference the tests check
those numbers against; the tests build its states themselves.  A state is a
sparse complex amplitude map over Fock basis vectors, each stored as the
sorted tuple of its photons' mode labels.  All circuit evolution stays pure;
mixedness enters only in ``postselect_qubits``, which keeps one photon per
listed spatial mode, traces the temporal bins out of the surviving
polarization qubits and returns their ``entanglement.DensityMatrix``.
"""

from __future__ import annotations

import itertools
import math
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .entanglement import DensityMatrix
from .tolerances import (
    AMPLITUDE_PRUNE,
    POSTSELECT_MIN_PROBABILITY,
    POSTSELECT_NORM_ATOL,
)

H = "H"
V = "V"
POLARIZATIONS = (H, V)

# Two temporal bins are enough to model pairwise partial distinguishability:
# "p" is the principal wavepacket, "o" the orthogonal complement.
PRINCIPAL = "p"
ORTHOGONAL = "o"
TEMPORAL_BINS = (PRINCIPAL, ORTHOGONAL)

_POL_INDEX = {H: 0, V: 1}


class WiringError(ValueError):
    """Modes were combined in a way that signals a circuit-wiring bug."""


class ModeLabel(NamedTuple):
    spatial: int
    pol: str
    tbin: str = PRINCIPAL


def mode(spatial: int, pol: str, tbin: str = PRINCIPAL) -> ModeLabel:
    """Validated ``ModeLabel`` constructor."""
    if spatial < 0:
        raise ValueError(f"spatial mode id must be nonnegative, got {spatial}")
    if pol not in _POL_INDEX:
        raise ValueError(f"polarization must be one of {POLARIZATIONS}, got {pol!r}")
    if tbin not in TEMPORAL_BINS:
        raise ValueError(f"temporal bin must be one of {TEMPORAL_BINS}, got {tbin!r}")
    return ModeLabel(int(spatial), pol, tbin)


# A Fock basis vector is the sorted tuple of its photons' mode labels, one
# entry per photon, so equal occupations compare equal; the vacuum is ().
Basis = tuple[ModeLabel, ...]


def bosonic_norm(fbv: Basis) -> int:
    """prod_k n_k! over the modes of ``fbv``: (a^dag)^n |vac> = sqrt(n!) |n>."""
    return math.prod(
        math.factorial(len(list(group))) for _, group in itertools.groupby(fbv)
    )


class PhotonicState:
    """Sparse superposition of Fock basis vectors.

    Immutable after construction: every operation returns a new state, so
    values can be shared freely between threads.  Amplitudes below the prune
    threshold are dropped on construction.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Basis, complex]):
        self._terms = {
            fbv: complex(amp)
            for fbv, amp in terms.items()
            if abs(amp) > AMPLITUDE_PRUNE
        }

    @property
    def terms(self) -> Mapping[Basis, complex]:
        return MappingProxyType(self._terms)

    def items(self):
        return self._terms.items()

    def __len__(self) -> int:
        return len(self._terms)

    def norm_squared(self) -> float:
        return sum(abs(a) ** 2 for a in self._terms.values())

    def spatial_modes(self) -> frozenset[int]:
        return frozenset(lab.spatial for fbv in self._terms for lab in fbv)


def tensor(a: PhotonicState, b: PhotonicState) -> PhotonicState:
    """Join two states living on disjoint spatial modes."""
    shared = a.spatial_modes() & b.spatial_modes()
    if shared:
        raise WiringError(f"tensor factors share spatial modes {sorted(shared)}")
    return PhotonicState(
        {
            tuple(sorted(fa + fb)): amp_a * amp_b
            for fa, amp_a in a.items()
            for fb, amp_b in b.items()
        }
    )


def coincidence_probability(
    state: PhotonicState, spatial_modes: Sequence[int]
) -> float:
    """Probability that every listed spatial mode holds at least one photon.

    Models threshold detectors: terms are kept regardless of what the
    unlisted modes contain.
    """
    if not spatial_modes:
        raise ValueError("empty mode list")
    wanted = set(spatial_modes)
    total = 0.0
    for fbv, amp in state.items():
        if wanted <= {lab.spatial for lab in fbv}:
            total += abs(amp) ** 2
    return total


def postselect_qubits(
    state: PhotonicState, spatial_modes: Sequence[int]
) -> tuple[DensityMatrix | None, float]:
    """Project onto one photon per listed mode (vacuum elsewhere) and trace
    out the temporal bins.

    Returns the renormalized polarization-qubit density matrix, with qubits
    ordered as in ``spatial_modes``, together with the success probability.
    A probability at or below the flag threshold yields ``(None, 0.0)``.
    """
    if abs(state.norm_squared() - 1.0) > POSTSELECT_NORM_ATOL:
        raise ValueError("postselect_qubits expects a normalized state")
    modes = list(spatial_modes)
    wanted = set(modes)
    if not modes:
        raise ValueError("empty mode list")
    if len(wanted) != len(modes):
        raise ValueError("duplicate spatial modes in post-selection list")
    # Each temporal-bin pattern of the survivors is orthogonal to the others,
    # so it gets its own qubit amplitude vector, and tracing the bins out
    # sums their projectors.
    by_bins: dict[tuple[str, ...], np.ndarray] = {}
    probability = 0.0
    for fbv, amp in state.items():
        by_spatial = {lab.spatial: lab for lab in fbv}
        if len(fbv) != len(modes) or by_spatial.keys() != wanted:
            continue
        labels = [by_spatial[m] for m in modes]
        bins = tuple(lab.tbin for lab in labels)
        vec = by_bins.setdefault(bins, np.zeros(2 ** len(modes), dtype=complex))
        # The first qubit is the most significant bit of the index, and V is 1.
        vec[sum(_POL_INDEX[lab.pol] << k for k, lab in enumerate(labels[::-1]))] += amp
        probability += abs(amp) ** 2
    if probability <= POSTSELECT_MIN_PROBABILITY:
        return None, 0.0
    rho = sum(np.outer(vec, vec.conj()) for vec in by_bins.values()) / probability
    return DensityMatrix(rho, modes), probability

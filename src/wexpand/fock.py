"""Mode labels, polarization-qubit density matrices, and the sparse
bosonic Fock engine.

A mode is labeled by (spatial path, polarization, temporal bin).  The
scenarios use ``DensityMatrix`` only: every number they report follows from
the gate's transfer table.  The Fock engine is the reference the tests check
them against; the tests build its states themselves.  A state is a sparse
complex amplitude map over Fock basis vectors, each stored as the sorted
tuple of its photons' mode labels.  All circuit evolution stays pure;
mixedness enters only in ``postselect_qubits``, which keeps one photon per
listed spatial mode and traces the temporal bins out of the surviving
polarization qubits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .tolerances import (
    AMPLITUDE_PRUNE,
    HERMITICITY_ATOL,
    POSTSELECT_MIN_PROBABILITY,
    POSTSELECT_NORM_ATOL,
    PSD_ATOL,
    TRACE_ATOL,
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
) -> tuple["DensityMatrix | None", float]:
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

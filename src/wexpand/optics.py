"""Linear optical elements as creation-operator substitutions.

Every element is a unitary one-photon map: a creation operator on an input
mode is replaced by a linear combination of creation operators on output
modes.  A circuit composes its elements' maps into one one-photon map and
lifts that to the sparse Fock state once.  Circuits therefore conserve total
photon number and state norm exactly (up to float rounding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fock import (
    Basis,
    ModeLabel,
    ORTHOGONAL,
    PhotonicState,
    PRINCIPAL,
    H,
    V,
    bosonic_norm,
)
from .tolerances import UNITARY_ATOL

REFLECTION_MINUS_ON_OUT_A = "reflection_minus_on_out_a"
REFLECTION_MINUS_ON_OUT_B = "reflection_minus_on_out_b"
_SIGN_CONVENTIONS = {
    # (r1, r2): sign of the in_a -> out_b reflection, sign of in_b -> out_a.
    REFLECTION_MINUS_ON_OUT_A: (1.0, -1.0),
    REFLECTION_MINUS_ON_OUT_B: (-1.0, 1.0),
}

# The one-photon image of a mode label: (output label, coefficient) pairs,
# or None for a label the element or circuit leaves alone.
Image = Optional[list[tuple[ModeLabel, complex]]]


@dataclass(frozen=True)
class BeamsplitterSpec:
    """Two-input two-output beamsplitter acting on spatial modes only.

    The mode matrix is
        a_in_a -> sqrt(T) a_out_a + r1 sqrt(1-T) a_out_b
        a_in_b -> r2 sqrt(1-T) a_out_a + sqrt(T) a_out_b
    with (r1, r2) = (+1, -1) or (-1, +1) chosen by ``sign_convention``: the
    minus sign sits on the reflection into the named output arm.
    """

    in_a: int
    in_b: int
    out_a: int
    out_b: int
    transmissivity: float = 0.5
    sign_convention: str = REFLECTION_MINUS_ON_OUT_B

    def __post_init__(self):
        if self.in_a == self.in_b or self.out_a == self.out_b:
            raise ValueError("beamsplitter ports must be distinct")
        if not 0.0 <= self.transmissivity <= 1.0:
            raise ValueError(f"transmissivity {self.transmissivity} outside [0, 1]")
        if self.sign_convention not in _SIGN_CONVENTIONS:
            raise ValueError(f"unknown sign convention {self.sign_convention!r}")
        m = self.mode_matrix()
        if np.max(np.abs(m.conj().T @ m - np.eye(2))) > UNITARY_ATOL:
            raise ValueError("beamsplitter mode matrix is not unitary")

    def mode_matrix(self) -> np.ndarray:
        """2x2 matrix on (in_a, in_b) -> (out_a, out_b)."""
        t = math.sqrt(self.transmissivity)
        r = math.sqrt(1.0 - self.transmissivity)
        r1, r2 = _SIGN_CONVENTIONS[self.sign_convention]
        return np.array([[t, r2 * r], [r1 * r, t]])

    def image(self, lab: ModeLabel) -> Image:
        """Route a photon between the spatial ports, keeping polarization
        and temporal bin."""
        if lab.spatial not in (self.in_a, self.in_b):
            return None
        col = 0 if lab.spatial == self.in_a else 1
        m = self.mode_matrix().tolist()
        return [
            (lab._replace(spatial=self.out_a), m[0][col]),
            (lab._replace(spatial=self.out_b), m[1][col]),
        ]


@dataclass(frozen=True)
class JonesUnitary:
    """2x2 polarization unitary acting on (H, V) at one spatial mode."""

    matrix: tuple[tuple[complex, complex], tuple[complex, complex]]

    def __post_init__(self):
        u = self.as_array()
        if np.max(np.abs(u.conj().T @ u - np.eye(2))) > UNITARY_ATOL:
            raise ValueError("Jones matrix is not unitary")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.matrix, dtype=complex)

    @staticmethod
    def v_phase_flip() -> "JonesUnitary":
        """Half-wave plate aligned to add a pi phase on V."""
        return JonesUnitary(((1.0, 0.0), (0.0, -1.0)))


@dataclass(frozen=True)
class JonesElement:
    """Polarization unitary at one spatial mode (both temporal bins)."""

    spatial: int
    jones: JonesUnitary

    def image(self, lab: ModeLabel) -> Image:
        if lab.spatial != self.spatial:
            return None
        column = self.jones.as_array()[:, 0 if lab.pol == H else 1].tolist()
        return [(lab._replace(pol=H), column[0]), (lab._replace(pol=V), column[1])]


@dataclass(frozen=True)
class DelayElement:
    """Rotation of the principal temporal bin at one spatial mode.

    ``overlap`` is the residual wavepacket overlap xi in [0, 1]: xi = 1 keeps
    the photon fully in the principal bin, xi = 0 makes it fully
    distinguishable.  The orthogonal bin rotates along to keep the map
    unitary.
    """

    spatial: int
    overlap: float

    def __post_init__(self):
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError(f"overlap {self.overlap} outside [0, 1]")

    def image(self, lab: ModeLabel) -> Image:
        if lab.spatial != self.spatial:
            return None
        xi = float(self.overlap)
        s = math.sqrt(max(0.0, 1.0 - xi * xi))
        principal = lab._replace(tbin=PRINCIPAL)
        orthogonal = lab._replace(tbin=ORTHOGONAL)
        if lab.tbin == PRINCIPAL:
            return [(principal, xi), (orthogonal, s)]
        return [(principal, -s), (orthogonal, xi)]


def _compose(label: ModeLabel, elements: Sequence) -> Image:
    """One-photon image of ``label`` through the whole element list."""
    current = {label: 1.0}
    touched = False
    for element in elements:
        step: dict[ModeLabel, complex] = {}
        for lab, c in current.items():
            image = element.image(lab)
            if image is None:
                step[lab] = step.get(lab, 0.0) + c
                continue
            touched = True
            for target, d in image:
                if d:
                    step[target] = step.get(target, 0.0) + c * d
        current = step
    return [(lab, c) for lab, c in current.items() if c] if touched else None


def _transform(state: PhotonicState, images: dict[ModeLabel, Image]) -> PhotonicState:
    """Lift a one-photon linear map to the whole Fock state.

    A basis vector with occupations n is prod_k (a_k^dag)^(n_k) |vac> /
    sqrt(prod n_k!); substituting each creation operator by its image and
    expanding gives, for every output occupation m, the sum over photon
    routings times sqrt(prod m_j! / prod n_k!).  Photons on labels the map
    leaves alone (image None) stay where they are.
    """
    out: dict[Basis, complex] = {}
    for fbv, amp in state.items():
        work: dict[Basis, complex] = {(): amp}
        for lab in fbv:
            image = images[lab]
            if image is None:
                image = [(lab, 1.0)]
            grown: dict[Basis, complex] = {}
            for base, a in work.items():
                for target, c in image:
                    key = tuple(sorted(base + (target,)))
                    grown[key] = grown.get(key, 0.0) + a * c
            work = grown
        weight_in = bosonic_norm(fbv)
        for key, a in work.items():
            a *= math.sqrt(bosonic_norm(key) / weight_in)
            out[key] = out.get(key, 0.0) + a
    return PhotonicState(out)


def apply_circuit(state: PhotonicState, elements: Sequence) -> PhotonicState:
    """Propagate ``state`` through the elements in order, with one Fock lift
    of their composed one-photon map."""
    labels = {lab for fbv in state.terms for lab in fbv}
    return _transform(state, {lab: _compose(lab, elements) for lab in labels})


def apply_delay(state: PhotonicState, spatial_mode: int, overlap: float) -> PhotonicState:
    """Delay the photons of one spatial mode to wavepacket overlap
    ``overlap`` (see ``DelayElement``)."""
    return apply_circuit(state, [DelayElement(spatial_mode, overlap)])

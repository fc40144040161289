"""Linear optical elements as creation-operator substitutions.

Every element is a unitary one-photon map: a creation operator on an input
mode is replaced by a linear combination of creation operators on output
modes, and the substitution is lifted to arbitrary sparse Fock states.
Elements therefore conserve total photon number and state norm exactly
(up to float rounding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .fock import (
    FockBasisVector,
    ModeLabel,
    ORTHOGONAL,
    PhotonicState,
    PRINCIPAL,
    H,
    V,
)
from .tolerances import UNITARY_ATOL

REFLECTION_MINUS_ON_OUT_A = "reflection_minus_on_out_a"
REFLECTION_MINUS_ON_OUT_B = "reflection_minus_on_out_b"
_SIGN_CONVENTIONS = {
    # (r1, r2): sign of the in_a -> out_b reflection, sign of in_b -> out_a.
    REFLECTION_MINUS_ON_OUT_A: (1.0, -1.0),
    REFLECTION_MINUS_ON_OUT_B: (-1.0, 1.0),
}

# One image per input label: list of (output label, coefficient).
ImageFn = Callable[[ModeLabel], "list[tuple[ModeLabel, complex]] | None"]


def _transform(state: PhotonicState, image_fn: ImageFn) -> PhotonicState:
    """Lift a one-photon linear map to the whole Fock state.

    ``image_fn`` returns the substitution for labels the element acts on and
    None for labels it leaves alone.  Each basis vector is rebuilt photon by
    photon, dividing out the sqrt(n!) normalization of the touched modes and
    letting the creation-factor bookkeeping restore it on the output side.
    """
    out: dict[FockBasisVector, complex] = {}
    for fbv, amp in state.items():
        touched: list[tuple[ModeLabel, int, list]] = []
        untouched: dict[ModeLabel, int] = {}
        for lab, n in fbv.occ:
            image = image_fn(lab)
            if image is None:
                untouched[lab] = n
            else:
                touched.append((lab, n, image))
        if not touched:
            out[fbv] = out.get(fbv, 0.0) + amp
            continue

        coeff = amp
        for _, n, _ in touched:
            coeff /= math.sqrt(math.factorial(n))
        work: dict[FockBasisVector, complex] = {
            FockBasisVector.from_occupations(untouched): coeff
        }
        for _, n, image in touched:
            for _ in range(n):
                grown: dict[FockBasisVector, complex] = {}
                for base, a in work.items():
                    for target, c in image:
                        if not c:
                            continue
                        new, factor = base.added(target)
                        grown[new] = grown.get(new, 0.0) + a * c * factor
                work = grown
        for f2, a2 in work.items():
            out[f2] = out.get(f2, 0.0) + a2
    return PhotonicState(out)


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
        if np.max(np.abs(self.mode_matrix().conj().T @ self.mode_matrix() - np.eye(2))) > UNITARY_ATOL:
            raise ValueError("beamsplitter mode matrix is not unitary")

    def mode_matrix(self) -> np.ndarray:
        """2x2 matrix on (in_a, in_b) -> (out_a, out_b)."""
        t = math.sqrt(self.transmissivity)
        r = math.sqrt(1.0 - self.transmissivity)
        r1, r2 = _SIGN_CONVENTIONS[self.sign_convention]
        return np.array([[t, r2 * r], [r1 * r, t]])

    def inverse(self) -> "BeamsplitterSpec":
        """Beamsplitter undoing this one (outputs fed back as inputs)."""
        flipped = (
            REFLECTION_MINUS_ON_OUT_B
            if self.sign_convention == REFLECTION_MINUS_ON_OUT_A
            else REFLECTION_MINUS_ON_OUT_A
        )
        return BeamsplitterSpec(
            in_a=self.out_a,
            in_b=self.out_b,
            out_a=self.in_a,
            out_b=self.in_b,
            transmissivity=self.transmissivity,
            sign_convention=flipped,
        )


def apply_beamsplitter(state: PhotonicState, spec: BeamsplitterSpec) -> PhotonicState:
    """Route photons through a beamsplitter, leaving polarization and
    temporal bins untouched."""
    t = math.sqrt(spec.transmissivity)
    r = math.sqrt(1.0 - spec.transmissivity)
    r1, r2 = _SIGN_CONVENTIONS[spec.sign_convention]

    def image(lab: ModeLabel):
        if lab.spatial == spec.in_a:
            return [
                (ModeLabel(spec.out_a, lab.pol, lab.tbin), t),
                (ModeLabel(spec.out_b, lab.pol, lab.tbin), r1 * r),
            ]
        if lab.spatial == spec.in_b:
            return [
                (ModeLabel(spec.out_a, lab.pol, lab.tbin), r2 * r),
                (ModeLabel(spec.out_b, lab.pol, lab.tbin), t),
            ]
        return None

    return _transform(state, image)


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
    def identity() -> "JonesUnitary":
        return JonesUnitary(((1.0, 0.0), (0.0, 1.0)))

    @staticmethod
    def v_phase_flip() -> "JonesUnitary":
        """Half-wave plate aligned to add a pi phase on V."""
        return JonesUnitary(((1.0, 0.0), (0.0, -1.0)))

    @staticmethod
    def rotation(angle: float) -> "JonesUnitary":
        """Polarization rotation by ``angle``; pi/2 maps H to V."""
        c, s = math.cos(angle), math.sin(angle)
        return JonesUnitary(((c, -s), (s, c)))


def apply_jones(state: PhotonicState, spatial_mode: int, u: JonesUnitary) -> PhotonicState:
    """Apply a polarization unitary at one spatial mode (both temporal bins)."""
    m = u.as_array()

    def image(lab: ModeLabel):
        if lab.spatial != spatial_mode:
            return None
        col = 0 if lab.pol == H else 1
        return [
            (ModeLabel(lab.spatial, H, lab.tbin), m[0, col]),
            (ModeLabel(lab.spatial, V, lab.tbin), m[1, col]),
        ]

    return _transform(state, image)


def apply_delay(state: PhotonicState, spatial_mode: int, overlap: float) -> PhotonicState:
    """Rotate the principal temporal bin at one spatial mode.

    ``overlap`` is the residual wavepacket overlap xi in [0, 1]: xi = 1 keeps
    the photon fully in the principal bin, xi = 0 makes it fully
    distinguishable.  The orthogonal bin rotates along to keep the map
    unitary.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap {overlap} outside [0, 1]")
    xi = float(overlap)
    s = math.sqrt(max(0.0, 1.0 - xi * xi))

    def image(lab: ModeLabel):
        if lab.spatial != spatial_mode:
            return None
        if lab.tbin == PRINCIPAL:
            return [
                (ModeLabel(lab.spatial, lab.pol, PRINCIPAL), xi),
                (ModeLabel(lab.spatial, lab.pol, ORTHOGONAL), s),
            ]
        return [
            (ModeLabel(lab.spatial, lab.pol, PRINCIPAL), -s),
            (ModeLabel(lab.spatial, lab.pol, ORTHOGONAL), xi),
        ]

    return _transform(state, image)


@dataclass(frozen=True)
class JonesElement:
    spatial: int
    jones: JonesUnitary


@dataclass(frozen=True)
class DelayElement:
    spatial: int
    overlap: float


def apply_element(state: PhotonicState, element) -> PhotonicState:
    if isinstance(element, BeamsplitterSpec):
        return apply_beamsplitter(state, element)
    if isinstance(element, JonesElement):
        return apply_jones(state, element.spatial, element.jones)
    if isinstance(element, DelayElement):
        return apply_delay(state, element.spatial, element.overlap)
    raise TypeError(f"unknown circuit element {element!r}")


def apply_circuit(state: PhotonicState, elements: Sequence) -> PhotonicState:
    for element in elements:
        state = apply_element(state, element)
    return state

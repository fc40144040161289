"""Linear optical elements as creation-operator substitutions.

Every element is a unitary one-photon map: a creation operator on an input
mode is replaced by a linear combination of creation operators on output
modes.  ``_compose`` gives a photon's image through a whole circuit, from
which ``gates`` builds the transfer table that the scenarios read.
``apply_circuit`` lifts that map to a sparse Fock state (a ``fock.State``
dict) once, for the tests' reference runs; it conserves total photon number
and state norm exactly (up to float rounding).
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
    PRINCIPAL,
    H,
    State,
    V,
    bosonic_norm,
    pruned,
)
from .tolerances import UNITARY_ATOL

# The one-photon image of a mode label: (output label, coefficient) pairs.
Image = list[tuple[ModeLabel, complex]]


@dataclass(frozen=True)
class Element:
    """A 2x2 unitary on one field of the mode label.

    ``field`` is "spatial", "pol" or "tbin".  A photon whose ``field`` value
    is ``inputs[j]`` goes to ``outputs[i]`` with coefficient
    ``matrix[i][j]``, keeping its other fields.  With ``spatial`` set, only
    photons in that spatial mode are touched.
    """

    field: str
    inputs: tuple
    outputs: tuple
    matrix: tuple[tuple[complex, complex], tuple[complex, complex]]
    spatial: Optional[int] = None

    def __post_init__(self):
        if len(set(self.inputs)) != 2 or len(set(self.outputs)) != 2:
            raise ValueError("element ports must be distinct")
        m = np.asarray(self.matrix, dtype=complex)
        if np.max(np.abs(m.conj().T @ m - np.eye(2))) > UNITARY_ATOL:
            raise ValueError("element matrix is not unitary")

    def image(self, lab: ModeLabel) -> Optional[Image]:
        """The image of ``lab``, or None if this element leaves it alone."""
        if self.spatial is not None and lab.spatial != self.spatial:
            return None
        value = getattr(lab, self.field)
        if value not in self.inputs:
            return None
        col = self.inputs.index(value)
        return [
            (lab._replace(**{self.field: out}), row[col])
            for out, row in zip(self.outputs, self.matrix)
        ]


def beamsplitter(
    in_a: int, in_b: int, out_a: int, out_b: int, minus_on_out_a: bool = False
) -> Element:
    """Balanced (50:50) beamsplitter between spatial ports, keeping
    polarization and temporal bin.  Transmission (in_a to out_a, in_b to
    out_b) and reflection both have amplitude 1/sqrt(2), with a minus sign
    on the reflection into out_b, or into out_a if ``minus_on_out_a``."""
    r = math.sqrt(0.5)
    matrix = ((r, -r), (r, r)) if minus_on_out_a else ((r, r), (-r, r))
    return Element("spatial", (in_a, in_b), (out_a, out_b), matrix)


def wave_plate(spatial: int, jones) -> Element:
    """Polarization unitary (Jones matrix on (H, V)) at one spatial mode,
    both temporal bins."""
    matrix = tuple(map(tuple, np.asarray(jones, dtype=complex).tolist()))
    return Element("pol", (H, V), (H, V), matrix, spatial)


def delay(spatial: int, overlap: float) -> Element:
    """Rotation of the principal temporal bin at one spatial mode.

    ``overlap`` is the residual wavepacket overlap xi in [0, 1]: xi = 1 keeps
    the photon fully in the principal bin, xi = 0 makes it fully
    distinguishable.  The orthogonal bin rotates along to keep the map
    unitary.
    """
    if not 0.0 <= overlap <= 1.0:
        raise ValueError(f"overlap {overlap} outside [0, 1]")
    xi = float(overlap)
    s = math.sqrt(1.0 - xi * xi)
    bins = (PRINCIPAL, ORTHOGONAL)
    return Element("tbin", bins, bins, ((xi, -s), (s, xi)), spatial)


def _compose(label: ModeLabel, elements: Sequence) -> Image:
    """One-photon image of ``label`` through the whole element list; a label
    no element touches is its own image, ``[(label, 1.0)]``."""
    current = {label: 1.0}
    for element in elements:
        step: dict[ModeLabel, complex] = {}
        for lab, c in current.items():
            for target, d in element.image(lab) or [(lab, 1.0)]:
                if d:
                    step[target] = step.get(target, 0.0) + c * d
        current = step
    return [(lab, c) for lab, c in current.items() if c]


def _transform(state: State, images: dict[ModeLabel, Image]) -> State:
    """Lift a one-photon linear map to the whole Fock state.

    A basis vector with occupations n is prod_k (a_k^dag)^(n_k) |vac> /
    sqrt(prod n_k!); substituting each creation operator by its image and
    expanding gives, for every output occupation m, the sum over photon
    routings times sqrt(prod m_j! / prod n_k!).
    """
    out: dict[Basis, complex] = {}
    for fbv, amp in state.items():
        work: dict[Basis, complex] = {(): amp}
        for lab in fbv:
            grown: dict[Basis, complex] = {}
            for base, a in work.items():
                for target, c in images[lab]:
                    key = tuple(sorted(base + (target,)))
                    grown[key] = grown.get(key, 0.0) + a * c
            work = grown
        weight_in = bosonic_norm(fbv)
        for key, a in work.items():
            a *= math.sqrt(bosonic_norm(key) / weight_in)
            out[key] = out.get(key, 0.0) + a
    return pruned(out)


def apply_circuit(state: State, elements: Sequence) -> State:
    """Propagate ``state`` through the elements in order, with one Fock lift
    of their composed one-photon map."""
    labels = {lab for fbv in state for lab in fbv}
    return _transform(state, {lab: _compose(lab, elements) for lab in labels})


def apply_delay(state: State, spatial_mode: int, overlap: float) -> State:
    """Delay the photons of one spatial mode to wavepacket overlap
    ``overlap`` (see ``delay``)."""
    return apply_circuit(state, [delay(spatial_mode, overlap)])

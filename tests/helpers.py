"""Test oracles and state helpers that the program itself does not need."""

import math

from wexpand.fock import PhotonicState, number_state, tensor
from wexpand.gates import MODE_INPUT


def inner_product(a: PhotonicState, b: PhotonicState) -> complex:
    """<a|b>, conjugate-linear in ``a``."""
    other = b.terms
    return sum(
        (amp.conjugate() * other[fbv] for fbv, amp in a.items() if fbv in other),
        0.0 + 0.0j,
    )


def scaled(state: PhotonicState, factor: complex) -> PhotonicState:
    return PhotonicState({fbv: amp * factor for fbv, amp in state.items()})


def rotation(angle: float) -> tuple[tuple[float, float], tuple[float, float]]:
    """Jones matrix of a polarization rotation by ``angle``; pi/2 maps H to V."""
    c, s = math.cos(angle), math.sin(angle)
    return ((c, -s), (s, c))


def heralded_single_photon(
    herald_mode: int = 0, signal_mode: int = MODE_INPUT
) -> PhotonicState:
    """Pair state conditioned on a herald click: |1_H>_herald |1_H>_signal."""
    return tensor(number_state(herald_mode, "H", 1), number_state(signal_mode, "H", 1))

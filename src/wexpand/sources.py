"""The coherent-pulse dip at the gate's first beamsplitter.

A heralded single photon meets a weak coherent pulse (WCP), which stands in
experimentally for the gate's two-photon Fock ancilla.  The threefold
coincidence follows from the gate's amplitudes for the two photons,
weighted over the pulse's photon number, and the delay scan maps out the
Hong-Ou-Mandel dip.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import Sequence

from .fock import H
from .gates import MODE_ANCILLA, MODE_INPUT, run_gate


# Photon-number truncation of the coherent pulse.
N_MAX = 4


def _poisson_weights(nu: float, n_max: int) -> list[float]:
    """Truncated Poisson weights nu^n / n!, n <= n_max, proportional to the
    photon-number probabilities p_n of the pulse.  They are divided by
    max(nu, 1)^n_max, so that no power of a large nu overflows; for
    nu <= 1 the division is by 1.0 exactly."""
    if not 0.0 <= nu < math.inf:
        raise ValueError(f"nu must be finite and nonnegative, got {nu!r}")
    scale = max(nu, 1.0)
    return [
        (nu / scale) ** n * scale ** (n - n_max) / math.factorial(n)
        for n in range(n_max + 1)
    ]


def delay_overlap(delay_um: float, coherence_length_um: float) -> float:
    """Wavepacket overlap xi(delay) for a Gaussian pulse.

    Scaled so that the coincidence dip, which goes as xi^2, decays as
    exp(-delay^2 / l_c^2) with l_c the fitted coherence length.
    """
    x = delay_um / coherence_length_um
    return math.exp(-0.5 * x * x)


@functools.cache
def _dip_table(
    u: tuple, v: tuple, n_max: int
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(A_n, B_n), n <= n_max, memoized on the two amplitude vectors: with
    one photon of output amplitudes ``u`` and n of amplitudes ``v``, as
    ``gates.run_gate`` returns them, at overlap xi, the detectors at indices
    0 and 1 (modes 4 and 5) both hold a photon with probability
    A_n + B_n xi^2.

    Restricted to the indices outside a set S, u_S and v_S leave S dark with
    probability ||a_u+ (a_v+)^n |0>||^2 / n! =
    |u_S|^2 |v_S|^(2n) + xi^2 n |<u_S, v_S>|^2 |v_S|^(2n - 2), and
    inclusion-exclusion over S in {}, {0}, {1}, {0, 1} gives the table.  One
    photon cannot fire two detectors, so the n = 0 row is exactly zero.
    """
    flat, slope = [0.0] * (n_max + 1), [0.0] * (n_max + 1)
    for sign, dark in ((1, ()), (-1, (0,)), (-1, (1,)), (1, (0, 1))):
        kept = [pair for i, pair in enumerate(zip(u, v)) if i not in dark]
        uu = sum(abs(a) ** 2 for a, _ in kept)
        vv = sum(abs(b) ** 2 for _, b in kept)
        uv = abs(sum(a.conjugate() * b for a, b in kept)) ** 2
        for n in range(1, n_max + 1):
            flat[n] += sign * uu * vv**n
            slope[n] += sign * n * uv * vv ** (n - 1)
    return tuple(flat), tuple(slope)


def dip_coefficients(nu: float) -> tuple[float, float]:
    """(a, b) with C(xi) = a + b xi^2 for the threefold coincidence.

    The pulse holds n photons with the truncated Poisson weight
    p_n = (nu^n / n!) / sum_{k <= N_MAX} nu^k / k!, and C is the p_n-weighted
    sum of the per-photon-number coincidences A_n + B_n xi^2, each exactly
    affine in xi^2 because threshold detection adds the temporal bins of the
    delayed pulse in probability.  With n pulse photons the coincidence of
    the herald, which always clicks, and modes 4 and 5 is the ``_dip_table``
    of the gate's amplitudes for the input photon and a pulse photon, so
    neither coefficient depends on the overlap or the pulse phase; memoized
    on the amplitudes, the table leaves only the weighting per ``nu``.
    ``a`` is the level far outside the dip, where the photons are fully
    distinguishable.
    """
    u, v = (run_gate(m, H) for m in (MODE_INPUT, MODE_ANCILLA))
    flat, slope = _dip_table(u, v, N_MAX)
    weights = _poisson_weights(nu, N_MAX)
    total = sum(weights)
    a = sum(w * c for w, c in zip(weights, flat)) / total
    if a < sys.float_info.min:
        # Below a float's normal range the coefficients lose bits, and the
        # calibrated dip would miss its target without an error.
        raise ValueError(
            f"nu {nu!r} is too small to form a dip: its threefold "
            "coincidences lie below a float's normal range"
        )
    return a, sum(w * c for w, c in zip(weights, slope)) / total


def hom_scan(
    delays: Sequence[float],
    dip: tuple[float, float],
    overlap: float,
    coherence_length: float,
) -> list[tuple[float, float]]:
    """Coincidence dip: threefold probability versus delay in micrometers.

    A heralded single photon meets the delayed coherent pulse at the gate's
    first beamsplitter; the static mode overlap ``overlap`` caps the
    zero-delay overlap, and the dip's 1/e half-width is ``coherence_length``
    micrometers.  ``dip`` is ``dip_coefficients(nu)``.
    """
    a, b = dip
    curve = []
    for delta in delays:
        xi = overlap * delay_overlap(delta, coherence_length)
        curve.append((float(delta), a + b * xi * xi))
    return curve


def hom_visibility(dip: tuple[float, float], overlap: float) -> float:
    """1 - C(0)/C(inf) of the modeled dip at static overlap xi_0, -b xi_0^2 / a."""
    a, b = dip
    return -b * overlap**2 / a


def calibrate_overlap_for_visibility(
    target_visibility: float, dip: tuple[float, float]
) -> float:
    """Static overlap xi_0 that makes the modeled dip hit a target visibility.

    The visibility is -b xi_0^2 / a, so xi_0 = sqrt(V a / -b).  The
    multiphoton background of the coherent pulse caps it at -b/a < 1;
    requesting more than the cap raises.
    """
    a, b = dip
    cap = -b / a
    if cap < target_visibility:
        raise ValueError(
            "target visibility exceeds the multiphoton-limited maximum "
            f"{cap:.4f}"
        )
    return math.sqrt(target_visibility * a / -b)

"""Host-speed probe: a fixed piece of work that uses no wexpand code.

On a shared host the CPU speed a process gets drifts by a fifth or more
over tens of seconds, so the wall time of one unchanged scenario drifts
with it.  The benchmark times this probe after every scenario and rescales
each scenario's wall seconds by how fast the host ran around it (see
``rescaled``).  A change to the program moves the rescaled time as much as
the wall time, because the probe does not run program code; a change of
host speed moves both the scenario and the probe, and cancels.

The work mixes the two kinds the workloads spend their time on: Python
dict updates over tuple keys with complex amplitudes, as in Fock-state
propagation, and small complex matrix products and eigendecompositions,
as in the d=8 tomography fits.
"""

from __future__ import annotations

import time

import numpy as np

# Seconds one probe takes on a calm host of the machine the benchmark was
# defined on (a shared 2-core Xeon VM).  Rescaled times are seconds on a
# host where the probe takes this long.
REFERENCE_S = 0.05

_DICT_ROUNDS = 18
_MATRIX_ROUNDS = 500
_DIM = 8


def _dict_work() -> int:
    state = {(i, i % 3, i % 5): complex(i, 1) for i in range(200)}
    for _ in range(_DICT_ROUNDS):
        new: dict = {}
        for key, amp in state.items():
            for shift in (0, 1):
                moved = (key[0] + shift, key[1], key[2])
                new[moved] = new.get(moved, 0) + amp * (0.7 + 0.1j)
        state = {k: v for k, v in new.items() if abs(v) > 1e-30}
    return len(state)


def _matrix_work() -> float:
    rng = np.random.default_rng(0)
    a = rng.normal(size=(_DIM, _DIM)) + 1j * rng.normal(size=(_DIM, _DIM))
    sigma = a @ a.conj().T
    sigma /= np.trace(sigma).real
    rows = rng.normal(size=(27, _DIM * _DIM))
    for _ in range(_MATRIX_ROUNDS):
        q = np.abs(rows @ sigma.ravel()) + 1e-12
        r = ((1.0 / q) @ rows).reshape(_DIM, _DIM)
        r = (r + r.T) / 2
        w, u = np.linalg.eigh(r)
        step = (u * np.abs(w) ** 0.5) @ u.conj().T
        sigma = step @ sigma @ step
        sigma /= np.trace(sigma).real
    return float(sigma[0, 0].real)


def probe() -> float:
    """Wall seconds of one pass of the fixed work."""
    start = time.perf_counter()
    _dict_work()
    _matrix_work()
    return time.perf_counter() - start


def rescaled(seconds: float, probe_s: float) -> float:
    """``seconds`` as they would read on a host where a probe takes
    ``REFERENCE_S``, given how long a probe took around them."""
    return seconds * REFERENCE_S / probe_s

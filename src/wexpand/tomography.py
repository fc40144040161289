"""Simulated polarization tomography and maximum-likelihood reconstruction.

One coincidence number is recorded per tensor-product projector setting of
the {H, V, D, R}^n family, in ``default_settings`` order.  The setting
projectors sum to an operator G that is not proportional to the identity,
so the fit works in the frame where they form a proper POVM (conjugation by
G^(-1/2)).  That frame, the ``MeasurementModel``, is built once per qubit
count and shared by every fit.  In it the log-likelihood is maximized over
density matrices by accelerated projected gradient, with a momentum restart
that keeps the log-likelihood history nondecreasing, and the fit stops on an
optimality certificate rather than on a stalled log-likelihood.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .entanglement import fidelity, pairwise_eof_table, witness_value
from .fock import DensityMatrix
from .gates import w_state_qubits
from .tolerances import (
    IMLM_CERTIFICATE_RTOL,
    IMLM_MAX_ITER,
    IMLM_PROBABILITY_FLOOR,
    IMLM_STEP_FLOOR,
)

_SQRT2 = math.sqrt(2.0)

# The key order is the label order of default_settings.
PROJECTOR_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / _SQRT2,
    "R": np.array([1.0, -1.0j], dtype=complex) / _SQRT2,
}

# The gradient step length grows by _STEP_GROWTH after each step and
# shrinks by _STEP_SHRINK while a step fails the sufficient-increase test.
_STEP_GROWTH = 1.1
_STEP_SHRINK = 0.5
# The certificate is next checked when the optimality gap, assumed to
# shrink by _GAP_RATE per iteration, would reach the stop tolerance, and at
# most _CHECK_WAIT_MAX iterations later.
_GAP_RATE = 0.6
_CHECK_WAIT_MAX = 10


def default_settings(n_qubits: int) -> list[tuple]:
    """The {H, V, D, R}^n tensor-product settings (4^n of them)."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    return list(itertools.product(PROJECTOR_KETS, repeat=n_qubits))


def setting_projector(setting: Sequence[str]) -> np.ndarray:
    """Rank-one projector onto the tensor product of the labeled kets."""
    ket = np.array([1.0], dtype=complex)
    for label in setting:
        ket = np.kron(ket, PROJECTOR_KETS[label])
    return np.outer(ket, ket.conj())


@dataclass(frozen=True)
class MeasurementModel:
    """The {H, V, D, R}^n settings of one qubit count, as a fit and the
    count samplers need them.

    Each row array holds one setting per row, in ``default_settings``
    order, as interleaved (re, im) doubles.  ``projector_rows`` holds the
    plain projectors P_j: ``projector_rows @ m.ravel().view(float)`` is
    Re Tr(m P_j) for every setting at once.  ``povm_rows`` holds them in
    the frame where they resolve the identity, E_j = G^(-1/2) P_j G^(-1/2)
    with G = sum_j P_j: ``povm_rows @ sigma.ravel().view(float)`` gives the
    predicted probabilities Tr(E_j sigma) of a Hermitian sigma, and
    ``(w @ povm_rows).view(complex)`` the operator sum_j w_j E_j.
    ``g_inv_sqrt`` maps a fitted sigma back to rho, and ``g_sqrt`` a rho
    into the fit's frame.
    """

    projector_rows: np.ndarray
    g_sqrt: np.ndarray
    g_inv_sqrt: np.ndarray
    povm_rows: np.ndarray


@functools.lru_cache(maxsize=8)
def measurement_model(n_qubits: int) -> MeasurementModel:
    """The model of ``default_settings(n_qubits)``, built on first use,
    then shared read-only from the cache."""
    settings = default_settings(n_qubits)
    dim = 2**n_qubits
    rows = np.stack([setting_projector(s).ravel() for s in settings]).view(np.float64)
    projectors = rows.view(complex).reshape(len(settings), dim, dim)
    evals, evecs = np.linalg.eigh(projectors.sum(axis=0))
    g_sqrt = (evecs * np.sqrt(evals)) @ evecs.conj().T
    g_inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.conj().T
    povm = np.einsum("ab,jbc,cd->jad", g_inv_sqrt, projectors, g_inv_sqrt)
    povm_rows = np.ascontiguousarray(povm.reshape(len(settings), dim * dim))
    povm_rows = povm_rows.view(np.float64)
    for array in (rows, g_sqrt, g_inv_sqrt, povm_rows):
        array.setflags(write=False)
    return MeasurementModel(rows, g_sqrt, g_inv_sqrt, povm_rows)


def _born_probabilities(rho: DensityMatrix) -> np.ndarray:
    """Tr(rho P_j) for every setting in one product; rounding can leave a
    zero probability slightly negative, so the result is clipped at zero."""
    m = np.ascontiguousarray(rho.matrix, dtype=complex)
    rows = measurement_model(rho.n_qubits).projector_rows
    return np.clip(rows @ m.reshape(-1).view(np.float64), 0.0, None)


def sample_counts(rho: DensityMatrix, flux_per_setting: float, seed: int) -> np.ndarray:
    """Poisson coincidence counts aligned with ``default_settings``,
    deterministic in the seed."""
    if flux_per_setting <= 0:
        raise ValueError("flux per setting must be positive")
    means = flux_per_setting * _born_probabilities(rho)
    return np.random.default_rng(seed).poisson(means)


def exact_counts(rho: DensityMatrix, flux_per_setting: float) -> np.ndarray:
    """Noiseless expected coincidence numbers aligned with
    ``default_settings``."""
    return flux_per_setting * _born_probabilities(rho)


def flux_for_typical_count(rho: DensityMatrix, typical_count: float) -> float:
    """Flux multiplier that makes the average setting expect ``typical_count``
    events.

    Quoted experimental rates describe detected coincidences at a typical
    setting, so rate x acquisition time fixes flux x (mean Born probability),
    not flux itself.
    """
    mean_p = float(np.mean(_born_probabilities(rho)))
    if mean_p <= 0:
        raise ValueError("state assigns zero probability to every setting")
    return typical_count / mean_p


@dataclass
class ReconstructionResult:
    rho: DensityMatrix
    iterations: int
    log_likelihood: float
    stop_reason: str  # "certificate", "stall" or "max_iter"
    certificate: float  # upper bound on L* - log_likelihood
    loglik_history: list[float]

    @property
    def converged(self) -> bool:
        """True only when the optimality certificate stopped the fit."""
        return self.stop_reason == "certificate"


def _excess(r_op: np.ndarray) -> float:
    """lambda_max(R) - 1, clipped at zero: the relative optimality gap."""
    return max(float(np.linalg.eigvalsh(r_op)[-1]) - 1.0, 0.0)


def _project_density(h: np.ndarray) -> np.ndarray:
    """The density matrix nearest to a Hermitian h in the Frobenius norm.

    It keeps the eigenvectors of h and projects its eigenvalues onto the
    probability simplex: all shift down by one constant, negatives clip to
    zero, and the rest sum to one (Smolin, Gambetta & Smith, PRL 108,
    070502, 2012).  The shift is set by the largest eigenvalues that stay
    positive, found in descending order.
    """
    evals, evecs = np.linalg.eigh(h)
    surplus, shift = -1.0, 0.0
    for kept, value in enumerate(evals[::-1].tolist(), 1):
        surplus += value
        if value * kept <= surplus:
            break
        shift = surplus / kept
    weights = np.maximum(evals - shift, 0.0)
    return (evecs * weights) @ evecs.conj().T


def imlm_reconstruct(
    counts,
    max_iter: int = IMLM_MAX_ITER,
    qubit_order: Sequence[int] | None = None,
    start=None,
) -> ReconstructionResult:
    """Maximum-likelihood density-matrix reconstruction by monotone
    accelerated projected gradient.

    Args:
        counts: 4^n coincidence numbers aligned with
            ``default_settings(n)`` (exact expected values are fine).
        max_iter: iteration cap.
        qubit_order: spatial-mode ids for the reconstructed qubits
            (defaults to 0..n-1).
        start: density matrix the fit starts from, in the frame of the
            returned rho (defaults to the maximally mixed state).

    The fit maximizes L = sum_j n_j log q_j over density matrices sigma in
    the frame where the settings resolve the identity, with q_j =
    Tr(E_j sigma).  Each iteration takes a projected gradient step
    z = P(y + t R(y)) from the momentum point y (FISTA; Shang, Zhang & Ng,
    PRA 95, 062336, 2017), where R = sum_j (n_j / N q_j) E_j is the
    gradient of L / N and P the projection onto density matrices.  The step
    t backtracks until z passes the sufficient-increase test and grows
    after each step; the fit stops with ``stop_reason == "stall"`` if t
    falls below IMLM_STEP_FLOOR.  The iterate moves to z only if L does not
    fall, otherwise the momentum restarts from it, so the log-likelihood
    history is nondecreasing.  At any density matrix sigma,
    L* - L(sigma) <= N (lambda_max(R(sigma)) - 1) with N the total count
    (Glancy, Knill & Girard, NJP 14, 095017, 2012).  The fit stops on that
    certificate once lambda_max - 1 <= IMLM_CERTIFICATE_RTOL, a test on the
    frequencies alone, so the count scale does not decide when it stops.
    After a check that finds the gap e too large, the next one comes after
    ln(IMLM_CERTIFICATE_RTOL / e) / ln(_GAP_RATE) iterations, rounded up and
    clamped to [1, _CHECK_WAIT_MAX]; the test runs once more at the returned
    sigma, and whenever it holds there, ``stop_reason`` is
    ``"certificate"``.
    """
    data = np.asarray(counts, dtype=float)
    n_qubits = (data.size.bit_length() - 1) // 2
    if n_qubits < 1 or data.shape != (4**n_qubits,):
        raise ValueError(
            f"need 4^n counts, one per setting of default_settings(n); "
            f"got shape {data.shape}"
        )
    if np.any(data < 0):
        raise ValueError("counts must be nonnegative")
    total = float(data.sum())
    if total <= 0:
        raise ValueError("total counts must be positive")

    model = measurement_model(n_qubits)
    dim = 2**n_qubits
    rows = model.povm_rows
    freq = data / total

    def evaluate(sigma: np.ndarray):
        """The floored q_j of a trace-one sigma and its L / N.  The E_j
        resolve the identity, so the q_j sum to one."""
        raw = rows @ sigma.reshape(-1).view(np.float64)
        q = np.maximum(raw, IMLM_PROBABILITY_FLOOR)
        return q, float(freq @ np.log(q))

    def gradient(q: np.ndarray) -> np.ndarray:
        return ((freq / q) @ rows).view(complex).reshape(dim, dim)

    if start is None:
        sigma = np.eye(dim, dtype=complex) / dim
    else:
        start = np.asarray(start, dtype=complex)
        if start.shape != (dim, dim):
            raise ValueError(
                f"start must be a {dim}x{dim} density matrix; got shape {start.shape}"
            )
        sigma = model.g_sqrt @ start @ model.g_sqrt
        sigma /= np.trace(sigma).real
    q, ll = evaluate(sigma)
    y, q_y, ll_y = sigma, q, ll  # the momentum point
    theta = 1.0
    step = 1.0
    history = [total * ll]
    iterations = next_check = 0
    stop_reason = "max_iter"

    while True:
        checked = iterations == next_check
        if checked:
            excess = _excess(gradient(q))
            if excess <= IMLM_CERTIFICATE_RTOL:
                stop_reason = "certificate"
                break
            wait = math.log(IMLM_CERTIFICATE_RTOL / excess) / math.log(_GAP_RATE)
            next_check += min(max(math.ceil(wait), 1), _CHECK_WAIT_MAX)
        if iterations == max_iter:
            break

        grad = gradient(q_y)
        while True:
            z = _project_density(y + step * grad)
            q_z, ll_z = evaluate(z)
            # The increase the quadratic model with curvature 1/step promises.
            move = z - y
            gain = np.vdot(grad, move).real - np.vdot(move, move).real / (2.0 * step)
            if ll_z >= ll_y + gain:
                break
            step *= _STEP_SHRINK
            if step < IMLM_STEP_FLOOR:
                stop_reason = "stall"
                break
        if stop_reason == "stall":
            break

        if ll_z >= ll:
            # Momentum: the next step starts past z, along the last move.
            theta_next = (1.0 + math.sqrt(1.0 + 4.0 * theta * theta)) / 2.0
            y = z + ((theta - 1.0) / theta_next) * (z - sigma)
            q_y, ll_y = evaluate(y)
            theta = theta_next
            sigma, q, ll = z, q_z, ll_z
        else:  # z would lower L: restart the momentum from sigma
            y, q_y, ll_y, theta = sigma, q, ll, 1.0
        step *= _STEP_GROWTH
        history.append(total * ll)
        iterations += 1

    if not checked:
        excess = _excess(gradient(q))
        if excess <= IMLM_CERTIFICATE_RTOL:
            stop_reason = "certificate"
    g_inv_sqrt = model.g_inv_sqrt
    rho = g_inv_sqrt @ sigma @ g_inv_sqrt
    rho = (rho + rho.conj().T) / 2.0
    rho /= np.trace(rho).real
    order = list(qubit_order) if qubit_order is not None else list(range(n_qubits))
    return ReconstructionResult(
        rho=DensityMatrix(rho, order),
        iterations=iterations,
        log_likelihood=history[-1],
        stop_reason=stop_reason,
        certificate=float(total * excess),
        loglik_history=history,
    )


def w_statistics(rho: DensityMatrix) -> dict:
    """The report's statistics of a fitted N-qubit state: fidelity to W_N,
    the W-witness value and the entanglement of formation of every qubit
    pair, keyed by the pair's mode ids ("45" for modes 4 and 5)."""
    return {
        "fidelity": fidelity(rho, w_state_qubits(rho.n_qubits)),
        "witness": witness_value(rho),
        "pairwise_eof": {
            f"{i}{j}": value for (i, j), value in pairwise_eof_table(rho).items()
        },
    }


def bootstrap_errors(
    counts,
    n_resamples: int,
    seed: int,
    qubit_order: Sequence[int],
    max_iter: int = IMLM_MAX_ITER,
    start=None,
) -> tuple[dict, dict]:
    """Parametric bootstrap error bars for the ``w_statistics`` of a fit.

    Each resample draws every count from Poisson(observed count), re-runs the
    reconstruction on the qubits ``qubit_order`` and evaluates
    ``w_statistics``.  Returns the standard deviations of those statistics
    over resamples, in the same nested keys, and a summary of the resample
    fits: how many did not converge and the p50, p90 (nearest rank) and max
    of their iteration counts.  Resample seeds derive from the master seed,
    so results are reproducible and resamples could run in parallel; every
    resample shares the cached measurement model.  Every resample drawn from
    the data starts its fit at ``start``, normally the fit of the observed
    counts: a resampled count is zero wherever the observed one is.  A
    resample that draws no count at all is replaced by one count per
    setting, which is not the data, so its fit starts from the maximally
    mixed state.
    """
    if n_resamples < 2:
        raise ValueError("need at least two resamples")
    data = np.asarray(counts, dtype=float)

    child_seeds = np.random.SeedSequence(seed).spawn(n_resamples)
    samples = []
    iterations = []
    unconverged = 0
    for child in child_seeds:
        rng = np.random.default_rng(child)
        resampled = rng.poisson(data)
        origin = start
        if resampled.sum() == 0:
            resampled, origin = np.ones_like(resampled), None
        result = imlm_reconstruct(
            resampled, max_iter=max_iter, qubit_order=qubit_order, start=origin
        )
        iterations.append(result.iterations)
        unconverged += not result.converged
        samples.append(w_statistics(result.rho))

    errors = {
        key: float(np.std([s[key] for s in samples])) for key in ("fidelity", "witness")
    }
    errors["pairwise_eof"] = {
        pair: float(np.std([s["pairwise_eof"][pair] for s in samples]))
        for pair in samples[0]["pairwise_eof"]
    }
    # Nearest-rank percentiles: np.percentile would import numpy.ma, about
    # 1 MB of resident memory, for two numbers.
    iterations.sort()
    fits = {
        "unconverged": unconverged,
        "iterations_p50": iterations[math.ceil(0.5 * n_resamples) - 1],
        "iterations_p90": iterations[math.ceil(0.9 * n_resamples) - 1],
        "iterations_max": iterations[-1],
    }
    return errors, fits

"""Simulated polarization tomography and iterative maximum-likelihood
reconstruction.

One coincidence number is recorded per tensor-product projector setting
(the {H, V, D, R}^n family by default).  Reconstruction iterates the RρR
fixed-point map.  Because the setting projectors sum to an operator G that
is not proportional to the identity, the iteration runs in the frame where
the projectors form a proper POVM (conjugation by G^(-1/2)); this keeps the
generating state an exact fixed point of the map and reduces to plain RρR
whenever G is proportional to the identity.  That frame, the
``MeasurementModel``, is built once per settings tuple and shared by every
fit, and in it the fit stops on an optimality certificate rather than on a
stalled log-likelihood.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import DensityMatrix, as_matrix
from .tolerances import (
    IMLM_CERTIFICATE_RTOL,
    IMLM_MAX_ITER,
    IMLM_PROBABILITY_FLOOR,
    SETTINGS_RANK_TOL,
)

_SQRT2 = math.sqrt(2.0)

PROJECTOR_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / _SQRT2,
    "R": np.array([1.0, -1.0j], dtype=complex) / _SQRT2,
    "L": np.array([1.0, 1.0j], dtype=complex) / _SQRT2,
}

DEFAULT_LABELS = ("H", "V", "D", "R")

MeasurementSetting = tuple  # per-qubit projector labels, e.g. ("H", "D", "R")

# Iterations between two checks of the optimality certificate.
_CERTIFICATE_EVERY = 10


@dataclass(frozen=True)
class CountRecord:
    """One coincidence number for one projector setting."""

    setting: tuple
    count: float

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("counts must be nonnegative")


def default_settings(n_qubits: int) -> list[tuple]:
    """The {H, V, D, R}^n tensor-product settings (4^n of them)."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    return list(itertools.product(DEFAULT_LABELS, repeat=n_qubits))


def setting_projector(setting: Sequence[str]) -> np.ndarray:
    """Rank-one projector onto the tensor product of the labeled kets."""
    ket = np.array([1.0], dtype=complex)
    for label in setting:
        try:
            ket = np.kron(ket, PROJECTOR_KETS[label])
        except KeyError:
            raise ValueError(f"unknown projector label {label!r}") from None
    return np.outer(ket, ket.conj())


def _settings_key(settings: Sequence[Sequence[str]]) -> tuple:
    return tuple(tuple(s) for s in settings)


@functools.lru_cache(maxsize=32)
def _projector_rows(settings: tuple) -> np.ndarray:
    """Row j is setting j's projector flattened to interleaved (re, im)
    doubles, so that ``rows @ m.ravel().view(float)`` is Re Tr(m P_j) for
    every setting at once.  Read-only, because the cache shares it."""
    if not settings:
        raise ValueError("need at least one setting")
    if any(len(s) != len(settings[0]) for s in settings):
        raise ValueError("settings must all address the same qubit count")
    rows = np.stack([setting_projector(s).ravel() for s in settings]).view(np.float64)
    rows.setflags(write=False)
    return rows


def _born_probabilities(rho, settings: Sequence[Sequence[str]]) -> np.ndarray:
    """Tr(rho P_j) for every setting in one product; rounding can leave a
    zero probability slightly negative, so the result is clipped at zero."""
    m = np.ascontiguousarray(as_matrix(rho), dtype=complex)
    key = _settings_key(settings)
    rows = _projector_rows(key)
    if rows.shape[1] != 2 * m.size:
        raise ValueError(
            f"setting on {len(key[0])} qubits does not match a "
            f"{m.shape[0]}-dimensional state"
        )
    return np.clip(rows @ m.reshape(-1).view(np.float64), 0.0, None)


def expected_probability(rho, setting: Sequence[str]) -> float:
    """Born-rule coincidence probability Tr(rho P_setting)."""
    return float(_born_probabilities(rho, [setting])[0])


def sample_counts(
    rho,
    settings: Sequence[Sequence[str]],
    flux_per_setting: float,
    seed: int,
) -> list[CountRecord]:
    """Poisson coincidence counts, one per setting, deterministic in the seed."""
    if flux_per_setting <= 0:
        raise ValueError("flux per setting must be positive")
    means = flux_per_setting * _born_probabilities(rho, settings)
    draws = np.random.default_rng(seed).poisson(means)
    return [CountRecord(tuple(s), int(n)) for s, n in zip(settings, draws)]


def exact_counts(
    rho, settings: Sequence[Sequence[str]], flux_per_setting: float
) -> list[CountRecord]:
    """Noiseless expected coincidence numbers (no sampling)."""
    means = flux_per_setting * _born_probabilities(rho, settings)
    return [CountRecord(tuple(s), float(n)) for s, n in zip(settings, means)]


def flux_for_typical_count(rho, settings, typical_count: float) -> float:
    """Flux multiplier that makes the average setting expect ``typical_count``
    events.

    Quoted experimental rates describe detected coincidences at a typical
    setting, so rate x acquisition time fixes flux x (mean Born probability),
    not flux itself.
    """
    mean_p = float(np.mean(_born_probabilities(rho, settings)))
    if mean_p <= 0:
        raise ValueError("state assigns zero probability to every setting")
    return typical_count / mean_p


@dataclass(frozen=True)
class MeasurementModel:
    """What a fit needs of one informationally complete settings list.

    ``povm_rows`` holds the projectors in the frame where they resolve the
    identity, E_j = G^(-1/2) P_j G^(-1/2) with G = sum_j P_j, as
    interleaved (re, im) rows: ``povm_rows @ sigma.ravel().view(float)``
    gives the predicted probabilities Tr(E_j sigma) of a Hermitian sigma,
    and ``(w @ povm_rows).view(complex)`` the operator sum_j w_j E_j.
    ``g_inv_sqrt`` maps a fitted sigma back to rho.
    """

    n_qubits: int
    g_inv_sqrt: np.ndarray
    povm_rows: np.ndarray

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


@functools.lru_cache(maxsize=8)
def measurement_model(settings: tuple) -> MeasurementModel:
    """The model of a tuple of settings, built and checked for
    informational completeness on first use, then shared from the cache."""
    rows = _projector_rows(settings)
    n_qubits = len(settings[0])
    dim = 2**n_qubits
    flat = rows.view(complex)
    if np.linalg.matrix_rank(flat, tol=SETTINGS_RANK_TOL) < dim * dim:
        raise ValueError("settings are not informationally complete")
    projectors = flat.reshape(len(settings), dim, dim)
    evals, evecs = np.linalg.eigh(projectors.sum(axis=0))
    if evals.min() <= 0:
        raise ValueError("settings are degenerate (singular normalization)")
    g_inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.conj().T
    povm = np.einsum("ab,jbc,cd->jad", g_inv_sqrt, projectors, g_inv_sqrt)
    povm_rows = np.ascontiguousarray(povm.reshape(len(settings), dim * dim))
    povm_rows = povm_rows.view(np.float64)
    for array in (g_inv_sqrt, povm_rows):
        array.setflags(write=False)
    return MeasurementModel(n_qubits, g_inv_sqrt, povm_rows)


@dataclass
class ReconstructionResult:
    rho: DensityMatrix
    iterations: int
    log_likelihood: float
    stop_reason: str  # "certificate", "stall" or "max_iter"
    certificate: float  # upper bound on L* - log_likelihood
    loglik_history: list[float]
    bootstrap: dict | None = None

    @property
    def converged(self) -> bool:
        """True only when the optimality certificate stopped the fit."""
        return self.stop_reason == "certificate"

    def to_json(self) -> dict:
        """Density-matrix serialization plus the scalar reconstruction fields."""
        return {
            "density_matrix": self.rho.to_json(),
            "iterations": self.iterations,
            "log_likelihood": self.log_likelihood,
            "converged": self.converged,
            "stop_reason": self.stop_reason,
            "certificate": self.certificate,
            "bootstrap": self.bootstrap,
        }


def _counts_array(counts) -> np.ndarray:
    if len(counts) and isinstance(counts[0], CountRecord):
        return np.array([c.count for c in counts], dtype=float)
    return np.asarray(counts, dtype=float)


def _excess(r_op: np.ndarray) -> float:
    """lambda_max(R) - 1, clipped at zero: the relative optimality gap."""
    return max(float(np.linalg.eigvalsh(r_op)[-1]) - 1.0, 0.0)


def imlm_reconstruct(
    counts,
    settings: Sequence[Sequence[str]],
    max_iter: int = IMLM_MAX_ITER,
    qubit_order: Sequence[int] | None = None,
) -> ReconstructionResult:
    """Iterative maximum-likelihood density-matrix reconstruction.

    Args:
        counts: coincidence numbers aligned with ``settings`` (CountRecords
            or plain numbers; exact expected values are fine).
        settings: informationally complete projector settings.
        max_iter: iteration cap.
        qubit_order: spatial-mode ids for the reconstructed qubits
            (defaults to 0..n-1).

    The reported log-likelihood is L = sum_j n_j log q_j with q_j the
    predicted coincidence fraction of setting j; its history is
    nondecreasing by construction (a step that would lower it is damped,
    and the iteration stops with ``stop_reason == "stall"`` if no damped
    step helps).  In the frame where the settings resolve the identity,
    L* - L(sigma) <= N (lambda_max(R(sigma)) - 1) with N the total count
    (Glancy, Knill & Girard, NJP 14, 095017, 2012).  The fit stops on that
    certificate once lambda_max - 1 <= IMLM_CERTIFICATE_RTOL, a test on the
    frequencies alone, so the count scale does not decide when it stops.
    """
    data = _counts_array(counts)
    if len(data) != len(settings):
        raise ValueError("counts and settings must align")
    if np.any(data < 0):
        raise ValueError("counts must be nonnegative")
    total = data.sum()
    if total <= 0:
        raise ValueError("total counts must be positive")

    model = measurement_model(_settings_key(settings))
    dim = model.dim
    rows = model.povm_rows
    freq = data / total

    def evaluate(op: np.ndarray):
        """Normalize a candidate; return it with its q and log-likelihood.
        The E_j resolve the identity, so the raw q sum to the trace."""
        raw = rows @ op.reshape(-1).view(np.float64)
        trace = raw.sum()
        q = np.maximum(raw / trace, IMLM_PROBABILITY_FLOOR)
        return op / trace, q, float(data @ np.log(q))

    sigma, q, ll = evaluate(np.eye(dim, dtype=complex))
    history = [ll]
    iterations = 0
    doublings = 0  # the step operator is R^(2**doublings): R, R^2 or R^4
    stop_reason = "max_iter"

    while True:
        r_op = ((freq / q) @ rows).view(complex).reshape(dim, dim)
        checked = iterations % _CERTIFICATE_EVERY == 0
        if checked:
            excess = _excess(r_op)
            if excess <= IMLM_CERTIFICATE_RTOL:
                stop_reason = "certificate"
                break
        if iterations == max_iter:
            break

        step = r_op
        for _ in range(doublings):
            step = step @ step
        candidate, q_cand, ll = evaluate(step @ sigma @ step)

        if ll < history[-1] and doublings:
            doublings = 0
            candidate, q_cand, ll = evaluate(r_op @ sigma @ r_op)

        if ll < history[-1]:
            # Diluted step: sigma <- N[(I+eps R) sigma (I+eps R)].  For small
            # eps this moves along the likelihood gradient, so some eps > 0
            # improves the likelihood unless the iteration is stationary.
            eps = 0.5
            while eps > 1e-8:
                damp = (np.eye(dim) + eps * r_op) / (1.0 + eps)
                damped, q_cand, ll = evaluate(damp @ sigma @ damp)
                if ll >= history[-1]:
                    candidate = damped
                    break
                eps *= 0.5
            else:
                stop_reason = "stall"
                break
        else:
            doublings = min(doublings + 1, 2)

        sigma = candidate
        q = q_cand
        history.append(ll)
        iterations += 1

    if not checked:
        excess = _excess(r_op)
    g_inv_sqrt = model.g_inv_sqrt
    rho = g_inv_sqrt @ sigma @ g_inv_sqrt
    rho = (rho + rho.conj().T) / 2.0
    rho /= np.trace(rho).real
    order = list(qubit_order) if qubit_order is not None else list(range(model.n_qubits))
    result_rho = DensityMatrix(rho, order)
    result_rho.validate()
    return ReconstructionResult(
        rho=result_rho,
        iterations=iterations,
        log_likelihood=history[-1],
        stop_reason=stop_reason,
        certificate=float(total * excess),
        loglik_history=history,
    )


def fidelity(rho, target: np.ndarray) -> float:
    """<psi| rho |psi> against a pure target state."""
    m = as_matrix(rho)
    vec = np.asarray(target, dtype=complex)
    if vec.shape != (m.shape[0],):
        raise ValueError("target state dimension does not match the density matrix")
    return float(np.real(vec.conj() @ m @ vec))


def bootstrap_errors(
    counts,
    settings: Sequence[Sequence[str]],
    n_resamples: int,
    seed: int,
    target: np.ndarray | None = None,
    max_iter: int = IMLM_MAX_ITER,
) -> tuple[dict[str, float], dict]:
    """Parametric bootstrap error bars for the reconstruction statistics.

    Each resample draws every count from Poisson(observed count), re-runs the
    reconstruction, and evaluates fidelity to the target, the W-witness value
    and every pairwise entanglement of formation.  Returns the standard
    deviations of those statistics over resamples, and a summary of the
    resample fits: how many did not converge and the p50, p90 (nearest
    rank) and max of their iteration counts.  Resample seeds derive from the master seed, so
    results are reproducible and resamples could run in parallel; every
    resample shares the cached measurement model.
    """
    from .entanglement import pairwise_eof_table, witness_value

    if n_resamples < 2:
        raise ValueError("need at least two resamples")
    data = _counts_array(counts)
    n_qubits = len(settings[0])
    if target is None:
        from .gates import w_state_qubits

        target = w_state_qubits(n_qubits)

    seed_seq = np.random.SeedSequence(seed)
    child_seeds = seed_seq.spawn(n_resamples)
    stats: dict[str, list[float]] = {}
    iterations = []
    unconverged = 0
    for child in child_seeds:
        rng = np.random.default_rng(child)
        resampled = rng.poisson(data)
        if resampled.sum() == 0:
            resampled = np.ones_like(resampled)
        result = imlm_reconstruct(resampled, settings, max_iter=max_iter)
        iterations.append(result.iterations)
        unconverged += not result.converged
        values = {
            "fidelity": fidelity(result.rho, target),
            "witness": witness_value(result.rho, n_qubits),
        }
        if n_qubits >= 2:
            for pair, value in pairwise_eof_table(result.rho).items():
                values[f"eof_{pair[0]}{pair[1]}"] = value
        for key, value in values.items():
            stats.setdefault(key, []).append(value)

    errors = {key: float(np.std(vals)) for key, vals in stats.items()}
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

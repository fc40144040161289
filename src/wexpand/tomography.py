"""Simulated polarization tomography and iterative maximum-likelihood
reconstruction.

One coincidence number is recorded per tensor-product projector setting
(the {H, V, D, R}^n family by default).  Reconstruction iterates the RρR
fixed-point map.  Because the setting projectors sum to an operator G that
is not proportional to the identity, the iteration runs in the frame where
the projectors form a proper POVM (conjugation by G^(-1/2)); this keeps the
generating state an exact fixed point of the map and reduces to plain RρR
whenever G is proportional to the identity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fock import DensityMatrix, as_matrix
from .tolerances import (
    IMLM_LOGLIK_TOL,
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


def expected_probability(rho, setting: Sequence[str]) -> float:
    """Born-rule coincidence probability Tr(rho P_setting)."""
    m = as_matrix(rho)
    proj = setting_projector(setting)
    if proj.shape != m.shape:
        raise ValueError(
            f"setting on {len(setting)} qubits does not match a "
            f"{m.shape[0]}-dimensional state"
        )
    return float(np.einsum("ij,ji->", proj, m).real)


def sample_counts(
    rho,
    settings: Sequence[Sequence[str]],
    flux_per_setting: float,
    seed: int,
) -> list[CountRecord]:
    """Poisson coincidence counts, one per setting, deterministic in the seed."""
    if flux_per_setting <= 0:
        raise ValueError("flux per setting must be positive")
    rng = np.random.default_rng(seed)
    records = []
    for setting in settings:
        p = expected_probability(rho, setting)
        mean = flux_per_setting * max(p, 0.0)
        records.append(CountRecord(tuple(setting), int(rng.poisson(mean))))
    return records


def exact_counts(
    rho, settings: Sequence[Sequence[str]], flux_per_setting: float
) -> list[CountRecord]:
    """Noiseless expected coincidence numbers (no sampling)."""
    return [
        CountRecord(tuple(s), flux_per_setting * expected_probability(rho, s))
        for s in settings
    ]


def flux_for_typical_count(rho, settings, typical_count: float) -> float:
    """Flux multiplier that makes the average setting expect ``typical_count``
    events.

    Quoted experimental rates describe detected coincidences at a typical
    setting, so rate x acquisition time fixes flux x (mean Born probability),
    not flux itself.
    """
    mean_p = float(
        np.mean([expected_probability(rho, s) for s in settings])
    )
    if mean_p <= 0:
        raise ValueError("state assigns zero probability to every setting")
    return typical_count / mean_p


@dataclass
class ReconstructionResult:
    rho: DensityMatrix
    iterations: int
    log_likelihood: float
    converged: bool
    loglik_history: list[float]
    bootstrap: dict | None = None

    def to_json(self) -> dict:
        """Density-matrix serialization plus the scalar reconstruction fields."""
        return {
            "density_matrix": self.rho.to_json(),
            "iterations": self.iterations,
            "log_likelihood": self.log_likelihood,
            "converged": self.converged,
            "bootstrap": self.bootstrap,
        }


def _counts_array(counts) -> np.ndarray:
    if len(counts) and isinstance(counts[0], CountRecord):
        return np.array([c.count for c in counts], dtype=float)
    return np.asarray(counts, dtype=float)


def _check_informationally_complete(projectors: np.ndarray) -> None:
    m, d, _ = projectors.shape
    flat = projectors.reshape(m, d * d)
    if np.linalg.matrix_rank(flat, tol=SETTINGS_RANK_TOL) < d * d:
        raise ValueError("settings are not informationally complete")


def imlm_reconstruct(
    counts,
    settings: Sequence[Sequence[str]],
    tol: float = IMLM_LOGLIK_TOL,
    max_iter: int = IMLM_MAX_ITER,
    qubit_order: Sequence[int] | None = None,
) -> ReconstructionResult:
    """Iterative maximum-likelihood density-matrix reconstruction.

    Args:
        counts: coincidence numbers aligned with ``settings`` (CountRecords
            or plain numbers; exact expected values are fine).
        settings: informationally complete projector settings.
        tol: stop once the log-likelihood gain over a ten-iteration window
            drops below this.
        max_iter: iteration cap.
        qubit_order: spatial-mode ids for the reconstructed qubits
            (defaults to 0..n-1).

    The reported log-likelihood is sum_j n_j log q_j with q_j the predicted
    coincidence fraction of setting j; its history is nondecreasing by
    construction (a step that would lower it is damped, and the iteration
    stops if no damped step helps).
    """
    data = _counts_array(counts)
    if len(data) != len(settings):
        raise ValueError("counts and settings must align")
    if np.any(data < 0):
        raise ValueError("counts must be nonnegative")
    total = data.sum()
    if total <= 0:
        raise ValueError("total counts must be positive")

    n_qubits = len(settings[0])
    if any(len(s) != n_qubits for s in settings):
        raise ValueError("settings must all address the same qubit count")
    dim = 2**n_qubits

    projectors = np.stack([setting_projector(s) for s in settings])
    _check_informationally_complete(projectors)

    # Move to the frame where the projectors resolve the identity.
    gram = projectors.sum(axis=0)
    evals, evecs = np.linalg.eigh(gram)
    if evals.min() <= 0:
        raise ValueError("settings are degenerate (singular normalization)")
    g_inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.conj().T
    povm = np.einsum("ab,jbc,cd->jad", g_inv_sqrt, projectors, g_inv_sqrt)

    freq = data / total
    povm_rows = povm.reshape(len(settings), dim * dim)
    povm_rows_conj = povm_rows.conj()

    def predicted(sigma: np.ndarray) -> np.ndarray:
        q = (povm_rows_conj @ sigma.ravel()).real
        return np.clip(q, IMLM_PROBABILITY_FLOOR, None)

    def loglik_of(q: np.ndarray) -> float:
        return float(np.dot(data, np.log(q)))

    def powered(op: np.ndarray, alpha: float) -> np.ndarray:
        if alpha == 1.0:
            return op
        w, u = np.linalg.eigh(op)
        return (u * np.clip(w, 0.0, None) ** alpha) @ u.conj().T

    sigma = np.eye(dim, dtype=complex) / dim
    q = predicted(sigma)
    history = [loglik_of(q)]
    converged = False
    iterations = 0
    alpha = 1.0  # step exponent; raised while full steps keep paying off
    # Accelerated steps make single-iteration gains oscillate near the
    # optimum, so convergence is judged on the gain over a short window.
    window = 10

    for iterations in range(1, max_iter + 1):
        r_op = ((freq / q) @ povm_rows).reshape(dim, dim)
        step = powered(r_op, alpha)
        candidate = step @ sigma @ step
        candidate /= np.trace(candidate).real
        q_cand = predicted(candidate)
        ll = loglik_of(q_cand)

        if ll < history[-1] and alpha > 1.0:
            alpha = 1.0
            candidate = r_op @ sigma @ r_op
            candidate /= np.trace(candidate).real
            q_cand = predicted(candidate)
            ll = loglik_of(q_cand)

        if ll < history[-1]:
            # Diluted step: sigma <- N[(I+eps R) sigma (I+eps R)].  For small
            # eps this moves along the likelihood gradient, so some eps > 0
            # improves the likelihood unless the iteration is stationary.
            eps = 0.5
            while eps > 1e-8:
                damp = (np.eye(dim) + eps * r_op) / (1.0 + eps)
                damped = damp @ sigma @ damp
                damped /= np.trace(damped).real
                q_cand = predicted(damped)
                ll = loglik_of(q_cand)
                if ll >= history[-1]:
                    candidate = damped
                    break
                eps *= 0.5
            else:
                converged = True
                iterations -= 1
                break
        else:
            alpha = min(alpha * 1.25, 4.0)

        sigma = candidate
        q = q_cand
        history.append(ll)
        lookback = min(window, len(history) - 1)
        if history[-1] - history[-1 - lookback] < tol:
            converged = True
            break

    rho = g_inv_sqrt @ sigma @ g_inv_sqrt
    rho = (rho + rho.conj().T) / 2.0
    rho /= np.trace(rho).real
    order = list(qubit_order) if qubit_order is not None else list(range(n_qubits))
    result_rho = DensityMatrix(rho, order)
    result_rho.validate()
    return ReconstructionResult(
        rho=result_rho,
        iterations=iterations,
        log_likelihood=history[-1],
        converged=converged,
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
    tol: float = IMLM_LOGLIK_TOL,
    max_iter: int = IMLM_MAX_ITER,
) -> dict[str, float]:
    """Parametric bootstrap error bars for the reconstruction statistics.

    Each resample draws every count from Poisson(observed count), re-runs the
    reconstruction, and evaluates fidelity to the target, the W-witness value
    and every pairwise entanglement of formation; the reported numbers are
    standard deviations over resamples.  Resample seeds derive from the
    master seed, so results are reproducible and resamples could run in
    parallel.
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
    for child in child_seeds:
        rng = np.random.default_rng(child)
        resampled = rng.poisson(data)
        if resampled.sum() == 0:
            resampled = np.ones_like(resampled)
        result = imlm_reconstruct(
            resampled, settings, tol=tol, max_iter=max_iter
        )
        values = {
            "fidelity": fidelity(result.rho, target),
            "witness": witness_value(result.rho, n_qubits),
        }
        if n_qubits >= 2:
            for pair, value in pairwise_eof_table(result.rho).items():
                values[f"eof_{pair[0]}{pair[1]}"] = value
        for key, value in values.items():
            stats.setdefault(key, []).append(value)

    return {key: float(np.std(vals)) for key, vals in stats.items()}

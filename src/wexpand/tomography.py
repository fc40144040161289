"""Simulated polarization tomography and maximum-likelihood reconstruction.

One coincidence number is recorded per tensor-product projector setting of
the {H, V, D, R}^n family, in ``default_settings`` order.  The setting
projectors sum to an operator G that is not proportional to the identity,
so the fit works in the frame where they form a proper POVM (conjugation by
G^(-1/2)).  That frame, the ``MeasurementModel``, is built once per qubit
count and shared by every fit.  In it the log-likelihood is maximized over
density matrices from the projected linear-inversion estimate: projected
gradient finds the support of the optimum, Newton steps on that support
finish, neither lowers the log-likelihood, and the fit stops on an
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
    IMLM_RANK_RTOL,
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
# The certificate is checked every _CHECK_INTERVAL iterations while the
# optimality gap is above _NEWTON_GAP.  A check that finds it at most that
# tries Newton steps, and the next check comes one iteration later.
_CHECK_INTERVAL = 10
_NEWTON_GAP = 3e-2


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
    into the fit's frame.  ``(inversion @ f).view(complex)`` solves
    Tr(E_j sigma) = f_j for a Hermitian sigma: linear inversion.
    """

    projector_rows: np.ndarray
    g_sqrt: np.ndarray
    g_inv_sqrt: np.ndarray
    povm_rows: np.ndarray
    inversion: np.ndarray


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
    # pinv(povm_rows), whose rows are independent, without np.linalg.pinv's
    # SVD: its LAPACK code alone adds 1.2 MB of resident memory.
    gram = povm_rows @ povm_rows.T
    inversion = np.ascontiguousarray(np.linalg.solve(gram, povm_rows).T)
    for array in (rows, g_sqrt, g_inv_sqrt, povm_rows, inversion):
        array.setflags(write=False)
    return MeasurementModel(rows, g_sqrt, g_inv_sqrt, povm_rows, inversion)


def _born_probabilities(rho: DensityMatrix) -> np.ndarray:
    """Tr(rho P_j) for every setting in one product; rounding can leave a
    zero probability slightly negative, so the result is clipped at zero."""
    m = np.ascontiguousarray(rho.matrix, dtype=complex)
    rows = measurement_model(rho.n_qubits).projector_rows
    return np.clip(rows @ m.reshape(-1).view(np.float64), 0.0, None)


def sample_counts(rho: DensityMatrix, multiplier: float, seed: int) -> np.ndarray:
    """Poisson coincidence counts aligned with ``default_settings``, with
    means ``multiplier`` x Tr(rho P_j), deterministic in the seed."""
    if multiplier <= 0:
        raise ValueError("count multiplier must be positive")
    means = multiplier * _born_probabilities(rho)
    return np.random.default_rng(seed).poisson(means)


def exact_counts(rho: DensityMatrix, multiplier: float) -> np.ndarray:
    """Noiseless expected coincidence numbers ``multiplier`` x Tr(rho P_j),
    aligned with ``default_settings``."""
    return multiplier * _born_probabilities(rho)


def flux_for_typical_count(rho: DensityMatrix, typical_count: float) -> float:
    """Count multiplier that makes the average setting expect
    ``typical_count`` events.

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
    stop_reason: str  # "certificate" or "max_iter"
    certificate: float  # upper bound on L* - log_likelihood
    loglik_history: list[float]
    newton_steps: int  # the accepted Newton steps among the iterations

    @property
    def converged(self) -> bool:
        """True only when the optimality certificate stopped the fit."""
        return self.stop_reason == "certificate"


def _count_total(data: np.ndarray) -> float:
    """The total of nonnegative counts, checked to be positive and finite."""
    if np.any(data < 0):
        raise ValueError("counts must be nonnegative")
    total = float(data.sum())
    if not 0 < total < math.inf:
        raise ValueError(f"total counts must be positive and finite; got {total}")
    return total


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


@functools.lru_cache(maxsize=64)
def _tangent_coordinates(dim: int, rank: int):
    """The real coordinates of dA = A S + P C, S Hermitian and C complex, at
    A = V_r sqrt(Lambda_r), P = V_(d-r): entry (m, v, c, z) of move m adds
    z V[:, v] sqrt(lambda_v) (1 for v >= r) to dA[:, c]."""
    upper = list(itertools.combinations(range(rank), 2))
    below = list(itertools.product(range(rank, dim), range(rank)))
    moves = [[(i, i, 1)] for i in range(rank)]
    moves += [[(i, k, z), (k, i, z.conjugate())] for z in (1, 1j) for i, k in upper]
    moves += [[(p, k, z)] for z in (1, 1j) for p, k in below]
    entries = [(m, *entry) for m, move in enumerate(moves) for entry in move]
    return len(moves), *(np.array(column) for column in zip(*entries))


def _newton_step(sigma, ll, r_op, freq, q, rows, evaluate):
    """One Newton step from sigma: its new value, q and L / N, or None.

    The step moves A = V_r sqrt(Lambda_r), V the eigenvectors of sigma =
    A A^dagger with its support first, to maximize F(A) = L / N -
    Tr(A A^dagger), whose maximum has trace one.  Along moves B the rows
    2 Re<E_j A, B> make J; the gradient is (f / q - 1) J, as the E_j sum to
    one, and the negated Hessian J^T diag(f / q^2) J - 2 Re<B, (R - 1) B>.
    That may be indefinite: the step is taken at the first length 1, 1/2,
    ..., 1/16 along it that raises L.  None when the Hessian is singular or
    no length raises L."""
    dim = len(sigma)
    evals, evecs = (a[..., ::-1] for a in np.linalg.eigh(sigma))  # descending
    rank = int(np.count_nonzero(evals > IMLM_RANK_RTOL * evals[0]))
    n_moves, m, v, c, phase = _tangent_coordinates(dim, rank)
    scale = np.sqrt(np.concatenate((evals[:rank], np.ones(dim - rank))))
    columns = np.concatenate((evecs, r_op @ evecs - evecs)) * scale
    moves = np.zeros((n_moves, 2 * dim, rank), dtype=complex)
    moves[m, :, c] = phase[:, None] * columns.T[v]  # B over (R - 1) B
    flat, curved = moves.reshape(n_moves, 2, -1).view(np.float64).transpose(1, 0, 2)
    factor = columns[:dim, :rank]
    probes = (rows.view(complex).reshape(-1, dim) @ factor).reshape(len(q), -1)
    jacobian = 2.0 * (probes.view(np.float64) @ flat.T)
    hessian = (jacobian.T * (freq / q**2)) @ jacobian - 2.0 * (flat @ curved.T)
    try:
        x = np.linalg.solve(hessian, (freq / q - 1.0) @ jacobian)
    except np.linalg.LinAlgError:
        return None
    move = (x @ flat).view(complex).reshape(dim, rank)
    for k in range(5):
        a = factor + _STEP_SHRINK**k * move
        trial = a @ a.conj().T / np.vdot(a, a).real
        q_t, ll_t = evaluate(trial)
        if ll_t > ll:
            return trial, q_t, ll_t
    return None


def imlm_reconstruct(
    counts,
    max_iter: int = IMLM_MAX_ITER,
    qubit_order: Sequence[int] | None = None,
    start=None,
) -> ReconstructionResult:
    """Maximum-likelihood density-matrix reconstruction by monotone
    projected gradient with a Newton finish.

    Args:
        counts: 4^n coincidence numbers aligned with
            ``default_settings(n)`` (exact expected values are fine).
        max_iter: iteration cap.
        qubit_order: spatial-mode ids for the reconstructed qubits
            (defaults to 0..n-1).
        start: density matrix the fit starts from, in the frame of the
            returned rho (defaults to the projected linear inversion).

    The fit maximizes L = sum_j n_j log q_j, q_j = Tr(E_j sigma), over
    density matrices sigma in the frame where the settings resolve the
    identity.  With no ``start`` it starts at P(sigma_LI), the projected
    linear inversion q_j = n_j / N (Smolin, Gambetta & Smith).  Either
    start is replaced by I/d if it floors a q_j with n_j > 0.  A projected
    gradient iteration steps to z = P(sigma + t R(sigma)), R = sum_j
    (n_j / N q_j) E_j, P the projection onto density matrices; t halves
    until z passes the sufficient-increase test at sigma, L(z) / N >=
    L(sigma) / N + <R, z - sigma> - |z - sigma|^2 / 2t, and grows by
    _STEP_GROWTH after each step.  That needs no floor on t: as t -> 0 the
    last term outweighs any rounding in z, and a z equal to sigma bit for
    bit gains 0 at an equal L, so the test passes.  sigma moves to z only
    if L does not fall.  The fit stops on the certificate L* - L <=
    N (lambda_max(R) - 1) (Glancy, Knill & Girard, NJP 14, 095017, 2012)
    once lambda_max - 1 <= IMLM_CERTIFICATE_RTOL.  A check that finds that
    gap e at most _NEWTON_GAP tries Newton steps on the support of sigma
    (``_newton_step``) while each cuts e 10x; each accepted one is an
    iteration, and the next check comes one iteration later; otherwise it
    comes _CHECK_INTERVAL iterations later.  Iteration max_iter is checked
    too.  No iteration lowers L.
    """
    data = np.asarray(counts, dtype=float)
    n_qubits = (data.size.bit_length() - 1) // 2
    if n_qubits < 1 or data.shape != (4**n_qubits,):
        raise ValueError(
            f"need 4^n counts, one per setting of default_settings(n); "
            f"got shape {data.shape}"
        )
    total = _count_total(data)

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
        inverted = (model.inversion @ freq).view(complex).reshape(dim, dim)
        sigma = _project_density(inverted)
    else:
        start = np.asarray(start, dtype=complex)
        if start.shape != (dim, dim):
            raise ValueError(
                f"start must be a {dim}x{dim} density matrix; got shape {start.shape}"
            )
        if not (np.isfinite(start).all() and np.trace(start).real > 0):
            raise ValueError("start must be finite with a positive trace")
        sigma = model.g_sqrt @ start @ model.g_sqrt
        sigma /= np.trace(sigma).real
    q, ll = evaluate(sigma)
    if np.any(q[freq > 0] <= IMLM_PROBABILITY_FLOOR):
        sigma = np.eye(dim, dtype=complex) / dim
        q, ll = evaluate(sigma)
    step = 1.0
    history = [total * ll]
    iterations = next_check = newton_steps = 0
    limit = _NEWTON_GAP  # the gap at which a check tries a Newton step

    while True:
        grad = gradient(q)
        if iterations in (next_check, max_iter):
            # lambda_max(R) - 1, clipped at zero: the relative optimality gap.
            excess = max(float(np.linalg.eigvalsh(grad)[-1]) - 1.0, 0.0)
            if excess <= IMLM_CERTIFICATE_RTOL or iterations == max_iter:
                break
            next_check += 1 if excess <= _NEWTON_GAP else _CHECK_INTERVAL
            stepped = excess <= limit and _newton_step(
                sigma, ll, grad, freq, q, rows, evaluate
            )
            if stepped:
                sigma, q, ll = stepped
                limit = excess / 10.0
                newton_steps += 1
                history.append(total * ll)
                iterations += 1
                continue
        limit = _NEWTON_GAP

        while True:
            z = _project_density(sigma + step * grad)
            q_z, ll_z = evaluate(z)
            # The increase the quadratic model with curvature 1/step promises.
            move = z - sigma
            gain = np.vdot(grad, move).real - np.vdot(move, move).real / (2.0 * step)
            if ll_z >= ll + gain:
                break
            step *= _STEP_SHRINK
        if ll_z >= ll:
            sigma, q, ll = z, q_z, ll_z
        step *= _STEP_GROWTH
        history.append(total * ll)
        iterations += 1

    g_inv_sqrt = model.g_inv_sqrt
    rho = g_inv_sqrt @ sigma @ g_inv_sqrt
    rho = (rho + rho.conj().T) / 2.0
    rho /= np.trace(rho).real
    order = list(qubit_order) if qubit_order is not None else list(range(n_qubits))
    return ReconstructionResult(
        rho=DensityMatrix(rho, order),
        iterations=iterations,
        log_likelihood=history[-1],
        stop_reason="certificate" if excess <= IMLM_CERTIFICATE_RTOL else "max_iter",
        certificate=float(total * excess),
        loglik_history=history,
        newton_steps=newton_steps,
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


def _spread(samples: list):
    """The np.std of every number across a list of equally keyed nested
    dicts, under the same keys."""
    if isinstance(samples[0], dict):
        return {key: _spread([s[key] for s in samples]) for key in samples[0]}
    return float(np.std(samples))


def bootstrap_errors(
    counts,
    n_resamples: int,
    seed: int,
    qubit_order: Sequence[int],
    start=None,
) -> tuple[dict, dict]:
    """Parametric bootstrap error bars for the ``w_statistics`` of a fit.

    Each resample draws every count from Poisson(observed count), re-runs the
    reconstruction on the qubits ``qubit_order`` and evaluates
    ``w_statistics``.  Returns the standard deviation over resamples of
    every statistic it gives, under the same nested keys, and a summary of
    the resample fits: how many did not converge, the p50, p90 (nearest
    rank) and max of their iteration counts, and their most Newton steps.
    Resample seeds derive from the master seed, so results are reproducible
    and resamples could run in parallel; every resample shares the cached
    measurement model.  Every resample drawn from the data starts its fit
    at ``start``, normally the fit of the observed counts: a resampled
    count is zero wherever the observed one is.  A resample that draws no
    count at all is replaced by one count per setting, which is not the
    data, so its fit takes the default start.
    """
    if n_resamples < 2:
        raise ValueError("need at least two resamples")
    data = np.asarray(counts, dtype=float)
    _count_total(data)

    child_seeds = np.random.SeedSequence(seed).spawn(n_resamples)
    samples = []
    iterations = []
    unconverged = newton_steps_max = 0
    for child in child_seeds:
        rng = np.random.default_rng(child)
        resampled = rng.poisson(data)
        origin = start
        if resampled.sum() == 0:
            resampled, origin = np.ones_like(resampled), None
        result = imlm_reconstruct(resampled, qubit_order=qubit_order, start=origin)
        iterations.append(result.iterations)
        unconverged += not result.converged
        newton_steps_max = max(newton_steps_max, result.newton_steps)
        samples.append(w_statistics(result.rho))

    # Nearest-rank percentiles: np.percentile would import numpy.ma, about
    # 1 MB of resident memory, for two numbers.
    iterations.sort()
    fits = {
        "unconverged": unconverged,
        "iterations_p50": iterations[math.ceil(0.5 * n_resamples) - 1],
        "iterations_p90": iterations[math.ceil(0.9 * n_resamples) - 1],
        "iterations_max": iterations[-1],
        "newton_steps_max": newton_steps_max,
    }
    return _spread(samples), fits

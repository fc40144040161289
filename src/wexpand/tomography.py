"""Simulated polarization tomography and maximum-likelihood reconstruction.

One coincidence number is recorded per tensor-product projector setting of
the {H, V, D, R}^n family, in setting order: that of
``itertools.product(PROJECTOR_KETS, repeat=n)``, the first qubit's label
varying slowest.  The setting projectors sum to an operator G that is not
proportional to the identity, so the fit works in the frame where they form
a proper POVM (conjugation by G^(-1/2)).  That frame, the
``MeasurementModel``, is built once per qubit count, from one-qubit factors,
and shared by every fit.  In it the fit maximizes the log-likelihood over
density matrices from the projected linear-inversion estimate: projected
gradient finds the support of the optimum, Newton steps on that support
finish, neither lowers the log-likelihood, and it stops on an optimality
certificate, not a stall.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .entanglement import (
    DensityMatrix,
    fidelity,
    pairwise_eof_table,
    w_state_qubits,
    witness_value,
)
from .tolerances import (
    IMLM_CERTIFICATE_RTOL,
    IMLM_MAX_ITER,
    IMLM_PROBABILITY_FLOOR,
    IMLM_RANK_RTOL,
)

# The key order is the label order of the settings.
PROJECTOR_KETS = {
    "H": np.array([1.0, 0.0], dtype=complex),
    "V": np.array([0.0, 1.0], dtype=complex),
    "D": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    "R": np.array([1.0, -1.0j], dtype=complex) / math.sqrt(2.0),
}

# Each gradient step starts at length 1 and shrinks by _STEP_SHRINK while it
# fails the sufficient-increase test.  An iteration whose optimality gap is
# at most _NEWTON_GAP tries a Newton step first.
_STEP_SHRINK = 0.5
_NEWTON_GAP = 3e-2


@dataclass(frozen=True)
class MeasurementModel:
    """The {H, V, D, R}^n settings of one qubit count, as a fit needs them.

    Each row array holds one setting per row, in setting order, as
    interleaved (re, im) doubles.  ``povm_rows`` holds the setting
    projectors P_j in the frame where they resolve the identity, E_j =
    G^(-1/2) P_j G^(-1/2) with G = sum_j P_j: ``povm_rows @
    sigma.ravel().view(float)`` gives the predicted probabilities Tr(E_j
    sigma) of a Hermitian sigma, and ``(w @ povm_rows).view(complex)`` the
    operator sum_j w_j E_j.  ``g_inv_sqrt`` maps a fitted sigma back to rho,
    and ``g_sqrt`` a rho into the fit's frame.  ``inversion`` holds the dual
    basis D_j of the E_j as columns, so ``(inversion @ f).view(complex)``
    solves Tr(E_j sigma) = f_j for a Hermitian sigma: linear inversion.
    """

    g_sqrt: np.ndarray
    g_inv_sqrt: np.ndarray
    povm_rows: np.ndarray
    inversion: np.ndarray


@functools.cache
def measurement_model(n_qubits: int) -> MeasurementModel:
    """The model of the 4^n settings of ``n_qubits`` qubits, built on first
    use, then shared read-only from the cache.  G is the Kronecker power of
    the one-qubit G_1, so G^(+-1/2) and every P_j, E_j and D_j are Kronecker
    products of one-qubit factors (James et al., PRA 64, 052312, 2001)."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    kets = np.array(list(PROJECTOR_KETS.values()))
    projectors = kets[:, :, None] * kets[:, None, :].conj()
    evals, evecs = np.linalg.eigh(projectors.sum(axis=0))
    g_sqrt, g_inv_sqrt = ((evecs * evals**p) @ evecs.conj().T for p in (0.5, -0.5))
    povm = (g_inv_sqrt @ projectors @ g_inv_sqrt).reshape(4, 4)
    # The dual basis, Tr(E_j D_k) = delta_jk: D = Gram^-1 E, Gram_jk = Tr(E_j E_k).
    dual = np.linalg.solve((povm.conj() @ povm.T).real, povm)
    one = [a.reshape(-1, 2, 2) for a in (g_sqrt, g_inv_sqrt, povm, dual)]
    tables = one
    for dim in (2**k for k in range(2, n_qubits + 1)):
        tables = [
            np.einsum("jac,kbd->jkabcd", t, u).reshape(-1, dim, dim)
            for t, u in zip(tables, one)
        ]
    (g_sqrt,), (g_inv_sqrt,), povm, dual = tables
    povm_rows, dual_rows = (t.reshape(len(t), -1).view(np.float64) for t in (povm, dual))
    inversion = np.ascontiguousarray(dual_rows.T)
    for array in (g_sqrt, g_inv_sqrt, povm_rows, inversion):
        array.setflags(write=False)
    return MeasurementModel(g_sqrt, g_inv_sqrt, povm_rows, inversion)


def excitation_probabilities(state) -> np.ndarray:
    """Tr(rho P_j) for every setting, in setting order, of an n x n
    single-excitation state rho of trace one: a_j^dagger rho a_j, where
    a_j[i] = k_i(V) prod_{l != i} k_l(H) is the amplitude of the setting's
    kets k_l on V at qubit i and H elsewhere, built in n Kronecker steps.
    Rounding can leave a zero slightly negative, so the result is clipped
    at zero."""
    state = np.asarray(state, dtype=complex)
    h, v = np.array(list(PROJECTOR_KETS.values())).T[:, :, None]
    a = np.ones((1, 1))  # column 0 on all H, column i + 1 on V at qubit i
    for _ in state:
        a = np.concatenate((a[:, None] * h, a[:, None, :1] * v), axis=2)
        a = a.reshape(-1, a.shape[2])
    a = a[:, 1:]
    born = np.einsum("ji,ji->j", a.conj() @ state, a).real
    return np.clip(born, 0.0, None)


def sample_counts(probabilities, multiplier: float, seed: int) -> np.ndarray:
    """Poisson coincidence counts, one per setting in setting order, with
    means ``multiplier`` x the setting probabilities, deterministic in the
    seed."""
    if multiplier <= 0:
        raise ValueError("count multiplier must be positive")
    means = multiplier * np.asarray(probabilities, dtype=float)
    return np.random.default_rng(seed).poisson(means)


def exact_counts(probabilities, multiplier: float) -> np.ndarray:
    """Noiseless expected coincidence numbers ``multiplier`` x the setting
    probabilities, one per setting in setting order."""
    return multiplier * np.asarray(probabilities, dtype=float)


def flux_for_typical_count(probabilities, typical_count: float) -> float:
    """Count multiplier that makes the average setting expect
    ``typical_count`` events.

    Quoted experimental rates describe detected coincidences at a typical
    setting, so rate x acquisition time fixes flux x (mean Born probability),
    not flux itself.
    """
    mean_p = float(np.mean(np.asarray(probabilities, dtype=float)))
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


def _checked_counts(counts) -> tuple[np.ndarray, int, float]:
    """The counts as floats, their qubit count and their positive, finite
    total, checked to be one nonnegative count per setting."""
    data = np.asarray(counts, dtype=float)
    n_qubits = (data.size.bit_length() - 1) // 2
    if n_qubits < 1 or data.shape != (4**n_qubits,):
        raise ValueError(
            f"need 4^n counts, one per {{H, V, D, R}}^n setting; "
            f"got shape {data.shape}"
        )
    if np.any(data < 0):
        raise ValueError("counts must be nonnegative")
    total = float(data.sum())
    if not 0 < total < math.inf:
        raise ValueError(f"total counts must be positive and finite; got {total}")
    return data, n_qubits, total


def _start_sigma(start, model: MeasurementModel) -> np.ndarray:
    """A caller's start, a matrix in the frame of rho, checked and moved to
    the fit's frame at trace one."""
    start, dim = np.asarray(start, dtype=complex), len(model.g_sqrt)
    if start.shape != (dim, dim):
        raise ValueError(
            f"start must be a {dim}x{dim} density matrix; got shape {start.shape}"
        )
    if not (np.isfinite(start).all() and np.trace(start).real > 0):
        raise ValueError("start must be finite with a positive trace")
    sigma = model.g_sqrt @ start @ model.g_sqrt
    return sigma / np.trace(sigma).real


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


@functools.cache
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


def _newton_system(sigma, r_op, freq, q, rows):
    """The Newton system at sigma: A, the moves B as real rows, J and the
    negated Hessian.  A Newton step moves A = V_r sqrt(Lambda_r), V the
    eigenvectors of sigma = A A^dagger with its support first, to maximize
    F(A) = L / N - Tr(A A^dagger), whose maximum has trace one.  Along moves
    B the rows 2 Re<E_j A, B> make J; the gradient is (f / q - 1) J, as the
    E_j sum to one.  The negated Hessian is J^T diag(f / q^2) J less the
    curvature 2 Re<B, (R - 1) B'> between the moves P C, which come after the
    r^2 moves A S.  At an optimum (R - 1) A = 0, so the curvature of the
    moves A S, left out, vanishes there; away from it their block is the
    Fisher block, PSD (Hradil et al., Lect. Notes Phys. 649, 2004).  That
    block has rank at most the number of nonzero f_j, so with fewer than r^2
    it is singular, and the moves A S keep their curvature too.  The rest
    may be indefinite."""
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
    hessian = (jacobian.T * (freq / q**2)) @ jacobian
    turns = rank * rank if np.count_nonzero(freq) >= rank * rank else 0
    hessian[turns:, turns:] -= 2.0 * (flat[turns:] @ curved[turns:].T)
    return factor, flat, jacobian, hessian


def _likelihood(sigma, freq, rows):
    """The floored q_j = Tr(E_j sigma) of a trace-one sigma and its L / N,
    sum_j f_j log q_j.  The E_j resolve the identity, so the q_j sum to one."""
    q = np.maximum(rows @ sigma.reshape(-1).view(np.float64), IMLM_PROBABILITY_FLOOR)
    return q, float(freq @ np.log(q))


def _newton_step(system, freq, q, ll, rows):
    """One Newton step for frequencies freq along a ``_newton_system`` built
    at sigma, where their q are q and their L / N is ll: the first of the
    lengths 1, 1/2, ..., 1/16 that raises L / N, as its sigma, q and L / N.
    None when the Hessian is singular or no length raises L."""
    factor, flat, jacobian, hessian = system
    try:
        x = np.linalg.solve(hessian, (freq / q - 1.0) @ jacobian)
    except np.linalg.LinAlgError:
        return None
    move = (x @ flat).view(complex).reshape(factor.shape)
    for k in range(5):
        a = factor + _STEP_SHRINK**k * move
        trial = a @ a.conj().T / np.vdot(a, a).real
        q_t, ll_t = _likelihood(trial, freq, rows)
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
        counts: 4^n coincidence numbers, one per setting in setting
            order (exact expected values are fine).
        max_iter: iteration cap, nonnegative.
        qubit_order: spatial-mode ids for the reconstructed qubits
            (defaults to 0..n-1).
        start: density matrix the fit starts from, in the frame of the
            returned rho (defaults to the projected linear inversion).

    The fit maximizes L = sum_j n_j log q_j, q_j = Tr(E_j sigma), over
    density matrices sigma in the frame where the settings resolve the
    identity.  With no ``start`` it starts at P(sigma_LI), the projected
    linear inversion q_j = n_j / N (Smolin, Gambetta & Smith).  A start that
    floors a q_j with n_j > 0 gives way to P(sigma_LI), and P(sigma_LI) to
    I/d.  A projected gradient iteration steps to z = P(sigma + t R(sigma)),
    R = sum_j (n_j / N q_j) E_j, P the projection onto density matrices; t
    starts at 1 and halves until z passes the sufficient-increase test at
    sigma, L(z) / N >= L(sigma) / N + <R, z - sigma> - |z - sigma|^2 / 2t.
    That needs no floor on t: as t -> 0 the last term outweighs any rounding
    in z, and a z equal to sigma bit for bit gains 0 at an equal L, so the
    test passes.  sigma moves to z only if L does not fall.  Every iteration
    first checks the certificate L* - L <= N (lambda_max(R) - 1) (Glancy,
    Knill & Girard, NJP 14, 095017, 2012) and stops once lambda_max - 1 <=
    IMLM_CERTIFICATE_RTOL, or at iteration max_iter.  While that gap e is at
    most _NEWTON_GAP, Newton steps on the support of sigma (``_newton_step``
    along the ``_newton_system`` there, whose Hessian is exact at the optimum
    and Fisher scoring within the support away from it) take the place of
    gradient steps as long as each cuts e 10x.  No iteration lowers L.
    """
    if max_iter < 0:
        raise ValueError(f"max_iter must be nonnegative; got {max_iter}")
    data, n_qubits, total = _checked_counts(counts)
    model = measurement_model(n_qubits)
    dim = 2**n_qubits
    rows = model.povm_rows
    freq = data / total

    if start is not None:
        sigma = _start_sigma(start, model)
        q, ll = _likelihood(sigma, freq, rows)
    if start is None or np.any(q[freq > 0] <= IMLM_PROBABILITY_FLOOR):
        inverted = (model.inversion @ freq).view(complex).reshape(dim, dim)
        sigma = _project_density(inverted)
        q, ll = _likelihood(sigma, freq, rows)
    if np.any(q[freq > 0] <= IMLM_PROBABILITY_FLOOR):
        sigma = np.eye(dim, dtype=complex) / dim
        q, ll = _likelihood(sigma, freq, rows)
    history = [total * ll]
    iterations = newton_steps = 0
    limit = _NEWTON_GAP  # the gap at which an iteration tries a Newton step

    while True:
        grad = ((freq / q) @ rows).view(complex).reshape(dim, dim)
        # lambda_max(R) - 1, clipped at zero: the relative optimality gap.
        excess = max(float(np.linalg.eigvalsh(grad)[-1]) - 1.0, 0.0)
        if excess <= IMLM_CERTIFICATE_RTOL or iterations == max_iter:
            break
        stepped = excess <= limit and _newton_step(
            _newton_system(sigma, grad, freq, q, rows), freq, q, ll, rows
        )
        if stepped:
            sigma, q, ll = stepped
            limit = excess / 10.0
            newton_steps += 1
        else:
            limit, step = _NEWTON_GAP, 1.0
            while True:
                z = _project_density(sigma + step * grad)
                q_z, ll_z = _likelihood(z, freq, rows)
                # The rise the quadratic model with curvature 1/step promises.
                move = z - sigma
                gain = np.vdot(grad, move).real - np.vdot(move, move).real / (2.0 * step)
                if ll_z >= ll + gain:
                    break
                step *= _STEP_SHRINK
            if ll_z >= ll:
                sigma, q, ll = z, q_z, ll_z
        history.append(total * ll)
        iterations += 1

    rho = model.g_inv_sqrt @ sigma @ model.g_inv_sqrt
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


def w_statistics(rhos: Sequence[DensityMatrix]) -> list[dict]:
    """The report's statistics of each fitted N-qubit state in a sequence
    of one qubit count: fidelity to W_N, the W-witness value and the
    entanglement of formation of every qubit pair, keyed by the pair's mode
    ids ("45" for modes 4 and 5), with one ``pairwise_eof_table`` pass."""
    return [
        {
            "fidelity": fidelity(rho, w_state_qubits(rho.n_qubits)),
            "witness": witness_value(rho),
            "pairwise_eof": {f"{i}{j}": value for (i, j), value in table.items()},
        }
        for rho, table in zip(rhos, pairwise_eof_table(rhos))
    ]


def _spread(samples: list):
    """The np.std of every number across a list of equally keyed nested
    dicts, under the same keys."""
    if isinstance(samples[0], dict):
        return {key: _spread([s[key] for s in samples]) for key in samples[0]}
    return float(np.std(samples))


def bootstrap_errors(
    counts, n_resamples: int, seed: int, fit: DensityMatrix
) -> tuple[dict, dict]:
    """Parametric bootstrap error bars for the ``w_statistics`` of ``fit``,
    the reconstruction of ``counts``.

    Each resample draws every count from Poisson(observed count) and re-runs
    the reconstruction on the qubits of ``fit``; one ``w_statistics`` call
    takes all the resample fits.  Returns the standard deviation over
    resamples of every statistic it gives, under the same nested keys, and a
    summary of the resample fits: how many did not converge, the p50, p90
    (nearest rank) and max of their iteration counts, and their most Newton
    steps.  Resample seeds derive from the master seed, so results are
    reproducible; a resample with no count raises ValueError.  A resampled
    count is zero wherever the observed one is, so each resample starts one
    ``_newton_step`` from ``fit``, along the fit's ``_newton_system``, built
    once, or at ``fit`` where that takes none; all share one measurement model.
    """
    if n_resamples < 2:
        raise ValueError("need at least two resamples")
    data, n_qubits, total = _checked_counts(counts)
    if fit.n_qubits != n_qubits:
        raise ValueError(f"fit has {fit.n_qubits} qubits; the counts have {n_qubits}")
    model = measurement_model(n_qubits)
    children = np.random.SeedSequence(seed).spawn(n_resamples)
    try:
        resamples = np.array([np.random.default_rng(c).poisson(data) for c in children])
    except ValueError:  # numpy: "lam value too large"
        raise ValueError(f"count {data.max():g} is too large to resample") from None
    if not resamples.any(axis=1).all():
        raise ValueError(
            f"a resample drew no count: {total:g} counts are too few to bootstrap "
            "(n_resamples 0 skips the bootstrap)"
        )
    starts = [fit.matrix] * n_resamples
    sigma, rows, freq = _start_sigma(fit.matrix, model), model.povm_rows, data / total
    q, _ = _likelihood(sigma, freq, rows)
    grad = ((freq / q) @ rows).view(complex).reshape(sigma.shape)
    system = _newton_system(sigma, grad, freq, q, rows)
    freqs = resamples / resamples.sum(axis=1, keepdims=True)
    for b in range(n_resamples):
        stepped = _newton_step(system, freqs[b], q, freqs[b] @ np.log(q), rows)
        if stepped:
            starts[b] = model.g_inv_sqrt @ stepped[0] @ model.g_inv_sqrt

    results = [
        imlm_reconstruct(resampled, qubit_order=fit.qubit_order, start=origin)
        for resampled, origin in zip(resamples, starts)
    ]
    # Nearest-rank percentiles: np.percentile would import numpy.ma, about
    # 1 MB of resident memory, for two numbers.
    iterations = sorted(result.iterations for result in results)
    fits = {
        "unconverged": sum(not result.converged for result in results),
        "iterations_p50": iterations[math.ceil(0.5 * n_resamples) - 1],
        "iterations_p90": iterations[math.ceil(0.9 * n_resamples) - 1],
        "iterations_max": iterations[-1],
        "newton_steps_max": max(result.newton_steps for result in results),
    }
    return _spread(w_statistics([result.rho for result in results])), fits

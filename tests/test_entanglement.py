import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm
from scipy.optimize import minimize

from wexpand.entanglement import (
    _pair_marginal,
    binary_entropy,
    concurrence,
    eof,
    eof_from_concurrence,
    pairwise_eof_table,
    witness_value,
)
from wexpand.fock import DensityMatrix
from wexpand.gates import excitation_indices, w_state_qubits
from wexpand.tolerances import HERMITICITY_ATOL, PSD_ATOL, TRACE_ATOL

from helpers import density_from_pure, partial_trace, random_density

PAULI_Y = np.array([[0, -1j], [1j, 0]])
YY = np.kron(PAULI_Y, PAULI_Y)

# frozen from the closed-form h((1+sqrt(1-C^2))/2), evaluated independently
EOF_AT_HALF = 0.35457890266527003
EOF_AT_TWO_THIRDS = 0.5500477595827576


def w_density(n):
    w = w_state_qubits(n)
    return density_from_pure(w, list(range(n)))


def test_partial_trace_of_w3_pair():
    # Direct expansion: tracing one qubit of the three-qubit W state leaves
    # (2/3) |psi+><psi+| + (1/3) |HH><HH|.
    marginal = partial_trace(w_density(3), [0, 1])
    psi_plus = np.zeros(4)
    psi_plus[1] = psi_plus[2] = 1 / math.sqrt(2)
    expected = (2 / 3) * np.outer(psi_plus, psi_plus) + (1 / 3) * np.diag(
        [1.0, 0, 0, 0]
    )
    assert np.allclose(marginal.matrix, expected, atol=1e-12)
    assert marginal.qubit_order == [0, 1]


def test_partial_trace_product_state():
    single = np.array([1.0, 1.0j]) / math.sqrt(2)
    other = np.array([0.6, 0.8])
    joint = density_from_pure(np.kron(single, other), [3, 7])
    reduced = partial_trace(joint, [0])
    assert np.allclose(reduced.matrix, np.outer(single, single.conj()), atol=1e-12)
    assert reduced.qubit_order == [3]


def test_partial_trace_keep_all_identity():
    rho = w_density(3)
    assert np.allclose(partial_trace(rho, [0, 1, 2]).matrix, rho.matrix)


def test_concurrence_reference_states():
    bell = np.zeros(4)
    bell[0] = bell[3] = 1 / math.sqrt(2)
    assert concurrence(density_from_pure(bell, [0, 1])) == pytest.approx(1.0)

    product = density_from_pure(np.kron([1, 0], [1, 0]), [0, 1])
    assert concurrence(product) == pytest.approx(0.0, abs=1e-12)


def test_concurrence_of_w_state_pairs_is_two_over_n():
    for n in range(3, 7):
        marginal = partial_trace(w_density(n), [0, 1])
        assert concurrence(marginal) == pytest.approx(2 / n, abs=1e-10)


def test_concurrence_matches_convex_roof_minimization():
    # Oracle: brute-force convex-roof minimization over four-term
    # decompositions of rank-2 states.  Any decomposition is Psi @ V with
    # V a 2x4 slice of a unitary; the average pure-state concurrence is
    # sum_k |(V^T tau V)_kk| with tau = Psi^T (Y x Y) Psi.
    rng = np.random.default_rng(53)

    def convex_roof(rho):
        evals, evecs = np.linalg.eigh(rho)
        keep = evals > 1e-12
        psi = evecs[:, keep] * np.sqrt(evals[keep])
        tau = psi.T @ YY @ psi

        def objective(params):
            h = (params[:16].reshape(4, 4) + 1j * params[16:].reshape(4, 4))
            h = (h + h.conj().T) / 2
            v = expm(1j * h)[:2, :]
            m = v.T @ tau @ v
            return np.abs(np.diag(m)).sum()

        best = np.inf
        for _ in range(6):
            x0 = rng.normal(size=32)
            res = minimize(objective, x0, method="L-BFGS-B")
            best = min(best, res.fun)
        return best

    for _ in range(20):
        x = rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2))
        rho = x @ x.conj().T
        rho /= np.trace(rho).real
        dm = DensityMatrix(rho, [0, 1])
        assert concurrence(dm) == pytest.approx(convex_roof(rho), abs=5e-3)


def test_eof_frozen_values():
    assert eof_from_concurrence(0.5) == pytest.approx(EOF_AT_HALF, abs=1e-12)
    assert eof_from_concurrence(2 / 3) == pytest.approx(EOF_AT_TWO_THIRDS, abs=1e-12)
    assert eof_from_concurrence(0.0) == 0.0
    assert eof_from_concurrence(1.0) == 1.0
    assert binary_entropy(0.5) == pytest.approx(1.0)


def test_eof_of_w4_pair_near_quoted_maximum():
    marginal = partial_trace(w_density(4), [1, 2])
    value = eof(marginal)
    assert value == pytest.approx(EOF_AT_HALF, abs=1e-10)
    assert value == pytest.approx(0.35, abs=5e-3)


def test_witness_values():
    assert witness_value(w_density(3)) == pytest.approx(-1 / 3, abs=1e-12)
    assert witness_value(w_density(4)) == pytest.approx(-1 / 4, abs=1e-12)
    mixed = DensityMatrix(np.eye(8) / 8, [0, 1, 2])
    assert witness_value(mixed) == pytest.approx(2 / 3 - 1 / 8, abs=1e-12)
    for n in range(3, 7):
        assert witness_value(w_density(n)) == pytest.approx(-1 / n, abs=1e-12)


def test_witness_value_is_the_operator_expectation():
    # Oracle: Tr(W rho) with W = ((N-1)/N) 1 - |W_N><W_N| built here, on
    # random mixed states.
    rng = np.random.default_rng(53)
    for n in (3, 4, 5):
        dim = 2**n
        w = w_state_qubits(n)
        operator = ((n - 1) / n) * np.eye(dim) - np.outer(w, w.conj())
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = x @ x.conj().T / np.trace(x @ x.conj().T).real
        expected = np.trace(operator @ rho).real
        assert witness_value(DensityMatrix(rho, list(range(n)))) == pytest.approx(
            expected, abs=1e-12
        )
        assert witness_value(w_density(n)) == pytest.approx(-1 / n)


def test_pairwise_eof_tables():
    table3 = pairwise_eof_table(w_density(3))
    assert set(table3) == {(0, 1), (0, 2), (1, 2)}
    for value in table3.values():
        assert value == pytest.approx(EOF_AT_TWO_THIRDS, abs=1e-10)

    table4 = pairwise_eof_table(w_density(4))
    assert len(table4) == 6
    for value in table4.values():
        assert value == pytest.approx(EOF_AT_HALF, abs=1e-10)

    ghz = np.zeros(8)
    ghz[0] = ghz[7] = 1 / math.sqrt(2)
    table_ghz = pairwise_eof_table(density_from_pure(ghz, [0, 1, 2]))
    for value in table_ghz.values():
        assert value == pytest.approx(0.0, abs=1e-10)


def test_pairwise_eof_symmetry_and_size_monotonicity():
    values = {}
    for n in (3, 4, 5, 6):
        table = pairwise_eof_table(w_density(n))
        spread = max(table.values()) - min(table.values())
        assert spread < 1e-12
        values[n] = next(iter(table.values()))
    assert values[5] < values[3]
    assert values[6] < values[4]


def test_pairwise_table_uses_mode_ids():
    w4 = w_state_qubits(4)
    rho = density_from_pure(w4, [0, 4, 5, 6])
    assert set(pairwise_eof_table(rho)) == {
        (0, 4), (0, 5), (0, 6), (4, 5), (4, 6), (5, 6)
    }


def test_non_hermitian_input_rejected():
    bad = np.eye(4, dtype=complex) / 4
    bad[0, 1] = 0.1
    with pytest.raises(ValueError, match="not Hermitian"):
        DensityMatrix(bad, [0, 1])


def test_invalid_density_matrix_rejected():
    not_psd = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(not_psd, [0, 1])


def test_non_finite_density_matrix_rejected():
    # Every other check compares false on a NaN, so it would pass them all.
    nan_coherence = np.eye(2, dtype=complex) / 2
    nan_coherence[0, 1] = nan_coherence[1, 0] = np.nan
    for bad in (np.full((2, 2), np.nan), nan_coherence, np.diag([np.inf, 0.0])):
        with pytest.raises(ValueError, match="non-finite"):
            DensityMatrix(bad, [0])


def test_concurrence_needs_two_qubits():
    with pytest.raises(ValueError, match="two-qubit"):
        concurrence(w_density(3))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(2, 5), st.data())
def test_pair_marginals_are_density_matrices(n, data):
    # Random valid n-qubit states of random rank: each pair marginal the
    # EOF table reads meets the strict tolerances a DensityMatrix is built
    # with, and equals the explicit-sum oracle's.
    rank = data.draw(st.integers(1, 2**n), label="rank")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    rho = DensityMatrix(random_density(rng, 2**n, rank), list(range(n)))
    for i, j in itertools.combinations(range(n), 2):
        m = _pair_marginal(rho.matrix, n, i, j)
        assert np.max(np.abs(m - m.conj().T)) <= HERMITICITY_ATOL
        assert abs(np.trace(m).real - 1.0) <= TRACE_ATOL
        assert np.linalg.eigvalsh(m).min() >= -PSD_ATOL
        assert np.max(np.abs(m - partial_trace(rho, [i, j]).matrix)) <= 1e-12


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(2, 5), st.floats(0.01, 1.0), st.integers(0, 2**32 - 1))
def test_pairwise_eof_table_matches_the_oracle_marginals(n, noise, seed):
    # A random single-excitation pure state, whose pairs are entangled,
    # mixed with a random full-rank state so that the mixture is full rank.
    rng = np.random.default_rng(seed)
    dim = 2**n
    psi = np.zeros(dim, dtype=complex)
    psi[excitation_indices(n)] = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi /= np.linalg.norm(psi)
    mixture = (1 - noise) * np.outer(psi, psi.conj()) + noise * random_density(rng, dim)
    rho = DensityMatrix(mixture, [10 + q for q in range(n)])
    table = pairwise_eof_table(rho)
    assert len(table) == n * (n - 1) // 2
    for i, j in itertools.combinations(range(n), 2):
        expected = eof(partial_trace(rho, [i, j]))
        assert table[(10 + i, 10 + j)] == pytest.approx(expected, abs=1e-12)


def missing_tolerance(kind, factor, rng, dim):
    """A full-rank dim x dim density matrix that misses one tolerance of
    ``DensityMatrix`` by ``factor`` times that tolerance."""
    if kind == "psd":
        unitary, _ = np.linalg.qr(
            rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        )
        evals = rng.uniform(0.5, 1.0, dim)
        evals[0] = -factor * PSD_ATOL
        evals[1:] *= (1.0 - evals[0]) / evals[1:].sum()
        return (unitary * evals) @ unitary.conj().T
    m = (np.eye(dim) / dim + random_density(rng, dim)) / 2
    if kind == "hermiticity":
        m[0, 1] += factor * HERMITICITY_ATOL
    else:
        m *= 1.0 + factor * TRACE_ATOL
    return m


@pytest.mark.parametrize(
    "kind, message",
    [("hermiticity", "not Hermitian"), ("psd", "negative eigenvalue"), ("trace", "trace")],
)
@settings(max_examples=20, deadline=None, derandomize=True)
@given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_density_matrix_checks_each_tolerance(kind, message, n, seed):
    rng = np.random.default_rng(seed)
    DensityMatrix(missing_tolerance(kind, 0.5, rng, 2**n), list(range(n)))
    with pytest.raises(ValueError, match=message):
        DensityMatrix(missing_tolerance(kind, 2.0, rng, 2**n), list(range(n)))

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from wexpand.cli import _child_seeds, load_config
from wexpand.entanglement import fidelity
from wexpand.fock import DensityMatrix, postselect_qubits, single_photon
from wexpand.gates import MODE_INPUT, OUTPUT_MODES, w_state_qubits
from wexpand import tomography
from wexpand.tolerances import IMLM_CERTIFICATE_RTOL, PSD_ATOL, TRACE_ATOL
from wexpand.tomography import (
    _project_density,
    bootstrap_errors,
    default_settings,
    exact_counts,
    flux_for_typical_count,
    imlm_reconstruct,
    measurement_model,
    sample_counts,
    setting_projector,
    w_statistics,
)

from helpers import density_from_pure, random_density, through_gate

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
W3 = w_state_qubits(3)
RHO_W3 = density_from_pure(W3, [4, 5, 6])
SETTINGS_3 = default_settings(3)


def trace_distance(a, b):
    eigs = np.linalg.eigvalsh(a - b)
    return 0.5 * np.abs(eigs).sum()


def test_default_settings_counts():
    assert len(SETTINGS_3) == 64
    assert len(default_settings(4)) == 256
    assert len(default_settings(2)) == 16
    assert all(len(s) == 3 for s in SETTINGS_3)


def test_projector_identities():
    d = setting_projector(("D",))
    assert np.allclose(d, 0.5 * np.array([[1, 1], [1, 1]]))
    r = setting_projector(("R",))
    assert np.allclose(r, 0.5 * np.array([[1, 1j], [-1j, 1]]))


def test_expected_probabilities_for_w3():
    # At unit flux the expected counts are the Born probabilities.
    probabilities = exact_counts(RHO_W3, 1.0)
    assert probabilities[SETTINGS_3.index(("V", "H", "H"))] == pytest.approx(1 / 3)
    assert probabilities[SETTINGS_3.index(("V", "V", "V"))] == pytest.approx(0.0)
    mixed = DensityMatrix(np.eye(8) / 8, [0, 1, 2])
    assert exact_counts(mixed, 1.0) == pytest.approx([1 / 8] * 64)


def test_sample_counts_deterministic_and_zero_prob():
    a = sample_counts(RHO_W3, 104.0, seed=9)
    b = sample_counts(RHO_W3, 104.0, seed=9)
    assert a.tolist() == b.tolist()
    assert a[SETTINGS_3.index(("V", "V", "V"))] == 0


def test_sample_counts_poisson_mean():
    # Oracle: Poisson statistics; the empirical mean over many draws stays
    # within 3 sigma of flux * probability.
    flux, p = 50.0, 1 / 3
    vhh = SETTINGS_3.index(("V", "H", "H"))
    draws = [sample_counts(RHO_W3, flux, seed)[vhh] for seed in range(400)]
    mean = np.mean(draws)
    sigma = np.sqrt(flux * p / len(draws))
    assert abs(mean - flux * p) < 3 * sigma


def test_imlm_exact_w3_counts():
    counts = exact_counts(RHO_W3, 104.0)
    result = imlm_reconstruct(counts)
    assert fidelity(result.rho, W3) >= 0.999
    assert result.converged


def test_imlm_recovers_maximally_mixed():
    mixed = DensityMatrix(np.eye(8) / 8, [0, 1, 2])
    counts = exact_counts(mixed, 104.0)
    result = imlm_reconstruct(counts)
    assert trace_distance(result.rho.matrix, mixed.matrix) < 0.01


def test_imlm_single_qubit_pure_state():
    assert default_settings(1) == [("H",), ("V",), ("D",), ("R",)]
    result = imlm_reconstruct([100, 0, 50, 50])
    assert fidelity(result.rho, np.array([1.0, 0.0])) >= 0.999


def test_imlm_loglik_nondecreasing_on_random_counts():
    rng = np.random.default_rng(31)
    for _ in range(10):
        rho = DensityMatrix(random_density(rng, 4), [0, 1])
        counts = sample_counts(rho, 80.0, seed=int(rng.integers(1 << 31)))
        result = imlm_reconstruct(counts, max_iter=3000)
        diffs = np.diff(result.loglik_history)
        assert (diffs >= 0).all()


def test_imlm_fixed_point_on_full_rank_states():
    # Exact probabilities of a full-rank state: the generating state is the
    # fixed point the iteration must reach.
    rng = np.random.default_rng(37)
    for trial in range(4):
        for n, dim in ((2, 4), (3, 8)):
            rho = random_density(rng, dim)
            counts = exact_counts(DensityMatrix(rho, list(range(n))), 1e4)
            result = imlm_reconstruct(counts, max_iter=5000)
            assert trace_distance(result.rho.matrix, rho) < 1e-3


def test_imlm_output_physical():
    rng = np.random.default_rng(41)
    for seed in range(5):
        rho = DensityMatrix(random_density(rng, 4, rank=2), [0, 1])
        counts = sample_counts(rho, 30.0, seed=seed)
        result = imlm_reconstruct(counts)
        eigs = np.linalg.eigvalsh(result.rho.matrix)
        assert eigs.min() >= -1e-10
        assert np.trace(result.rho.matrix).real == pytest.approx(1.0, abs=1e-9)


def test_imlm_rejects_counts_that_are_not_4_to_the_n():
    # Counts align with default_settings(n), 4^n of them.
    for counts in ([10] * 5, [10] * 63, [], [10], np.ones((4, 16))):
        with pytest.raises(ValueError, match="4\\^n counts"):
            imlm_reconstruct(counts)


def test_imlm_rejects_empty_data():
    with pytest.raises(ValueError):
        imlm_reconstruct([0] * 64)


@pytest.mark.filterwarnings("ignore:overflow encountered in reduce:RuntimeWarning")
def test_imlm_rejects_negative_count():
    # So is a total that is NaN or infinite, as a sum of huge counts can be
    # (numpy warns of that overflow).  No comparison with a NaN is true, so
    # the fit's backtracking would halve its step forever, and a bootstrap
    # would fail inside numpy's Poisson draw.
    for counts, message in (
        ([-1, 1, 1, 1], "nonnegative"),
        ([np.nan, 1, 1, 1], "finite; got nan"),
        ([np.inf, 1, 1, 1], "finite; got inf"),
        ([1e308, 1e308, 1, 1], "finite; got inf"),
    ):
        with pytest.raises(ValueError, match=message):
            imlm_reconstruct(counts)
        with pytest.raises(ValueError, match=message):
            bootstrap_errors(counts, 2, seed=1, qubit_order=[0])


def test_fidelity_reference_values():
    assert fidelity(RHO_W3, W3) == pytest.approx(1.0)
    mixed = DensityMatrix(np.eye(8) / 8, [0, 1, 2])
    assert fidelity(mixed, W3) == pytest.approx(1 / 8)
    with pytest.raises(ValueError):
        fidelity(mixed, w_state_qubits(2))


def test_fidelity_invariant_under_common_reordering():
    rng = np.random.default_rng(43)
    rho = random_density(rng, 8)
    perm = [2, 0, 1]
    # reorder qubits of both the state and the target identically
    tensor = rho.reshape([2] * 6)
    axes = perm + [3 + p for p in perm]
    rho_perm = tensor.transpose(axes).reshape(8, 8)
    target = w_state_qubits(3)
    target_perm = target.reshape(2, 2, 2).transpose(perm).reshape(8)
    assert fidelity(DensityMatrix(rho, [0, 1, 2]), target) == pytest.approx(
        fidelity(DensityMatrix(rho_perm, [0, 1, 2]), target_perm)
    )


def test_flux_for_typical_count():
    flux = flux_for_typical_count(RHO_W3, 104.0)
    mean_count = np.mean(exact_counts(RHO_W3, flux))
    assert mean_count == pytest.approx(104.0)


def test_bootstrap_deterministic_and_small_at_high_flux():
    rho = density_from_pure(w_state_qubits(2), [0, 1])
    counts = exact_counts(rho, 1e7)
    kwargs = dict(seed=5, qubit_order=[0, 1])
    errs_a, fits_a = bootstrap_errors(counts, 8, **kwargs)
    errs_b, fits_b = bootstrap_errors(counts, 8, **kwargs)
    assert errs_a == errs_b
    assert fits_a == fits_b
    # relative Poisson noise ~ 1/sqrt(1e7 p): errors collapse toward zero
    assert errs_a["fidelity"] < 1e-3
    assert abs(errs_a["witness"]) < 1e-2


def test_bootstrap_spreads_every_statistic_of_w_statistics(monkeypatch):
    # A statistic added to w_statistics, nested or not, gets its bootstrap
    # spread under its own keys, with no change to bootstrap_errors.
    purities = []

    def extended(rho):
        purity = float(np.trace(rho.matrix @ rho.matrix).real)
        purities.append(purity)
        return {**w_statistics(rho), "extra": {"purity": purity}}

    monkeypatch.setattr(tomography, "w_statistics", extended)
    counts = sample_counts(RHO_W3, 300.0, seed=3)
    errors, _ = bootstrap_errors(counts, 4, seed=2, qubit_order=[4, 5, 6])
    assert list(errors) == ["fidelity", "witness", "pairwise_eof", "extra"]
    assert list(errors["pairwise_eof"]) == ["45", "46", "56"]
    assert len(purities) == 4
    assert errors["extra"] == {"purity": float(np.std(purities))}
    assert errors["extra"]["purity"] > 0.0


def test_bootstrap_experiment_scale_error_order():
    flux = flux_for_typical_count(RHO_W3, 104.0)
    counts = sample_counts(RHO_W3, flux, seed=7)
    errs, _ = bootstrap_errors(counts, 25, seed=11, qubit_order=[4, 5, 6])
    # order-of-magnitude agreement with the quoted +/- 0.042
    assert 0.0042 <= errs["fidelity"] <= 0.42


def test_born_probabilities_match_per_setting_traces():
    rng = np.random.default_rng(47)
    for n in (1, 2, 3):
        settings_n = default_settings(n)
        rho = DensityMatrix(random_density(rng, 2**n), list(range(n)))
        reference = [
            np.trace(setting_projector(s) @ rho.matrix).real for s in settings_n
        ]
        counts = exact_counts(rho, 7.0)
        assert counts == pytest.approx(
            [7.0 * p for p in reference], abs=1e-12
        )


def test_imlm_stop_is_count_scale_free():
    # The same exact W3 frequencies at typical counts 1.04, 104 and 1.04e6:
    # the certificate depends on the frequencies alone, so every fit stops
    # on it after about as many iterations, at about the same fidelity.
    # Each starts from the maximally mixed state, since the default start of
    # exact counts is their state.
    unit = flux_for_typical_count(RHO_W3, 1.0)
    iterations, fidelities = [], []
    for typical in (1.04, 104.0, 1.04e6):
        counts = exact_counts(RHO_W3, unit * typical)
        fit = imlm_reconstruct(counts, start=np.eye(8) / 8)
        assert fit.stop_reason == "certificate"
        assert fit.converged
        total = counts.sum()
        assert 0.0 <= fit.certificate <= total * IMLM_CERTIFICATE_RTOL
        iterations.append(fit.iterations)
        fidelities.append(fidelity(fit.rho, W3))
    assert max(iterations) <= 1.25 * min(iterations)
    assert max(fidelities) - min(fidelities) <= 2e-4
    assert min(fidelities) >= 0.999


def test_imlm_iteration_cap_is_not_convergence():
    # Exact counts start the fit at their state, certified at iteration 0,
    # so the capped fit starts from the maximally mixed state.
    counts = exact_counts(RHO_W3, 104.0)
    result = imlm_reconstruct(counts, max_iter=5, start=np.eye(8) / 8)
    assert result.iterations == 5
    assert result.stop_reason == "max_iter"
    assert result.converged is False
    assert result.certificate > 0.0


@st.composite
def count_sets(draw):
    """Arbitrary counts, or Poisson counts of a random state of random rank
    at 0.05 to 500 counts per typical setting, where low flux leaves most
    counts zero; and no start, or a random pure start whose amplitudes are
    zero or 1e-6 off a drawn support, so that it may predict a zero or
    near-zero probability where a count was seen."""
    n_qubits = draw(st.sampled_from((1, 2, 3)))
    size = 4**n_qubits
    dim = 2**n_qubits
    if draw(st.booleans()):
        counts = draw(st.lists(st.integers(0, 1000), min_size=size, max_size=size))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        rank = draw(st.integers(1, dim))
        rho = DensityMatrix(random_density(rng, dim, rank), list(range(n_qubits)))
        typical = draw(st.floats(0.05, 500.0))
        multiplier = flux_for_typical_count(rho, typical)
        counts = sample_counts(rho, multiplier, int(rng.integers(1 << 31))).tolist()
    assume(sum(counts) > 0)
    start = None
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        scales = draw(
            st.lists(st.sampled_from((0.0, 1e-6, 1.0)), min_size=dim, max_size=dim)
        )
        assume(any(scales))
        ket = (rng.normal(size=dim) + 1j * rng.normal(size=dim)) * scales
        start = np.outer(ket, ket.conj()) / np.vdot(ket, ket).real
    return counts, start


@settings(max_examples=80, deadline=None, derandomize=True)
@given(count_sets(), st.integers(1, 200))
@example(([100, 1, 50, 50], np.diag([1.0, 0.0])), 1)
def test_imlm_certificate_bounds_the_remaining_gain(case, cap):
    # Newton steps count as iterations, so a cap can stop a fit between
    # them; every fit, capped or not, keeps its history nondecreasing and
    # returns a density matrix, and an uncapped fit stops certified.  The
    # explicit example starts at |H><H|, which predicts no V click where
    # one was seen: that fit starts at I/d instead, not stopping at |H><H|.
    counts, start = case
    first = imlm_reconstruct(counts, max_iter=cap, start=start)
    full = imlm_reconstruct(counts, start=start)
    assert full.stop_reason == "certificate"
    for fit in (first, full):
        assert (np.diff(fit.loglik_history) >= 0).all()
        assert len(fit.loglik_history) == fit.iterations + 1
        assert 0 <= fit.newton_steps <= fit.iterations
        eigs = np.linalg.eigvalsh(fit.rho.matrix)
        assert eigs.min() >= -PSD_ATOL
        assert np.trace(fit.rho.matrix).real == pytest.approx(1.0, abs=TRACE_ATOL)
    longer = imlm_reconstruct(counts, max_iter=50 * cap, start=start)
    assert longer.log_likelihood - first.log_likelihood <= first.certificate + 1e-9


def test_sampled_fits_finish_with_newton_steps():
    # On the experiment-scale sampled W3 counts, every fit finishes with
    # Newton steps once the gap is small, and its history stays monotone.
    for counts in w3_sampled_count_sets():
        fit = imlm_reconstruct(counts)
        assert fit.converged
        assert fit.newton_steps >= 1
        assert (np.diff(fit.loglik_history) >= 0).all()


def test_imlm_log_likelihoods_are_python_floats():
    result = imlm_reconstruct([10, 20, 30, 40])
    assert type(result.log_likelihood) is float
    assert {type(value) for value in result.loglik_history} == {float}


def test_bootstrap_builds_the_measurement_model_once():
    measurement_model.cache_clear()
    counts = sample_counts(RHO_W3, 300.0, seed=3)
    imlm_reconstruct(counts)
    errs, fits = bootstrap_errors(counts, 4, seed=5, qubit_order=[4, 5, 6])
    assert measurement_model.cache_info().misses == 1
    assert set(fits) == {
        "unconverged",
        "iterations_p50",
        "iterations_p90",
        "iterations_max",
        "newton_steps_max",
    }
    assert fits["unconverged"] == 0
    assert fits["iterations_p50"] <= fits["iterations_p90"] <= fits["iterations_max"]
    assert errs.keys() == {"fidelity", "witness", "pairwise_eof"}
    assert errs["pairwise_eof"].keys() == {"45", "46", "56"}


def w3_sampled_count_sets():
    """The experiment-scale sampled W3 count sets of acceptance criterion
    6(c)."""
    flux = flux_for_typical_count(RHO_W3, 104.0)
    return [sample_counts(RHO_W3, flux, seed) for seed in range(20)]


def test_certificate_is_checked_soon_after_it_first_holds():
    # Refitting with max_iter = k stops at iterate k and checks the
    # certificate there, so the first k whose fit converges is the first
    # certified iterate.  A fit stops on average at most 3 iterations past
    # it; a check every 10 iterations would stop about 5 past it.
    overshoot = []
    for counts in w3_sampled_count_sets():
        fit = imlm_reconstruct(counts)
        assert fit.converged
        first = next(
            k for k in range(fit.iterations + 1)
            if imlm_reconstruct(counts, max_iter=k).converged
        )
        overshoot.append(fit.iterations - first)
    assert min(overshoot) >= 0
    assert np.mean(overshoot) <= 3


def shipped_w3_fit():
    """The sampled counts of configs/w3.json, their fit and the seed of their
    bootstrap."""
    config = load_config(CONFIG_DIR / "w3.json")
    count_seed, bootstrap_seed = _child_seeds(config.seed, 2)
    rho, _ = postselect_qubits(
        through_gate(single_photon(MODE_INPUT, "V"), config.overlap), OUTPUT_MODES
    )
    flux = flux_for_typical_count(rho, config.flux_per_setting)
    counts = sample_counts(rho, flux, count_seed)
    return counts, imlm_reconstruct(counts, qubit_order=rho.qubit_order), bootstrap_seed


def test_warm_started_bootstrap_matches_the_cold_one():
    # The shipped w3 counts: resamples started from the fit of the observed
    # counts give the same error bars as resamples that each start at the
    # projected linear inversion of their own counts.
    counts, fit, bootstrap_seed = shipped_w3_fit()
    order = fit.rho.qubit_order
    cold, cold_fits = bootstrap_errors(counts, 20, bootstrap_seed, order)
    warm, warm_fits = bootstrap_errors(
        counts, 20, bootstrap_seed, order, start=fit.rho.matrix
    )
    assert cold_fits["unconverged"] == warm_fits["unconverged"] == 0
    for key in ("fidelity", "witness"):
        assert warm[key] == pytest.approx(cold[key], abs=1e-5)
    assert warm["pairwise_eof"].keys() == cold["pairwise_eof"].keys()
    for pair, value in cold["pairwise_eof"].items():
        assert warm["pairwise_eof"][pair] == pytest.approx(value, abs=1e-5)


def test_few_newton_attempts_take_no_step(monkeypatch):
    # The warm-started bootstrap of the shipped w3 counts.  An attempt that
    # takes no step still pays for an eigh, the tangent build and the
    # Hessian.  A positive-definiteness test on the Hessian turned 64 of 150
    # attempts here away; with the rise in L as the only gate, 28 of 145
    # take no step.
    counts, fit, bootstrap_seed = shipped_w3_fit()
    newton_step = tomography._newton_step
    stepped = []

    def counted(*args):
        result = newton_step(*args)
        stepped.append(result is not None)
        return result

    monkeypatch.setattr(tomography, "_newton_step", counted)
    bootstrap_errors(
        counts, 20, bootstrap_seed, fit.rho.qubit_order, start=fit.rho.matrix
    )
    assert len(stepped) >= 100
    assert stepped.count(False) <= len(stepped) / 4


def test_resample_without_counts_starts_cold():
    # With one click in all, a resample draws no count at all about a third
    # of the time.  It is then replaced by one count per setting, which is
    # not the data, so its fit starts from the linear inversion of those
    # counts rather than from the one-click fit (0 iterations against 56).
    # Every other resample is the one-click data scaled, whose fit is the
    # start.
    one_click = [1] + [0] * 63
    start = imlm_reconstruct(one_click).rho.matrix
    cold = imlm_reconstruct(np.ones(64))
    assert imlm_reconstruct(np.ones(64), start=start).iterations > cold.iterations
    _, fits = bootstrap_errors(one_click, 8, seed=1, qubit_order=[0, 1, 2], start=start)
    assert fits["unconverged"] == 0
    assert fits["iterations_max"] == cold.iterations


def test_start_of_the_wrong_shape_rejected():
    one_click = [1] + [0] * 63
    for start in (np.eye(4) / 4, np.ones(8) / 8, np.eye(16) / 16):
        with pytest.raises(ValueError, match="8x8"):
            imlm_reconstruct(one_click, start=start)
        with pytest.raises(ValueError, match="8x8"):
            bootstrap_errors(one_click, 2, seed=1, qubit_order=[0, 1, 2], start=start)
    # Nor may a start have a trace the fit cannot divide by.
    for start in (
        np.zeros((8, 8)),
        -np.eye(8),
        np.full((8, 8), np.nan),
        np.diag([np.inf] + [0.0] * 7),
    ):
        with pytest.raises(ValueError, match="finite with a positive trace"):
            imlm_reconstruct(one_click, start=start)
        with pytest.raises(ValueError, match="finite with a positive trace"):
            bootstrap_errors(one_click, 2, seed=1, qubit_order=[0, 1, 2], start=start)


def test_sampled_w3_fits_have_no_heavy_tail():
    # The experiment-scale sampled W3 count sets of acceptance criterion
    # 6(c): every fit stops on the certificate, and none takes a long tail
    # of iterations toward the rank-deficient optimum.
    for counts in w3_sampled_count_sets():
        fit = imlm_reconstruct(counts)
        assert fit.stop_reason == "certificate"
        assert fit.iterations <= 200


@st.composite
def complex_matrices(draw, dim):
    parts = draw(
        st.lists(
            st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
            min_size=2 * dim * dim,
            max_size=2 * dim * dim,
        )
    )
    return np.array(parts).view(complex).reshape(dim, dim)


@st.composite
def projection_cases(draw):
    dim = draw(st.sampled_from((2, 4, 8)))
    a = draw(complex_matrices(dim))
    x = draw(complex_matrices(dim))
    weight = np.trace(x @ x.conj().T).real
    assume(weight > 1e-6)
    return (a + a.conj().T) / 2.0, x @ x.conj().T / weight


@settings(max_examples=60, deadline=None, derandomize=True)
@given(projection_cases())
def test_density_projection_is_the_nearest_density_matrix(case):
    h, rho = case
    p = _project_density(h)
    assert np.linalg.eigvalsh(p).min() >= -PSD_ATOL
    assert np.trace(p).real == pytest.approx(1.0, abs=TRACE_ATOL)
    assert np.abs(_project_density(p) - p).max() <= 1e-10
    assert np.abs(_project_density(rho) - rho).max() <= 1e-10
    # Variational property: every density matrix lies on the far side of
    # the plane through P(h) normal to h - P(h).
    assert np.vdot(h - p, rho - p).real <= 1e-10

from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from wexpand.cli import _child_seeds, load_config
from wexpand.entanglement import (
    DensityMatrix,
    fidelity,
    pairwise_eof_table,
    w_state_qubits,
    witness_value,
)
from wexpand.fock import postselect_qubits
from wexpand.gates import MODE_INPUT, OUTPUT_MODES
from wexpand import tomography
from wexpand.tolerances import (
    IMLM_CERTIFICATE_RTOL,
    IMLM_PROBABILITY_FLOOR,
    PSD_ATOL,
    TRACE_ATOL,
)
from wexpand.tomography import (
    _project_density,
    bootstrap_errors,
    default_settings,
    exact_counts,
    excitation_probabilities,
    flux_for_typical_count,
    imlm_reconstruct,
    measurement_model,
    sample_counts,
    w_statistics,
)

from helpers import (
    born_probabilities,
    cold_bootstrap,
    density_from_pure,
    excitation_density,
    random_density,
    setting_projector,
    single_photon,
    through_gate,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
W3 = w_state_qubits(3)
RHO_W3 = density_from_pure(W3, [4, 5, 6])
P_W3 = born_probabilities(RHO_W3)
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


def test_no_qubits_is_rejected():
    for build in (default_settings, measurement_model):
        with pytest.raises(ValueError, match="at least one qubit"):
            build(0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_measurement_model_matches_the_n_qubit_oracle(n):
    # The oracle does the model's linear algebra at full size: G from the
    # sum of the setting projectors, its eigh, and every E_j = g P_j g.
    projectors = np.array([setting_projector(s) for s in default_settings(n)])
    evals, evecs = np.linalg.eigh(projectors.sum(axis=0))
    g_sqrt = (evecs * np.sqrt(evals)) @ evecs.conj().T
    g_inv_sqrt = (evecs / np.sqrt(evals)) @ evecs.conj().T
    povm = g_inv_sqrt @ projectors @ g_inv_sqrt
    model = measurement_model(n)
    np.testing.assert_allclose(
        model.povm_rows.view(complex).reshape(povm.shape), povm, rtol=0, atol=1e-15
    )
    np.testing.assert_allclose(model.g_sqrt, g_sqrt, rtol=0, atol=1e-13)
    np.testing.assert_allclose(model.g_inv_sqrt, g_inv_sqrt, rtol=0, atol=1e-13)
    identity = model.povm_rows @ model.inversion
    np.testing.assert_allclose(identity, np.eye(4**n), rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_zero_probability_settings_count_exactly_zero(n):
    # A Poisson draw at mean 0 takes no random number, and at mean 1e-17 it
    # does: a zero that rounding turns positive shifts every later count.
    rho = density_from_pure(w_state_qubits(n), list(range(n)))
    probabilities = excitation_probabilities(np.ones((n, n)) / n)
    oracle = np.array(
        [np.trace(setting_projector(s) @ rho.matrix).real for s in default_settings(n)]
    )
    zero = np.abs(oracle) < 1e-15
    assert zero.any()
    assert (probabilities[zero] == 0.0).all()


def test_expected_probabilities_for_w3():
    # At unit flux the expected counts are the Born probabilities.
    probabilities = exact_counts(P_W3, 1.0)
    assert probabilities[SETTINGS_3.index(("V", "H", "H"))] == pytest.approx(1 / 3)
    assert probabilities[SETTINGS_3.index(("V", "V", "V"))] == pytest.approx(0.0)
    mixed = DensityMatrix(np.eye(8) / 8, [0, 1, 2])
    assert exact_counts(born_probabilities(mixed), 1.0) == pytest.approx([1 / 8] * 64)


def test_sample_counts_poisson_mean():
    # Oracle: Poisson statistics; the empirical mean over many draws stays
    # within 3 sigma of flux * probability.
    flux, p = 50.0, 1 / 3
    vhh = SETTINGS_3.index(("V", "H", "H"))
    draws = [sample_counts(P_W3, flux, seed)[vhh] for seed in range(400)]
    mean = np.mean(draws)
    sigma = np.sqrt(flux * p / len(draws))
    assert abs(mean - flux * p) < 3 * sigma


def test_imlm_recovers_maximally_mixed():
    mixed = DensityMatrix(np.eye(8) / 8, [0, 1, 2])
    counts = exact_counts(born_probabilities(mixed), 104.0)
    result = imlm_reconstruct(counts)
    assert trace_distance(result.rho.matrix, mixed.matrix) < 0.01


def test_imlm_single_qubit_pure_state():
    assert default_settings(1) == [("H",), ("V",), ("D",), ("R",)]
    result = imlm_reconstruct([100, 0, 50, 50])
    assert fidelity(result.rho, np.array([1.0, 0.0])) >= 0.999


def test_imlm_fixed_point_on_full_rank_states():
    # Exact probabilities of a full-rank state: the generating state is the
    # fixed point the iteration must reach.
    rng = np.random.default_rng(37)
    for trial in range(4):
        for n, dim in ((2, 4), (3, 8)):
            rho = random_density(rng, dim)
            counts = exact_counts(
                born_probabilities(DensityMatrix(rho, list(range(n)))), 1e4
            )
            result = imlm_reconstruct(counts, max_iter=5000)
            assert trace_distance(result.rho.matrix, rho) < 1e-3


def test_imlm_output_physical():
    rng = np.random.default_rng(41)
    for seed in range(5):
        rho = DensityMatrix(random_density(rng, 4, rank=2), [0, 1])
        counts = sample_counts(born_probabilities(rho), 30.0, seed=seed)
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
            bootstrap_errors(counts, 2, seed=1, fit=DensityMatrix(np.eye(2) / 2, [0]))


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
    flux = flux_for_typical_count(P_W3, 104.0)
    mean_count = np.mean(exact_counts(P_W3, flux))
    assert mean_count == pytest.approx(104.0)


def test_bootstrap_deterministic_and_small_at_high_flux():
    rho = density_from_pure(w_state_qubits(2), [0, 1])
    counts = exact_counts(born_probabilities(rho), 1e7)
    kwargs = dict(seed=5, fit=imlm_reconstruct(counts, qubit_order=[0, 1]).rho)
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

    def extended(rhos):
        batch = [float(np.trace(rho.matrix @ rho.matrix).real) for rho in rhos]
        purities.extend(batch)
        stats = w_statistics(rhos)
        return [{**s, "extra": {"purity": p}} for s, p in zip(stats, batch)]

    monkeypatch.setattr(tomography, "w_statistics", extended)
    counts = sample_counts(P_W3, 300.0, seed=3)
    fit = imlm_reconstruct(counts, qubit_order=[4, 5, 6]).rho
    errors, _ = bootstrap_errors(counts, 4, seed=2, fit=fit)
    assert list(errors) == ["fidelity", "witness", "pairwise_eof", "extra"]
    assert list(errors["pairwise_eof"]) == ["45", "46", "56"]
    assert len(purities) == 4
    assert errors["extra"] == {"purity": float(np.std(purities))}
    assert errors["extra"]["purity"] > 0.0


def test_bootstrap_analyses_all_resample_fits_in_one_pass(monkeypatch):
    # One stacked pairwise_eof_table pass covers every resample fit; the
    # witness is still evaluated once per fit.
    calls = {"pairwise_eof_table": [], "witness_value": 0}

    def tables(rhos):
        calls["pairwise_eof_table"].append(len(rhos))
        return pairwise_eof_table(rhos)

    def witness(rho):
        calls["witness_value"] += 1
        return witness_value(rho)

    monkeypatch.setattr(tomography, "pairwise_eof_table", tables)
    monkeypatch.setattr(tomography, "witness_value", witness)
    counts = sample_counts(P_W3, 300.0, seed=3)
    fit = imlm_reconstruct(counts, qubit_order=[4, 5, 6]).rho
    bootstrap_errors(counts, 4, seed=2, fit=fit)
    assert calls == {"pairwise_eof_table": [4], "witness_value": 4}


def test_bootstrap_keys_pairs_by_the_qubits_of_its_fit():
    # Every resample fit takes the qubit order of the fit it starts from.
    rho = density_from_pure(w_state_qubits(2), [0, 1])
    counts = sample_counts(born_probabilities(rho), 300.0, seed=4)
    fit = imlm_reconstruct(counts, qubit_order=[0, 4]).rho
    errors, _ = bootstrap_errors(counts, 3, seed=6, fit=fit)
    assert list(errors["pairwise_eof"]) == ["04"]


def test_count_functions_take_any_sequence():
    # A list of probabilities and an int multiplier give what an array
    # does, not the list repeated.
    probabilities = [0.25, 0.75]
    np.testing.assert_array_equal(exact_counts(probabilities, 2), [0.5, 1.5])
    assert flux_for_typical_count(probabilities, 2) == 4.0
    np.testing.assert_array_equal(
        sample_counts(probabilities, 2, seed=3),
        sample_counts(np.array(probabilities), 2.0, seed=3),
    )


def test_imlm_stop_is_count_scale_free():
    # The same exact W3 frequencies at typical counts 1.04, 104 and 1.04e6:
    # the certificate depends on the frequencies alone, so every fit stops
    # on it after about as many iterations, at about the same fidelity.
    # Each starts from the maximally mixed state, since the default start of
    # exact counts is their state.
    unit = flux_for_typical_count(P_W3, 1.0)
    iterations, fidelities = [], []
    for typical in (1.04, 104.0, 1.04e6):
        counts = exact_counts(P_W3, unit * typical)
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
    counts = exact_counts(P_W3, 104.0)
    result = imlm_reconstruct(counts, max_iter=5, start=np.eye(8) / 8)
    assert result.iterations == 5
    assert result.stop_reason == "max_iter"
    assert result.converged is False
    assert result.certificate > 0.0


def test_imlm_rejects_a_negative_iteration_cap():
    # A cap below zero is never met, so a fit that never certifies would
    # run without bound; a cap of zero returns the start.
    with pytest.raises(ValueError, match="max_iter must be nonnegative; got -1"):
        imlm_reconstruct([10, 20, 30, 40], max_iter=-1)
    assert imlm_reconstruct([10, 20, 30, 40], max_iter=0).iterations == 0


def test_bootstrap_names_a_count_too_large_to_resample():
    # The fit certifies these counts, but numpy draws no Poisson count
    # above about 9.2e18.
    fit = imlm_reconstruct([1e19, 1, 1, 1])
    assert fit.converged
    with pytest.raises(ValueError, match="count 1e\\+19 is too large to resample"):
        bootstrap_errors([1e19, 1, 1, 1], 2, seed=1, fit=fit.rho)


def test_start_that_floors_an_observed_count_gives_way_to_the_inversion():
    # |H><H| predicts no V click where one was seen.  The fit starts at the
    # projected linear inversion instead, as with no start, which these
    # counts certify at iteration 0.  Started at I/d, the fit took 27.
    counts = [100, 1, 50, 50]
    default = imlm_reconstruct(counts)
    fit = imlm_reconstruct(counts, start=np.diag([1.0, 0.0]))
    assert default.iterations == fit.iterations == 0
    np.testing.assert_array_equal(fit.rho.matrix, default.rho.matrix)


def test_inversion_that_floors_an_observed_count_gives_way_to_the_mixed_state():
    # Take u along E_j of setting (V, V), and v1, n1, n2 orthonormal and
    # orthogonal to it.  sigma_LI = (1 + s)|v1><v1| + l2|u><u| - a(|n1><n1|
    # + |n2><n2|), with s = 1e-3, l2 = 5e-4 < s and a = (s + l2) / 2,
    # predicts a positive frequency at every setting, but its projection is
    # |v1><v1|, which predicts none where (V, V) was seen.  The fit then
    # starts at I/d and certifies in 144 iterations; started at the
    # projection it ran to the cap, so the cap here makes that fail fast.
    model = measurement_model(2)
    vv = default_settings(2).index(("V", "V"))
    along_e = np.linalg.eigh(model.povm_rows[vv].view(complex).reshape(4, 4))[1][:, -1]
    others = [[1, 1, 1, 0], [1, -1j, 0, 1], [0, 1, -1, 1j]]
    u, v1, n1, n2 = np.linalg.qr(np.column_stack([along_e, *others]))[0].T
    s, l2 = 1e-3, 5e-4
    sigma_li = (1 + s) * np.outer(v1, v1.conj()) + l2 * np.outer(u, u.conj())
    sigma_li -= (s + l2) / 2 * (np.outer(n1, n1.conj()) + np.outer(n2, n2.conj()))
    freq = model.povm_rows @ sigma_li.reshape(-1).view(np.float64)
    assert freq.min() > 0
    counts = np.round(1e9 * freq)
    inverted = (model.inversion @ (counts / counts.sum())).view(complex).reshape(4, 4)
    projected = _project_density(inverted).reshape(-1).view(np.float64)
    assert model.povm_rows[vv] @ projected <= IMLM_PROBABILITY_FLOOR
    assert imlm_reconstruct(counts, max_iter=1000).converged


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
        probabilities = born_probabilities(rho)
        multiplier = flux_for_typical_count(probabilities, typical)
        counts = sample_counts(probabilities, multiplier, int(rng.integers(1 << 31)))
        counts = counts.tolist()
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
    # one was seen: that fit starts at the projected linear inversion
    # instead, not stopping at |H><H|.
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
    counts = sample_counts(P_W3, 300.0, seed=3)
    fit = imlm_reconstruct(counts, qubit_order=[4, 5, 6])
    errs, fits = bootstrap_errors(counts, 4, seed=5, fit=fit.rho)
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
    flux = flux_for_typical_count(P_W3, 104.0)
    return [sample_counts(P_W3, flux, seed) for seed in range(20)]


def test_certificate_is_checked_soon_after_it_first_holds():
    # Refitting with max_iter = k stops at iterate k and checks the
    # certificate there, so the first k whose fit converges is the first
    # certified iterate.  Every iteration checks the certificate before it
    # steps, so a fit stops exactly there.  The one-qubit count sets certify
    # while the gap is above the Newton range, where a check that skipped
    # iterations would stop 3 to 5 past it.
    count_sets = [[11, 0, 3, 4], [0, 10, 7, 27], [1, 12, 23, 11]]
    for counts in count_sets + w3_sampled_count_sets():
        fit = imlm_reconstruct(counts)
        assert fit.converged
        first = next(
            k for k in range(fit.iterations + 1)
            if imlm_reconstruct(counts, max_iter=k).converged
        )
        assert fit.iterations == first


def test_start_after_a_deep_backtrack_certifies_in_few_iterations():
    # A start near |H><H| predicts the V clicks that were seen with a
    # probability just above the floor, so its first gradient step halves
    # 55 times.  Each later step starts again at length 1 and needs about 3
    # halvings fewer than the one before, so the fit certifies in about 20
    # iterations.  A step carried between iterations and regrown by 1.1x
    # each would need about 400.
    counts = [0, 12, 41, 47]
    fit = imlm_reconstruct(counts, start=np.diag([1.0, 0.0]) + 1e-9 * np.eye(2))
    default = imlm_reconstruct(counts)
    assert fit.stop_reason == "certificate"
    assert fit.iterations <= 40
    assert (np.diff(fit.loglik_history) >= 0).all()
    gap = abs(fit.log_likelihood - default.log_likelihood)
    assert gap <= fit.certificate + default.certificate


def test_slow_sparse_fit_certifies_within_its_pinned_iterations():
    # Three nonzero settings of three qubits: the slowest fit a sparse fuzz
    # found, 161 iterations from the default start.  Every Newton attempt
    # takes a step, but none cuts the gap 10x, so each is followed by a
    # gradient step.  The cap keeps that alternation from getting slower.
    # Its support has rank 2, so 4 moves A S, and three counts give their
    # Fisher block rank 3 at most.  With that block alone the system was
    # singular to rounding: its steps moved along the null direction and
    # changed no q_j of a count, none of 101 attempts cut the gap at all, 13
    # took no step, and the fit took 196 to 198 iterations as the counts
    # were scaled.  So these moves keep their curvature.
    counts = np.zeros(64)
    counts[[25, 54, 60]] = [889, 456, 458]
    fit = imlm_reconstruct(counts)
    assert fit.stop_reason == "certificate"
    assert (np.diff(fit.loglik_history) >= 0).all()
    assert fit.iterations <= 200
    turns, hessian, fisher, curvature, _, _ = newton_terms(fit.rho.matrix, counts)
    assert turns == 4
    full = fisher - curvature
    assert np.abs(hessian - full).max() <= 1e-12 * np.abs(full).max()


def shipped_w3_fit():
    """The sampled counts of configs/w3.json, their fit and the seed of their
    bootstrap."""
    config = load_config(CONFIG_DIR / "w3.json")
    count_seed, bootstrap_seed = _child_seeds(config.seed, 2)
    rho, _ = postselect_qubits(
        through_gate(single_photon(MODE_INPUT, "V"), config.overlap), OUTPUT_MODES
    )
    probabilities = born_probabilities(rho)
    flux = flux_for_typical_count(probabilities, config.flux_per_setting)
    counts = sample_counts(probabilities, flux, count_seed)
    return counts, imlm_reconstruct(counts, qubit_order=rho.qubit_order), bootstrap_seed


def test_warm_started_bootstrap_matches_the_cold_one():
    # The shipped w3 counts: resamples started from the fit of the observed
    # counts give the same error bars as the same resamples each fitted
    # from the projected linear inversion of their own counts.
    counts, fit, bootstrap_seed = shipped_w3_fit()
    cold, cold_unconverged = cold_bootstrap(
        counts, 20, bootstrap_seed, fit.rho.qubit_order
    )
    warm, warm_fits = bootstrap_errors(counts, 20, bootstrap_seed, fit.rho)
    assert cold_unconverged == warm_fits["unconverged"] == 0
    for key in ("fidelity", "witness"):
        assert warm[key] == pytest.approx(cold[key], abs=1e-5)
    assert warm["pairwise_eof"].keys() == cold["pairwise_eof"].keys()
    for pair, value in cold["pairwise_eof"].items():
        assert warm["pairwise_eof"][pair] == pytest.approx(value, abs=1e-5)


def test_few_newton_attempts_take_no_step(monkeypatch):
    # The warm-started bootstrap of the shipped w3 counts.  An attempt that
    # takes no step still pays for an eigh, the tangent build and the
    # Hessian.  Over 20 resamples started at the fit, a positive-definiteness
    # test on the Hessian turned 64 of 150 attempts away; with the rise in L
    # as the only gate, 28 of 145 took no step.  Started one shared Newton
    # step from the fit, 20 resamples make only 86 attempts, so this draws
    # 30.  Their fits make 97 attempts and the 30 start steps on the fit's
    # system 30: every one takes a step.  With the full curvature on the
    # moves A S, 12 of 157 took none.
    counts, fit, bootstrap_seed = shipped_w3_fit()
    newton_step = tomography._newton_step
    stepped = []

    def counted(*args):
        result = newton_step(*args)
        stepped.append(result is not None)
        return result

    monkeypatch.setattr(tomography, "_newton_step", counted)
    bootstrap_errors(counts, 30, bootstrap_seed, fit.rho)
    assert len(stepped) >= 100
    assert stepped.count(False) <= len(stepped) / 20


def recorded_resample_fits(monkeypatch, case, n_resamples):
    """The counts, start and result of each resample fit in the
    warm-started bootstrap of ``case``: W3 counts, their fit and a bootstrap
    seed."""
    counts, fit, bootstrap_seed = case
    reconstruct = tomography.imlm_reconstruct
    fits = []

    def recorded(resampled, **kwargs):
        result = reconstruct(resampled, **kwargs)
        fits.append((resampled, kwargs["start"], result))
        return result

    monkeypatch.setattr(tomography, "imlm_reconstruct", recorded)
    bootstrap_errors(counts, n_resamples, bootstrap_seed, fit.rho)
    return fits


def test_shared_newton_start_cuts_resample_iterations(monkeypatch):
    # Started at the fit, the 20 resample fits of the shipped w3 counts took
    # 10.5 iterations each on average; one shared Newton step from it gives
    # 4.25.
    fits = recorded_resample_fits(monkeypatch, shipped_w3_fit(), 20)
    assert len(fits) == 20
    assert all(result.converged for _, _, result in fits)
    assert np.mean([result.iterations for _, _, result in fits]) <= 8


def sparse_w3_fit():
    """Sampled W3 counts at 5 per typical setting, their fit and the seed of
    their bootstrap."""
    counts = sample_counts(P_W3, flux_for_typical_count(P_W3, 5.0), seed=2)
    return counts, imlm_reconstruct(counts, qubit_order=[4, 5, 6]), 2


def test_kept_newton_starts_raise_the_resample_likelihood(monkeypatch):
    # A resample starts where the fit's Newton step, backtracking included,
    # raises its L above the fit's.  All 20 of these resamples do, 5 of them
    # at half length.  max_iter=0 gives L at a start.
    case = sparse_w3_fit()
    fit = case[1]
    fits = recorded_resample_fits(monkeypatch, case, 20)
    kept = [(c, start) for c, start, _ in fits if start is not fit.rho.matrix]
    assert len(kept) == 20
    for resampled, start in kept:
        at_start = imlm_reconstruct(resampled, max_iter=0, start=start)
        at_fit = imlm_reconstruct(resampled, max_iter=0, start=fit.rho.matrix)
        assert at_start.log_likelihood > at_fit.log_likelihood


def test_singular_shared_system_starts_every_resample_at_the_fit(monkeypatch):
    # The bootstrap builds the shared Newton system before any resample
    # fit; made singular, it gives no step, and every resample starts at
    # the fit.
    shipped = shipped_w3_fit()
    system = tomography._newton_system
    calls = []

    def singular_first(*args):
        factor, flat, jacobian, hessian = system(*args)
        calls.append(args)
        return factor, flat, jacobian, 0.0 * hessian if len(calls) == 1 else hessian

    monkeypatch.setattr(tomography, "_newton_system", singular_first)
    fits = recorded_resample_fits(monkeypatch, shipped, 4)
    assert len(fits) == 4
    assert all(start is shipped[1].rho.matrix for _, start, _ in fits)
    assert all(result.converged for _, _, result in fits)


def test_resample_whose_newton_step_takes_none_starts_at_the_fit(monkeypatch):
    # The bootstrap takes every resample's start step before any resample
    # fit.  Made to take none on its second call, the second resample starts
    # at the fit and the others where their steps go.
    case = sparse_w3_fit()
    fit = case[1]
    newton_step = tomography._newton_step
    calls = []

    def none_second(*args):
        calls.append(args)
        return None if len(calls) == 2 else newton_step(*args)

    monkeypatch.setattr(tomography, "_newton_step", none_second)
    starts = [start for _, start, _ in recorded_resample_fits(monkeypatch, case, 4)]
    assert [start is fit.rho.matrix for start in starts] == [False, True, False, False]


def test_resample_without_counts_starts_cold():
    # With one click in all, a resample draws no count at all about a third
    # of the time.  It is then replaced by one count per setting, which is
    # not the data, so its fit starts from the linear inversion of those
    # counts rather than from the one-click fit (0 iterations against 14).
    # Every other resample is the one-click data scaled, whose fit is the
    # start.
    one_click = [1] + [0] * 63
    fit = imlm_reconstruct(one_click).rho
    cold = imlm_reconstruct(np.ones(64))
    assert imlm_reconstruct(np.ones(64), start=fit.matrix).iterations > cold.iterations
    _, fits = bootstrap_errors(one_click, 8, seed=1, fit=fit)
    assert fits["unconverged"] == 0
    assert fits["iterations_max"] == cold.iterations


def test_start_of_the_wrong_shape_rejected():
    one_click = [1] + [0] * 63
    for start in (np.eye(4) / 4, np.ones(8) / 8, np.eye(16) / 16):
        with pytest.raises(ValueError, match="8x8"):
            imlm_reconstruct(one_click, start=start)
    # Nor may the bootstrap's fit have other than the counts' qubit count.
    for n_qubits in (2, 4):
        fit = DensityMatrix(np.eye(2**n_qubits) / 2**n_qubits, list(range(n_qubits)))
        with pytest.raises(ValueError, match=f"fit has {n_qubits} qubits; the counts have 3"):
            bootstrap_errors(one_click, 2, seed=1, fit=fit)
    # Nor may a start have a trace the fit cannot divide by.
    for start in (
        np.zeros((8, 8)),
        -np.eye(8),
        np.full((8, 8), np.nan),
        np.diag([np.inf] + [0.0] * 7),
    ):
        with pytest.raises(ValueError, match="finite with a positive trace"):
            imlm_reconstruct(one_click, start=start)


def poisson_counts(rng, rho, typical):
    """Poisson counts of rho at ``typical`` counts per typical setting."""
    probabilities = born_probabilities(rho)
    multiplier = flux_for_typical_count(probabilities, typical)
    return sample_counts(probabilities, multiplier, int(rng.integers(1 << 31)))


@st.composite
def random_state_counts(draw):
    """Poisson counts of a random state of random rank on one to three
    qubits, at 10 to 1000 counts per typical setting, and a generator for
    further draws."""
    n_qubits = draw(st.sampled_from((1, 2, 3)))
    dim = 2**n_qubits
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rho = DensityMatrix(random_density(rng, dim, draw(st.integers(1, dim))),
                        list(range(n_qubits)))
    return poisson_counts(rng, rho, draw(st.floats(10.0, 1000.0))), rng


def newton_terms(rho, counts):
    """The parts of the Newton system of ``counts`` at a state rho: the
    number r^2 of moves A S, the negated Hessian, the Fisher term
    J^T diag(f/q^2) J and the full curvature 2 Re<B, (R - 1) B'> over all
    moves B, the gap lambda_max(R) - 1 and the norm of each move."""
    data, n_qubits, total = tomography._checked_counts(counts)
    model = measurement_model(n_qubits)
    rows, freq, dim = model.povm_rows, data / total, len(rho)
    sigma = tomography._start_sigma(rho, model)
    q, _ = tomography._likelihood(sigma, freq, rows)
    grad = ((freq / q) @ rows).view(complex).reshape(dim, dim)
    factor, flat, jacobian, hessian = tomography._newton_system(sigma, grad, freq, q, rows)
    moves = flat.view(complex).reshape(len(flat), dim, -1)
    bent = (grad - np.eye(dim)) @ moves
    curvature = 2.0 * np.einsum("mij,nij->mn", moves.conj(), bent).real
    fisher = (jacobian.T * (freq / q**2)) @ jacobian
    gap = float(np.linalg.eigvalsh(grad)[-1]) - 1.0
    return factor.shape[1] ** 2, hessian, fisher, curvature, gap, np.linalg.norm(flat, axis=1)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(random_state_counts())
def test_newton_support_block_is_the_fisher_block(case):
    # The moves A S, the first r^2, see only J^T diag(f/q^2) J, which is
    # PSD at any state; the moves P C also keep the curvature
    # 2 Re<B, (R - 1) B'>.  Where fewer than r^2 counts are nonzero, that
    # Fisher block is singular, and every move keeps its curvature.  What
    # the support rows drop vanishes at the optimum, where (R - 1) A = 0.
    # At a fit with gap e = lambda_max(R) - 1, M = (1 + e) - R is PSD with
    # Tr(A^dagger M A) <= e, so |(R - 1) A|_F <= e + sqrt(e (1 + e)), and
    # each dropped entry is at most twice that times the norm of its move B'.
    counts, rng = case
    fit = imlm_reconstruct(counts)
    assert fit.converged
    for rho in (random_density(rng, fit.rho.dim), fit.rho.matrix):
        turns, hessian, fisher, curvature, gap, norms = newton_terms(rho, counts)
        fisher_only = turns if np.count_nonzero(counts) >= turns else 0
        eigs = np.linalg.eigvalsh(hessian[:fisher_only, :fisher_only])
        assert eigs.size == 0 or eigs[0] >= -1e-12 * eigs[-1]
        scale = np.abs(fisher).max() + np.abs(curvature).max()
        assert (np.abs(hessian - fisher)[:fisher_only] <= 1e-12 * scale).all()
        kept = np.abs(hessian - fisher + curvature)[fisher_only:, fisher_only:]
        assert (kept <= 1e-12 * scale).all()
    gap = max(gap, 0.0)
    bound = 2.0 * (gap + np.sqrt(gap * (1.0 + gap))) * norms
    assert (np.abs(curvature[:turns]) <= bound + 1e-12).all()


def test_random_state_fits_certify_in_few_iterations():
    # 100 fits of Poisson counts of random states of two to four qubits, at
    # a random rank and 10 to 1000 counts per typical setting.  With the
    # Fisher block on the moves A S they take 831 iterations, at most 19;
    # with the full curvature there they took 1,565, at most 70.
    rng = np.random.default_rng(1)
    iterations = []
    for _ in range(100):
        n_qubits = int(rng.integers(2, 5))
        dim = 2**n_qubits
        rank = int(rng.integers(1, dim + 1))
        rho = DensityMatrix(random_density(rng, dim, rank), list(range(n_qubits)))
        typical = float(np.exp(rng.uniform(np.log(10.0), np.log(1000.0))))
        fit = imlm_reconstruct(poisson_counts(rng, rho, typical))
        assert fit.converged
        iterations.append(fit.iterations)
    assert max(iterations) <= 30


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


@st.composite
def excitation_matrices(draw):
    """An unnormalized complex PSD single-excitation matrix of 1 to 5
    qubits, in which some qubits may never hold the V photon."""
    n = draw(st.integers(1, 5))
    x = draw(complex_matrices(n))
    x[draw(st.lists(st.booleans(), min_size=n, max_size=n))] = 0.0
    matrix = x @ x.conj().T
    assume(np.trace(matrix).real > 1e-6)
    return matrix


@settings(max_examples=60, deadline=None, derandomize=True)
@given(excitation_matrices())
def test_excitation_probabilities_match_per_setting_traces(matrix):
    # Each setting's probability is the trace of its projector with the
    # dense state, and the settings that state gives exactly zero get
    # exactly zero.  A complex matrix tells a_j^dagger M a_j from its
    # conjugate, which no real matrix, as every shipped run builds, can.
    probabilities = excitation_probabilities(matrix)
    oracle = born_probabilities(excitation_density(matrix, range(len(matrix))))
    np.testing.assert_allclose(probabilities, oracle, rtol=0, atol=1e-15)
    np.testing.assert_array_equal(probabilities == 0, oracle == 0)

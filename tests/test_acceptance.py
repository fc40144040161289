"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines on a green run.
"""

import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest

from wexpand.cli import ExperimentConfig, emit_report, load_config, run_scenario
from wexpand.entanglement import DensityMatrix, fidelity, w_state_qubits, witness_value
from wexpand.fock import postselect_qubits, tensor
from wexpand.gates import OUTPUT_MODES, success_probability_analytic
from wexpand.optics import apply_circuit, beamsplitter
from wexpand.sources import calibrate_overlap_for_visibility, dip_coefficients, hom_scan
from wexpand.tomography import (
    bootstrap_errors,
    exact_counts,
    flux_for_typical_count,
    imlm_reconstruct,
    sample_counts,
)

from helpers import (
    born_probabilities,
    concurrence,
    density_from_pure,
    expanded_w,
    partial_trace,
    single_photon,
    through_gate,
    w_density,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def test_criterion_1_success_probability_table():
    start = time.monotonic()
    rows = run_scenario(ExperimentConfig(scenario="scaling"))["results"]["rows"]
    assert [row["n"] for row in rows] == [1, 2, 3, 4, 5, 6, 7, 8, 16, 64, 1024]
    for row in rows:
        n = row["n"]
        assert row["simulated"] == pytest.approx(
            success_probability_analytic(n), abs=1e-10
        )
        assert row["fidelity"] == pytest.approx(1.0, abs=1e-10)
        for value in row["pair_concurrence"].values():
            assert value is None or value == pytest.approx(2 / (n + 2), abs=1e-10)
    assert rows[0]["simulated"] == pytest.approx(3 / 16, abs=1e-10)
    assert rows[1]["simulated"] == pytest.approx(1 / 8, abs=1e-10)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 1 PASS: simulated success probability equals (N+2)/(16N) "
        f"for N=1..8, 16, 64, 1024 within 1e-10, at fidelity 1 and pair "
        f"concurrence 2/(N+2) ({elapsed:.1f}s)"
    )


def test_criterion_2_state_correctness():
    for n in range(1, 9):
        rho, _ = expanded_w(n)
        assert fidelity(rho, w_state_qubits(n + 2)) >= 1 - 1e-10
    rho3, _ = expanded_w(1)
    nonzero = np.argwhere(np.abs(rho3.matrix) > 1e-12)
    support = {1, 2, 4}  # HHV, HVH, VHH
    assert len(nonzero) == 9
    assert {(i, j) for i, j in map(tuple, nonzero)} == {
        (i, j) for i in support for j in support
    }
    assert np.max(np.abs(rho3.matrix.imag)) < 1e-12
    print(
        "\nACCEPTANCE 2 PASS: post-selected output matches the W state for "
        "N=1..8; three-qubit matrix has the nine-element real support"
    )


def test_criterion_3_h_input_suppression():
    _, prob_v = postselect_qubits(through_gate(single_photon(1, "V")), OUTPUT_MODES)
    rho_h, prob_h = postselect_qubits(through_gate(single_photon(1, "H")), OUTPUT_MODES)
    assert prob_h == pytest.approx(1 / 16, abs=1e-12)
    assert prob_v / prob_h == pytest.approx(3.0, abs=1e-12)
    hhh = np.zeros(8)
    hhh[0] = 1.0
    assert fidelity(rho_h, hhh) == pytest.approx(1.0, abs=1e-12)
    print(
        "\nACCEPTANCE 3 PASS: H input collapses to HHH at 1/16, a factor 3 "
        "below the V-input success"
    )


def test_criterion_4_witness_values():
    assert witness_value(w_density(3)) == pytest.approx(-1 / 3, abs=1e-12)
    assert witness_value(w_density(4)) == pytest.approx(-1 / 4, abs=1e-12)
    print(
        "\nACCEPTANCE 4 PASS: witness expectation is -1/3 on the ideal "
        "three-qubit W state and -1/4 on the four-qubit one"
    )


def test_criterion_5_pairwise_entanglement():
    import itertools

    from wexpand.entanglement import pairwise_eof_table

    for n in range(3, 7):
        rho = w_density(n)
        for pair in itertools.combinations(range(n), 2):
            marginal = partial_trace(rho, list(pair))
            assert concurrence(marginal) == pytest.approx(2 / n, abs=1e-10)
    for value in pairwise_eof_table([w_density(4)])[0].values():
        assert value == pytest.approx(0.3546, abs=5e-4)
    print(
        "\nACCEPTANCE 5 PASS: every pair marginal of the N-qubit W state has "
        "concurrence 2/N (N=3..6); all six four-qubit pair EOFs = 0.3546"
    )


def test_criterion_6_imlm_soundness():
    start = time.monotonic()
    rng = np.random.default_rng(2026)

    # (a) log-likelihood nondecreasing on 100 random count sets
    checked = 0
    for k in range(100):
        n = 2 if k < 80 else 3
        dim = 2**n
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        rho = x @ x.conj().T
        rho /= np.trace(rho).real
        counts = sample_counts(
            born_probabilities(DensityMatrix(rho, list(range(n)))),
            float(rng.uniform(20, 200)),
            seed=int(rng.integers(1 << 31)),
        )
        result = imlm_reconstruct(counts, max_iter=1500)
        assert (np.diff(result.loglik_history) >= 0).all()
        checked += 1
    assert checked == 100

    # (b) exact-probability reconstruction of the ideal three-qubit W state
    w3 = w_state_qubits(3)
    p_w3 = born_probabilities(density_from_pure(w3, [4, 5, 6]))
    flux = flux_for_typical_count(p_w3, 104.0)
    exact_result = imlm_reconstruct(exact_counts(p_w3, flux))
    fid_exact = fidelity(exact_result.rho, w3)
    assert fid_exact >= 0.999

    # (c) experiment-scale sampled reconstruction: the quoted rate x time
    # fixes the detected counts at a typical setting (104), i.e. flux x mean
    # setting probability.
    fidelities = []
    for seed in range(20):
        counts = sample_counts(p_w3, flux, seed)
        result = imlm_reconstruct(counts)
        fidelities.append(fidelity(result.rho, w3))
    mean_fid = float(np.mean(fidelities))
    assert mean_fid >= 0.95

    counts = sample_counts(p_w3, flux, 7)
    fit = imlm_reconstruct(counts, qubit_order=[4, 5, 6])
    errors, _ = bootstrap_errors(counts, 30, seed=11, fit=fit.rho)
    assert 0.0042 <= errors["fidelity"] <= 0.42

    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(
        f"\nACCEPTANCE 6 PASS: (a) log-likelihood monotone on 100 random count "
        f"sets; (b) exact-count fidelity {fid_exact:.5f} >= 0.999; (c) mean "
        f"sampled fidelity {mean_fid:.4f} >= 0.95 with bootstrap error "
        f"{errors['fidelity']:.4f} ~ 0.042 ({elapsed:.0f}s)"
    )


def test_criterion_7_hom_and_noise_properties():
    # ideal indistinguishable two-photon interference: zero coincidence
    bs = beamsplitter(1, 2, 3, 4)
    out = apply_circuit(
        tensor(single_photon(1, "H"), single_photon(2, "H")), [bs]
    )
    from wexpand.fock import coincidence_probability

    assert coincidence_probability(out, (3, 4)) <= 1e-12

    # calibrated dip: Gaussian of visibility 0.85 and width set by the
    # 144 um coherence length, within 2% of the flat level at all samples
    dip = dip_coefficients(0.03)
    xi0 = calibrate_overlap_for_visibility(0.85, dip)
    delays = [float(d) for d in range(-400, 401, 40)]
    curve = hom_scan(delays, dip, xi0, 144.0)
    flat, _ = dip
    for delta, prob in curve:
        reference = flat * (1.0 - 0.85 * math.exp(-((delta / 144.0) ** 2)))
        assert abs(prob - reference) <= 0.02 * flat
    lookup = dict(curve)
    for delta in (40.0, 120.0, 280.0, 400.0):
        assert lookup[delta] == pytest.approx(lookup[-delta], abs=1e-12)

    # noise-model properties in place of the unreproducible raw fidelities:
    # fidelity decreases monotonically with the overlap knob and every
    # pairwise coherence dies at zero overlap
    fidelities = []
    for overlap in (1.0, 0.9, 0.8):
        state = through_gate(single_photon(1, "V"), overlap)
        rho, _ = postselect_qubits(state, OUTPUT_MODES)
        fidelities.append(fidelity(rho, w_state_qubits(3)))
    assert fidelities[0] > fidelities[1] > fidelities[2]

    rho0, _ = postselect_qubits(through_gate(single_photon(1, "V"), 0.0), OUTPUT_MODES)
    off_diagonal = rho0.matrix - np.diag(np.diag(rho0.matrix))
    assert np.max(np.abs(off_diagonal)) < 1e-12

    # the raw experimental fidelities stay annotations, never assertions
    from wexpand.cli import REFERENCE_EXPERIMENT

    assert REFERENCE_EXPERIMENT["w3"]["fidelity"] == {"value": 0.836, "error": 0.042}
    assert REFERENCE_EXPERIMENT["w4"]["fidelity"] == {"value": 0.784, "error": 0.028}

    print(
        "\nACCEPTANCE 7 PASS: zero ideal coincidence; dip even in delay and "
        "within 2% of the 0.85-visibility Gaussian at 144 um width; fidelity "
        "monotone in overlap with coherences vanishing at zero"
    )


def test_criterion_8_determinism(tmp_path):
    config = ExperimentConfig(
        scenario="w3", seed=90125, flux_per_setting=104.0, n_resamples=5
    )
    bytes_a = emit_report(run_scenario(config), tmp_path / "a.json")
    bytes_b = emit_report(run_scenario(config), tmp_path / "b.json")
    assert bytes_a == bytes_b
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    print(
        "\nACCEPTANCE 8 PASS: identical config and seed produce byte-identical "
        "reports"
    )


def test_criterion_9_exact_fits_pin_their_state():
    # Every fit of an exact-mode report stops on the certificate within 1e-6
    # (Frobenius) of the state its counts come from: the W2 pair, W3 and W4,
    # ideal and at the overlap the shipped hom config calibrates.
    hom = load_config(CONFIG_DIR / "hom.json")
    calibrated = calibrate_overlap_for_visibility(
        hom.visibility_target, dip_coefficients(hom.nu)
    )
    assert calibrated == pytest.approx(0.926, abs=1e-3)
    worst = 0.0
    for overlap in (1.0, calibrated):
        for scenario, n in (("w3", 1), ("w4", 2)):
            config = load_config(CONFIG_DIR / f"{scenario}.json")
            config = dataclasses.replace(config, exact=True, overlap=overlap)
            results = run_scenario(config)["results"]
            fits = [(results["tomography"], expanded_w(n, overlap)[0])]
            if scenario == "w4":
                fits.append((results["pair_source"]["tomography"], w_density(2)))
            for block, rho in fits:
                assert block["stop_reason"] == "certificate"
                fit = block["density_matrix"]
                matrix = np.array(fit["re"]) + 1j * np.array(fit["im"])
                error = np.linalg.norm(matrix.reshape(rho.dim, rho.dim) - rho.matrix)
                worst = max(worst, float(error))
    assert worst <= 1e-6
    print(
        f"\nACCEPTANCE 9 PASS: every exact-mode fit of w3 and w4 (pair "
        f"included) at overlap 1 and {calibrated:.4f} stops certified within "
        f"{worst:.1e} of its state"
    )

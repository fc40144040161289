import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from wexpand.entanglement import fidelity, w_state_qubits
from wexpand.fock import (
    mode,
    postselect_qubits,
    pruned,
    tensor,
    TEMPORAL_BINS,
)
from wexpand.gates import (
    GATE_ELEMENTS,
    MODE_INPUT,
    OUTPUT_MODES,
    expand,
    gate_constants,
    run_gate,
    success_probability_analytic,
)
from wexpand.optics import _compose, apply_circuit
from wexpand.tomography import excitation_probabilities

from helpers import (
    excitation_density,
    excitation_indices,
    expand_w_full_photonic,
    expanded_w,
    fock_gate,
    norm,
    photonic_single_excitation,
    scaled,
    single_photon,
    spdc_pair,
    through_gate,
    two_photon_ancilla,
    untouched_mode_ids,
)


def test_w_state_small_sizes():
    assert np.allclose(w_state_qubits(1), [0, 1])
    w2 = w_state_qubits(2)
    assert w2[1] == pytest.approx(1 / math.sqrt(2))  # HV
    assert w2[2] == pytest.approx(1 / math.sqrt(2))  # VH
    assert w2[0] == w2[3] == 0
    with pytest.raises(ValueError):
        w_state_qubits(0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(1, 4), st.floats(0.0, 1.0))
def test_expand_w_cross_checked_against_full_embedding(n, overlap):
    rho, prob = expanded_w(n, overlap)
    oracle, oracle_prob = expand_w_full_photonic(n, overlap)
    assert prob == pytest.approx(oracle_prob, abs=1e-12)
    assert np.abs(rho.matrix - oracle.matrix).max() <= 1e-12


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.floats(0.0, 1.0), st.floats(0.01, 1.0))
def test_expand_matches_the_fock_oracle_on_the_pair(overlap, gamma):
    # The w4 input: a down-conversion pair on modes 0 and 1, one V between
    # them, whose photon in mode 1 enters the gate.
    pair = spdc_pair(gamma, modes=(0, MODE_INPUT))
    sigma, pair_prob = postselect_qubits(pair, (0, MODE_INPUT))
    single = np.ix_(excitation_indices(2), excitation_indices(2))
    expanded = expand(pair_prob * sigma.matrix[single], overlap)
    rho = excitation_density(expanded, (0,) + OUTPUT_MODES)
    oracle, oracle_prob = postselect_qubits(
        through_gate(pair, overlap), (0,) + OUTPUT_MODES
    )
    assert np.trace(expanded).real == pytest.approx(oracle_prob, abs=1e-12)
    assert np.abs(rho.matrix - oracle.matrix).max() <= 1e-12


def test_expand_rejects_a_bad_shape_or_qubit():
    # A 0 x 0 matrix has no last qubit to send.
    for rho in (np.ones((2, 3)), np.ones(3), np.zeros((0, 0))):
        with pytest.raises(ValueError, match="non-empty square matrix"):
            expand(rho)
    with pytest.raises(ValueError, match="vanished"):
        excitation_probabilities(np.zeros((3, 3)))


def test_expand_rejects_an_overlap_outside_the_unit_interval():
    for overlap in (-0.1, 1.1, math.nan):
        with pytest.raises(ValueError, match=r"overlap .* outside \[0, 1\]"):
            expand(np.ones((2, 2)), overlap)
    for overlap in (0.0, 1.0):
        assert np.trace(expand(np.ones((2, 2)), overlap)).real > 0


# A photon in mode 1 or 2 of either polarization and temporal bin.
PHOTONS = st.builds(
    mode, st.sampled_from((1, 2)), st.sampled_from("HV"), st.sampled_from(TEMPORAL_BINS)
)
GATE_INPUTS = st.dictionaries(
    st.lists(PHOTONS, min_size=1, max_size=3).map(lambda p: tuple(sorted(p))),
    st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=4,
)


def v_count(fbv) -> int:
    return sum(lab.pol == "V" for lab in fbv)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(GATE_INPUTS)
def test_gate_conserves_the_v_photon_number(terms):
    # Its beamsplitters leave polarization alone and its plate is diagonal,
    # so every V-number sector of the input stays in its sector, with its
    # norm.
    for n_v in {v_count(fbv) for fbv in terms}:
        part = pruned({f: a for f, a in terms.items() if v_count(f) == n_v})
        assume(norm(part) ** 2 > 1e-6)
        out = fock_gate(part)
        assert {v_count(fbv) for fbv in out} <= {n_v}
        assert norm(out) ** 2 == pytest.approx(norm(part) ** 2, abs=1e-12)


def test_full_simulation_probability_at_n6():
    # Oracle for the analytic formula: the full Fock-space run at N=2 and 6
    # gives W_{N+2} at (N+2)/(16N).
    for n in (2, 6):
        rho, prob = expand_w_full_photonic(n)
        assert prob == pytest.approx((n + 2) / (16 * n), abs=1e-10)
        assert fidelity(rho, w_state_qubits(n + 2)) == pytest.approx(1.0, abs=1e-10)


def test_analytic_probability_values_and_limit():
    assert success_probability_analytic(1) == pytest.approx(0.1875)
    assert success_probability_analytic(2) == pytest.approx(0.125)
    assert success_probability_analytic(10**6) == pytest.approx(1 / 16, abs=1e-6)
    with pytest.raises(ValueError):
        success_probability_analytic(0)


def test_output_invariant_under_input_global_phase():
    base = single_photon(1, "V")
    rho_a, p_a = postselect_qubits(through_gate(base), OUTPUT_MODES)
    phased = scaled(base, np.exp(1j * 0.83))
    rho_b, p_b = postselect_qubits(through_gate(phased), OUTPUT_MODES)
    assert p_a == pytest.approx(p_b, abs=1e-12)
    assert np.allclose(rho_a.matrix, rho_b.matrix, atol=1e-12)


def test_sign_plate_required_for_w3():
    # Without the plate the V-input output is the pure state (-1, 1, 1)/sqrt(3)
    # on VHH, HVH and HHV, at fidelity 1/9 with W3.
    without_plate = [e for e in GATE_ELEMENTS if e.field != "pol"]
    state = apply_circuit(
        tensor(single_photon(1, "V"), two_photon_ancilla()), without_plate
    )
    rho, _ = postselect_qubits(state, OUTPUT_MODES)
    psi = np.zeros(8)
    psi[[4, 2, 1]] = np.array([-1, 1, 1]) / math.sqrt(3)
    assert np.abs(rho.matrix - np.outer(psi, psi)).max() <= 1e-12
    assert fidelity(rho, w_state_qubits(3)) == pytest.approx(1 / 9, abs=1e-12)


def test_partial_overlap_matches_closed_form():
    # Oracle: direct amplitude computation with the ancilla photons rotated
    # into bin cos = xi.  Both ancilla photons see the same delay, so the
    # success probability stays 3/16 for every xi, the three populations
    # stay 1/3, every coherence is xi^2/3, and the fidelity is (1+2xi^2)/3.
    # expand, which mixes its xi = 1 and xi = 0 outputs by xi^2, gives the
    # same single-excitation matrix with no temporal bin.
    w3 = w_state_qubits(3)
    support = (1, 2, 4)
    for xi in (0.0, 0.3, 0.6, 0.9, 1.0):
        closed = 3 / 16 * ((1 - xi * xi) * np.eye(3) + xi * xi * np.ones((3, 3))) / 3
        assert np.abs(expand(np.ones((1, 1)), xi) - closed).max() <= 1e-15
        state = through_gate(single_photon(1, "V"), xi)
        rho, prob = postselect_qubits(state, OUTPUT_MODES)
        assert prob == pytest.approx(3 / 16, abs=1e-12)
        assert fidelity(rho, w3) == pytest.approx((1 + 2 * xi * xi) / 3, abs=1e-12)
        for i in support:
            assert rho.matrix[i, i].real == pytest.approx(1 / 3, abs=1e-12)
            for j in support:
                if i != j:
                    assert rho.matrix[i, j] == pytest.approx(
                        xi * xi / 3, abs=1e-12
                    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(0.0, 1.0))
def test_gate_constants_hold_their_closed_forms(overlap):
    # The ancilla photons' distinguishability leaves tr G = 3/16 and moves
    # s and the c_a apart by xi^2; at xi = 1 they give W_N's success
    # (s (N-1) + tr G)/N = (N+2)/(16N).  Expanding the 2 x 2 all-ones
    # matrix lays the constants out as [[s, c], [c^dagger, G]] exactly.
    s, c, g = gate_constants(overlap)
    xi2 = overlap * overlap
    assert abs(sum(g[a][a] for a in range(3)) - 3 / 16) <= 1e-15
    assert abs(s - (3 - 2 * xi2) / 16) <= 1e-15
    assert abs(sum(c) - (1 + 2 * xi2) / 16) <= 1e-15
    expanded = expand(np.ones((2, 2)), overlap)
    block = np.array([[s, *c], *([a.conjugate(), *row] for a, row in zip(c, g))])
    assert np.array_equal(expanded, block)
    assert np.array_equal(expanded, expanded.conj().T)
    assert np.linalg.eigvalsh(expanded).min() >= -1e-15


def test_one_photon_images_are_unitary_and_match_the_fock_oracle():
    # Each of the eight input labels lands only on outputs 4-6, in its own
    # polarization and temporal bin, with the run_gate amplitudes exactly;
    # the gate is unitary, so each polarization's two columns are
    # orthonormal.
    for m, pol, tbin in itertools.product((1, 2), "HV", TEMPORAL_BINS):
        oracle = fock_gate(single_photon(m, pol, tbin))
        outputs = [mode(out, pol, tbin) for out in OUTPUT_MODES]
        want = dict(zip(outputs, run_gate(m, pol)))
        assert {fbv[0]: amp for fbv, amp in oracle.items()} == want
    for pol in "HV":
        transfer = np.array([run_gate(m, pol) for m in (1, 2)]).T
        assert np.abs(transfer.conj().T @ transfer - np.eye(2)).max() <= 1e-12


def test_every_call_returns_the_one_composed_image():
    # The amplitudes are composed once, at import, from GATE_ELEMENTS, and
    # every call hands out that same tuple, which no caller can change.
    for m, pol in itertools.product((1, 2), "HV"):
        image = run_gate(m, pol)
        assert type(image) is tuple
        composed = dict(_compose(mode(m, pol), GATE_ELEMENTS))
        assert image == tuple(composed.get(mode(out, pol), 0) for out in OUTPUT_MODES)
        assert run_gate(m, pol) is image


AMPLITUDES = st.complex_numbers(
    min_magnitude=0.1, max_magnitude=1.0, allow_nan=False, allow_infinity=False
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data(), st.floats(0.0, 1.0))
def test_expand_matches_the_fock_oracle_on_complex_states(data, overlap):
    # A pure single-excitation state with complex amplitudes, accessed on
    # its last qubit: its coherences rho_ik and rho_ki differ, where a real
    # symmetric input cannot tell them apart.
    m = data.draw(st.integers(1, 4))
    psi = np.array(data.draw(st.lists(AMPLITUDES, min_size=m, max_size=m)))
    psi /= np.linalg.norm(psi)
    expanded = expand(np.outer(psi, psi.conj()), overlap)
    rest = untouched_mode_ids(m)
    oracle, oracle_prob = postselect_qubits(
        through_gate(photonic_single_excitation(psi, rest + [MODE_INPUT]), overlap),
        rest + list(OUTPUT_MODES),
    )
    assert np.trace(expanded).real == pytest.approx(oracle_prob, abs=1e-12)
    rho = excitation_density(expanded, rest + list(OUTPUT_MODES))
    assert np.abs(rho.matrix - oracle.matrix).max() <= 1e-12

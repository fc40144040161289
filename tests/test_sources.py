import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wexpand import sources
from wexpand.cli import ExperimentConfig
from wexpand.entanglement import fidelity, w_state_qubits
from wexpand.fock import coincidence_probability, postselect_qubits, tensor
from wexpand.gates import MODE_ANCILLA, MODE_INPUT, OUTPUT_MODES, run_gate
from wexpand.optics import apply_circuit, apply_delay, wave_plate
from wexpand.sources import (
    N_MAX,
    calibrate_overlap_for_visibility,
    delay_overlap,
    dip_coefficients,
    hom_scan,
    hom_visibility,
)

from helpers import (
    dip_table_by_enumeration,
    fock_gate,
    heralded_single_photon,
    inner_product,
    norm,
    number_state,
    rotation,
    spdc_pair,
    two_photon_ancilla,
    vacuum_state,
    weak_coherent_pulse,
)


def test_wcp_two_photon_amplitude_matches_series():
    # Oracle: coherent-state series amplitude exp(-nu/2) nu / sqrt(2);
    # truncation at n_max=4 shifts the norm by < 1e-5 at nu = 0.3.
    overlap = inner_product(two_photon_ancilla(), weak_coherent_pulse(0.3))
    expected = math.exp(-0.15) * 0.3 / math.sqrt(2)
    assert overlap == pytest.approx(expected, rel=1e-5)


def test_wcp_zero_mean_is_vacuum():
    wcp = weak_coherent_pulse(0.0)
    assert inner_product(vacuum_state(), wcp).real == pytest.approx(1.0)


def test_wcp_with_ideal_ancilla_reproduces_gate_success():
    # Post-selecting the two-photon component of the pulse through the gate
    # reproduces the ideal 3/16 conditional probability and the W state.
    pulse = weak_coherent_pulse(0.3)
    p2 = abs(inner_product(two_photon_ancilla(), pulse)) ** 2
    rho, prob = postselect_qubits(
        fock_gate(
            tensor(
                apply_circuit(
                    heralded_single_photon(),
                    [wave_plate(1, rotation(math.pi / 2))],
                ),
                pulse,
            )
        ),
        (0,) + OUTPUT_MODES,
    )
    assert prob == pytest.approx(p2 * 3 / 16, rel=1e-9)
    target = np.kron(np.array([1.0, 0.0]), w_state_qubits(3))
    assert fidelity(rho, target) == pytest.approx(1.0, abs=1e-10)


def test_spdc_diagonal_pump_prepares_w2():
    pair = spdc_pair(0.05, (0, 1))
    rho, prob = postselect_qubits(pair, (0, 1))
    assert prob == pytest.approx(0.05 / 1.05, rel=1e-9)
    assert fidelity(rho, w_state_qubits(2)) == pytest.approx(1.0, abs=1e-12)


def test_spdc_zero_gamma_is_vacuum():
    pair = spdc_pair(0.0, (0, 1))
    assert inner_product(vacuum_state(), pair).real == pytest.approx(1.0)


def test_spdc_double_pair_amplitude_order_gamma():
    gamma = 0.01
    pair = spdc_pair(gamma, (0, 1), include_double_pairs=True)
    double = [
        amp
        for fbv, amp in pair.items()
        if [lab.spatial for lab in fbv].count(0) == 2
        and [lab.spatial for lab in fbv].count(1) == 2
    ]
    # (gamma / 2) (a_0H a_1V + a_0V a_1H)^2 / 2 |vac> has three terms, each
    # of amplitude gamma / 2: HH-VV, VV-HH and HV-HV.
    assert len(double) == 3
    for amp in double:
        assert abs(amp) == pytest.approx(gamma / 2, rel=1e-2)


@pytest.mark.parametrize("nu", [-0.1, math.nan, math.inf])
def test_pulse_weights_reject_a_bad_nu(nu):
    # The config checks nu in the scenarios that read it; the pulse weights
    # guard it themselves, since a negative or NaN nu would give wrong
    # numbers without an error.
    message = f"^nu must be finite and nonnegative, got {nu!r}$"
    with pytest.raises(ValueError, match=message):
        sources._poisson_weights(nu, N_MAX)


def test_hom_curve_even_and_monotone():
    delays = [-300.0, -200.0, -100.0, -50.0, 0.0, 50.0, 100.0, 200.0, 300.0]
    curve = dict(hom_scan(delays, dip_coefficients(0.03), 0.93, 144.0))
    for d in (50.0, 100.0, 200.0, 300.0):
        assert curve[d] == pytest.approx(curve[-d], abs=1e-12)
    left = [curve[d] for d in sorted(d for d in delays if d <= 0)]
    assert all(a >= b - 1e-12 for a, b in zip(left, left[1:]))


def test_hom_far_delay_reaches_classical_level():
    dip = dip_coefficients(0.03)
    flat, _ = dip
    far = hom_scan([1440.0], dip, 1.0, 144.0)[0][1]
    assert abs(far - flat) < 1e-6


def test_hom_visibility_calibration():
    dip = dip_coefficients(0.03)
    xi0 = calibrate_overlap_for_visibility(0.85, dip)
    assert hom_visibility(dip, xi0) == pytest.approx(0.85, abs=1e-8)
    # the multiphoton background caps the visibility below 1
    assert hom_visibility(dip, 1.0) < 1.0
    with pytest.raises(ValueError):
        calibrate_overlap_for_visibility(0.9999, dip)


def _simulated_dip(xi, nu, phase=0.0):
    # Reference: the whole circuit, independently of the closed form.
    pulse = weak_coherent_pulse(nu, phase=phase)
    state = tensor(heralded_single_photon(), pulse)
    return coincidence_probability(fock_gate(apply_delay(state, 2, xi)), (0, 4, 5))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    nu=st.floats(math.log(1e-3), math.log(0.5)).map(math.exp),
    xi=st.floats(0.0, 1.0),
    phase=st.floats(0.0, 2.0 * math.pi),
)
@example(nu=0.03, xi=1.0, phase=0.0)  # the shipped nu
@example(nu=0.3, xi=0.3, phase=0.0)
def test_closed_form_dip_matches_circuit_random(nu, xi, phase):
    flat = _simulated_dip(0.0, nu, phase)
    dip = dip_coefficients(nu)
    assert dip[0] == pytest.approx(flat, rel=1e-12, abs=0)
    direct = _simulated_dip(xi, nu, phase)
    assert hom_scan([0.0], dip, xi, 144.0)[0][1] == pytest.approx(
        direct, rel=1e-12, abs=0
    )
    # 1 - V, not V: at small xi, 1 - direct / flat cancels to a few ulps of
    # 1, which is far more than 1e-12 of V.
    assert 1.0 - hom_visibility(dip, xi) == pytest.approx(
        direct / flat, rel=1e-12, abs=0
    )
    xi0 = calibrate_overlap_for_visibility(0.85, dip)
    assert 1.0 - _simulated_dip(xi0, nu, phase) / flat == pytest.approx(
        0.85, abs=1e-10
    )


def _amplitudes(draw, ids) -> dict:
    """A unit-norm amplitude map over the indices ``ids``, or all zeros."""
    part = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    amps = {i: draw(part) for i in ids}
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    return {i: a / norm if norm > 0 else a for i, a in amps.items()}


@st.composite
def amplitude_pairs(draw):
    """Output amplitudes of two photons over 2 to 8 modes, the two detectors
    first.  ``v`` mixes ``u`` with a map over some of the modes, so the two
    overlap by any amount, and at no mixing need not share modes."""
    ids = range(draw(st.integers(2, 8)))
    u = _amplitudes(draw, ids)
    w = _amplitudes(draw, [i for i in ids if draw(st.booleans())])
    c = draw(st.floats(0.0, 1.0))
    v = tuple(c * u[i] + (1 - c) * w.get(i, 0j) for i in ids)
    return tuple(u.values()), v


@pytest.mark.parametrize("n_max", range(7))
@settings(max_examples=25, deadline=None, derandomize=True)
@given(amplitudes=amplitude_pairs())
def test_dip_table_matches_the_enumeration(amplitudes, n_max):
    # The dark-set formula against every photon arrangement, on amplitude
    # vectors that need not come from the gate.
    u, v = amplitudes
    table = sources._dip_table(u, v, n_max)
    oracle = dip_table_by_enumeration(u, v, n_max)
    for row, expected in zip(table, oracle):
        assert len(row) == n_max + 1
        assert row == pytest.approx(expected, rel=1e-12, abs=1e-12)
        assert row[0] == 0.0


def test_dip_of_a_bright_pulse_is_the_top_photon_number():
    # Far above N_MAX, the truncated pulse is |N_MAX>; no power of nu may
    # overflow on the way.
    amplitudes = (run_gate(m, "H") for m in (MODE_INPUT, MODE_ANCILLA))
    top = sources._dip_table(*amplitudes, N_MAX)
    for nu in (1e100, 1e300):
        dip = dip_coefficients(nu)
        assert dip == pytest.approx((top[0][N_MAX], top[1][N_MAX]), rel=1e-12)


def _bits(dip):
    return [x.hex() for x in dip]


def test_dip_table_is_built_once_for_every_nu(monkeypatch):
    # The table is memoized on the two amplitude vectors, so three values of
    # nu build it once, and each dip keeps the bits of a freshly built table.
    nus = (0.03, 0.3, 2.0)
    with monkeypatch.context() as patch:
        patch.setattr(sources, "_dip_table", sources._dip_table.__wrapped__)
        fresh = [_bits(dip_coefficients(nu)) for nu in nus]
    sources._dip_table.cache_clear()
    assert [_bits(dip_coefficients(nu)) for nu in nus] == fresh
    assert sources._dip_table.cache_info().misses == 1
    assert sources._dip_table.cache_info().hits == len(nus) - 1


def test_dip_table_is_shared_read_only():
    # The rows are tuples, so no caller can change the shared table.
    rng = np.random.default_rng(3)
    u, v = (tuple(complex(*x) for x in rng.normal(size=(32, 2))) for _ in "uv")
    table = sources._dip_table(u, v, N_MAX)
    assert type(table) is tuple and all(type(row) is tuple for row in table)


@pytest.mark.parametrize("nu", [1e3, 1e200])
def test_bright_pulse_is_the_top_photon_number(nu):
    # exp(-nu / 2) underflows and nu^n overflows on the way; the truncated
    # Poisson weights must not.
    top = N_MAX
    p_top = 1.0 / sum(
        nu ** (k - top) * math.factorial(top) / math.factorial(k) for k in range(top + 1)
    )
    pulse = weak_coherent_pulse(nu)
    assert norm(pulse) == pytest.approx(1.0, abs=1e-12)
    overlap = inner_product(number_state(2, "H", top), pulse)
    assert abs(overlap) ** 2 == pytest.approx(p_top, rel=1e-12, abs=0)
    assert p_top > 0.99


def test_hom_empty_delays_rejected():
    with pytest.raises(ValueError, match="delays_um"):
        ExperimentConfig("hom", delays_um=[]).validate()
    # Below a float's normal range the dip coefficients lose bits, so a nu
    # whose coincidence level lies there is named; 1e-300 still calibrates.
    for nu in (0.0, 5e-324, 1e-322, 1e-318, 1e-310):
        with pytest.raises(ValueError, match=f"^nu {nu!r} .*coincidences"):
            dip_coefficients(nu)
    dip = dip_coefficients(1e-300)
    xi0 = calibrate_overlap_for_visibility(0.85, dip)
    assert hom_visibility(dip, xi0) == pytest.approx(0.85, abs=1e-12)


def test_delay_overlap_gaussian_width():
    # The dip is proportional to xi^2, so xi(l_c)^2 must equal exp(-1).
    assert delay_overlap(144.0, 144.0) ** 2 == pytest.approx(math.exp(-1.0))


def test_coherent_phase_does_not_affect_postselection():
    # Post-selected fourfold statistics use exactly two pulse photons, so
    # the coherent phase enters only as a global factor.
    reference = None
    for phase in (0.0, math.pi / 2, math.pi):
        pair = spdc_pair(0.05, (0, 1))
        pulse = weak_coherent_pulse(0.3, spatial_mode=2, phase=phase)
        rho, prob = postselect_qubits(
            fock_gate(tensor(pair, pulse)), (0,) + OUTPUT_MODES
        )
        if reference is None:
            reference = (rho.matrix, prob)
        else:
            assert prob == pytest.approx(reference[1], abs=1e-15)
            assert np.allclose(rho.matrix, reference[0], atol=1e-12)


def test_double_pair_contamination_scales_as_gamma_squared():
    # With the pulse truncated to its one-photon component (tiny nu), the
    # only fourfold channel is double pair + one pulse photon; its rate
    # must scale as gamma^2 at fixed nu.
    rates = []
    gammas = [1e-3, 2e-3]
    for gamma in gammas:
        pair = spdc_pair(gamma, (0, 1), include_double_pairs=True)
        state = fock_gate(tensor(pair, weak_coherent_pulse(1e-4, spatial_mode=2)))
        rates.append(coincidence_probability(state, (0,) + OUTPUT_MODES))
    slope = math.log(rates[1] / rates[0]) / math.log(gammas[1] / gammas[0])
    assert slope == pytest.approx(2.0, abs=0.1)


def test_no_pulse_photons_kills_fourfold():
    pair = spdc_pair(0.01, (0, 1), include_double_pairs=True)
    state = fock_gate(tensor(pair, weak_coherent_pulse(0.0, spatial_mode=2)))
    assert coincidence_probability(state, (0,) + OUTPUT_MODES) == 0.0


def test_source_outputs_normalized():
    for state in (
        two_photon_ancilla(),
        weak_coherent_pulse(0.3),
        spdc_pair(0.02, include_double_pairs=True),
    ):
        assert norm(state) == pytest.approx(1.0, abs=1e-12)

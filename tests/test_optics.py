import math

import numpy as np
import pytest

from wexpand.fock import (
    FockBasisVector,
    PhotonicState,
    coincidence_probability,
    inner_product,
    mode,
    number_state,
    single_photon,
    tensor,
    ORTHOGONAL,
)
from wexpand.optics import (
    BeamsplitterSpec,
    JonesUnitary,
    REFLECTION_MINUS_ON_OUT_B,
    apply_beamsplitter,
    apply_delay,
    apply_jones,
)

BS_GATE_FRONT = BeamsplitterSpec(
    in_a=1, in_b=2, out_a=3, out_b=4, sign_convention=REFLECTION_MINUS_ON_OUT_B
)


def random_two_mode_state(rng):
    labels = [mode(1, "H"), mode(1, "V"), mode(2, "H"), mode(2, "V", ORTHOGONAL)]
    terms = {}
    for _ in range(5):
        occ = {lab: int(rng.integers(0, 3)) for lab in labels}
        terms[FockBasisVector.from_occupations(occ)] = complex(
            rng.normal(), rng.normal()
        )
    return PhotonicState(terms).normalized()


def test_reflection_sign_structure():
    # V photon into the front beamsplitter: minus sign on the reflection
    # into the mode-4 arm.
    out = apply_beamsplitter(single_photon(1, "V"), BS_GATE_FRONT)
    f3 = FockBasisVector.from_occupations({mode(3, "V"): 1})
    f4 = FockBasisVector.from_occupations({mode(4, "V"): 1})
    assert out.amplitude(f3) == pytest.approx(1 / math.sqrt(2))
    assert out.amplitude(f4) == pytest.approx(-1 / math.sqrt(2))

    other = apply_beamsplitter(single_photon(2, "V"), BS_GATE_FRONT)
    assert other.amplitude(f3) == pytest.approx(1 / math.sqrt(2))
    assert other.amplitude(f4) == pytest.approx(1 / math.sqrt(2))


def test_two_photon_bunching():
    state = tensor(single_photon(1, "H"), single_photon(2, "H"))
    out = apply_beamsplitter(state, BS_GATE_FRONT)
    coincidence = FockBasisVector.from_occupations({mode(3, "H"): 1, mode(4, "H"): 1})
    assert out.amplitude(coincidence) == pytest.approx(0.0, abs=1e-12)
    assert coincidence_probability(out, (3, 4)) == pytest.approx(0.0, abs=1e-12)


def test_full_transmission_is_relabeling():
    spec = BeamsplitterSpec(in_a=1, in_b=2, out_a=3, out_b=4, transmissivity=1.0)
    out = apply_beamsplitter(number_state(1, "V", 2), spec)
    assert inner_product(number_state(3, "V", 2), out).real == pytest.approx(1.0)


def test_elements_preserve_norm_and_photon_number():
    rng = np.random.default_rng(17)

    def sector_weights(state):
        weights = {}
        for fbv, amp in state.items():
            n = fbv.total_photons()
            weights[n] = weights.get(n, 0.0) + abs(amp) ** 2
        return weights

    for _ in range(10):
        state = random_two_mode_state(rng)
        before = sector_weights(state)
        for out in (
            apply_beamsplitter(state, BS_GATE_FRONT),
            apply_jones(state, 1, JonesUnitary.rotation(0.7)),
            apply_delay(state, 2, 0.6),
        ):
            assert out.norm() == pytest.approx(1.0, abs=1e-12)
            after = sector_weights(out)
            # linear elements are block diagonal in total photon number
            assert set(after) == set(before)
            for n, weight in before.items():
                assert after[n] == pytest.approx(weight, abs=1e-12)


def test_beamsplitter_inverse_restores_input():
    rng = np.random.default_rng(19)
    state = random_two_mode_state(rng)
    out = apply_beamsplitter(state, BS_GATE_FRONT)
    back = apply_beamsplitter(out, BS_GATE_FRONT.inverse())
    for fbv, amp in state.items():
        assert back.amplitude(fbv) == pytest.approx(amp, abs=1e-12)


def test_nonunitary_specs_rejected():
    with pytest.raises(ValueError):
        BeamsplitterSpec(in_a=1, in_b=1, out_a=3, out_b=4)
    with pytest.raises(ValueError):
        BeamsplitterSpec(in_a=1, in_b=2, out_a=3, out_b=4, transmissivity=1.2)
    with pytest.raises(ValueError):
        JonesUnitary(((1.0, 0.0), (0.0, 2.0)))


def test_jones_sign_plate_flips_v():
    plus = PhotonicState(
        {
            FockBasisVector.from_occupations({mode(4, "H"): 1}): 1 / math.sqrt(2),
            FockBasisVector.from_occupations({mode(4, "V"): 1}): 1 / math.sqrt(2),
        }
    )
    out = apply_jones(plus, 4, JonesUnitary.v_phase_flip())
    assert out.amplitude(
        FockBasisVector.from_occupations({mode(4, "V"): 1})
    ) == pytest.approx(-1 / math.sqrt(2))
    assert out.amplitude(
        FockBasisVector.from_occupations({mode(4, "H"): 1})
    ) == pytest.approx(1 / math.sqrt(2))


def test_jones_rotation_maps_h_to_v():
    out = apply_jones(single_photon(1, "H"), 1, JonesUnitary.rotation(math.pi / 2))
    assert inner_product(single_photon(1, "V"), out).real == pytest.approx(1.0)


def test_jones_identity_noop():
    state = single_photon(1, "H")
    out = apply_jones(state, 1, JonesUnitary.identity())
    assert inner_product(state, out).real == pytest.approx(1.0)


def test_jones_commutes_with_beamsplitter_on_disjoint_modes():
    rng = np.random.default_rng(29)
    state = tensor(random_two_mode_state(rng), single_photon(5, "H"))
    u = JonesUnitary.rotation(0.3)
    a = apply_jones(apply_beamsplitter(state, BS_GATE_FRONT), 5, u)
    b = apply_beamsplitter(apply_jones(state, 5, u), BS_GATE_FRONT)
    for fbv, amp in a.items():
        assert b.amplitude(fbv) == pytest.approx(amp, abs=1e-12)


def test_delay_identity_and_range():
    state = single_photon(2, "H")
    out = apply_delay(state, 2, 1.0)
    assert inner_product(state, out).real == pytest.approx(1.0)
    with pytest.raises(ValueError):
        apply_delay(state, 2, 1.5)
    with pytest.raises(ValueError):
        apply_delay(state, 2, -0.1)


def test_fully_distinguishable_hom_gives_classical_half():
    # Oracle: classical particles, each routed independently with
    # probability 1/2, meet in different outputs with probability 1/2.
    state = tensor(single_photon(1, "H"), single_photon(2, "H"))
    state = apply_delay(state, 2, 0.0)
    out = apply_beamsplitter(state, BS_GATE_FRONT)
    assert coincidence_probability(out, (3, 4)) == pytest.approx(0.5)


def test_delay_zero_at_zero_delay():
    # xi(0) = 1 for the Gaussian overlap model: zero delay keeps the dip
    # minimum fully interfering.
    from wexpand.sources import delay_overlap

    assert delay_overlap(0.0, 144.0) == pytest.approx(1.0)

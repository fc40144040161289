import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wexpand.fock import (
    PhotonicState,
    coincidence_probability,
    mode,
    tensor,
    ORTHOGONAL,
    POLARIZATIONS,
    TEMPORAL_BINS,
)
from wexpand.optics import (
    Element,
    apply_circuit,
    apply_delay,
    beamsplitter,
    delay,
    wave_plate,
)

from helpers import (
    basis_vector,
    inner_product,
    norm,
    normalized,
    number_state,
    rotation,
    single_photon,
)

BS_GATE_FRONT = beamsplitter(1, 2, 3, 4)


def random_two_mode_state(rng):
    labels = [mode(1, "H"), mode(1, "V"), mode(2, "H"), mode(2, "V", ORTHOGONAL)]
    terms = {}
    for _ in range(5):
        occ = {lab: int(rng.integers(0, 3)) for lab in labels}
        terms[basis_vector(occ)] = complex(
            rng.normal(), rng.normal()
        )
    return normalized(PhotonicState(terms))


def test_reflection_sign_structure():
    # V photon into the front beamsplitter: minus sign on the reflection
    # into the mode-4 arm.
    out = apply_circuit(single_photon(1, "V"), [BS_GATE_FRONT])
    f3 = basis_vector({mode(3, "V"): 1})
    f4 = basis_vector({mode(4, "V"): 1})
    assert out.terms.get(f3, 0.0) == pytest.approx(1 / math.sqrt(2))
    assert out.terms.get(f4, 0.0) == pytest.approx(-1 / math.sqrt(2))

    other = apply_circuit(single_photon(2, "V"), [BS_GATE_FRONT])
    assert other.terms.get(f3, 0.0) == pytest.approx(1 / math.sqrt(2))
    assert other.terms.get(f4, 0.0) == pytest.approx(1 / math.sqrt(2))


def test_two_photon_bunching():
    state = tensor(single_photon(1, "H"), single_photon(2, "H"))
    out = apply_circuit(state, [BS_GATE_FRONT])
    coincidence = basis_vector({mode(3, "H"): 1, mode(4, "H"): 1})
    assert out.terms.get(coincidence, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert coincidence_probability(out, (3, 4)) == pytest.approx(0.0, abs=1e-12)


def test_full_transmission_is_relabeling():
    # The identity matrix between two pairs of spatial ports, as a
    # beamsplitter of full transmission was: two photons keep their bosonic
    # norm on the way to the new label.
    relabel = Element("spatial", (1, 2), (3, 4), ((1, 0), (0, 1)))
    out = apply_circuit(number_state(1, "V", 2), [relabel])
    assert inner_product(number_state(3, "V", 2), out).real == pytest.approx(1.0)


def test_elements_preserve_norm_and_photon_number():
    rng = np.random.default_rng(17)

    def sector_weights(state):
        weights = {}
        for fbv, amp in state.items():
            n = len(fbv)
            weights[n] = weights.get(n, 0.0) + abs(amp) ** 2
        return weights

    for _ in range(10):
        state = random_two_mode_state(rng)
        before = sector_weights(state)
        for out in (
            apply_circuit(state, [BS_GATE_FRONT]),
            apply_circuit(state, [wave_plate(1, rotation(0.7))]),
            apply_delay(state, 2, 0.6),
        ):
            assert norm(out) == pytest.approx(1.0, abs=1e-12)
            after = sector_weights(out)
            # linear elements are block diagonal in total photon number
            assert set(after) == set(before)
            for n, weight in before.items():
                assert after[n] == pytest.approx(weight, abs=1e-12)


def test_beamsplitter_inverse_restores_input():
    rng = np.random.default_rng(19)
    state = random_two_mode_state(rng)
    out = apply_circuit(state, [BS_GATE_FRONT])
    # Outputs fed back as inputs, with the minus sign on the other arm.
    inverse = beamsplitter(3, 4, 1, 2, minus_on_out_a=True)
    back = apply_circuit(out, [inverse])
    for fbv, amp in state.items():
        assert back.terms.get(fbv, 0.0) == pytest.approx(amp, abs=1e-12)


def test_nonunitary_specs_rejected():
    with pytest.raises(ValueError):
        beamsplitter(1, 1, 3, 4)
    with pytest.raises(ValueError):
        wave_plate(1, ((1.0, 0.0), (0.0, 2.0)))
    with pytest.raises(ValueError):
        Element("pol", ("H", "V"), ("H", "H"), ((1.0, 0.0), (0.0, 1.0)))


def test_jones_sign_plate_flips_v():
    plus = PhotonicState(
        {
            basis_vector({mode(4, "H"): 1}): 1 / math.sqrt(2),
            basis_vector({mode(4, "V"): 1}): 1 / math.sqrt(2),
        }
    )
    out = apply_circuit(plus, [wave_plate(4, ((1.0, 0.0), (0.0, -1.0)))])
    assert out.terms[basis_vector({mode(4, "V"): 1})] == pytest.approx(-1 / math.sqrt(2))
    assert out.terms[basis_vector({mode(4, "H"): 1})] == pytest.approx(1 / math.sqrt(2))


def test_jones_rotation_maps_h_to_v():
    out = apply_circuit(single_photon(1, "H"), [wave_plate(1, rotation(math.pi / 2))])
    assert inner_product(single_photon(1, "V"), out).real == pytest.approx(1.0)


def test_jones_identity_noop():
    state = single_photon(1, "H")
    out = apply_circuit(state, [wave_plate(1, ((1.0, 0.0), (0.0, 1.0)))])
    assert inner_product(state, out).real == pytest.approx(1.0)


def test_jones_commutes_with_beamsplitter_on_disjoint_modes():
    rng = np.random.default_rng(29)
    state = tensor(random_two_mode_state(rng), single_photon(5, "H"))
    u = rotation(0.3)
    a = apply_circuit(apply_circuit(state, [BS_GATE_FRONT]), [wave_plate(5, u)])
    b = apply_circuit(apply_circuit(state, [wave_plate(5, u)]), [BS_GATE_FRONT])
    for fbv, amp in a.items():
        assert b.terms.get(fbv, 0.0) == pytest.approx(amp, abs=1e-12)


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
    out = apply_circuit(state, [BS_GATE_FRONT])
    assert coincidence_probability(out, (3, 4)) == pytest.approx(0.5)


def test_delay_zero_at_zero_delay():
    # xi(0) = 1 for the Gaussian overlap model: zero delay keeps the dip
    # minimum fully interfering.
    from wexpand.sources import delay_overlap

    assert delay_overlap(0.0, 144.0) == pytest.approx(1.0)


# Property tests: random element lists on random states of up to 4 photons.
SPATIAL = st.integers(0, 3)
LABELS = st.builds(
    mode, SPATIAL, st.sampled_from(POLARIZATIONS), st.sampled_from(TEMPORAL_BINS)
)
UNIT = st.floats(0.0, 1.0)


@st.composite
def beamsplitters(draw):
    # Outputs reuse the input ports so the map stays unitary on the modes
    # the state can occupy.
    a, b = draw(st.lists(SPATIAL, min_size=2, max_size=2, unique=True))
    out_a, out_b = (b, a) if draw(st.booleans()) else (a, b)
    return beamsplitter(a, b, out_a, out_b, minus_on_out_a=draw(st.booleans()))


ELEMENTS = st.lists(
    st.one_of(
        beamsplitters(),
        st.builds(wave_plate, SPATIAL, st.floats(-math.pi, math.pi).map(rotation)),
        st.builds(delay, SPATIAL, UNIT),
    ),
    max_size=5,
)
STATES = st.dictionaries(
    st.lists(LABELS, max_size=4).map(lambda labs: tuple(sorted(labs))),
    st.complex_numbers(min_magnitude=0.1, max_magnitude=1.0),
    min_size=1,
    max_size=6,
).map(lambda terms: normalized(PhotonicState(terms)))


def sector_weights(state):
    weights = {}
    for fbv, amp in state.items():
        weights[len(fbv)] = weights.get(len(fbv), 0.0) + abs(amp) ** 2
    return weights


@settings(max_examples=80, deadline=None, derandomize=True)
@given(STATES, ELEMENTS)
def test_lifted_circuit_matches_element_by_element(state, elements):
    lifted = apply_circuit(state, elements)
    stepwise = state
    for element in elements:
        stepwise = apply_circuit(stepwise, [element])
    for fbv in set(lifted.terms) | set(stepwise.terms):
        expected = stepwise.terms.get(fbv, 0.0)
        assert lifted.terms.get(fbv, 0.0) == pytest.approx(expected, abs=1e-12)

    assert norm(lifted) == pytest.approx(1.0, abs=1e-12)
    before, after = sector_weights(state), sector_weights(lifted)
    assert set(after) <= set(before)
    for n, weight in before.items():
        assert after.get(n, 0.0) == pytest.approx(weight, abs=1e-12)

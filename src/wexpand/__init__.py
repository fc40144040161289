"""Linear-optical simulation of a W-state expansion gate.

End-to-end model of the experiment: photon sources, beamsplitter
interference, post-selection, simulated tomography with iterative
maximum-likelihood reconstruction, and entanglement analysis.
"""

__version__ = "0.1.0"

from .fock import (
    DensityMatrix,
    ModeLabel,
    PhotonicState,
    apply_creation,
    basis_vector,
    coincidence_probability,
    mode,
    number_state,
    postselect_qubits,
    single_photon,
    tensor,
    vacuum_state,
)
from .optics import (
    Element,
    apply_circuit,
    apply_delay,
    beamsplitter,
    delay,
    wave_plate,
)
from .gates import (
    GATE_ELEMENTS,
    excitation_density,
    expand,
    run_gate,
    success_probability_analytic,
    through_gate,
    two_photon_ancilla,
    w_state_qubits,
)
from .sources import (
    calibrate_overlap_for_visibility,
    hom_scan,
    spdc_pair,
    weak_coherent_pulse,
)
from .tomography import (
    ReconstructionResult,
    bootstrap_errors,
    default_settings,
    fidelity,
    imlm_reconstruct,
    sample_counts,
)
from .entanglement import (
    concurrence,
    eof,
    eof_from_concurrence,
    pairwise_eof_table,
    partial_trace,
    witness_value,
)

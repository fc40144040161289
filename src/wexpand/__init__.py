"""Linear-optical simulation of a W-state expansion gate.

End-to-end model of the experiment: photon sources, beamsplitter
interference, post-selection, simulated tomography with iterative
maximum-likelihood reconstruction, and entanglement analysis.
"""

__version__ = "0.1.0"

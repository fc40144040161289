"""Central table of numeric tolerances used across the package.

Every module pulls its thresholds from here so that a tolerance is defined
exactly once and tests can reference the same constants.
"""

import sys

# Float range: a float below its normal range loses bits
FLOAT_NORMAL_MIN = sys.float_info.min   # smallest normal float, 2.2250738585072014e-308

# Sparse-state bookkeeping
AMPLITUDE_PRUNE = 1e-14        # amplitudes below this are dropped after each operation

# Unitarity / linear-algebra validation
UNITARY_ATOL = 1e-12           # 2x2 mode matrices and Jones matrices
HERMITICITY_ATOL = 1e-10       # density matrices: max |rho - rho^dagger|
PSD_ATOL = 1e-10               # density matrices: eigenvalues >= -PSD_ATOL
TRACE_ATOL = 1e-9              # density matrices: |trace - 1|

# Two-qubit entanglement measures
CONCURRENCE_SLACK = 1e-12      # concurrence may exceed 1 by this much (then clipped)

# Post-selection in the Fock engine (fock.postselect_qubits), its only reader
POSTSELECT_MIN_PROBABILITY = 1e-12   # below this the projected state is flagged empty
POSTSELECT_NORM_ATOL = 1e-6          # input state must have |norm^2 - 1| below this

# Iterative maximum-likelihood reconstruction
IMLM_PROBABILITY_FLOOR = 1e-12   # floor on predicted probabilities inside the R operator
IMLM_CERTIFICATE_RTOL = 1e-7     # stop when the relative optimality gap lambda_max(R) - 1 is below this
IMLM_RANK_RTOL = 1e-9            # a Newton step keeps the eigenvectors of sigma above this times its largest eigenvalue
IMLM_MAX_ITER = 100_000

# Analytic cross-checks
PROBABILITY_ATOL = 1e-10       # simulated vs analytic success probabilities

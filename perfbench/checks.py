"""Correctness checks on the report bytes of one scenario.

Each check is written against the report as a reader gets it, not against
the program's own validators, so a defect in those does not hide here.
"""

from __future__ import annotations

import json

import numpy as np

from wexpand.cli import ExperimentConfig
from wexpand.tolerances import (
    HERMITICITY_ATOL,
    PROBABILITY_ATOL,
    PSD_ATOL,
    TRACE_ATOL,
)

VISIBILITY_ATOL = 1e-6
EXACT_MIN_FIDELITY = 0.999
# w3 expands a one-qubit W state; expanding N qubits post-selects with
# probability (N+2)/(16N).
W3_POSTSELECTION = (1 + 2) / (16 * 1)


def _density_matrix_problems(doc: dict) -> list[str]:
    dim = int(doc["dim"])
    m = (np.asarray(doc["re"]) + 1j * np.asarray(doc["im"])).reshape(dim, dim)
    problems = []
    if np.max(np.abs(m - m.conj().T)) > HERMITICITY_ATOL:
        problems.append("density matrix is not Hermitian")
    lowest = np.linalg.eigvalsh((m + m.conj().T) / 2).min()
    if lowest < -PSD_ATOL:
        problems.append(f"density matrix eigenvalue {lowest:.3e}")
    if abs(np.trace(m).real - 1.0) > TRACE_ATOL:
        problems.append(f"density matrix trace {np.trace(m).real!r}")
    return problems


def report_problems(payload: bytes, config: ExperimentConfig) -> list[str]:
    """Every failed check of one report; empty when the report is correct."""
    results = json.loads(payload)["results"]
    if config.scenario == "hom":
        if abs(results["visibility"] - config.visibility_target) > VISIBILITY_ATOL:
            return [
                f"visibility {results['visibility']!r} misses target "
                f"{config.visibility_target!r}"
            ]
        return []

    tomography = results["tomography"]
    problems = _density_matrix_problems(tomography["density_matrix"])
    if not tomography["witness"] < 0:
        problems.append(f"witness {tomography['witness']!r} is not negative")
    if tomography["mode"] == "exact" and tomography["fidelity"] < EXACT_MIN_FIDELITY:
        problems.append(f"exact-mode fidelity {tomography['fidelity']!r}")
    probability = results["postselection"]["probability"]
    if abs(probability - W3_POSTSELECTION) > PROBABILITY_ATOL:
        problems.append(f"post-selection probability {probability!r}")
    return problems

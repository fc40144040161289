"""Scenario runner: the dip scan, the two expansion experiments and the
size-scaling study, with strict config handling and deterministic reports.

Subcommands: hom | w3 | w4 | scaling.  Every sampled scenario requires a
seed, and identical config + seed produces byte-identical report files
(reports carry no timestamps).  Reference experimental numbers ride along
in every report as annotations for side-by-side display; they are never
asserted against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import types
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .entanglement import eof, fidelity
from .fock import DensityMatrix
from .gates import (
    MODE_INPUT,
    OUTPUT_MODES,
    excitation_density,
    excitation_indices,
    expand,
    success_probability_analytic,
    w_state_qubits,
)
from .sources import (
    calibrate_overlap_for_visibility,
    dip_coefficients,
    hom_scan,
    hom_scan_to_csv,
    hom_visibility,
)
from .tomography import (
    bootstrap_errors,
    exact_counts,
    flux_for_typical_count,
    imlm_reconstruct,
    sample_counts,
    w_statistics,
)

# Experimental values quoted for the same scenarios, shown next to the
# simulated numbers in every report.  Annotations only.
REFERENCE_EXPERIMENT = {
    "hom": {
        "visibility": 0.85,
        "coherence_length_um": 144.0,
        "wcp_mean_photon_number": 0.03,
        "pump_power": "23 mW",
    },
    "w3": {
        "fidelity": {"value": 0.836, "error": 0.042},
        "witness": {"value": -0.169, "error": 0.042},
        "pairwise_eof": {
            "45": {"value": 0.354, "error": 0.070},
            "46": {"value": 0.273, "error": 0.065},
            "56": {"value": 0.316, "error": 0.074},
        },
        "acquisition_seconds_per_setting": 5220,
        "coincidence_rate_per_second": 0.02,
        "wcp_mean_photon_number": 0.3,
        "pump_power": "75 mW",
    },
    "w4": {
        "pair_fidelity": {"value": 0.977, "error": 0.005},
        "pair_eof": {"value": 0.964, "error": 0.013},
        # The pair EOF is also quoted as 0.95 +/- 0.02 in the same report.
        "pair_eof_alternate": {"value": 0.95, "error": 0.02},
        "fidelity": {"value": 0.784, "error": 0.028},
        "witness": {"value": -0.034, "error": 0.028},
        "pairwise_eof": {
            "45": {"value": 0.040, "error": 0.022},
            "46": {"value": 0.167, "error": 0.033},
            "56": {"value": 0.133, "error": 0.030},
            "04": {"value": 0.184, "error": 0.037},
            "05": {"value": 0.072, "error": 0.028},
            "06": {"value": 0.146, "error": 0.033},
        },
        "pairwise_eof_alternate": {"04": {"value": 0.15, "error": 0.03}},
        "acquisition_seconds_per_setting": 4280,
        "coincidence_rate_per_second": 0.02,
        "wcp_mean_photon_number": 0.3,
        "pump_power": "150 mW",
    },
    "scaling": {
        "success_probability_n1": 0.1875,
        "success_probability_n2": 0.125,
    },
}


# Domain of each config field: (what it must do, membership test).  A
# scenario checks the fields it reads.
_DOMAINS = {
    "nu": ("be nonnegative", lambda x: x >= 0),
    "gamma": ("be positive", lambda x: x > 0),
    "overlap": ("lie in [0, 1]", lambda x: 0 <= x <= 1),
    "flux_per_setting": ("be positive", lambda x: x > 0),
    "n_resamples": ("be 0 or at least 2", lambda x: x == 0 or x >= 2),
    "coherence_length_um": ("be positive", lambda x: x > 0),
    "delays_um": ("be non-empty", lambda x: x is None or len(x) > 0),
    "visibility_target": ("lie in [0, 1)", lambda x: x is None or 0 <= x < 1),
    "seed": ("be null or nonnegative", lambda x: x is None or x >= 0),
}

# The fields each scenario reads.  A config file or flag may set only these,
# and a report's config block lists only these.
_W3_FIELDS = ("overlap", "flux_per_setting", "n_resamples", "seed", "exact")
SCENARIO_FIELDS = {
    "hom": ("nu", "overlap", "coherence_length_um", "delays_um", "visibility_target"),
    "w3": _W3_FIELDS,
    "w4": ("gamma",) + _W3_FIELDS,
    "scaling": ("overlap",),
}
SCENARIOS = tuple(SCENARIO_FIELDS)


@dataclass
class ExperimentConfig:
    """One scenario's settings; the defaults are the quoted experimental ones."""

    scenario: str
    nu: float = 0.03
    gamma: float = 0.05
    overlap: float = 1.0
    flux_per_setting: float = 104.0
    n_resamples: int = 100
    seed: int | None = None
    exact: bool = False
    coherence_length_um: float = 144.0
    delays_um: list[float] | None = None
    visibility_target: float | None = 0.85

    def read_fields(self) -> tuple[str, ...]:
        """The fields this run reads.  An exact run samples nothing, so it
        reads neither ``seed`` nor ``n_resamples``."""
        unread = ("seed", "n_resamples") if self.exact else ()
        return tuple(f for f in SCENARIO_FIELDS[self.scenario] if f not in unread)

    def validate(self) -> None:
        """The one check of the values of the fields the run reads.  A
        NaN fails every domain, since it compares false."""
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        fields = self.read_fields()
        for name, (domain, ok) in _DOMAINS.items():
            value = getattr(self, name)
            if name in fields and not ok(value):
                raise ValueError(f"{name} must {domain}, got {value!r}")
        calibrated = "visibility_target" in fields and self.visibility_target is not None
        if calibrated and self.overlap != 1:
            raise ValueError(
                "overlap and visibility_target both set the overlap; set "
                '"visibility_target": null to scan at a fixed overlap'
            )
        if "seed" in fields and self.seed is None:
            raise ValueError(
                f"scenario {self.scenario!r} samples counts; a seed is required"
            )


# Field annotations drive the type check of config files.
_FIELD_HINTS = typing.get_type_hints(ExperimentConfig)


def _matches(value, hint) -> bool:
    """JSON value check against a field annotation: ``float`` accepts ints,
    only ``bool`` accepts booleans, only ``X | None`` accepts null, and a
    ``list[X]`` checks its items."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        return any(_matches(value, arg) for arg in typing.get_args(hint))
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        return isinstance(value, list) and all(_matches(v, item) for v in value)
    if isinstance(value, bool):
        return hint is bool
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def config_to_dict(config: ExperimentConfig) -> dict:
    """The scenario and the fields its run reads."""
    fields = config.read_fields()
    return {"scenario": config.scenario, **{f: getattr(config, f) for f in fields}}


def _strict_object(pairs: list) -> dict:
    """A JSON object's dict; ValueError names a key that is repeated or that
    holds a non-finite number.  Python's parser accepts the NaN and Infinity
    literals, and 1e999 parses to inf."""
    fields = {}
    for key, value in pairs:
        if key in fields:
            raise ValueError(f"field {key!r} is repeated")
        values = value if isinstance(value, list) else [value]
        if not all(math.isfinite(v) for v in values if isinstance(v, float)):
            raise ValueError(f"field {key!r} holds a non-finite number")
        fields[key] = value
    return fields


def load_config(path) -> ExperimentConfig:
    """Strict config parse: each field once and finite, so that every report
    is strict JSON, then a known scenario, and only fields that scenario
    reads, each of its type.  Omitted fields take their defaults, as a run
    without a file does.  The values' domains are checked by
    ``run_scenario``, after any command-line overrides."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_strict_object)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except ValueError as exc:  # from _strict_object
        raise ValueError(f"{path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    scenario = raw.get("scenario")
    if scenario not in SCENARIOS:
        raise ValueError(f"{path}: scenario must be one of {SCENARIOS}, got {scenario!r}")
    unread = sorted(set(raw) - {"scenario", *SCENARIO_FIELDS[scenario]})
    if unread:
        raise ValueError(f"{path}: fields scenario {scenario!r} does not read: {unread}")
    for key, value in raw.items():
        if not _matches(value, _FIELD_HINTS[key]):
            raise ValueError(f"{path}: field {key!r} has invalid type")
    return ExperimentConfig(**raw)


def config_sha256(config: ExperimentConfig) -> str:
    canonical = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _child_seeds(seed: int | None, count: int) -> list[int]:
    if seed is None:
        return [0] * count
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _tomography_block(
    rho: DensityMatrix, config: ExperimentConfig, seeds: list[int]
) -> dict:
    """Shared tomography pipeline: counts, reconstruction, statistics.

    ``flux_per_setting`` is the detected-count scale (rate x acquisition
    time) at a typical setting, so the Born-rule multiplier handed to the
    samplers is flux / mean setting probability.
    """
    multiplier = flux_for_typical_count(rho, config.flux_per_setting)
    if config.exact:
        counts = exact_counts(rho, multiplier)
    else:
        flux = f"flux_per_setting {config.flux_per_setting!r}"
        try:
            counts = sample_counts(rho, multiplier, seeds[0])
        except ValueError as exc:  # numpy: "lam value too large"
            raise ValueError(f"cannot sample counts at {flux}: {exc}") from None
        if not counts.any():
            raise ValueError(f"{flux} drew no count in any setting")
    result = imlm_reconstruct(counts, qubit_order=rho.qubit_order)
    block = {
        "mode": "exact" if config.exact else "sampled",
        "settings": len(counts),
        "flux_per_setting": config.flux_per_setting,
        "flux_multiplier": multiplier,
        "iterations": result.iterations,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "certificate": result.certificate,
        "log_likelihood": result.log_likelihood,
        **w_statistics(result.rho),
        "density_matrix": result.rho.to_json(),
    }
    if not config.exact and config.n_resamples:
        block["bootstrap"], block["bootstrap_fits"] = bootstrap_errors(
            counts,
            config.n_resamples,
            seeds[1],
            rho.qubit_order,
            start=result.rho.matrix,
        )
    else:
        block["bootstrap"] = block["bootstrap_fits"] = None
    return block


def _run_hom(config: ExperimentConfig) -> dict:
    dip = dip_coefficients(config.nu)
    overlap = config.overlap
    if config.visibility_target is not None:
        overlap = calibrate_overlap_for_visibility(config.visibility_target, dip)
    delays = config.delays_um
    if delays is None:
        delays = [float(d) for d in range(-400, 401, 25)]
    curve = hom_scan(delays, dip, overlap, config.coherence_length_um)
    return {
        "overlap_used": overlap,
        "coherence_length_um": config.coherence_length_um,
        "asymptote": dip[0],
        "dip_minimum": min(p for _, p in curve),
        "visibility": hom_visibility(dip, overlap),
        "points": [[d, p] for d, p in curve],
    }


def _run_w3(config: ExperimentConfig) -> dict:
    seeds = _child_seeds(None if config.exact else config.seed, 2)
    expanded = expand(np.ones((1, 1)), 0, config.overlap)
    rho = excitation_density(expanded, OUTPUT_MODES)
    return {
        "postselection": {
            "probability": float(np.trace(expanded).real),
            "analytic_ideal": success_probability_analytic(1),
            "overlap": config.overlap,
        },
        "tomography": _tomography_block(rho, config, seeds),
    }


def _run_w4(config: ExperimentConfig) -> dict:
    seeds = _child_seeds(None if config.exact else config.seed, 4)
    # The diagonal pump emits sqrt(gamma) times the pair, already W_2 in the
    # local frame of modes 0 and 1, on top of vacuum; a coincidence keeps
    # the pair, with probability gamma / (1 + gamma).
    w2 = w_state_qubits(2)
    sigma_pair = DensityMatrix(np.outer(w2, w2.conj()), [0, MODE_INPUT])
    pair_probability = config.gamma / (1 + config.gamma)

    pair_block = _tomography_block(sigma_pair, config, seeds[:2])

    # The pair holds one V on modes 0 and 1; its photon in mode 1 enters
    # the gate.
    single = np.ix_(excitation_indices(2), excitation_indices(2))
    expanded = expand(pair_probability * sigma_pair.matrix[single], 1, config.overlap)
    rho = excitation_density(expanded, (0,) + OUTPUT_MODES)
    raw_probability = float(np.trace(expanded).real)

    return {
        "pair_source": {
            "fidelity_w2": fidelity(sigma_pair, w2),
            "eof": eof(sigma_pair),
            "coincidence_probability": pair_probability,
            "tomography": pair_block,
        },
        "postselection": {
            "probability": raw_probability,
            "probability_given_pair": raw_probability / pair_probability,
            "analytic_ideal_given_pair": success_probability_analytic(2),
            "overlap": config.overlap,
        },
        "tomography": _tomography_block(rho, config, seeds[2:]),
    }


# The W_N input sizes of a scaling report.
SCALING_SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 16, 64, 1024)


def _smallest(block: np.ndarray) -> float | None:
    """The smallest entry of a block, or None if it has no finite one."""
    value = block.min(initial=np.inf)
    return float(value) if value < np.inf else None


def _run_scaling(config: ExperimentConfig) -> dict:
    # W_N is J/N, with J the N x N all-ones matrix, and the map is linear.
    # So one expansion of the largest J, which accesses its last qubit,
    # gives every row: its last N+2 rows and columns, divided by N.
    largest = max(SCALING_SIZES)
    expanded = expand(np.ones((largest, largest)), largest - 1, config.overlap)
    rows = []
    for n in SCALING_SIZES:
        block = expanded[-(n + 2) :, -(n + 2) :] / n
        probability = float(np.trace(block).real)
        rho = block / probability
        fid = float(rho.sum().real) / (n + 2)
        # No pair holds two V photons, so a pair's concurrence is 2|rho_ij|.
        pairs = 2 * np.abs(rho)
        np.fill_diagonal(pairs, np.inf)
        u = n - 1  # the untouched qubits come first
        rows.append(
            {
                "n": n,
                "analytic": success_probability_analytic(n),
                "simulated": probability,
                "fidelity": fid,
                "witness": (n + 1) / (n + 2) - fid,
                "pair_concurrence": {
                    "untouched_untouched": _smallest(pairs[:u, :u]),
                    "untouched_new": _smallest(pairs[:u, u:]),
                    "new_new": _smallest(pairs[u:, u:]),
                },
            }
        )
    return {"rows": rows}


_RUNNERS = {"hom": _run_hom, "w3": _run_w3, "w4": _run_w4, "scaling": _run_scaling}


def run_scenario(config: ExperimentConfig) -> dict:
    """Full report document for one scenario; raises ValueError first if a
    config value lies outside its field's domain."""
    config.validate()
    results = _RUNNERS[config.scenario](config)
    return {
        "schema_version": 8,
        "tool": {"name": "wexpand", "version": __version__},
        "scenario": config.scenario,
        "config": config_to_dict(config),
        "config_sha256": config_sha256(config),
        "results": results,
        "reference_values": REFERENCE_EXPERIMENT[config.scenario],
    }


def _overwrite(path, payload: bytes) -> None:
    """Leave exactly ``payload`` in the file at ``path``: write over its old
    bytes in place, then cut off any tail they leave. Every output file
    goes through here; ``emit_report`` says why there is no O_TRUNC."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(payload)
        # A device such as /dev/null has size 0 and cannot be truncated.
        if os.fstat(fh.fileno()).st_size > len(payload):
            fh.truncate()


def emit_report(report: dict, path) -> bytes:
    """Write the report as canonical, strict JSON; returns the bytes written.

    The report is serialized before any file is opened, so a NaN or
    infinity raises ValueError and leaves ``path`` as it was. The file is
    overwritten in place, not truncated first: on ext4 a file truncated to
    zero and written again is flushed to disk when it is closed, which
    costs about 0.3 ms a file. That matters to a process that writes one
    path many times, as ``perfbench`` does; a CLI run that writes over its
    old outputs saves under 1 ms of about 225 ms. Once written, the bytes,
    inode, mode bits and symlink-following are those of
    ``Path.write_bytes``. Neither write is atomic, and they differ after a
    crash during or just after the write: this one can leave a mix of old
    and new bytes, where ``Path.write_bytes`` could leave an empty file.
    """
    payload = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    payload = (payload + "\n").encode("utf-8")
    _overwrite(path, payload)
    return payload


def _write_side_outputs(report: dict, out_path: Path) -> list[Path]:
    written = []
    results = report["results"]
    if report["scenario"] == "hom":
        csv_path = out_path.with_name(out_path.stem + "_curve.csv")
        text = hom_scan_to_csv([tuple(p) for p in results["points"]])
        _overwrite(csv_path, text.encode("utf-8"))
        written.append(csv_path)
    if report["scenario"] in ("w3", "w4"):
        rho_path = out_path.with_name(out_path.stem + "_rho.json")
        text = json.dumps(results["tomography"]["density_matrix"], sort_keys=True)
        _overwrite(rho_path, (text + "\n").encode("utf-8"))
        written.append(rho_path)
    return written


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wexpand",
        description="Simulate the W-state expansion gate experiments",
    )
    sub = parser.add_subparsers(dest="scenario", required=True)
    for name, fields in SCENARIO_FIELDS.items():
        p = sub.add_parser(name, help=f"run the {name} scenario")
        p.add_argument("--config", type=Path, help="JSON config file")
        if "seed" in fields:
            p.add_argument("--seed", type=int, help="seed for sampled scenarios")
        if "exact" in fields:
            p.add_argument(
                "--exact",
                action="store_true",
                help="feed noiseless expected probabilities to the reconstruction",
            )
        p.add_argument("--out", type=Path, help="report path (JSON)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = ExperimentConfig(args.scenario)
        if args.config is not None:
            config = load_config(args.config)
        if config.scenario != args.scenario:
            raise ValueError(
                f"config is for scenario {config.scenario!r}, "
                f"but {args.scenario!r} was requested"
            )
        if getattr(args, "seed", None) is not None:
            config.seed = args.seed
        if getattr(args, "exact", False):
            config.exact = True

        report = run_scenario(config)
        out_path = args.out or Path(f"{config.scenario}_report.json")
        emit_report(report, out_path)
        side = _write_side_outputs(report, out_path)
        print(f"report written to {out_path}")
        for extra in side:
            print(f"  + {extra}")
        if config.scenario == "scaling":
            for row in report["results"]["rows"]:
                print(
                    f"  N={row['n']}: analytic={row['analytic']:.6f} "
                    f"simulated={row['simulated']:.6f} fidelity={row['fidelity']:.9f}"
                )
        if config.scenario in ("w3", "w4"):
            tomo = report["results"]["tomography"]
            print(
                f"  fidelity={tomo['fidelity']:.4f} witness={tomo['witness']:.4f} "
                f"({tomo['mode']} mode)"
            )
        if config.scenario == "hom":
            print(f"  visibility={report['results']['visibility']:.4f}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

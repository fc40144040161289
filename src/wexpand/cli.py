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
from json.encoder import encode_basestring_ascii
from pathlib import Path

# OpenBLAS reads its thread count once, when numpy loads it.  On one thread
# its products and solves sum in one order, so a run's bytes do not depend
# on the thread count of the caller, whose value is put back for child
# processes.  A caller that loaded numpy first keeps its threads.
_caller_threads = os.environ.get("OPENBLAS_NUM_THREADS")
os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy as np

if _caller_threads is None:
    del os.environ["OPENBLAS_NUM_THREADS"]
else:
    os.environ["OPENBLAS_NUM_THREADS"] = _caller_threads

from . import __version__
from .entanglement import eof_from_concurrence
from .gates import (
    MODE_INPUT, OUTPUT_MODES, expand, gate_constants, success_probability_analytic,
)
from .sources import (
    calibrate_overlap_for_visibility,
    dip_coefficients,
    hom_scan,
    hom_visibility,
)
from .tomography import (
    bootstrap_errors,
    exact_counts,
    excitation_probabilities,
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
    "nu": ("be finite and nonnegative", lambda x: 0 <= x < math.inf),
    "gamma": ("be finite and positive", lambda x: 0 < x < math.inf),
    "overlap": ("lie in [0, 1]", lambda x: 0 <= x <= 1),
    "flux_per_setting": ("be finite and positive", lambda x: 0 < x < math.inf),
    "n_resamples": ("be 0 or at least 2 and finite", lambda x: x == 0 or 2 <= x < math.inf),
    "coherence_length_um": ("be finite and positive", lambda x: 0 < x < math.inf),
    "delays_um": (
        "be non-empty and finite",
        lambda x: x is None or (len(x) > 0 and all(map(math.isfinite, x))),
    ),
    "visibility_target": ("lie in [0, 1)", lambda x: x is None or 0 <= x < 1),
    "seed": ("be null or nonnegative and finite", lambda x: x is None or 0 <= x < math.inf),
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
        """The one check of a config's values, from a file, a flag or code:
        the type of every field the scenario lists, then the domain of every
        field the run reads.  A non-finite number fails either its type or
        its domain: every float domain is finite, and a NaN compares false."""
        if self.scenario not in SCENARIOS:
            raise ValueError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        for name in SCENARIO_FIELDS[self.scenario]:
            value = getattr(self, name)
            if not _matches(value, _FIELD_KINDS[name]):
                raise ValueError(f"{name} has invalid type, got {value!r}")
        fields = self.read_fields()
        for name in fields:
            value = getattr(self, name)
            domain, ok = _DOMAINS.get(name, (None, None))
            if ok and not ok(value):
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


def _kinds(hint) -> dict:
    """The exact types a field annotation admits, as JSON gives them and the
    report writer takes them, each mapped to the kinds of its items or None:
    ``float`` admits ints, ``X | None`` None and ``list[X]`` a list of X."""
    if type(hint) is types.UnionType:
        return {k: v for arg in hint.__args__ for k, v in _kinds(arg).items()}
    if type(hint) is types.GenericAlias:  # list[X]
        return {list: _kinds(hint.__args__[0])}
    return dict.fromkeys((int, float) if hint is float else (hint,))


# Field annotations drive the type check of every config.
_FIELD_HINTS = typing.get_type_hints(ExperimentConfig)
_FIELD_KINDS = {name: _kinds(hint) for name, hint in _FIELD_HINTS.items()}


def _matches(value, kinds: dict) -> bool:
    """Whether a value is of a kind ``_kinds`` admits, and so is each item of a list."""
    if type(value) not in kinds:
        return False
    items = kinds[type(value)]
    return items is None or all(_matches(v, items) for v in value)


def config_to_dict(config: ExperimentConfig) -> dict:
    """The scenario and the fields its run reads."""
    fields = config.read_fields()
    return {"scenario": config.scenario, **{f: getattr(config, f) for f in fields}}


def _strict_object(pairs: list) -> dict:
    """A JSON object's dict; ValueError names a key that is repeated."""
    fields = {}
    for key, value in pairs:
        if key in fields:
            raise ValueError(f"field {key!r} is repeated")
        fields[key] = value
    return fields


def load_config(path) -> ExperimentConfig:
    """Parse a config file, checking only what a file alone can get wrong:
    its JSON syntax and nesting depth, a repeated key, a known scenario, and
    only fields that scenario lists.  Omitted fields take their defaults, as
    a run without a file does.  The values are checked by ``validate``,
    after any command-line overrides, as a config built in code is."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_strict_object)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except ValueError as exc:  # from _strict_object
        raise ValueError(f"{path}: {exc}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    scenario = raw.get("scenario")
    if scenario not in SCENARIOS:
        raise ValueError(f"{path}: scenario must be one of {SCENARIOS}, got {scenario!r}")
    unread = sorted(set(raw) - {"scenario", *SCENARIO_FIELDS[scenario]})
    if unread:
        raise ValueError(f"{path}: fields scenario {scenario!r} does not read: {unread}")
    return ExperimentConfig(**raw)


def config_sha256(config: ExperimentConfig) -> str:
    canonical = json.dumps(config_to_dict(config), sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _child_seeds(seed: int | None, count: int) -> list[int]:
    if seed is None:
        return [0] * count
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _tomography_block(
    probabilities, qubit_order: tuple, config: ExperimentConfig, seeds: list[int]
) -> dict:
    """Shared tomography pipeline: counts from each setting's probability,
    in ``default_settings`` order, their fit on ``qubit_order``, statistics.

    ``flux_per_setting`` is the detected-count scale (rate x acquisition
    time) at a typical setting, so the multiplier that turns probabilities
    into counts is flux / mean setting probability.  A flux so large that the
    counts, their sum or the fit's log-likelihood overflows is named in a
    ValueError: numpy raises on the overflow here instead of warning.  So
    is one so small that the multiplier, and with it every count, falls
    below a float's normal range, where the counts lose bits.
    """
    flux = f"flux_per_setting {config.flux_per_setting!r}"
    overflow = f"{flux} is too large: the counts or their fit overflow"
    multiplier = flux_for_typical_count(probabilities, config.flux_per_setting)
    if multiplier < np.finfo(float).tiny:
        raise ValueError(f"{flux} is too small: the counts underflow")
    with np.errstate(over="raise", invalid="raise"):
        try:
            if config.exact:
                counts = exact_counts(probabilities, multiplier)
            else:
                try:
                    counts = sample_counts(probabilities, multiplier, seeds[0])
                except ValueError as exc:  # numpy: "lam value too large"
                    raise ValueError(f"cannot sample counts at {flux}: {exc}") from None
                if not counts.any():
                    raise ValueError(f"{flux} drew no count in any setting")
            result = imlm_reconstruct(counts, qubit_order=qubit_order)
        except FloatingPointError:
            raise ValueError(overflow) from None
    if not math.isfinite(result.log_likelihood):
        raise ValueError(overflow)
    block = {
        "mode": "exact" if config.exact else "sampled",
        "settings": len(counts),
        "flux_per_setting": config.flux_per_setting,
        "flux_multiplier": multiplier,
        "iterations": result.iterations,
        "newton_steps": result.newton_steps,
        "converged": result.converged,
        "stop_reason": result.stop_reason,
        "certificate": result.certificate,
        "log_likelihood": result.log_likelihood,
        **w_statistics([result.rho])[0],
        "density_matrix": result.rho.to_json(),
    }
    if not config.exact and config.n_resamples:
        block["bootstrap"], block["bootstrap_fits"] = bootstrap_errors(
            counts, config.n_resamples, seeds[1], result.rho
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
    expanded = expand(np.ones((1, 1)), config.overlap)
    probabilities = excitation_probabilities(expanded)
    return {
        "postselection": {
            "probability": float(np.trace(expanded).real),
            "analytic_ideal": success_probability_analytic(1),
            "overlap": config.overlap,
        },
        "tomography": _tomography_block(probabilities, OUTPUT_MODES, config, seeds),
    }


def _run_w4(config: ExperimentConfig) -> dict:
    seeds = _child_seeds(None if config.exact else config.seed, 4)
    # The diagonal pump emits sqrt(gamma) times the pair, already W_2 in the
    # local frame of modes 0 and 1, on top of vacuum; a coincidence keeps
    # the pair, with probability gamma / (1 + gamma).  Gamma sets only how
    # often a pair arrives, so it scales the two reported rates and not the
    # state the gate expands.  The pair holds one V on modes 0 and 1, so it
    # is the 2 x 2 single-excitation matrix of W_2; its photon in mode 1,
    # the last qubit, enters the gate.
    pair = np.full((2, 2), 0.5)
    pair_probability = config.gamma / (1 + config.gamma)
    expanded = expand(pair, config.overlap)
    given_pair = float(np.trace(expanded).real)

    return {
        "pair_source": {
            # F = sum(pair) / 2 and, with no two V photons, C = 2 |pair_01|.
            "fidelity_w2": float(pair.sum()) / 2,
            "eof": eof_from_concurrence(2 * abs(float(pair[0, 1]))),
            "coincidence_probability": pair_probability,
            "tomography": _tomography_block(
                excitation_probabilities(pair), (0, MODE_INPUT), config, seeds[:2]
            ),
        },
        "postselection": {
            "probability": pair_probability * given_pair,
            "probability_given_pair": given_pair,
            "analytic_ideal_given_pair": success_probability_analytic(2),
            "overlap": config.overlap,
        },
        "tomography": _tomography_block(
            excitation_probabilities(expanded), (0,) + OUTPUT_MODES, config, seeds[2:]
        ),
    }


# The W_N input sizes of a scaling report.
SCALING_SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 16, 64, 1024)


def _run_scaling(config: ExperimentConfig) -> dict:
    # W_N is J/N, with J the N x N all-ones matrix, and the map is linear.
    # Whatever N is, the expansion of J holds s between untouched qubits, c_a
    # between an untouched qubit and output a, and G on the outputs (see
    # ``gate_constants``), so every row is a closed form in N.
    s, c, g = gate_constants(config.overlap)
    trace_g, sum_c, sum_g = (sum(x).real for x in ([g[a][a] for a in range(3)], c, map(sum, g)))
    # No pair holds two V photons, so a pair's concurrence is 2|rho_ij|.
    pair_c = 2 * min(map(abs, c))
    pair_g = 2 * min(abs(g[a][b]) for a in range(3) for b in range(3) if a != b)
    rows = []
    for n in SCALING_SIZES:
        trace = s * (n - 1) + trace_g  # N times the success probability
        fid = (s * (n - 1) ** 2 + 2 * (n - 1) * sum_c + sum_g) / (trace * (n + 2))
        rows.append(
            {
                "n": n,
                "analytic": success_probability_analytic(n),
                "simulated": trace / n,
                "fidelity": fid,
                "witness": (n + 1) / (n + 2) - fid,
                "pair_concurrence": {
                    "untouched_untouched": 2 * s / trace if n > 2 else None,
                    "untouched_new": pair_c / trace if n > 1 else None,
                    "new_new": pair_g / trace,
                },
            }
        )
    return {"rows": rows}


_RUNNERS = {"hom": _run_hom, "w3": _run_w3, "w4": _run_w4, "scaling": _run_scaling}


def run_scenario(config: ExperimentConfig) -> dict:
    """Full report document for one scenario; raises ValueError first if a
    config value has the wrong type or lies outside its field's domain."""
    config.validate()
    results = _RUNNERS[config.scenario](config)
    return {
        "schema_version": 9,
        "tool": {"name": "wexpand", "version": __version__},
        "scenario": config.scenario,
        "config": config_to_dict(config),
        "config_sha256": config_sha256(config),
        "results": results,
        "reference_values": REFERENCE_EXPERIMENT[config.scenario],
    }


def _overwrite(path, payload: bytes) -> None:
    """Leave exactly ``payload`` in the file at ``path``, written over its old
    bytes in place. Every output file goes through here; see ``emit_report``."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(payload)
        while view:
            view = view[os.write(fd, view):]
        # A device such as /dev/null has size 0 and cannot be truncated.
        if os.fstat(fd).st_size > len(payload):
            os.ftruncate(fd, len(payload))
    finally:
        os.close(fd)


def _write_json(value, write, indent: str) -> None:
    """Pass to ``write`` the chunks of ``json.dumps(value, indent=2,
    sort_keys=True, allow_nan=False)`` for a tree of plain values."""
    kind = type(value)
    if kind is float and not math.isfinite(value):
        raise ValueError(f"report value {value!r} is not valid JSON")
    if kind is float or kind is int:
        write(repr(value))
    elif kind is str:
        write(encode_basestring_ascii(value))
    elif kind is bool or value is None:
        write("null" if value is None else "true" if value else "false")
    elif kind is dict:
        inner, sep = indent + "  ", "{"
        for key in sorted(value):
            write(f"{sep}{inner}{encode_basestring_ascii(key)}: ")
            _write_json(value[key], write, inner)
            sep = ","
        write(indent + "}" if value else "{}")
    elif kind is list or kind is tuple:
        inner, sep = indent + "  ", "["
        for item in value:
            write(sep + inner)
            _write_json(item, write, inner)
            sep = ","
        write(indent + "]" if value else "[]")
    else:
        raise TypeError(f"report value of type {kind.__name__} is not plain JSON")


def emit_report(report: dict, path) -> bytes:
    """Write the report as canonical, strict JSON; returns the bytes written.

    The bytes are those of ``json.dumps(report, indent=2, sort_keys=True,
    allow_nan=False)`` and a newline, but from ``_write_json``: CPython
    3.10 and 3.11 encode indented JSON in pure Python. A leaf that is not
    a plain str, int, float, bool or None (a numpy scalar, say), or a key
    that is not a str, raises TypeError. The report is serialized before
    any file is opened, so a NaN or infinity raises ValueError and leaves
    ``path`` as it was. ``_overwrite`` writes over the old bytes in place
    by a loop of ``os.write`` on the descriptor, with no buffered file
    object. With no O_TRUNC it skips the flush ext4 starts when it closes a
    truncated file; unlike ``Path.write_bytes``, a crash can mix old and new.
    """
    chunks: list[str] = []
    _write_json(report, chunks.append, "\n")
    payload = ("".join(chunks) + "\n").encode("utf-8")
    _overwrite(path, payload)
    return payload


def _write_side_outputs(report: dict, out_path: Path) -> list[Path]:
    written = []
    results = report["results"]
    if report["scenario"] == "hom":
        # The plot-ready dip curve as CSV, with \r\n line ends.
        csv_path = out_path.with_name(out_path.stem + "_curve.csv")
        rows = [f"{d:.6f},{p:.12e}\r\n" for d, p in results["points"]]
        text = "delay_um,coincidence_probability\r\n" + "".join(rows)
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
        # Side files are named from the report's path, so only a regular file
        # gets them: beside /dev/null they would land in /dev.
        side = _write_side_outputs(report, out_path) if out_path.is_file() else []
        print(f"report written to {out_path}")
        for extra in side:
            print(f"  + {extra}")
        if config.scenario == "scaling":
            for row in report["results"]["rows"]:
                print(
                    f"  N={row['n']}: analytic={row['analytic']:.9f} "
                    f"simulated={row['simulated']:.9f} fidelity={row['fidelity']:.9f}"
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

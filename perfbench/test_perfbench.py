"""Self-tests of the benchmark, on tiny inputs.

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from wexpand import cli  # noqa: E402


# Tiny inputs: two resamples, a one-point scan.
TINY = {"w3-bootstrap": {"n_resamples": 2}, "dip-scan": {"delays_um": [0.0]}}


def _first(workload: str):
    config = next(workloads.inputs(workload, 7, ROOT))
    return dataclasses.replace(config, **TINY[workload])


def _traced_runner(config, tmp_path) -> run.Runner:
    runner = run.Runner(tmp_path, spans.Tracer())
    runner.rerun_matches(config, runner.run(config), traced=True)
    assert runner.failed == 0
    return runner


def test_w3_counts_every_fit(tmp_path):
    runner = _traced_runner(_first("w3-bootstrap"), tmp_path)
    table = spans.layer_table(runner.tracer.spans, runner.tracer.scenario)
    assert table["tomography.imlm_reconstruct.calls"] == 1 + 2
    assert table["tomography.bootstrap_errors.resamples"] == 2
    assert table["entanglement.witness_value.calls"] == 1 + 2


def test_dip_scan_runs_no_tomography(tmp_path):
    runner = _traced_runner(_first("dip-scan"), tmp_path)
    assert not [s for s in runner.tracer.spans if s.name.startswith("tomography.")]
    table = spans.layer_table(runner.tracer.spans, runner.tracer.scenario)
    assert table["tomography.imlm_reconstruct.calls"] == 0
    assert table["gates.run_gate.calls"] > 0


def test_tracing_restores_every_binding(tmp_path):
    before = spans.bindings()
    bound = {(module.__name__, attr) for module, attr, _, _ in before}
    # cli binds the fit by name; tomography's own global is not enough.
    assert ("wexpand.cli", "imlm_reconstruct") in bound
    assert ("wexpand.tomography", "imlm_reconstruct") in bound
    _traced_runner(_first("w3-bootstrap"), tmp_path)
    for module, attr, _, original in before:
        assert getattr(module, attr) is original


def test_rescaling_uses_the_probes_around_each_scenario(tmp_path):
    runner = run.Runner(tmp_path, spans.Tracer())
    config = _first("dip-scan")
    runner.run(config)
    runner.run(config)
    assert runner.failed == 0 and len(runner.probes) == 3
    for i, seconds in enumerate(runner.plain_s):
        probe_s = (runner.probes[i] + runner.probes[i + 1]) / 2
        assert runner.scaled_s[i] == speed.rescaled(seconds, probe_s)
    assert speed.rescaled(2.0, speed.REFERENCE_S) == 2.0


def test_block_means_take_whole_blocks_only():
    assert run.block_means([1.0, 3.0, 5.0, 7.0, 9.0], 2) == [2.0, 6.0]
    assert run.block_means([1.0, 3.0], 1) == [1.0, 3.0]


def _run_bench(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dip-scan",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_has_every_declared_metric(trace, section):
    done = _run_bench(ROOT, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if trace == 0:
        assert "# failed_ratio  0.0000" in done.stdout
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _run_bench(tmp_path, 0)
    assert done.returncode != 0
    assert done.stdout == ""


def _set(path, value):
    def mutate(report):
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return mutate


@pytest.mark.parametrize("workload,mutate", [
    ("w3-bootstrap", _set(("results", "tomography", "witness"), 0.01)),
    ("w3-bootstrap", _set(("results", "postselection", "probability"), 0.1875 + 1e-8)),
    ("w3-bootstrap", lambda r: r["results"]["tomography"].update(mode="exact", fidelity=0.998)),
    ("w3-bootstrap", lambda r: r["results"]["tomography"]["density_matrix"]["re"].__setitem__(0, 2.0)),
    ("w3-bootstrap", lambda r: r["results"]["tomography"]["density_matrix"]["im"].__setitem__(1, 0.1)),
    ("dip-scan", lambda r: r["results"].__setitem__("visibility", r["results"]["visibility"] + 1e-5)),
])
def test_checks_reject_a_wrong_report(workload, mutate, tmp_path):
    config = _first(workload)
    report = json.loads(cli.emit_report(cli.run_scenario(config), tmp_path / "r.json"))
    assert checks.report_problems(json.dumps(report).encode(), config) == []
    mutate(report)
    assert checks.report_problems(json.dumps(report).encode(), config)

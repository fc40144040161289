"""Benchmark of the wexpand scenario pipelines.

    python3 perfbench/run.py --workload dip-scan --seed 1 --seconds 30 --trace 0

Runs one workload closed-loop, one scenario at a time in this process,
through ``wexpand.cli.run_scenario`` and ``emit_report``, and checks every
report.  It prints a provenance line and a readable metric table, then as
its last line one JSON object with the keys correct, attempted, failed and
metrics.  With ``--trace 0`` the metrics are the end-to-end ones, measured
with tracing off: a host-speed probe (``speed.py``) runs after every
untraced scenario, and ``scenario_s`` is the median of the scenario times
rescaled by it.  With ``--trace 1`` every input runs untraced and then
traced, and the metrics are the per-layer table and the tracing overhead.

Exit code 1 when a scenario raised or failed a check, 2 when the checkout
holds no wexpand sources or configs.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 15


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _timed_scenario(config, path: Path) -> tuple[float, bytes]:
    """Wall seconds from config in to report bytes written."""
    from wexpand import cli

    start = time.perf_counter()
    payload = cli.emit_report(cli.run_scenario(config), path)
    return time.perf_counter() - start, payload


class Runner:
    """Runs, times and checks scenarios, and counts the failures.

    A host-speed probe runs after every untraced scenario, and
    ``scaled_s`` holds each scenario's seconds rescaled by the probes on
    either side of it, in step with ``plain_s``.
    """

    def __init__(self, out_dir: Path, tracer):
        self.path = out_dir / "report.json"
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.plain_s: list[float] = []
        self.scaled_s: list[float] = []
        self.traced_s: list[float] = []
        self.probes: list[float] = []

    def _probe(self) -> float:
        self.probes.append(speed.probe())
        return self.probes[-1]

    def run(self, config, traced: bool = False) -> bytes | None:
        """One checked scenario; returns its report bytes, None if it failed."""
        import checks

        self.attempted += 1
        try:
            if traced:
                self.tracer.scenario += 1
                with self.tracer.installed():
                    seconds, payload = _timed_scenario(config, self.path)
            else:
                before = self.probes[-1] if self.probes else self._probe()
                seconds, payload = _timed_scenario(config, self.path)
                after = self._probe()
            problems = checks.report_problems(payload, config)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        if problems:
            print(f"check failed for {config!r}: {problems}", file=sys.stderr)
            self.failed += 1
            return None
        if traced:
            self.traced_s.append(seconds)
        else:
            self.plain_s.append(seconds)
            self.scaled_s.append(speed.rescaled(seconds, (before + after) / 2))
        return payload

    def rerun_matches(self, config, first: bytes | None, traced: bool) -> None:
        """Run ``config`` again; its report bytes must equal ``first``."""
        again = self.run(config, traced)
        if first is not None and again is not None and again != first:
            print(f"report bytes differ on a repeat of {config!r}", file=sys.stderr)
            self.failed += 1


class SetupSampler:
    """Set-up samples, each in a fresh process, spread over a timed run.

    Set-up time drifts with the host over seconds, so samples taken back
    to back would all see one moment of it.
    """

    def __init__(self, workload: str, seed: int, seconds: float):
        self.argv = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
        self.start = time.perf_counter()
        self.interval = seconds / SETUP_SAMPLES
        self.samples: list[float] = []

    def _sample(self) -> None:
        done = subprocess.run(
            self.argv, cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=120,
        )
        self.samples.append(float(done.stdout.split()[-1]))

    def when_due(self) -> None:
        """Take the next sample if its time has come."""
        due = self.start + len(self.samples) * self.interval
        if len(self.samples) < SETUP_SAMPLES and time.perf_counter() >= due:
            self._sample()

    def finish(self) -> list[float]:
        """Take the samples still missing and return all of them."""
        while len(self.samples) < SETUP_SAMPLES:
            self._sample()
        return self.samples


def timed_loop(
    runner: Runner, stream, seconds: float, block: int, setup: SetupSampler
) -> None:
    """Untraced scenarios, ``block`` inputs at a time, until the time is
    spent; then the first input once more, which must give the same bytes.
    At least one block runs.  Set-up samples run between scenarios."""

    def run(config) -> bytes | None:
        payload = runner.run(config)
        setup.when_due()
        return payload

    start = time.perf_counter()
    deadline = start + seconds
    first = next(stream)
    first_bytes = run(first)
    for _ in range(block - 1):
        run(next(stream))
    # Another block only if one as long as the last, and the repeat, fit.
    last_block = time.perf_counter() - start
    while time.perf_counter() + last_block + last_block / block <= deadline:
        start = time.perf_counter()
        for _ in range(block):
            run(next(stream))
        last_block = time.perf_counter() - start
    # Samples come in whole blocks, so the repeat is a sample only when a
    # block is one input: on w3-bootstrap it would be a seed-chosen extra
    # input in the single-scenario figures of the table.
    samples = len(runner.plain_s)
    runner.rerun_matches(first, first_bytes, traced=False)
    if block > 1:
        del runner.plain_s[samples:]
        del runner.scaled_s[samples:]


def traced_loop(runner: Runner, stream, seconds: float) -> None:
    """Each input untraced, then traced, until the time is spent; the two
    runs must give the same bytes."""
    deadline = time.perf_counter() + seconds
    for config in stream:
        pair = _median(runner.plain_s) + _median(runner.traced_s)
        if runner.attempted and time.perf_counter() + pair > deadline:
            break
        runner.rerun_matches(config, runner.run(config), traced=True)


def _git_sha() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS will use, if it can be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                return int(getattr(handle, symbol)())
    return None


def _cpu_times() -> list[int]:
    """The machine-wide cpu line of /proc/stat, in clock ticks."""
    with open("/proc/stat", encoding="utf-8") as fh:
        return [int(x) for x in fh.readline().split()[1:]]


def _steal_share(start: list[int], end: list[int]) -> float:
    """Share of CPU time the hypervisor gave to other guests (the 8th field)."""
    delta = [b - a for a, b in zip(start, end)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def provenance(loadavg: tuple[float, float, float], steal_share: float) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": _blas_threads(),
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "loadavg_start": list(loadavg),
        "cpu_steal_share": steal_share,
    }


def _unit(name: str) -> str:
    if name == "cli.report_bytes":
        return "bytes"
    if name.endswith("_s") or name.endswith("s_per_iteration"):
        return "s"
    return "count"


def _tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    if len(values) <= 10:
        return "no percentile has ten samples beyond it"
    q = math.floor(100 * (1 - 10 / len(values)))
    return f"p{q}={statistics.quantiles(values, n=100)[q - 1]:.4f} s"


def block_means(values: list[float], block: int) -> list[float]:
    """Mean of each whole block of ``block`` consecutive values."""
    return [
        statistics.fmean(values[i:i + block])
        for i in range(0, len(values) - block + 1, block)
    ]


def end_to_end(
    runner: Runner, setup: list[float], block: int
) -> tuple[dict, list[str]]:
    # A block of w3-bootstrap is one pass of its suite, whose inputs differ
    # in cost by more than tenfold: a median over single scenarios would
    # follow the one or two middle inputs only, so the median is taken
    # over the mean of each pass.  Where a block is one input, that is the
    # median over scenarios.
    per_block = block_means(runner.scaled_s, block)
    # Set-up samples are too short for a probe of their own to say much;
    # the run's median probe gives the host speed over the run.
    setup_s = speed.rescaled(_median(setup), _median(runner.probes))
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "scenario_s": {"value": _median(per_block), "unit": "s"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
    }
    lines = [
        f"scenario_s    {metrics['scenario_s']['value']:.4f} s  median of "
        f"{len(per_block)} blocks of {block}, rescaled to a "
        f"{speed.REFERENCE_S} s probe",
        f"  scenarios   n={len(runner.scaled_s)}, median "
        f"{_median(runner.scaled_s):.4f} s, {_tail_percentile(runner.scaled_s)}",
        f"  wall        {_median(runner.plain_s):.4f} s  median, "
        f"{_tail_percentile(runner.plain_s)}",
        f"  probe       {_median(runner.probes):.4f} s  median of "
        f"{len(runner.probes)}",
        f"setup_s       {setup_s:.4f} s  median of {len(setup)} fresh "
        f"processes, rescaled to the run's median probe",
        f"  wall        {_median(setup):.4f} s  median",
        f"peak_rss_mb   {peak_mb:.1f} MB",
        f"failed_ratio  {runner.failed / runner.attempted:.4f}  "
        f"({runner.failed} of {runner.attempted} scenarios)",
    ]
    return metrics, lines


def per_layer(runner: Runner) -> tuple[dict, list[str]]:
    import spans

    table = spans.layer_table(runner.tracer.spans, max(runner.tracer.scenario, 1))
    table["trace.overhead_s"] = _median(runner.traced_s) - _median(runner.plain_s)
    metrics = {k: {"value": v, "unit": _unit(k)} for k, v in table.items()}
    lines = [f"{k:48s} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    if runner.traced_s:
        # Layer values are means per scenario; this is what they add up to.
        lines.append(
            f"traced scenario_s: mean {statistics.mean(runner.traced_s):.4f} s, "
            f"median {_median(runner.traced_s):.4f} s, n={len(runner.traced_s)}"
        )
    return metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "wexpand" / "__init__.py").is_file() or not (
        ROOT / "configs"
    ).is_dir():
        print(f"error: no src/wexpand or configs/ under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    loadavg = os.getloadavg()
    cpu_start = _cpu_times()
    stream = workloads.inputs(args.workload, args.seed, ROOT)
    workloads.warm_up(args.workload, args.seed, ROOT)
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".reports-") as tmp:
        runner = Runner(Path(tmp), spans.Tracer())
        if args.trace:
            traced_loop(runner, stream, args.seconds)
            metrics, lines = per_layer(runner)
        else:
            setup = SetupSampler(args.workload, args.seed, args.seconds)
            block = workloads.block(args.workload)
            timed_loop(runner, stream, args.seconds, block, setup)
            metrics, lines = end_to_end(runner, setup.finish(), block)

    steal = _steal_share(cpu_start, _cpu_times())
    print("# provenance " + json.dumps(provenance(loadavg, steal), sort_keys=True))
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace}")
    for line in lines:
        print("# " + line)
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0 if runner.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

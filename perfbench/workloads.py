"""Benchmark workloads: each turns the benchmark seed into a stream of
scenario configs built from the shipped files under ``configs/``.

The program only ever sees the generated configs; the seed stays here.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from pathlib import Path
from typing import Iterator

import numpy as np

from wexpand import cli
from wexpand.cli import ExperimentConfig

# w3-bootstrap runs a fixed suite of sampled-count inputs.  Fit iteration
# counts are heavy-tailed across inputs (one 5-resample scenario took
# 0.25 s for one config seed and 1.7 s for another), so a run that drew
# fresh inputs from the benchmark seed would measure which inputs it drew,
# not the program.  The suite's config seeds derive from the shipped seed;
# the benchmark seed only orders the suite.
W3_SUITE_SIZE = 12
# 5 resamples (6 fits) per scenario instead of the shipped 100, so that a
# run covers the whole suite several times (a pass takes about 8 s): one
# shipped w3 scenario takes about 27 s, and with 10 resamples only one or
# two passes fit in a run, too few for a steady median over passes.
W3_RESAMPLES = 5


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _dip_scan(base: ExperimentConfig, rng: np.random.Generator):
    # Every draw stays below the multiphoton visibility cap (>= 0.98 here).
    while True:
        yield dataclasses.replace(
            base,
            nu=_log_uniform(rng, 0.02, 0.05),
            visibility_target=float(rng.uniform(0.80, 0.90)),
        )


def _w3_bootstrap(base: ExperimentConfig, rng: np.random.Generator):
    seeds = np.random.SeedSequence(base.seed).generate_state(W3_SUITE_SIZE)
    suite = [
        dataclasses.replace(base, seed=int(s), n_resamples=W3_RESAMPLES)
        for s in seeds
    ]
    order = rng.permutation(len(suite))
    for index in itertools.cycle(order):
        yield dataclasses.replace(suite[index])


# name -> (shipped config file, config stream, block): a timed run covers
# whole blocks of inputs, so that every run of w3-bootstrap times the same
# suite.
WORKLOADS = {
    "dip-scan": ("hom.json", _dip_scan, 1),
    "w3-bootstrap": ("w3.json", _w3_bootstrap, W3_SUITE_SIZE),
}


def inputs(name: str, seed: int, root: Path) -> Iterator[ExperimentConfig]:
    """Endless, seed-determined stream of configs for one workload."""
    config_file, stream, _ = WORKLOADS[name]
    base = cli.load_config(root / "configs" / config_file)
    return stream(base, np.random.default_rng(seed))


def block(name: str) -> int:
    return WORKLOADS[name][2]


def warm_up(name: str, seed: int, root: Path) -> None:
    """Untimed run of the workload's first input: lazy BLAS start-up,
    first-use imports and whatever else the first scenario of a kind pays
    once.  On a shared 2-core VM the first w3 scenario of a process took
    up to three times as long as its repeats."""
    cli.run_scenario(next(inputs(name, seed, root)))

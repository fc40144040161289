import dataclasses
import errno
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import wexpand
from wexpand import cli, fock, gates, optics, sources
from wexpand.cli import (
    SCALING_SIZES,
    SCENARIO_FIELDS,
    SCENARIOS,
    ExperimentConfig,
    _write_json,
    config_sha256,
    config_to_dict,
    emit_report,
    load_config,
    main,
    run_scenario,
)
from wexpand.entanglement import fidelity, w_state_qubits, witness_value
from wexpand.gates import run_gate
from wexpand.tolerances import FLOAT_NORMAL_MIN

from helpers import (
    EOF_AT_HALF, EOF_AT_TWO_THIRDS, born_probabilities, concurrence, excitation_density,
    expand_w_full_photonic, expanded_w, partial_trace, scaling_row_by_expansion,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run_module(*args, **env) -> subprocess.CompletedProcess:
    """``python -W error::RuntimeWarning`` with ``args`` in a new process,
    with this checkout's sources first on the path and ``env`` added.  (runpy
    warns when the package has already imported the module it runs.)"""
    src = str(Path(wexpand.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", *args],
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True,
        text=True,
        timeout=120,
    )


# Every shipped run, as the arguments of ``wexpand`` before ``--out``, in the
# order one interpreter makes them: each config file under the scenario it
# names, then four more; ``shipped_argvs`` writes EXTRA_CONFIGS' files.
SHIPPED_RUNS = {
    path.stem: [json.loads(path.read_bytes())["scenario"], "--config", str(path)]
    for path in sorted(CONFIG_DIR.glob("*.json"))
}
SHIPPED_RUNS.update(
    hom_nu=["hom", "--config", "hom_nu.json"],
    scaling_overlap=["scaling", "--config", "scaling_overlap.json"],
    w3_exact=["w3", "--exact"],
    w4_exact=["w4", "--exact"],
)
EXTRA_CONFIGS = {
    "hom_nu.json": {"scenario": "hom", "nu": 0.05, "visibility_target": 0.8},
    "scaling_overlap.json": {"scenario": "scaling", "overlap": 0.926},
}
# The environments of the fresh processes; the first gives the reference.
FRESH_PROCESSES = {
    "hash_seed_1": {"PYTHONHASHSEED": "1", "OPENBLAS_NUM_THREADS": "1"},
    "hash_seed_2": {"PYTHONHASHSEED": "2", "OPENBLAS_NUM_THREADS": "1"},
    "hash_seed_3": {"PYTHONHASHSEED": "3", "OPENBLAS_NUM_THREADS": "1"},
    "blas_threads_2": {"PYTHONHASHSEED": "1", "OPENBLAS_NUM_THREADS": "2"},
}
MAIN_IN_TURN = ("import json, sys, wexpand.cli as c\n"
                "assert all(c.main(a) == 0 for a in json.loads(sys.argv[1]))")


def shipped_argvs(root: Path) -> dict[str, list[str]]:
    """Each shipped run's arguments of ``wexpand`` before ``--out``, with
    EXTRA_CONFIGS' files written under ``root``."""
    for name, fields in EXTRA_CONFIGS.items():
        (root / name).write_text(json.dumps(fields), encoding="utf-8")
    return {name: [str(root / a) if a in EXTRA_CONFIGS else a for a in argv]
            for name, argv in SHIPPED_RUNS.items()}


@pytest.fixture(scope="module")
def shipped_outputs(tmp_path_factory) -> Path:
    """Every shipped run's outputs under ``root/way/run/``: from a fresh
    process each FRESH_PROCESSES way, and from one interpreter that makes all
    runs in turn twice, so each also follows every other one there."""
    root = tmp_path_factory.mktemp("shipped")
    runs = shipped_argvs(root)

    def argv(way, name):
        (root / way / name).mkdir(parents=True)
        return [*runs[name], "--out", str(root / way / name / "report.json")]

    in_turn = [argv(way, name) for way in ("one_interpreter", "one_interpreter_again")
               for name in SHIPPED_RUNS]
    jobs = [(("-c", MAIN_IN_TURN, json.dumps(in_turn)), FRESH_PROCESSES["hash_seed_1"])]
    jobs += [(("-m", "wexpand.cli", *argv(way, name)), env)
             for way, env in FRESH_PROCESSES.items() for name in SHIPPED_RUNS]
    # Two processes at a time: the runs share no file.
    with ThreadPoolExecutor(2) as pool:
        for done in pool.map(lambda job: run_module(*job[0], **job[1]), jobs):
            assert done.returncode == 0, (done.args, done.stderr)
    return root


def shipped(outputs: Path, name: str, file: str = "report.json") -> bytes:
    """One output file of shipped run ``name``, from the reference process."""
    return (outputs / "hash_seed_1" / name / file).read_bytes()


def write_config(tmp_path, **fields):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fields), encoding="utf-8")
    return path


def test_load_config_round_trip(tmp_path):
    path = write_config(
        tmp_path, scenario="w3", overlap=0.9, flux_per_setting=104.0, seed=7
    )
    config = load_config(path)
    again = write_config(tmp_path, **config_to_dict(config))
    assert load_config(again) == config


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scenario_only_file_loads_the_defaults(tmp_path, scenario):
    # A file takes the scenario's defaults for every field it omits, as a
    # run without --config does.
    path = write_config(tmp_path, scenario=scenario)
    assert load_config(path) == ExperimentConfig(scenario)


def test_unknown_field_rejected(tmp_path):
    path = write_config(tmp_path, scenario="w3", seed=1, typo_field=3)
    with pytest.raises(ValueError, match=r"does not read: \['typo_field'\]"):
        load_config(path)


# One value inside each field's domain, other than its default.
IN_DOMAIN = {
    "nu": 0.3,
    "gamma": 0.2,
    "overlap": 0.9,
    "flux_per_setting": 50.0,
    "n_resamples": 3,
    "seed": 11,
    "exact": True,
    "coherence_length_um": 100.0,
    "delays_um": [-50.0, 0.0, 50.0],
    "visibility_target": 0.8,
}
UNREAD = [
    (scenario, name)
    for scenario, fields in SCENARIO_FIELDS.items()
    for name in IN_DOMAIN
    if name not in fields
]


@pytest.mark.parametrize(
    "scenario, name", UNREAD, ids=[f"{s}-{n}" for s, n in UNREAD]
)
def test_unread_field_rejected(tmp_path, capsys, scenario, name):
    # A config file may set only the fields its scenario reads, even to a
    # value inside the field's domain.
    cfg_path = write_config(tmp_path, scenario=scenario, **{name: IN_DOMAIN[name]})
    out = tmp_path / "report.json"
    assert main([scenario, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert f"does not read: ['{name}']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["hom", "--seed", "1"], ["hom", "--exact"], ["scaling", "--seed", "1"],
     ["scaling", "--exact"]],
)
def test_flags_only_on_scenarios_that_read_them(tmp_path, argv):
    # argparse rejects --seed and --exact where the scenario reads neither.
    with pytest.raises(SystemExit) as exited:
        main(argv + ["--out", str(tmp_path / "report.json")])
    assert exited.value.code == 2
    assert not (tmp_path / "report.json").exists()


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        '{"scenario": "scaling", "overlap": 0.5, "overlap": 1.0}', encoding="utf-8"
    )
    with pytest.raises(ValueError, match="field .overlap. is repeated"):
        load_config(path)


def test_missing_seed_on_sampling_scenario_rejected(tmp_path, capsys):
    # The file may leave the seed to --seed, so the check is made when the
    # scenario runs: the seed's domain, which a sampled run reads.
    message = "seed must be set and nonnegative; a sampled run needs a seed, got None"
    for scenario in ("w3", "w4"):
        seedless = load_config(write_config(tmp_path, scenario=scenario, n_resamples=0))
        with pytest.raises(ValueError, match="^" + re.escape(message)):
            run_scenario(seedless)
        out = tmp_path / "x.json"
        assert main([scenario, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()
        # exact mode needs no seed
        exact = load_config(write_config(tmp_path, scenario=scenario, exact=True))
        assert exact.seed is None
        run_scenario(exact)


def test_seed_option_completes_a_seedless_config(tmp_path):
    seedless = write_config(tmp_path, scenario="w3", n_resamples=2)
    seeded = tmp_path / "seeded.json"
    seeded.write_text(
        json.dumps({"scenario": "w3", "n_resamples": 2, "seed": 7}), encoding="utf-8"
    )
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["w3", "--config", str(seedless), "--seed", "7", "--out", str(a)]) == 0
    assert main(["w3", "--config", str(seeded), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# One value outside each field's domain; every scenario checks every field.
OUT_OF_DOMAIN = [
    ("nu", -5.0),
    ("gamma", -1.0),
    ("overlap", 1.5),
    ("overlap", -0.1),
    ("flux_per_setting", -4.0),
    ("flux_per_setting", 0.0),
    ("n_resamples", -1),
    ("n_resamples", 1),
    ("coherence_length_um", -3.0),
    ("coherence_length_um", 0.0),
    ("delays_um", []),
    ("visibility_target", 7.0),
    ("visibility_target", 1.0),
    ("visibility_target", -0.1),
    ("seed", -3),
]

# Each field that holds a float, or a list of floats, and a scenario that
# reads it.
FLOAT_FIELDS = {
    "nu": "hom",
    "gamma": "w4",
    "overlap": "w3",
    "flux_per_setting": "w3",
    "coherence_length_um": "hom",
    "visibility_target": "hom",
    "delays_um": "hom",
}


def test_every_value_field_has_a_domain():
    # Each field declares its readers and domain: every field but scenario
    # has a reader, and every field but exact a domain.
    declared = {f.name: f.metadata for f in dataclasses.fields(ExperimentConfig)}
    assert [n for n, meta in declared.items() if not meta.get("scenarios")] == ["scenario"]
    domains = {n for n, meta in declared.items() if meta.get("domain")}
    assert domains == set(declared) - {"scenario", "exact"}
    assert {name for name, _ in OUT_OF_DOMAIN} == domains
    floats = {name for name, hint in cli._FIELD_HINTS.items() if "float" in str(hint)}
    assert set(FLOAT_FIELDS) == floats
    assert all(name in SCENARIO_FIELDS[s] for name, s in FLOAT_FIELDS.items())
    # Some scenario reads every field.
    assert set(IN_DOMAIN) == set().union(*SCENARIO_FIELDS.values())
    assert set(IN_DOMAIN) == set(declared) - {"scenario"}


# The fields each scenario reads, and each shipped run's config block and
# hash, as literals: a declaration that adds a field to a scenario, drops one
# or reorders them fails here, where a comparison within one tree passes.
PINNED_SCENARIO_FIELDS = {
    "hom": ("nu", "overlap", "coherence_length_um", "delays_um", "visibility_target"),
    "w3": ("overlap", "flux_per_setting", "n_resamples", "seed", "exact"),
    "w4": ("gamma", "overlap", "flux_per_setting", "n_resamples", "seed", "exact"),
    "scaling": ("overlap",),
}
_HOM = {"scenario": "hom", "overlap": 1.0, "coherence_length_um": 144.0, "delays_um": None}
_W3 = {"scenario": "w3", "overlap": 1.0, "flux_per_setting": 104.0}
_W4 = {"scenario": "w4", "gamma": 0.05, "overlap": 1.0, "flux_per_setting": 104.0}
PINNED_CONFIGS = {
    "hom": ({**_HOM, "nu": 0.03, "visibility_target": 0.85},
            "c940dc3229323cbe9bb53222030277cb59cf0fd4350beed8353eac68455a1079"),
    "scaling": ({"scenario": "scaling", "overlap": 1.0},
                "368fdc1adbbcee8de3fd5861b7193e0c8b58c86536acf5ef25cdbc688e766e26"),
    "w3": ({**_W3, "n_resamples": 100, "seed": 20260808, "exact": False},
           "97f2d191950ffea3a74de01aaf9dc3aa934cb6b93f91b6b5e5a393117126d721"),
    "w4": ({**_W4, "n_resamples": 50, "seed": 20260809, "exact": False},
           "0bbf1076975845d39de293e60ea4821f322d95e75ced1d61046d2f13821bfc18"),
    "hom_nu": ({**_HOM, "nu": 0.05, "visibility_target": 0.8},
               "b5160837285df040742f2d89c73225e8368502faf05506089a1e1200f63c5e15"),
    "scaling_overlap": ({"scenario": "scaling", "overlap": 0.926},
                        "48f3942049769e327fdfe47f8446d3e0fe80b1d0d8d93a0de2979f15d657b172"),
    "w3_exact": ({**_W3, "exact": True},
                 "1acb520042282eb485f9cb6f205be0a09f5548c5f24e189650714bef6b7770c2"),
    "w4_exact": ({**_W4, "exact": True},
                 "925754abeac7bd5245548a3da809361520e412f60090933c59708155009a8d91"),
}


def test_scenario_fields_are_pinned():
    assert list(SCENARIO_FIELDS) == list(SCENARIOS) == list(PINNED_SCENARIO_FIELDS)
    assert SCENARIO_FIELDS == PINNED_SCENARIO_FIELDS


@pytest.mark.parametrize("name", SHIPPED_RUNS)
def test_shipped_config_blocks_are_pinned(shipped_outputs, name):
    report = json.loads(shipped(shipped_outputs, name))
    assert (report["config"], report["config_sha256"]) == PINNED_CONFIGS[name]


@pytest.mark.parametrize("scenario", ["hom", "w3", "w4"])
@pytest.mark.parametrize(
    "name, value", OUT_OF_DOMAIN, ids=[f"{n}={v}" for n, v in OUT_OF_DOMAIN]
)
def test_out_of_domain_field_rejected(tmp_path, capsys, scenario, name, value):
    # A scenario checks the domain of a field it reads, and rejects a field
    # it does not read whatever its value.  Between them, hom, w3 and w4
    # read every field.
    fields = SCENARIO_FIELDS[scenario]
    seed = {"seed": 1} if "seed" in fields else {}
    cfg_path = write_config(tmp_path, scenario=scenario, **{**seed, name: value})
    out = tmp_path / "report.json"
    assert main([scenario, "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    if name in fields:
        assert f"error: {name} must" in err
    else:
        assert f"does not read: ['{name}']" in err
    assert not out.exists()


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=str)
@pytest.mark.parametrize("name", sorted(FLOAT_FIELDS))
def test_non_finite_float_field_rejected(name, value):
    # JSON cannot carry an infinity, but a config built in code can; each
    # one, and a NaN, fails the domain of the field it is put in.
    config = ExperimentConfig(FLOAT_FIELDS[name], seed=1)
    setattr(config, name, [0.0, value] if name == "delays_um" else value)
    with pytest.raises(ValueError, match=f"^{name} must"):
        config.validate()


@pytest.mark.parametrize(
    "name, value, exact",
    [
        ("seed", 1.5, False),
        ("n_resamples", 2.5, False),
        ("overlap", "0.9", False),
        ("seed", True, False),
        ("exact", 1, False),
        ("overlap", np.float64(0.9), False),
        ("seed", 1.5, True),
        ("seed", "x", True),
        ("n_resamples", 2.5, True),
    ],
    ids=["seed-float", "n_resamples-float", "overlap-str", "seed-bool", "exact-int",
         "overlap-numpy", "exact-seed-float", "exact-seed-str", "exact-n_resamples-float"],
)
def test_config_built_in_code_with_a_wrong_type_rejected(name, value, exact):
    # validate checks the type of every field the scenario lists, whether it
    # came from a file, a flag or code, before numpy or a comparison can
    # raise a TypeError and before a bool or int reaches the report.  An
    # exact run reads neither seed nor n_resamples, but their types are
    # still checked.  Types are exact, as JSON gives them: the report writer
    # takes no numpy float.
    config = ExperimentConfig("w3", seed=1, n_resamples=2, exact=exact)
    setattr(config, name, value)
    message = f"{name} has invalid type, got {value!r}"
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        run_scenario(config)


def _results(config: ExperimentConfig) -> str:
    return json.dumps(run_scenario(config)["results"], sort_keys=True)


# A small sampled run of each scenario, so that seed and n_resamples act.
BASE = {
    "hom": ExperimentConfig("hom", delays_um=[-50.0, 0.0]),
    "w3": ExperimentConfig("w3", seed=5, n_resamples=2),
    "w4": ExperimentConfig("w4", seed=5, n_resamples=2),
    "scaling": ExperimentConfig("scaling"),
}


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_scenario_fields_match_the_runners(scenario):
    # The table lists exactly the fields each runner reads: the others do
    # not move the results even outside their domains, and each listed one
    # does.
    base = BASE[scenario]
    fields = SCENARIO_FIELDS[scenario]
    expected = _results(base)
    unread = {name: value for name, value in OUT_OF_DOMAIN if name not in fields}
    if "exact" not in fields:
        unread["exact"] = True
    assert _results(dataclasses.replace(base, **unread)) == expected
    for name in fields:
        changed = {name: IN_DOMAIN[name]}
        if scenario == "hom" and name == "overlap":
            changed["visibility_target"] = None
        assert _results(dataclasses.replace(base, **changed)) != expected, name
    report = run_scenario(base)
    assert set(report["config"]) == {"scenario", *fields}


def test_visibility_target_and_overlap_together_rejected(tmp_path, capsys):
    # Both set the overlap, so a config may set only one of them.
    both = write_config(
        tmp_path, scenario="hom", nu=0.03, visibility_target=0.85, overlap=0.5
    )
    out = tmp_path / "report.json"
    assert main(["hom", "--config", str(both), "--out", str(out)]) == 1
    assert '"visibility_target": null' in capsys.readouterr().err
    assert not out.exists()
    fixed = write_config(tmp_path, scenario="hom", visibility_target=None, overlap=0.5)
    assert main(["hom", "--config", str(fixed), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["results"]["overlap_used"] == 0.5


def test_bad_types_and_scenarios_rejected(tmp_path):
    # A file's types are checked by validate, as a config built in code is.
    for bad in ({"nu": "0.3"}, {"nu": True}, {"nu": None}, {"delays_um": ["a"]}):
        with pytest.raises(ValueError, match="invalid type"):
            run_scenario(load_config(write_config(tmp_path, scenario="hom", **bad)))
    for bad in ({"n_resamples": 2.5}, {"exact": 1}, {"gamma": "0.1"}):
        with pytest.raises(ValueError, match="invalid type"):
            run_scenario(load_config(write_config(tmp_path, scenario="w4", seed=1, **bad)))
    # float fields take ints, and X | None fields take null
    assert load_config(write_config(tmp_path, scenario="hom", nu=1)).nu == 1
    optional = write_config(tmp_path, scenario="w3", exact=True, seed=None)
    assert load_config(optional).seed is None
    for scenario in ("w9", ["w3"], None):
        with pytest.raises(ValueError, match="scenario must be one of"):
            load_config(write_config(tmp_path, scenario=scenario))
    with pytest.raises(ValueError, match="scenario must be one of"):
        load_config(write_config(tmp_path, overlap=0.5))
    with pytest.raises(ValueError, match="scenario"):
        run_scenario(ExperimentConfig("w9"))
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="line"):
        load_config(bad_json)


def test_scaling_report_rows(shipped_outputs):
    rows = json.loads(shipped(shipped_outputs, "scaling"))["results"]["rows"]
    assert [row["n"] for row in rows] == list(SCALING_SIZES)
    assert rows[0]["analytic"] == pytest.approx(0.1875)
    assert rows[1]["analytic"] == pytest.approx(0.125)
    for row in rows:
        n = row["n"]
        assert row["witness"] == pytest.approx(-1 / (n + 2), abs=1e-10)
        classes = row["pair_concurrence"]
        assert (classes["untouched_untouched"] is None) == (n < 3)
        assert (classes["untouched_new"] is None) == (n < 2)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(0.0, 1.0))
def test_scaling_rows_match_the_expansion_of_each_whole_w_state(overlap):
    rows = run_scenario(ExperimentConfig("scaling", overlap=overlap))["results"]["rows"]
    for row in rows:
        expected = scaling_row_by_expansion(row["n"], overlap)
        for key in ("simulated", "fidelity", "witness"):
            assert row[key] == pytest.approx(expected[key], abs=1e-12), key
        classes, oracle = row["pair_concurrence"], expected["pair_concurrence"]
        assert classes.keys() == oracle.keys()
        for name, value in oracle.items():
            if value is None:
                assert classes[name] is None, name
            else:
                assert classes[name] == pytest.approx(value, abs=1e-12), name


def test_scaling_report_holds_no_matrix_that_grows_with_n():
    # A matrix that grows with N would not fit: the expansion of W_1024
    # alone takes 16.8 MB.
    tracemalloc.start()
    try:
        run_scenario(ExperimentConfig("scaling"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_scaling_rows_at_partial_overlap_match_the_fock_engine(shipped_outputs):
    rows = json.loads(shipped(shipped_outputs, "scaling_overlap"))["results"]["rows"]
    assert rows[0]["fidelity"] == pytest.approx(0.90498, abs=1e-5)
    assert rows[1]["simulated"] == pytest.approx(0.133908, abs=1e-5)
    assert rows[1]["fidelity"] == pytest.approx(0.86696, abs=1e-5)
    for row in rows[:4]:
        n = row["n"]
        oracle, probability = expand_w_full_photonic(n, 0.926)
        assert row["simulated"] == pytest.approx(probability, abs=1e-12)
        assert row["witness"] == pytest.approx(witness_value(oracle), abs=1e-12)
        # Pair concurrences from the dense state, smallest per class; the
        # untouched qubits come first.
        smallest = {}
        kind = ("untouched", "new")
        for i in range(n + 2):
            for j in range(i + 1, n + 2):
                name = f"{kind[i >= n - 1]}_{kind[j >= n - 1]}"
                value = concurrence(partial_trace(oracle, [i, j]))
                smallest[name] = min(smallest.get(name, 1.0), value)
        assert row["pair_concurrence"].keys() >= smallest.keys()
        for name, value in row["pair_concurrence"].items():
            if name not in smallest:
                assert value is None
            else:
                assert value == pytest.approx(smallest[name], abs=1e-10)


def test_report_embeds_hash_and_version(shipped_outputs):
    config = load_config(CONFIG_DIR / "scaling.json")
    report = json.loads(shipped(shipped_outputs, "scaling"))
    assert report["config_sha256"] == config_sha256(config)
    assert report["tool"]["name"] == "wexpand"
    assert report["schema_version"] == 9
    assert "reference_values" in report
    assert report["config"] == config_to_dict(config) == {"scenario": "scaling", "overlap": 1.0}


def test_reference_values_are_annotations(shipped_outputs):
    from wexpand.cli import REFERENCE_EXPERIMENT

    refs = REFERENCE_EXPERIMENT["w3"]
    assert refs["fidelity"]["value"] == 0.836
    assert refs["witness"]["error"] == 0.042
    assert REFERENCE_EXPERIMENT["w4"]["fidelity"]["value"] == 0.784
    assert REFERENCE_EXPERIMENT["w4"]["pair_eof_alternate"]["value"] == 0.95
    report = json.loads(shipped(shipped_outputs, "scaling"))
    # annotations ride along; simulated values are not forced to match them
    assert report["reference_values"]["success_probability_n1"] == 0.1875
    assert report["results"]["rows"][0]["simulated"] == pytest.approx(0.1875)


def test_default_configs_per_scenario():
    # The field defaults are the quoted settings; only hom reads nu and
    # visibility_target, so they are hom's.
    hom = ExperimentConfig("hom")
    assert (hom.nu, hom.visibility_target, hom.coherence_length_um) == (0.03, 0.85, 144.0)
    assert config_to_dict(ExperimentConfig("w3")) == {
        "scenario": "w3",
        "overlap": 1.0,
        "flux_per_setting": 104.0,
        "n_resamples": 100,
        "seed": None,
        "exact": False,
    }
    assert config_to_dict(ExperimentConfig("w4"))["gamma"] == 0.05


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_shipped_configs_are_the_defaults(path):
    shipped = load_config(path)
    default = ExperimentConfig(shipped.scenario)
    assert config_to_dict(shipped) == config_to_dict(
        dataclasses.replace(default, seed=shipped.seed, n_resamples=shipped.n_resamples)
    )


@pytest.mark.parametrize("name", SHIPPED_RUNS)
@pytest.mark.parametrize(
    "way", [*list(FRESH_PROCESSES)[1:], "one_interpreter", "one_interpreter_again"]
)
def test_shipped_outputs_are_byte_identical(shipped_outputs, way, name):
    # No byte may follow PYTHONHASHSEED's set order, the caller's OpenBLAS
    # thread count or what an earlier run left in the process (dip table,
    # measurement model, tangent coordinates).
    want, got = ({p.name: p.read_bytes() for p in (shipped_outputs / w / name).iterdir()}
                 for w in ("hash_seed_1", way))
    assert got.keys() == want.keys()
    for file, text in want.items():
        assert got[file] == text, file


def test_cli_import_puts_back_the_callers_blas_threads():
    # The CLI loads numpy on one OpenBLAS thread, then restores the
    # caller's setting, so that a child process inherits it; unset stays
    # unset.
    show = "import os, wexpand.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert run_module("-c", show, OPENBLAS_NUM_THREADS="2").stdout == "2\n"
    unset = "import os; del os.environ['OPENBLAS_NUM_THREADS']; " + show
    assert run_module("-c", unset, OPENBLAS_NUM_THREADS="2").stdout == "None\n"


@pytest.mark.parametrize("name", SHIPPED_RUNS)
def test_report_bytes_are_those_of_the_stdlib_encoder(shipped_outputs, name):
    text = shipped(shipped_outputs, name)
    assert (_stdlib_text(json.loads(text)) + "\n").encode() == text


@pytest.mark.parametrize(
    "name", [name for name, argv in SHIPPED_RUNS.items() if argv[0] == "hom"]
)
def test_shipped_curve_holds_the_report_points(shipped_outputs, name):
    # One row per report point, each with \r\n line ends, as a csv writer
    # gives them.
    points = json.loads(shipped(shipped_outputs, name))["results"]["points"]
    rows = "".join(f"{d:.6f},{p:.12e}\r\n" for d, p in points)
    expected = "delay_um,coincidence_probability\r\n" + rows
    assert shipped(shipped_outputs, name, "report_curve.csv") == expected.encode()


# The qubit order, post-selection rate, witness bound and pair EOF of each
# exact fit.
EXACT_FITS = {
    "w3": ([4, 5, 6], 3 / 16, -0.33, EOF_AT_TWO_THIRDS),
    "w4": ([0, 4, 5, 6], 1 / 8, -0.24, EOF_AT_HALF),
}


@pytest.mark.parametrize(
    "name", [name for name, argv in SHIPPED_RUNS.items() if argv[0] in EXACT_FITS]
)
def test_shipped_fits_converge(shipped_outputs, name):
    # Every fit stops on its certificate.  Resamples start one shared Newton
    # step from the fit.  Exact counts certify at the start, which for the
    # pair fit is the W2 pair it was given, and give the W state back at the
    # paper's rate.  The *_rho.json file holds the fitted matrix of the
    # report.  The pair source's fidelity and EOF are closed forms of the
    # pair's single-excitation matrix, exact in sampled and exact runs.
    scenario, exact = SHIPPED_RUNS[name][0], "--exact" in SHIPPED_RUNS[name]
    results = json.loads(shipped(shipped_outputs, name))["results"]
    tomo = results["tomography"]
    assert json.loads(shipped(shipped_outputs, name, "report_rho.json")) == tomo[
        "density_matrix"
    ]
    pair = results.get("pair_source", {}).get("tomography")
    for fit in filter(None, [tomo, pair]):
        assert fit["converged"] is True, fit["stop_reason"]
        assert fit["stop_reason"] == "certificate" and fit["certificate"] >= 0
        assert 0 <= fit["newton_steps"] <= fit["iterations"]
        if exact:
            assert fit["iterations"] == 0
            assert fit["bootstrap"] is None and fit["bootstrap_fits"] is None
        else:
            # The p50 bound of 5 holds at overlap 1, where every shipped
            # config runs; off it, resample fits take more iterations (see
            # the next test).
            fits = fit["bootstrap_fits"]
            assert fits["unconverged"] == 0, fits
            assert fits["iterations_p50"] <= min(5, fits["iterations_p90"]), fits
            assert fits["iterations_p90"] <= fits["iterations_max"], fits
            assert 0 <= fits["newton_steps_max"] <= fits["iterations_max"], fits
    if pair:
        source = results["pair_source"]
        assert (source["fidelity_w2"], source["eof"]) == (1.0, 1.0)
    if not exact:
        return
    order, rate, witness, pair_eof = EXACT_FITS[scenario]
    assert tomo["density_matrix"]["qubit_order"] == order
    assert tomo["density_matrix"]["dim"] == 2 ** len(order)
    assert tomo["mode"] == "exact" and tomo["settings"] == 4 ** len(order)
    assert tomo["fidelity"] >= 0.999 and tomo["witness"] <= witness
    pairs = {f"{i}{j}" for i, j in itertools.combinations(order, 2)}
    assert tomo["pairwise_eof"].keys() == pairs
    # Each pair marginal is rank-deficient, so its concurrence moves by
    # O(sqrt(e)) under a move e ~ 1e-16 of the fitted matrix: the EOFs miss
    # their analytic values by up to about 5e-8.
    for fit, eof in [(tomo, pair_eof), (pair, 1.0)]:
        if fit:
            eofs = fit["pairwise_eof"]
            assert max(abs(value - eof) for value in eofs.values()) < 1e-7, eofs
    post = results["postselection"]
    assert post.get("probability_given_pair", post["probability"]) == pytest.approx(
        rate, abs=1e-10
    )
    if pair:
        assert pair["fidelity"] >= 1 - 1e-9


@pytest.mark.parametrize("scenario, seed", [("w3", 5), ("w4", 6)])
def test_sampled_fits_off_unit_overlap_converge(scenario, seed):
    # The sampled runs at overlap 0.926 that CI reruns byte for byte: every
    # main and pair fit, resamples included, stops on its certificate.  The
    # bootstrap p50 reads 3 for w3, and 6 for w4 with 3 for its pair, so the
    # p50 bound of 5 of the shipped runs at overlap 1 does not apply here.
    config = ExperimentConfig(scenario, overlap=0.926, seed=seed, n_resamples=10)
    results = run_scenario(config)["results"]
    pair = results.get("pair_source", {}).get("tomography")
    for fit in filter(None, [results["tomography"], pair]):
        assert fit["stop_reason"] == "certificate", fit["stop_reason"]
        fits = fit["bootstrap_fits"]
        assert fits["unconverged"] == 0, fits
        assert fits["iterations_p50"] <= fits["iterations_p90"] <= fits["iterations_max"], fits


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "sampled"])
@pytest.mark.parametrize("scenario", ["w3", "w4"])
def test_every_fit_holds_the_modes_of_its_one_expansion(monkeypatch, scenario, exact):
    # Each runner expands its W_n input once: W_1 for w3, the pair W_2 for
    # w4.  The main fit holds the untouched qubits' modes, then the gate's
    # outputs 4, 5, 6, and w4's pair fit holds modes 0 and 1, in sampled
    # runs as in exact ones.
    calls = []

    def recorded(matrix, overlap):
        calls.append((np.array(matrix), overlap))
        return gates.expand(matrix, overlap)

    monkeypatch.setattr(cli, "expand", recorded)
    config = ExperimentConfig(scenario, seed=5, n_resamples=2, exact=exact)
    results = run_scenario(config)["results"]
    n = {"w3": 1, "w4": 2}[scenario]
    [(matrix, overlap)] = calls
    assert matrix.shape == (n, n) and (matrix == 1 / n).all() and overlap == 1.0
    fits = [(results["tomography"], EXACT_FITS[scenario][0])]
    if scenario == "w4":
        fits.append((results["pair_source"]["tomography"], [0, 1]))
    for fit, order in fits:
        assert fit["mode"] == ("exact" if exact else "sampled")
        assert fit["density_matrix"]["qubit_order"] == order
        pairs = {f"{i}{j}" for i, j in itertools.combinations(order, 2)}
        assert fit["pairwise_eof"].keys() == pairs


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(0.0, 1.0))
@example(0.0)
@example(1.0)
def test_post_selection_divides_by_a_trace_bounded_below(overlap):
    # Each expansion divides the gate's output by its trace once, with no
    # check that it vanished: the trace of w3's W_1 stays 3/16 and that of
    # w4's pair (6 - 2 xi^2)/32, at or above (N+2)/(16N), and each is the
    # reported post-selection probability to the bit.  The counts come from
    # the state of trace one, so the flux multiplier is that of its mean
    # setting probability.
    runs = [
        ("w3", np.ones((1, 1)), 3 / 16, "probability"),
        ("w4", np.full((2, 2), 0.5), (6 - 2 * overlap**2) / 32, "probability_given_pair"),
    ]
    for scenario, w_n, closed_form, key in runs:
        expanded = gates.expand(w_n, overlap)
        trace = float(np.trace(expanded).real)
        assert abs(trace - closed_form) <= 1e-15, scenario
        assert trace >= gates.success_probability_analytic(len(w_n)) - 1e-15, scenario
        config = ExperimentConfig(scenario, overlap=overlap, exact=True)
        results = run_scenario(config)["results"]
        assert results["postselection"][key] == trace, scenario
        mean = born_probabilities(excitation_density(expanded, range(len(expanded)))).mean()
        multiplier = results["tomography"]["flux_multiplier"]
        assert multiplier == pytest.approx(config.flux_per_setting / mean, rel=1e-12), scenario


@pytest.mark.parametrize("scenario", ["w3", "w4"])
def test_exact_report_does_not_depend_on_seed_or_resamples(
    shipped_outputs, tmp_path, scenario
):
    # An exact run samples nothing, so its config block and hash leave out
    # seed and n_resamples, and setting them changes no byte.
    plain = f"{scenario}_exact"
    out = tmp_path / "seeded.json"
    assert main([scenario, "--exact", "--seed", "5", "--out", str(out)]) == 0
    assert out.read_bytes() == shipped(shipped_outputs, plain)
    rho = (tmp_path / "seeded_rho.json").read_bytes()
    assert rho == shipped(shipped_outputs, plain, "report_rho.json")
    config = json.loads(out.read_bytes())["config"]
    assert set(config) == {"scenario", *SCENARIO_FIELDS[scenario]} - {
        "seed",
        "n_resamples",
    }
    resampled = ExperimentConfig(scenario, exact=True, seed=5, n_resamples=7)
    assert config_sha256(resampled) == config_sha256(ExperimentConfig(scenario, exact=True))


@pytest.mark.parametrize("scenario", ["w3", "w4"])
def test_exact_run_skips_the_domains_of_what_it_does_not_read(
    shipped_outputs, tmp_path, capsys, scenario
):
    # A seed of -1 and a single resample lie outside their domains.  An
    # exact run reads neither, so it runs and writes the plain exact bytes;
    # a sampled run reads both, so it rejects each.
    resampled = write_config(tmp_path, scenario=scenario, exact=True, n_resamples=1)
    runs = {
        "negative_seed": [scenario, "--exact", "--seed", "-1"],
        "one_resample": [scenario, "--config", str(resampled)],
    }
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / f"{name}.json")]) == 0, name
        for suffix in (".json", "_rho.json"):
            plain = shipped(shipped_outputs, f"{scenario}_exact", f"report{suffix}")
            assert (tmp_path / f"{name}{suffix}").read_bytes() == plain, name
    sampled = write_config(tmp_path, scenario=scenario, seed=1, n_resamples=1)
    for argv, message in [
        ([scenario, "--seed", "-1"], "seed must be set and nonnegative; a sampled run needs"),
        ([scenario, "--config", str(sampled)], "n_resamples must be 0 or at least 2"),
    ]:
        out = tmp_path / "sampled.json"
        assert main([*argv, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


OVERFLOW = "counts or their fit overflow"
UNDERFLOW = "is too small: the counts underflow"


@pytest.mark.parametrize(
    "flux, exact, cause",
    [
        pytest.param(0.001, False, "drew no count", id="0.001-drew no count"),
        pytest.param(1e25, False, "lam value too large", id="1e+25-lam value too large"),
        pytest.param(1e308, False, OVERFLOW, id="1e+308-overflow"),
        pytest.param(1e306, True, OVERFLOW, id="1e+306-exact-overflow"),
        pytest.param(1e307, True, OVERFLOW, id="1e+307-exact-overflow"),
        pytest.param(1e308, True, OVERFLOW, id="1e+308-exact-overflow"),
        pytest.param(1e-315, True, UNDERFLOW, id="1e-315-exact-underflow"),
        pytest.param(5e-324, True, UNDERFLOW, id="5e-324-exact-underflow"),
        pytest.param(5e-324, False, UNDERFLOW, id="5e-324-underflow"),
    ],
)
def test_degenerate_flux_is_named(tmp_path, capsys, flux, exact, cause):
    # Counts from a flux too small to draw any, or too large for the Poisson
    # sampler, fail naming the config field and its value.  So do counts
    # whose multiplier, sum or fitted log-likelihood overflows a float, with
    # no RuntimeWarning on the way (a warning is an error here), and counts
    # whose multiplier lies below a float's normal range, where they would
    # lose bits.
    cfg_path = write_config(
        tmp_path, scenario="w3", seed=1, n_resamples=2, flux_per_setting=flux, exact=exact
    )
    out = tmp_path / "report.json"
    assert main(["w3", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"flux_per_setting {flux!r}" in err
    assert cause in err
    assert not out.exists()


def test_bootstrap_of_too_few_counts_is_named(tmp_path, capsys):
    # At this flux and seed the data hold 2 counts, and one of the two
    # resamples draws none.  The run fails naming that, and the field that
    # skips the bootstrap, before any report or side file is written.
    cfg_path = write_config(
        tmp_path, scenario="w3", seed=4, n_resamples=2, flux_per_setting=0.02
    )
    out = tmp_path / "report.json"
    assert main(["w3", "--config", str(cfg_path), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and "drew no count" in line and "n_resamples" in line
    assert not out.exists() and not (tmp_path / "report_rho.json").exists()


@pytest.mark.parametrize("scenario", ["w3", "w4"])
def test_flux_at_the_normal_floor_still_fits(scenario):
    # At 1e-308 the multiplier is still a normal float, so the exact counts
    # give the W state back.
    config = ExperimentConfig(scenario, exact=True, flux_per_setting=1e-308)
    tomography = run_scenario(config)["results"]["tomography"]
    assert tomography["flux_multiplier"] >= FLOAT_NORMAL_MIN
    assert tomography["fidelity"] == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "sampled"])
def test_w4_state_does_not_depend_on_gamma(exact):
    # Gamma sets only how often a pair arrives: the fits and the success
    # probability given a pair are those of gamma 0.05 to the byte, at a
    # gamma far too small to post-select had it scaled the state.
    def run(gamma):
        config = ExperimentConfig("w4", gamma=gamma, seed=3, n_resamples=2, exact=exact)
        return run_scenario(config)["results"]

    def state(results):
        return [json.dumps(block, sort_keys=True) for block in (
            results["tomography"], results["pair_source"]["tomography"],
            results["postselection"]["probability_given_pair"],
        )]

    reference = state(run(0.05))
    for gamma in (1e-300, 1e-13, 0.05, 10.0):
        results = run(gamma)
        assert state(results) == reference, gamma
        post = results["postselection"]
        coincidence = results["pair_source"]["coincidence_probability"]
        assert coincidence == gamma / (1 + gamma)
        assert post["probability"] == coincidence * post["probability_given_pair"], gamma


def test_pair_source_without_pairs_is_named(tmp_path, capsys):
    # At gamma 0 the pair source emits no pair, so w4 has nothing to expand.
    cfg_path = write_config(tmp_path, scenario="w4", gamma=0.0, exact=True)
    out = tmp_path / "report.json"
    assert main(["w4", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "gamma" in capsys.readouterr().err
    assert not out.exists()


def test_no_scenario_builds_a_fock_state(monkeypatch, tmp_path):
    # Every shipped run reads the gate's transfer table; the Fock engine is
    # the tests' oracle only.  Each state the engine returns, from ``tensor``
    # or a circuit's lift, is built by its module's ``pruned``.
    def refuse(terms):
        raise AssertionError("a scenario built a Fock state")

    for module in (fock, optics):
        monkeypatch.setattr(module, "pruned", refuse)
    for name, argv in shipped_argvs(tmp_path).items():
        assert main([*argv, "--out", str(tmp_path / f"{name}_report.json")]) == 0, name


def count_gate_runs(monkeypatch, module=gates) -> list:
    """Patch ``module``'s gate to record the (spatial, pol) input of each
    one-photon lookup."""
    inputs = []

    def counted(spatial, pol):
        inputs.append((spatial, pol))
        return run_gate(spatial, pol)

    monkeypatch.setattr(module, "run_gate", counted)
    return inputs


def test_shipped_hom_scenario_takes_two_gate_runs(monkeypatch):
    # The dip is a photon-number mixture of terms affine in xi^2, and the
    # gate's amplitudes for one photon from each input give every term, so
    # each scenario still asks run_gate for two columns of the H transfer
    # matrix.
    inputs = count_gate_runs(monkeypatch, sources)
    config = load_config(CONFIG_DIR / "hom.json")
    results = run_scenario(config)["results"]
    assert inputs == [(1, "H"), (2, "H")]
    assert results["overlap_used"] == pytest.approx(0.9262800541764591, abs=1e-10)
    assert results["visibility"] == pytest.approx(0.85, abs=1e-12)
    config.nu = 0.05
    run_scenario(config)
    assert inputs == [(1, "H"), (2, "H")] * 2


# Every expansion reads the gate through ``gate_constants``, once: the ancilla
# photon's H column and an H and a V photon's in mode 1, three in all.
@pytest.mark.parametrize("scenario", ["w3", "w4", "scaling"])
def test_every_expansion_reads_three_gate_columns_once(monkeypatch, scenario):
    inputs = count_gate_runs(monkeypatch)
    config = (load_config(CONFIG_DIR / "scaling.json") if scenario == "scaling"
              else ExperimentConfig(scenario=scenario, exact=True))
    results = run_scenario(config)["results"]
    assert sorted(inputs) == [(1, "H"), (1, "V"), (2, "H")]
    if scenario != "scaling":
        return
    for row in results["rows"][:8]:
        rho, probability = expanded_w(row["n"])
        assert probability == pytest.approx(row["analytic"], abs=1e-10)
        assert row["simulated"] == pytest.approx(probability, abs=1e-12)
        assert row["fidelity"] == pytest.approx(
            fidelity(rho, w_state_qubits(row["n"] + 2)), abs=1e-12
        )


# Each non-finite value on its own, and two texts that also set gamma, which
# hom does not read: the parse rejects that field before any value is checked.
NON_FINITE_TEXTS = [
    ('{"scenario": "hom", "nu": 0.03, "gamma": 0.0, "coherence_length_um": Infinity}',
     "does not read: ['gamma']"),
    ('{"scenario": "hom", "nu": 0.03, "gamma": 0.0, "delays_um": [NaN, 0.0]}',
     "does not read: ['gamma']"),
    ('{"scenario": "hom", "coherence_length_um": Infinity}', "coherence_length_um must"),
    ('{"scenario": "hom", "delays_um": [NaN, 0.0]}', "delays_um must"),
    ('{"scenario": "hom", "nu": 1e999}', "nu must"),
    ('{"scenario": "hom", "visibility_target": -Infinity}', "visibility_target must"),
    ('{"scenario": "hom", "visibility_target": null, "overlap": NaN}', "overlap must"),
    ('{"scenario": "w4", "gamma": NaN}', "gamma must"),
    ('{"scenario": "w3", "seed": 1, "flux_per_setting": Infinity}',
     "flux_per_setting must"),
    ('{"scenario": "w3", "seed": NaN}', "seed has invalid type"),
    ('{"scenario": "w3", "seed": 1, "n_resamples": Infinity}',
     "n_resamples has invalid type"),
    ('{"scenario": "w3", "exact": true, "seed": -Infinity}', "seed has invalid type"),
]


@pytest.mark.parametrize(
    "text, message", NON_FINITE_TEXTS, ids=[text for text, _ in NON_FINITE_TEXTS]
)
def test_non_finite_config_numbers_rejected(tmp_path, capsys, text, message):
    # Python's parser takes NaN, Infinity and 1e999; each fails its field's
    # type or domain in validate, as it would from code.
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(text, encoding="utf-8")
    out = tmp_path / "report.json"
    scenario = json.loads(text)["scenario"]
    assert main([scenario, "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1, err
    assert not out.exists()


def test_deeply_nested_config_rejected(tmp_path, capsys):
    # Python's parser recurses per level, so a deep enough file would escape
    # as a RecursionError traceback; it is a config error naming the file.
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text('{"scenario": "hom", "nu": ' + "[" * 100_000 + "]" * 100_000 + "}")
    out = tmp_path / "report.json"
    assert main(["hom", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {cfg_path}: JSON nested too deeply\n"
    assert not out.exists()


def test_report_with_non_finite_number_not_written(tmp_path, monkeypatch):
    # Strict JSON has no NaN or Infinity; the report must not pretend, and
    # an existing file keeps its bytes.
    report = {"scenario": "scaling", "results": {"rows": [float("nan")]}}
    monkeypatch.setattr("wexpand.cli.run_scenario", lambda config: report)
    out = tmp_path / "scaling.json"
    assert main(["scaling", "--out", str(out)]) == 1
    assert not out.exists()
    out.write_bytes(b'{"kept": true}\n')
    assert main(["scaling", "--out", str(out)]) == 1
    assert out.read_bytes() == b'{"kept": true}\n'


def test_shorter_report_over_a_longer_file_leaves_only_its_bytes(
    shipped_outputs, tmp_path
):
    path = tmp_path / "report.json"
    path.write_bytes(b"x" * 100_000)
    inode = path.stat().st_ino
    payload = emit_report(run_scenario(ExperimentConfig("scaling")), path)
    assert len(payload) < 100_000
    assert path.read_bytes() == payload
    assert path.stat().st_ino == inode
    # So do a report and its side output: they hold the bytes of the
    # shipped run, here made with no config file, as the shipped ones hold
    # the defaults.
    runs = [(["hom"], "hom", "_curve.csv"), (["w3", "--exact"], "w3_exact", "_rho.json")]
    for argv, name, side in runs:
        reused = [tmp_path / f"{name}.json", tmp_path / f"{name}{side}"]
        for path in reused:
            path.write_bytes(b"x" * 100_000)
        inodes = [path.stat().st_ino for path in reused]
        assert main([*argv, "--out", str(reused[0])]) == 0
        for path, file in zip(reused, ["report.json", f"report{side}"]):
            assert path.read_bytes() == shipped(shipped_outputs, name, file), file
        assert [path.stat().st_ino for path in reused] == inodes


def test_short_writes_resume_at_the_first_unwritten_byte(tmp_path, monkeypatch):
    path = tmp_path / "report.json"
    path.write_bytes(b"x" * 100_000)
    real_write, sizes = os.write, []

    def short_write(fd, data):
        sizes.append(real_write(fd, data[:7]))
        return sizes[-1]

    monkeypatch.setattr(os, "write", short_write)
    payload = emit_report(run_scenario(ExperimentConfig("scaling")), path)
    monkeypatch.undo()
    assert path.read_bytes() == payload
    assert len(sizes) == -(-len(payload) // 7)


def test_failed_write_raises_and_closes_the_file(tmp_path, monkeypatch):
    def full_disk(fd, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    before = sorted(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "write", full_disk)
    with pytest.raises(OSError) as raised:
        emit_report({}, tmp_path / "report.json")
    monkeypatch.undo()
    assert raised.value.errno == errno.ENOSPC
    assert sorted(os.listdir("/proc/self/fd")) == before


def test_report_through_a_symlink_rewrites_its_target(tmp_path):
    target = tmp_path / "target.json"
    target.write_bytes(b"x" * 100_000)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    payload = emit_report(run_scenario(ExperimentConfig("scaling")), link)
    assert link.is_symlink()
    assert os.readlink(link) == str(target)
    assert target.read_bytes() == payload


def test_report_to_a_device_file():
    # /dev/null is not a regular file; truncating it would fail.
    payload = emit_report(run_scenario(ExperimentConfig("scaling")), os.devnull)
    assert payload


@pytest.mark.parametrize("argv, summary", [
    (["hom"], "  visibility=0.8500"),
    (["w3", "--exact"], "  fidelity=1.0000 witness=-0.3333 (exact mode)"),
    (["w4", "--exact"], "  fidelity=1.0000 witness=-0.2500 (exact mode)"),
], ids=["hom", "w3-exact", "w4-exact"])
def test_report_to_a_device_file_gets_no_side_file(monkeypatch, capsys, argv, summary):
    # Side files are named from the report's path, so beside /dev/null they
    # would land in /dev.  The writer only records here, so that a failing
    # run creates nothing there either.
    written = []
    monkeypatch.setattr(cli, "_overwrite", lambda path, payload: written.append(path))
    assert main([*argv, "--out", os.devnull]) == 0
    assert written == [Path(os.devnull)]
    assert capsys.readouterr().out.splitlines() == [f"report written to {os.devnull}", summary]


# The side files of each scenario that writes any, by suffix to the report's stem.
SIDE_FILES = {"hom": ["_curve.csv"], "w3": ["_rho.json"], "w4": ["_rho.json"]}


def summary_lines(report: dict) -> list[str]:
    """What ``main`` prints after the report's path and side files."""
    results = report["results"]
    if report["scenario"] == "hom":
        return [f"  visibility={results['visibility']:.4f}"]
    if report["scenario"] == "scaling":
        return [f"  N={row['n']}: analytic={row['analytic']:.9f} "
                f"simulated={row['simulated']:.9f} fidelity={row['fidelity']:.9f}"
                for row in results["rows"]]
    tomo = results["tomography"]
    return [f"  fidelity={tomo['fidelity']:.4f} witness={tomo['witness']:.4f} "
            f"({tomo['mode']} mode)"]


@pytest.mark.parametrize("scenario", SCENARIOS)
def test_main_prints_the_report_its_side_files_and_a_summary(tmp_path, capsys, scenario):
    out = tmp_path / "report.json"
    assert main([*SHIPPED_RUNS[scenario], "--out", str(out)]) == 0
    side = [tmp_path / f"report{suffix}" for suffix in SIDE_FILES.get(scenario, [])]
    assert all(path.is_file() for path in side)
    report = json.loads(out.read_bytes())
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"report written to {out}", *(f"  + {path}" for path in side),
                     *summary_lines(report)]
    if scenario == "scaling":
        assert [line.split(":")[0] for line in lines[1:]] == [
            f"  N={n}" for n in SCALING_SIZES]
        # At the shipped overlap 1 the simulated success is the analytic one,
        # so every row prints the two alike.
        for line in lines[1:]:
            fields = dict(field.split("=") for field in line.split()[1:])
            assert fields["analytic"] == fields["simulated"], line


def test_new_report_gets_the_mode_bits_of_write_bytes(tmp_path):
    before = os.umask(0o002)
    try:
        (tmp_path / "plain.json").write_bytes(b"{}\n")
        emit_report({}, tmp_path / "report.json")
    finally:
        os.umask(before)
    modes = [(tmp_path / name).stat().st_mode for name in ("plain.json", "report.json")]
    assert modes[0] == modes[1]


def _stdlib_text(tree):
    return json.dumps(tree, indent=2, sort_keys=True, allow_nan=False)


def _writer_text(tree):
    chunks = []
    _write_json(tree, chunks.append, "\n")
    return "".join(chunks)


JSON_STRINGS = st.text(
    st.characters() | st.sampled_from('"\\/\b\n\t\x00\x1f\x7f\u2028'), max_size=6
)
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([2**64, -(10**40), 7**99]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 1.7976931348623157e308]),
    JSON_STRINGS,
)


def _json_trees(depth):
    """Plain trees nested up to ``depth`` containers, empty ones included."""
    if depth == 0:
        return JSON_LEAVES
    kids = _json_trees(depth - 1)
    return st.one_of(
        JSON_LEAVES,
        st.lists(kids, max_size=3),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(JSON_STRINGS, kids, max_size=3),
    )


@st.composite
def _trees_holding(draw, bad):
    """A plain tree with one value drawn from ``bad`` at depth 0 to 4."""
    node = draw(bad)
    for _ in range(draw(st.integers(0, 4))):
        siblings = draw(st.lists(JSON_LEAVES, max_size=2))
        if draw(st.booleans()):
            keys = draw(st.lists(JSON_STRINGS, min_size=len(siblings) + 1, unique=True))
            node = {**dict(zip(keys, siblings)), keys[-1]: node}
        else:
            node = [*siblings, node] if draw(st.booleans()) else (node, *siblings)
    return node


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_json_trees(4))
def test_report_writer_gives_the_stdlib_text(tree):
    assert _writer_text(tree) == _stdlib_text(tree)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_trees_holding(st.sampled_from([float("nan"), float("inf"), float("-inf")])))
def test_report_writer_rejects_non_finite_numbers(tree):
    with pytest.raises(ValueError):
        _writer_text(tree)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_trees_holding(st.sampled_from([np.float64(0.5), {1, 2}, {1: "a"}, {"a": 1, 2: "b"}])))
def test_report_writer_rejects_values_that_are_not_plain(tree):
    with pytest.raises(TypeError):
        _writer_text(tree)


def test_hom_visibility_is_the_model_dip_without_zero_delay():
    # The reported visibility is the calibrated dip's, -b xi0^2 / a, not a
    # read-off of a grid that may miss zero delay.
    config = ExperimentConfig(
        scenario="hom",
        nu=0.03,
        visibility_target=0.85,
        delays_um=[-100.0, 100.0],
    )
    results = run_scenario(config)["results"]
    assert [d for d, _ in results["points"]] == config.delays_um
    assert results["visibility"] == pytest.approx(0.85, abs=1e-10)
    assert results["dip_minimum"] == min(p for _, p in results["points"])


def test_main_rejects_mismatched_scenario(tmp_path, capsys):
    cfg_path = write_config(tmp_path, scenario="scaling")
    assert main(["w3", "--config", str(cfg_path)]) == 1
    assert "scenario" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config",
    [ExperimentConfig("w3", seed=5, n_resamples=2),
     ExperimentConfig("w4", seed=5, n_resamples=2),
     ExperimentConfig("w3", seed=42, n_resamples=0)],
    ids=["w3", "w4", "w3-no-resamples"],
)
def test_bootstrap_keys_mirror_the_statistics(config):
    # Each error bar sits at the key of the value it belongs to, pairs
    # keyed by mode id, in the pair-source block of w4 too; a run without
    # resamples has neither error bars nor their fits.
    results = run_scenario(config)["results"]
    blocks = [results["tomography"]]
    if config.scenario == "w4":
        blocks.append(results["pair_source"]["tomography"])
    for tomo in blocks:
        if config.n_resamples == 0:
            assert tomo["bootstrap"] is None and tomo["bootstrap_fits"] is None
            continue
        errors = tomo["bootstrap"]
        assert errors.keys() == {"fidelity", "witness", "pairwise_eof"}
        assert errors["pairwise_eof"].keys() == tomo["pairwise_eof"].keys()
        assert all(value >= 0 for value in errors["pairwise_eof"].values())

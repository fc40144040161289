import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wexpand
from wexpand import fock, gates, sources
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
from wexpand.entanglement import concurrence, fidelity, witness_value
from wexpand.fock import mode
from wexpand.gates import run_gate

from helpers import expand_w_full_photonic, expanded_w, partial_trace

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


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


def test_missing_seed_on_sampling_scenario_rejected(tmp_path):
    # The file may leave the seed to --seed, so the check is made when the
    # scenario runs.
    seedless = load_config(write_config(tmp_path, scenario="w3", n_resamples=0))
    with pytest.raises(ValueError, match="seed"):
        run_scenario(seedless)
    # exact mode needs no seed
    exact = load_config(write_config(tmp_path, scenario="w3", exact=True))
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


def test_every_value_field_has_a_domain():
    from wexpand.cli import _DOMAINS

    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(_DOMAINS) == fields - {"scenario", "exact"}
    assert {name for name, _ in OUT_OF_DOMAIN} == set(_DOMAINS)
    # Some scenario reads every field.
    assert set(IN_DOMAIN) == set().union(*SCENARIO_FIELDS.values())
    assert set(IN_DOMAIN) == fields - {"scenario"}


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
    for bad in ({"nu": "0.3"}, {"nu": True}, {"nu": None}, {"delays_um": ["a"]}):
        with pytest.raises(ValueError, match="invalid type"):
            load_config(write_config(tmp_path, scenario="hom", **bad))
    for bad in ({"n_resamples": 2.5}, {"exact": 1}, {"gamma": "0.1"}):
        with pytest.raises(ValueError, match="invalid type"):
            load_config(write_config(tmp_path, scenario="w4", seed=1, **bad))
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


def test_repo_fixture_configs_load():
    w3 = load_config(CONFIG_DIR / "w3.json")
    assert w3.flux_per_setting == 104.0
    assert w3.seed is not None
    hom = load_config(CONFIG_DIR / "hom.json")
    assert hom.nu == 0.03
    assert hom.visibility_target == 0.85
    load_config(CONFIG_DIR / "w4.json")
    load_config(CONFIG_DIR / "scaling.json")


def test_scaling_report_rows():
    report = run_scenario(ExperimentConfig(scenario="scaling"))
    rows = report["results"]["rows"]
    assert [row["n"] for row in rows] == list(SCALING_SIZES)
    assert rows[0]["analytic"] == pytest.approx(0.1875)
    assert rows[1]["analytic"] == pytest.approx(0.125)
    for row in rows:
        n = row["n"]
        assert row["simulated"] == pytest.approx(row["analytic"], abs=1e-10)
        assert row["fidelity"] >= 1 - 1e-10
        assert row["witness"] == pytest.approx(-1 / (n + 2), abs=1e-10)
        classes = row["pair_concurrence"]
        assert (classes["untouched_untouched"] is None) == (n < 3)
        assert (classes["untouched_new"] is None) == (n < 2)
        for value in classes.values():
            assert value is None or value == pytest.approx(2 / (n + 2), abs=1e-10)


def test_scaling_rows_at_partial_overlap_match_the_fock_engine():
    rows = run_scenario(ExperimentConfig(scenario="scaling", overlap=0.926))[
        "results"
    ]["rows"]
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


def test_w3_exact_scenario_quality():
    report = run_scenario(ExperimentConfig(scenario="w3", exact=True))
    tomo = report["results"]["tomography"]
    assert tomo["mode"] == "exact"
    assert tomo["settings"] == 64
    assert tomo["fidelity"] >= 0.999
    assert tomo["stop_reason"] == "certificate"
    assert tomo["converged"] is True
    assert tomo["bootstrap"] is None and tomo["bootstrap_fits"] is None
    assert tomo["witness"] <= -0.33
    assert report["results"]["postselection"]["probability"] == pytest.approx(
        3 / 16, abs=1e-10
    )
    assert set(tomo["pairwise_eof"]) == {"45", "46", "56"}


def test_w4_exact_scenario_quality():
    report = run_scenario(ExperimentConfig(scenario="w4", exact=True, gamma=0.05))
    pair = report["results"]["pair_source"]
    assert pair["fidelity_w2"] == pytest.approx(1.0, abs=1e-9)
    assert pair["eof"] == pytest.approx(1.0, abs=1e-9)
    tomo = report["results"]["tomography"]
    assert tomo["fidelity"] >= 0.999
    assert tomo["witness"] <= -0.24
    assert tomo["stop_reason"] == "certificate"
    assert pair["tomography"]["stop_reason"] == "certificate"
    assert set(tomo["pairwise_eof"]) == {"04", "05", "06", "45", "46", "56"}
    post = report["results"]["postselection"]
    assert post["probability_given_pair"] == pytest.approx(1 / 8, abs=1e-10)


def test_fidelity_decreases_with_overlap_and_coherences_vanish():
    from wexpand.fock import postselect_qubits, single_photon
    from wexpand.gates import MODE_INPUT, OUTPUT_MODES, w_state_qubits
    from helpers import through_gate
    from wexpand.entanglement import fidelity

    photon = single_photon(MODE_INPUT, "V")
    fidelities = []
    for overlap in (1.0, 0.9, 0.8):
        rho, _ = postselect_qubits(through_gate(photon, overlap), OUTPUT_MODES)
        fidelities.append(fidelity(rho, w_state_qubits(3)))
    assert fidelities[0] > fidelities[1] > fidelities[2]

    rho, _ = postselect_qubits(through_gate(photon, 0.0), OUTPUT_MODES)
    off_diagonal = rho.matrix - np.diag(np.diag(rho.matrix))
    assert np.max(np.abs(off_diagonal)) < 1e-12


def test_sampled_report_deterministic(tmp_path):
    config = ExperimentConfig(
        scenario="w3", seed=42, flux_per_setting=104.0, n_resamples=0
    )
    report_a = run_scenario(config)
    report_b = run_scenario(config)
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    assert emit_report(report_a, path_a) == emit_report(report_b, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()


def test_report_does_not_depend_on_the_output_path(tmp_path):
    cfg_path = write_config(tmp_path, scenario="w3", seed=7, n_resamples=2)
    paths = [tmp_path / "first.json", tmp_path / "sub" / "second.json"]
    paths[1].parent.mkdir()
    for path in paths:
        assert main(["w3", "--config", str(cfg_path), "--out", str(path)]) == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_report_embeds_hash_and_version():
    config = ExperimentConfig(scenario="scaling")
    report = run_scenario(config)
    assert report["config_sha256"] == config_sha256(config)
    assert report["tool"]["name"] == "wexpand"
    assert report["schema_version"] == 9
    assert "reference_values" in report
    assert report["config"] == config_to_dict(config) == {"scenario": "scaling", "overlap": 1.0}


def test_reference_values_are_annotations():
    from wexpand.cli import REFERENCE_EXPERIMENT

    refs = REFERENCE_EXPERIMENT["w3"]
    assert refs["fidelity"]["value"] == 0.836
    assert refs["witness"]["error"] == 0.042
    assert REFERENCE_EXPERIMENT["w4"]["fidelity"]["value"] == 0.784
    assert REFERENCE_EXPERIMENT["w4"]["pair_eof_alternate"]["value"] == 0.95
    report = run_scenario(ExperimentConfig(scenario="scaling"))
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


def test_main_scaling_and_outputs(tmp_path):
    out = tmp_path / "scaling.json"
    assert main(["scaling", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert len(report["results"]["rows"]) == len(SCALING_SIZES)


def run_module(*args, **env) -> subprocess.CompletedProcess:
    """``python -m wexpand.cli`` with ``args`` in a new process, with this
    checkout's sources first on the path and ``env`` added."""
    src = str(Path(wexpand.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_module_entry_point_runs_without_runtime_warning(tmp_path):
    # runpy warns when the package __init__ has already imported the module
    # it is asked to run as __main__.
    done = run_module(
        "-W", "error::RuntimeWarning", "-m", "wexpand.cli",
        "scaling", "--out", str(tmp_path / "scaling.json"),
    )
    assert done.returncode == 0, done.stderr


def test_hom_report_does_not_depend_on_the_hash_seed(tmp_path):
    # Sets of mode labels iterate in an order that PYTHONHASHSEED picks; the
    # dip sums its labels in sorted order, so no byte may depend on it.
    for hash_seed in ("1", "2"):
        done = run_module(
            "-m", "wexpand.cli", "hom", "--config", str(CONFIG_DIR / "hom.json"),
            "--out", str(tmp_path / f"hom_{hash_seed}.json"),
            PYTHONHASHSEED=hash_seed,
        )
        assert done.returncode == 0, done.stderr
    for suffix in (".json", "_curve.csv"):
        first, second = (tmp_path / f"hom_{k}{suffix}" for k in "12")
        assert first.read_bytes() == second.read_bytes(), suffix


def test_main_w3_exact_writes_density_matrix(tmp_path):
    out = tmp_path / "w3.json"
    assert main(["w3", "--exact", "--out", str(out)]) == 0
    rho_doc = json.loads((tmp_path / "w3_rho.json").read_text())
    assert rho_doc["dim"] == 8
    assert rho_doc["qubit_order"] == [4, 5, 6]


@pytest.mark.parametrize("scenario", ["w3", "w4"])
def test_exact_report_does_not_depend_on_seed_or_resamples(tmp_path, scenario):
    # An exact run samples nothing, so its config block and hash leave out
    # seed and n_resamples, and setting them changes no byte.
    outs = [tmp_path / "plain.json", tmp_path / "seeded.json"]
    assert main([scenario, "--exact", "--out", str(outs[0])]) == 0
    assert main([scenario, "--exact", "--seed", "5", "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert (tmp_path / "plain_rho.json").read_bytes() == (
        tmp_path / "seeded_rho.json"
    ).read_bytes()
    config = json.loads(outs[0].read_text())["config"]
    assert set(config) == {"scenario", *SCENARIO_FIELDS[scenario]} - {
        "seed",
        "n_resamples",
    }
    resampled = ExperimentConfig(scenario, exact=True, seed=5, n_resamples=7)
    assert config_sha256(resampled) == config_sha256(ExperimentConfig(scenario, exact=True))


def test_dip_table_does_not_depend_on_the_hash_seed():
    # The gate's one-photon outputs sum to the same bits in any order, so
    # the hom report alone cannot show an order that follows the hash seed;
    # a table over more labels with random amplitudes does.
    script = (
        "import numpy as np\n"
        "from wexpand.fock import POLARIZATIONS, TEMPORAL_BINS, mode\n"
        "from wexpand.sources import _dip_table\n"
        "rng = np.random.default_rng(3)\n"
        "labels = [mode(m, p, b) for m in range(8) for p in POLARIZATIONS\n"
        "          for b in TEMPORAL_BINS]\n"
        "u, v = ({lab: complex(*rng.normal(size=2)) for lab in labels} for _ in 'uv')\n"
        "print(repr(_dip_table(u, v, 4)))\n"
    )
    tables = [run_module("-c", script, PYTHONHASHSEED=k) for k in ("1", "2")]
    assert all(done.returncode == 0 for done in tables), tables[0].stderr
    assert tables[0].stdout == tables[1].stdout


@pytest.mark.parametrize("scenario", ["w3", "w4"])
def test_exact_run_skips_the_domains_of_what_it_does_not_read(
    tmp_path, capsys, scenario
):
    # A seed of -1 and a single resample lie outside their domains.  An
    # exact run reads neither, so it runs and writes the plain exact bytes;
    # a sampled run reads both, so it rejects each.
    resampled = write_config(tmp_path, scenario=scenario, exact=True, n_resamples=1)
    runs = {
        "plain": [scenario, "--exact"],
        "negative_seed": [scenario, "--exact", "--seed", "-1"],
        "one_resample": [scenario, "--config", str(resampled)],
    }
    for name, argv in runs.items():
        assert main([*argv, "--out", str(tmp_path / f"{name}.json")]) == 0, name
    for suffix in (".json", "_rho.json"):
        plain = (tmp_path / f"plain{suffix}").read_bytes()
        for name in ("negative_seed", "one_resample"):
            assert (tmp_path / f"{name}{suffix}").read_bytes() == plain, name
    sampled = write_config(tmp_path, scenario=scenario, seed=1, n_resamples=1)
    for argv, message in [
        ([scenario, "--seed", "-1"], "seed must be null or nonnegative"),
        ([scenario, "--config", str(sampled)], "n_resamples must be 0 or at least 2"),
    ]:
        out = tmp_path / "sampled.json"
        assert main([*argv, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "flux, cause", [(0.001, "drew no count"), (1e25, "lam value too large")]
)
def test_degenerate_flux_is_named(tmp_path, capsys, flux, cause):
    # Counts from a flux too small to draw any, or too large for the Poisson
    # sampler, fail naming the config field and its value.
    cfg_path = write_config(
        tmp_path, scenario="w3", seed=1, n_resamples=2, flux_per_setting=flux
    )
    out = tmp_path / "report.json"
    assert main(["w3", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert f"flux_per_setting {flux!r}" in err
    assert cause in err
    assert not out.exists()


def test_pair_source_without_pairs_is_named(tmp_path, capsys):
    # At gamma 0 the pair source emits no pair, so w4 has nothing to expand.
    cfg_path = write_config(tmp_path, scenario="w4", gamma=0.0, exact=True)
    out = tmp_path / "report.json"
    assert main(["w4", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "gamma" in capsys.readouterr().err
    assert not out.exists()


def test_no_scenario_builds_a_fock_state(monkeypatch, tmp_path):
    # Every scenario reads the gate's one-photon images; the Fock engine is
    # the tests' oracle only.
    def refuse(self, *args, **kwargs):
        raise AssertionError("a scenario built a Fock state")

    monkeypatch.setattr(fock.PhotonicState, "__init__", refuse)
    overlap = write_config(tmp_path, scenario="scaling", overlap=0.926)
    runs = [[s, "--config", str(CONFIG_DIR / f"{s}.json")] for s in SCENARIOS]
    runs += [["scaling", "--config", str(overlap)], ["w3", "--exact"], ["w4", "--exact"]]
    for i, argv in enumerate(runs):
        assert main(argv + ["--out", str(tmp_path / f"{i}.json")]) == 0


def test_main_hom_writes_curve(tmp_path):
    cfg_path = write_config(
        tmp_path,
        scenario="hom",
        nu=0.03,
        delays_um=[-100.0, 0.0, 100.0],
        visibility_target=0.85,
    )
    out = tmp_path / "hom_report.json"
    assert main(["hom", "--config", str(cfg_path), "--out", str(out)]) == 0
    csv_lines = (tmp_path / "hom_report_curve.csv").read_text().splitlines()
    assert csv_lines[0] == "delay_um,coincidence_probability"
    assert len(csv_lines) == 4
    report = json.loads(out.read_text())
    assert report["results"]["visibility"] == pytest.approx(0.85, abs=1e-6)


def test_shipped_hom_scenario_takes_two_gate_runs(monkeypatch):
    # The dip is a photon-number mixture of terms affine in xi^2, and the
    # gate's images of one photon from each input give every term, so each
    # scenario reads two one-photon images; nothing is kept between
    # scenarios.
    labels = []

    def counted(label):
        labels.append(label)
        return run_gate(label)

    monkeypatch.setattr(sources, "run_gate", counted)
    config = load_config(CONFIG_DIR / "hom.json")
    results = run_scenario(config)["results"]
    assert labels == [mode(1, "H"), mode(2, "H")]
    assert results["overlap_used"] == pytest.approx(0.9262800541764591, abs=1e-10)
    assert results["visibility"] == pytest.approx(0.85, abs=1e-12)
    config.nu = 0.05
    run_scenario(config)
    assert labels == [mode(1, "H"), mode(2, "H")] * 2


def count_gate_runs(monkeypatch) -> list:
    """Patch the gate to record the input label of each one-photon image."""
    labels = []

    def counted(label):
        labels.append(label)
        return run_gate(label)

    monkeypatch.setattr(gates, "run_gate", counted)
    return labels


# The delayed ancilla photon enters mode 2 in both temporal bins.
ANCILLA_IMAGES = [mode(2, "H"), mode(2, "H", "o")]


def test_shipped_scaling_scenario_reads_four_gate_images(monkeypatch):
    # Every row expands W_N through the same images: the ancilla photon's,
    # and an H and a V photon's in mode 1, so the scenario reads four in all.
    labels = count_gate_runs(monkeypatch)
    rows = run_scenario(load_config(CONFIG_DIR / "scaling.json"))["results"]["rows"]
    assert sorted(labels) == sorted(ANCILLA_IMAGES + [mode(1, "H"), mode(1, "V")])
    for row in rows[:8]:
        rho, probability = expanded_w(row["n"])
        assert row["simulated"] == pytest.approx(probability, abs=1e-12)
        assert row["fidelity"] == pytest.approx(
            fidelity(rho, gates.w_state_qubits(row["n"] + 2)), abs=1e-12
        )


def test_w3_and_w4_expand_through_one_photon_runs(monkeypatch):
    # Besides the ancilla photon, w3 reads only its V photon's image; w4
    # adds an H photon's, for the untouched qubit of its pair.
    labels = count_gate_runs(monkeypatch)
    run_scenario(ExperimentConfig(scenario="w3", exact=True))
    assert sorted(labels) == sorted(ANCILLA_IMAGES + [mode(1, "V")])
    labels.clear()
    run_scenario(ExperimentConfig(scenario="w4", exact=True))
    assert sorted(labels) == sorted(ANCILLA_IMAGES + [mode(1, "H"), mode(1, "V")])


@pytest.mark.parametrize(
    "text",
    [
        '{"scenario": "hom", "nu": 0.03, "gamma": 0.0, '
        '"coherence_length_um": Infinity}',
        '{"scenario": "hom", "nu": 0.03, "gamma": 0.0, "delays_um": [NaN, 0.0]}',
        '{"scenario": "hom", "nu": 1e999}',
        '{"scenario": "hom", "visibility_target": -Infinity}',
        '{"scenario": "w4", "gamma": NaN}',
    ],
)
def test_non_finite_config_numbers_rejected(tmp_path, capsys, text):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(text, encoding="utf-8")
    out = tmp_path / "report.json"
    scenario = json.loads(text)["scenario"]
    assert main([scenario, "--config", str(cfg_path), "--out", str(out)]) == 1
    assert "non-finite" in capsys.readouterr().err
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


def test_shorter_report_over_a_longer_file_leaves_only_its_bytes(tmp_path):
    path = tmp_path / "report.json"
    path.write_bytes(b"x" * 100_000)
    inode = path.stat().st_ino
    payload = emit_report(run_scenario(ExperimentConfig("scaling")), path)
    assert len(payload) < 100_000
    assert path.read_bytes() == payload
    assert path.stat().st_ino == inode


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


def test_new_report_gets_the_mode_bits_of_write_bytes(tmp_path):
    before = os.umask(0o002)
    try:
        (tmp_path / "plain.json").write_bytes(b"{}\n")
        emit_report({}, tmp_path / "report.json")
    finally:
        os.umask(before)
    modes = [(tmp_path / name).stat().st_mode for name in ("plain.json", "report.json")]
    assert modes[0] == modes[1]


def test_outputs_over_longer_files_equal_fresh_ones(tmp_path):
    # Every output file goes through one in-place writer, which must cut
    # off what a longer earlier file leaves behind.
    for argv, side in [(["hom"], "_curve.csv"), (["w3", "--exact"], "_rho.json")]:
        fresh, reused = (tmp_path / f"{argv[0]}_{k}.json" for k in ("fresh", "reused"))
        for suffix in (".json", side):
            reused.with_name(reused.stem + suffix).write_bytes(b"x" * 100_000)
        for out in (fresh, reused):
            assert main(argv + ["--out", str(out)]) == 0
        for suffix in (".json", side):
            got, want = (p.with_name(p.stem + suffix) for p in (reused, fresh))
            assert got.read_bytes() == want.read_bytes(), suffix


def _non_plain_leaves(node, where=""):
    """Paths of the leaves of a report dict that are not exactly a float,
    int, str, bool or None (a numpy scalar is not)."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _non_plain_leaves(value, f"{where}/{key}")
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _non_plain_leaves(value, f"{where}/{index}")
    elif type(node) not in (float, int, str, bool, type(None)):
        yield where, type(node).__name__


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_report_leaves_are_plain_python_values(path):
    config = load_config(path)
    if config.scenario in ("w3", "w4"):
        config.n_resamples = 2
    assert list(_non_plain_leaves(run_scenario(config))) == []


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


def _config_for(name):
    if name == "scaling-overlap":
        return ExperimentConfig("scaling", overlap=0.926)
    if name.endswith("-exact"):
        return ExperimentConfig(name[:2], exact=True)
    config = load_config(CONFIG_DIR / f"{name}.json")
    if config.scenario in ("w3", "w4"):
        config.n_resamples = 2
    return config


@pytest.mark.parametrize(
    "name",
    [p.stem for p in sorted(CONFIG_DIR.glob("*.json"))]
    + ["w3-exact", "w4-exact", "scaling-overlap"],
)
def test_report_bytes_are_those_of_the_stdlib_encoder(name):
    report = run_scenario(_config_for(name))
    assert emit_report(report, os.devnull) == (_stdlib_text(report) + "\n").encode()


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
    assert results["visibility"] == pytest.approx(0.85, abs=1e-10)
    assert results["dip_minimum"] == min(p for _, p in results["points"])


def test_main_rejects_mismatched_scenario(tmp_path, capsys):
    cfg_path = write_config(tmp_path, scenario="scaling")
    assert main(["w3", "--config", str(cfg_path)]) == 1
    assert "scenario" in capsys.readouterr().err


def test_main_missing_seed_fails(tmp_path, capsys):
    assert main(["w3", "--out", str(tmp_path / "x.json")]) == 1
    assert "seed" in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["w3", "w4"])
def test_bootstrap_keys_mirror_the_statistics(scenario):
    # Each error bar sits at the key of the value it belongs to, pairs
    # keyed by mode id, in the pair-source block of w4 too.
    results = run_scenario(
        ExperimentConfig(scenario=scenario, seed=5, n_resamples=2)
    )["results"]
    blocks = [results["tomography"]]
    if scenario == "w4":
        blocks.append(results["pair_source"]["tomography"])
    for tomo in blocks:
        errors = tomo["bootstrap"]
        assert errors.keys() == {"fidelity", "witness", "pairwise_eof"}
        assert errors["pairwise_eof"].keys() == tomo["pairwise_eof"].keys()
        assert all(value >= 0 for value in errors["pairwise_eof"].values())


def test_sampled_report_summarizes_bootstrap_fits():
    report = run_scenario(
        ExperimentConfig(scenario="w3", seed=42, flux_per_setting=104.0, n_resamples=3)
    )
    tomo = report["results"]["tomography"]
    assert tomo["stop_reason"] in ("certificate", "max_iter")
    assert tomo["converged"] == (tomo["stop_reason"] == "certificate")
    assert tomo["certificate"] >= 0.0
    fits = tomo["bootstrap_fits"]
    assert 0 <= fits["unconverged"] <= 3
    assert fits["iterations_p50"] <= fits["iterations_p90"] <= fits["iterations_max"]
    assert 0 <= fits["newton_steps_max"] <= fits["iterations_max"]
    assert 0 <= tomo["newton_steps"] <= tomo["iterations"]

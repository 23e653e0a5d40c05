import csv
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dpsfit import resampling
from dpsfit.cli import main
from dpsfit.curves import CurveParams, LogisticKind
from dpsfit.metrics import wilcoxon_signed_rank
from dpsfit.synth import SynthBiomarker, SynthSpec, write_synth_spec

VER = LogisticKind.VERHULST


def write_spec(path, noise, n_subjects=18, seed=3, thresholds=(0.5, 3.0)):
    biomarkers = (
        SynthBiomarker("up", CurveParams(kind=VER, a=1.0, d=0.0, b=1.0, c=1.0), noise),
        SynthBiomarker("down", CurveParams(kind=VER, a=0.0, d=2.0, b=0.8, c=2.5), noise),
    )
    spec = SynthSpec(
        biomarkers=biomarkers,
        n_subjects=n_subjects,
        alpha_log_sd=0.1,
        beta_mean=-2.0,
        beta_sd=0.8,
        baseline_age_mean=3.0,
        baseline_age_sd=0.8,
        n_visits=5,
        visit_interval=1.0,
        visit_jitter=0.05,
        dx_thresholds=thresholds,
        seed=seed,
    )
    write_synth_spec(spec, path)


def read_manifest(outdir):
    return json.loads((Path(outdir) / "run_manifest.json").read_text())


def tree_bytes(outdir):
    root = Path(outdir)
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One simulate/split/bootstrap run shared by the downstream tests."""
    root = tmp_path_factory.mktemp("pipeline")
    spec = root / "sim.json"
    write_spec(spec, noise=0.04)
    assert main(["simulate", "--spec", str(spec), "--out", str(root / "sim")]) == 0
    sim = root / "sim"
    assert main([
        "split",
        "--cohort", str(sim / "cohort.csv"),
        "--specs", str(sim / "biomarker_specs.json"),
        "--out", str(root / "split"),
        "--test-fraction", "0.2",
        "--seed", "3",
        "--quiet",
    ]) == 0
    assert main([
        "bootstrap",
        "--cohort", str(root / "split" / "train.csv"),
        "--specs", str(sim / "biomarker_specs.json"),
        "--out", str(root / "ens"),
        "--n", "3",
        "--curve", "verhulst",
        "--loss", "logistic",
        "--l-min", "1",
        "--l-max", "4",
        "--seed", "7",
        "--grid=-4:8:25",
        "--quiet",
    ]) == 0
    return root


# ----------------------------------------------------------------------
# exit codes and manifests
# ----------------------------------------------------------------------

def test_usage_errors_exit_with_one(capsys):
    assert main(["frobnicate"]) == 1
    assert main(["fit"]) == 1                     # missing required flags
    assert main(["simulate", "--nope"]) == 1      # unknown flag
    err = capsys.readouterr().err
    assert "usage" in err


def test_version_flag_exits_cleanly(capsys):
    assert main(["--version"]) == 0
    assert "dpsfit" in capsys.readouterr().out


def test_data_errors_exit_with_two(tmp_path, capsys):
    spec = tmp_path / "sim.json"
    write_spec(spec, noise=0.0, n_subjects=2)
    assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "sim")]) == 0
    code = main([
        "fit",
        "--cohort", str(tmp_path / "sim" / "cohort.csv"),
        "--specs", str(tmp_path / "sim" / "biomarker_specs.json"),
        "--out", str(tmp_path / "fit"),
        "--curve", "verhulst",
        "--quiet",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "dpsfit: error:" in err
    assert "degrees of freedom" in err


def test_failed_validation_solve_names_the_subject(pipeline, tmp_path, capsys):
    with open(pipeline / "split" / "test.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[0]["up"] = "1e308"
    valid = tmp_path / "valid.csv"
    with open(valid, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    with np.errstate(over="ignore"):
        code = main([
            "fit",
            "--cohort", str(pipeline / "split" / "train.csv"),
            "--specs", str(pipeline / "sim" / "biomarker_specs.json"),
            "--valid", str(valid),
            "--out", str(tmp_path / "fit"),
            "--curve", "verhulst",
            "--quiet",
        ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"validation re-estimation, iteration 1, subject {rows[0]['subject_id']!r}" in err


def test_absurd_training_value_exits_with_two(pipeline, tmp_path, capsys):
    with open(pipeline / "split" / "train.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows[0]["up"] = "1e308"
    train = tmp_path / "train.csv"
    with open(train, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([
            "fit",
            "--cohort", str(train),
            "--specs", str(pipeline / "sim" / "biomarker_specs.json"),
            "--valid", str(pipeline / "split" / "test.csv"),
            "--out", str(tmp_path / "fit"),
            "--quiet",
        ])
    assert code == 2
    err = capsys.readouterr().err
    assert "'up'" in err
    assert "RuntimeWarning" not in err
    assert not any(issubclass(w.category, RuntimeWarning) for w in caught)
    assert not (tmp_path / "fit" / "model.json").exists()


def test_malformed_config_exits_with_two(pipeline, tmp_path, capsys):
    config = tmp_path / "broken.json"
    config.write_text('{"l-max": 3,')
    code = main([
        "fit",
        "--cohort", str(pipeline / "split" / "train.csv"),
        "--specs", str(pipeline / "sim" / "biomarker_specs.json"),
        "--out", str(tmp_path / "fit"),
        "--config", str(config),
        "--quiet",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "dpsfit: error:" in err
    assert str(config) in err
    assert not (tmp_path / "fit").exists()


@pytest.mark.parametrize(
    "key, value", [("l-max", "three"), ("curve", "bogus"), ("l-max", True), ("seed", False),
                   ("l-max", 2.9), ("seed", 3.5), ("stop-rtol", "small")]
)
def test_bad_config_value_exits_with_two(pipeline, tmp_path, capsys, key, value):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({key: value}))
    code = main([
        "fit",
        "--cohort", str(pipeline / "split" / "train.csv"),
        "--specs", str(pipeline / "sim" / "biomarker_specs.json"),
        "--out", str(tmp_path / "fit"),
        "--config", str(config),
        "--quiet",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"dpsfit: error: {config}: {key}: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "fit" / "model.json").exists()


@pytest.mark.parametrize("value", [-1, "nan"])
def test_bad_stop_tolerance_in_config_exits_with_two(pipeline, tmp_path, capsys, value):
    # Each passes the flag's type check, and FitConfig rejects it.
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"stop-rtol": value}))
    code = main([
        "fit",
        "--cohort", str(pipeline / "split" / "train.csv"),
        "--specs", str(pipeline / "sim" / "biomarker_specs.json"),
        "--out", str(tmp_path / "fit"),
        "--config", str(config),
        "--quiet",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("dpsfit: error:")
    assert "stop_rtol" in err
    assert "Traceback" not in err
    assert not (tmp_path / "fit").exists()


def test_unknown_config_key_exits_with_two(pipeline, tmp_path, capsys):
    config = tmp_path / "typo.json"
    config.write_text(json.dumps({"tset-fraction": 0.5}))
    code = main([
        "split",
        "--cohort", str(pipeline / "sim" / "cohort.csv"),
        "--specs", str(pipeline / "sim" / "biomarker_specs.json"),
        "--out", str(tmp_path / "split"),
        "--config", str(config),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert f"dpsfit: error: {config}: tset-fraction: " in err
    assert not (tmp_path / "split").exists()


def test_config_file_sets_quiet(pipeline, tmp_path, capsys):
    config = tmp_path / "quiet.json"
    config.write_text(json.dumps({"quiet": True, "l-max": 1, "l-min": 1}))
    assert main([
        "fit",
        "--cohort", str(pipeline / "split" / "train.csv"),
        "--specs", str(pipeline / "sim" / "biomarker_specs.json"),
        "--out", str(tmp_path / "fit"),
        "--config", str(config),
    ]) == 0
    captured = capsys.readouterr()
    assert "iter " not in captured.err
    assert "selected iteration 1 of 1" in captured.out


def test_config_file_sets_svg(pipeline, tmp_path, capsys):
    config = tmp_path / "svg.json"
    argv = [
        "report",
        "--cohort", str(pipeline / "split" / "train.csv"),
        "--test", str(pipeline / "split" / "test.csv"),
        "--specs", str(pipeline / "sim" / "biomarker_specs.json"),
        "--ensemble", str(pipeline / "ens"),
        "--out", str(tmp_path / "rep"),
        "--config", str(config),
    ]
    config.write_text(json.dumps({"svg": "yes", "quiet": True}))
    assert main(argv) == 2  # a switch takes a JSON boolean only
    assert f"dpsfit: error: {config}: svg: " in capsys.readouterr().err
    config.write_text(json.dumps({"svg": True, "quiet": True}))
    assert main(argv) == 0
    assert (tmp_path / "rep" / "trajectories.svg").exists()
    assert read_manifest(tmp_path / "rep")["config"]["svg"] is True


def test_module_invocation_runs_the_cli():
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "dpsfit.cli", "--help"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: dpsfit")


def test_import_leaves_scipy_unloaded():
    # The bootstrap's process pool is imported only when a bootstrap runs.
    src = str(Path(__file__).resolve().parent.parent / "src")
    lazy = ["scipy", "multiprocessing", "concurrent.futures"]
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, dpsfit.cli; print([m for m in {lazy!r} if m in sys.modules])"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))


def _set_sigma(value):
    return lambda p: _edit_json(p, lambda d: d["biomarkers"]["up"].__setitem__("sigma", value))


@pytest.mark.parametrize("target, damage, culprit", [
    ("model_000.json", lambda p: p.write_text('{"curve_kind": "verh'), "model_000.json"),
    ("ensemble.json", lambda p: _edit_json(p, lambda d: d.pop("models")), "ensemble.json"),
    ("ensemble.json", lambda p: p.write_text("[1, 2"), "ensemble.json"),
    ("model_001.json", _set_sigma(0.0), "biomarker 'up'"),
    ("model_001.json", _set_sigma(-1.0), "biomarker 'up'"),
    ("model_001.json", _set_sigma(float("inf")), "biomarker 'up'"),
    ("ensemble.json", lambda p: _edit_json(p, lambda d: d.__setitem__("models", [])),
     "holds no models"),
], ids=["malformed-model", "index-without-models", "malformed-index", "zero-sigma",
        "negative-sigma", "infinite-sigma", "index-with-empty-models"])
def test_bad_model_and_ensemble_files_exit_with_two(pipeline, tmp_path, capsys,
                                                   target, damage, culprit):
    ensemble = tmp_path / "ens"
    ensemble.mkdir()
    for path in (pipeline / "ens").glob("*.json"):
        (ensemble / path.name).write_bytes(path.read_bytes())
    damage(ensemble / target)
    code = main([
        "predict",
        "--cohort", str(pipeline / "split" / "test.csv"),
        "--specs", str(pipeline / "sim" / "biomarker_specs.json"),
        "--ensemble", str(ensemble),
        "--out", str(tmp_path / "pred"),
        "--quiet",
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("dpsfit: error:")
    assert str(ensemble / target) in err
    assert culprit in err


@pytest.mark.parametrize("command", ["order", "report"])
@pytest.mark.parametrize("damage, problem", [
    (lambda d: d["biomarkers"].pop("down"), "no biomarker 'down', which model_000.json declares"),
    (lambda d: d["biomarkers"].__setitem__("sideways", d["biomarkers"]["up"]),
     "biomarker 'sideways', which model_000.json does not declare"),
], ids=["lacks-one", "adds-one"])
def test_ensemble_whose_models_declare_different_biomarkers_exits_with_two(
        pipeline, tmp_path, capsys, command, damage, problem):
    ensemble = tmp_path / "ens"
    ensemble.mkdir()
    for path in (pipeline / "ens").glob("*.json"):
        (ensemble / path.name).write_bytes(path.read_bytes())
    _edit_json(ensemble / "model_001.json", damage)
    inputs = {
        "order": [],
        "report": ["--cohort", str(pipeline / "split" / "train.csv"),
                   "--test", str(pipeline / "split" / "test.csv"),
                   "--specs", str(pipeline / "sim" / "biomarker_specs.json")],
    }[command]
    out = tmp_path / "out"
    code = main([command, *inputs, "--ensemble", str(ensemble), "--out", str(out), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"dpsfit: error: {ensemble / 'model_001.json'}: {problem}\n"
    assert not out.exists()


def test_bad_grid_exits_with_two(pipeline, tmp_path):
    code = main([
        "bootstrap",
        "--cohort", str(pipeline / "split" / "train.csv"),
        "--specs", str(pipeline / "sim" / "biomarker_specs.json"),
        "--out", str(tmp_path / "e"),
        "--n", "1",
        "--grid", "5:1:10",
        "--quiet",
    ])
    assert code == 2


@pytest.mark.parametrize("n", ["0", "-3"])
def test_bootstrap_without_replicates_exits_with_two(pipeline, tmp_path, capsys, n):
    code = main([
        "bootstrap",
        "--cohort", str(pipeline / "split" / "train.csv"),
        "--specs", str(pipeline / "sim" / "biomarker_specs.json"),
        "--out", str(tmp_path / "e"),
        "--n", n,
        "--quiet",
    ])
    assert code == 2
    assert "--n" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


SPECS = "sim/biomarker_specs.json"
TRAIN = "split/train.csv"
TEST = "split/test.csv"
QUICK_FIT = ["--curve", "verhulst", "--l-min", "1", "--l-max", "2", "--quiet"]


PATH_FLAGS = {"--spec", "--cohort", "--specs", "--valid", "--train", "--test", "--model",
              "--config", "--ensemble", "--compare", "--out"}


def _under(root, argv):
    """``argv`` with the value of every path flag made a path under ``root``."""
    return [str(root / a) if flag in PATH_FLAGS else a for flag, a in zip([None] + argv, argv)]


@pytest.mark.parametrize("argv, culprit", [
    (["split", "--cohort", "sim/cohort.csv", "--specs", SPECS, "--seed", "-1"], "seed"),
    (["fit", "--cohort", TRAIN, "--specs", SPECS, "--seed", "-1"], "seed"),
    (["bootstrap", "--cohort", TRAIN, "--specs", SPECS, "--n", "1", "--seed", "-1"], "seed"),
    (["simulate", "--spec", "negative_seed.json"], "seed"),
    (["simulate", "--spec", "sim.json", "--outlier-fraction", "0.1",
      "--outlier-magnitude", "-3"], "magnitude"),
    (["simulate", "--spec", "sim.json", "--outlier-magnitude", "-3"], "--outlier-magnitude"),
    (["simulate", "--spec", "sim.json", "--outlier-magnitude", "nan"], "--outlier-magnitude"),
    (["fit", "--cohort", TRAIN, "--specs", SPECS, "--inner-max-steps", "0"], "inner_max_steps"),
    (["fit", "--cohort", TRAIN, "--specs", SPECS, "--inner-max-steps", "-3"], "inner_max_steps"),
    (["fit", "--cohort", TRAIN, "--specs", SPECS, "--inner-tol", "-1"], "inner_solver_tol"),
    (["fit", "--cohort", TRAIN, "--specs", SPECS, "--inner-tol", "nan"], "inner_solver_tol"),
    (["fit", "--cohort", TRAIN, "--specs", SPECS, "--stop-rtol", "-1"], "stop_rtol"),
    (["fit", "--cohort", TRAIN, "--specs", SPECS, "--stop-rtol", "nan"], "stop_rtol"),
    (["bootstrap", "--cohort", TRAIN, "--specs", SPECS, "--n", "1", "--stop-rtol", "-1"],
     "stop_rtol"),
    (["ingest", "--cohort", "sim/cohort.csv", "--specs", SPECS, "--window-days", "-5"],
     "window_days"),
    (["ingest", "--cohort", "sim/cohort.csv", "--specs", SPECS, "--window-days", "nan"],
     "window_days"),
    (["fit", "--cohort", TRAIN, "--specs", SPECS, "--valid-fraction", "0"], "--valid-fraction"),
    (["bootstrap", "--cohort", TRAIN, "--specs", SPECS, "--n", "1", "--grid=-inf:inf:5"],
     "--grid"),
    (["report", "--cohort", TRAIN, "--test", TEST, "--specs", SPECS, "--ensemble", "ens",
      "--grid", "0:1:100000000000"], "--grid"),
    (["report", "--cohort", TRAIN, "--test", TEST, "--specs", SPECS, "--ensemble", "ens",
      "--grid", "a:b:5"], "--grid"),
], ids=["split-seed", "fit-seed", "bootstrap-seed", "spec-seed", "outlier-magnitude",
        "outlier-magnitude-alone", "outlier-magnitude-nan",
        "inner-max-steps-0", "inner-max-steps-negative", "inner-tol-negative", "inner-tol-nan",
        "stop-rtol-negative", "stop-rtol-nan", "bootstrap-stop-rtol-negative",
        "window-days-negative", "window-days-nan", "valid-fraction", "bootstrap-grid-infinite",
        "report-grid-too-many-points", "report-grid-not-numbers"])
def test_bad_numeric_value_exits_with_two_and_names_it(pipeline, tmp_path, capsys,
                                                       argv, culprit):
    root = pipeline
    if "negative_seed.json" in argv:
        spec = json.loads((pipeline / "sim.json").read_text())
        (tmp_path / "negative_seed.json").write_text(json.dumps({**spec, "seed": -1}))
        root = tmp_path
    code = main(_under(root, argv) + ["--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("dpsfit: error:")
    assert culprit in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, target", [
    (["split", "--cohort", "sim/cohort.csv", "--specs", SPECS], "sim/cohort.csv"),
    (["split", "--cohort", "sim/cohort.csv", "--specs", SPECS], SPECS),
    (["simulate", "--spec", "sim.json"], "sim.json"),
    (["fit", "--cohort", TRAIN, "--specs", SPECS, "--config", "config.json"], "config.json"),
], ids=["cohort", "specs", "simulate-spec", "config"])
def test_file_that_is_not_utf8_exits_with_two_and_names_it(pipeline, tmp_path, capsys,
                                                           argv, target):
    for name in ("sim/cohort.csv", SPECS, "sim.json", TRAIN):
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_bytes((pipeline / name).read_bytes())
    (tmp_path / "config.json").write_text('{"l-max": 2}')
    # As in a Latin-1 export: 0xff is a byte that no UTF-8 text holds.
    with open(tmp_path / target, "ab") as fh:
        fh.write(b"\xff")
    code = main(_under(tmp_path, argv) + ["--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"dpsfit: error: {tmp_path / target}: ")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, line, problem", [
    ("", 1, "missing header (empty file)"),
    ("age,up,down\n70,0.1,1.9\n", 1, "header must contain subject_id and age"),
    ("subject_id,up,down\ns1,0.1,1.9\n", 1, "header must contain subject_id and age"),
    ("subject_id,age,up,down\ns1,70,0.1,1.9\ns1,71,0.2\n", 3, "expected 4 cells, got 3"),
    ("subject_id,age,up,down\ns1,70,0.1,1.9\n ,71,0.2,1.8\n", 3, "empty subject_id"),
    ("subject_id,age,up,down\ns#1,70,0.1,1.9\n", 2, "subject_id may not contain '#'"),
    ("subject_id,age,up,down\ns1,-70,0.1,1.9\n", 2, "age must be a positive number"),
    ("subject_id,visit_date,age,up,down\ns1,2020-13-01,70,0.1,1.9\n", 2,
     "bad visit_date '2020-13-01'"),
    ("subject_id,age,up,down\ns1,70,0.1,1.9\ns1,71,inf,1.8\n", 3,
     "column 'up': non-finite value"),
], ids=["empty-file", "no-subject-id", "no-age", "cell-count", "empty-subject-id",
        "separator-in-subject-id", "negative-age", "bad-visit-date", "infinite-value"])
def test_bad_cohort_file_exits_with_two_and_names_path_and_line(pipeline, tmp_path, capsys,
                                                                text, line, problem):
    cohort = tmp_path / "cohort.csv"
    cohort.write_text(text)
    code = main(["split", "--cohort", str(cohort), "--specs", str(pipeline / SPECS),
                 "--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    assert capsys.readouterr().err == f"dpsfit: error: {cohort}: line {line}: {problem}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, culprit", [
    (["fit", "--cohort", TRAIN, "--specs", SPECS, "--config", "list.json"],
     "list.json: config file must hold a JSON object"),
    (["predict", "--cohort", "other.csv", "--specs", "other_specs.json",
      "--model", "ens/model_000.json"], "other.csv: no predictable measurements"),
], ids=["config-list", "no-shared-biomarker"])
def test_bad_input_file_exits_with_two_and_names_it(pipeline, tmp_path, capsys, argv, culprit):
    for name in (TRAIN, SPECS, "ens/model_000.json"):
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_bytes((pipeline / name).read_bytes())
    (tmp_path / "list.json").write_text('[{"l-max": 2}]')
    (tmp_path / "other_specs.json").write_text('[{"name": "other"}]')
    (tmp_path / "other.csv").write_text("subject_id,age,other\ns1,3.0,0.5\ns1,4.0,0.7\n")
    code = main(_under(tmp_path, argv) + ["--out", str(tmp_path / "out"), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"dpsfit: error: {tmp_path / culprit}")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_run_that_fails_after_reading_its_inputs_leaves_no_output_directory(
        pipeline, tmp_path, capsys):
    code = main(_under(pipeline, ["predict", "--cohort", TEST, "--specs", SPECS,
                                  "--model", "missing.json"])
                + ["--out", str(tmp_path / "out"), "--quiet"])
    assert code == 2
    assert str(pipeline / "missing.json") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.fixture(scope="module")
def protocol_root(pipeline):
    """The pipeline's root plus a fit config file and a second ensemble,
    fitted under the L2 loss, for ``report --compare``."""
    (pipeline / "fit_config.json").write_text(json.dumps({"l-min": 1, "l-max": 2,
                                                          "curve": "verhulst"}))
    assert main(_under(pipeline, [
        "bootstrap", "--cohort", TRAIN, "--specs", SPECS, "--out", "ens_l2", "--n", "3",
        "--loss", "l2", "--seed", "7", *QUICK_FIT,
    ])) == 0
    return pipeline


# Every subcommand, with the input files its flags name.
PROTOCOL_RUNS = {
    "simulate": (["simulate", "--spec", "sim.json"], ["sim.json"]),
    "ingest": (["ingest", "--cohort", "sim/cohort.csv", "--specs", SPECS],
               ["sim/cohort.csv", SPECS]),
    "split": (["split", "--cohort", "sim/cohort.csv", "--specs", SPECS],
              ["sim/cohort.csv", SPECS]),
    "fit": (["fit", "--cohort", TRAIN, "--specs", SPECS, "--valid", TEST, *QUICK_FIT],
            [TRAIN, SPECS, TEST]),
    "fit-config": (["fit", "--cohort", TRAIN, "--specs", SPECS, "--valid", TEST,
                    "--config", "fit_config.json"], [TRAIN, SPECS, TEST, "fit_config.json"]),
    "bootstrap": (["bootstrap", "--cohort", TRAIN, "--specs", SPECS, "--n", "1", *QUICK_FIT],
                  [TRAIN, SPECS]),
    "predict-model": (["predict", "--cohort", TEST, "--specs", SPECS,
                       "--model", "ens/model_000.json"], [TEST, SPECS, "ens/model_000.json"]),
    "predict-ensemble": (["predict", "--cohort", TEST, "--specs", SPECS, "--ensemble", "ens"],
                         [TEST, SPECS, "ens/ensemble.json"]),
    "classify": (["classify", "--cohort", TEST, "--train", TRAIN, "--specs", SPECS,
                  "--ensemble", "ens"], [TEST, TRAIN, SPECS, "ens/ensemble.json"]),
    "order": (["order", "--ensemble", "ens"], ["ens/ensemble.json"]),
    "report": (["report", "--cohort", TRAIN, "--test", TEST, "--specs", SPECS,
                "--ensemble", "ens", "--grid=-4:8:25"],
               [TRAIN, TEST, SPECS, "ens/ensemble.json"]),
    "report-compare": (["report", "--cohort", TRAIN, "--test", TEST, "--specs", SPECS,
                        "--ensemble", "ens", "--compare", "ens_l2", "--grid=-4:8:25"],
                       [TRAIN, TEST, SPECS, "ens/ensemble.json", "ens_l2/ensemble.json"]),
    "report-compare-svg": (["report", "--cohort", TRAIN, "--test", TEST, "--specs", SPECS,
                            "--ensemble", "ens", "--compare", "ens_l2", "--grid=-4:8:25",
                            "--svg"],
                           [TRAIN, TEST, SPECS, "ens/ensemble.json", "ens_l2/ensemble.json"]),
}


@pytest.mark.parametrize("run", sorted(PROTOCOL_RUNS))
def test_manifest_names_the_command_and_every_input_file(protocol_root, tmp_path, run):
    argv, inputs = PROTOCOL_RUNS[run]
    out = tmp_path / "out"
    assert main(_under(protocol_root, argv) + ["--out", str(out), "--quiet"]) == 0
    manifest = read_manifest(out)
    assert manifest["command"] == argv[0]
    assert manifest["inputs"] == {
        str(protocol_root / name): hashlib.sha256((protocol_root / name).read_bytes()).hexdigest()
        for name in inputs
    }


@pytest.mark.parametrize("run", sorted(PROTOCOL_RUNS))
def test_output_directory_holds_the_manifest_and_its_outputs(protocol_root, tmp_path, run):
    argv, _ = PROTOCOL_RUNS[run]
    out = tmp_path / "out"
    assert main(_under(protocol_root, argv) + ["--out", str(out), "--quiet"]) == 0
    outputs = read_manifest(out)["outputs"]
    assert outputs and len(set(outputs)) == len(outputs)
    assert sorted(p.name for p in out.iterdir()) == sorted(outputs + ["run_manifest.json"])


def test_report_compare_pairs_replicates_by_bootstrap_id(protocol_root, tmp_path):
    # Each ensemble without its replicate 1 meets the other, whole: their
    # replicates 0 and 2 must pair, not 0 and 1 by list position.
    def report(ensemble, *compare):
        out = tmp_path / "rep"
        shutil.rmtree(out, ignore_errors=True)
        assert main([
            "report", "--cohort", str(protocol_root / TRAIN), "--test", str(protocol_root / TEST),
            "--specs", str(protocol_root / SPECS), "--ensemble", str(ensemble), *compare,
            "--out", str(out), "--grid=-4:8:25", "--quiet",
        ]) == 0
        return json.loads((out / "report.json").read_text())

    nmae = {name: report(protocol_root / name)["nmae"]["per_model"] for name in ("ens", "ens_l2")}
    for short, whole in (("ens", "ens_l2"), ("ens_l2", "ens")):
        shutil.copytree(protocol_root / short, tmp_path / short)
        index = json.loads((tmp_path / short / "ensemble.json").read_text())
        index["models"].remove("model_001.json")
        (tmp_path / short / "ensemble.json").write_text(json.dumps(index))
        for first, second in ((tmp_path / short, protocol_root / whole),
                              (protocol_root / whole, tmp_path / short)):
            x, y = nmae[first.name], nmae[second.name]
            statistic, p_value = wilcoxon_signed_rank([x[0], x[2]], [y[0], y[2]])
            assert report(first, "--compare", str(second))["comparison"] == {
                "n_pairs": 2,
                "statistic": statistic,
                "p_value": p_value,
                "nmae_mean_other": float(np.mean([y[0], y[2]])),
            }
        shutil.rmtree(tmp_path / short)


def test_report_compare_rejects_a_repeated_bootstrap_id(protocol_root, tmp_path, capsys):
    shutil.copytree(protocol_root / "ens_l2", tmp_path / "ens_l2")
    index = json.loads((tmp_path / "ens_l2" / "ensemble.json").read_text())
    index["models"] = ["model_000.json", "model_000.json"]
    (tmp_path / "ens_l2" / "ensemble.json").write_text(json.dumps(index))
    code = main(_under(protocol_root, [
        "report", "--cohort", TRAIN, "--test", TEST, "--specs", SPECS, "--ensemble", "ens",
    ]) + ["--compare", str(tmp_path / "ens_l2"), "--out", str(tmp_path / "rep"), "--quiet"])
    assert code == 2
    assert f"dpsfit: error: {tmp_path / 'ens_l2'}: models repeat a bootstrap id" in (
        capsys.readouterr().err)


def _with_sparse_subjects(path, out, rows):
    """Copy the cohort CSV at ``path`` to ``out`` and append ``rows``, each
    a ``(subject_id, age, diagnosis, up)`` tuple; ``down`` stays empty."""
    with open(path, newline="") as fh:
        table = list(csv.DictReader(fh))
    for sid, age, diagnosis, up in rows:
        table.append({**table[0], "subject_id": sid, "age": age, "diagnosis": diagnosis,
                      "up": up, "down": ""})
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(table[0]))
        writer.writeheader()
        writer.writerows(table)
    return out


def test_fit_leaves_out_subjects_with_fewer_than_two_points(pipeline, tmp_path):
    train = _with_sparse_subjects(pipeline / TRAIN, tmp_path / "train.csv", [
        ("zz_one", "3.0", "CN", "0.1"), ("zz_one", "4.0", "CN", ""),
        ("zz_none", "3.0", "CN", ""), ("zz_none", "4.0", "CN", ""),
    ])
    valid = _with_sparse_subjects(pipeline / TEST, tmp_path / "valid.csv",
                                  [("zz_valid", "3.5", "MCI", "0.2")])
    common = ["--specs", str(pipeline / SPECS), "--curve", "verhulst",
              "--l-min", "3", "--l-max", "3", "--quiet"]
    assert main(["fit", "--cohort", str(pipeline / TRAIN), "--valid", str(pipeline / TEST),
                 "--out", str(tmp_path / "plain"), *common]) == 0
    with pytest.warns(UserWarning) as record:
        assert main(["fit", "--cohort", str(train), "--valid", str(valid),
                     "--out", str(tmp_path / "sparse"), *common]) == 0
    for name in ("model.json", "trace.csv"):
        assert (tmp_path / "sparse" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
    messages = [str(w.message) for w in record]
    for sid, role in (("zz_one", "training"), ("zz_none", "training"),
                      ("zz_valid", "validation")):
        assert any(f"{role} subject {sid!r}" in m for m in messages), sid


def test_fit_names_each_curve_whose_solve_stops_at_the_step_limit(pipeline, tmp_path):
    with pytest.warns(UserWarning) as record:
        assert main(_under(pipeline, [
            "fit", "--cohort", TRAIN, "--specs", SPECS, "--valid", TEST,
            "--out", "capped", "--inner-max-steps", "1", *QUICK_FIT,
        ])) == 0
    messages = [str(w.message) for w in record if "inner_max_steps" in str(w.message)]
    assert sorted(messages) == [
        f"biomarker {name!r}: curve solve stopped at inner_max_steps (1), first in iteration 1"
        for name in ("down", "up")
    ]


def test_simulate_outputs_and_manifest(pipeline):
    sim = pipeline / "sim"
    for name in ("cohort.csv", "biomarker_specs.json", "truth_model.json"):
        assert (sim / name).exists()
    manifest = read_manifest(sim)
    assert manifest["command"] == "simulate"
    assert sorted(manifest["outputs"]) == [
        "biomarker_specs.json", "cohort.csv", "truth_model.json",
    ]
    assert all(len(h) == 64 for h in manifest["inputs"].values())
    host = platform.uname()
    assert manifest["versions"] == {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": f"{host.system}-{host.release}-{host.machine}",
    }


def test_split_roles_cover_all_subjects(pipeline):
    rows = (pipeline / "split" / "split_manifest.csv").read_text().strip().splitlines()
    assert rows[0] == "subject_id,role"
    roles = dict(line.split(",") for line in rows[1:])
    assert len(roles) == 18
    assert sorted(set(roles.values())) == ["test", "train"]


# ----------------------------------------------------------------------
# the noiseless pipeline recovers its own data
# ----------------------------------------------------------------------

def test_noiseless_fit_predict_round_trip(tmp_path, capsys):
    spec = tmp_path / "sim.json"
    write_spec(spec, noise=0.0, n_subjects=16, seed=11)
    assert main(["simulate", "--spec", str(spec), "--out", str(tmp_path / "sim")]) == 0
    sim = tmp_path / "sim"
    assert main([
        "fit",
        "--cohort", str(sim / "cohort.csv"),
        "--specs", str(sim / "biomarker_specs.json"),
        "--out", str(tmp_path / "fit"),
        "--curve", "verhulst",
        "--loss", "logistic",
        "--l-min", "2",
        "--l-max", "12",
        "--inner-tol", "1e-10",
        "--seed", "0",
        "--quiet",
    ]) == 0
    assert (tmp_path / "fit" / "model.json").exists()
    trace = (tmp_path / "fit" / "trace.csv").read_text().strip().splitlines()
    assert trace[0] == "iteration,E_train,E_valid"
    assert len(trace) == 13

    assert main([
        "predict",
        "--cohort", str(sim / "cohort.csv"),
        "--specs", str(sim / "biomarker_specs.json"),
        "--model", str(tmp_path / "fit" / "model.json"),
        "--out", str(tmp_path / "pred"),
        "--quiet",
    ]) == 0
    metrics = json.loads((tmp_path / "pred" / "metrics.json").read_text())
    assert metrics["nmae"] <= 1e-4
    assert metrics["skipped_subjects"] == []
    lines = (tmp_path / "pred" / "predictions.csv").read_text().strip().splitlines()
    assert lines[0] == "subject_id,visit_index,age,biomarker,actual,predicted"
    assert len(lines) == 1 + 16 * 5 * 2


# ----------------------------------------------------------------------
# bootstrap artifacts
# ----------------------------------------------------------------------

def test_bootstrap_outputs(pipeline):
    ens = pipeline / "ens"
    index = json.loads((ens / "ensemble.json").read_text())
    assert index["models"] == ["model_000.json", "model_001.json", "model_002.json"]
    assert index["failures"] == []
    for b in range(3):
        assert (ens / f"model_{b:03d}.json").exists()
        assert (ens / f"trace_{b:03d}.csv").exists()
        assert (ens / f"inbag_{b:03d}.csv").exists()
        assert (ens / f"curves_{b:03d}.csv").exists()
    table = (ens / "curves_mean.csv").read_text().strip().splitlines()
    assert table[0] == "dps,down,up"
    assert len(table) == 26  # 25 grid points
    manifest = read_manifest(ens)
    assert manifest["config"]["n_bootstraps"] == 3
    assert "threads" not in manifest["config"]


def test_bootstrap_records_where_each_replicate_stopped(pipeline, tmp_path, capsys):
    out = tmp_path / "ens"
    assert main([
        "bootstrap",
        "--cohort", str(pipeline / "split" / "train.csv"),
        "--specs", str(pipeline / "sim" / "biomarker_specs.json"),
        "--out", str(out),
        "--n", "3", "--curve", "verhulst", "--l-min", "1", "--l-max", "20", "--seed", "7",
        "--grid=-4:8:13",
    ]) == 0
    err = capsys.readouterr().err
    replicates = json.loads((out / "ensemble.json").read_text())["replicates"]
    assert [b for b, _, _ in replicates] == [0, 1, 2]
    for b, l_opt, l_stop in replicates:
        with open(out / f"trace_{b:03d}.csv", newline="") as fh:
            assert len(list(csv.DictReader(fh))) == l_stop
        assert 1 <= l_opt <= l_stop <= 20
        assert json.loads((out / f"model_{b:03d}.json").read_text())["provenance"]["l_opt"] == l_opt
        assert f"bootstrap {b:3d}  l_opt={l_opt}  l_stop={l_stop}  " in err
    assert min(l_stop for _, _, l_stop in replicates) < 20
    assert read_manifest(out)["config"]["stop_rtol"] == 1e-4


def test_fit_reports_where_it_stopped(pipeline, tmp_path, capsys):
    argv = [
        "fit",
        "--cohort", str(pipeline / "split" / "train.csv"),
        "--specs", str(pipeline / "sim" / "biomarker_specs.json"),
        "--curve", "verhulst", "--l-min", "1", "--l-max", "20",
    ]
    assert main(argv + ["--out", str(tmp_path / "stop")]) == 0
    stopped = capsys.readouterr()
    assert main(argv + ["--out", str(tmp_path / "full"), "--stop-rtol", "0"]) == 0
    full = capsys.readouterr()
    trace = (tmp_path / "stop" / "trace.csv").read_text().splitlines()
    l_stop = len(trace) - 1
    assert l_stop < 20
    assert f"stopped after iteration {l_stop}:" in stopped.err
    assert f" of {l_stop} (stopped early, l_max 20), " in stopped.out
    assert "stopped after" not in full.err
    assert " of 20, " in full.out
    assert (tmp_path / "full" / "trace.csv").read_text().splitlines()[:l_stop + 1] == trace
    assert read_manifest(tmp_path / "full")["config"]["stop_rtol"] == 0.0


def test_bootstrap_runs_are_byte_identical_across_threads(pipeline, tmp_path, monkeypatch):
    # One usable CPU fits the replicates in this process, two in a pool of
    # forked workers; --threads is ignored either way.
    args = [
        "bootstrap",
        "--cohort", str(pipeline / "split" / "train.csv"),
        "--specs", str(pipeline / "sim" / "biomarker_specs.json"),
        "--n", "2",
        "--curve", "verhulst",
        "--loss", "logistic",
        "--l-min", "1",
        "--l-max", "2",
        "--seed", "9",
        "--grid=-4:8:13",
        "--quiet",
    ]
    out1, out2 = tmp_path / "one", tmp_path / "two"
    monkeypatch.setattr(resampling, "_usable_cpus", lambda: 1)
    assert main(args + ["--out", str(out1), "--threads", "1"]) == 0
    monkeypatch.setattr(resampling, "_usable_cpus", lambda: 2)
    assert main(args + ["--out", str(out2), "--threads", "2"]) == 0
    assert tree_bytes(out1) == tree_bytes(out2)


def test_predict_with_ensemble_reports_spread(pipeline, tmp_path):
    assert main([
        "predict",
        "--cohort", str(pipeline / "split" / "test.csv"),
        "--specs", str(pipeline / "sim" / "biomarker_specs.json"),
        "--ensemble", str(pipeline / "ens"),
        "--out", str(tmp_path / "pred"),
        "--quiet",
    ]) == 0
    metrics = json.loads((tmp_path / "pred" / "metrics.json").read_text())
    assert len(metrics["nmae_per_model"]) == 3
    assert metrics["nmae_sd"] >= 0.0
    assert metrics["nmae"] > 0.0


def test_predict_spread_ignores_skipped_subjects(pipeline, tmp_path):
    # A subject holding an absurd value is skipped; its value must not enter
    # the spread that normalizes the error of the cells that were predicted.
    with open(pipeline / "split" / "test.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    culprit = rows[0][0]
    rows[0][header.index("up")] = "1e308"
    poisoned, clean = tmp_path / "poisoned.csv", tmp_path / "clean.csv"
    for path, kept in ((poisoned, rows), (clean, [r for r in rows if r[0] != culprit])):
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([header] + kept)

    def predict(cohort, out):
        assert main([
            "predict",
            "--cohort", str(cohort),
            "--specs", str(pipeline / "sim" / "biomarker_specs.json"),
            "--model", str(pipeline / "ens" / "model_000.json"),
            "--out", str(out),
            "--quiet",
        ]) == 0
        return json.loads((out / "metrics.json").read_text())

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with_culprit = predict(poisoned, tmp_path / "a")
    # The skip is reported by name, not by a raw numpy overflow warning.
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    without = predict(clean, tmp_path / "b")
    assert culprit in with_culprit["skipped_subjects"]
    assert with_culprit["mae"] == without["mae"]
    assert with_culprit["nmae"] == without["nmae"]


# ----------------------------------------------------------------------
# staging, ordering, reporting
# ----------------------------------------------------------------------

def test_classify_outputs(pipeline, tmp_path):
    assert main([
        "classify",
        "--cohort", str(pipeline / "split" / "test.csv"),
        "--train", str(pipeline / "split" / "train.csv"),
        "--specs", str(pipeline / "sim" / "biomarker_specs.json"),
        "--ensemble", str(pipeline / "ens"),
        "--out", str(tmp_path / "cls"),
        "--quiet",
    ]) == 0
    lines = (tmp_path / "cls" / "classifications.csv").read_text().strip().splitlines()
    header = "subject_id,visit_index,dps,p_cn,p_mci,p_ad,predicted_label,underflow_flag"
    assert lines[0] == header
    assert len(lines) > 1
    for line in lines[1:]:
        cells = line.split(",")
        total = float(cells[3]) + float(cells[4]) + float(cells[5])
        assert total == pytest.approx(1.0, abs=1e-9)
        assert cells[6] in ("CN", "MCI", "AD")
    metrics = json.loads((tmp_path / "cls" / "metrics.json").read_text())
    assert metrics["n_visits"] == len(lines) - 1


def test_order_prints_ranking_and_writes_matrix(pipeline, tmp_path, capsys):
    assert main([
        "order",
        "--ensemble", str(pipeline / "ens"),
        "--out", str(tmp_path / "ord"),
    ]) == 0
    out = capsys.readouterr().out
    assert "1." in out and "2." in out
    lines = (tmp_path / "ord" / "ordering_matrix.csv").read_text().strip().splitlines()
    assert lines[0] == "biomarker,rank_1,rank_2"
    for line in lines[1:]:
        row = [float(x) for x in line.split(",")[1:]]
        assert sum(row) == pytest.approx(1.0, abs=1e-12)
    # the early biomarker should lead the timeline in every replicate
    assert lines[1].split(",")[0] == "up"


def test_report_with_comparison(pipeline, tmp_path):
    assert main([
        "bootstrap",
        "--cohort", str(pipeline / "split" / "train.csv"),
        "--specs", str(pipeline / "sim" / "biomarker_specs.json"),
        "--out", str(tmp_path / "ens_l2"),
        "--n", "3",
        "--curve", "verhulst",
        "--loss", "l2",
        "--l-min", "1",
        "--l-max", "4",
        "--seed", "7",
        "--grid=-4:8:25",
        "--quiet",
    ]) == 0
    assert main([
        "report",
        "--cohort", str(pipeline / "split" / "train.csv"),
        "--test", str(pipeline / "split" / "test.csv"),
        "--specs", str(pipeline / "sim" / "biomarker_specs.json"),
        "--ensemble", str(pipeline / "ens"),
        "--compare", str(tmp_path / "ens_l2"),
        "--out", str(tmp_path / "rep"),
        "--grid=-4:8:25",
        "--svg",
        "--quiet",
    ]) == 0
    report = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert report["n_models"] == 3
    assert report["bic"]["mean"] is not None
    assert report["nmae"]["mean"] > 0.0
    assert len(report["nmae"]["per_model"]) == 3
    assert report["comparison"]["n_pairs"] == 3
    assert 0.0 < report["comparison"]["p_value"] <= 1.0
    for name in ("curves_mean.csv", "curves_normalized_mean.csv",
                 "inflection_points.csv", "trajectories.svg"):
        assert (Path(tmp_path) / "rep" / name).exists()


def test_ingest_cleans_raw_table(tmp_path, capsys):
    raw = tmp_path / "raw.csv"
    raw.write_text(
        "subject_id,age,diagnosis,icv,up,down\n"
        "s1,70.0,CN,1.0,0.10,1.90\n"
        "s1,71.0,MCI,1.0,0.30,1.50\n"
        "s1,72.0,CN,1.0,0.50,1.20\n"   # reverting label
        "s1,73.0,AD,1.0,0.70,0.80\n"
        "s2,70.0,CN,1.0,9.99,1.80\n"   # out-of-range value
        "s2,71.5,CN,1.0,0.20,1.70\n"
        "s3,70.0,CN,1.0,0.15,\n"       # sparse subject: one visit
    )
    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps([
        {"name": "up", "range": [0.0, 1.0], "constraint_policy": "free",
         "direction_hint": "increasing"},
        {"name": "down", "range": [0.0, 2.0], "constraint_policy": "free",
         "direction_hint": "decreasing"},
    ]))
    assert main([
        "ingest",
        "--cohort", str(raw),
        "--specs", str(specs),
        "--out", str(tmp_path / "clean"),
        "--quiet",
    ]) == 0
    out = capsys.readouterr().out
    assert "values rejected" in out
    report = (tmp_path / "clean" / "rejection_report.csv").read_text()
    assert "up,out_of_range,1" in report
    clean = (tmp_path / "clean" / "clean_cohort.csv").read_text()
    assert "9.99" not in clean
    assert "s3" not in clean  # single-visit subject dropped


def test_ingest_adjusts_volumetric_biomarkers(tmp_path):
    # Two cohort tags, each with three CN subjects and one AD subject of
    # two visits; the volume tracks head size.
    rows = ["subject_id,age,diagnosis,cohort_tag,icv,vol,up"]
    for tag, scale in (("a", 1.0), ("b", 1.3)):
        for i, (dx, icv) in enumerate([("CN", 1.0), ("CN", 1.2), ("CN", 1.4), ("AD", 1.1)]):
            for age in (70.0, 71.0):
                vol = scale * (0.5 * icv + 0.01 * i) - (0.05 if dx == "AD" else 0.0)
                rows.append(f"{tag}{i},{age},{dx},{tag},{icv},{vol},{0.1 * i + age - 70.0}")
    raw = tmp_path / "raw.csv"
    raw.write_text("\n".join(rows) + "\n")
    specs = tmp_path / "specs.json"
    specs.write_text(json.dumps([{"name": "vol"}, {"name": "up"}]))
    assert main(["ingest", "--cohort", str(raw), "--specs", str(specs),
                 "--out", str(tmp_path / "clean"), "--volumetric", "vol", "--quiet"]) == 0
    assert read_manifest(tmp_path / "clean")["config"]["volumetric"] == ["vol"]
    with open(tmp_path / "clean" / "clean_cohort.csv", newline="") as fh:
        clean = list(csv.DictReader(fh))
    assert len(clean) == 16
    for tag in ("a", "b"):
        vol = np.array([float(r["vol"]) for r in clean if r["cohort_tag"] == tag])
        assert abs(vol.mean()) < 1e-12
        assert abs(vol.std() - 1.0) < 1e-12
        # The AD subject sits below the controls once head size is removed.
        ad = [float(r["vol"]) for r in clean if r["subject_id"] == f"{tag}3"]
        assert max(ad) < min(v for v in vol if v not in ad)
    assert [r["up"] for r in clean[:2]] == ["0.0", "1.0"]


def test_config_file_fills_unset_flags(pipeline, tmp_path):
    config = tmp_path / "defaults.json"
    config.write_text(json.dumps({"l-max": 3, "l-min": 1, "curve": "verhulst",
                                  "seed": 5, "loss": "logistic"}))
    assert main([
        "fit",
        "--cohort", str(pipeline / "split" / "train.csv"),
        "--specs", str(pipeline / "sim" / "biomarker_specs.json"),
        "--out", str(tmp_path / "fit"),
        "--config", str(config),
        "--l-min", "2",         # explicit flag wins over the config file
        "--quiet",
    ]) == 0
    manifest = read_manifest(tmp_path / "fit")
    assert manifest["config"]["l_max"] == 3
    assert manifest["config"]["l_min"] == 2
    assert manifest["config"]["curve_kind"] == "verhulst"


def test_simulate_with_outliers(tmp_path):
    spec = tmp_path / "sim.json"
    write_spec(spec, noise=0.02, n_subjects=10)
    assert main([
        "simulate", "--spec", str(spec), "--out", str(tmp_path / "clean"),
    ]) == 0
    assert main([
        "simulate", "--spec", str(spec), "--out", str(tmp_path / "dirty"),
        "--outlier-fraction", "0.2",
    ]) == 0
    clean = (tmp_path / "clean" / "cohort.csv").read_text()
    dirty = (tmp_path / "dirty" / "cohort.csv").read_text()
    assert clean != dirty
    assert read_manifest(tmp_path / "dirty")["config"]["outlier_fraction"] == 0.2
    assert read_manifest(tmp_path / "dirty")["config"]["outlier_magnitude"] == 5.0
    assert main([
        "simulate", "--spec", str(spec), "--out", str(tmp_path / "wide"),
        "--outlier-fraction", "0.2", "--outlier-magnitude", "20",
    ]) == 0
    assert read_manifest(tmp_path / "wide")["config"]["outlier_magnitude"] == 20.0
    assert (tmp_path / "wide" / "cohort.csv").read_text() != dirty

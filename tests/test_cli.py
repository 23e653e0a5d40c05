import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dpsfit.cli import main
from dpsfit.curves import CurveParams, LogisticKind
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
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, dpsfit.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
], ids=["malformed-model", "index-without-models", "malformed-index", "zero-sigma",
        "negative-sigma", "infinite-sigma"])
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


def test_bootstrap_runs_are_byte_identical_across_threads(pipeline, tmp_path):
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
    assert main(args + ["--out", str(out1), "--threads", "1"]) == 0
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

"""Command line driver.

Subcommands cover the full pipeline: ``simulate`` makes synthetic cohorts,
``ingest`` cleans raw visit tables, ``split`` holds out a stratified test
set, ``fit`` trains one model, ``bootstrap`` trains an ensemble,
``predict`` scores held-out measurements, ``classify`` stages visits,
``order`` summarizes biomarker orderings and ``report`` gathers metrics
and plot data.

Every run writes ``run_manifest.json`` into its output directory: the
command, the effective configuration, SHA-256 hashes of the inputs and the
list of files produced.  Numeric outputs are byte-identical across reruns
with the same inputs and seed; the thread count only changes how work is
scheduled, so it is not part of the manifest.

Exit codes: 0 on success, 1 for usage errors, 2 for data or fitting
errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys
import warnings

import numpy as np

from . import __version__
from .cohort import (
    Cohort,
    Diagnosis,
    ancova_residuals,
    drop_sparse_subjects,
    load_biomarker_specs,
    match_visits,
    parse_cohort_csv,
    reject_out_of_range,
    remove_reverting_diagnoses,
    write_biomarker_specs,
    write_cohort_csv,
)
from .curves import LogisticKind, evaluate
from .errors import DpsFitError, MetricError, SchemaError, StagingError
from .fitter import FitConfig, fit
from .metrics import bic, mae, multiclass_auc, nmae, wilcoxon_signed_rank
from .progression import (
    FittedModel,
    estimate_subjects,
    load_model,
    save_model,
)
from .resampling import (
    BootstrapEnsemble,
    aggregate_curves,
    ordering_matrix,
    partition_train_test,
    run_bootstraps,
)
from .robust_loss import LossKind
from .staging import (
    StagingClassifier,
    collect_class_scores,
    fit_classifier,
    kde_eval,
    stage_subjects,
)
from .svg import write_line_chart
from .synth import generate, inject_outliers, load_synth_spec

__all__ = ["main", "entrypoint"]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage failures exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _default_threads() -> int:
    env = os.environ.get("DPSFIT_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(outdir, command: str, config: dict, inputs: list, outputs: list[str]) -> None:
    manifest = {
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": sorted(outputs),
        "version": __version__,
    }
    with open(os.path.join(outdir, "run_manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _apply_config_file(args: argparse.Namespace) -> None:
    """Fill unset flags from the JSON config file, if one was given."""
    path = getattr(args, "config", None)
    if not path:
        return
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DpsFitError(f"{path}: config file is not valid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise DpsFitError(f"{path}: config file must hold a JSON object")
    for key, value in data.items():
        attr = key.replace("-", "_")
        if hasattr(args, attr) and getattr(args, attr) is None:
            setattr(args, attr, value)


def _resolve(args, name, fallback):
    value = getattr(args, name, None)
    return fallback if value is None else value


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise DpsFitError(f"bad grid {text!r}, expected lo:hi:n") from None
    if not lo < hi or n < 2:
        raise DpsFitError(f"bad grid {text!r}, need lo < hi and n >= 2")
    return np.linspace(lo, hi, n)


def _load_inputs(args) -> Cohort:
    specs = load_biomarker_specs(args.specs)
    return parse_cohort_csv(args.cohort, specs)


def _write_json(path, data) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_curve_table(path, grid: np.ndarray, columns: dict[str, np.ndarray]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        names = sorted(columns)
        writer.writerow(["dps"] + names)
        for i, s in enumerate(grid):
            writer.writerow([repr(float(s))] + [repr(float(columns[n][i])) for n in names])


# ----------------------------------------------------------------------
# ensemble persistence
# ----------------------------------------------------------------------

def _save_ensemble(ensemble: BootstrapEnsemble, outdir) -> list[str]:
    outputs = []
    model_files = []
    for model, trace in zip(ensemble.models, ensemble.traces):
        b = model.provenance["bootstrap_id"]
        model_file = f"model_{b:03d}.json"
        save_model(model, os.path.join(outdir, model_file))
        model_files.append(model_file)
        trace_file = f"trace_{b:03d}.csv"
        trace.to_csv(os.path.join(outdir, trace_file))
        outputs += [model_file, trace_file]
    for in_bag, model in zip(ensemble.in_bag_counts, ensemble.models):
        b = model.provenance["bootstrap_id"]
        bag_file = f"inbag_{b:03d}.csv"
        with open(os.path.join(outdir, bag_file), "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["subject_id", "count_in_bag"])
            for sid in sorted(in_bag):
                writer.writerow([sid, in_bag[sid]])
        outputs.append(bag_file)
    index = {
        "n_requested": ensemble.n_requested,
        "seed": ensemble.seed,
        "models": model_files,
        "failures": [[b, msg] for b, msg in ensemble.failures],
        "oob_subjects": [sorted(oob) for oob in ensemble.oob_subjects],
    }
    _write_json(os.path.join(outdir, "ensemble.json"), index)
    outputs.append("ensemble.json")
    return outputs


def _load_ensemble(path) -> BootstrapEnsemble:
    index_path = os.path.join(path, "ensemble.json")
    try:
        with open(index_path) as fh:
            index = json.load(fh)
        ensemble = BootstrapEnsemble(
            models=[load_model(os.path.join(path, name)) for name in index["models"]],
            traces=[],
            oob_subjects=[set(s) for s in index.get("oob_subjects", [])],
            in_bag_counts=[],
            failures=[(int(b), str(m)) for b, m in index.get("failures", [])],
            n_requested=int(index.get("n_requested", len(index["models"]))),
            seed=int(index.get("seed", 0)),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{index_path}: malformed ensemble index ({exc!r})") from exc
    if not ensemble.models:
        raise DpsFitError(f"{path}: ensemble holds no models")
    return ensemble


# ----------------------------------------------------------------------
# prediction and staging helpers shared by several commands
# ----------------------------------------------------------------------

def _predict_models(models, cohort: Cohort, estimates):
    """Predict every measured cell of a cohort under each model, from the
    model's :func:`estimate_subjects` result.

    Returns the rows of each model, each row a
    ``(subject_id, visit_index, age, biomarker, actual, predicted)`` tuple
    in subject order; the NMAE of each model that predicted any cell; and
    the ``(subject_id, reason)`` pairs of the subjects a model skipped.
    """
    records = sorted(cohort.iter_records(), key=lambda r: r.subject_id)
    sd_map = _biomarker_sds(records)
    per_model_rows, per_model_nmae, skipped = [], [], []
    for model, (params, failures) in zip(models, estimates):
        cells = [r for r in records if r.subject_id in params and r.biomarker in model.curves]
        sps = [params[r.subject_id] for r in cells]
        scores = np.array([sp.alpha * r.age + sp.beta for sp, r in zip(sps, cells)])
        names = np.array([r.biomarker for r in cells], dtype=str)
        predicted = np.empty(len(cells))
        for name, p in model.curves.items():
            mask = names == name
            predicted[mask] = evaluate(p, scores[mask])
        rows = [
            (r.subject_id, r.visit_index, r.age, r.biomarker, r.value, float(f))
            for r, f in zip(cells, predicted)
        ]
        per_model_rows.append(rows)
        if rows:
            per_model_nmae.append(_mae_nmae_from_rows(rows, sd_map)[1])
        skipped += [(sid, str(exc)) for sid, exc in failures.items()]
    return per_model_rows, per_model_nmae, skipped


def _biomarker_sds(records) -> dict[str, float]:
    values: dict[str, list[float]] = {}
    for r in records:
        values.setdefault(r.biomarker, []).append(r.value)
    return {name: float(np.std(v, ddof=1)) if len(v) > 1 else 0.0 for name, v in values.items()}


def _mae_nmae_from_rows(rows, sd_map: dict[str, float]):
    actual: dict[str, list[float]] = {}
    predicted: dict[str, list[float]] = {}
    for _, _, _, name, a, p in rows:
        actual.setdefault(name, []).append(a)
        predicted.setdefault(name, []).append(p)
    mae_map = mae(actual, predicted)
    return mae_map, nmae(mae_map, sd_map)


def _build_members(ensemble: BootstrapEnsemble, train: Cohort):
    """Pair each ensemble model with a staging classifier built from its
    own training scores; also returns the indices of the paired models."""
    members: list[tuple[FittedModel, StagingClassifier]] = []
    kept: list[int] = []
    for m, model in enumerate(ensemble.models):
        scores = collect_class_scores(model, train)
        try:
            members.append((model, fit_classifier(scores)))
            kept.append(m)
        except StagingError:
            pass
    if not members:
        raise StagingError("no ensemble member yields a usable classifier")
    dropped = len(ensemble.models) - len(kept)
    if dropped:
        warnings.warn(f"{dropped} ensemble members lack a usable classifier")
    return members, kept


def _stage_cohort(members, cohort: Cohort, estimates):
    """Fuse ensemble posteriors for every subject of a cohort, given each
    member's subject estimates."""
    visits: dict[str, dict] = {}
    for v in cohort.visits:
        visits.setdefault(v.subject_id, {})[v.visit_index] = v
    staged_by_subject, failures = stage_subjects(
        members,
        estimates,
        {sid: [(ix, visits[sid][ix].age) for ix in sorted(visits[sid])] for sid in sorted(visits)},
    )
    staged = [visit for sid in sorted(staged_by_subject) for visit in staged_by_subject[sid]]
    truths = [visits[v.subject_id][v.visit_index].diagnosis for v in staged]
    return staged, truths, [(sid, str(exc)) for sid, exc in failures.items()]


def _write_mean_curves(outdir, grid: np.ndarray, aggregates) -> list[str]:
    """Write the ensemble's mean and normalized-mean curve tables."""
    outputs = []
    for file_name, field in (("curves_mean.csv", "mean"),
                             ("curves_normalized_mean.csv", "normalized_mean")):
        _write_curve_table(
            os.path.join(outdir, file_name),
            grid,
            {name: getattr(agg, field) for name, agg in aggregates.items()},
        )
        outputs.append(file_name)
    return outputs


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    spec = load_synth_spec(args.spec)
    cohort, truth = generate(spec)
    if args.outlier_fraction:
        cohort, _ = inject_outliers(
            cohort,
            fraction=args.outlier_fraction,
            magnitude=_resolve(args, "outlier_magnitude", 5.0),
            seed=spec.seed,
        )
    os.makedirs(args.out, exist_ok=True)
    write_cohort_csv(cohort, os.path.join(args.out, "cohort.csv"))
    write_biomarker_specs(cohort.specs, os.path.join(args.out, "biomarker_specs.json"))
    save_model(truth, os.path.join(args.out, "truth_model.json"))
    _write_manifest(
        args.out,
        "simulate",
        {"spec": str(args.spec), "outlier_fraction": args.outlier_fraction or 0.0},
        [args.spec],
        ["cohort.csv", "biomarker_specs.json", "truth_model.json"],
    )
    return 0


def _cmd_ingest(args) -> int:
    cohort = _load_inputs(args)
    window = _resolve(args, "window_days", 92.0)
    cohort, report = reject_out_of_range(cohort)
    cohort = remove_reverting_diagnoses(cohort)
    cohort = match_visits(cohort, window_days=float(window))
    cohort = drop_sparse_subjects(cohort)
    volumetric = [v for v in (args.volumetric or "").split(",") if v]
    if volumetric:
        cohort = ancova_residuals(cohort, volumetric)
    os.makedirs(args.out, exist_ok=True)
    write_cohort_csv(cohort, os.path.join(args.out, "clean_cohort.csv"))
    report.to_csv(os.path.join(args.out, "rejection_report.csv"))
    _write_manifest(
        args.out,
        "ingest",
        {"window_days": float(window), "volumetric": volumetric},
        [args.cohort, args.specs],
        ["clean_cohort.csv", "rejection_report.csv"],
    )
    print(f"{len(cohort.subject_ids())} subjects, "
          f"{cohort.n_measurements()} measurements, "
          f"{report.total()} values rejected")
    return 0


def _cmd_split(args) -> int:
    cohort = _load_inputs(args)
    seed = int(_resolve(args, "seed", 0))
    fraction = float(_resolve(args, "test_fraction", 0.2))
    train, test = partition_train_test(cohort, test_fraction=fraction, seed=seed)
    os.makedirs(args.out, exist_ok=True)
    write_cohort_csv(train, os.path.join(args.out, "train.csv"))
    write_cohort_csv(test, os.path.join(args.out, "test.csv"))
    test_ids = set(test.subject_ids())
    with open(os.path.join(args.out, "split_manifest.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "role"])
        for sid in cohort.subject_ids():
            writer.writerow([sid, "test" if sid in test_ids else "train"])
    _write_manifest(
        args.out,
        "split",
        {"test_fraction": fraction, "seed": seed},
        [args.cohort, args.specs],
        ["train.csv", "test.csv", "split_manifest.csv"],
    )
    print(f"train {len(train.subject_ids())} subjects / test {len(test_ids)} subjects")
    return 0


def _fit_config_from_args(args) -> FitConfig:
    return FitConfig(
        curve_kind=LogisticKind(_resolve(args, "curve", "modified_stannard")),
        loss_kind=LossKind(_resolve(args, "loss", "logistic")),
        l_min=int(_resolve(args, "l_min", 10)),
        l_max=int(_resolve(args, "l_max", 50)),
        inner_solver_tol=float(_resolve(args, "inner_tol", 1e-8)),
        inner_max_steps=int(_resolve(args, "inner_max_steps", 200)),
        seed=int(_resolve(args, "seed", 0)),
    )


def _config_dict(config: FitConfig) -> dict:
    data = dataclasses.asdict(config)
    data["curve_kind"] = config.curve_kind.value
    data["loss_kind"] = config.loss_kind.value
    return data


def _cmd_fit(args) -> int:
    cohort = _load_inputs(args)
    config = _fit_config_from_args(args)
    inputs = [args.cohort, args.specs]
    if args.valid:
        train = cohort
        valid = parse_cohort_csv(args.valid, cohort.specs)
        inputs.append(args.valid)
    else:
        fraction = float(_resolve(args, "valid_fraction", 0.2))
        train, valid = partition_train_test(
            cohort, test_fraction=fraction, seed=config.seed
        )
    model, trace = fit(train, valid, config, progress=not args.quiet)
    os.makedirs(args.out, exist_ok=True)
    save_model(model, os.path.join(args.out, "model.json"))
    trace.to_csv(os.path.join(args.out, "trace.csv"))
    _write_manifest(
        args.out, "fit", _config_dict(config), inputs, ["model.json", "trace.csv"]
    )
    print(f"selected iteration {trace.l_opt} of {config.l_max}, "
          f"E_valid={trace.e_valid[trace.l_opt - 1]:.6e}")
    return 0


def _cmd_bootstrap(args) -> int:
    cohort = _load_inputs(args)
    config = _fit_config_from_args(args)
    n = int(_resolve(args, "n", 100))
    threads = int(_resolve(args, "threads", _default_threads()))
    grid = _parse_grid(_resolve(args, "grid", "-10:10:201"))
    ensemble = run_bootstraps(
        cohort, config, n_bootstraps=n, threads=threads, progress=not args.quiet
    )
    os.makedirs(args.out, exist_ok=True)
    outputs = _save_ensemble(ensemble, args.out)

    ordering = ordering_matrix(ensemble)
    ordering.to_csv(os.path.join(args.out, "ordering_matrix.csv"))
    outputs.append("ordering_matrix.csv")

    names = ensemble.biomarker_names()
    aggregates = {name: aggregate_curves(ensemble, name, grid) for name in names}
    outputs += _write_mean_curves(args.out, grid, aggregates)
    for m, model in enumerate(ensemble.models):
        b = model.provenance["bootstrap_id"]
        file_name = f"curves_{b:03d}.csv"
        _write_curve_table(
            os.path.join(args.out, file_name),
            grid,
            {name: aggregates[name].values[m] for name in names},
        )
        outputs.append(file_name)

    config_data = _config_dict(config)
    config_data["n_bootstraps"] = n
    config_data["grid"] = _resolve(args, "grid", "-10:10:201")
    _write_manifest(args.out, "bootstrap", config_data, [args.cohort, args.specs], outputs)
    print(f"{len(ensemble.models)} of {n} bootstraps succeeded")
    return 0


def _cmd_predict(args) -> int:
    cohort = _load_inputs(args)
    os.makedirs(args.out, exist_ok=True)
    inputs = [args.cohort, args.specs]
    if args.model:
        models = [load_model(args.model)]
        inputs.append(args.model)
    else:
        ensemble = _load_ensemble(args.ensemble)
        models = ensemble.models
        inputs.append(os.path.join(args.ensemble, "ensemble.json"))

    per_model_rows, per_model_nmae, skipped_all = _predict_models(
        models, cohort, [estimate_subjects(model, cohort) for model in models]
    )
    if not all(per_model_rows):
        raise DpsFitError("no predictable measurements in the cohort")

    # Cells predictable by every model, fused by averaging.
    keys = set.intersection(*(
        {row[:4] for row in rows} for rows in per_model_rows
    ))
    fused: dict = {}
    for rows in per_model_rows:
        for row in rows:
            if row[:4] in keys:
                fused.setdefault(row[:4], []).append((row[4], row[5]))
    fused_rows = [
        key + (pairs[0][0], float(np.mean([p for _, p in pairs])))
        for key, pairs in sorted(fused.items())
    ]
    mae_map, nmae_value = _mae_nmae_from_rows(fused_rows, _biomarker_sds(cohort.iter_records()))

    with open(os.path.join(args.out, "predictions.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["subject_id", "visit_index", "age", "biomarker", "actual", "predicted"])
        for sid, ix, age, name, actual, predicted in fused_rows:
            writer.writerow([sid, ix, repr(float(age)), name,
                             repr(float(actual)), repr(float(predicted))])

    metrics_data = {
        "mae": mae_map,
        "nmae": nmae_value,
        "nmae_per_model": per_model_nmae,
        "nmae_mean": float(np.mean(per_model_nmae)),
        "nmae_sd": float(np.std(per_model_nmae, ddof=1)) if len(per_model_nmae) > 1 else 0.0,
        "skipped_subjects": sorted({s for s, _ in skipped_all}),
    }
    _write_json(os.path.join(args.out, "metrics.json"), metrics_data)
    _write_manifest(
        args.out,
        "predict",
        {"model": args.model, "ensemble": args.ensemble},
        inputs,
        ["predictions.csv", "metrics.json"],
    )
    print(f"NMAE {nmae_value:.4f} over {len(fused_rows)} measurements")
    return 0


def _cmd_classify(args) -> int:
    test = _load_inputs(args)
    specs = test.specs
    train = parse_cohort_csv(args.train, specs)
    ensemble = _load_ensemble(args.ensemble)
    members, _ = _build_members(ensemble, train)
    estimates = [estimate_subjects(model, test) for model, _ in members]
    staged, truths, skipped = _stage_cohort(members, test, estimates)
    if not staged:
        raise StagingError("no test visit could be staged")

    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "classifications.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "subject_id", "visit_index", "dps",
            "p_cn", "p_mci", "p_ad", "predicted_label", "underflow_flag",
        ])
        for visit in staged:
            writer.writerow([
                visit.subject_id,
                visit.visit_index,
                repr(float(visit.dps)),
                repr(float(visit.probabilities.get(Diagnosis.CN, 0.0))),
                repr(float(visit.probabilities.get(Diagnosis.MCI, 0.0))),
                repr(float(visit.probabilities.get(Diagnosis.AD, 0.0))),
                visit.predicted.value,
                int(visit.underflow),
            ])

    try:
        auc = multiclass_auc([v.probabilities for v in staged], truths)
    except MetricError:
        auc = None
    metrics_data = {
        "auc": auc,
        "n_visits": len(staged),
        "n_underflow": sum(1 for v in staged if v.underflow),
        "skipped_subjects": sorted({s for s, _ in skipped}),
    }
    _write_json(os.path.join(args.out, "metrics.json"), metrics_data)
    _write_manifest(
        args.out,
        "classify",
        {"ensemble": args.ensemble},
        [args.cohort, args.train, args.specs, os.path.join(args.ensemble, "ensemble.json")],
        ["classifications.csv", "metrics.json"],
    )
    print(f"staged {len(staged)} visits"
          + (f", AUC {auc:.4f}" if auc is not None else ", AUC undefined"))
    return 0


def _cmd_order(args) -> int:
    ensemble = _load_ensemble(args.ensemble)
    ordering = ordering_matrix(ensemble)
    os.makedirs(args.out, exist_ok=True)
    ordering.to_csv(os.path.join(args.out, "ordering_matrix.csv"))
    _write_manifest(
        args.out,
        "order",
        {"ensemble": args.ensemble},
        [os.path.join(args.ensemble, "ensemble.json")],
        ["ordering_matrix.csv"],
    )
    for i, name in enumerate(ordering.biomarkers):
        mean_rank = float(ordering.matrix[i] @ np.arange(len(ordering.biomarkers)))
        print(f"{i + 1:2d}. {name}  (mean rank {mean_rank + 1:.2f})")
    return 0


def _cmd_report(args) -> int:
    train = _load_inputs(args)
    test = parse_cohort_csv(args.test, train.specs)
    ensemble = _load_ensemble(args.ensemble)
    grid = _parse_grid(_resolve(args, "grid", "-10:10:201"))
    os.makedirs(args.out, exist_ok=True)
    outputs = []

    bic_values = []
    for model in ensemble.models:
        prov = model.provenance
        if all(k in prov for k in ("e_train_opt", "q_params", "n_measurements")):
            bic_values.append(
                bic(prov["e_train_opt"], prov["q_params"], prov["n_measurements"])
            )

    # One estimate per model serves both prediction and staging.
    estimates = [estimate_subjects(model, test) for model in ensemble.models]
    per_model_nmae = _predict_models(ensemble.models, test, estimates)[1]

    auc = None
    staging_note = None
    try:
        members, kept = _build_members(ensemble, train)
        staged, truths, _ = _stage_cohort(members, test, [estimates[m] for m in kept])
        if staged:
            auc = multiclass_auc([v.probabilities for v in staged], truths)
    except (StagingError, MetricError) as exc:
        staging_note = str(exc)
        members = []

    comparison = None
    if args.compare:
        other = _load_ensemble(args.compare)
        other_estimates = [estimate_subjects(model, test) for model in other.models]
        other_nmae = _predict_models(other.models, test, other_estimates)[1]
        n = min(len(per_model_nmae), len(other_nmae))
        if n < 1:
            raise MetricError("nothing to compare: one ensemble has no scored models")
        statistic, p_value = wilcoxon_signed_rank(per_model_nmae[:n], other_nmae[:n])
        comparison = {
            "n_pairs": n,
            "statistic": statistic,
            "p_value": p_value,
            "nmae_mean_other": float(np.mean(other_nmae[:n])),
        }

    names = ensemble.biomarker_names()
    aggregates = {name: aggregate_curves(ensemble, name, grid) for name in names}
    outputs += _write_mean_curves(args.out, grid, aggregates)

    with open(os.path.join(args.out, "inflection_points.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["biomarker", "bootstrap_id", "inflection"])
        for model in ensemble.models:
            b = model.provenance.get("bootstrap_id")
            for name in names:
                writer.writerow([name, b, repr(float(model.curves[name].c))])
    outputs.append("inflection_points.csv")

    if members:
        likelihoods = {
            label.value.lower(): np.zeros(grid.size)
            for label in members[0][1].classes()
        }
        for _, classifier in members:
            for label in classifier.classes():
                likelihoods[label.value.lower()] += kde_eval(
                    classifier.densities[label], grid
                )
        for key in likelihoods:
            likelihoods[key] /= len(members)
        _write_curve_table(os.path.join(args.out, "likelihoods.csv"), grid, likelihoods)
        outputs.append("likelihoods.csv")

    report = {
        "n_models": len(ensemble.models),
        "bic": {
            "per_model": bic_values,
            "mean": float(np.mean(bic_values)) if bic_values else None,
            "sd": float(np.std(bic_values, ddof=1)) if len(bic_values) > 1 else None,
        },
        "nmae": {
            "per_model": per_model_nmae,
            "mean": float(np.mean(per_model_nmae)) if per_model_nmae else None,
            "sd": float(np.std(per_model_nmae, ddof=1)) if len(per_model_nmae) > 1 else None,
        },
        "auc": auc,
        "staging_note": staging_note,
        "comparison": comparison,
    }
    _write_json(os.path.join(args.out, "report.json"), report)
    outputs.append("report.json")

    if args.svg:
        write_line_chart(
            os.path.join(args.out, "trajectories.svg"),
            grid,
            {name: aggregates[name].normalized_mean for name in names},
            title="Normalized biomarker trajectories",
            xlabel="DPS",
            ylabel="normalized value",
        )
        outputs.append("trajectories.svg")
        if members:
            write_line_chart(
                os.path.join(args.out, "likelihoods.svg"),
                grid,
                likelihoods,
                title="Class-conditional score likelihoods",
                xlabel="DPS",
                ylabel="density",
            )
            outputs.append("likelihoods.svg")

    _write_manifest(
        args.out,
        "report",
        {"ensemble": args.ensemble, "compare": args.compare,
         "grid": _resolve(args, "grid", "-10:10:201"), "svg": bool(args.svg)},
        [args.cohort, args.test, args.specs,
         os.path.join(args.ensemble, "ensemble.json")],
        outputs,
    )
    if report["nmae"]["mean"] is not None:
        print(f"NMAE {report['nmae']['mean']:.4f}"
              + (f", AUC {auc:.4f}" if auc is not None else ""))
    return 0


# ----------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------

def _build_parser() -> _Parser:
    parser = _Parser(prog="dpsfit", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"dpsfit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def common(p: argparse.ArgumentParser, *, cohort=True, specs=True):
        if cohort:
            p.add_argument("--cohort", required=True, help="visit-per-row CSV")
        if specs:
            p.add_argument("--specs", required=True, help="biomarker spec JSON")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="JSON file with defaults for unset flags")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    def fit_flags(p: argparse.ArgumentParser):
        p.add_argument("--curve", choices=[k.value for k in LogisticKind])
        p.add_argument("--loss", choices=[k.value for k in LossKind])
        p.add_argument("--l-min", type=int, dest="l_min")
        p.add_argument("--l-max", type=int, dest="l_max")
        p.add_argument("--inner-tol", type=float, dest="inner_tol")
        p.add_argument("--inner-max-steps", type=int, dest="inner_max_steps")
        p.add_argument("--seed", type=int)

    p = sub.add_parser("simulate", help="generate a synthetic cohort")
    p.add_argument("--spec", required=True, help="simulation spec JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON file with defaults for unset flags")
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--outlier-fraction", type=float, dest="outlier_fraction")
    p.add_argument("--outlier-magnitude", type=float, dest="outlier_magnitude")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("ingest", help="clean a raw cohort table")
    common(p)
    p.add_argument("--window-days", type=float, dest="window_days")
    p.add_argument("--volumetric", help="comma-separated biomarkers to covariate-adjust")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("split", help="stratified train/test split")
    common(p)
    p.add_argument("--test-fraction", type=float, dest="test_fraction")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("fit", help="fit one progression model")
    common(p)
    p.add_argument("--valid", help="validation cohort CSV (else carved from --cohort)")
    p.add_argument("--valid-fraction", type=float, dest="valid_fraction")
    fit_flags(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("bootstrap", help="fit a bootstrap ensemble")
    common(p)
    p.add_argument("--n", type=int, help="number of bootstrap replicates")
    p.add_argument("--threads", type=int, help="worker threads (default: processors)")
    p.add_argument("--grid", help="curve export grid lo:hi:n")
    fit_flags(p)
    p.set_defaults(func=_cmd_bootstrap)

    p = sub.add_parser("predict", help="predict held-out measurements")
    common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="single model JSON")
    group.add_argument("--ensemble", help="ensemble directory")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("classify", help="stage test visits by diagnosis")
    common(p)
    p.add_argument("--train", required=True, help="training cohort CSV")
    p.add_argument("--ensemble", required=True, help="ensemble directory")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("order", help="summarize biomarker ordering")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="JSON file with defaults for unset flags")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("report", help="metrics and plot data for an ensemble")
    common(p)
    p.add_argument("--test", required=True, help="test cohort CSV")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--compare", help="second ensemble directory for a paired test")
    p.add_argument("--grid", help="score grid lo:hi:n")
    p.add_argument("--svg", action="store_true", help="also render SVG charts")
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _apply_config_file(args)
        return args.func(args)
    except DpsFitError as exc:
        print(f"dpsfit: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"dpsfit: error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

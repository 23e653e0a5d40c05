"""Command line driver.

Subcommands cover the full pipeline: ``simulate`` makes synthetic cohorts,
``ingest`` cleans raw visit tables, ``split`` holds out a stratified test
set, ``fit`` trains one model, ``bootstrap`` trains an ensemble,
``predict`` scores held-out measurements, ``classify`` stages visits,
``order`` summarizes biomarker orderings and ``report`` gathers metrics
and plot data.

Each subcommand writes its files through a recorder of its output
directory, which makes the directory at the first write and keeps the name
of each file, so a run that fails before writing leaves no directory.  It
returns its effective configuration and a summary line; :func:`main` then
writes ``run_manifest.json`` into the output directory, prints the summary
and turns any data or file error into exit code 2.  The manifest holds the
command, that configuration, the SHA-256 hash of every input file a flag
names (``--config`` and the ``ensemble.json`` index of an ensemble
directory included), the recorded list of files produced and the Python,
numpy and platform versions that produced them.  Numeric outputs are
byte-identical across reruns with the same inputs and seed.

``predict``, ``classify`` and ``report`` estimate the cohort's subjects
under every model of the ensemble (of both ensembles under ``--compare``)
together, in one batched subject solve per group of models, and work on
the cohort's measured cells as arrays.  ``bootstrap`` fits its replicates
in forked worker processes, one per usable CPU up to ``--n``, and memory
grows by one fit per worker; ``fit`` splits its steps over forked helpers.
Both fork under one rule (:func:`dpsfit.workers.usable_cpus`): with one
usable CPU, on another platform than Linux, or when :func:`main` runs in a
process with other threads, they fit in this process.  ``bootstrap`` still
accepts the old ``--threads`` flag and ignores it.

Exit codes: 0 on success, 1 for usage errors, 2 for data or fitting
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import os
import platform
import sys
import warnings

import numpy as np

from . import __version__
from .cohort import (
    DIAGNOSES,
    Cohort,
    Diagnosis,
    ancova_residuals,
    drop_sparse_subjects,
    load_biomarker_specs,
    match_visits,
    parse_cohort_csv,
    read_json,
    reject_out_of_range,
    remove_reverting_diagnoses,
    write_biomarker_specs,
    write_cohort_csv,
    write_csv,
    write_json,
)
from .curves import CurveArrays, LogisticKind, evaluate
from .errors import DpsFitError, FitError, MetricError, SchemaError, StagingError
from .fitter import FitConfig, fit
from .metrics import bic, mae, multiclass_auc, nmae, wilcoxon_signed_rank
from .progression import (
    FittedModel,
    _estimate_models,
    _indices,
    _timelines,
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
    ensemble_classes,
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


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class _OutDir:
    """The ``--out`` directory of a run.  It is made at the first write,
    and the name of every file written to it is kept for the manifest."""

    def __init__(self, root):
        self.root = root
        self.names: list[str] = []

    def path(self, name: str) -> str:
        os.makedirs(self.root, exist_ok=True)
        self.names.append(name)
        return os.path.join(self.root, name)

    def csv(self, name: str, header, rows) -> None:
        write_csv(self.path(name), header, rows)

    def json(self, name: str, data) -> None:
        write_json(self.path(name), data)


def _write_manifest(out: _OutDir, command: str, config: dict, inputs: list) -> None:
    # uname rather than platform.platform(), which reads the whole
    # interpreter binary to find the libc version.
    host = platform.uname()
    manifest = {
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "outputs": sorted(out.names),
        "version": __version__,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": f"{host.system}-{host.release}-{host.machine}",
        },
    }
    out.json("run_manifest.json", manifest)


# Flags that name an input file, and flags that name an ensemble directory
# whose index is the input.
_INPUT_FLAGS = ("spec", "cohort", "specs", "valid", "train", "test", "model", "config")
_ENSEMBLE_FLAGS = ("ensemble", "compare")


def _input_files(args) -> list[str]:
    """Every input file the flags of a run name."""
    files = [getattr(args, flag, None) for flag in _INPUT_FLAGS]
    files += [
        os.path.join(path, "ensemble.json")
        for path in (getattr(args, flag, None) for flag in _ENSEMBLE_FLAGS)
        if path
    ]
    return [path for path in files if path]


def _apply_config_file(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill the flags of the subcommand ``parser`` left unset from the JSON
    config file, if one was given.  A key names a flag without its dashes
    (``"l-max"`` or ``"l_max"``); its value passes the flag's type and
    choices checks, and a switch such as ``quiet`` takes a JSON boolean.
    A key that names no flag of the subcommand is an error."""
    path = getattr(args, "config", None)
    if not path:
        return
    data = read_json(path)
    if not isinstance(data, dict):
        raise DpsFitError(f"{path}: config file must hold a JSON object")
    for key, value in data.items():
        # argparse has no public lookup of an action by its option string.
        action = parser._option_string_actions.get("--" + key.replace("_", "-"))
        if not isinstance(action, (argparse._StoreAction, argparse._StoreTrueAction)):
            raise DpsFitError(f"{path}: {key}: no such flag for {parser.prog}")
        if value is None or getattr(args, action.dest) != action.default:
            continue  # left unset, or set on the command line
        try:
            if isinstance(action, argparse._StoreTrueAction):
                if not isinstance(value, bool):
                    raise ValueError("expected true or false")
            elif isinstance(value, bool):
                # int(True) is 1: a boolean must not pass for a number.
                raise ValueError("expected a value, not true or false")
            elif action.type is int and isinstance(value, float):
                # int(2.9) is 2: an integer flag takes a JSON integer.
                raise ValueError("expected an integer")
            else:
                value = (action.type or str)(value)
                if action.choices is not None and value not in action.choices:
                    raise ValueError(f"choose from {', '.join(action.choices)}")
        except (TypeError, ValueError) as exc:
            raise DpsFitError(f"{path}: {key}: invalid value {data[key]!r} ({exc})") from None
        setattr(args, action.dest, value)


def _resolve(args, name, fallback):
    value = getattr(args, name, None)
    return fallback if value is None else value


# Score grid of the curve tables and charts, as lo:hi:n.  Each grid point
# is one row per biomarker in every curve table.
_DEFAULT_GRID = "-10:10:201"
_MAX_GRID_POINTS = 100_000


def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise DpsFitError(f"--grid: bad value {text!r}, expected lo:hi:n") from None
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi and 2 <= n <= _MAX_GRID_POINTS):
        raise DpsFitError(
            f"--grid: bad value {text!r}, need finite lo < hi and 2 <= n <= {_MAX_GRID_POINTS}"
        )
    return np.linspace(lo, hi, n)


def _load_inputs(args) -> Cohort:
    specs = load_biomarker_specs(args.specs)
    return parse_cohort_csv(args.cohort, specs)


def _write_curve_table(out: _OutDir, name: str, grid: np.ndarray,
                       columns: dict[str, np.ndarray]) -> None:
    names = sorted(columns)
    out.csv(name, ["dps"] + names, zip(grid.tolist(), *(columns[n].tolist() for n in names)))


# ----------------------------------------------------------------------
# ensemble persistence
# ----------------------------------------------------------------------

def _save_ensemble(ensemble: BootstrapEnsemble, out: _OutDir) -> None:
    model_files = []
    for model, trace, in_bag in zip(ensemble.models, ensemble.traces, ensemble.in_bag_counts):
        b = model.provenance["bootstrap_id"]
        model_file = f"model_{b:03d}.json"
        save_model(model, out.path(model_file))
        trace.to_csv(out.path(f"trace_{b:03d}.csv"))
        out.csv(f"inbag_{b:03d}.csv", ["subject_id", "count_in_bag"], sorted(in_bag.items()))
        model_files.append(model_file)
    index = {
        "n_requested": ensemble.n_requested,
        "seed": ensemble.seed,
        "models": model_files,
        "failures": [[b, msg] for b, msg in ensemble.failures],
        "oob_subjects": [sorted(oob) for oob in ensemble.oob_subjects],
        # [bootstrap_id, l_opt, l_stop] of each fitted replicate.
        "replicates": [
            [model.provenance["bootstrap_id"], trace.l_opt, trace.l_stop]
            for model, trace in zip(ensemble.models, ensemble.traces)
        ],
    }
    out.json("ensemble.json", index)


def _load_model(path) -> FittedModel:
    """The model at ``path``.  Inference evaluates a model's curves stacked
    together, so a model whose biomarkers mix kinds, as a simulation's
    truth model may, is refused before anything is estimated."""
    model = load_model(path)
    kinds = sorted({p.kind.value for p in model.curves.values()})
    if len(kinds) > 1:
        raise SchemaError(f"{path}: biomarkers mix curve kinds ({', '.join(kinds)}); "
                          "inference takes one kind per model")
    return model


def _load_ensemble(path) -> BootstrapEnsemble:
    index_path = os.path.join(path, "ensemble.json")
    try:
        index = read_json(index_path)
        ensemble = BootstrapEnsemble(
            models=[_load_model(os.path.join(path, name)) for name in index["models"]],
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
        raise DpsFitError(f"{index_path}: ensemble holds no models")
    # Ordering and curve aggregates pair the models' curves by biomarker.
    first, *rest = index["models"]
    declared = ensemble.models[0].curves.keys()
    for name, model in zip(rest, ensemble.models[1:]):
        missing = sorted(declared - model.curves.keys())
        extra = sorted(model.curves.keys() - declared)
        if missing or extra:
            problem = (f"no biomarker {missing[0]!r}, which {first} declares" if missing
                       else f"biomarker {extra[0]!r}, which {first} does not declare")
            raise SchemaError(f"{os.path.join(path, name)}: {problem}")
    return ensemble


# ----------------------------------------------------------------------
# prediction and staging helpers shared by several commands
# ----------------------------------------------------------------------

def _predict_models(models, cohort: Cohort, estimates):
    """Predict every measured cell of ``cohort`` under each model, from the
    model's :func:`~dpsfit.progression.estimate_subjects` result.

    Returns the predictions as a ``(cells, models)`` array over the cells
    of :meth:`~dpsfit.cohort.Cohort.cells`, and a boolean array of the same
    shape saying which model predicted which cell; the NMAE of each model
    that predicted any cell, over its cells in order; and the
    ``(subject_id, reason)`` pairs of the subjects a model skipped.
    """
    rows, bm = cohort.cells()
    sub, age, value = cohort.sub[rows], cohort.age[rows], cohort.values[rows, bm]
    names = cohort.biomarker_names()
    predicted = np.zeros((rows.size, len(models)))
    hit = np.zeros(predicted.shape, dtype=bool)
    per_model_nmae, skipped = [], []
    for m, (model, (params, failures)) in enumerate(zip(models, estimates)):
        alpha, beta = _timelines(params, cohort.ids)
        own = model.biomarker_names()
        curve = _indices(names, own)[bm]
        cells = np.flatnonzero(~np.isnan(alpha[sub]) & (curve >= 0))
        subject = sub[cells]
        table = CurveArrays.stack([model.curves[n] for n in own])
        predicted[cells, m] = evaluate(table.take(curve[cells]),
                                       alpha[subject] * age[cells] + beta[subject])
        hit[cells, m] = True
        if cells.size:
            per_model_nmae.append(
                _mae_nmae(names, bm[cells], value[cells], predicted[cells, m])[1]
            )
        skipped += [(sid, str(exc)) for sid, exc in failures.items()]
    return predicted, hit, per_model_nmae, skipped


def _nmae_by_bootstrap_id(path, models, hit, per_model_nmae) -> dict:
    """The NMAE of each model of the ensemble at ``path`` that predicted
    any cell, by its bootstrap id, from :func:`_predict_models`' result."""
    ids = [m.provenance.get("bootstrap_id") for m, any_hit in zip(models, hit.any(axis=0)) if any_hit]
    if len(set(ids)) < len(ids):
        raise SchemaError(f"{path}: models repeat a bootstrap id, so replicates cannot be paired")
    return dict(zip(ids, per_model_nmae))


def _mae_nmae(names, bm, actual, predicted):
    """Per-biomarker MAE and the NMAE of predictions of the biomarkers
    ``names[bm]``, each biomarker's error normalized by the spread of the
    same actual values it averages."""
    present = [(names[k], bm == k) for k in np.unique(bm).tolist()]
    mae_map = mae({name: actual[mask] for name, mask in present},
                  {name: predicted[mask] for name, mask in present})
    sd_map = {
        name: float(np.std(actual[mask], ddof=1)) if np.count_nonzero(mask) > 1 else 0.0
        for name, mask in present
    }
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
    bounds = cohort.bounds().tolist()
    spans = dict(zip(cohort.ids, zip(bounds, bounds[1:])))
    pairs = list(zip(cohort.visit_index.tolist(), cohort.age.tolist()))
    staged_by_subject, failures = stage_subjects(
        members, estimates, {sid: pairs[a:b] for sid, (a, b) in spans.items()}
    )
    staged = [visit for visits in staged_by_subject.values() for visit in visits]
    labels = [DIAGNOSES[d] for d in cohort.dx.tolist()]
    truths = [label for sid in staged_by_subject for label in labels[slice(*spans[sid])]]
    return staged, truths, [(sid, str(exc)) for sid, exc in failures.items()]


def _mean_likelihoods(members, grid: np.ndarray) -> dict[str, np.ndarray]:
    """Each class's score likelihood on ``grid``, averaged over the
    members, for every class of any member; a member without a class adds
    0 to it, as it does to the class's posterior."""
    likelihoods = {label.value.lower(): np.zeros(grid.size) for label in ensemble_classes(members)}
    for _, classifier in members:
        for label in classifier.classes():
            likelihoods[label.value.lower()] += kde_eval(classifier.densities[label], grid)
    for key in likelihoods:
        likelihoods[key] /= len(members)
    return likelihoods


def _write_mean_curves(out: _OutDir, grid: np.ndarray, aggregates) -> None:
    """Write the ensemble's mean and normalized-mean curve tables."""
    for file_name, field in (("curves_mean.csv", "mean"),
                             ("curves_normalized_mean.csv", "normalized_mean")):
        _write_curve_table(
            out, file_name, grid, {name: getattr(agg, field) for name, agg in aggregates.items()}
        )


# ----------------------------------------------------------------------
# subcommands: each writes through its output recorder and returns
# (config, summary) for main
# ----------------------------------------------------------------------

def _cmd_simulate(args, out: _OutDir) -> tuple[dict, str | None]:
    magnitude = float(_resolve(args, "outlier_magnitude", 5.0))
    if not 0.0 <= magnitude < np.inf:
        raise DpsFitError(f"bad --outlier-magnitude {magnitude}, need a nonnegative finite value")
    spec = load_synth_spec(args.spec)
    cohort, truth = generate(spec)
    if args.outlier_fraction:
        cohort, _ = inject_outliers(
            cohort, fraction=args.outlier_fraction, magnitude=magnitude, seed=spec.seed
        )
    write_cohort_csv(cohort, out.path("cohort.csv"))
    write_biomarker_specs(cohort.specs, out.path("biomarker_specs.json"))
    save_model(truth, out.path("truth_model.json"))
    config = {
        "spec": str(args.spec),
        "outlier_fraction": args.outlier_fraction or 0.0,
        "outlier_magnitude": magnitude,
    }
    return config, None


def _cmd_ingest(args, out: _OutDir) -> tuple[dict, str | None]:
    cohort = _load_inputs(args)
    window = _resolve(args, "window_days", 92.0)
    cohort, report = reject_out_of_range(cohort)
    cohort = remove_reverting_diagnoses(cohort)
    cohort = match_visits(cohort, window_days=float(window))
    cohort = drop_sparse_subjects(cohort)
    volumetric = [v for v in (args.volumetric or "").split(",") if v]
    if volumetric:
        cohort = ancova_residuals(cohort, volumetric)
    write_cohort_csv(cohort, out.path("clean_cohort.csv"))
    report.to_csv(out.path("rejection_report.csv"))
    return (
        {"window_days": float(window), "volumetric": volumetric},
        f"{len(cohort.subject_ids())} subjects, {cohort.n_measurements()} measurements, "
        f"{report.total()} values rejected",
    )


def _cmd_split(args, out: _OutDir) -> tuple[dict, str | None]:
    cohort = _load_inputs(args)
    seed = int(_resolve(args, "seed", 0))
    fraction = float(_resolve(args, "test_fraction", 0.2))
    train, test = partition_train_test(cohort, test_fraction=fraction, seed=seed)
    write_cohort_csv(train, out.path("train.csv"))
    write_cohort_csv(test, out.path("test.csv"))
    test_ids = set(test.subject_ids())
    out.csv("split_manifest.csv", ["subject_id", "role"],
            ([sid, "test" if sid in test_ids else "train"] for sid in cohort.subject_ids()))
    return (
        {"test_fraction": fraction, "seed": seed},
        f"train {len(train.subject_ids())} subjects / test {len(test_ids)} subjects",
    )


def _fit_config_from_args(args) -> FitConfig:
    names = (f.name for f in dataclasses.fields(FitConfig))
    try:
        return FitConfig(**{n: getattr(args, n) for n in names if getattr(args, n) is not None})
    except FitError as exc:
        # FitConfig's errors name its fields; this one is not spelled like
        # its flag or config key.
        raise FitError(
            str(exc).replace("inner_solver_tol", "--inner-tol (config key inner-tol)")
        ) from exc


def _config_dict(config: FitConfig) -> dict:
    data = dataclasses.asdict(config)
    data["curve_kind"] = config.curve_kind.value
    data["loss_kind"] = config.loss_kind.value
    return data


def _cmd_fit(args, out: _OutDir) -> tuple[dict, str | None]:
    cohort = _load_inputs(args)
    config = _fit_config_from_args(args)
    if args.valid:
        train, valid = cohort, parse_cohort_csv(args.valid, cohort.specs)
    else:
        fraction = float(_resolve(args, "valid_fraction", 0.2))
        if not 0.0 < fraction < 1.0:
            raise DpsFitError(f"bad --valid-fraction {fraction}, need a value in (0, 1)")
        train, valid = partition_train_test(cohort, test_fraction=fraction, seed=config.seed)
    model, trace = fit(train, valid, config, progress=not args.quiet)
    save_model(model, out.path("model.json"))
    trace.to_csv(out.path("trace.csv"))
    ran = str(trace.l_stop)
    if trace.l_stop != config.l_max:
        ran += f" (stopped early, l_max {config.l_max})"
    return (
        _config_dict(config),
        f"selected iteration {trace.l_opt} of {ran}, "
        f"E_valid={trace.e_valid[trace.l_opt - 1]:.6e}",
    )


def _cmd_bootstrap(args, out: _OutDir) -> tuple[dict, str | None]:
    n = int(_resolve(args, "n", 100))
    if n < 1:
        raise DpsFitError(f"bad --n {n}, need at least 1 bootstrap replicate")
    grid_text = _resolve(args, "grid", _DEFAULT_GRID)
    grid = _parse_grid(grid_text)
    cohort = _load_inputs(args)
    config = _fit_config_from_args(args)
    ensemble = run_bootstraps(cohort, config, n_bootstraps=n, progress=not args.quiet)
    ordering = ordering_matrix(ensemble)
    names = ensemble.biomarker_names()
    aggregates = {name: aggregate_curves(ensemble, name, grid) for name in names}

    _save_ensemble(ensemble, out)
    ordering.to_csv(out.path("ordering_matrix.csv"))
    _write_mean_curves(out, grid, aggregates)
    for m, model in enumerate(ensemble.models):
        _write_curve_table(
            out,
            f"curves_{model.provenance['bootstrap_id']:03d}.csv",
            grid,
            {name: aggregates[name].values[m] for name in names},
        )

    config_data = {**_config_dict(config), "n_bootstraps": n, "grid": grid_text}
    return config_data, f"{len(ensemble.models)} of {n} bootstraps succeeded"


def _cmd_predict(args, out: _OutDir) -> tuple[dict, str | None]:
    cohort = _load_inputs(args)
    models = [_load_model(args.model)] if args.model else _load_ensemble(args.ensemble).models

    predicted, hit, per_model_nmae, skipped_all = _predict_models(
        models, cohort, _estimate_models(models, cohort)
    )
    if not hit.any(axis=0).all():
        raise DpsFitError(f"{args.cohort}: no predictable measurements in the cohort")

    # Cells predictable by every model, fused by averaging, in row order:
    # by subject, then visit index, then biomarker.  Each cell's
    # predictions lie along the contiguous last axis, which adds them in
    # the order of a mean over that cell alone.
    cells = np.flatnonzero(hit.all(axis=1))
    fused = predicted[cells].mean(axis=1)
    rows, bm = cohort.cells()
    rows, bm = rows[cells], bm[cells]
    names = cohort.biomarker_names()
    value = cohort.values[rows, bm]
    mae_map, nmae_value = _mae_nmae(names, bm, value, fused)

    out.csv("predictions.csv",
            ["subject_id", "visit_index", "age", "biomarker", "actual", "predicted"],
            zip(
                [cohort.ids[i] for i in cohort.sub[rows].tolist()],
                cohort.visit_index[rows].tolist(),
                cohort.age[rows].tolist(),
                [names[k] for k in bm.tolist()],
                value.tolist(),
                fused.tolist(),
            ))

    metrics_data = {
        "mae": mae_map,
        "nmae": nmae_value,
        "nmae_per_model": per_model_nmae,
        "nmae_mean": float(np.mean(per_model_nmae)),
        "nmae_sd": float(np.std(per_model_nmae, ddof=1)) if len(per_model_nmae) > 1 else 0.0,
        "skipped_subjects": sorted({s for s, _ in skipped_all}),
    }
    out.json("metrics.json", metrics_data)
    return (
        {"model": args.model, "ensemble": args.ensemble},
        f"NMAE {nmae_value:.4f} over {cells.size} measurements",
    )


def _cmd_classify(args, out: _OutDir) -> tuple[dict, str | None]:
    test = _load_inputs(args)
    train = parse_cohort_csv(args.train, test.specs)
    ensemble = _load_ensemble(args.ensemble)
    members, _ = _build_members(ensemble, train)
    estimates = _estimate_models([model for model, _ in members], test)
    staged, truths, skipped = _stage_cohort(members, test, estimates)
    if not staged:
        raise StagingError("no test visit could be staged")

    out.csv(
        "classifications.csv",
        ["subject_id", "visit_index", "dps",
         "p_cn", "p_mci", "p_ad", "predicted_label", "underflow_flag"],
        (
            [
                visit.subject_id,
                visit.visit_index,
                float(visit.dps),
                float(visit.probabilities.get(Diagnosis.CN, 0.0)),
                float(visit.probabilities.get(Diagnosis.MCI, 0.0)),
                float(visit.probabilities.get(Diagnosis.AD, 0.0)),
                visit.predicted.value,
                int(visit.underflow),
            ]
            for visit in staged
        ),
    )

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
    out.json("metrics.json", metrics_data)
    return (
        {"ensemble": args.ensemble},
        f"staged {len(staged)} visits"
        + (f", AUC {auc:.4f}" if auc is not None else ", AUC undefined"),
    )


def _cmd_order(args, out: _OutDir) -> tuple[dict, str | None]:
    ordering = ordering_matrix(_load_ensemble(args.ensemble))
    ordering.to_csv(out.path("ordering_matrix.csv"))
    positions = np.arange(len(ordering.biomarkers))
    lines = [
        f"{i + 1:2d}. {name}  (mean rank {float(ordering.matrix[i] @ positions) + 1:.2f})"
        for i, name in enumerate(ordering.biomarkers)
    ]
    return {"ensemble": args.ensemble}, "\n".join(lines)


def _cmd_report(args, out: _OutDir) -> tuple[dict, str | None]:
    grid_text = _resolve(args, "grid", _DEFAULT_GRID)
    grid = _parse_grid(grid_text)
    train = _load_inputs(args)
    test = parse_cohort_csv(args.test, train.specs)
    ensemble = _load_ensemble(args.ensemble)
    other = _load_ensemble(args.compare) if args.compare else None

    bic_values = [
        bic(prov["e_train_opt"], prov["q_params"], prov["n_measurements"])
        for prov in (model.provenance for model in ensemble.models)
        if all(k in prov for k in ("e_train_opt", "q_params", "n_measurements"))
    ]

    # One estimate per model serves both prediction and staging, and the
    # models of both ensembles are estimated together.
    n_models = len(ensemble.models)
    estimates = _estimate_models(ensemble.models + (other.models if other else []), test)
    _, hit, per_model_nmae, _ = _predict_models(ensemble.models, test, estimates[:n_models])

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
    if other:
        _, other_hit, other_nmae, _ = _predict_models(other.models, test, estimates[n_models:])
        # Replicates pair by bootstrap id: the same resample of the
        # training cohort under both ensembles' settings.
        mine = _nmae_by_bootstrap_id(args.ensemble, ensemble.models, hit, per_model_nmae)
        theirs = _nmae_by_bootstrap_id(args.compare, other.models, other_hit, other_nmae)
        common = [b for b in mine if b in theirs]
        if not common:
            raise MetricError("nothing to compare: the ensembles share no scored bootstrap id")
        statistic, p_value = wilcoxon_signed_rank(
            [mine[b] for b in common], [theirs[b] for b in common]
        )
        comparison = {
            "n_pairs": len(common),
            "statistic": statistic,
            "p_value": p_value,
            "nmae_mean_other": float(np.mean([theirs[b] for b in common])),
        }

    names = ensemble.biomarker_names()
    aggregates = {name: aggregate_curves(ensemble, name, grid) for name in names}
    _write_mean_curves(out, grid, aggregates)
    out.csv(
        "inflection_points.csv",
        ["biomarker", "bootstrap_id", "inflection"],
        (
            [name, model.provenance.get("bootstrap_id"), float(model.curves[name].c)]
            for model in ensemble.models
            for name in names
        ),
    )

    if members:
        likelihoods = _mean_likelihoods(members, grid)
        _write_curve_table(out, "likelihoods.csv", grid, likelihoods)

    report = {
        "n_models": len(ensemble.models),
        # [bootstrap_id, l_opt, l_stop] of each model, from the ensemble
        # index; null for an index written before it recorded them.
        "replicates": read_json(os.path.join(args.ensemble, "ensemble.json")).get("replicates"),
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
    out.json("report.json", report)

    if args.svg:
        write_line_chart(
            out.path("trajectories.svg"),
            grid,
            {name: aggregates[name].normalized_mean for name in names},
            title="Normalized biomarker trajectories",
            xlabel="DPS",
            ylabel="normalized value",
        )
        if members:
            write_line_chart(
                out.path("likelihoods.svg"),
                grid,
                likelihoods,
                title="Class-conditional score likelihoods",
                xlabel="DPS",
                ylabel="density",
            )

    config = {"ensemble": args.ensemble, "compare": args.compare,
              "grid": grid_text, "svg": bool(args.svg)}
    nmae_mean = report["nmae"]["mean"]
    auc_text = f", AUC {auc:.4f}" if auc is not None else ""
    return config, None if nmae_mean is None else f"NMAE {nmae_mean:.4f}{auc_text}"


# ----------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------

# Built once per process: parsing leaves the parser as it was, and each
# call's flags and config file go into its own namespace.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="dpsfit", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"dpsfit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    # The parser of each subcommand, which _apply_config_file checks against.
    parser.commands = sub.choices

    def common(p: argparse.ArgumentParser, *, cohort=True, specs=True):
        if cohort:
            p.add_argument("--cohort", required=True, help="visit-per-row CSV")
        if specs:
            p.add_argument("--specs", required=True, help="biomarker spec JSON")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="JSON file with defaults for unset flags")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")

    def fit_flags(p: argparse.ArgumentParser):
        # Each dest names the FitConfig field the flag sets; unset flags
        # leave that field's default.
        p.add_argument("--curve", choices=[k.value for k in LogisticKind], dest="curve_kind")
        p.add_argument("--loss", choices=[k.value for k in LossKind], dest="loss_kind")
        p.add_argument("--l-min", type=int, dest="l_min")
        p.add_argument("--l-max", type=int, dest="l_max")
        p.add_argument("--stop-rtol", type=float, dest="stop_rtol")
        p.add_argument("--inner-tol", type=float, dest="inner_solver_tol")
        p.add_argument("--inner-max-steps", type=int, dest="inner_max_steps")
        p.add_argument("--seed", type=int)

    p = sub.add_parser("simulate", help="generate a synthetic cohort")
    p.add_argument("--spec", required=True, help="simulation spec JSON")
    common(p, cohort=False, specs=False)
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
    # Accepted for old command lines and ignored: the worker count comes
    # from the CPUs this process may use.
    p.add_argument("--threads", type=int, help=argparse.SUPPRESS)
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
    common(p, cohort=False, specs=False)
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
        _apply_config_file(args, parser.commands[args.command])
        out = _OutDir(args.out)
        config, summary = args.func(args, out)
        _write_manifest(out, args.command, config, _input_files(args))
    except (DpsFitError, OSError) as exc:
        print(f"dpsfit: error: {exc}", file=sys.stderr)
        return 2
    if summary:
        print(summary)
    return 0


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()

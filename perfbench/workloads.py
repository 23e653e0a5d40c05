"""The benchmark's workloads: inputs made from a seed, the timed commands,
and the checks on their outputs.

Every command goes through ``dpsfit.cli.main(argv)`` in this process, the
way a user's ``dpsfit`` invocation would run it.  Why each workload exists
is written in README.md next to this file.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path

# The ROADMAP baseline biomarkers: name, a, d, b, c, gamma, noise_sd.
BASELINE_BIOMARKERS = (
    ("b0", 1, 0, 1.0, -3, 1.5, 0.05),
    ("b1", 0, 1, 0.8, -1, 0.7, 0.05),
    ("b2", 2, 0.5, 1.2, 0, 1.0, 0.1),
    ("b3", 5, 1, 0.6, 1.5, 2.0, 0.2),
    ("b4", 0, 3, 0.9, 3, 1.2, 0.1),
    ("b5", 1, 0, 1.5, 4, 0.9, 0.05),
)

# Each seed other than 0 scales every biomarker's noise level by a factor
# drawn from [1 - NOISE_JITTER, 1 + NOISE_JITTER].  The subjects, their
# timelines and the noise draws stay those of the baseline cohort, so the
# seeds give distinct inputs on which the solvers do nearly the same work.
# Fresh cohorts would not: on simulate seeds 1-7 one baseline fit took
# 6.1-13.6 s, and no median of ten such runs would settle within a bound.
NOISE_JITTER = 1e-3

# Sanity limits for the ground-truth checks, far outside what a working
# fitter produces on these cohorts and far inside what a broken one does.
MAX_TEST_NMAE = 0.5
MIN_STAGING_AUC = 0.8


@dataclass(frozen=True)
class Cohort:
    """Size and simulate seed of a cohort."""

    n_subjects: int
    n_visits: int
    n_biomarkers: int
    sim_seed: int


# Both workloads run on the ROADMAP baseline cohort and its split; the
# self-test runs them on TINY.
BASELINE = Cohort(300, 6, 6, 1)
TINY = Cohort(80, 4, 3, 1)

# ensemble-pipeline's bootstrap: two replicates on a short fixed schedule,
# one replicate for each of two worker threads.
BOOTSTRAP_FLAGS = ["--n", "2", "--l-min", "5", "--l-max", "5"]
BOOTSTRAP_THREADS = 2

WORKLOADS = ("fit-baseline", "ensemble-pipeline")


def synth_spec(cohort: Cohort, seed: int) -> dict:
    """The `dpsfit simulate` spec for one cohort and benchmark seed.

    Seed 0 is the ROADMAP baseline itself.
    """
    rng = random.Random(seed)
    biomarkers = []
    for name, a, d, b, c, gamma, noise_sd in BASELINE_BIOMARKERS[: cohort.n_biomarkers]:
        scale = 1.0 if seed == 0 else 1.0 + NOISE_JITTER * (2.0 * rng.random() - 1.0)
        biomarkers.append({"name": name, "a": a, "d": d, "b": b, "c": c,
                           "gamma": gamma, "noise_sd": noise_sd * scale})
    return {
        "curve_kind": "modified_stannard",
        "n_subjects": cohort.n_subjects,
        "n_visits": cohort.n_visits,
        "beta_sd": 4,
        "seed": cohort.sim_seed,
        "biomarkers": biomarkers,
    }


class Inputs:
    """Paths of one set-up's outputs."""

    def __init__(self, root: Path):
        self.spec = root / "spec.json"
        self.sim = root / "sim"
        self.cohort = self.sim / "cohort.csv"
        self.specs = self.sim / "biomarker_specs.json"
        self.truth = self.sim / "truth_model.json"
        self.train = root / "split" / "train.csv"
        self.test = root / "split" / "test.csv"

    def artifacts(self) -> dict[str, Path]:
        return {p.name: p for p in (self.cohort, self.train, self.test)}


def setup(run, root: Path, seed: int, tiny: bool) -> Inputs:
    """Simulate the cohort and split it under ``root``; returns the paths."""
    inputs = Inputs(root)
    root.mkdir(parents=True)
    inputs.spec.write_text(json.dumps(synth_spec(TINY if tiny else BASELINE, seed), indent=1))
    run.cli(["simulate", "--spec", inputs.spec, "--out", inputs.sim, "--quiet"])
    run.cli(["split", "--cohort", inputs.cohort, "--specs", inputs.specs,
             "--out", root / "split", "--seed", "3", "--quiet"])
    return inputs


@dataclass
class Iteration:
    """One pass over a workload's timed commands."""

    stage_s: dict[str, float]
    artifacts: dict[str, Path]
    out: Path

    @property
    def wall_s(self) -> float:
        return sum(self.stage_s.values())


def iterate(run, workload: str, inputs: Inputs, out: Path, *,
            threads: int = BOOTSTRAP_THREADS) -> Iteration:
    """Run the workload's timed commands once, writing under ``out``."""
    i = inputs
    if workload == "fit-baseline":
        t = run.cli(["fit", "--cohort", i.train, "--specs", i.specs, "--out", out, "--quiet"])
        return Iteration({"fit": t}, {"model.json": out / "model.json"}, out)

    ensemble = out / "ensemble"
    stage_s = {
        "bootstrap": run.cli(["bootstrap", "--cohort", i.train, "--specs", i.specs,
                              "--out", ensemble, *BOOTSTRAP_FLAGS, "--threads", str(threads),
                              "--quiet"]),
        "predict": run.cli(["predict", "--cohort", i.test, "--specs", i.specs,
                            "--ensemble", ensemble, "--out", out / "predict", "--quiet"]),
        "classify": run.cli(["classify", "--cohort", i.test, "--train", i.train,
                             "--specs", i.specs, "--ensemble", ensemble,
                             "--out", out / "classify", "--quiet"]),
        "report": run.cli(["report", "--cohort", i.train, "--test", i.test,
                           "--specs", i.specs, "--ensemble", ensemble,
                           "--out", out / "report", "--svg", "--quiet"]),
    }
    artifacts = {p.name: p for p in sorted(ensemble.glob("model_*.json"))}
    artifacts.update({
        "ensemble.json": ensemble / "ensemble.json",
        "ordering_matrix.csv": ensemble / "ordering_matrix.csv",
        "predictions.csv": out / "predict" / "predictions.csv",
        "classifications.csv": out / "classify" / "classifications.csv",
        "report.json": out / "report" / "report.json",
    })
    return Iteration(stage_s, artifacts, out)


# ----------------------------------------------------------------------
# output checks and quality numbers
# ----------------------------------------------------------------------

def _inflection_order(model_paths: list[Path]) -> list[str]:
    """Biomarkers sorted by their inflection point averaged over models."""
    from dpsfit.curves import inflection_point
    from dpsfit.progression import load_model

    totals: dict[str, float] = {}
    for path in model_paths:
        for name, params in load_model(path).curves.items():
            totals[name] = totals.get(name, 0.0) + inflection_point(params)
    return sorted(totals, key=totals.get)


def quality(run, workload: str, inputs: Inputs, it: Iteration) -> dict[str, float]:
    """Check one iteration's outputs against the ground truth and return
    the workload's quality numbers by their names in README.md."""
    truth = _inflection_order([inputs.truth])
    if workload == "fit-baseline":
        model = json.loads(it.artifacts["model.json"].read_text())
        loss = float(model["provenance"]["e_valid_opt"])
        order = _inflection_order([it.artifacts["model.json"]])
        run.check(order == truth, f"fit: inflection order {order} != truth {truth}")
        run.check(0.0 < loss < float("inf"), f"fit: E_valid {loss} not positive and finite")
        hits = sum(a == b for a, b in zip(order, truth))
        return {"fit_valid_loss": loss, "order_accuracy": hits / len(truth)}

    index = json.loads(it.artifacts["ensemble.json"].read_text())
    run.count_replicates(index["n_requested"], index["failures"])
    for name, path in it.artifacts.items():
        if name.startswith("model_"):
            order = _inflection_order([path])
            run.check(order == truth, f"{name}: inflection order {order} != truth {truth}")
    ordering = {row["biomarker"]: [float(row[f"rank_{r + 1}"]) for r in range(len(truth))]
                for row in _rows(it.artifacts["ordering_matrix.csv"])}

    predict = json.loads((it.out / "predict" / "metrics.json").read_text())
    classify = json.loads((it.out / "classify" / "metrics.json").read_text())
    n_test = len({row["subject_id"] for row in _rows(inputs.test)})
    run.count_subjects(n_test, predict["skipped_subjects"])
    run.count_subjects(n_test, classify["skipped_subjects"])
    nmae, auc = float(predict["nmae"]), classify["auc"]
    run.check(0.0 < nmae <= MAX_TEST_NMAE, f"predict: NMAE {nmae} outside (0, {MAX_TEST_NMAE}]")
    run.check(auc is not None and MIN_STAGING_AUC <= auc <= 1.0,
              f"classify: AUC {auc} outside [{MIN_STAGING_AUC}, 1]")
    return {
        "test_nmae": nmae,
        "staging_auc": float(auc or 0.0),
        "replicates": len(index["models"]),
        "order_accuracy": sum(ordering[n][rank] for rank, n in enumerate(truth)) / len(truth),
    }


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# The two generic quality metrics every workload reports, by workload.
HELDOUT_ERROR = {"fit-baseline": "fit_valid_loss", "ensemble-pipeline": "test_nmae"}
ACCURACY = {"fit-baseline": "order_accuracy", "ensemble-pipeline": "staging_auc"}

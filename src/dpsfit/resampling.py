"""Stratified partitioning, bootstrap ensembles and their summaries.

Subjects are stratified by their (first, last) diagnosis pair plus a
visit-count band, so train/test splits and bootstrap draws preserve both
the clinical composition and the follow-up depth of the cohort.  Each
bootstrap draws subjects with replacement within every stratum, fits a
model on the in-bag subjects and early-stops on the out-of-bag ones, which
by the usual bootstrap argument hold back about ``1 - 1/e ~ 37%`` of
subjects.

Every bootstrap seeds its own counter-based random stream from
``(seed, index)``, so each replicate is reproducible on its own, whatever
the number of replicates drawn.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import curves as curves_mod
from .cohort import DIAGNOSES, REPLICATE_SEPARATOR, Cohort, Diagnosis, write_csv
from .errors import DpsFitError, EnsembleError
from .fitter import FitConfig, FitTrace, fit
from .progression import FittedModel
from .workers import fork_pool, recording_warnings, reissue_warnings
from .workers import usable_cpus as _usable_cpus

__all__ = [
    "Stratum",
    "compute_strata",
    "partition_train_test",
    "bootstrap_sample",
    "BootstrapEnsemble",
    "run_bootstraps",
    "OrderingMatrix",
    "ordering_matrix",
    "CurveAggregate",
    "aggregate_curves",
]


def _rng(entropy) -> np.random.Generator:
    """Counter-based generator keyed by an entropy sequence."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


@dataclass(frozen=True, order=True)
class Stratum:
    """Sampling stratum: diagnosis trajectory endpoints and follow-up band."""

    first_dx: str
    last_dx: str
    band: str  # "few" or "many"


def compute_strata(cohort: Cohort) -> dict[str, Stratum]:
    """Assign every subject to its sampling stratum.

    The band splits each (first, last) diagnosis group at its median visit
    count; subjects at or below the median are "few".
    """
    missing = Diagnosis.MISSING.code
    dx = cohort.dx.tolist()
    bounds = cohort.bounds().tolist()
    groups: dict[tuple[str, str], list[str]] = {}
    counts: dict[str, int] = {}
    for sid, start, stop in zip(cohort.ids, bounds, bounds[1:]):
        labeled = [d for d in dx[start:stop] if d != missing] or [missing]
        groups.setdefault((DIAGNOSES[labeled[0]].value, DIAGNOSES[labeled[-1]].value), []).append(sid)
        counts[sid] = stop - start

    strata: dict[str, Stratum] = {}
    for pair, sids in groups.items():
        median = float(np.median([counts[s] for s in sids]))
        for sid in sids:
            band = "few" if counts[sid] <= median else "many"
            strata[sid] = Stratum(first_dx=pair[0], last_dx=pair[1], band=band)
    return strata


def _stratum_members(strata: dict[str, Stratum]) -> dict[Stratum, list[str]]:
    members: dict[Stratum, list[str]] = {}
    for sid in sorted(strata):
        members.setdefault(strata[sid], []).append(sid)
    return members


def partition_train_test(
    cohort: Cohort,
    *,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> tuple[Cohort, Cohort]:
    """Stratified subject-level train/test split.

    Within each stratum, ``ceil(test_fraction * n)`` subjects are held out;
    singleton strata stay in training with a warning so no stratum is
    wiped out of the training set.
    """
    if not 0.0 < test_fraction < 1.0:
        raise DpsFitError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if seed < 0:
        raise DpsFitError(f"seed must be nonnegative, got {seed}")
    strata = compute_strata(cohort)
    rng = _rng([seed])
    test_ids: set[str] = set()
    for stratum, sids in sorted(_stratum_members(strata).items()):
        if len(sids) == 1:
            warnings.warn(
                f"stratum {stratum} has a single subject; keeping it in training"
            )
            continue
        n_test = math.ceil(test_fraction * len(sids))
        chosen = rng.choice(np.array(sids, dtype=object), size=n_test, replace=False)
        test_ids.update(str(s) for s in chosen)
    train_ids = [s for s in cohort.subject_ids() if s not in test_ids]
    return cohort.subset(train_ids), cohort.subset(sorted(test_ids))


def bootstrap_sample(
    cohort: Cohort,
    seed,
    *,
    strata: dict[str, Stratum] | None = None,
) -> tuple[dict[str, int], set[str]]:
    """One stratified draw with replacement.

    Returns the in-bag multiset as ``{subject_id: count}`` plus the
    out-of-bag subject set.  The two are disjoint by construction.
    """
    if strata is None:
        strata = compute_strata(cohort)
    rng = _rng(seed if isinstance(seed, (list, tuple)) else [seed])
    in_bag: dict[str, int] = {}
    oob: set[str] = set()
    for _, sids in sorted(_stratum_members(strata).items()):
        n = len(sids)
        draws = rng.integers(0, n, size=n)
        chosen: dict[str, int] = {}
        for ix in draws:
            sid = sids[int(ix)]
            chosen[sid] = chosen.get(sid, 0) + 1
        in_bag.update(chosen)
        oob.update(s for s in sids if s not in chosen)
    return in_bag, oob


def _replicate_cohort(cohort: Cohort, in_bag: dict[str, int]) -> Cohort:
    """In-bag cohort with one independent copy per draw.

    A subject drawn twice appears as two replicate subjects; each gets its
    own timeline during fitting, which is exactly the reweighting the
    bootstrap asks for.  Copy ``k`` of subject ``sid`` is ``sid#k``, and
    the copies sort as strings (``s1#10`` before ``s1#2``).
    """
    copies = sorted(
        (f"{sid}{REPLICATE_SEPARATOR}{copy}", source)
        for source, sid in enumerate(cohort.ids)
        for copy in range(in_bag.get(sid, 0))
    )
    rows, owner = cohort.rows_of([source for _, source in copies])
    return cohort.take(rows, ids=[rep for rep, _ in copies], sub=owner)


@dataclass
class BootstrapEnsemble:
    """Fitted bootstrap replicates and their sampling bookkeeping."""

    models: list[FittedModel]
    traces: list[FitTrace]
    oob_subjects: list[set[str]]
    in_bag_counts: list[dict[str, int]]
    failures: list[tuple[int, str]] = field(default_factory=list)
    n_requested: int = 0
    seed: int = 0

    def biomarker_names(self) -> list[str]:
        return self.models[0].biomarker_names() if self.models else []


def run_bootstraps(
    train: Cohort,
    config: FitConfig,
    *,
    n_bootstraps: int = 100,
    progress: bool = True,
) -> BootstrapEnsemble:
    """Fit one model per stratified bootstrap replicate, in index order.

    Replicates that fail to fit are recorded and skipped; more than 10%
    failures aborts with an error.  Replicate ``b`` is seeded from
    ``(config.seed, b)`` alone, so it comes out the same whatever
    ``n_bootstraps`` is and whichever replicates precede it.

    On Linux the replicates are fitted in worker processes started by
    ``fork``, one per usable CPU up to ``n_bootstraps``, and each worker
    holds one fit in memory at a time.  A worker counts one usable CPU
    (:func:`~dpsfit.workers.usable_cpus`), so its fits run in one part,
    with no helper process of their own.  With one usable CPU or one
    replicate, or on another platform, where ``fork`` is not safe, the
    replicates are fitted in this process, and each fit splits its steps
    as :func:`~dpsfit.fitter.fit` does.
    Either way the ensemble, the progress lines and the warnings each fit
    issues come out in replicate order, and an exception other than
    :class:`DpsFitError` reaches the caller with its own type.
    """
    if n_bootstraps < 1:
        raise EnsembleError(f"need at least 1 bootstrap replicate, got {n_bootstraps}")
    inputs = (train, config, compute_strata(train))
    ensemble = BootstrapEnsemble(
        models=[],
        traces=[],
        oob_subjects=[],
        in_bag_counts=[],
        n_requested=n_bootstraps,
        seed=config.seed,
    )
    workers = min(n_bootstraps, _usable_cpus())
    pool = None
    try:
        if workers == 1 or sys.platform != "linux":
            results = map(partial(_fit_replicate, *inputs), range(n_bootstraps))
        else:
            pool = fork_pool(workers, _start_worker, inputs)
            registry: dict = {}
            results = (reissue_warnings(recorded, registry)
                       for recorded in pool.map(_fit_in_worker, range(n_bootstraps)))
        for b, result in enumerate(results):
            if isinstance(result, str):
                ensemble.failures.append((b, result))
                if progress:
                    print(f"bootstrap {b:3d}  FAILED: {result}", file=sys.stderr)
                continue
            model, trace, oob, in_bag = result
            ensemble.models.append(model)
            ensemble.traces.append(trace)
            ensemble.oob_subjects.append(oob)
            ensemble.in_bag_counts.append(in_bag)
            if progress:
                print(
                    f"bootstrap {b:3d}  l_opt={trace.l_opt}  l_stop={trace.l_stop}  "
                    f"E_valid={trace.e_valid[trace.l_opt - 1]:.6e}",
                    file=sys.stderr,
                )
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)

    if len(ensemble.failures) > 0.1 * n_bootstraps:
        raise EnsembleError(
            f"{len(ensemble.failures)} of {n_bootstraps} bootstraps failed"
        )
    return ensemble


def _fit_replicate(train: Cohort, config: FitConfig, strata: dict[str, Stratum], b: int):
    """Fit replicate ``b``.

    Returns ``(model, trace, oob, in_bag)``, or the message of the
    :class:`DpsFitError` that stopped the replicate.
    """
    try:
        in_bag, oob = bootstrap_sample(train, [config.seed, b], strata=strata)
        if not oob:
            raise EnsembleError(f"bootstrap {b}: empty out-of-bag set")
        model, trace = fit(
            _replicate_cohort(train, in_bag), train.subset(oob), config, progress=False
        )
    except DpsFitError as exc:
        return str(exc)
    model = replace(model, provenance={**model.provenance, "bootstrap_id": b})
    return model, trace, oob, in_bag


# Set in each worker process by ``_start_worker``, never in the parent.
_worker_inputs: tuple = ()


def _start_worker(*inputs) -> None:
    global _worker_inputs
    _worker_inputs = inputs


def _fit_in_worker(b: int):
    """``_fit_replicate`` in a worker, with the warnings it issued."""
    return recording_warnings(_fit_replicate, *_worker_inputs, b)


# ----------------------------------------------------------------------
# ensemble summaries
# ----------------------------------------------------------------------

@dataclass
class OrderingMatrix:
    """Rank frequencies of biomarker inflection points across an ensemble.

    ``matrix[i, r]`` is the fraction of replicates in which biomarker
    ``biomarkers[i]`` had the ``r``-th smallest inflection point.  Rows and
    columns each sum to one because every replicate contributes a full
    permutation.
    """

    biomarkers: list[str]
    matrix: np.ndarray

    def to_csv(self, path) -> None:
        header = ["biomarker"] + [f"rank_{r + 1}" for r in range(len(self.biomarkers))]
        rows = ([name] + row for name, row in zip(self.biomarkers, self.matrix.tolist()))
        write_csv(path, header, rows)


def ordering_matrix(ensemble: BootstrapEnsemble) -> OrderingMatrix:
    """How often each biomarker occupies each position on the timeline."""
    if not ensemble.models:
        raise EnsembleError("ensemble holds no successful models")
    names = ensemble.biomarker_names()
    row_of = {n: i for i, n in enumerate(names)}
    freq = np.zeros((len(names), len(names)))
    for model in ensemble.models:
        order = sorted(names, key=lambda n: (model.curves[n].c, n))
        for rank, name in enumerate(order):
            freq[row_of[name], rank] += 1.0
    freq /= len(ensemble.models)
    mean_rank = freq @ np.arange(len(names))
    row_order = sorted(range(len(names)), key=lambda i: (mean_rank[i], names[i]))
    return OrderingMatrix(
        biomarkers=[names[i] for i in row_order],
        matrix=freq[row_order],
    )


@dataclass
class CurveAggregate:
    """Per-replicate and mean trajectories of one biomarker on a score grid.

    ``normalized`` rescales each replicate's curve by its own asymptotes to
    the unit interval, which makes differently ranged biomarkers
    overlayable.
    """

    biomarker: str
    grid: np.ndarray
    values: np.ndarray       # (n_models, n_grid)
    mean: np.ndarray
    normalized: np.ndarray   # (n_models, n_grid)
    normalized_mean: np.ndarray


def aggregate_curves(
    ensemble: BootstrapEnsemble,
    biomarker: str,
    grid,
) -> CurveAggregate:
    """Evaluate one biomarker's fitted curve across all replicates."""
    if not ensemble.models:
        raise EnsembleError("ensemble holds no successful models")
    grid = np.asarray(grid, dtype=float)
    values = np.empty((len(ensemble.models), grid.size))
    normalized = np.empty_like(values)
    for m, model in enumerate(ensemble.models):
        if biomarker not in model.curves:
            raise KeyError(f"ensemble has no biomarker {biomarker!r}")
        p = model.curves[biomarker]
        f = curves_mod.evaluate(p, grid)
        values[m] = f
        normalized[m] = (f - p.d) / (p.a - p.d)
    return CurveAggregate(
        biomarker=biomarker,
        grid=grid,
        values=values,
        mean=values.mean(axis=0),
        normalized=normalized,
        normalized_mean=normalized.mean(axis=0),
    )

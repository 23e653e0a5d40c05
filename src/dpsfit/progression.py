"""Disease progression scores, fitted models and their persistence.

A subject's visits are placed on the common disease timeline through the
linear map ``s = alpha * age + beta``: ``alpha`` is the subject's progression
rate and ``beta`` shifts onset.  A :class:`FittedModel` bundles the fitted
trajectory of every biomarker, the per-biomarker residual scales, the
per-subject maps and the score standardization that anchors the timeline to
the cognitively normal visits of the training set.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import curves
from .cohort import Cohort, MeasurementRecord, read_json, write_json
from .curves import CurveParams, LogisticKind
from .errors import (
    DomainError,
    DpsFitError,
    IncompatibleModelError,
    InsufficientDataError,
    SchemaError,
    SolverError,
    StandardizationError,
)
from .optim import _LOG_ALPHA_LIMIT, minimize_subjects
from .robust_loss import LossKind

__all__ = [
    "SubjectParams",
    "Standardization",
    "FittedModel",
    "compute_dps",
    "standardize",
    "predict_biomarkers",
    "estimate_subject",
    "estimate_subjects",
    "save_model",
    "load_model",
]


@dataclass(frozen=True)
class SubjectParams:
    """Per-subject progression rate and onset.

    ``alpha`` must be strictly positive: scores always increase with age,
    only curve orientation distinguishes improving from worsening
    biomarkers.
    """

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise DomainError("subject parameters must be finite")
        if self.alpha <= 0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")


@dataclass(frozen=True)
class Standardization:
    """Affine score normalization derived from cognitively normal visits."""

    mu_cn: float = 0.0
    sigma_cn: float = 1.0
    applied: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu_cn) and math.isfinite(self.sigma_cn)):
            raise DomainError("standardization constants must be finite")
        if self.sigma_cn <= 0:
            raise DomainError("sigma_cn must be positive")


@dataclass(frozen=True)
class FittedModel:
    """A fitted progression model: curves, noise scales and subject maps."""

    curve_kind: LogisticKind
    loss_kind: LossKind
    curves: dict[str, CurveParams]
    sigma: dict[str, float]
    subjects: dict[str, SubjectParams]
    standardization: Standardization = Standardization()
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "curve_kind", LogisticKind(self.curve_kind))
        object.__setattr__(self, "loss_kind", LossKind(self.loss_kind))
        if set(self.curves) != set(self.sigma):
            raise SchemaError("curves and sigma must cover the same biomarkers")

    def biomarker_names(self) -> list[str]:
        return sorted(self.curves)


def compute_dps(subject: SubjectParams, age):
    """Disease progression score ``alpha * age + beta`` at the given age(s)."""
    arr = np.asarray(age, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("age must be finite")
    out = subject.alpha * arr + subject.beta
    return float(out) if arr.ndim == 0 else out


def standardize(model: FittedModel, cn_dps) -> FittedModel:
    """Re-anchor the score axis to the cognitively normal distribution.

    Shifts and scales every subject map and curve location so the supplied
    scores (those of cognitively normal visits) get zero mean and unit
    standard deviation.  Predicted biomarker values are unchanged: the maps
    ``alpha -> alpha / sd``, ``beta -> (beta - mu) / sd``, ``b -> b * sd``
    and ``c -> (c - mu) / sd`` cancel exactly inside every curve
    evaluation.
    """
    if model.standardization.applied:
        raise StandardizationError("model scores are already standardized")
    scores = np.asarray(list(cn_dps), dtype=float)
    if scores.size == 0:
        raise StandardizationError("no cognitively normal scores to anchor on")
    mu = float(scores.mean())
    sd = float(scores.std())
    if not sd > 0:
        raise StandardizationError("cognitively normal scores have zero spread")

    new_curves = {
        name: p.replace(b=p.b * sd, c=(p.c - mu) / sd)
        for name, p in model.curves.items()
    }
    new_subjects = {
        sid: SubjectParams(alpha=sp.alpha / sd, beta=(sp.beta - mu) / sd)
        for sid, sp in model.subjects.items()
    }
    return dataclasses.replace(
        model,
        curves=new_curves,
        subjects=new_subjects,
        standardization=Standardization(mu_cn=mu, sigma_cn=sd, applied=True),
    )


def predict_biomarkers(
    model: FittedModel,
    subject: SubjectParams,
    ages,
    biomarkers: Sequence[str] | None = None,
) -> dict[str, np.ndarray]:
    """Predicted values of the requested biomarkers at the given ages.

    Raises ``KeyError`` when an explicitly requested biomarker is not part
    of the model.
    """
    ages = np.atleast_1d(np.asarray(ages, dtype=float))
    if biomarkers is None:
        names = model.biomarker_names()
    else:
        names = list(biomarkers)
        for name in names:
            if name not in model.curves:
                raise KeyError(f"model has no biomarker {name!r}")
    scores = compute_dps(subject, ages)
    return {name: curves.evaluate(model.curves[name], scores) for name in names}


# ----------------------------------------------------------------------
# subject timelines against fixed curves
# ----------------------------------------------------------------------

# Scores further than _SCORE_PAD exponent units past every inflection sit on
# the curve plateaus.
_SCORE_PAD = 8.0
# Projected-gradient tolerance and step cap of subject estimation at inference.
_SUBJECT_TOL = 1e-8
_SUBJECT_MAX_STEPS = 200
# Estimation at inference solves the models of an ensemble together, in
# groups whose usable measurements stay within this many rows, which bounds
# the solver's memory for any ensemble size.
_GROUP_ROWS = 100_000


@dataclass
class _Flat:
    """Measurements as flat arrays, rows grouped by biomarker then subject."""

    subject_ids: list[str]
    biomarker_names: list[str]
    t: np.ndarray
    y: np.ndarray
    sub: np.ndarray
    bm: np.ndarray              # sorted: rows are grouped by biomarker
    bm_bounds: np.ndarray       # rows of biomarker k are bm_bounds[k]:bm_bounds[k + 1]
    omega: np.ndarray           # 1 / N_i per measurement
    n_points: np.ndarray        # per subject
    mean_age: np.ndarray        # per subject, over measured points
    age_span: np.ndarray        # per subject, max - min measured age


def _flatten(*cohorts: Cohort) -> _Flat:
    """The measurements of ``cohorts``, which declare the same biomarkers,
    as one :class:`_Flat`: each cohort's subjects are numbered after those
    of the cohorts before it."""
    columns, offset = [], 0
    for cohort in cohorts:
        rows, bm = cohort.cells()
        columns.append((bm, cohort.sub[rows] + offset, cohort.age[rows], cohort.values[rows, bm]))
        offset += len(cohort.ids)
    bm, sub, t, y = (np.concatenate(column) for column in zip(*columns))
    return _flat_of([sid for cohort in cohorts for sid in cohort.ids],
                    cohorts[0].biomarker_names(), *_grouped(bm, sub, t, y))


def _grouped(bm, sub, t, y):
    """The measurements ``(bm, sub, t, y)`` sorted by biomarker, then
    subject, age and value."""
    order = np.lexsort((y, t, sub, bm))
    return bm[order], sub[order], t[order], y[order]


def _flat_of(sids: list[str], names: list[str], bm, sub, t, y) -> _Flat:
    """The :class:`_Flat` of rows in the order :func:`_grouped` gives."""
    n_points = np.bincount(sub, minlength=len(sids)).astype(float)
    omega = np.where(n_points[sub] > 0, 1.0 / np.maximum(n_points[sub], 1.0), 0.0)
    sum_age = np.bincount(sub, weights=t, minlength=len(sids))
    mean_age = np.where(n_points > 0, sum_age / np.maximum(n_points, 1.0), 0.0)
    t_min = np.full(len(sids), np.inf)
    t_max = np.full(len(sids), -np.inf)
    if t.size:
        np.minimum.at(t_min, sub, t)
        np.maximum.at(t_max, sub, t)
    age_span = np.where(n_points > 0, t_max - t_min, 0.0)
    return _Flat(
        subject_ids=sids,
        biomarker_names=names,
        t=t,
        y=y,
        sub=sub,
        bm=bm,
        bm_bounds=np.searchsorted(bm, np.arange(len(names) + 1)),
        omega=omega,
        n_points=n_points,
        mean_age=mean_age,
        age_span=age_span,
    )


def _subset_flat(flat: _Flat, ids: np.ndarray) -> _Flat:
    """The measurements of ``flat``'s subjects ``ids``, given in ascending
    order, as one :class:`_Flat` in which subject ``ids[j]`` is numbered
    ``j``.

    The rows kept stay in their order, so a per-subject sum over the
    result adds the same terms in the same order as over ``flat``.
    """
    number = np.full(len(flat.subject_ids), -1, dtype=np.intp)
    number[ids] = np.arange(len(ids))
    rows = np.flatnonzero(number[flat.sub] >= 0)
    return _flat_of([flat.subject_ids[i] for i in ids], flat.biomarker_names,
                    flat.bm[rows], number[flat.sub[rows]], flat.t[rows], flat.y[rows])


def _eval_flat(table: curves.CurveArrays, flat: _Flat, s: np.ndarray, rows: np.ndarray):
    """Curve values and slopes at scores ``s`` of the measurement indices
    ``rows``, in one call over every biomarker; ``table`` holds one entry
    per biomarker of ``flat``."""
    return curves.value_and_slope(table.take(flat.bm[rows]), s)


def _scores(flat: _Flat, x: np.ndarray) -> np.ndarray:
    """Scores ``exp(u) * (age - mean age) + w`` of ``flat``'s measurements
    under the subject rows ``x`` of ``(u, w)``, as the subject solver forms them."""
    return np.exp(x[flat.sub, 0]) * (flat.t - flat.mean_age[flat.sub]) + x[flat.sub, 1]


def _subject_params(x: np.ndarray, mean_age: np.ndarray) -> list[SubjectParams]:
    """The ``alpha * age + beta`` timeline of each subject row ``(u, w)`` of
    ``x``, who scores ``exp(u) * (age - mean_age) + w``."""
    alpha = np.exp(x[:, 0])
    beta = x[:, 1] - alpha * mean_age
    return [SubjectParams(a, b) for a, b in zip(alpha.tolist(), beta.tolist())]


def _timelines(subjects: Mapping[str, SubjectParams], ids) -> tuple[np.ndarray, np.ndarray]:
    """The rate and onset of each of ``ids`` in ``subjects``, NaN for an
    id it lacks."""
    found = [subjects.get(sid) for sid in ids]
    alpha = np.array([math.nan if sp is None else sp.alpha for sp in found])
    beta = np.array([math.nan if sp is None else sp.beta for sp in found])
    return alpha, beta


def _indices(names, within) -> np.ndarray:
    """The index of each of ``names`` in the list ``within``, -1 where absent."""
    index = {name: k for k, name in enumerate(within)}
    return np.array([index.get(name, -1) for name in names], dtype=np.intp)


def _subject_bounds(table: curves.CurveArrays, flat: _Flat, tc: np.ndarray):
    """Search box of every subject's ``(log alpha, score at mean age)``.

    Beyond ``_SCORE_PAD`` exponent units from every inflection all curves
    are flat, so scores out there fit exactly as well as the boundary;
    without a box, subjects whose values sit on the asymptotes drift
    arbitrarily far and wreck the score axis for everyone else.  A
    subject's box on its mean-age score is the region where its own
    biomarkers' curves still vary, widened to cover its mean-centered visit
    ages ``tc``; the rate cap keeps its visits from stretching beyond the
    width of that box.
    """
    pads = _SCORE_PAD * np.maximum(1.0, table.gamma) / np.abs(table.b)
    w_lo = np.full(len(flat.subject_ids), np.inf)
    w_hi = np.full(len(flat.subject_ids), -np.inf)
    np.minimum.at(w_lo, flat.sub, np.minimum((table.c - pads)[flat.bm], tc))
    np.maximum.at(w_hi, flat.sub, np.maximum((table.c + pads)[flat.bm], tc))
    width = np.maximum(w_hi - w_lo, 1e-12)
    u_hi = np.clip(np.log(width / np.maximum(flat.age_span, 1e-12)), 0.0, _LOG_ALPHA_LIMIT)
    return (w_lo, w_hi), u_hi


def _solve_subjects(
    table: curves.CurveArrays,
    sigma: np.ndarray,
    flat: _Flat,
    loss: LossKind,
    tol: float,
    max_steps: int,
    x0: np.ndarray = np.empty((0, 2)),
):
    """Fit every subject of ``flat`` against fixed curves in one batch.

    ``table`` and ``sigma`` hold each biomarker's curve and residual scale.
    Works in each subject's mean-centered time frame, where the parameters
    are ``(log alpha, score at the mean age)``.  The rows of ``x0``
    warm-start the first ``len(x0)`` subjects; the others start cold at
    unit rate with their mean age on the median inflection.  Subjects with
    fewer than 2 points stay at their start.  Returns ``(x, objective,
    at_bound)`` as :func:`~dpsfit.optim.minimize_subjects` does.
    """
    start = np.zeros((len(flat.subject_ids), 2))
    start[:len(x0)] = x0
    start[len(x0):, 1] = np.median(table.c)
    tc = flat.t - flat.mean_age[flat.sub]
    offset_bounds, log_alpha_hi = _subject_bounds(table, flat, tc)

    def eval_fn(s: np.ndarray, rows: np.ndarray):
        return _eval_flat(table, flat, s, rows)

    return minimize_subjects(
        eval_fn,
        start,
        t=tc,
        y=flat.y,
        sub=flat.sub,
        sigma=sigma[flat.bm],
        omega=flat.omega,
        n_subjects=len(flat.subject_ids),
        loss=loss,
        tol=tol,
        max_steps=max_steps,
        log_alpha_bounds=(-_LOG_ALPHA_LIMIT, log_alpha_hi),
        offset_bounds=offset_bounds,
    )


def estimate_subjects(
    model: FittedModel, cohort: Cohort
) -> tuple[dict[str, SubjectParams], dict[str, DpsFitError]]:
    """Estimate ``(alpha, beta)`` for every subject of a cohort against
    fixed curves, in one batched solve.

    Minimizes the same robust objective used during training, over each
    subject's measurements of biomarkers the model knows, starting from
    unit rate with the subject's mean age on the median inflection.
    Returns the estimates by subject id, and for every subject that cannot
    be estimated the error saying why: fewer than two usable points, no
    biomarker shared with the model, or a non-finite objective at the
    start.  The first two are found from the data before the solve; the
    solve leaves a subject of the third kind at its start and reports it
    through its objective, so one such subject does not stop the others.
    The models of an ensemble are estimated together, one solve per group
    of models (see :func:`_estimate`); a single model takes one solve.
    """
    return _estimate_models([model], cohort)[0]


def estimate_subject(model: FittedModel, records: Iterable[MeasurementRecord]) -> SubjectParams:
    """Estimate one new subject's ``(alpha, beta)`` from their records; see
    :func:`estimate_subjects`, whose skip reasons are raised here.  Records
    of several subjects raise :class:`~dpsfit.errors.SchemaError`."""
    [(estimates, failures)] = _estimate_records([model], "", list(records))
    if failures:
        raise failures[""]
    return estimates[""]


def _estimate_models(
    models: Sequence[FittedModel], cohort: Cohort
) -> list[tuple[dict[str, SubjectParams], dict[str, DpsFitError]]]:
    """:func:`estimate_subjects` of each of ``models`` over one cohort."""
    rows, bm = cohort.cells()
    return _estimate(models, cohort.subject_ids(), cohort.biomarker_names(),
                     cohort.sub[rows], bm, cohort.age[rows], cohort.values[rows, bm])


def _estimate_records(models: Sequence[FittedModel], subject_id: str,
                      records: Sequence[MeasurementRecord]):
    """:func:`_estimate` of each of ``models`` over one subject's records,
    which are refused before any solve if they name several subjects."""
    ids = sorted({r.subject_id for r in records})
    if len(ids) > 1:
        raise SchemaError(f"records of one subject expected, got {ids[0]!r} and {ids[1]!r}")
    names = sorted({r.biomarker for r in records})
    bm = _indices([r.biomarker for r in records], names)
    return _estimate(models, [subject_id], names, np.zeros(bm.size, dtype=np.intp), bm,
                     np.array([r.age for r in records], dtype=float),
                     np.array([r.value for r in records], dtype=float))


def _estimate(
    models: Sequence[FittedModel], sids: list[str], names: list[str], sub, bm, t, y
) -> list[tuple[dict[str, SubjectParams], dict[str, DpsFitError]]]:
    """:func:`estimate_subjects` of each of ``models``, in their order, over
    the measurements ``(sub, bm, t, y)``: the value ``y`` of biomarker
    ``names[bm]`` of subject ``sids[sub]`` at age ``t``.

    The measurements are sorted once, over every biomarker of any model.
    The models are then solved in groups: consecutive models that share
    curve and loss kinds, up to ``_GROUP_ROWS`` usable rows (a model with
    more forms a group alone).  In a group's one solve, each model has its
    own copy of the subjects, with the model's curves, residual scales,
    boxes and cold start.  Each copy keeps its rows in the order of a solve
    of its model alone, and the solver's per-subject sums never mix
    subjects, so every estimate is bit for bit that solve's.
    """
    measured = np.bincount(sub, minlength=len(sids)) > 0
    known = sorted(set().union(*(model.curves for model in models)))
    bm = _indices(names, known)[bm]
    usable = bm >= 0
    bm, sub, t, y = _grouped(bm[usable], sub[usable], t[usable], y[usable])
    # Each model's own index of each row's biomarker, -1 where it has none.
    own = [_indices(known, model.biomarker_names())[bm] for model in models]
    groups: list[list[int]] = []
    for m, model in enumerate(models):
        size = np.count_nonzero(own[m] >= 0)
        kinds = (model.curve_kind, model.loss_kind)
        if groups and kinds == group_kinds and group_rows + size <= _GROUP_ROWS:
            groups[-1].append(m)
            group_rows += size
        else:
            groups.append([m])
            group_kinds, group_rows = kinds, size
    return [
        result
        for group in groups
        for result in _estimate_group(
            [models[g] for g in group], sids, [own[g] for g in group], sub, t, y, measured
        )
    ]


def _estimate_group(models, sids: list[str], own, sub, t, y, measured: np.ndarray):
    """One solve for the subjects ``sids`` under each of ``models``, over
    the sorted rows ``(sub, t, y)`` whose biomarker is ``own[g]`` under
    ``models[g]``; returns each model's estimates and failures.

    Model ``g``'s copy of subject ``i`` is subject ``g * len(sids) + i`` of
    the solve, and its biomarkers follow those of the models before it.
    """
    rows = [np.flatnonzero(k >= 0) for k in own]
    offsets = np.cumsum([0] + [len(m.curves) for m in models])
    taken = np.concatenate(rows)
    n = len(sids)
    flat = _flat_of(
        sids * len(models),
        [name for m in models for name in m.biomarker_names()],
        np.concatenate([k[r] + offset for k, r, offset in zip(own, rows, offsets)]),
        np.concatenate([sub[r] + g * n for g, r in enumerate(rows)]),
        t[taken],
        y[taken],
    )
    tables = [curves.CurveArrays.stack([m.curves[name] for name in m.biomarker_names()])
              for m in models]
    # Each model's cold start: unit rate, mean age on its median inflection.
    x0 = np.zeros((len(models) * n, 2))
    x0[:, 1] = np.repeat([np.median(table.c) for table in tables], n)
    x, obj, _ = _solve_subjects(
        curves.CurveArrays(tables[0].kind, *(np.concatenate(v) for v in list(zip(*tables))[1:])),
        np.array([m.sigma[name] for m in models for name in m.biomarker_names()]),
        flat, models[0].loss_kind, _SUBJECT_TOL, _SUBJECT_MAX_STEPS, x0,
    )
    out = []
    for g in range(len(models)):
        part = slice(g * n, (g + 1) * n)
        n_points, mean_age = flat.n_points[part], flat.mean_age[part]
        ok = (n_points >= 2) & np.isfinite(obj[part])
        estimates = dict(zip(itertools.compress(sids, ok),
                             _subject_params(x[part][ok], mean_age[ok])))
        failures: dict[str, DpsFitError] = {}
        for sid, k, seen in itertools.compress(zip(sids, n_points, measured), ~ok):
            if k == 0 and seen:
                failures[sid] = IncompatibleModelError("subject and model share no biomarkers")
            elif k == 0:
                failures[sid] = InsufficientDataError("subject has no measured values")
            elif k < 2:
                failures[sid] = InsufficientDataError(f"need at least 2 measurement points, got {int(k)}")
            else:
                failures[sid] = SolverError("subject objective is not finite at the starting point")
        out.append((estimates, failures))
    return out


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def save_model(model: FittedModel, path) -> None:
    """Write a model to JSON, losslessly round-tripping every float; a
    biomarker whose kind is not the model's, as in a truth model, names it."""
    data = {
        "curve_kind": model.curve_kind.value,
        "loss_kind": model.loss_kind.value,
        "biomarkers": {
            name: {
                **({} if p.kind is model.curve_kind else {"kind": p.kind.value}),
                "a": p.a,
                "d": p.d,
                "b": p.b,
                "c": p.c,
                "gamma": p.gamma,
                "sigma": model.sigma[name],
            }
            for name, p in model.curves.items()
        },
        "subjects": {
            sid: {"alpha": sp.alpha, "beta": sp.beta}
            for sid, sp in model.subjects.items()
        },
        "standardization": {
            "mu_cn": model.standardization.mu_cn,
            "sigma_cn": model.standardization.sigma_cn,
            "applied": model.standardization.applied,
        },
        "provenance": model.provenance,
    }
    write_json(path, data)


def load_model(path) -> FittedModel:
    """Read a model written by :func:`save_model`."""
    data = read_json(path)
    try:
        kind = LogisticKind(data["curve_kind"])
        loss = LossKind(data["loss_kind"])
        curves_map = {}
        sigma_map = {}
        for name, entry in data["biomarkers"].items():
            curves_map[name] = CurveParams(
                kind=LogisticKind(entry.get("kind", kind)),
                a=entry["a"],
                d=entry["d"],
                b=entry["b"],
                c=entry["c"],
                gamma=entry["gamma"],
            )
            sigma_map[name] = float(entry["sigma"])
            if not (math.isfinite(sigma_map[name]) and sigma_map[name] > 0):
                raise SchemaError(
                    f"{path}: biomarker {name!r}: sigma must be positive and finite, "
                    f"got {sigma_map[name]}"
                )
        subjects = {
            sid: SubjectParams(alpha=entry["alpha"], beta=entry["beta"])
            for sid, entry in data["subjects"].items()
        }
        std = data["standardization"]
        standardization = Standardization(
            mu_cn=float(std["mu_cn"]),
            sigma_cn=float(std["sigma_cn"]),
            applied=bool(std["applied"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed model file ({exc})") from exc
    return FittedModel(
        curve_kind=kind,
        loss_kind=loss,
        curves=curves_map,
        sigma=sigma_map,
        subjects=subjects,
        standardization=standardization,
        provenance=data.get("provenance", {}),
    )

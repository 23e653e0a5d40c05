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
import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import curves
from .cohort import Cohort, ConstraintPolicy, MeasurementRecord
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
    "param_count",
    "degrees_of_freedom",
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


def _measurements(cohort: Cohort):
    """``(subject_id, biomarker, age, value)`` of every cohort cell."""
    return (
        (v.subject_id, name, v.age, value) for v in cohort.visits for name, value in v.values.items()
    )


def _flatten(cohort: Cohort) -> _Flat:
    return _flat_from(cohort.subject_ids(), cohort.biomarker_names(), _measurements(cohort))


def _flat_from(sids: list[str], names: list[str], measurements) -> _Flat:
    """Flat arrays of ``(subject_id, biomarker, age, value)`` measurements;
    missing values are dropped."""
    sid_ix = {s: i for i, s in enumerate(sids)}
    bm_ix = {n: i for i, n in enumerate(names)}
    rows = sorted(
        (bm_ix[name], sid_ix[sid], age, value)
        for sid, name, age, value in measurements
        if value is not None
    )
    bm = np.array([r[0] for r in rows], dtype=np.intp)
    sub = np.array([r[1] for r in rows], dtype=np.intp)
    t = np.array([r[2] for r in rows], dtype=float)
    y = np.array([r[3] for r in rows], dtype=float)
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


def _sigma_per_measurement(flat: _Flat, sigma: Mapping[str, float]) -> np.ndarray:
    return np.array([sigma[n] for n in flat.biomarker_names])[flat.bm]


def _eval_flat(curve_list: list[CurveParams], flat: _Flat, s: np.ndarray, rows: np.ndarray):
    """Curve values and slopes at scores ``s`` of the sorted measurement
    indices ``rows``; cut points split them by biomarker."""
    pred = np.empty_like(s)
    dfds = np.empty_like(s)
    cuts = np.searchsorted(rows, flat.bm_bounds)
    for p, lo, hi in zip(curve_list, cuts[:-1], cuts[1:]):
        if hi > lo:
            pred[lo:hi], dfds[lo:hi] = curves.value_and_slope(p, s[lo:hi])
    return pred, dfds


def _subject_bounds(curve_list: list[CurveParams], flat: _Flat, tc: np.ndarray):
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
    pads = np.array([_SCORE_PAD * max(1.0, p.gamma) / abs(p.b) for p in curve_list])
    c = np.array([p.c for p in curve_list])
    w_lo = np.full(len(flat.subject_ids), np.inf)
    w_hi = np.full(len(flat.subject_ids), -np.inf)
    np.minimum.at(w_lo, flat.sub, np.minimum((c - pads)[flat.bm], tc))
    np.maximum.at(w_hi, flat.sub, np.maximum((c + pads)[flat.bm], tc))
    width = np.maximum(w_hi - w_lo, 1e-12)
    u_hi = np.clip(np.log(width / np.maximum(flat.age_span, 1e-12)), 0.0, _LOG_ALPHA_LIMIT)
    return (w_lo, w_hi), u_hi


def _solve_subjects(
    curve_map: Mapping[str, CurveParams],
    sigma: Mapping[str, float],
    flat: _Flat,
    loss: LossKind,
    tol: float,
    max_steps: int,
    x0: np.ndarray | None = None,
):
    """Fit every subject of ``flat`` against fixed curves in one batch.

    Works in each subject's mean-centered time frame, where the parameters
    are ``(log alpha, score at the mean age)``.  ``x0`` warm-starts the
    solve; without it every subject starts cold at unit rate with its mean
    age on the median inflection.  Subjects with fewer than 2 points stay
    at their start.  Returns ``(x, objective, at_bound)`` as
    :func:`~dpsfit.optim.minimize_subjects` does.
    """
    curve_list = [curve_map[n] for n in flat.biomarker_names]
    if x0 is None:
        x0 = np.zeros((len(flat.subject_ids), 2))
        x0[:, 1] = float(np.median([p.c for p in curve_list]))
    tc = flat.t - flat.mean_age[flat.sub]
    offset_bounds, log_alpha_hi = _subject_bounds(curve_list, flat, tc)

    def eval_fn(s: np.ndarray, rows: np.ndarray):
        return _eval_flat(curve_list, flat, s, rows)

    return minimize_subjects(
        eval_fn,
        x0,
        t=tc,
        y=flat.y,
        sub=flat.sub,
        sigma=_sigma_per_measurement(flat, sigma),
        omega=flat.omega,
        n_subjects=len(flat.subject_ids),
        loss=loss,
        tol=tol,
        max_steps=max_steps,
        log_alpha_bounds=(-_LOG_ALPHA_LIMIT, log_alpha_hi),
        offset_bounds=offset_bounds,
        frozen=flat.n_points < 2,
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
    start.  One such subject does not stop the others.
    """
    return _estimate(model, cohort.subject_ids(), _measurements(cohort))


def estimate_subject(
    model: FittedModel,
    records: Iterable[MeasurementRecord],
    *,
    tol: float = 1e-8,
    max_steps: int = 200,
) -> SubjectParams:
    """Estimate one new subject's ``(alpha, beta)`` from their records; see
    :func:`estimate_subjects`, whose skip reasons are raised here."""
    measurements = (("", r.biomarker, r.age, r.value) for r in records)
    estimates, failures = _estimate(model, [""], measurements, tol, max_steps)
    if failures:
        raise failures[""]
    return estimates[""]


def _estimate(
    model: FittedModel, sids: list[str], measurements, tol: float = 1e-8, max_steps: int = 200
) -> tuple[dict[str, SubjectParams], dict[str, DpsFitError]]:
    """:func:`estimate_subjects` over ``(subject_id, biomarker, age, value)``
    measurements of the subjects ``sids``."""
    measured = set()
    usable: dict[str, list] = {sid: [] for sid in sids}
    for m in measurements:
        if m[3] is not None:
            measured.add(m[0])
            if m[1] in model.curves:
                usable[m[0]].append(m)
    failures: dict[str, DpsFitError] = {}
    for sid, rows in usable.items():
        if not rows and sid in measured:
            failures[sid] = IncompatibleModelError("subject and model share no biomarkers")
        elif not rows:
            failures[sid] = InsufficientDataError("subject has no measured values")
        elif len(rows) < 2:
            failures[sid] = InsufficientDataError(
                f"need at least 2 measurement points, got {len(rows)}"
            )
    while True:
        keep = [sid for sid in sids if sid not in failures]
        flat = _flat_from(keep, model.biomarker_names(), (m for sid in keep for m in usable[sid]))
        try:
            x, _, _ = _solve_subjects(
                model.curves, model.sigma, flat, model.loss_kind, tol, max_steps
            )
            break
        except SolverError as exc:
            # Set the subject aside and solve the rest again.
            failures[keep[exc.subject]] = exc
    alpha = np.exp(x[:, 0])
    beta = x[:, 1] - alpha * flat.mean_age
    estimates = {
        sid: SubjectParams(alpha=float(a), beta=float(b)) for sid, a, b in zip(keep, alpha, beta)
    }
    return estimates, failures


# ----------------------------------------------------------------------
# model complexity accounting
# ----------------------------------------------------------------------

def param_count(kind: LogisticKind, policy: ConstraintPolicy) -> int:
    """Number of free parameters of one biomarker's curve."""
    kind = LogisticKind(kind)
    policy = ConstraintPolicy(policy)
    n = 3 if kind.has_symmetry_param else 2  # b, c and optionally gamma
    if policy is not ConstraintPolicy.FIXED_RANGE:
        n += 2  # a and d are fitted too
    return n


def degrees_of_freedom(
    points_per_biomarker: Mapping[str, int],
    params_per_biomarker: Mapping[str, int],
    n_subjects: int,
) -> int:
    """Residual degrees of freedom of a fitted model.

    Every biomarker spends its own parameters and every subject spends two.
    A non-positive result means the model is not estimable from the data.
    """
    if set(points_per_biomarker) != set(params_per_biomarker):
        raise SchemaError("point and parameter counts must cover the same biomarkers")
    total = sum(
        points_per_biomarker[name] - params_per_biomarker[name]
        for name in points_per_biomarker
    )
    return total - 2 * n_subjects


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def save_model(model: FittedModel, path) -> None:
    """Write a model to JSON, losslessly round-tripping every float."""
    data = {
        "curve_kind": model.curve_kind.value,
        "loss_kind": model.loss_kind.value,
        "biomarkers": {
            name: {
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
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_model(path) -> FittedModel:
    """Read a model written by :func:`save_model`."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise SchemaError(f"{path}: model file is not valid JSON ({exc})") from exc
    try:
        kind = LogisticKind(data["curve_kind"])
        loss = LossKind(data["loss_kind"])
        curves_map = {}
        sigma_map = {}
        for name, entry in data["biomarkers"].items():
            curves_map[name] = CurveParams(
                kind=kind,
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

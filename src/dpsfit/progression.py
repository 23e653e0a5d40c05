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
from .cohort import ConstraintPolicy, MeasurementRecord
from .curves import CurveParams, LogisticKind
from .errors import (
    DomainError,
    IncompatibleModelError,
    InsufficientDataError,
    SchemaError,
    StandardizationError,
)
from .optim import minimize_subjects
from .robust_loss import LossKind

__all__ = [
    "SubjectParams",
    "Standardization",
    "FittedModel",
    "compute_dps",
    "standardize",
    "predict_biomarkers",
    "estimate_subject",
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


def estimate_subject(
    model: FittedModel,
    records: Iterable[MeasurementRecord],
    *,
    tol: float = 1e-8,
    max_steps: int = 200,
) -> SubjectParams:
    """Estimate ``(alpha, beta)`` for a new subject against fixed curves.

    Minimizes the same robust objective used during training, over the
    subject's measurements of biomarkers the model knows.  Needs at least
    two usable points; a subject whose biomarkers are entirely disjoint
    from the model's cannot be estimated at all.
    """
    records = list(records)
    usable = [r for r in records if r.value is not None and r.biomarker in model.curves]
    if not usable:
        if any(r.value is not None for r in records):
            raise IncompatibleModelError(
                "subject and model share no biomarkers"
            )
        raise InsufficientDataError("subject has no measured values")
    if len(usable) < 2:
        raise InsufficientDataError(
            f"need at least 2 measurement points, got {len(usable)}"
        )

    names = sorted({r.biomarker for r in usable})
    name_ix = {n: i for i, n in enumerate(names)}
    t = np.array([r.age for r in usable])
    y = np.array([r.value for r in usable])
    bm = np.array([name_ix[r.biomarker] for r in usable])
    sigma = np.array([model.sigma[n] for n in names])[bm]
    omega = np.full(len(usable), 1.0 / len(usable))
    sub = np.zeros(len(usable), dtype=np.intp)
    curve_list = [model.curves[n] for n in names]

    def eval_fn(s: np.ndarray, rows: np.ndarray):
        bm_rows = bm[rows]
        pred = np.empty_like(s)
        dfds = np.empty_like(s)
        for k, p in enumerate(curve_list):
            mask = bm_rows == k
            pred[mask], dfds[mask] = curves.value_and_slope(p, s[mask])
        return pred, dfds

    # Work in the subject's mean-centered time frame, where the offset is
    # the score at their mean age.  Scores are boxed to the region where
    # at least one curve still varies (8 exponent units past the farthest
    # inflection), since beyond it all positions fit equally well and the
    # solver would otherwise wander; the rate cap keeps the subject's
    # visits from stretching past the width of that region.
    t_mean = float(t.mean())
    tc = t - t_mean
    pads = [8.0 * max(1.0, p.gamma) / abs(p.b) for p in curve_list]
    w_lo = min(min(p.c - q for p, q in zip(curve_list, pads)), float(tc.min()))
    w_hi = max(max(p.c + q for p, q in zip(curve_list, pads)), float(tc.max()))
    width = max(w_hi - w_lo, 1e-12)
    span = float(tc.max() - tc.min())
    u_hi = float(np.clip(np.log(width / max(span, 1e-12)), 0.0, 27.631))

    inflections = np.array([p.c for p in model.curves.values()])
    x0 = np.array([[0.0, float(np.median(inflections))]])
    x, _, _ = minimize_subjects(
        eval_fn,
        x0,
        t=tc,
        y=y,
        sub=sub,
        sigma=sigma,
        omega=omega,
        n_subjects=1,
        loss=model.loss_kind,
        tol=tol,
        max_steps=max_steps,
        log_alpha_bounds=(-27.631, u_hi),
        offset_bounds=(w_lo, w_hi),
    )
    alpha = float(np.exp(x[0, 0]))
    return SubjectParams(alpha=alpha, beta=float(x[0, 1]) - alpha * t_mean)


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
        data = json.load(fh)
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
    except (KeyError, TypeError, ValueError) as exc:
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

"""Diagnostic staging from progression scores, and score-to-time remapping.

Given the fitted scores of training visits grouped by diagnosis, each
class's score distribution is estimated with a Gaussian kernel density and
combined with the class frequencies through Bayes' rule.  An ensemble of
bootstrap models is fused by averaging the per-replicate posteriors, which
is bagging in its simplest form.

The score axis can also be re-expressed in years by regressing the age at
which converting subjects first progress onto their scores; the resulting
affine map carries every curve onto a calendar timeline without changing
its predicted values.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cohort import Cohort, Diagnosis, MeasurementRecord
from .curves import CurveParams
from .errors import DomainError, DpsFitError, MappingError, StagingError
from .progression import FittedModel, SubjectParams, _estimate
from .resampling import REPLICATE_SEPARATOR

__all__ = [
    "KdeDensity",
    "silverman_bandwidth",
    "kde_eval",
    "StagingClassifier",
    "fit_classifier",
    "posterior",
    "StagedVisit",
    "stage_subjects",
    "ensemble_posterior",
    "collect_class_scores",
    "TimeMapping",
    "fit_time_mapping",
    "remap_curve_to_time",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class KdeDensity:
    """Gaussian kernel density over a one-dimensional sample."""

    samples: np.ndarray
    bandwidth: float

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        if samples.size == 0 or not np.all(np.isfinite(samples)):
            raise DomainError("kernel density needs a finite, non-empty sample")
        if not self.bandwidth > 0:
            raise DomainError("bandwidth must be positive")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "bandwidth", float(self.bandwidth))


def silverman_bandwidth(samples) -> float:
    """Rule-of-thumb kernel width ``0.9 min(sd, iqr/1.34) n^(-1/5)``.

    Falls back to the standard deviation alone when the interquartile range
    collapses (heavily tied samples).
    """
    arr = np.asarray(samples, dtype=float)
    if arr.size < 2:
        raise DomainError("bandwidth needs at least 2 samples")
    sd = float(arr.std(ddof=1))
    q75, q25 = np.percentile(arr, [75.0, 25.0])
    iqr = float(q75 - q25)
    spread = min(sd, iqr / 1.34) if iqr > 0 else sd
    if not spread > 0:
        raise DomainError("samples have no spread")
    return 0.9 * spread * arr.size ** (-0.2)


def kde_eval(density: KdeDensity, s):
    """Density value ``mean_n N(s; sample_n, bandwidth)`` at score(s) ``s``.

    Values can underflow to exactly zero far outside the sample support;
    they are never negative or NaN.
    """
    arr = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError("scores must be finite")
    scalar = arr.ndim == 0
    pts = np.atleast_1d(arr)
    z = (pts[:, None] - density.samples[None, :]) / density.bandwidth
    out = np.exp(-0.5 * z * z).sum(axis=1) / (density.samples.size * density.bandwidth * _SQRT_2PI)
    return float(out[0]) if scalar else out


@dataclass(frozen=True)
class StagingClassifier:
    """Bayes classifier over diagnosis classes with KDE likelihoods."""

    densities: dict[Diagnosis, KdeDensity]
    priors: dict[Diagnosis, float]

    def __post_init__(self) -> None:
        if set(self.densities) != set(self.priors):
            raise StagingError("densities and priors must cover the same classes")
        total = sum(self.priors.values())
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise StagingError(f"priors must sum to 1, got {total}")

    def classes(self) -> list[Diagnosis]:
        return sorted(self.densities, key=lambda d: d.value)


def fit_classifier(train_scores: Mapping[Diagnosis, Sequence[float]]) -> StagingClassifier:
    """Build class densities and priors from labeled training scores.

    Every class needs at least two samples with nonzero spread; priors are
    the observed class frequencies.
    """
    densities: dict[Diagnosis, KdeDensity] = {}
    counts: dict[Diagnosis, int] = {}
    for label in sorted(train_scores, key=lambda d: Diagnosis(d).value):
        label = Diagnosis(label)
        samples = np.asarray(list(train_scores[label]), dtype=float)
        if samples.size < 2:
            raise StagingError(f"class {label.value}: need at least 2 scores")
        try:
            bandwidth = silverman_bandwidth(samples)
        except DomainError as exc:
            raise StagingError(f"class {label.value}: {exc}") from exc
        densities[label] = KdeDensity(samples=samples, bandwidth=bandwidth)
        counts[label] = samples.size
    if not densities:
        raise StagingError("no classes to fit")
    total = sum(counts.values())
    priors = {label: counts[label] / total for label in densities}
    return StagingClassifier(densities=densities, priors=priors)


def posterior(
    classifier: StagingClassifier,
    s: float,
    *,
    return_underflow: bool = False,
):
    """Class probabilities at one score via Bayes' rule.

    When every class likelihood underflows to zero the priors are returned
    unchanged (the score carries no usable evidence); the optional flag
    reports that this happened.
    """
    numerators = {
        label: classifier.priors[label] * kde_eval(classifier.densities[label], s)
        for label in classifier.classes()
    }
    total = sum(numerators.values())
    if total <= 0.0:
        probs = dict(classifier.priors)
        underflow = True
    else:
        probs = {label: value / total for label, value in numerators.items()}
        underflow = False
    return (probs, underflow) if return_underflow else probs


def collect_class_scores(
    model: FittedModel,
    cohort: Cohort,
) -> dict[Diagnosis, list[float]]:
    """Training scores grouped by visit diagnosis under a fitted model.

    Bootstrap replicate subjects (``id#k``) are resolved back to their
    source subject's visits, so a twice-drawn subject contributes its
    scores twice, matching its weight in the fit.
    """
    by_subject: dict[str, list] = {}
    for v in sorted(cohort.visits, key=lambda v: v.visit_index):
        by_subject.setdefault(v.subject_id, []).append(v)
    scores: dict[Diagnosis, list[float]] = {}
    for rep_id in sorted(model.subjects):
        base = rep_id.split(REPLICATE_SEPARATOR, 1)[0]
        sp = model.subjects[rep_id]
        for v in by_subject.get(base, []):
            if v.diagnosis in (Diagnosis.CN, Diagnosis.MCI, Diagnosis.AD):
                scores.setdefault(v.diagnosis, []).append(sp.alpha * v.age + sp.beta)
    return scores


@dataclass
class StagedVisit:
    """Fused staging output for one visit of one subject."""

    subject_id: str
    visit_index: int
    age: float
    dps: float
    probabilities: dict[Diagnosis, float]
    underflow: bool

    @property
    def predicted(self) -> Diagnosis:
        # Deterministic argmax: ties break toward the milder class.
        ordered = sorted(
            self.probabilities.items(), key=lambda kv: (-kv[1], kv[0].severity)
        )
        return ordered[0][0]


def stage_subjects(
    members: Sequence[tuple[FittedModel, StagingClassifier]],
    estimates: Sequence[tuple[Mapping[str, SubjectParams], Mapping[str, DpsFitError]]],
    visits: Mapping[str, Sequence[tuple[int, float]]],
) -> tuple[dict[str, list[StagedVisit]], dict[str, StagingError]]:
    """Average the per-replicate posteriors at every subject's visits.

    ``estimates`` holds one :func:`~dpsfit.progression.estimate_subjects`
    result per member; ``visits`` maps each subject to the ``(visit_index,
    age)`` pairs to stage.  Each member scores the visits on the subject's
    timeline against its own curves and applies its classifier; the member
    posteriors are averaged and renormalized.  Members that could not
    estimate a subject are skipped for it (with a warning); a subject no
    member could estimate is returned with the error instead.
    """
    if not members:
        raise StagingError("ensemble has no members")
    classes = members[0][1].classes()
    staged: dict[str, list[StagedVisit]] = {}
    failures: dict[str, StagingError] = {}
    for subject_id, subject_visits in visits.items():
        ages = np.array([age for _, age in subject_visits])
        prob_sum = {label: np.zeros(len(subject_visits)) for label in classes}
        dps_sum = np.zeros(len(subject_visits))
        underflow_any = np.zeros(len(subject_visits), dtype=bool)
        n_used = 0
        last_error = None
        for (_, classifier), (params, errors) in zip(members, estimates):
            sp = params.get(subject_id)
            if sp is None:
                last_error = errors.get(subject_id, last_error)
                continue
            scores = sp.alpha * ages + sp.beta
            dps_sum += scores
            for i, s in enumerate(scores):
                probs, underflow = posterior(classifier, float(s), return_underflow=True)
                underflow_any[i] |= underflow
                for label in classes:
                    prob_sum[label][i] += probs[label]
            n_used += 1

        if n_used == 0:
            failures[subject_id] = StagingError(
                f"no ensemble member could stage the subject ({last_error})"
            )
            continue
        if n_used < len(members):
            warnings.warn(
                f"{len(members) - n_used} of {len(members)} ensemble members "
                f"could not stage subject {subject_id!r}"
            )
        staged[subject_id] = []
        for i, (visit_index, age) in enumerate(subject_visits):
            raw = {label: prob_sum[label][i] / n_used for label in classes}
            total = sum(raw.values())
            staged[subject_id].append(
                StagedVisit(
                    subject_id=subject_id,
                    visit_index=visit_index,
                    age=age,
                    dps=float(dps_sum[i] / n_used),
                    probabilities={label: value / total for label, value in raw.items()},
                    underflow=bool(underflow_any[i]),
                )
            )
    return staged, failures


def ensemble_posterior(
    members: Sequence[tuple[FittedModel, StagingClassifier]],
    records: Iterable[MeasurementRecord],
    *,
    visits: Sequence[tuple[int, float]] | None = None,
) -> list[StagedVisit]:
    """Fused staging of one subject's visits (by default those in
    ``records``); see :func:`stage_subjects`, whose failure is raised here."""
    records = list(records)
    if visits is None:
        visits = sorted({r.visit_index: r.age for r in reversed(records)}.items())
    if not visits:
        raise StagingError("no visits to stage")
    subject_id = records[0].subject_id if records else ""
    measurements = [(subject_id, r.biomarker, r.age, r.value) for r in records]
    estimates = [_estimate(model, [subject_id], measurements) for model, _ in members]
    staged, failures = stage_subjects(members, estimates, {subject_id: visits})
    if failures:
        raise failures[subject_id]
    return staged[subject_id]


# ----------------------------------------------------------------------
# score-to-time remapping
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TimeMapping:
    """Affine map ``time = m0 + m1 * score`` from scores to years."""

    m0: float
    m1: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.m0) and math.isfinite(self.m1)):
            raise DomainError("time mapping coefficients must be finite")
        if self.m1 == 0.0:
            raise MappingError("time mapping slope must be nonzero")

    def __call__(self, s):
        return self.m0 + self.m1 * np.asarray(s, dtype=float)


def fit_time_mapping(points: Sequence[tuple[float, float]]) -> TimeMapping:
    """Least squares line through ``(score, years_to_event)`` pairs.

    Typically the scores of converting subjects' visits against the years
    until their first progressed diagnosis.  Needs at least two distinct
    scores.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
        raise MappingError("need at least 2 (score, time) pairs")
    s, t = pts[:, 0], pts[:, 1]
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(t))):
        raise MappingError("score/time pairs must be finite")
    s_var = float(np.sum((s - s.mean()) ** 2))
    if s_var <= 0:
        raise MappingError("scores are all equal; slope is undefined")
    m1 = float(np.sum((s - s.mean()) * (t - t.mean())) / s_var)
    m0 = float(t.mean() - m1 * s.mean())
    return TimeMapping(m0=m0, m1=m1)


def remap_curve_to_time(p: CurveParams, mapping: TimeMapping) -> CurveParams:
    """Express a score-axis curve on the calendar timeline.

    With a positive slope the transform ``b -> b / m1``,
    ``c -> m0 + m1 * c`` reproduces the original values exactly:
    ``f_time(m0 + m1 s) == f_score(s)``.  A negative slope reverses the
    axis; the curve is mirrored by swapping its asymptotes, which is exact
    for the symmetric Verhulst kind and approximate otherwise, so a
    warning is emitted.
    """
    c_new = mapping.m0 + mapping.m1 * p.c
    if mapping.m1 > 0:
        return p.replace(b=p.b / mapping.m1, c=c_new)
    warnings.warn(
        "time mapping slope is negative; mirroring the curve "
        "(exact only for the verhulst kind)"
    )
    return p.replace(a=p.d, d=p.a, b=p.b / abs(mapping.m1), c=c_new)

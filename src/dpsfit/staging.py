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

import itertools
import math
import warnings
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .cohort import DIAGNOSES, REPLICATE_SEPARATOR, Cohort, Diagnosis, MeasurementRecord
from .curves import CurveParams
from .errors import DomainError, DpsFitError, MappingError, StagingError
from .progression import FittedModel, SubjectParams, _estimate_records, _indices, _timelines

__all__ = [
    "KdeDensity",
    "silverman_bandwidth",
    "kde_eval",
    "StagingClassifier",
    "fit_classifier",
    "posterior",
    "StagedVisit",
    "stage_subjects",
    "ensemble_classes",
    "ensemble_posterior",
    "collect_class_scores",
    "TimeMapping",
    "fit_time_mapping",
    "remap_curve_to_time",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
# Kernel values evaluated at once: kde_eval takes its points in blocks of
# this many kernel values, so its memory does not grow with points x samples.
# A block's 256 KB temporaries also stay in cache: 372 points on 1,400
# samples took 1.4 ms in blocks and 3.3 ms in one piece.
_KDE_BLOCK = 1 << 15


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
    # Each point's kernel sum is a row of its own, so evaluating the points
    # in blocks leaves every value as it is and bounds the memory.
    block = max(1, _KDE_BLOCK // density.samples.size)
    sums = np.empty(pts.size)
    for lo in range(0, pts.size, block):
        z = (pts[lo:lo + block, None] - density.samples[None, :]) / density.bandwidth
        sums[lo:lo + block] = np.exp(-0.5 * z * z).sum(axis=1)
    out = sums / (density.samples.size * density.bandwidth * _SQRT_2PI)
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
    s,
    *,
    return_underflow: bool = False,
):
    """Class probabilities at a score, or at each of an array of scores,
    via Bayes' rule.

    A scalar score gives a dict of floats; an array gives a dict of arrays
    (and an array of flags).  Where every class likelihood underflows to
    zero the priors are returned unchanged (the score carries no usable
    evidence); the optional flag reports that this happened.
    """
    pts = np.atleast_1d(np.asarray(s, dtype=float))
    numerators = {
        label: classifier.priors[label] * kde_eval(classifier.densities[label], pts)
        for label in classifier.classes()
    }
    total = sum(numerators.values())
    underflow = total <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        probs = {
            label: np.where(underflow, classifier.priors[label], value / total)
            for label, value in numerators.items()
        }
    if np.ndim(s) == 0:
        probs = {label: float(p[0]) for label, p in probs.items()}
        underflow = bool(underflow[0])
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
    reps = sorted(model.subjects)
    source = _indices([rep.split(REPLICATE_SEPARATOR, 1)[0] for rep in reps], cohort.ids)
    known = source >= 0
    alpha, beta = _timelines(model.subjects, itertools.compress(reps, known))
    rows, owner = cohort.rows_of(source[known])
    labeled = cohort.dx[rows] != Diagnosis.MISSING.code
    rows, owner = rows[labeled], owner[labeled]
    scores = alpha[owner] * cohort.age[rows] + beta[owner]
    dx = cohort.dx[rows]
    return {DIAGNOSES[code]: scores[dx == code].tolist() for code in np.unique(dx).tolist()}


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


def ensemble_classes(members: Sequence[tuple[FittedModel, StagingClassifier]]) -> list[Diagnosis]:
    """Every class of any member's classifier, in the order of
    :meth:`StagingClassifier.classes`."""
    return sorted({label for _, c in members for label in c.densities}, key=lambda d: d.value)


def stage_subjects(
    members: Sequence[tuple[FittedModel, StagingClassifier]],
    estimates: Sequence[tuple[Mapping[str, SubjectParams], Mapping[str, DpsFitError]]],
    visits: Mapping[str, Sequence[tuple[int, float]]],
) -> tuple[dict[str, list[StagedVisit]], dict[str, StagingError]]:
    """Average the per-replicate posteriors at every subject's visits.

    ``estimates`` holds one :func:`~dpsfit.progression.estimate_subjects`
    result per member; ``visits`` maps each subject to the ``(visit_index,
    age)`` pairs to stage.  Each member scores the visits on the subject's
    timeline against its own curves and applies its classifier, in one
    :func:`posterior` call over every visit it stages; the member
    posteriors are averaged and renormalized.  Staging covers the union of
    the members' classes, and a member without a class gives it
    probability 0.  Members that could not estimate a subject are skipped
    for it (with a warning); a subject no member could estimate is
    returned with the error instead.
    """
    if not members:
        raise StagingError("ensemble has no members")
    classes = ensemble_classes(members)
    subject_ids = list(visits)
    counts = [len(visits[sid]) for sid in subject_ids]
    owner = np.repeat(np.arange(len(subject_ids)), counts)  # each visit's subject
    ages = np.array([age for sid in subject_ids for _, age in visits[sid]], dtype=float)
    # Sums over the members that stage each visit, added in member order.
    prob_sum = np.zeros((len(classes), ages.size))
    dps_sum = np.zeros(ages.size)
    underflow_any = np.zeros(ages.size, dtype=bool)
    n_used = np.zeros(len(subject_ids), dtype=np.intp)
    last_error: list = [None] * len(subject_ids)
    for (_, classifier), (params, errors) in zip(members, estimates):
        alpha, beta = _timelines(params, subject_ids)
        used = ~np.isnan(alpha)
        for i in np.flatnonzero(~used).tolist():
            last_error[i] = errors.get(subject_ids[i], last_error[i])
        n_used += used
        rows = np.flatnonzero(used[owner])
        if not rows.size:
            continue
        scores = alpha[owner[rows]] * ages[rows] + beta[owner[rows]]
        dps_sum[rows] += scores
        probs, underflow = posterior(classifier, scores, return_underflow=True)
        underflow_any[rows] |= underflow
        for c, label in enumerate(classes):
            if label in probs:
                prob_sum[c, rows] += probs[label]

    failures: dict[str, StagingError] = {}
    for sid, n, error in zip(subject_ids, n_used.tolist(), last_error):
        if n == 0:
            failures[sid] = StagingError(f"no ensemble member could stage the subject ({error})")
        elif n < len(members):
            warnings.warn(
                f"{len(members) - n} of {len(members)} ensemble members "
                f"could not stage subject {sid!r}"
            )
    staged_rows = np.flatnonzero(n_used[owner] > 0)
    n_visit = n_used[owner[staged_rows]]
    raw = prob_sum[:, staged_rows] / n_visit
    # The classes add up in their order, as in a sum over one visit's.
    total = raw[0].copy()
    for row in raw[1:]:
        total += row
    probs = (raw / total).T.tolist()
    dps = (dps_sum[staged_rows] / n_visit).tolist()
    flags = underflow_any[staged_rows].tolist()
    staged: dict[str, list[StagedVisit]] = {}
    k = 0
    for sid, n in zip(subject_ids, n_used.tolist()):
        if n == 0:
            continue
        staged[sid] = []
        for visit_index, age in visits[sid]:
            staged[sid].append(StagedVisit(
                subject_id=sid,
                visit_index=visit_index,
                age=age,
                dps=dps[k],
                probabilities=dict(zip(classes, probs[k])),
                underflow=flags[k],
            ))
            k += 1
    return staged, failures


def ensemble_posterior(
    members: Sequence[tuple[FittedModel, StagingClassifier]],
    records: Iterable[MeasurementRecord],
) -> list[StagedVisit]:
    """Fused staging of the visits in one subject's ``records``; see
    :func:`stage_subjects`, whose failure is raised here.  Records of
    several subjects raise :class:`~dpsfit.errors.SchemaError`."""
    records = list(records)
    visits = sorted({r.visit_index: r.age for r in reversed(records)}.items())
    if not visits:
        raise StagingError("no visits to stage")
    subject_id = records[0].subject_id
    estimates = _estimate_records([model for model, _ in members], subject_id, records)
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

"""Synthetic longitudinal cohorts with known ground truth.

Subjects get log-normal progression rates (median one) and normal onsets;
visit ages follow a jittered regular schedule.  Biomarker values are the
true curves evaluated at the true scores plus Gaussian noise, optionally
thinned by a missingness rate, and visit diagnoses come from fixed score
thresholds.  The generator returns both the cohort and the generating
model, so recovery can be checked end to end.

:func:`generate` works in two passes: the first makes every random draw,
subject by subject in a fixed order, and the second evaluates each true
curve once over all of its values.  The draw order, not the evaluation,
fixes the output, so a seed gives the same cohort as when every value
was evaluated on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import curves as curves_mod
from .cohort import BiomarkerSpec, Cohort, ConstraintPolicy, Diagnosis, Direction, read_json, write_json
from .curves import CurveParams, LogisticKind
from .errors import DomainError, SchemaError
from .progression import FittedModel, Standardization, SubjectParams
from .robust_loss import LossKind

__all__ = [
    "SynthBiomarker",
    "SynthSpec",
    "generate",
    "inject_outliers",
    "load_synth_spec",
    "write_synth_spec",
]


@dataclass(frozen=True)
class SynthBiomarker:
    """Ground-truth trajectory and noise level of one simulated biomarker."""

    name: str
    params: CurveParams
    noise_sd: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.noise_sd < np.inf:
            raise DomainError(
                f"biomarker {self.name!r}: noise_sd must be nonnegative and finite, "
                f"got {self.noise_sd}"
            )


@dataclass(frozen=True)
class SynthSpec:
    """Everything that defines one simulated cohort.

    Progression rates are lognormal with median one and onsets are normal,
    so a subject's score at age ``t`` is ``alpha * t + beta``.  The default
    onset mean of ``-70`` places a median subject at score zero at age 70;
    scores then advance by about one unit per year.
    """

    biomarkers: tuple[SynthBiomarker, ...]
    n_subjects: int = 100
    alpha_log_sd: float = 0.05
    beta_mean: float = -70.0
    beta_sd: float = 1.0
    baseline_age_mean: float = 70.0
    baseline_age_sd: float = 5.0
    n_visits: int = 8
    visit_interval: float = 1.0
    visit_jitter: float = 0.1
    missing_rate: float = 0.0
    dx_thresholds: tuple[float, float] = (-1.0, 1.0)
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "biomarkers", tuple(self.biomarkers))
        if not self.biomarkers:
            raise DomainError("need at least one biomarker")
        names = [b.name for b in self.biomarkers]
        if len(set(names)) != len(names):
            raise DomainError("biomarker names must be unique")
        if self.n_subjects < 1 or self.n_visits < 1:
            raise DomainError("need at least one subject and one visit")
        if not 0.0 <= self.missing_rate < 1.0:
            raise DomainError("missing_rate must lie in [0, 1)")
        lo, hi = self.dx_thresholds
        if not lo < hi:
            raise DomainError("dx thresholds must be increasing")
        if self.seed < 0:
            raise DomainError(f"seed must be nonnegative, got {self.seed}")
        for name in ("alpha_log_sd", "beta_sd", "baseline_age_sd", "visit_interval", "visit_jitter"):
            value = getattr(self, name)
            if not 0.0 <= value < np.inf:
                raise DomainError(f"{name} must be nonnegative and finite, got {value}")
        for name in ("beta_mean", "baseline_age_mean"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise DomainError(f"{name} must be finite, got {value}")


def _direction(p: CurveParams) -> Direction:
    return Direction.INCREASING if p.a > p.d else Direction.DECREASING


def generate(spec: SynthSpec) -> tuple[Cohort, FittedModel]:
    """Simulate a cohort and return it with its generating model.

    Per-subject substreams are derived from ``(seed, subject index)``, so
    the output is reproducible and subjects could be generated in
    parallel without changing it.  Each subject draws its rate, its onset
    and its baseline age, then per visit the age jitter (if
    ``visit_jitter > 0``) and per biomarker the missingness draw (if
    ``missing_rate > 0``) and the noise draw (if ``noise_sd > 0``); a
    missing value draws no noise.

    The first pass makes every draw in that order and records each visit's
    score and each present value's noise.  The second pass evaluates each
    true curve once, over the scores of its present values, and adds the
    noise: one curve call per biomarker, with the same float operations,
    and so the same values, as a call per value.
    """
    subjects: dict[str, SubjectParams] = {}
    ages: list[float] = []
    dx_codes: list[int] = []
    lo, hi = spec.dx_thresholds
    scores: list[float] = []
    present: list[list[int]] = [[] for _ in spec.biomarkers]
    noise: list[list[float]] = [[] for _ in spec.biomarkers]
    for i in range(spec.n_subjects):
        rng = np.random.default_rng([spec.seed, i])
        sid = f"s{i:04d}"
        alpha = float(np.exp(spec.alpha_log_sd * rng.standard_normal()))
        beta = float(spec.beta_mean + spec.beta_sd * rng.standard_normal())
        subjects[sid] = SubjectParams(alpha=alpha, beta=beta)
        base_age = spec.baseline_age_mean + spec.baseline_age_sd * rng.standard_normal()
        for j in range(spec.n_visits):
            age = base_age + j * spec.visit_interval
            if spec.visit_jitter > 0:
                age += spec.visit_jitter * rng.standard_normal()
            age = max(age, 1.0)
            score = alpha * age + beta
            if score < lo:
                dx = Diagnosis.CN
            elif score < hi:
                dx = Diagnosis.MCI
            else:
                dx = Diagnosis.AD
            for k, bm in enumerate(spec.biomarkers):
                if spec.missing_rate > 0 and rng.random() < spec.missing_rate:
                    continue
                present[k].append(len(scores))
                if bm.noise_sd > 0:
                    noise[k].append(bm.noise_sd * rng.standard_normal())
            ages.append(float(age))
            dx_codes.append(dx.code)
            scores.append(score)

    score_array = np.array(scores, dtype=float)
    values = np.full((score_array.size, len(spec.biomarkers)), np.nan)
    for k, bm in enumerate(spec.biomarkers):
        curve = curves_mod.evaluate(bm.params, score_array[present[k]])
        if bm.noise_sd > 0:
            curve = curve + np.array(noise[k], dtype=float)
        values[present[k], k] = curve

    specs = {
        bm.name: BiomarkerSpec(
            name=bm.name,
            valid_range=None,
            constraint_policy=ConstraintPolicy.FREE,
            direction_hint=_direction(bm.params),
        )
        for bm in spec.biomarkers
    }
    truth = FittedModel(
        curve_kind=spec.biomarkers[0].params.kind,
        loss_kind=LossKind.L2,
        curves={bm.name: bm.params for bm in spec.biomarkers},
        sigma={bm.name: max(bm.noise_sd, 1e-12) for bm in spec.biomarkers},
        subjects=subjects,
        standardization=Standardization(),
        provenance={"seed": spec.seed, "source": "synthetic"},
    )
    ids = sorted(subjects)
    number = {sid: i for i, sid in enumerate(ids)}
    cohort = Cohort.from_columns(
        specs,
        ids,
        sub=np.repeat([number[sid] for sid in subjects], spec.n_visits),
        visit_index=np.tile(np.arange(spec.n_visits), spec.n_subjects),
        age=ages,
        dx=dx_codes,
        tag=["synthetic"] * len(ages),
        icv=np.full(len(ages), np.nan),
        date=np.zeros(len(ages), dtype=np.int64),
        values=values[:, np.argsort([bm.name for bm in spec.biomarkers])],
    )
    return cohort, truth


def inject_outliers(
    cohort: Cohort,
    *,
    fraction: float,
    magnitude: float = 5.0,
    seed: int = 0,
) -> tuple[Cohort, list[tuple[str, int, str]]]:
    """Replace a random share of values with gross errors.

    ``round(fraction * n)`` present values are chosen uniformly without
    replacement and redrawn uniformly from an interval ``magnitude`` times
    as wide as the biomarker's observed range, centered on that range.
    Returns the corrupted cohort and the ``(subject, visit, biomarker)``
    cells touched.
    """
    if not 0.0 <= fraction <= 1.0:
        raise DomainError(f"fraction must lie in [0, 1], got {fraction}")
    if not 0.0 <= magnitude < np.inf:
        raise DomainError(f"magnitude must be nonnegative and finite, got {magnitude}")
    rows, cols = cohort.cells()
    n_corrupt = int(round(fraction * rows.size))
    if n_corrupt == 0:
        return cohort, []

    # Each biomarker's observed range, over its present values.
    present = ~np.isnan(cohort.values)
    lows = np.where(present, cohort.values, np.inf).min(axis=0).tolist()
    highs = np.where(present, cohort.values, -np.inf).max(axis=0).tolist()
    names = cohort.biomarker_names()

    values = cohort.values.copy()
    rng = np.random.default_rng([seed, 1])
    chosen = rng.choice(rows.size, size=n_corrupt, replace=False)
    corrupted = []
    for ix in sorted(int(c) for c in chosen):
        row, k = rows[ix], cols[ix]
        lo, hi = lows[k], highs[k]
        mid = 0.5 * (lo + hi)
        half = 0.5 * magnitude * max(hi - lo, 1e-12)
        values[row, k] = float(rng.uniform(mid - half, mid + half))
        corrupted.append((cohort.ids[cohort.sub[row]], int(cohort.visit_index[row]), names[k]))
    return cohort.take(slice(None), values=values), corrupted


# ----------------------------------------------------------------------
# specification files
# ----------------------------------------------------------------------

def load_synth_spec(path) -> SynthSpec:
    """Read a :class:`SynthSpec` from JSON."""
    data = read_json(path)

    def number(value, key: str) -> float:
        # float() would read true as 1.0 and "0.1" as 0.1.
        if type(value) not in (int, float):
            raise SchemaError(f"{path}: {key} must be a number, got {value!r}")
        return float(value)

    try:
        kind = LogisticKind(data.get("curve_kind", "modified_stannard"))
        biomarkers = tuple(
            SynthBiomarker(
                name=str(entry["name"]),
                params=CurveParams(
                    LogisticKind(entry.get("kind", kind)),
                    *(number(entry[key], f"biomarker {entry['name']!r}: {key}")
                      for key in ("a", "d", "b", "c")),
                    gamma=number(entry.get("gamma", 1.0), f"biomarker {entry['name']!r}: gamma"),
                ),
                noise_sd=number(entry.get("noise_sd", 0.0), f"biomarker {entry['name']!r}: noise_sd"),
            )
            for entry in data["biomarkers"]
        )
        scalars = {
            "n_subjects": int,
            "alpha_log_sd": float,
            "beta_mean": float,
            "beta_sd": float,
            "baseline_age_mean": float,
            "baseline_age_sd": float,
            "n_visits": int,
            "visit_interval": float,
            "visit_jitter": float,
            "missing_rate": float,
            "seed": int,
        }
        kwargs = {}
        for key, cast in scalars.items():
            if key not in data:
                continue
            # int() would truncate 2.7 and read true as 1.
            if cast is int and type(data[key]) is not int:
                raise SchemaError(f"{path}: {key} must be an integer, got {data[key]!r}")
            kwargs[key] = int(data[key]) if cast is int else number(data[key], key)
        if "dx_thresholds" in data:
            kwargs["dx_thresholds"] = tuple(
                number(v, "dx_thresholds") for v in data["dx_thresholds"]
            )
        return SynthSpec(biomarkers=biomarkers, **kwargs)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed simulation spec ({exc})") from exc


def write_synth_spec(spec: SynthSpec, path) -> None:
    data = {
        "n_subjects": spec.n_subjects,
        "alpha_log_sd": spec.alpha_log_sd,
        "beta_mean": spec.beta_mean,
        "beta_sd": spec.beta_sd,
        "baseline_age_mean": spec.baseline_age_mean,
        "baseline_age_sd": spec.baseline_age_sd,
        "n_visits": spec.n_visits,
        "visit_interval": spec.visit_interval,
        "visit_jitter": spec.visit_jitter,
        "missing_rate": spec.missing_rate,
        "dx_thresholds": list(spec.dx_thresholds),
        "seed": spec.seed,
        "biomarkers": [
            {
                "name": bm.name,
                "kind": bm.params.kind.value,
                "a": bm.params.a,
                "d": bm.params.d,
                "b": bm.params.b,
                "c": bm.params.c,
                "gamma": bm.params.gamma,
                "noise_sd": bm.noise_sd,
            }
            for bm in spec.biomarkers
        ],
    }
    write_json(path, data, indent=2)

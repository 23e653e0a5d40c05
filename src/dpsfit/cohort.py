"""Longitudinal cohort data model, CSV ingestion and cleaning filters.

A cohort is a collection of subject visits; each visit carries an age, an
optional calendar date, a clinical diagnosis, a cohort tag, an optional
intracranial volume and a sparse map of biomarker values.  The cleaning
filters below all return new :class:`Cohort` objects, never invent values,
and are idempotent, so a pipeline can be re-run on its own output.

The expected CSV layout is one row per subject visit:

    subject_id,visit_date,age,diagnosis,cohort_tag,icv,<biomarker...>

``visit_date`` and ``icv`` may be absent or empty.  Every other non-reserved
column is a biomarker and must have a matching :class:`BiomarkerSpec`.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DomainError, ParseError, PreprocessingError, SchemaError

__all__ = [
    "Diagnosis",
    "ConstraintPolicy",
    "Direction",
    "BiomarkerSpec",
    "Visit",
    "MeasurementRecord",
    "Cohort",
    "RejectionReport",
    "parse_cohort_csv",
    "write_cohort_csv",
    "load_biomarker_specs",
    "write_biomarker_specs",
    "reject_out_of_range",
    "remove_reverting_diagnoses",
    "match_visits",
    "drop_sparse_subjects",
    "ancova_residuals",
    "DIAGNOSIS_ALIASES",
]

RESERVED_COLUMNS = ("subject_id", "visit_date", "age", "diagnosis", "cohort_tag", "icv")
REPLICATE_SEPARATOR = "#"  # joins a subject id to its copy number in a bootstrap replicate
_MIN_VISITS = 2  # measured visits that constrain a subject's rate
_MIN_CONTROLS = 3  # control records a covariate-adjustment stratum needs

# Alias merging used at parse time: early/late MCI fold into MCI, subjective
# memory complaints and plain "normal" fold into CN, dementia into AD.
DIAGNOSIS_ALIASES = {
    "CN": "CN",
    "NL": "CN",
    "NORMAL": "CN",
    "SMC": "CN",
    "MCI": "MCI",
    "EMCI": "MCI",
    "LMCI": "MCI",
    "AD": "AD",
    "DEMENTIA": "AD",
}


class Diagnosis(str, Enum):
    CN = "CN"
    MCI = "MCI"
    AD = "AD"
    MISSING = "Missing"

    @property
    def severity(self) -> int:
        """Ordinal used for monotonicity checks; missing has none."""
        if self is Diagnosis.MISSING:
            raise ValueError("missing diagnosis has no severity")
        return {"CN": 0, "MCI": 1, "AD": 2}[self.value]


class ConstraintPolicy(str, Enum):
    """How a biomarker's asymptotes are constrained during fitting."""

    FIXED_RANGE = "fixed_range"  # asymptotes pinned to the declared range
    NONNEGATIVE = "nonnegative"  # asymptotes fitted but kept >= 0
    FREE = "free"                # asymptotes fitted without constraints


class Direction(str, Enum):
    """Expected direction of change with worsening disease."""

    INCREASING = "increasing"
    DECREASING = "decreasing"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class BiomarkerSpec:
    """Declared properties of one measured quantity.

    ``valid_range`` bounds plausible raw values and doubles as the pinned
    asymptote pair under the fixed-range policy, which therefore requires
    finite, distinct bounds.
    """

    name: str
    valid_range: tuple[float, float] | None = None
    constraint_policy: ConstraintPolicy = ConstraintPolicy.FREE
    direction_hint: Direction = Direction.UNKNOWN

    def __post_init__(self) -> None:
        object.__setattr__(self, "constraint_policy", ConstraintPolicy(self.constraint_policy))
        object.__setattr__(self, "direction_hint", Direction(self.direction_hint))
        if self.valid_range is not None:
            lo, hi = float(self.valid_range[0]), float(self.valid_range[1])
            if math.isnan(lo) or math.isnan(hi) or not lo < hi:
                raise SchemaError(f"biomarker {self.name!r}: invalid range ({lo}, {hi})")
            object.__setattr__(self, "valid_range", (lo, hi))
        if self.constraint_policy is ConstraintPolicy.FIXED_RANGE:
            if self.valid_range is None or not all(map(math.isfinite, self.valid_range)):
                raise SchemaError(
                    f"biomarker {self.name!r}: fixed-range policy needs finite range bounds"
                )


@dataclass
class Visit:
    """One subject visit with its sparse biomarker values.

    A value of ``None`` in ``values`` means measured-then-rejected or never
    measured; downstream code treats both as missing.
    """

    subject_id: str
    visit_index: int
    age: float
    diagnosis: Diagnosis = Diagnosis.MISSING
    cohort_tag: str = ""
    icv: float | None = None
    date: dt.date | None = None
    values: dict[str, float | None] = field(default_factory=dict)

    def day(self) -> float:
        """Calendar day offset used for visit matching windows."""
        if self.date is not None:
            return float(self.date.toordinal())
        return self.age * 365.25

    def n_present(self) -> int:
        return sum(1 for v in self.values.values() if v is not None)

    def clone(self) -> "Visit":
        return Visit(
            subject_id=self.subject_id,
            visit_index=self.visit_index,
            age=self.age,
            diagnosis=self.diagnosis,
            cohort_tag=self.cohort_tag,
            icv=self.icv,
            date=self.date,
            values=dict(self.values),
        )


@dataclass(frozen=True)
class MeasurementRecord:
    """Flat view of one non-missing biomarker value at one visit."""

    subject_id: str
    visit_index: int
    age: float
    biomarker: str
    value: float
    diagnosis: Diagnosis = Diagnosis.MISSING
    cohort_tag: str = ""
    icv: float | None = None


@dataclass
class Cohort:
    """All visits of a study population plus the biomarker declarations."""

    visits: list[Visit]
    specs: dict[str, BiomarkerSpec]

    def __post_init__(self) -> None:
        for v in self.visits:
            for name in v.values:
                if name not in self.specs:
                    raise SchemaError(f"biomarker {name!r} has no spec")

    def subject_ids(self) -> list[str]:
        return sorted({v.subject_id for v in self.visits})

    def biomarker_names(self) -> list[str]:
        return sorted(self.specs)

    def by_subject(self) -> dict[str, list[Visit]]:
        """Each subject's visits in visit-index order, subjects sorted."""
        groups: dict[str, list[Visit]] = {}
        for v in sorted(self.visits, key=lambda v: v.visit_index):
            groups.setdefault(v.subject_id, []).append(v)
        return {sid: groups[sid] for sid in sorted(groups)}

    def visits_of(self, subject_id: str) -> list[Visit]:
        return self.by_subject().get(subject_id, [])

    def iter_records(self):
        """Yield one :class:`MeasurementRecord` per non-missing value."""
        for v in self.visits:
            for name in sorted(v.values):
                val = v.values[name]
                if val is not None:
                    yield MeasurementRecord(
                        subject_id=v.subject_id,
                        visit_index=v.visit_index,
                        age=v.age,
                        biomarker=name,
                        value=val,
                        diagnosis=v.diagnosis,
                        cohort_tag=v.cohort_tag,
                        icv=v.icv,
                    )

    def n_measurements(self) -> int:
        return sum(v.n_present() for v in self.visits)

    def clone(self) -> "Cohort":
        return Cohort([v.clone() for v in self.visits], dict(self.specs))

    def subset(self, subject_ids) -> "Cohort":
        keep = set(subject_ids)
        return Cohort(
            [v.clone() for v in self.visits if v.subject_id in keep],
            dict(self.specs),
        )


# ----------------------------------------------------------------------
# parsing and serialization
# ----------------------------------------------------------------------

def read_text(path) -> str:
    """The text of the file at ``path``, line endings untouched; a file
    that does not decode raises :class:`ParseError` naming the path."""
    with open(path, newline="") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(
                f"{path}: not {fh.encoding} text ({exc.reason} at byte {exc.start})"
            ) from None


def read_json(path):
    """The JSON value in the file at ``path``; a file that does not decode
    or is not JSON raises :class:`ParseError` naming the path."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from None


def write_csv(path, header, rows) -> None:
    """Write a header and rows as CSV.  A float cell is written as its
    shortest round-trip repr and ``None`` as an empty cell, so rows carry
    Python floats: ``csv`` writes a numpy float's repr, which numpy 2 wraps
    as ``np.float64(...)``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, data, *, indent=1) -> None:
    """Write ``data`` as JSON with sorted keys and a final newline."""
    with open(path, "w") as fh:
        json.dump(data, fh, indent=indent, sort_keys=True)
        fh.write("\n")


def _parse_diagnosis(cell: str, merge_aliases: bool) -> Diagnosis:
    text = cell.strip()
    if not text:
        return Diagnosis.MISSING
    key = text.upper()
    if merge_aliases and key in DIAGNOSIS_ALIASES:
        return Diagnosis(DIAGNOSIS_ALIASES[key])
    if key in ("CN", "MCI", "AD"):
        return Diagnosis(key)
    return Diagnosis.MISSING


def _parse_date(cell: str, path, lineno: int) -> dt.date | None:
    text = cell.strip()
    if not text:
        return None
    try:
        return dt.date.fromisoformat(text)
    except ValueError as exc:
        raise ParseError(f"{path}: line {lineno}: bad visit_date {text!r}") from exc


def _parse_float(cell: str, path, lineno: int, column: str) -> float | None:
    text = cell.strip()
    if not text:
        return None
    try:
        value = float(text)
    except ValueError as exc:
        raise ParseError(f"{path}: line {lineno}: column {column!r}: bad number {text!r}") from exc
    if not math.isfinite(value):
        raise ParseError(f"{path}: line {lineno}: column {column!r}: non-finite value")
    return value


def parse_cohort_csv(
    path,
    specs: dict[str, BiomarkerSpec],
    *,
    merge_diagnosis_aliases: bool = True,
) -> Cohort:
    """Read a visit-per-row CSV into a :class:`Cohort`.

    Every non-reserved column must appear in ``specs``.  Visit indices are
    assigned per subject in (date, age, file order) order.  Unknown
    diagnosis labels become missing; known aliases are merged when
    ``merge_diagnosis_aliases`` is set.
    """
    with io.StringIO(read_text(path), newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: line 1: missing header (empty file)") from None
        header = [h.strip() for h in header]
        if "subject_id" not in header or "age" not in header:
            raise SchemaError(f"{path}: line 1: header must contain subject_id and age")
        col = {name: i for i, name in enumerate(header)}
        if len(col) < len(header):
            repeated = next(name for i, name in enumerate(header) if col[name] != i)
            raise SchemaError(f"{path}: line 1: duplicate column {repeated!r}")
        biomarker_cols = [h for h in header if h not in RESERVED_COLUMNS]
        for name in biomarker_cols:
            if name not in specs:
                raise SchemaError(f"{path}: line 1: biomarker column {name!r} has no spec")

        rows = []
        for lineno, cells in enumerate(reader, start=2):
            if not any(c.strip() for c in cells):
                continue
            if len(cells) != len(header):
                raise ParseError(
                    f"{path}: line {lineno}: expected {len(header)} cells, got {len(cells)}"
                )
            sid = cells[col["subject_id"]].strip()
            if not sid:
                raise ParseError(f"{path}: line {lineno}: empty subject_id")
            if REPLICATE_SEPARATOR in sid:
                raise ParseError(
                    f"{path}: line {lineno}: subject_id may not contain {REPLICATE_SEPARATOR!r}"
                )
            age = _parse_float(cells[col["age"]], path, lineno, "age")
            if age is None or age <= 0:
                raise ParseError(f"{path}: line {lineno}: age must be a positive number")
            date = (
                _parse_date(cells[col["visit_date"]], path, lineno) if "visit_date" in col else None
            )
            dx = (
                _parse_diagnosis(cells[col["diagnosis"]], merge_diagnosis_aliases)
                if "diagnosis" in col
                else Diagnosis.MISSING
            )
            tag = cells[col["cohort_tag"]].strip() if "cohort_tag" in col else ""
            icv = _parse_float(cells[col["icv"]], path, lineno, "icv") if "icv" in col else None
            values: dict[str, float | None] = {}
            for name in biomarker_cols:
                value = _parse_float(cells[col[name]], path, lineno, name)
                if value is not None:
                    values[name] = value
            rows.append((sid, date, age, dx, tag, icv, values, lineno))

    visits: list[Visit] = []
    by_subject: dict[str, list] = {}
    for row in rows:
        by_subject.setdefault(row[0], []).append(row)
    for sid in sorted(by_subject):
        entries = by_subject[sid]
        entries.sort(key=lambda r: (r[1].toordinal() if r[1] else r[2] * 365.25, r[7]))
        for index, (sid_, date, age, dx, tag, icv, values, _) in enumerate(entries):
            visits.append(
                Visit(
                    subject_id=sid_,
                    visit_index=index,
                    age=age,
                    diagnosis=dx,
                    cohort_tag=tag,
                    icv=icv,
                    date=date,
                    values=values,
                )
            )
    return Cohort(visits, dict(specs))


def write_cohort_csv(cohort: Cohort, path) -> None:
    """Write a cohort back to the visit-per-row CSV layout."""
    names = cohort.biomarker_names()
    rows = []
    for v in sorted(cohort.visits, key=lambda v: (v.subject_id, v.visit_index)):
        row = [
            v.subject_id,
            v.date.isoformat() if v.date else "",
            float(v.age),
            "" if v.diagnosis is Diagnosis.MISSING else v.diagnosis.value,
            v.cohort_tag,
            None if v.icv is None else float(v.icv),
        ]
        for name in names:
            value = v.values.get(name)
            row.append(None if value is None else float(value))
        rows.append(row)
    write_csv(path, list(RESERVED_COLUMNS) + names, rows)


def load_biomarker_specs(path) -> dict[str, BiomarkerSpec]:
    """Load biomarker declarations from a JSON list.

    Each entry is an object with ``name`` and optional ``range`` (null or
    two numbers), ``constraint_policy`` and ``direction_hint`` keys.
    """
    data = read_json(path)
    if not isinstance(data, list):
        raise SchemaError(f"{path}: expected a JSON list of biomarker specs")
    specs: dict[str, BiomarkerSpec] = {}
    for i, entry in enumerate(data):
        if not isinstance(entry, dict) or "name" not in entry:
            raise SchemaError(f"{path}: entry {i} must be an object with a name")
        name = str(entry["name"])
        if name in specs:
            raise SchemaError(f"{path}: duplicate biomarker {name!r}")
        rng = entry.get("range")
        # JSON numbers decode as int or float; a bool is not a number here.
        if rng is not None and not (
            isinstance(rng, list) and len(rng) == 2 and all(type(v) in (int, float) for v in rng)
        ):
            raise SchemaError(
                f"{path}: entry {name!r}: range must be null or a list of two numbers, got {rng!r}")
        try:
            specs[name] = BiomarkerSpec(
                name=name,
                valid_range=tuple(rng) if rng is not None else None,
                constraint_policy=entry.get("constraint_policy", "free"),
                direction_hint=entry.get("direction_hint", "unknown"),
            )
        except (ValueError, OverflowError) as exc:
            raise SchemaError(f"{path}: entry {name!r}: {exc}") from exc
    return specs


def write_biomarker_specs(specs: dict[str, BiomarkerSpec], path) -> None:
    data = []
    for name in sorted(specs):
        s = specs[name]
        data.append(
            {
                "name": s.name,
                "range": list(s.valid_range) if s.valid_range else None,
                "constraint_policy": s.constraint_policy.value,
                "direction_hint": s.direction_hint.value,
            }
        )
    write_json(path, data, indent=2)


# ----------------------------------------------------------------------
# cleaning filters
# ----------------------------------------------------------------------

@dataclass
class RejectionReport:
    """Counts of values set to missing, keyed by (biomarker, rule)."""

    counts: dict[tuple[str, str], int] = field(default_factory=dict)

    def add(self, biomarker: str, rule: str) -> None:
        key = (biomarker, rule)
        self.counts[key] = self.counts.get(key, 0) + 1

    def total(self) -> int:
        return sum(self.counts.values())

    def rows(self) -> list[tuple[str, str, int]]:
        return [(b, r, n) for (b, r), n in sorted(self.counts.items())]

    def to_csv(self, path) -> None:
        write_csv(path, ["biomarker", "rule", "count"], self.rows())


def reject_out_of_range(cohort: Cohort) -> tuple[Cohort, RejectionReport]:
    """Mark implausible values as missing.

    A value outside its declared range is rejected, as is any value larger
    than the visit's intracranial volume when one is present (a volume
    fraction above one is anatomically impossible).
    """
    out = cohort.clone()
    report = RejectionReport()
    for v in out.visits:
        for name in sorted(v.values):
            value = v.values[name]
            if value is None:
                continue
            spec = out.specs[name]
            if spec.valid_range is not None:
                lo, hi = spec.valid_range
                if value < lo or value > hi:
                    v.values[name] = None
                    report.add(name, "out_of_range")
                    continue
            if v.icv is not None and v.icv > 0 and value / v.icv > 1.0:
                v.values[name] = None
                report.add(name, "icv_ratio")
    return out, report


def _keep_longest_monotone(severities: list[int]) -> list[int]:
    """Indices of the longest non-decreasing subsequence.

    Among all maximum-length subsequences, returns the lexicographically
    smallest index set, which keeps the earliest visits and therefore
    removes the later visit on ties.
    """
    n = len(severities)
    if n == 0:
        return []
    # tail[i]: longest non-decreasing run starting at i.
    tail = [1] * n
    for i in range(n - 2, -1, -1):
        best = 0
        for j in range(i + 1, n):
            if severities[j] >= severities[i] and tail[j] > best:
                best = tail[j]
        tail[i] = 1 + best
    need = max(tail)
    keep: list[int] = []
    last = -1
    start = 0
    while need > 0:
        for i in range(start, n):
            if tail[i] == need and (last < 0 or severities[i] >= last):
                keep.append(i)
                last = severities[i]
                start = i + 1
                break
        need -= 1
    return keep


def remove_reverting_diagnoses(cohort: Cohort) -> Cohort:
    """Blank out diagnosis labels that break monotone progression.

    For each subject, the minimal set of labels whose removal leaves the
    remaining diagnoses non-decreasing (CN <= MCI <= AD over time) is
    erased; measurements at those visits are kept.  Ties prefer removing
    the later visit.
    """
    out = cohort.clone()
    for visits in out.by_subject().values():
        labeled = [v for v in visits if v.diagnosis is not Diagnosis.MISSING]
        if len(labeled) < 2:
            continue
        severities = [v.diagnosis.severity for v in labeled]
        keep = set(_keep_longest_monotone(severities))
        for i, v in enumerate(labeled):
            if i not in keep:
                v.diagnosis = Diagnosis.MISSING
    return out


def match_visits(cohort: Cohort, *, window_days: float = 92.0) -> Cohort:
    """Attach undiagnosed visits to nearby diagnosed ones.

    Imaging or fluid collections are often dated separately from the
    clinical exam.  Any visit without a diagnosis whose date falls within
    ``window_days`` of a diagnosed visit of the same subject is merged into
    that visit (equidistant candidates prefer the earlier one).  Values
    already present at the target are never overwritten; leftovers stay on
    their own visit with a missing diagnosis.  Visit indices are compacted
    afterwards.
    """
    if not window_days >= 0.0:
        raise DomainError(f"window_days must be nonnegative, got {window_days}")
    out = cohort.clone()
    new_visits: list[Visit] = []
    for visits in out.by_subject().values():
        anchors = [v for v in visits if v.diagnosis is not Diagnosis.MISSING]
        floaters = [v for v in visits if v.diagnosis is Diagnosis.MISSING]
        if anchors:
            for f in floaters:
                fday = f.day()
                best = min(anchors, key=lambda a: (abs(a.day() - fday), a.day()))
                if abs(best.day() - fday) <= window_days:
                    for name in sorted(f.values):
                        value = f.values[name]
                        if value is not None and best.values.get(name) is None:
                            best.values[name] = value
                            f.values[name] = None
                    if best.icv is None and f.icv is not None:
                        best.icv = f.icv
        kept = [v for v in visits if v.n_present() > 0 or v.diagnosis is not Diagnosis.MISSING]
        kept.sort(key=lambda v: (v.day(), v.visit_index))
        for index, v in enumerate(kept):
            v.visit_index = index
        new_visits.extend(kept)
    return Cohort(new_visits, dict(out.specs))


def drop_sparse_subjects(cohort: Cohort) -> Cohort:
    """Remove subjects with fewer than two measured visits.

    A visit counts when it carries at least one non-missing value; a single
    visit cannot constrain a subject's rate, however many biomarkers it
    holds.
    """
    counts: dict[str, int] = {}
    for v in cohort.visits:
        if v.n_present() > 0:
            counts[v.subject_id] = counts.get(v.subject_id, 0) + 1
    keep = {sid for sid, n in counts.items() if n >= _MIN_VISITS}
    return cohort.subset(keep)


def ancova_residuals(cohort: Cohort, volumetric: list[str]) -> Cohort:
    """Replace volumetric values by covariate-adjusted standardized residuals.

    For each (biomarker, cohort_tag) stratum, an ordinary least squares line
    ``value ~ icv`` is fitted on the cognitively normal records only, the
    fitted trend is subtracted from every record in the stratum, and the
    residuals are standardized to zero mean and unit variance over the
    stratum.  Head size differences are removed without letting patient
    atrophy leak into the adjustment.  Declared ranges no longer apply to
    the adjusted scale, so run range rejection first.
    """
    out = cohort.clone()
    for name in volumetric:
        if name not in out.specs:
            raise SchemaError(f"unknown volumetric biomarker {name!r}")
    for name in sorted(volumetric):
        tags = sorted({v.cohort_tag for v in out.visits if v.values.get(name) is not None})
        for tag in tags:
            stratum = [
                v for v in out.visits
                if v.cohort_tag == tag and v.values.get(name) is not None
            ]
            for v in stratum:
                if v.icv is None:
                    raise PreprocessingError(
                        f"biomarker {name!r}, cohort {tag!r}: record without ICV"
                    )
            controls = [v for v in stratum if v.diagnosis is Diagnosis.CN]
            if len(controls) < _MIN_CONTROLS:
                raise PreprocessingError(
                    f"biomarker {name!r}, cohort {tag!r}: "
                    f"{len(controls)} control records, need >= {_MIN_CONTROLS}"
                )
            icv_cn = np.array([v.icv for v in controls])
            val_cn = np.array([v.values[name] for v in controls])
            icv_var = float(np.sum((icv_cn - icv_cn.mean()) ** 2))
            if icv_var > 0.0:
                slope = float(np.sum((icv_cn - icv_cn.mean()) * (val_cn - val_cn.mean())) / icv_var)
            else:
                slope = 0.0
            intercept = float(val_cn.mean() - slope * icv_cn.mean())

            residuals = np.array(
                [v.values[name] - (intercept + slope * v.icv) for v in stratum]
            )
            sd = float(residuals.std())
            if sd <= 0.0:
                raise PreprocessingError(
                    f"biomarker {name!r}, cohort {tag!r}: degenerate residual spread"
                )
            mean = float(residuals.mean())
            for v, r in zip(stratum, residuals):
                v.values[name] = float((r - mean) / sd)
    return out

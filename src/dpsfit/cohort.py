"""Longitudinal cohort data model, CSV ingestion and cleaning filters.

A cohort is a collection of subject visits; each visit carries an age, an
optional calendar date, a clinical diagnosis, a cohort tag, an optional
intracranial volume and a value for any of the declared biomarkers.  A
:class:`Cohort` holds them as typed columns, one entry per visit, from the
parse on:

- ``ids``, the sorted subject ids, and ``sub``, each visit's index into
  them;
- ``visit_index``, ``age``, ``dx`` (the diagnosis's index into
  :data:`DIAGNOSES`), ``tag``, ``icv`` (NaN where absent) and ``date``
  (the date's ordinal, 0 where absent);
- ``values``, a visits x biomarkers matrix, biomarkers in sorted name
  order, with NaN for a missing value.

Rows are in subject, then visit-index order, so each subject's visits are
one run of rows, and the columns are read-only.  The cleaning filters
below return new cohorts, never invent values, and are idempotent, so a
pipeline can be re-run on its own output.  ``Cohort(visits, specs)``
builds a cohort from hand-made :class:`Visit` objects, and
:attr:`Cohort.visits` builds such objects back from the columns.

The expected CSV layout is one row per subject visit:

    subject_id,visit_date,age,diagnosis,cohort_tag,icv,<biomarker...>

``visit_date`` and ``icv`` may be absent or empty.  Every other non-reserved
column is a biomarker and must have a matching :class:`BiomarkerSpec`.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import itertools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

import numpy as np

from .errors import DomainError, ParseError, PreprocessingError, SchemaError

__all__ = [
    "Diagnosis",
    "DIAGNOSES",
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
_DAYS_PER_YEAR = 365.25

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
    def code(self) -> int:
        """The label's entry in a cohort's ``dx`` column, its index in
        :data:`DIAGNOSES`."""
        return DIAGNOSES.index(self)

    @property
    def severity(self) -> int:
        """Ordinal used for monotonicity checks; missing has none."""
        if self is Diagnosis.MISSING:
            raise ValueError("missing diagnosis has no severity")
        return self.code


# The labels in code order: a known label's code is its severity.
DIAGNOSES = tuple(Diagnosis)


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


class _Values(dict):
    """A visit's values by biomarker name, in name order, holding the
    present ones; a declared biomarker without a value reads ``None``."""

    def __init__(self, present, names: list[str]) -> None:
        super().__init__(present)
        self._names = names

    def __missing__(self, name: str) -> None:
        if name in self._names:
            return None
        raise KeyError(name)


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


# The per-visit columns of a cohort.
_COLUMNS = ("sub", "visit_index", "age", "dx", "tag", "icv", "date", "values")


class Cohort:
    """All visits of a study population plus the biomarker declarations,
    held as read-only columns (see the module docstring)."""

    def __init__(self, visits: Iterable[Visit], specs: dict[str, BiomarkerSpec]) -> None:
        visits = list(visits)
        names = sorted(specs)
        column = {name: k for k, name in enumerate(names)}
        values = np.full((len(visits), len(names)), np.nan)
        for row, v in enumerate(visits):
            for name, value in v.values.items():
                if name not in column:
                    raise SchemaError(f"biomarker {name!r} has no spec")
                if value is not None:
                    values[row, column[name]] = value
        ids = sorted({v.subject_id for v in visits})
        number = {sid: i for i, sid in enumerate(ids)}
        self._store(
            specs,
            ids,
            sub=[number[v.subject_id] for v in visits],
            visit_index=[v.visit_index for v in visits],
            age=[v.age for v in visits],
            dx=[Diagnosis(v.diagnosis).code for v in visits],
            tag=[v.cohort_tag for v in visits],
            icv=[np.nan if v.icv is None else v.icv for v in visits],
            date=[0 if v.date is None else v.date.toordinal() for v in visits],
            values=values,
        )

    @classmethod
    def from_columns(cls, specs: dict[str, BiomarkerSpec], ids: list[str], **columns) -> "Cohort":
        """A cohort of the columns named in :data:`_COLUMNS`, in any row
        order; ``sub`` indexes the sorted ``ids``, and ``values`` has one
        column per biomarker of ``specs`` in name order."""
        cohort = cls.__new__(cls)
        cohort._store(specs, ids, **columns)
        return cohort

    def _store(self, specs, ids, *, sub, visit_index, age, dx, tag, icv, date, values) -> None:
        """Keep the columns read-only, rows in subject then visit-index
        order (ties in their given order), and the ids of the subjects
        that have a visit."""
        sub = np.asarray(sub, dtype=np.intp)
        visit_index = np.asarray(visit_index, dtype=np.intp)
        order = np.lexsort((visit_index, sub))
        used = np.zeros(len(ids), dtype=bool)
        used[sub] = True

        def column(data, dtype):
            array = np.asarray(data, dtype=dtype)[order]
            array.flags.writeable = False
            return array

        self.specs = dict(specs)
        self.ids = list(itertools.compress(ids, used))
        self.sub = column((np.cumsum(used) - 1)[sub], np.intp)
        self.visit_index = column(visit_index, np.intp)
        self.age = column(age, float)
        self.dx = column(dx, np.int8)
        self.tag = column(tag, object)
        self.icv = column(icv, float)
        self.date = column(date, np.int64)
        self.values = column(np.reshape(values, (sub.size, len(self.specs))), float)

    def take(self, rows, *, ids: list[str] | None = None, **columns) -> "Cohort":
        """The cohort of the visits ``rows`` (an index or mask array, or a
        slice) with the given columns, one entry per visit taken, in place
        of theirs; ``ids`` replaces the subject ids that ``sub`` indexes."""
        taken = {name: getattr(self, name)[rows] for name in _COLUMNS}
        return Cohort.from_columns(self.specs, self.ids if ids is None else ids,
                                   **{**taken, **columns})

    def subject_ids(self) -> list[str]:
        return list(self.ids)

    def biomarker_names(self) -> list[str]:
        return sorted(self.specs)

    def bounds(self) -> np.ndarray:
        """The visits of subject ``i`` are the rows ``bounds[i]:bounds[i + 1]``."""
        return np.searchsorted(self.sub, np.arange(len(self.ids) + 1))

    def rows_of(self, subjects) -> tuple[np.ndarray, np.ndarray]:
        """The rows of the visits of ``subjects``, subject indices that may
        repeat, one subject after another; and each row's position in
        ``subjects``."""
        subjects = np.asarray(subjects, dtype=np.intp)
        bounds = self.bounds()
        counts = bounds[subjects + 1] - bounds[subjects]
        owner = np.repeat(np.arange(subjects.size), counts)
        shift = bounds[subjects] - (np.cumsum(counts) - counts)
        return np.arange(owner.size) + shift[owner], owner

    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """The row and the biomarker of every present value, row by row."""
        return np.nonzero(~np.isnan(self.values))

    @property
    def visits(self) -> list[Visit]:
        """Every visit, in row order, built anew from the columns on each
        call: editing one leaves the cohort as it is."""
        names = self.biomarker_names()
        return [
            Visit(
                subject_id=self.ids[s],
                visit_index=index,
                age=age,
                diagnosis=DIAGNOSES[dx],
                cohort_tag=tag,
                icv=None if math.isnan(icv) else icv,
                date=dt.date.fromordinal(day) if day else None,
                values=_Values(itertools.compress(zip(names, row), present), names),
            )
            for s, index, age, dx, tag, icv, day, row, present in zip(
                self.sub.tolist(), self.visit_index.tolist(), self.age.tolist(),
                self.dx.tolist(), self.tag.tolist(), self.icv.tolist(), self.date.tolist(),
                self.values.tolist(), (~np.isnan(self.values)).tolist(),
            )
        ]

    def by_subject(self) -> dict[str, list[Visit]]:
        """Each subject's visits in visit-index order, subjects sorted."""
        groups: dict[str, list[Visit]] = {}
        for v in self.visits:
            groups.setdefault(v.subject_id, []).append(v)
        return groups

    def visits_of(self, subject_id: str) -> list[Visit]:
        return self.subset([subject_id]).visits

    def iter_records(self):
        """Yield one :class:`MeasurementRecord` per non-missing value."""
        for v in self.visits:
            for name, value in v.values.items():
                yield MeasurementRecord(
                    subject_id=v.subject_id,
                    visit_index=v.visit_index,
                    age=v.age,
                    biomarker=name,
                    value=value,
                    diagnosis=v.diagnosis,
                    cohort_tag=v.cohort_tag,
                    icv=v.icv,
                )

    def n_measurements(self) -> int:
        return int(np.count_nonzero(~np.isnan(self.values)))

    def subset(self, subject_ids) -> "Cohort":
        keep = set(subject_ids)
        return self.take(np.array([sid in keep for sid in self.ids], dtype=bool)[self.sub])


def _days(sub: np.ndarray, n_subjects: int, date: np.ndarray, age: np.ndarray) -> np.ndarray:
    """Each visit's day, which orders a subject's visits and measures the
    gap between two: the date's ordinal where every visit of the subject
    is dated, else the age in days.  So a subject with an undated visit
    has all of its visits ordered and matched by age."""
    undated = np.bincount(sub[date == 0], minlength=n_subjects)
    return np.where(undated[sub] == 0, date, age * _DAYS_PER_YEAR)


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


def _numbers(cells) -> np.ndarray:
    """Each cell as a float, NaN for a blank one, in one pass over the
    cells; raises ValueError when one is not a finite number."""
    try:
        numbers = np.array(list(map(float, cells)), dtype=float)
    except ValueError:  # a blank cell, or a bad one
        numbers = np.array([float(c) if c.strip() else math.nan for c in cells], dtype=float)
    odd = np.flatnonzero(~np.isfinite(numbers))
    if any(cells[i].strip() for i in odd.tolist()):
        raise ValueError("non-finite value")
    return numbers


def _ordinal(text: str) -> int:
    return dt.date.fromisoformat(text).toordinal() if text else 0


def _first_error(path, header: list[str], rows: list[list[str]]) -> ParseError:
    """The error of the first bad cell of ``rows``, the records after the
    header, found by checking them row by row and cell by cell in file
    order."""
    col = {name: i for i, name in enumerate(header)}
    biomarker_cols = [h for h in header if h not in RESERVED_COLUMNS]
    try:
        for lineno, cells in enumerate(rows, start=2):
            if not "".join(cells).strip():
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
            if "visit_date" in col:
                _parse_date(cells[col["visit_date"]], path, lineno)
            if "icv" in col:
                _parse_float(cells[col["icv"]], path, lineno, "icv")
            for name in biomarker_cols:
                _parse_float(cells[col[name]], path, lineno, name)
    except ParseError as exc:
        return exc


def parse_cohort_csv(
    path,
    specs: dict[str, BiomarkerSpec],
    *,
    merge_diagnosis_aliases: bool = True,
) -> Cohort:
    """Read a visit-per-row CSV into a :class:`Cohort`.

    Every non-reserved column must appear in ``specs``.  Visit indices are
    assigned per subject in day order (see :func:`_days`), ties in file
    order.  Unknown diagnosis labels become missing; known aliases are
    merged when ``merge_diagnosis_aliases`` is set.  Rows whose cells are
    all blank are skipped.

    Each column is converted in one pass over its cells.  When any cell
    fails, the rows are checked again one by one (:func:`_first_error`),
    so the error names the file's first bad cell.
    """
    with io.StringIO(read_text(path), newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: line 1: missing header (empty file)") from None
        rows = list(reader)
    header = [h.strip() for h in header]
    if "subject_id" not in header or "age" not in header:
        raise SchemaError(f"{path}: line 1: header must contain subject_id and age")
    col = {name: i for i, name in enumerate(header)}
    if len(col) < len(header):
        repeated = next(name for i, name in enumerate(header) if col[name] != i)
        raise SchemaError(f"{path}: line 1: duplicate column {repeated!r}")
    for name in header:
        if name not in RESERVED_COLUMNS and name not in specs:
            raise SchemaError(f"{path}: line 1: biomarker column {name!r} has no spec")

    kept = [cells for cells in rows if "".join(cells).strip()]
    blank = ("",) * len(kept)
    try:
        if any(len(cells) != len(header) for cells in kept):
            raise ValueError("a row of the wrong width")
        column = dict(zip(header, zip(*kept))) if kept else dict.fromkeys(header, ())
        sids = [c.strip() for c in column["subject_id"]]
        if not all(sids) or REPLICATE_SEPARATOR in "".join(sids):
            raise ValueError("a bad subject_id")
        age = _numbers(column["age"])
        if not (age > 0).all():
            raise ValueError("an age that is not positive")
        date = np.array([_ordinal(c.strip()) for c in column.get("visit_date", blank)],
                        dtype=np.int64)
        icv = _numbers(column["icv"]) if "icv" in column else np.full(len(kept), np.nan)
        values = np.full((len(kept), len(specs)), np.nan)
        for k, name in enumerate(sorted(specs)):
            if name in column:
                values[:, k] = _numbers(column[name])
    except ValueError:
        raise _first_error(path, header, rows) from None

    labels = column.get("diagnosis", blank)
    code = {label: _parse_diagnosis(label, merge_diagnosis_aliases).code for label in set(labels)}
    ids = sorted(set(sids))
    number = {sid: i for i, sid in enumerate(ids)}
    sub = np.array([number[sid] for sid in sids], dtype=np.intp)
    order = np.lexsort((_days(sub, len(ids), date, age), sub))
    visit_index = np.empty(len(kept), dtype=np.intp)
    visit_index[order] = np.arange(len(kept)) - np.searchsorted(sub[order], sub[order])
    return Cohort.from_columns(
        specs,
        ids,
        sub=sub,
        visit_index=visit_index,
        age=age,
        dx=[code[label] for label in labels],
        tag=[c.strip() for c in column.get("cohort_tag", blank)],
        icv=icv,
        date=date,
        values=values,
    )


def _cells_or_none(column: np.ndarray) -> list:
    """The column's floats, ``None`` for each NaN, as nested lists."""
    cells = column.astype(object)
    cells[np.isnan(column)] = None
    return cells.tolist()


def write_cohort_csv(cohort: Cohort, path) -> None:
    """Write a cohort back to the visit-per-row CSV layout."""
    labels = [d.value for d in DIAGNOSES]
    labels[Diagnosis.MISSING.code] = ""
    rows = [
        [cohort.ids[s], dt.date.fromordinal(day).isoformat() if day else "", age, labels[dx], tag,
         icv, *values]
        for s, day, age, dx, tag, icv, values in zip(
            cohort.sub.tolist(), cohort.date.tolist(), cohort.age.tolist(), cohort.dx.tolist(),
            cohort.tag.tolist(), _cells_or_none(cohort.icv), _cells_or_none(cohort.values),
        )
    ]
    write_csv(path, list(RESERVED_COLUMNS) + cohort.biomarker_names(), rows)


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
    values = cohort.values.copy()
    report = RejectionReport()
    sized = cohort.icv > 0  # NaN, an absent volume, is not
    for k, name in enumerate(cohort.biomarker_names()):
        value = values[:, k]
        present = ~np.isnan(value)
        out_of_range = np.zeros_like(present)
        if cohort.specs[name].valid_range is not None:
            lo, hi = cohort.specs[name].valid_range
            out_of_range = present & ((value < lo) | (value > hi))
        with np.errstate(divide="ignore", invalid="ignore"):
            over_icv = present & ~out_of_range & sized & (value / cohort.icv > 1.0)
        for rule, rejected in (("out_of_range", out_of_range), ("icv_ratio", over_icv)):
            if rejected.any():
                report.counts[(name, rule)] = int(np.count_nonzero(rejected))
                value[rejected] = np.nan
    return cohort.take(slice(None), values=values), report


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
    dx = cohort.dx.copy()
    missing = Diagnosis.MISSING.code
    bounds = cohort.bounds().tolist()
    for start, stop in zip(bounds, bounds[1:]):
        labeled = start + np.flatnonzero(dx[start:stop] != missing)
        if labeled.size >= 2:
            # A known label's code is its severity.
            dx[np.delete(labeled, _keep_longest_monotone(dx[labeled].tolist()))] = missing
    return cohort.take(slice(None), dx=dx)


def match_visits(cohort: Cohort, *, window_days: float = 92.0) -> Cohort:
    """Attach undiagnosed visits to nearby diagnosed ones.

    Imaging or fluid collections are often dated separately from the
    clinical exam.  Any visit without a diagnosis whose day (see
    :func:`_days`) falls within ``window_days`` of a diagnosed visit of the
    same subject is merged into that visit (equidistant candidates prefer
    the earlier one).  Values already present at the target are never
    overwritten; leftovers stay on their own visit with a missing
    diagnosis.  Visits are then ordered by day, ties by visit index, and
    their indices compacted.
    """
    if not window_days >= 0.0:
        raise DomainError(f"window_days must be nonnegative, got {window_days}")
    values, icv = cohort.values.copy(), cohort.icv.copy()
    day = _days(cohort.sub, len(cohort.ids), cohort.date, cohort.age)
    labeled = cohort.dx != Diagnosis.MISSING.code
    bounds = cohort.bounds().tolist()
    empty = np.empty(0, dtype=np.intp)
    order, index = [empty], [empty]  # each subject's kept rows, and their new indices
    for start, stop in zip(bounds, bounds[1:]):
        rows = np.arange(start, stop)
        anchors = rows[labeled[rows]]
        for f in rows[~labeled[rows]] if anchors.size else []:
            gap = np.abs(day[anchors] - day[f])
            best = np.lexsort((day[anchors], gap))[0]
            if gap[best] <= window_days:
                best = anchors[best]
                moved = ~np.isnan(values[f]) & np.isnan(values[best])
                values[best, moved] = values[f, moved]
                values[f, moved] = np.nan
                if np.isnan(icv[best]):
                    icv[best] = icv[f]
        kept = rows[labeled[rows] | ~np.isnan(values[rows]).all(axis=1)]
        order.append(kept[np.lexsort((cohort.visit_index[kept], day[kept]))])
        index.append(np.arange(kept.size))
    rows = np.concatenate(order)
    return cohort.take(rows, visit_index=np.concatenate(index), icv=icv[rows], values=values[rows])


def drop_sparse_subjects(cohort: Cohort) -> Cohort:
    """Remove subjects with fewer than two measured visits.

    A visit counts when it carries at least one non-missing value; a single
    visit cannot constrain a subject's rate, however many biomarkers it
    holds.
    """
    measured = ~np.isnan(cohort.values).all(axis=1)
    counts = np.bincount(cohort.sub[measured], minlength=len(cohort.ids))
    return cohort.subset(itertools.compress(cohort.ids, counts >= _MIN_VISITS))


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
    for name in volumetric:
        if name not in cohort.specs:
            raise SchemaError(f"unknown volumetric biomarker {name!r}")
    values = cohort.values.copy()
    names = cohort.biomarker_names()
    for name in sorted(volumetric):
        value = values[:, names.index(name)]
        present = ~np.isnan(value)
        for tag in sorted(set(cohort.tag[present].tolist())):
            stratum = np.flatnonzero(present & (cohort.tag == tag))
            if np.isnan(cohort.icv[stratum]).any():
                raise PreprocessingError(
                    f"biomarker {name!r}, cohort {tag!r}: record without ICV"
                )
            controls = stratum[cohort.dx[stratum] == Diagnosis.CN.code]
            if controls.size < _MIN_CONTROLS:
                raise PreprocessingError(
                    f"biomarker {name!r}, cohort {tag!r}: "
                    f"{controls.size} control records, need >= {_MIN_CONTROLS}"
                )
            icv_cn = cohort.icv[controls]
            val_cn = value[controls]
            icv_var = float(np.sum((icv_cn - icv_cn.mean()) ** 2))
            if icv_var > 0.0:
                slope = float(np.sum((icv_cn - icv_cn.mean()) * (val_cn - val_cn.mean())) / icv_var)
            else:
                slope = 0.0
            intercept = float(val_cn.mean() - slope * icv_cn.mean())

            residuals = value[stratum] - (intercept + slope * cohort.icv[stratum])
            sd = float(residuals.std())
            if sd <= 0.0:
                raise PreprocessingError(
                    f"biomarker {name!r}, cohort {tag!r}: degenerate residual spread"
                )
            mean = float(residuals.mean())
            value[stratum] = (residuals - mean) / sd
    return cohort.take(slice(None), values=values)

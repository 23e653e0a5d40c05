import csv
import datetime as dt
import io
import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dpsfit.cohort import (
    BiomarkerSpec,
    Cohort,
    ConstraintPolicy,
    Diagnosis,
    Direction,
    Visit,
    ancova_residuals,
    drop_sparse_subjects,
    load_biomarker_specs,
    match_visits,
    parse_cohort_csv,
    reject_out_of_range,
    remove_reverting_diagnoses,
    write_biomarker_specs,
    write_cohort_csv,
)
from dpsfit.errors import ParseError, PreprocessingError, SchemaError
from dpsfit.progression import _flatten

CN, MCI, AD, MISSING = Diagnosis.CN, Diagnosis.MCI, Diagnosis.AD, Diagnosis.MISSING


def specs_for(*names, valid_range=None):
    return {n: BiomarkerSpec(name=n, valid_range=valid_range) for n in names}


def visit(sid, idx, age, dx=MISSING, values=None, **kwargs):
    return Visit(
        subject_id=sid, visit_index=idx, age=age, diagnosis=dx,
        values=dict(values or {}), **kwargs,
    )


def by_subject(cohort):
    """Each subject's visits in row order, subjects in the order of the rows."""
    groups = {}
    for v in cohort.visits:
        groups.setdefault(v.subject_id, []).append(v)
    return groups


def value_multiset(cohort):
    return sorted(
        (r.subject_id, r.biomarker, r.value) for r in cohort.iter_records()
    )


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------

def test_parse_single_row(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(
        "subject_id,visit_date,age,diagnosis,cohort_tag,icv,MMSE\n"
        "s1,2010-01-05,71.2,CN,adni,,29\n"
    )
    cohort = parse_cohort_csv(path, specs_for("MMSE"))
    records = list(cohort.iter_records())
    assert len(records) == 1
    r = records[0]
    assert (r.subject_id, r.biomarker, r.value) == ("s1", "MMSE", 29.0)
    assert r.diagnosis is CN
    assert r.age == 71.2


def test_parse_empty_cell_means_missing(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(
        "subject_id,age,diagnosis,MMSE,CDRSB\n"
        "s1,70,CN,29,\n"
    )
    cohort = parse_cohort_csv(path, specs_for("MMSE", "CDRSB"))
    records = list(cohort.iter_records())
    assert [r.biomarker for r in records] == ["MMSE"]


def test_parse_merges_diagnosis_aliases(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(
        "subject_id,age,diagnosis,MMSE\n"
        "s1,70,LMCI,28\n"
        "s2,71,EMCI,27\n"
        "s3,72,Dementia,20\n"
        "s4,73,SMC,30\n"
        "s5,74,weird,30\n"
    )
    cohort = parse_cohort_csv(path, specs_for("MMSE"))
    dx = {v.subject_id: v.diagnosis for v in cohort.visits}
    assert dx["s1"] is MCI and dx["s2"] is MCI
    assert dx["s3"] is AD
    assert dx["s4"] is CN
    assert dx["s5"] is MISSING


def test_parse_rejects_malformed_row_with_line_number(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(
        "subject_id,age,MMSE\n"
        "s1,70,29\n"
        "s2,not_a_number,28\n"
    )
    with pytest.raises(ParseError, match="line 3"):
        parse_cohort_csv(path, specs_for("MMSE"))


def test_parse_rejects_unknown_biomarker_column(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("subject_id,age,MMSE,mystery\ns1,70,29,1\n")
    with pytest.raises(SchemaError, match="mystery"):
        parse_cohort_csv(path, specs_for("MMSE"))


@pytest.mark.parametrize("header, repeated", [
    ("subject_id,age,b0,b0", "b0"), ("subject_id,age,age,b0", "age"),
])
def test_parse_rejects_a_repeated_column(tmp_path, header, repeated):
    path = tmp_path / "c.csv"
    path.write_text(f"{header}\ns1,70,1,5\n")
    with pytest.raises(SchemaError) as info:
        parse_cohort_csv(path, specs_for("b0"))
    assert str(info.value) == f"{path}: line 1: duplicate column {repeated!r}"


def test_parse_assigns_visit_indices_in_time_order(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(
        "subject_id,visit_date,age,MMSE\n"
        "s1,2012-06-01,72.5,27\n"
        "s1,2010-06-01,70.5,29\n"
        "s1,2011-06-01,71.5,28\n"
    )
    cohort = parse_cohort_csv(path, specs_for("MMSE"))
    ordered = cohort.visits_of("s1")
    assert [v.visit_index for v in ordered] == [0, 1, 2]
    assert [v.values["MMSE"] for v in ordered] == [29.0, 28.0, 27.0]

    shuffled = Cohort(
        [visit("s2", 1, 66.0), visit("s1", 2, 72.0), visit("s2", 0, 65.0),
         visit("s1", 0, 70.0), visit("s1", 1, 71.0)],
        specs_for("MMSE"),
    )
    groups = by_subject(shuffled)
    assert list(groups) == ["s1", "s2"]
    assert [[v.visit_index for v in vs] for vs in groups.values()] == [[0, 1, 2], [0, 1]]
    assert [v.age for v in shuffled.visits_of("s2")] == [65.0, 66.0]
    assert shuffled.visits_of("s3") == []


def test_parse_orders_a_partly_dated_subject_by_age(tmp_path):
    # An undated visit's day is its age; a dated one's is its date's
    # ordinal, some 700,000 days.  Mixing the two put the undated visit
    # first whatever its age, so a subject with any undated visit is
    # ordered by age, in parsing and in visit matching alike.
    path = tmp_path / "c.csv"
    path.write_text(
        "subject_id,visit_date,age,MMSE\n"
        "s1,2010-01-01,70,1\n"
        "s1,,75,2\n"
        "s1,2012-01-01,72,3\n"
        "s2,2012-01-01,60,4\n"
        "s2,2010-01-01,61,5\n"
    )
    cohort = parse_cohort_csv(path, specs_for("MMSE"))
    for ordered in (cohort, match_visits(cohort)):
        s1 = ordered.visits_of("s1")
        assert [(v.visit_index, v.age, v.values["MMSE"]) for v in s1] == [
            (0, 70.0, 1.0), (1, 72.0, 3.0), (2, 75.0, 2.0)]
        # A subject dated throughout still goes by its dates.
        assert [v.age for v in ordered.visits_of("s2")] == [61.0, 60.0]


def rows(*lines):
    """A cohort file of ``lines`` under a header with dates, ICV and ``b0``."""
    return "\n".join(("subject_id,visit_date,age,icv,b0",) + lines) + "\n"


@pytest.mark.parametrize("text, error, message", [
    (rows("s1,,70,,abc"), ParseError, "line 2: column 'b0': bad number 'abc'"),
    (rows("s1,,70,, inf "), ParseError, "line 2: column 'b0': non-finite value"),
    (rows("s1,,70,,nan"), ParseError, "line 2: column 'b0': non-finite value"),
    (rows("s1,,70,,-Infinity"), ParseError, "line 2: column 'b0': non-finite value"),
    (rows("s1,,70,,1", "  ,,71,,1"), ParseError, "line 3: empty subject_id"),
    (rows("s#1,,70,,1"), ParseError, "line 2: subject_id may not contain '#'"),
    (rows("s1,,0,,1"), ParseError, "line 2: age must be a positive number"),
    (rows("s1,,-3,,1"), ParseError, "line 2: age must be a positive number"),
    (rows("s1,, ,,1"), ParseError, "line 2: age must be a positive number"),
    (rows("s1,,seventy,,1"), ParseError, "line 2: column 'age': bad number 'seventy'"),
    (rows("s1,2010-13-01,70,,1"), ParseError, "line 2: bad visit_date '2010-13-01'"),
    (rows("s1,,70,big,1"), ParseError, "line 2: column 'icv': bad number 'big'"),
    (rows("s1,,70,inf,1"), ParseError, "line 2: column 'icv': non-finite value"),
    (rows("s1,,70,,1", "s1,,71,1"), ParseError, "line 3: expected 5 cells, got 4"),
    (rows("s1,,70,,1,2"), ParseError, "line 2: expected 5 cells, got 6"),
    # Both cells of line 3 are bad: the first in row order is named.
    (rows("s1,,70,,1", "s1,,0,,abc"), ParseError, "line 3: age must be a positive number"),
    # Both cells of line 2 are bad, and b0 comes before age in the header.
    ("subject_id,b0,age\ns1,abc,0\n", ParseError, "line 2: column 'b0': bad number 'abc'"),
    ("subject_id,b0,age\ns1, inf ,\n", ParseError, "line 2: column 'b0': non-finite value"),
    # A bad cell after a row of the wrong width: the row comes first.
    (rows("s1,,70,,1", "s1,,71", "s1,,72,,abc"), ParseError, "line 3: expected 5 cells, got 3"),
    ("subject_id,age,b0,b0\ns1,70,1,2\n", SchemaError, "line 1: duplicate column 'b0'"),
    ("subject_id,age,b0,mystery\ns1,70,1,2\n", SchemaError,
     "line 1: biomarker column 'mystery' has no spec"),
    ("subject_id,b0\ns1,1\n", SchemaError, "line 1: header must contain subject_id and age"),
    ("", ParseError, "line 1: missing header (empty file)"),
])
def test_parse_errors_name_the_first_bad_cell(tmp_path, text, error, message):
    path = tmp_path / "c.csv"
    path.write_text(text)
    with pytest.raises(error) as info:
        parse_cohort_csv(path, specs_for("b0"))
    assert str(info.value) == f"{path}: {message}"


def test_parse_names_the_earlier_of_two_bad_lines(tmp_path):
    # A biomarker cell on line 3 and an age cell on line 5: line 3 is named
    # whichever column a columnwise conversion meets first.
    path = tmp_path / "c.csv"
    path.write_text(
        "subject_id,age,b0\n"
        "s1,70,1\n"
        "s1,71,1.5.2\n"
        "s1,72,3\n"
        "s1,old,4\n"
    )
    with pytest.raises(ParseError) as info:
        parse_cohort_csv(path, specs_for("b0"))
    assert str(info.value) == f"{path}: line 3: column 'b0': bad number '1.5.2'"


def test_parse_reads_padded_and_underscored_numbers_and_skips_blank_rows(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text(
        "subject_id,age,b0,b1\n"
        "\n"
        " s1 , 70 , 1.5 ,1_000\n"
        ",,,\n"
        "   \n"
        "s1,71,,\t2e3 \n"
    )
    cohort = parse_cohort_csv(path, specs_for("b0", "b1"))
    assert [(v.subject_id, v.age, dict(v.values)) for v in cohort.visits] == [
        ("s1", 70.0, {"b0": 1.5, "b1": 1000.0}),
        ("s1", 71.0, {"b1": 2000.0}),
    ]


def test_cohort_csv_round_trip(tmp_path):
    cohort = Cohort(
        [
            visit("s1", 0, 70.25, CN, {"MMSE": 29.0}, icv=1500.0, cohort_tag="a"),
            visit("s1", 1, 71.5, MCI, {"MMSE": 26.5, "HIPPO": 0.41}),
            visit("s2", 0, 65.0, MISSING, {"HIPPO": 0.5}),
        ],
        specs_for("MMSE", "HIPPO"),
    )
    path = tmp_path / "out.csv"
    write_cohort_csv(cohort, path)
    back = parse_cohort_csv(path, cohort.specs)
    assert value_multiset(back) == value_multiset(cohort)
    assert [v.diagnosis for v in back.visits_of("s1")] == [CN, MCI]
    assert back.visits_of("s1")[0].icv == 1500.0


def test_cohort_csv_round_trip_of_numpy_floats(tmp_path):
    # csv writes a float cell as its repr, and numpy 2 spells a numpy
    # float's repr np.float64(...); the writer must not.
    f = np.float64
    cohort = Cohort(
        [
            visit("s1", 0, f(70.5), CN, {"MMSE": f(29.0)}, icv=f(1500.25)),
            visit("s1", 1, f(71.1), MCI, {"MMSE": f(0.1) + f(0.2), "HIPPO": f(1e-7)}),
        ],
        specs_for("MMSE", "HIPPO"),
    )
    path = tmp_path / "out.csv"
    write_cohort_csv(cohort, path)
    back = parse_cohort_csv(path, cohort.specs)
    assert "np." not in path.read_text()
    assert [v.age for v in back.visits] == [70.5, 71.1]
    assert value_multiset(back) == value_multiset(cohort)
    assert back.visits[0].icv == 1500.25


def test_biomarker_spec_json_round_trip(tmp_path):
    specs = {
        "MMSE": BiomarkerSpec(
            "MMSE", (0.0, 30.0), ConstraintPolicy.FIXED_RANGE, Direction.DECREASING
        ),
        "HIPPO": BiomarkerSpec("HIPPO", None, ConstraintPolicy.FREE, Direction.UNKNOWN),
    }
    path = tmp_path / "specs.json"
    write_biomarker_specs(specs, path)
    assert load_biomarker_specs(path) == specs


def test_spec_validation():
    with pytest.raises(SchemaError):
        BiomarkerSpec("x", (3.0, 3.0))
    with pytest.raises(SchemaError):
        BiomarkerSpec("x", None, ConstraintPolicy.FIXED_RANGE)
    with pytest.raises(SchemaError):
        Cohort([visit("s1", 0, 70.0, values={"unknown": 1.0})], {})


# ----------------------------------------------------------------------
# range rejection
# ----------------------------------------------------------------------

def test_reject_out_of_range_marks_missing_and_counts():
    cohort = Cohort(
        [
            visit("s1", 0, 70, CN, {"RAVLT_IR": -2.0, "MMSE": 29.0}),
            visit("s1", 1, 71, CN, {"RAVLT_IR": 31.0, "MMSE": 35.0}),
        ],
        {
            "RAVLT_IR": BiomarkerSpec("RAVLT_IR", (0.0, 75.0)),
            "MMSE": BiomarkerSpec("MMSE", (0.0, 30.0)),
        },
    )
    cleaned, report = reject_out_of_range(cohort)
    assert cleaned.visits[0].values["RAVLT_IR"] is None
    assert cleaned.visits[0].values["MMSE"] == 29.0
    assert cleaned.visits[1].values["RAVLT_IR"] == 31.0  # inside range
    assert cleaned.visits[1].values["MMSE"] is None
    assert dict(report.counts) == {
        ("RAVLT_IR", "out_of_range"): 1,
        ("MMSE", "out_of_range"): 1,
    }


def test_reject_volume_exceeding_icv():
    cohort = Cohort(
        [visit("s1", 0, 70, CN, {"VENT": 1.2}, icv=1.0)],
        specs_for("VENT"),
    )
    cleaned, report = reject_out_of_range(cohort)
    assert cleaned.visits[0].values["VENT"] is None
    assert report.counts == {("VENT", "icv_ratio"): 1}


def test_reject_out_of_range_noop_when_all_in_range():
    cohort = Cohort(
        [visit("s1", 0, 70, CN, {"MMSE": 29.0})],
        {"MMSE": BiomarkerSpec("MMSE", (0.0, 30.0))},
    )
    cleaned, report = reject_out_of_range(cohort)
    assert report.total() == 0
    assert value_multiset(cleaned) == value_multiset(cohort)


# ----------------------------------------------------------------------
# reverting diagnoses
# ----------------------------------------------------------------------

def sequence_cohort(labels):
    return Cohort(
        [visit("s1", i, 70.0 + i, dx, {"MMSE": 25.0}) for i, dx in enumerate(labels)],
        specs_for("MMSE"),
    )


def minimal_keep_oracle(severities):
    """Lexicographically smallest maximum-size monotone index set."""
    n = len(severities)
    best = None
    for size in range(n, 0, -1):
        candidates = [
            keep
            for keep in itertools.combinations(range(n), size)
            if all(
                severities[keep[i]] <= severities[keep[i + 1]]
                for i in range(len(keep) - 1)
            )
        ]
        if candidates:
            best = min(candidates)
            break
    return set(best or ())


def test_reverting_diagnosis_example():
    cohort = sequence_cohort([CN, MCI, CN, MCI, AD])
    cleaned = remove_reverting_diagnoses(cohort)
    dx = [v.diagnosis for v in cleaned.visits_of("s1")]
    assert dx == [CN, MCI, MISSING, MCI, AD]
    # measurements stay behind
    assert cleaned.visits_of("s1")[2].values["MMSE"] == 25.0


def test_monotone_sequences_unchanged():
    for labels in ([CN, CN, MCI, AD], [CN], [MCI, AD], [AD, AD]):
        cohort = sequence_cohort(labels)
        cleaned = remove_reverting_diagnoses(cohort)
        assert [v.diagnosis for v in cleaned.visits_of("s1")] == labels


def test_reverting_diagnosis_matches_enumeration_oracle():
    ordered = [CN, MCI, AD]
    for n in range(2, 6):
        for combo in itertools.product(range(3), repeat=n):
            labels = [ordered[i] for i in combo]
            cleaned = remove_reverting_diagnoses(sequence_cohort(labels))
            kept = {
                i
                for i, v in enumerate(cleaned.visits_of("s1"))
                if v.diagnosis is not MISSING
            }
            assert kept == minimal_keep_oracle(list(combo)), labels


def test_reverting_diagnosis_ignores_missing_labels():
    cohort = sequence_cohort([CN, MISSING, MCI, MISSING, CN])
    cleaned = remove_reverting_diagnoses(cohort)
    dx = [v.diagnosis for v in cleaned.visits_of("s1")]
    assert dx == [CN, MISSING, MCI, MISSING, MISSING]


# ----------------------------------------------------------------------
# visit matching
# ----------------------------------------------------------------------

def dated_visit(sid, idx, date, dx=MISSING, values=None, **kwargs):
    import datetime as dt

    return visit(
        sid, idx, 70.0 + idx * 0.1, dx, values,
        date=dt.date.fromisoformat(date), **kwargs,
    )


def test_match_visits_merges_within_window():
    cohort = Cohort(
        [
            dated_visit("s1", 0, "2010-01-01", CN, {"MMSE": 29.0}),
            dated_visit("s1", 1, "2010-01-31", MISSING, {"HIPPO": 0.5}),
        ],
        specs_for("MMSE", "HIPPO"),
    )
    matched = match_visits(cohort)
    merged = matched.visits_of("s1")
    assert len(merged) == 1
    assert merged[0].values == {"MMSE": 29.0, "HIPPO": 0.5}
    assert merged[0].diagnosis is CN


def test_match_visits_beyond_window_stays_separate():
    cohort = Cohort(
        [
            dated_visit("s1", 0, "2010-01-01", CN, {"MMSE": 29.0}),
            dated_visit("s1", 1, "2010-05-01", MISSING, {"HIPPO": 0.5}),
        ],
        specs_for("MMSE", "HIPPO"),
    )
    matched = match_visits(cohort)
    kept = matched.visits_of("s1")
    assert len(kept) == 2
    assert kept[1].diagnosis is MISSING
    assert kept[1].values["HIPPO"] == 0.5


def test_match_visits_equidistant_prefers_earlier():
    cohort = Cohort(
        [
            dated_visit("s1", 0, "2010-01-01", CN, {"MMSE": 29.0}),
            dated_visit("s1", 1, "2010-01-31", MISSING, {"HIPPO": 0.5}),
            dated_visit("s1", 2, "2010-03-02", MCI, {"MMSE": 27.0}),
        ],
        specs_for("MMSE", "HIPPO"),
    )
    matched = match_visits(cohort)
    kept = matched.visits_of("s1")
    assert len(kept) == 2
    assert kept[0].values.get("HIPPO") == 0.5
    assert kept[1].values.get("HIPPO") is None


def test_match_visits_never_overwrites_existing_values():
    cohort = Cohort(
        [
            dated_visit("s1", 0, "2010-01-01", CN, {"HIPPO": 0.6}),
            dated_visit("s1", 1, "2010-01-15", MISSING, {"HIPPO": 0.5}),
        ],
        specs_for("HIPPO"),
    )
    matched = match_visits(cohort)
    kept = matched.visits_of("s1")
    assert kept[0].values["HIPPO"] == 0.6
    # the floater keeps its unmergeable value on its own visit
    assert len(kept) == 2 and kept[1].values["HIPPO"] == 0.5


# ----------------------------------------------------------------------
# sparse subjects
# ----------------------------------------------------------------------

def test_single_visit_subject_dropped_even_with_many_biomarkers():
    cohort = Cohort(
        [visit("s1", 0, 70, CN, {"A": 1.0, "B": 2.0, "C": 3.0})],
        specs_for("A", "B", "C"),
    )
    assert drop_sparse_subjects(cohort).visits == []


def test_two_visit_subject_kept():
    cohort = Cohort(
        [
            visit("s1", 0, 70, CN, {"A": 1.0}),
            visit("s1", 1, 71, CN, {"A": 1.1}),
        ],
        specs_for("A"),
    )
    assert drop_sparse_subjects(cohort).subject_ids() == ["s1"]


def test_visits_without_values_do_not_count():
    cohort = Cohort(
        [
            visit("s1", 0, 70, CN, {"A": 1.0}),
            visit("s1", 1, 71, CN, {}),
        ],
        specs_for("A"),
    )
    assert drop_sparse_subjects(cohort).visits == []


def test_empty_cohort_passes_through():
    cohort = Cohort([], specs_for("A"))
    assert drop_sparse_subjects(cohort).visits == []


# ----------------------------------------------------------------------
# ANCOVA residuals
# ----------------------------------------------------------------------

def ancova_visits():
    rng = np.random.default_rng(21)
    visits = []
    idx = 0
    for i in range(12):
        icv = 1400.0 + 40.0 * rng.standard_normal()
        value = 2.0 + 0.5 * icv  # controls exactly on a line
        visits.append(
            visit(f"c{i}", 0, 70.0, CN, {"VOL": value}, icv=icv, cohort_tag="siteA")
        )
        idx += 1
    for i in range(8):
        icv = 1400.0 + 40.0 * rng.standard_normal()
        value = 2.0 + 0.5 * icv - 30.0 - 5.0 * rng.standard_normal()
        visits.append(
            visit(f"p{i}", 0, 74.0, AD, {"VOL": value}, icv=icv, cohort_tag="siteA")
        )
    return visits


def ancova_cohort():
    return Cohort(ancova_visits(), specs_for("VOL"))


def test_ancova_exact_line_gives_identical_control_residuals():
    adjusted = ancova_residuals(ancova_cohort(), ["VOL"])
    cn_values = [
        v.values["VOL"] for v in adjusted.visits if v.diagnosis is CN
    ]
    # all controls sat exactly on the regression line, so after centering
    # and scaling they share a single residual value
    assert np.ptp(cn_values) <= 1e-9


def test_ancova_standardizes_stratum():
    adjusted = ancova_residuals(ancova_cohort(), ["VOL"])
    values = np.array([v.values["VOL"] for v in adjusted.visits])
    assert abs(values.mean()) <= 1e-10
    assert abs(values.std() - 1.0) <= 1e-10


def test_ancova_control_residuals_orthogonal_to_icv():
    visits = ancova_visits()
    # add noise so the fit is non-trivial
    rng = np.random.default_rng(5)
    for v in visits:
        v.values["VOL"] += 3.0 * rng.standard_normal()
    cohort = Cohort(visits, specs_for("VOL"))
    adjusted = ancova_residuals(cohort, ["VOL"])
    cn = [(v.icv, v.values["VOL"]) for v in adjusted.visits if v.diagnosis is CN]
    icv = np.array([x for x, _ in cn])
    res = np.array([y for _, y in cn])
    dot = float(np.dot(icv - icv.mean(), res - res.mean())) / len(cn)
    assert abs(dot) <= 1e-8


def test_ancova_constant_icv_falls_back_to_intercept():
    visits = [
        visit(f"c{i}", 0, 70.0, CN, {"VOL": 10.0 + i}, icv=1000.0, cohort_tag="x")
        for i in range(4)
    ] + [
        visit("p0", 0, 75.0, AD, {"VOL": 3.0}, icv=1000.0, cohort_tag="x")
    ]
    adjusted = ancova_residuals(Cohort(visits, specs_for("VOL")), ["VOL"])
    raw = np.array([10.0, 11.0, 12.0, 13.0, 3.0])
    centered = raw - 11.5  # mean of the control values
    expected = (centered - centered.mean()) / centered.std()
    got = np.array([v.values["VOL"] for v in adjusted.visits])
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_ancova_requires_controls_and_icv():
    visits = [visit("p0", 0, 70.0, AD, {"VOL": 5.0}, icv=1000.0, cohort_tag="s")]
    with pytest.raises(PreprocessingError, match="control"):
        ancova_residuals(Cohort(visits, specs_for("VOL")), ["VOL"])
    visits = [
        visit(f"c{i}", 0, 70.0, CN, {"VOL": 5.0 + i}, cohort_tag="s")
        for i in range(3)
    ]
    with pytest.raises(PreprocessingError, match="ICV"):
        ancova_residuals(Cohort(visits, specs_for("VOL")), ["VOL"])
    with pytest.raises(SchemaError):
        ancova_residuals(Cohort([], specs_for("VOL")), ["OTHER"])


# ----------------------------------------------------------------------
# filter algebra
# ----------------------------------------------------------------------

def messy_cohort():
    return Cohort(
        [
            visit("s1", 0, 70, CN, {"MMSE": 29.0, "VENT": 0.2}, icv=1.0),
            visit("s1", 1, 71, MCI, {"MMSE": 32.0}),
            visit("s1", 2, 72, CN, {"MMSE": 27.0}),
            visit("s1", 3, 73, AD, {"MMSE": 20.0}),
            visit("s2", 0, 65, CN, {"VENT": 1.4}, icv=1.0),
            visit("s2", 1, 66, CN, {"VENT": 0.3}, icv=1.0),
            visit("s3", 0, 80, AD, {"MMSE": 15.0}),
        ],
        {
            "MMSE": BiomarkerSpec("MMSE", (0.0, 30.0)),
            "VENT": BiomarkerSpec("VENT", None),
        },
    )


def test_filters_are_idempotent():
    cohort = messy_cohort()
    once, _ = reject_out_of_range(cohort)
    twice, report = reject_out_of_range(once)
    assert report.total() == 0
    assert value_multiset(once) == value_multiset(twice)

    once = remove_reverting_diagnoses(cohort)
    twice = remove_reverting_diagnoses(once)
    assert [v.diagnosis for v in once.visits] == [v.diagnosis for v in twice.visits]

    once = drop_sparse_subjects(cohort)
    twice = drop_sparse_subjects(once)
    assert once.subject_ids() == twice.subject_ids()

    once = match_visits(cohort)
    twice = match_visits(once)
    assert value_multiset(once) == value_multiset(twice)


def test_filters_never_invent_values():
    cohort = messy_cohort()
    before = set(value_multiset(cohort))
    cleaned, _ = reject_out_of_range(cohort)
    cleaned = remove_reverting_diagnoses(cleaned)
    cleaned = match_visits(cleaned)
    cleaned = drop_sparse_subjects(cleaned)
    assert set(value_multiset(cleaned)) <= before


# ----------------------------------------------------------------------
# the columns against a row-by-row reference
# ----------------------------------------------------------------------

PROPERTY_SPECS = specs_for("b0", "b1", "b2")  # b2 has a spec but no column
LABELS = {"CN": CN, "MCI": MCI, "LMCI": MCI, "AD": AD, "DEMENTIA": AD}  # as drawn, upper-cased


@st.composite
def cohort_texts(draw):
    """A small cohort CSV: repeated subjects, dates that disagree with the
    ages, blank cells and rows, padded cells, columns in any order."""
    columns = draw(st.permutations(["subject_id", "visit_date", "age", "diagnosis", "b0", "b1"]))
    pad = st.sampled_from(["", " ", "\t "])
    value = st.one_of(st.none(), st.floats(-1e3, 1e3, allow_nan=False), st.just(-0.0))
    lines = [",".join(columns)]
    for _ in range(draw(st.integers(0, 10))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from([",,,,,", "  ", ""])))
            continue
        date = draw(st.one_of(st.none(), st.dates(dt.date(1990, 1, 1), dt.date(2030, 12, 31))))
        cells = {
            "subject_id": draw(st.sampled_from(["s1", "s2", "s10", "t"])),
            "visit_date": "" if date is None else date.isoformat(),
            "age": repr(draw(st.integers(400, 900)) / 10),  # ages repeat
            "diagnosis": draw(st.sampled_from(["", "CN", "mci", "Dementia", "LMCI", "other"])),
            "b0": "" if (x := draw(value)) is None else repr(x),
            "b1": "" if (x := draw(value)) is None else repr(x),
        }
        lines.append(",".join(draw(pad) + cells[c] + draw(pad) for c in columns))
    return "\n".join(lines) + "\n"


def reference_visits(text):
    """Each subject's ``(visit_index, age, date, diagnosis, values)`` rows,
    subjects sorted, from ``csv.DictReader`` rows: a subject's visits in
    date order when all are dated, else in age order, ties in file order."""
    rows = {}
    for line, row in enumerate(csv.DictReader(io.StringIO(text))):
        cells = {name: (cell or "").strip() for name, cell in row.items()}
        if not any(cells.values()):
            continue
        date = dt.date.fromisoformat(cells["visit_date"]) if cells["visit_date"] else None
        values = {name: float(cells[name]) for name in ("b0", "b1") if cells[name]}
        dx = LABELS.get(cells["diagnosis"].upper(), MISSING)
        rows.setdefault(cells["subject_id"], []).append(
            (float(cells["age"]), date, dx, values, line))
    out = {}
    for sid in sorted(rows):
        dated = all(date is not None for _, date, *_ in rows[sid])
        ordered = sorted(rows[sid], key=lambda r: (r[1].toordinal() if dated else r[0] * 365.25, r[4]))
        out[sid] = [(i, age, date, dx, values) for i, (age, date, dx, values, _) in enumerate(ordered)]
    return out


def visit_rows(cohort):
    return {sid: [(v.visit_index, v.age, v.date, v.diagnosis, dict(v.values)) for v in visits]
            for sid, visits in by_subject(cohort).items()}


@settings(max_examples=80, deadline=None)
@given(cohort_texts())
def test_columns_match_a_row_by_row_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("prop") / "c.csv"
    path.write_text(text)
    cohort = parse_cohort_csv(path, PROPERTY_SPECS)
    want = reference_visits(text)
    assert visit_rows(cohort) == want

    sids, names = sorted(want), sorted(PROPERTY_SPECS)
    cells = [
        (sids.index(sid), index, age, names.index(name), value)
        for sid in sids for index, age, _, _, values in want[sid]
        for name, value in sorted(values.items())
    ]
    rows, bm = cohort.cells()
    assert list(zip(cohort.sub[rows].tolist(), cohort.visit_index[rows].tolist(),
                    cohort.age[rows].tolist(), bm.tolist(), cohort.values[rows, bm].tolist())) == cells
    flat = _flatten(cohort)
    assert flat.subject_ids == sids and flat.biomarker_names == names
    assert list(zip(flat.bm.tolist(), flat.sub.tolist(), flat.t.tolist(), flat.y.tolist())) == sorted(
        (bm, sub, age, value) for sub, _, age, bm, value in cells)

    out = tmp_path_factory.mktemp("prop") / "back.csv"
    write_cohort_csv(cohort, out)
    assert visit_rows(parse_cohort_csv(out, PROPERTY_SPECS)) == want


# ----------------------------------------------------------------------
# parse errors against a row-by-row reference
# ----------------------------------------------------------------------

# Each corruption: the columns it may hit (None for the row's width) and
# the text it puts there.
CORRUPTIONS = [
    (("age", "b0", "b1"), "abc"),
    (("age", "b0", "b1"), " inf"),
    (("age",), ""),
    (("age",), "0"),
    (("age",), "-2.5"),
    (("visit_date",), "2010-13-01"),
    (("subject_id",), " "),
    (("subject_id",), "s#1"),
    ((None,), "drop"),
    ((None,), "extra"),
]


def cell_problem(name, text):
    """What is wrong with one stripped cell of a property-test column."""
    if name == "subject_id":
        if not text:
            return "empty subject_id"
        if "#" in text:
            return "subject_id may not contain '#'"
    elif name == "visit_date" and text:
        try:
            dt.date.fromisoformat(text)
        except ValueError:
            return f"bad visit_date {text!r}"
    elif name in ("age", "b0", "b1") and text:
        try:
            value = float(text)
        except ValueError:
            return f"column {name!r}: bad number {text!r}"
        if not math.isfinite(value):
            return f"column {name!r}: non-finite value"
        if name == "age" and value <= 0:
            return "age must be a positive number"
    elif name == "age":
        return "age must be a positive number"
    return None


def reference_error(text):
    """The first problem of the file, line by line and within a line cell
    by cell, as ``line N: problem``; ``None`` for a good file."""
    header, *records = csv.reader(io.StringIO(text))
    for line, cells in enumerate(records, start=2):
        if not "".join(cells).strip():
            continue
        if len(cells) != len(header):
            return f"line {line}: expected {len(header)} cells, got {len(cells)}"
        for name, cell in zip(header, cells):
            if problem := cell_problem(name, cell.strip()):
                return f"line {line}: {problem}"
    return None


@st.composite
def corrupted_texts(draw):
    """A text of :func:`cohort_texts` with 1 to 3 of its cells or rows
    corrupted."""
    header, *records = csv.reader(io.StringIO(draw(cohort_texts())))
    filled = [k for k, cells in enumerate(records) if "".join(cells).strip()]
    assume(filled)
    for _ in range(draw(st.integers(1, 3))):
        cells = records[draw(st.sampled_from(filled))]
        names, text = draw(st.sampled_from(CORRUPTIONS))
        name = draw(st.sampled_from(names))
        if name is not None:
            if header.index(name) < len(cells):  # not a cell a drop removed
                cells[header.index(name)] = text
        elif text == "drop":
            del cells[draw(st.integers(0, len(cells) - 1))]
        else:
            cells.append("1")
    return "\n".join(",".join(cells) for cells in [header, *records]) + "\n"


@settings(max_examples=300, deadline=None)
@given(corrupted_texts())
def test_parse_errors_match_a_row_by_row_reference(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("bad") / "c.csv"
    path.write_text(text)
    want = reference_error(text)
    if want is None:  # the corruptions blanked a whole row
        parse_cohort_csv(path, PROPERTY_SPECS)
        return
    with pytest.raises(ParseError) as info:
        parse_cohort_csv(path, PROPERTY_SPECS)
    assert str(info.value) == f"{path}: {want}"

import math

import numpy as np
import pytest

from dpsfit.cohort import BiomarkerSpec, Cohort, ConstraintPolicy, MeasurementRecord, Visit
from dpsfit.curves import CurveParams, LogisticKind, evaluate
from dpsfit.errors import (
    DomainError,
    IncompatibleModelError,
    InsufficientDataError,
    SchemaError,
    SolverError,
    StandardizationError,
)
from dpsfit.progression import (
    FittedModel,
    SubjectParams,
    compute_dps,
    degrees_of_freedom,
    estimate_subject,
    estimate_subjects,
    load_model,
    param_count,
    predict_biomarkers,
    save_model,
    standardize,
)
from dpsfit.robust_loss import LossKind, rho

VER = LogisticKind.VERHULST


def toy_model(loss=LossKind.LOGISTIC, subjects=None):
    curves = {
        "w": CurveParams(kind=VER, a=1.0, d=0.0, b=1.2, c=0.0),
        "x": CurveParams(kind=VER, a=2.0, d=-1.0, b=0.7, c=2.0),
        "y": CurveParams(kind=VER, a=0.0, d=1.0, b=0.9, c=4.0),
        "z": CurveParams(kind=VER, a=5.0, d=1.0, b=0.5, c=6.0),
    }
    sigma = {"w": 0.3, "x": 0.8, "y": 0.25, "z": 1.1}
    return FittedModel(
        curve_kind=VER,
        loss_kind=loss,
        curves=curves,
        sigma=sigma,
        subjects=dict(subjects or {}),
    )


def records_from(model, sp, ages, biomarkers=None):
    names = biomarkers or sorted(model.curves)
    records = []
    for i, age in enumerate(ages):
        s = compute_dps(sp, age)
        for name in names:
            records.append(
                MeasurementRecord(
                    subject_id="new",
                    visit_index=i,
                    age=age,
                    biomarker=name,
                    value=evaluate(model.curves[name], s),
                )
            )
    return records


# ----------------------------------------------------------------------
# the age -> score map
# ----------------------------------------------------------------------

def test_compute_dps_values():
    assert compute_dps(SubjectParams(1.0, 0.0), 75.0) == 75.0
    assert compute_dps(SubjectParams(0.5, -35.0), 80.0) == pytest.approx(5.0)


def test_compute_dps_increases_with_age():
    sp = SubjectParams(0.37, -20.0)
    ages = np.linspace(50, 90, 9)
    assert np.all(np.diff(compute_dps(sp, ages)) > 0)


def test_subject_params_validation():
    with pytest.raises(DomainError):
        SubjectParams(0.0, 1.0)
    with pytest.raises(DomainError):
        SubjectParams(-1.0, 1.0)
    with pytest.raises(DomainError):
        SubjectParams(1.0, math.nan)


# ----------------------------------------------------------------------
# standardization
# ----------------------------------------------------------------------

def test_standardize_applies_update_equations():
    model = toy_model(subjects={"s1": SubjectParams(1.0, 0.0)})
    model = FittedModel(
        curve_kind=VER,
        loss_kind=model.loss_kind,
        curves={"w": CurveParams(kind=VER, a=1.0, d=0.0, b=1.0, c=4.0)},
        sigma={"w": 0.3},
        subjects={"s1": SubjectParams(1.0, 0.0)},
    )
    out = standardize(model, [0.0, 4.0])  # mean 2, sd 2
    assert out.standardization.applied
    assert out.standardization.mu_cn == pytest.approx(2.0)
    assert out.standardization.sigma_cn == pytest.approx(2.0)
    assert out.subjects["s1"].alpha == pytest.approx(0.5)
    assert out.subjects["s1"].beta == pytest.approx(-1.0)
    assert out.curves["w"].b == pytest.approx(2.0)
    assert out.curves["w"].c == pytest.approx(1.0)


def test_standardize_identity_when_scores_already_standard():
    model = toy_model(subjects={"s1": SubjectParams(1.3, -2.0)})
    out = standardize(model, [-1.0, 1.0])  # mean 0, sd 1
    assert out.subjects["s1"] == model.subjects["s1"]
    assert out.curves == model.curves
    assert out.standardization.applied


def test_standardize_leaves_predictions_unchanged():
    rng = np.random.default_rng(17)
    subjects = {
        f"s{i}": SubjectParams(float(np.exp(0.2 * rng.standard_normal())),
                               float(rng.normal(-70, 3)))
        for i in range(12)
    }
    model = toy_model(subjects=subjects)
    cn_scores = rng.normal(1.5, 2.5, size=40)
    out = standardize(model, cn_scores)

    ages = rng.uniform(60, 90, size=6)
    for sid in subjects:
        before = predict_biomarkers(model, model.subjects[sid], ages)
        after = predict_biomarkers(out, out.subjects[sid], ages)
        for name in model.curves:
            np.testing.assert_allclose(after[name], before[name], atol=1e-10)


def test_standardize_normalizes_cn_scores():
    rng = np.random.default_rng(23)
    model = toy_model(subjects={"s1": SubjectParams(1.0, 0.0)})
    cn_scores = rng.normal(-3.0, 4.0, size=100)
    out = standardize(model, cn_scores)
    mu, sd = out.standardization.mu_cn, out.standardization.sigma_cn
    transformed = (cn_scores - mu) / sd
    assert abs(transformed.mean()) <= 1e-8
    assert abs(transformed.std() - 1.0) <= 1e-8


def test_standardize_rejects_bad_inputs():
    model = toy_model()
    with pytest.raises(StandardizationError):
        standardize(model, [])
    with pytest.raises(StandardizationError):
        standardize(model, [2.0, 2.0, 2.0])
    once = standardize(model, [0.0, 1.0])
    with pytest.raises(StandardizationError):
        standardize(once, [0.0, 1.0])


# ----------------------------------------------------------------------
# prediction
# ----------------------------------------------------------------------

def test_predict_at_inflection():
    model = FittedModel(
        curve_kind=VER,
        loss_kind=LossKind.LOGISTIC,
        curves={"w": CurveParams(kind=VER, a=1.0, d=0.0, b=1.0, c=0.0)},
        sigma={"w": 1.0},
        subjects={},
    )
    out = predict_biomarkers(model, SubjectParams(1.0, -75.0), [75.0])
    assert out["w"][0] == pytest.approx(0.5)


def test_predict_shares_one_score_axis():
    model = toy_model()
    sp = SubjectParams(1.1, -80.0)
    out = predict_biomarkers(model, sp, [70.0, 80.0])
    s = compute_dps(sp, np.array([70.0, 80.0]))
    for name, values in out.items():
        np.testing.assert_allclose(values, evaluate(model.curves[name], s))


def test_predict_empty_ages():
    out = predict_biomarkers(toy_model(), SubjectParams(1.0, 0.0), [])
    assert all(v.size == 0 for v in out.values())


def test_predict_unknown_biomarker_raises():
    with pytest.raises(KeyError):
        predict_biomarkers(
            toy_model(), SubjectParams(1.0, 0.0), [70.0], biomarkers=["nope"]
        )


# ----------------------------------------------------------------------
# subject estimation
# ----------------------------------------------------------------------

def subject_objective(model, sp, records):
    usable = [r for r in records if r.biomarker in model.curves]
    total = 0.0
    for r in usable:
        pred = evaluate(model.curves[r.biomarker], compute_dps(sp, r.age))
        total += rho(model.loss_kind, (r.value - pred) / model.sigma[r.biomarker])
    return total / len(usable)


def test_estimate_subject_recovers_noiseless_truth():
    model = toy_model()
    truth = SubjectParams(1.3, -89.0)
    records = records_from(model, truth, ages=[68.0, 70.0, 72.0, 74.0, 76.0])
    est = estimate_subject(model, records)
    assert est.alpha == pytest.approx(truth.alpha, rel=1e-4)
    assert est.beta == pytest.approx(truth.beta, rel=1e-4)


def test_estimate_subject_objective_descends_from_init():
    model = toy_model()
    truth = SubjectParams(0.8, -52.0)
    rng = np.random.default_rng(3)
    records = records_from(model, truth, ages=[66.0, 69.0, 71.0, 75.0])
    records = [
        MeasurementRecord(
            r.subject_id, r.visit_index, r.age, r.biomarker,
            r.value + 0.1 * rng.standard_normal(),
        )
        for r in records
    ]
    est = estimate_subject(model, records)
    inflections = [p.c for p in model.curves.values()]
    t_mean = float(np.mean(sorted({r.age for r in records})))
    init = SubjectParams(1.0, float(np.median(inflections)) - t_mean)
    assert subject_objective(model, est, records) <= subject_objective(
        model, init, records
    ) + 1e-12


def test_estimate_subject_with_partial_biomarker_overlap():
    model = toy_model()
    truth = SubjectParams(1.1, -75.0)
    records = records_from(
        model, truth, ages=[70.0, 72.0, 74.0, 76.0], biomarkers=["w", "x"]
    )
    est = estimate_subject(model, records)
    ages = np.array([71.0, 75.0])
    want = predict_biomarkers(model, truth, ages)
    got = predict_biomarkers(model, est, ages)
    for name in ("w", "x"):
        np.testing.assert_allclose(got[name], want[name], atol=1e-6)


def test_estimate_subject_prediction_round_trip():
    model = toy_model()
    truth = SubjectParams(0.9, -60.0)
    ages = [65.0, 68.0, 71.0, 74.0, 77.0]
    records = records_from(model, truth, ages=ages)
    est = estimate_subject(model, records)
    sd = {
        name: float(np.std([r.value for r in records if r.biomarker == name], ddof=1))
        for name in model.curves
    }
    errs = []
    for r in records:
        pred = evaluate(model.curves[r.biomarker], compute_dps(est, r.age))
        errs.append(abs(pred - r.value) / sd[r.biomarker])
    assert float(np.mean(errs)) <= 1e-6


def test_estimate_subject_error_cases():
    model = toy_model()
    with pytest.raises(InsufficientDataError):
        estimate_subject(model, [])
    one = MeasurementRecord("n", 0, 70.0, "w", 0.4)
    with pytest.raises(InsufficientDataError):
        estimate_subject(model, [one])
    foreign = [
        MeasurementRecord("n", i, 70.0 + i, "mystery", 1.0) for i in range(3)
    ]
    with pytest.raises(IncompatibleModelError):
        estimate_subject(model, foreign)


def cohort_of(records):
    """A cohort holding the given records, one visit per record."""
    visits = [
        Visit(subject_id=r.subject_id, visit_index=i, age=r.age, values={r.biomarker: r.value})
        for i, r in enumerate(records)
    ]
    specs = {r.biomarker: BiomarkerSpec(name=r.biomarker) for r in records}
    return Cohort(visits, specs)


def relabel(records, sid):
    return [MeasurementRecord(sid, r.visit_index, r.age, r.biomarker, r.value) for r in records]


def test_estimate_subjects_batch_matches_one_subject_solves():
    model = toy_model()
    rng = np.random.default_rng(11)
    truths = {
        "a": (SubjectParams(1.3, -89.0), [68.0, 70.0, 72.0, 74.0, 76.0], None),
        "b": (SubjectParams(0.8, -52.0), [66.0, 69.0, 71.0, 75.0], None),
        "c": (SubjectParams(1.1, -75.0), [70.0, 72.0, 74.0, 76.0], ["w", "x"]),
        "d": (SubjectParams(0.6, -30.0), [61.0, 64.0], ["y", "z"]),
        "e": (SubjectParams(2.0, -170.0), [80.0, 81.0, 82.5], None),
    }
    by_subject = {}
    for sid, (truth, ages, names) in truths.items():
        by_subject[sid] = [
            MeasurementRecord(sid, r.visit_index, r.age, r.biomarker,
                              r.value + 0.05 * rng.standard_normal())
            for r in records_from(model, truth, ages, names)
        ]
    cohort = cohort_of([r for records in by_subject.values() for r in records])
    estimates, failures = estimate_subjects(model, cohort)
    assert failures == {}
    assert sorted(estimates) == sorted(truths)
    for sid, records in by_subject.items():
        single = estimate_subject(model, records)
        assert estimates[sid].alpha == pytest.approx(single.alpha, rel=0, abs=1e-12)
        assert estimates[sid].beta == pytest.approx(single.beta, rel=0, abs=1e-12)


def test_estimate_subjects_skips_bad_subjects_and_keeps_the_rest():
    model = toy_model()
    good = relabel(records_from(model, SubjectParams(1.3, -89.0), [68.0, 70.0, 72.0]), "good")
    other = relabel(records_from(model, SubjectParams(0.9, -60.0), [65.0, 68.0, 71.0]), "other")
    one_point = [MeasurementRecord("one", 0, 70.0, "w", 0.4)]
    foreign = [MeasurementRecord("foreign", i, 70.0 + i, "mystery", 1.0) for i in range(3)]
    absurd = relabel(records_from(model, SubjectParams(1.0, -70.0), [69.0, 71.0]), "absurd")
    absurd[0] = MeasurementRecord("absurd", 0, 69.0, absurd[0].biomarker, 1e308)
    cohort = cohort_of(good + one_point + foreign + other + absurd)
    empty = Visit(subject_id="empty", visit_index=0, age=70.0, values={"w": None})
    cohort = Cohort(cohort.visits + [empty], cohort.specs)

    with np.errstate(over="ignore"):
        estimates, failures = estimate_subjects(model, cohort)
    assert sorted(estimates) == ["good", "other"]
    assert sorted(failures) == ["absurd", "empty", "foreign", "one"]
    assert isinstance(failures["one"], InsufficientDataError)
    assert str(failures["one"]) == "need at least 2 measurement points, got 1"
    assert isinstance(failures["foreign"], IncompatibleModelError)
    assert str(failures["foreign"]) == "subject and model share no biomarkers"
    assert isinstance(failures["empty"], InsufficientDataError)
    assert str(failures["empty"]) == "subject has no measured values"
    assert isinstance(failures["absurd"], SolverError)
    for sid, records in (("good", good), ("other", other)):
        single = estimate_subject(model, records)
        assert estimates[sid].alpha == pytest.approx(single.alpha, rel=0, abs=1e-12)
        assert estimates[sid].beta == pytest.approx(single.beta, rel=0, abs=1e-12)


# ----------------------------------------------------------------------
# complexity accounting
# ----------------------------------------------------------------------

def test_param_count_by_kind_and_policy():
    fixed, free = ConstraintPolicy.FIXED_RANGE, ConstraintPolicy.FREE
    assert param_count(LogisticKind.MODIFIED_STANNARD, fixed) == 3
    assert param_count(LogisticKind.MODIFIED_STANNARD, free) == 5
    assert param_count(LogisticKind.RICHARDS, ConstraintPolicy.NONNEGATIVE) == 5
    assert param_count(VER, fixed) == 2
    assert param_count(LogisticKind.GOMPERTZ, free) == 4


def test_degrees_of_freedom_arithmetic():
    dof = degrees_of_freedom({"a": 100, "b": 100}, {"a": 5, "b": 5}, 20)
    assert dof == 150
    assert degrees_of_freedom({"a": 12}, {"a": 2}, 5) == 0
    with pytest.raises(SchemaError):
        degrees_of_freedom({"a": 10}, {"b": 2}, 1)


# ----------------------------------------------------------------------
# persistence
# ----------------------------------------------------------------------

def test_model_round_trip_is_lossless(tmp_path):
    rng = np.random.default_rng(31)
    subjects = {
        f"s{i}": SubjectParams(
            float(np.exp(rng.standard_normal() * 0.3)), float(rng.normal(-70, 5))
        )
        for i in range(5)
    }
    model = toy_model(subjects=subjects)
    model = standardize(model, list(rng.normal(0.0, 3.0, size=20)))
    model = FittedModel(
        curve_kind=model.curve_kind,
        loss_kind=model.loss_kind,
        curves=model.curves,
        sigma=model.sigma,
        subjects=model.subjects,
        standardization=model.standardization,
        provenance={"seed": 7, "bootstrap_id": 3},
    )
    path = tmp_path / "model.json"
    save_model(model, path)
    back = load_model(path)
    assert back.curve_kind is model.curve_kind
    assert back.loss_kind is model.loss_kind
    assert back.curves == model.curves
    assert back.sigma == model.sigma
    assert back.subjects == model.subjects
    assert back.standardization == model.standardization
    assert back.provenance == {"seed": 7, "bootstrap_id": 3}


def test_load_model_rejects_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"curve_kind": "verhulst"}')
    with pytest.raises(SchemaError):
        load_model(path)


def test_model_requires_matching_sigma_keys():
    with pytest.raises(SchemaError):
        FittedModel(
            curve_kind=VER,
            loss_kind=LossKind.L2,
            curves={"w": CurveParams(kind=VER, a=1, d=0, b=1, c=0)},
            sigma={},
            subjects={},
        )

import math
import warnings

import numpy as np
import pytest

from dpsfit import staging
from dpsfit.cohort import BiomarkerSpec, Cohort, Diagnosis, MeasurementRecord, Visit
from dpsfit.curves import CurveParams, LogisticKind, evaluate
from dpsfit.errors import DomainError, MappingError, SchemaError, StagingError
from dpsfit.progression import FittedModel, SubjectParams
from dpsfit.robust_loss import LossKind
from dpsfit.staging import (
    KdeDensity,
    StagedVisit,
    StagingClassifier,
    TimeMapping,
    collect_class_scores,
    ensemble_posterior,
    fit_classifier,
    fit_time_mapping,
    kde_eval,
    posterior,
    remap_curve_to_time,
    silverman_bandwidth,
    stage_subjects,
)

VER = LogisticKind.VERHULST
CN, MCI, AD = Diagnosis.CN, Diagnosis.MCI, Diagnosis.AD


def delta_density(center, bandwidth=0.25):
    return KdeDensity(samples=[center], bandwidth=bandwidth)


def one_curve_model(curves=None):
    curves = curves or {"m": CurveParams(kind=VER, a=1.0, d=0.0, b=1.0, c=0.0)}
    return FittedModel(
        curve_kind=VER,
        loss_kind=LossKind.LOGISTIC,
        curves=curves,
        sigma={name: 0.5 for name in curves},
        subjects={},
    )


def records_for(model, sp, ages, sid="n"):
    out = []
    for i, age in enumerate(ages):
        s = sp.alpha * age + sp.beta
        for name, p in model.curves.items():
            out.append(
                MeasurementRecord(
                    subject_id=sid, visit_index=i, age=age,
                    biomarker=name, value=evaluate(p, s),
                )
            )
    return out


# ----------------------------------------------------------------------
# kernel density
# ----------------------------------------------------------------------

def test_kde_single_sample_is_a_gaussian():
    d = KdeDensity(samples=[0.0], bandwidth=1.0)
    assert kde_eval(d, 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)
    assert kde_eval(d, 1.0) == pytest.approx(
        math.exp(-0.5) / math.sqrt(2 * math.pi), rel=1e-12
    )


def test_kde_is_symmetric_for_symmetric_samples():
    d = KdeDensity(samples=[-2.0, 0.0, 2.0], bandwidth=0.7)
    pts = np.linspace(0.0, 5.0, 40)
    np.testing.assert_allclose(kde_eval(d, pts), kde_eval(d, -pts), rtol=1e-12)


def test_kde_far_tail_is_finite_and_nonnegative():
    d = KdeDensity(samples=[0.0, 1.0], bandwidth=0.5)
    far = kde_eval(d, np.array([0.5 + 50 * 0.5, 0.5 - 50 * 0.5]))
    assert np.all(far >= 0.0)
    assert np.all(np.isfinite(far))


def test_kde_integrates_to_one():
    samples = np.array([-1.0, 0.5, 2.0, 2.2])
    d = KdeDensity(samples=samples, bandwidth=silverman_bandwidth(samples))
    grid = np.linspace(samples.min() - 12 * d.bandwidth,
                       samples.max() + 12 * d.bandwidth, 40001)
    mass = float(np.trapezoid(kde_eval(d, grid), grid))
    assert abs(mass - 1.0) <= 1e-6


def test_kde_validation():
    with pytest.raises(DomainError):
        KdeDensity(samples=[], bandwidth=1.0)
    with pytest.raises(DomainError):
        KdeDensity(samples=[0.0], bandwidth=0.0)
    with pytest.raises(DomainError):
        kde_eval(KdeDensity(samples=[0.0], bandwidth=1.0), np.inf)


def test_silverman_hand_computed():
    bw = silverman_bandwidth([0.0, 1.0, 2.0, 3.0, 4.0])
    sd = math.sqrt(2.5)
    want = 0.9 * min(sd, 2.0 / 1.34) * 5 ** (-0.2)
    assert bw == pytest.approx(want, rel=1e-12)


def test_silverman_falls_back_to_sd_on_collapsed_iqr():
    samples = [1.0, 1.0, 1.0, 1.0, 2.0]
    want = 0.9 * float(np.std(samples, ddof=1)) * 5 ** (-0.2)
    assert silverman_bandwidth(samples) == pytest.approx(want, rel=1e-12)


def test_silverman_rejects_degenerate_samples():
    with pytest.raises(DomainError):
        silverman_bandwidth([3.0])
    with pytest.raises(DomainError):
        silverman_bandwidth([2.0, 2.0, 2.0])


# ----------------------------------------------------------------------
# classifier
# ----------------------------------------------------------------------

def test_fit_classifier_priors_are_class_frequencies():
    rng = np.random.default_rng(0)
    clf = fit_classifier({
        CN: rng.normal(0, 1, 6),
        MCI: rng.normal(5, 1, 3),
        AD: rng.normal(10, 1, 3),
    })
    assert clf.priors[CN] == pytest.approx(0.5)
    assert clf.priors[MCI] == pytest.approx(0.25)
    assert clf.priors[AD] == pytest.approx(0.25)


def test_fit_classifier_rejects_degenerate_class():
    with pytest.raises(StagingError, match="MCI"):
        fit_classifier({CN: [0.0, 1.0, 2.0], MCI: [3.0, 3.0, 3.0]})
    with pytest.raises(StagingError, match="at least 2"):
        fit_classifier({CN: [0.0, 1.0], AD: [5.0]})


def test_fit_classifier_separated_classes_give_confident_posteriors():
    rng = np.random.default_rng(4)
    centers = {CN: 0.0, MCI: 40.0, AD: 80.0}  # 20+ SDs apart
    clf = fit_classifier({
        label: center + rng.normal(0, 1.0, 30) for label, center in centers.items()
    })
    for label, center in centers.items():
        probs = posterior(clf, center)
        assert probs[label] >= 0.99


def test_posterior_uniform_when_classes_indistinguishable():
    d = delta_density(0.0)
    clf = StagingClassifier(densities={CN: d, AD: d}, priors={CN: 0.5, AD: 0.5})
    probs = posterior(clf, 0.3)
    assert probs[CN] == pytest.approx(0.5, abs=1e-12)
    assert probs[AD] == pytest.approx(0.5, abs=1e-12)


def test_posterior_hand_arithmetic():
    # equal priors, likelihood ratio exactly 1:3 via bandwidths 1 and 1/3
    clf = StagingClassifier(
        densities={
            CN: KdeDensity(samples=[0.0], bandwidth=1.0),
            AD: KdeDensity(samples=[0.0], bandwidth=1.0 / 3.0),
        },
        priors={CN: 0.5, AD: 0.5},
    )
    probs = posterior(clf, 0.0)
    assert probs[CN] == pytest.approx(0.25, rel=1e-12)
    assert probs[AD] == pytest.approx(0.75, rel=1e-12)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_posterior_zero_prior_annihilates_class():
    clf = StagingClassifier(
        densities={CN: delta_density(0.0), AD: delta_density(0.0)},
        priors={CN: 0.0, AD: 1.0},
    )
    assert posterior(clf, 0.0)[CN] == 0.0


def test_posterior_underflow_returns_priors_with_flag():
    clf = StagingClassifier(
        densities={CN: delta_density(0.0), AD: delta_density(1.0)},
        priors={CN: 0.7, AD: 0.3},
    )
    probs, underflow = posterior(clf, 1e6, return_underflow=True)
    assert underflow
    assert probs == {CN: 0.7, AD: 0.3}
    probs, underflow = posterior(clf, 0.5, return_underflow=True)
    assert not underflow
    # An array of scores gives, element by element, what each scalar gives.
    many, flags = posterior(clf, np.array([1e6, 0.5]), return_underflow=True)
    assert flags.tolist() == [True, False]
    assert [many[CN][0], many[AD][0]] == [0.7, 0.3]
    assert [many[CN][1], many[AD][1]] == [probs[CN], probs[AD]]


def test_classifier_validation():
    with pytest.raises(StagingError):
        StagingClassifier(densities={CN: delta_density(0.0)}, priors={AD: 1.0})
    with pytest.raises(StagingError):
        StagingClassifier(
            densities={CN: delta_density(0.0)}, priors={CN: 0.5}
        )


def test_staged_visit_argmax_breaks_ties_toward_milder_class():
    sv = StagedVisit(
        subject_id="s", visit_index=0, age=70.0, dps=0.0,
        probabilities={AD: 0.4, CN: 0.4, MCI: 0.2}, underflow=False,
    )
    assert sv.predicted is CN


# ----------------------------------------------------------------------
# score collection
# ----------------------------------------------------------------------

def test_collect_class_scores_resolves_replicates_and_skips_unlabeled():
    visits = [
        Visit(subject_id="s1", visit_index=0, age=70.0, diagnosis=CN, values={"m": 1.0}),
        Visit(subject_id="s1", visit_index=1, age=72.0, diagnosis=Diagnosis.MISSING,
              values={"m": 1.0}),
        Visit(subject_id="s2", visit_index=0, age=80.0, diagnosis=AD, values={"m": 2.0}),
    ]
    cohort = Cohort(visits, {"m": BiomarkerSpec(name="m")})
    model = FittedModel(
        curve_kind=VER, loss_kind=LossKind.L2,
        curves={"m": CurveParams(kind=VER, a=1, d=0, b=1, c=0)},
        sigma={"m": 1.0},
        subjects={
            "s1#0": SubjectParams(1.0, -69.0),
            "s1#1": SubjectParams(2.0, -139.0),
            "s2": SubjectParams(1.0, -75.0),
        },
    )
    scores = collect_class_scores(model, cohort)
    assert sorted(scores[CN]) == [1.0, 1.0]   # both replicates of s1, CN visit only
    assert scores[AD] == [5.0]
    assert Diagnosis.MISSING not in scores


# ----------------------------------------------------------------------
# ensemble fusion
# ----------------------------------------------------------------------

def spread_classifier(centers):
    return StagingClassifier(
        densities={label: delta_density(c) for label, c in centers.items()},
        priors={label: 1.0 / len(centers) for label in centers},
    )


def test_ensemble_posterior_identical_members():
    model = one_curve_model()
    clf = spread_classifier({CN: -1.0, MCI: 0.0, AD: 1.0})
    truth = SubjectParams(1.0, -2.0)
    records = records_for(model, truth, [1.0, 2.0, 3.0])
    single = ensemble_posterior([(model, clf)], records)
    double = ensemble_posterior([(model, clf), (model, clf)], records)
    assert len(single) == 3
    for a, b in zip(single, double):
        assert a.dps == pytest.approx(b.dps, abs=1e-12)
        for label in (CN, MCI, AD):
            assert a.probabilities[label] == pytest.approx(
                b.probabilities[label], abs=1e-12
            )
    # visit scores are the subject's own timeline
    assert [round(v.dps, 6) for v in single] == [-1.0, 0.0, 1.0]


def test_ensemble_posterior_averages_one_hot_members():
    model = one_curve_model()
    truth = SubjectParams(1.0, -2.0)
    records = records_for(model, truth, [1.5, 2.0, 2.5])
    # scores stay within [-0.5, 0.5]; class centers 30 apart make the
    # member posteriors exact one-hots (the other kernels underflow)
    member_a = (model, spread_classifier({CN: 0.0, MCI: 30.0, AD: 60.0}))
    member_b = (model, spread_classifier({CN: 60.0, MCI: 0.0, AD: 30.0}))
    staged = ensemble_posterior([member_a, member_b], records)
    for v in staged:
        assert v.probabilities[CN] == pytest.approx(0.5, abs=1e-12)
        assert v.probabilities[MCI] == pytest.approx(0.5, abs=1e-12)
        assert v.probabilities[AD] == 0.0
        assert sum(v.probabilities.values()) == pytest.approx(1.0, abs=1e-12)


def test_ensemble_posterior_skips_failing_members():
    good = one_curve_model()
    alien = one_curve_model({"other": CurveParams(kind=VER, a=1, d=0, b=1, c=0)})
    clf = spread_classifier({CN: 0.0, AD: 30.0})
    truth = SubjectParams(1.0, -2.0)
    records = records_for(good, truth, [1.5, 2.5])
    with pytest.warns(UserWarning, match="could not stage"):
        staged = ensemble_posterior([(good, clf), (alien, clf)], records)
    assert staged[0].probabilities[CN] > 0.99

    with pytest.raises(StagingError, match="no ensemble member"):
        ensemble_posterior([(alien, clf)], records)


def test_ensemble_posterior_refuses_records_of_two_subjects(monkeypatch):
    model = one_curve_model()
    clf = spread_classifier({CN: 0.0, AD: 30.0})
    records = (records_for(model, SubjectParams(1.0, -2.0), [1.5, 2.5], sid="a")
               + records_for(model, SubjectParams(1.0, -1.0), [1.0, 2.0], sid="b"))
    monkeypatch.setattr(staging, "stage_subjects", lambda *args: pytest.fail("staged"))
    with pytest.raises(SchemaError, match="'a' and 'b'"):
        ensemble_posterior([(model, clf)], records)


def reference_staging(members, estimates, visits):
    """Staging one subject at a time, one posterior call per member."""
    classes = sorted({label for _, c in members for label in c.densities}, key=lambda d: d.value)
    staged, failures = {}, {}
    for sid, subject_visits in visits.items():
        ages = np.array([age for _, age in subject_visits])
        prob_sum = {label: np.zeros(len(ages)) for label in classes}
        dps_sum = np.zeros(len(ages))
        underflow_any = np.zeros(len(ages), dtype=bool)
        n_used, last_error = 0, None
        for (_, clf), (params, errors) in zip(members, estimates):
            sp = params.get(sid)
            if sp is None:
                last_error = errors.get(sid, last_error)
                continue
            scores = sp.alpha * ages + sp.beta
            dps_sum += scores
            probs, underflow = posterior(clf, scores, return_underflow=True)
            underflow_any |= underflow
            for label in probs:
                prob_sum[label] += probs[label]
            n_used += 1
        if n_used == 0:
            failures[sid] = f"no ensemble member could stage the subject ({last_error})"
            continue
        if n_used < len(members):
            warnings.warn(f"{len(members) - n_used} of {len(members)} ensemble members "
                          f"could not stage subject {sid!r}")
        staged[sid] = []
        for i, (visit_index, age) in enumerate(subject_visits):
            raw = {label: prob_sum[label][i] / n_used for label in classes}
            total = sum(raw.values())
            staged[sid].append(StagedVisit(sid, visit_index, age, float(dps_sum[i] / n_used),
                                           {k: v / total for k, v in raw.items()},
                                           bool(underflow_any[i])))
    return staged, failures


def test_stage_subjects_equals_one_subject_at_a_time_bitwise(monkeypatch):
    rng = np.random.default_rng(4)
    members = [
        (one_curve_model(), fit_classifier({CN: rng.normal(-1.0, 0.5, 40),
                                            MCI: rng.normal(0.2, 0.4, 25),
                                            AD: rng.normal(1.5, 0.6, 30)}))
        for _ in range(3)
    ]
    sids = [f"s{i}" for i in range(12)]
    params = [
        {sid: SubjectParams(rng.uniform(0.5, 2.0), rng.normal(-3.0, 1.0)) for sid in sids}
        for _ in members
    ]
    # Member 1 skips two subjects, and no member can stage a third.
    errors = [{}, {"s3": StagingError("one skip"), "s7": StagingError("two skip")}, {}]
    for p in params:
        del p["s9"]
    errors[2]["s9"] = StagingError("nobody")
    del params[1]["s3"], params[1]["s7"]
    estimates = list(zip(params, errors))
    visits = {sid: [(k, float(a)) for k, a in enumerate(np.sort(rng.uniform(1.0, 4.0, 1 + i % 5)))]
              for i, sid in enumerate(sids)}
    visits["s5"] = [(0, 40.0)]   # far out: every likelihood underflows

    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        want, want_failures = reference_staging(members, estimates, visits)
    # Blocks of a few points each, so that the KDE takes every path.
    monkeypatch.setattr(staging, "_KDE_BLOCK", 100)
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        got, got_failures = stage_subjects(members, estimates, visits)
    assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]
    assert len(got_warnings) == 2
    assert {sid: str(e) for sid, e in got_failures.items()} == want_failures
    assert list(got) == list(want)
    assert got == want   # dataclass equality compares every float exactly
    assert got["s5"][0].underflow


@pytest.mark.parametrize("order", [(0, 1), (1, 0)])
def test_stage_subjects_covers_the_union_of_member_classes(order):
    model = one_curve_model()
    three = spread_classifier({CN: 0.0, MCI: 30.0, AD: 60.0})
    two = spread_classifier({CN: 0.0, MCI: 60.0})
    members = [[(model, three), (model, two)][k] for k in order]
    sp = SubjectParams(1.0, -2.0)
    estimates = [({"n": sp}, {})] * 2
    staged, failures = stage_subjects(members, estimates, {"n": [(0, 62.0)]})
    assert not failures
    probs = staged["n"][0].probabilities
    assert set(probs) == {CN, MCI, AD}
    # At score 60, member ``three`` is sure of AD and ``two`` of MCI.
    assert probs[AD] == pytest.approx(0.5, abs=1e-12)
    assert probs[MCI] == pytest.approx(0.5, abs=1e-12)
    assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)


def test_ensemble_posterior_needs_members_and_visits():
    clf = spread_classifier({CN: 0.0, AD: 1.0})
    with pytest.raises(StagingError):
        ensemble_posterior([], [])
    with pytest.raises(StagingError, match="no visits"):
        ensemble_posterior([(one_curve_model(), clf)], [])


# ----------------------------------------------------------------------
# score-to-time remapping
# ----------------------------------------------------------------------

def test_time_mapping_recovers_exact_line():
    points = [(s, -5.0 + 2.0 * s) for s in [-1.0, 0.0, 0.5, 2.0, 3.0]]
    mapping = fit_time_mapping(points)
    assert mapping.m0 == pytest.approx(-5.0, rel=1e-12, abs=1e-12)
    assert mapping.m1 == pytest.approx(2.0, rel=1e-12)
    assert mapping(1.0) == pytest.approx(-3.0)


def test_time_mapping_noisy_slope_within_standard_error():
    rng = np.random.default_rng(11)
    s = np.linspace(-2, 4, 60)
    noise_sd = 0.5
    t = -5.0 + 2.0 * s + noise_sd * rng.standard_normal(s.size)
    mapping = fit_time_mapping(list(zip(s, t)))
    se = noise_sd / math.sqrt(float(np.sum((s - s.mean()) ** 2)))
    assert abs(mapping.m1 - 2.0) <= 3.0 * se


def test_time_mapping_rejects_degenerate_input():
    with pytest.raises(MappingError):
        fit_time_mapping([(1.0, 2.0)])
    with pytest.raises(MappingError):
        fit_time_mapping([(1.0, 2.0), (1.0, 3.0), (1.0, 4.0)])
    with pytest.raises(MappingError):
        TimeMapping(m0=0.0, m1=0.0)


def test_remap_identity_keeps_curve():
    p = CurveParams(kind=LogisticKind.MODIFIED_STANNARD, a=2, d=0, b=0.7, c=1.2, gamma=2.0)
    q = remap_curve_to_time(p, TimeMapping(m0=0.0, m1=1.0))
    assert q == p


def test_remap_coefficients():
    p = CurveParams(kind=VER, a=1, d=0, b=2.0, c=1.0)
    q = remap_curve_to_time(p, TimeMapping(m0=3.0, m1=2.0))
    assert q.b == pytest.approx(1.0)
    assert q.c == pytest.approx(5.0)


@pytest.mark.parametrize("kind", list(LogisticKind))
def test_remap_preserves_values_functionally(kind):
    gamma = 2.5 if kind.has_symmetry_param else 1.0
    p = CurveParams(kind=kind, a=3.0, d=-1.0, b=0.8, c=0.5, gamma=gamma)
    mapping = TimeMapping(m0=-4.0, m1=1.7)
    q = remap_curve_to_time(p, mapping)
    s = np.linspace(-6, 7, 100)
    np.testing.assert_allclose(evaluate(q, mapping(s)), evaluate(p, s), atol=1e-12)


def test_remap_negative_slope_mirrors_with_warning():
    p = CurveParams(kind=VER, a=1.0, d=0.0, b=0.9, c=0.3)
    mapping = TimeMapping(m0=2.0, m1=-1.5)
    with pytest.warns(UserWarning, match="negative"):
        q = remap_curve_to_time(p, mapping)
    s = np.linspace(-5, 5, 100)
    np.testing.assert_allclose(evaluate(q, mapping(s)), evaluate(p, s), atol=1e-12)

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpsfit.cli import main
from dpsfit.cohort import Diagnosis
from dpsfit.curves import CurveParams, LogisticKind, evaluate
from dpsfit.errors import DomainError, ParseError, SchemaError
from dpsfit.progression import SubjectParams
from dpsfit.synth import (
    SynthBiomarker,
    SynthSpec,
    generate,
    inject_outliers,
    load_synth_spec,
    write_synth_spec,
)

VER = LogisticKind.VERHULST
MS = LogisticKind.MODIFIED_STANNARD
ALL_KINDS = list(LogisticKind)


def two_biomarker_spec(noise=0.0, **overrides):
    biomarkers = (
        SynthBiomarker("up", CurveParams(kind=MS, a=1.0, d=0.0, b=0.9, c=-1.0, gamma=2.0), noise),
        SynthBiomarker("down", CurveParams(kind=MS, a=0.0, d=3.0, b=0.6, c=1.5, gamma=0.5), noise),
    )
    kwargs = dict(biomarkers=biomarkers, n_subjects=30, seed=3)
    kwargs.update(overrides)
    return SynthSpec(**kwargs)


def value_map(cohort):
    return {
        (v.subject_id, v.visit_index, name): value
        for v in cohort.visits
        for name, value in v.values.items()
        if value is not None
    }


# ----------------------------------------------------------------------
# generation
# ----------------------------------------------------------------------

def test_noiseless_values_sit_exactly_on_the_curves():
    cohort, truth = generate(two_biomarker_spec(noise=0.0))
    checked = 0
    for v in cohort.visits:
        sp = truth.subjects[v.subject_id]
        s = sp.alpha * v.age + sp.beta
        for name, value in v.values.items():
            assert value == evaluate(truth.curves[name], s)
            checked += 1
    assert checked == 30 * 8 * 2


def test_generation_is_deterministic_per_seed():
    spec = two_biomarker_spec(noise=0.1)
    a, truth_a = generate(spec)
    b, truth_b = generate(spec)
    assert value_map(a) == value_map(b)
    assert truth_a.subjects == truth_b.subjects
    c, _ = generate(two_biomarker_spec(noise=0.1, seed=4))
    assert value_map(c) != value_map(a)


def test_rates_are_lognormal_with_median_one():
    _, truth = generate(two_biomarker_spec(n_subjects=4000, n_visits=1))
    alphas = np.array([sp.alpha for sp in truth.subjects.values()])
    assert np.all(alphas > 0)
    log_alpha = np.log(alphas)
    assert abs(np.median(log_alpha)) <= 3 * 0.05 / np.sqrt(4000) * 1.25 + 0.003
    assert np.std(log_alpha) == pytest.approx(0.05, rel=0.1)


def test_noise_standard_deviation_matches_request():
    noise = 0.3
    cohort, truth = generate(two_biomarker_spec(noise=noise, n_subjects=2500))
    residuals = []
    for v in cohort.visits:
        sp = truth.subjects[v.subject_id]
        s = sp.alpha * v.age + sp.beta
        for name, value in v.values.items():
            residuals.append(value - evaluate(truth.curves[name], s))
    residuals = np.array(residuals)
    assert residuals.size == 2500 * 8 * 2
    assert float(residuals.std()) == pytest.approx(noise, rel=0.02)
    assert abs(float(residuals.mean())) <= 0.01


def test_diagnoses_follow_score_thresholds():
    lo, hi = -0.5, 2.0
    cohort, truth = generate(two_biomarker_spec(dx_thresholds=(lo, hi)))
    seen = set()
    for v in cohort.visits:
        sp = truth.subjects[v.subject_id]
        s = sp.alpha * v.age + sp.beta
        if s < lo:
            assert v.diagnosis is Diagnosis.CN
        elif s < hi:
            assert v.diagnosis is Diagnosis.MCI
        else:
            assert v.diagnosis is Diagnosis.AD
        seen.add(v.diagnosis)
    assert seen == {Diagnosis.CN, Diagnosis.MCI, Diagnosis.AD}


def test_missing_rate_thins_values():
    cohort, _ = generate(two_biomarker_spec(missing_rate=0.25, n_subjects=400))
    total = 400 * 8 * 2
    present = sum(len(v.values) for v in cohort.visits)
    assert present < total
    assert present / total == pytest.approx(0.75, abs=0.02)


def per_cell_generate(spec):
    """:func:`generate` with one scalar curve call per value, kept as the
    reference its two passes must match bit for bit."""
    visits, subjects = [], {}
    lo, hi = spec.dx_thresholds
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
            values = {}
            for bm in spec.biomarkers:
                if spec.missing_rate > 0 and rng.random() < spec.missing_rate:
                    continue
                value = evaluate(bm.params, score)
                if bm.noise_sd > 0:
                    value += bm.noise_sd * rng.standard_normal()
                values[bm.name] = float(value)
            visits.append((sid, j, float(age), dx, values))
    return visits, subjects


def hex_visit(sid, j, age, dx, values):
    return sid, j, age.hex(), dx, [(name, value.hex()) for name, value in values.items()]


curve_params = st.builds(
    CurveParams,
    kind=st.sampled_from(ALL_KINDS),
    a=st.floats(-10.0, 10.0),
    d=st.floats(-10.0, 10.0),
    b=st.floats(0.05, 5.0),
    c=st.floats(-5.0, 5.0),
    gamma=st.floats(0.1, 10.0),
)


def zero_or(positive):
    return st.one_of(st.just(0.0), positive)


@given(
    params=st.lists(curve_params, min_size=1, max_size=4),
    noise=st.lists(zero_or(st.floats(1e-3, 2.0)), min_size=4, max_size=4),
    missing_rate=zero_or(st.floats(0.0, 0.9, exclude_min=True, exclude_max=True)),
    visit_jitter=zero_or(st.floats(1e-3, 2.0)),
    n_visits=st.integers(1, 5),
    n_subjects=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_two_pass_generator_matches_the_per_cell_loop_bit_for_bit(
    params, noise, missing_rate, visit_jitter, n_visits, n_subjects, seed,
):
    spec = SynthSpec(
        biomarkers=tuple(SynthBiomarker(f"b{k}", p, noise[k]) for k, p in enumerate(params)),
        n_subjects=n_subjects,
        alpha_log_sd=0.3,
        baseline_age_sd=8.0,
        n_visits=n_visits,
        visit_jitter=visit_jitter,
        missing_rate=missing_rate,
        seed=seed,
    )
    cohort, truth = generate(spec)
    ref_visits, ref_subjects = per_cell_generate(spec)
    assert [
        hex_visit(v.subject_id, v.visit_index, v.age, v.diagnosis, v.values)
        for v in cohort.visits
    ] == [hex_visit(*visit) for visit in ref_visits]
    assert {sid: (sp.alpha.hex(), sp.beta.hex()) for sid, sp in truth.subjects.items()} == {
        sid: (sp.alpha.hex(), sp.beta.hex()) for sid, sp in ref_subjects.items()
    }
    assert all(v.cohort_tag == "synthetic" for v in cohort.visits)


def test_direction_hints_match_curve_orientation():
    cohort, _ = generate(two_biomarker_spec())
    assert cohort.specs["up"].direction_hint.value == "increasing"
    assert cohort.specs["down"].direction_hint.value == "decreasing"


def test_spec_validation():
    with pytest.raises(DomainError):
        SynthSpec(biomarkers=())
    with pytest.raises(DomainError):
        two_biomarker_spec(n_subjects=0)
    with pytest.raises(DomainError):
        two_biomarker_spec(dx_thresholds=(1.0, 1.0))
    with pytest.raises(DomainError):
        two_biomarker_spec(missing_rate=1.0)
    with pytest.raises(DomainError):
        SynthBiomarker("m", CurveParams(kind=VER, a=1, d=0, b=1, c=0), -0.1)


@pytest.mark.parametrize("field", [
    "visit_interval", "visit_jitter", "beta_sd", "alpha_log_sd", "baseline_age_sd",
])
def test_negative_scale_or_spacing_exits_with_two_and_names_it(tmp_path, capsys, field):
    with pytest.raises(DomainError, match=f"^{field} must be nonnegative"):
        two_biomarker_spec(**{field: -1.0})
    with pytest.raises(DomainError, match=f"^{field} must be nonnegative"):
        two_biomarker_spec(**{field: float("inf")})
    path = tmp_path / "sim.json"
    write_synth_spec(two_biomarker_spec(), path)
    path.write_text(json.dumps({**json.loads(path.read_text()), field: -1.0}))
    assert main(["simulate", "--spec", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{field} must be nonnegative" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def _set_noise(value):
    return lambda data: data["biomarkers"][1].update(noise_sd=value)


def _set(key, value):
    return lambda data: data.update({key: value})


@pytest.mark.parametrize("edit, culprit", [
    (_set_noise(float("inf")), "biomarker 'down': noise_sd must be nonnegative and finite"),
    (_set_noise(float("nan")), "biomarker 'down': noise_sd must be nonnegative and finite"),
    (_set("beta_mean", float("nan")), "beta_mean must be finite"),
    (_set("baseline_age_mean", float("inf")), "baseline_age_mean must be finite"),
    (_set("n_visits", 2.7), "n_visits must be an integer"),
    (_set("n_subjects", True), "n_subjects must be an integer"),
    (_set("seed", "3"), "seed must be an integer"),
], ids=["noise-sd-inf", "noise-sd-nan", "beta-mean-nan", "baseline-age-mean-inf",
        "n-visits-fraction", "n-subjects-bool", "seed-string"])
def test_hostile_spec_exits_with_two_and_names_the_field(tmp_path, capsys, edit, culprit):
    path = tmp_path / "sim.json"
    write_synth_spec(two_biomarker_spec(noise=0.1), path)
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    out = tmp_path / "out"
    assert main(["simulate", "--spec", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dpsfit: error:")
    assert culprit in err
    assert "Traceback" not in err
    assert not (out / "cohort.csv").exists()


# ----------------------------------------------------------------------
# outlier injection
# ----------------------------------------------------------------------

def test_inject_outliers_zero_fraction_is_identity():
    cohort, _ = generate(two_biomarker_spec(noise=0.05))
    corrupted, cells = inject_outliers(cohort, fraction=0.0, seed=1)
    assert cells == []
    assert value_map(corrupted) == value_map(cohort)


def test_inject_outliers_full_fraction_replaces_everything():
    cohort, _ = generate(two_biomarker_spec(noise=0.05, n_subjects=10))
    before = value_map(cohort)
    corrupted, cells = inject_outliers(cohort, fraction=1.0, magnitude=5.0, seed=2)
    after = value_map(corrupted)
    assert len(cells) == len(before)
    assert all(after[key] != before[key] for key in before)


def test_inject_outliers_count_and_cell_bookkeeping():
    cohort, _ = generate(two_biomarker_spec(noise=0.05, n_subjects=25))
    before = value_map(cohort)
    fraction = 0.1
    corrupted, cells = inject_outliers(cohort, fraction=fraction, seed=3)
    after = value_map(corrupted)
    assert len(cells) == round(fraction * len(before))
    changed = {key for key in before if after[key] != before[key]}
    assert changed == set(cells)
    for key in set(before) - changed:
        assert after[key] == before[key]


def test_inject_outliers_draws_from_widened_range():
    cohort, _ = generate(two_biomarker_spec(noise=0.05, n_subjects=40))
    before = value_map(cohort)
    magnitude = 5.0
    corrupted, cells = inject_outliers(cohort, fraction=0.5, magnitude=magnitude, seed=4)
    after = value_map(corrupted)
    ranges = {}
    for (sid, idx, name), value in before.items():
        lo, hi = ranges.get(name, (np.inf, -np.inf))
        ranges[name] = (min(lo, value), max(hi, value))
    hit_outside = 0
    for key in cells:
        name = key[2]
        lo, hi = ranges[name]
        mid, half = 0.5 * (lo + hi), 0.5 * magnitude * (hi - lo)
        assert mid - half <= after[key] <= mid + half
        if not lo <= after[key] <= hi:
            hit_outside += 1
    assert hit_outside > 0  # grossly out-of-range values do occur


def test_inject_outliers_is_deterministic():
    cohort, _ = generate(two_biomarker_spec(noise=0.05))
    a = inject_outliers(cohort, fraction=0.2, seed=9)
    b = inject_outliers(cohort, fraction=0.2, seed=9)
    assert a[1] == b[1]
    assert value_map(a[0]) == value_map(b[0])


def test_inject_outliers_rejects_bad_fraction():
    cohort, _ = generate(two_biomarker_spec())
    with pytest.raises(DomainError):
        inject_outliers(cohort, fraction=1.5)


def test_inject_outliers_does_not_touch_the_input():
    cohort, _ = generate(two_biomarker_spec(noise=0.05))
    before = value_map(cohort)
    inject_outliers(cohort, fraction=1.0, seed=0)
    assert value_map(cohort) == before


# ----------------------------------------------------------------------
# spec files
# ----------------------------------------------------------------------

def test_spec_round_trip(tmp_path):
    spec = two_biomarker_spec(
        noise=0.12, n_subjects=17, missing_rate=0.05,
        dx_thresholds=(-0.25, 1.75), seed=21,
    )
    path = tmp_path / "sim.json"
    write_synth_spec(spec, path)
    assert load_synth_spec(path) == spec


def test_spec_file_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        load_synth_spec(bad)
    malformed = tmp_path / "missing.json"
    malformed.write_text('{"biomarkers": [{"name": "m"}]}')
    with pytest.raises(SchemaError):
        load_synth_spec(malformed)

import multiprocessing
import os
import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from dpsfit.cohort import (
    BiomarkerSpec,
    Cohort,
    ConstraintPolicy,
    Diagnosis,
    Direction,
    Visit,
)
from dpsfit.curves import PARAM_NAMES, CurveParams, LogisticKind, evaluate
from dpsfit import fitter, progression
from dpsfit.errors import FitError, InitializationError, SolverError
from dpsfit.fitter import (
    FitConfig,
    FitState,
    FitTrace,
    fit,
    fit_biomarker_step,
    fit_subject_step,
    initialize,
    objective,
)
from dpsfit.progression import SubjectParams, compute_dps, save_model
from dpsfit.resampling import partition_train_test
from dpsfit.robust_loss import LossKind, rho
from dpsfit.synth import SynthBiomarker, SynthSpec, generate

VER = LogisticKind.VERHULST
CN, MCI, AD, MISSING = Diagnosis.CN, Diagnosis.MCI, Diagnosis.AD, Diagnosis.MISSING


def visit(sid, idx, age, dx=MISSING, values=None):
    return Visit(
        subject_id=sid, visit_index=idx, age=age, diagnosis=dx,
        values=dict(values or {}),
    )


def diagnosed_cohort(spec):
    # CN values sit high, AD values low: orientation must come out negative.
    visits = [
        visit("s1", 0, 70.0, CN, {"score": 29.0}),
        visit("s1", 1, 71.0, CN, {"score": 30.0}),
        visit("s2", 0, 74.0, AD, {"score": 20.0}),
        visit("s2", 1, 75.0, AD, {"score": 21.0}),
    ]
    return Cohort(visits, {"score": spec})


def small_frame_spec(**overrides):
    """A cohort whose ages already sit on the curves' active score range.

    The step functions start from :func:`initialize`'s identity timelines,
    under which scores are ages (only ``fit`` starts scores at the ages
    less their mean), so these tests keep ages small and onsets near zero
    to make the subproblems well posed from the standard start.
    """
    biomarkers = (
        SynthBiomarker("up", CurveParams(kind=VER, a=1.0, d=0.0, b=1.0, c=1.0), 0.0),
        SynthBiomarker("down", CurveParams(kind=VER, a=0.0, d=2.0, b=0.8, c=2.5), 0.0),
    )
    kwargs = dict(
        biomarkers=biomarkers,
        n_subjects=24,
        alpha_log_sd=0.1,
        beta_mean=-2.0,
        beta_sd=0.8,
        baseline_age_mean=3.0,
        baseline_age_sd=0.8,
        n_visits=5,
        visit_interval=1.0,
        visit_jitter=0.05,
        dx_thresholds=(0.5, 3.0),
        seed=5,
    )
    kwargs.update(overrides)
    return SynthSpec(**kwargs)


def params(state, cohort):
    """The curves and subject timelines of ``state``, through the
    conversion ``fit`` builds its model with."""
    return fitter._state_params(state, progression._flatten(cohort))


def curve_table(cohort, curves):
    """``FitState.curves`` rows of the curves ``curves`` by biomarker."""
    return np.array([[getattr(curves[n], p) for p in PARAM_NAMES] for n in cohort.biomarker_names()])


def subject_rows(cohort, subjects):
    """``FitState.subjects`` rows ``(log alpha, score at the mean age)`` of
    the timelines ``subjects`` by subject id."""
    flat = progression._flatten(cohort)
    alpha = np.array([subjects[sid].alpha for sid in flat.subject_ids])
    beta = np.array([subjects[sid].beta for sid in flat.subject_ids])
    return np.column_stack([np.log(alpha), alpha * flat.mean_age + beta])


# ----------------------------------------------------------------------
# initialization
# ----------------------------------------------------------------------

def test_initialize_fixed_range_decreasing_biomarker():
    spec = BiomarkerSpec(
        name="score", valid_range=(0.0, 30.0),
        constraint_policy=ConstraintPolicy.FIXED_RANGE,
    )
    cohort = diagnosed_cohort(spec)
    p = params(initialize(cohort, FitConfig(curve_kind=VER)), cohort)[0]["score"]
    assert (p.a, p.d) == (0.0, 30.0)
    assert p.b == pytest.approx(4.0 / 30.0, rel=1e-12)
    assert p.c == 0.0
    assert p.gamma == 1.0


def test_initialize_fixed_range_increasing_biomarker():
    spec = BiomarkerSpec(
        name="score", valid_range=(0.0, 18.0),
        constraint_policy=ConstraintPolicy.FIXED_RANGE,
    )
    visits = [
        visit("s1", 0, 70.0, CN, {"score": 0.5}),
        visit("s1", 1, 71.0, CN, {"score": 1.0}),
        visit("s2", 0, 74.0, AD, {"score": 16.0}),
        visit("s2", 1, 75.0, AD, {"score": 17.0}),
    ]
    cohort = Cohort(visits, {"score": spec})
    p = params(initialize(cohort, FitConfig(curve_kind=VER)), cohort)[0]["score"]
    assert (p.d, p.a) == (0.0, 18.0)
    assert p.b == pytest.approx(4.0 / 18.0, rel=1e-12)


def test_initialize_free_policy_uses_observed_extremes():
    cohort = diagnosed_cohort(BiomarkerSpec(name="score"))
    p = params(initialize(cohort, FitConfig(curve_kind=VER)), cohort)[0]["score"]
    assert (p.a, p.d) == (20.0, 30.0)
    assert p.b == pytest.approx(4.0 / 10.0, rel=1e-12)
    assert p.b > 0


def test_initialize_subjects_at_identity_timeline():
    cohort = diagnosed_cohort(BiomarkerSpec(name="score"))
    subjects = params(initialize(cohort, FitConfig()), cohort)[1]
    assert set(subjects) == {"s1", "s2"}
    for sp in subjects.values():
        assert (sp.alpha, sp.beta) == (1.0, 0.0)


def test_initialize_sigma_is_sample_standard_deviation():
    state = initialize(diagnosed_cohort(BiomarkerSpec(name="score")), FitConfig())
    assert state.sigma[0] == pytest.approx(
        np.std([29.0, 30.0, 20.0, 21.0], ddof=1)
    )


def test_initialize_falls_back_to_direction_hint():
    visits = [
        visit("s1", 0, 70.0, MISSING, {"score": 29.0}),
        visit("s1", 1, 71.0, MISSING, {"score": 21.0}),
    ]
    spec = BiomarkerSpec(name="score", direction_hint=Direction.DECREASING)
    cohort = Cohort(visits, {"score": spec})
    p = params(initialize(cohort, FitConfig(curve_kind=VER)), cohort)[0]["score"]
    assert p.a < p.d
    assert p.b > 0

    bare = Cohort([v.clone() for v in visits], {"score": BiomarkerSpec(name="score")})
    with pytest.raises(InitializationError, match="score"):
        initialize(bare, FitConfig())


def test_initialize_requires_value_spread():
    visits = [
        visit("s1", 0, 70.0, CN, {"score": 5.0}),
        visit("s1", 1, 71.0, AD, {"score": 5.0}),
    ]
    with pytest.raises(InitializationError):
        initialize(Cohort(visits, {"score": BiomarkerSpec(name="score")}), FitConfig())


# ----------------------------------------------------------------------
# the objective
# ----------------------------------------------------------------------

def exact_state(alpha=1.0, beta=0.0, sigma=0.5):
    curve = CurveParams(kind=VER, a=1.0, d=0.0, b=1.0, c=3.0)
    sp = SubjectParams(alpha, beta)
    visits = [
        visit("s1", j, age, MISSING, {"m": evaluate(curve, compute_dps(sp, age))})
        for j, age in enumerate([2.0, 3.0, 4.0, 5.0])
    ]
    cohort = Cohort(visits, {"m": BiomarkerSpec(name="m")})
    return state_of(cohort, curve, sp, sigma), cohort, curve


def state_of(cohort, curve, sp, sigma):
    """The one-curve, one-subject state of ``exact_state`` on ``cohort``."""
    return FitState(
        kind=VER,
        curves=curve_table(cohort, {"m": curve}),
        subjects=subject_rows(cohort, {"s1": sp}),
        sigma=np.array([sigma]),
    )


def shifted(cohort, delta):
    """``cohort`` with ``delta`` added to every value of ``m``."""
    visits = cohort.visits
    for v in visits:
        v.values["m"] += delta
    return Cohort(visits, cohort.specs)


def test_objective_zero_for_exact_predictions():
    state, cohort, _ = exact_state()
    assert objective(state, cohort, LossKind.LOGISTIC) == 0.0


def test_objective_equal_residual_arithmetic():
    state, cohort, curve = exact_state(sigma=0.5)
    cohort = shifted(cohort, 0.25)  # residual / sigma = 0.5 everywhere
    got = objective(state, cohort, LossKind.LOGISTIC)
    # four points, each weighted 1/4, all with the same scaled residual
    assert got == pytest.approx(float(rho(LossKind.LOGISTIC, 0.5)), rel=1e-12)


def test_objective_decreases_when_sigma_doubles():
    state, cohort, _ = exact_state(sigma=0.5)
    cohort = shifted(cohort, 0.3)
    low = objective(state, cohort, LossKind.L2)
    state.sigma[0] = 1.0
    assert objective(state, cohort, LossKind.L2) < low


def test_objective_ignores_missing_values():
    state, cohort, curve = exact_state()
    cohort = shifted(cohort, 1.0)
    with_all = objective(state, cohort, LossKind.L2)
    visits = cohort.visits
    visits[0].values["m"] = None
    cohort = Cohort(visits, cohort.specs)
    # A subject row is relative to the mean measured age, which the missing
    # value moves: restate the same timeline on the cohort as it now is.
    state = state_of(cohort, curve, SubjectParams(1.0, 0.0), 0.5)
    assert objective(state, cohort, LossKind.L2) < with_all


# ----------------------------------------------------------------------
# single steps
# ----------------------------------------------------------------------

def tight_config(**overrides):
    kwargs = dict(
        curve_kind=VER, loss_kind=LossKind.LOGISTIC,
        l_min=1, l_max=1, inner_solver_tol=1e-12, inner_max_steps=500,
    )
    kwargs.update(overrides)
    return FitConfig(**kwargs)


def test_biomarker_step_recovers_noiseless_curves():
    cohort, truth = generate(small_frame_spec(n_subjects=60, n_visits=8))
    config = tight_config()
    state = initialize(cohort, config)
    state.subjects = subject_rows(cohort, truth.subjects)
    fit_biomarker_step(state, cohort, config)
    curves = params(state, cohort)[0]
    for name, want in truth.curves.items():
        got = curves[name]
        for attr in ("a", "d", "b", "c"):
            assert getattr(got, attr) == pytest.approx(
                getattr(want, attr), rel=1e-6, abs=1e-6
            ), (name, attr)


def test_biomarker_step_respects_fixed_range_and_descends():
    cohort, truth = generate(small_frame_spec(n_subjects=30))
    cohort.specs["up"] = BiomarkerSpec(
        name="up", valid_range=(0.0, 1.0),
        constraint_policy=ConstraintPolicy.FIXED_RANGE,
        direction_hint=Direction.INCREASING,
    )
    config = tight_config()
    state = initialize(cohort, config)
    before = objective(state, cohort, config.loss_kind)
    fit_biomarker_step(state, cohort, config)
    up = params(state, cohort)[0]["up"]
    assert up.a == 1.0
    assert up.d == 0.0
    assert objective(state, cohort, config.loss_kind) <= before + 1e-12


def test_subject_step_recovers_noiseless_timelines():
    cohort, truth = generate(small_frame_spec(n_subjects=20))
    config = tight_config()
    state = initialize(cohort, config)
    state.curves = curve_table(cohort, truth.curves)
    state.sigma[:] = 0.25
    fit_subject_step(state, cohort, config)
    subjects = params(state, cohort)[1]
    for sid, want in truth.subjects.items():
        got = subjects[sid]
        assert got.alpha == pytest.approx(want.alpha, rel=1e-4)
        assert got.beta == pytest.approx(want.beta, rel=1e-4, abs=1e-4)


def test_subject_step_descends():
    cohort, truth = generate(small_frame_spec(seed=9))
    config = tight_config()
    state = initialize(cohort, config)
    state.curves = curve_table(cohort, truth.curves)
    before = objective(state, cohort, config.loss_kind)
    fit_subject_step(state, cohort, config)
    assert objective(state, cohort, config.loss_kind) <= before + 1e-12


@pytest.mark.parametrize("loss", list(LossKind))
def test_subject_step_objectives_sum_to_the_training_objective(loss):
    # fit takes E_train from the objectives its subject step returns, so
    # their training part must be the objective of the state it leaves.
    cohort, _ = generate(small_frame_spec(seed=9))
    train, valid = partition_train_test(cohort, test_fraction=0.25, seed=11)
    config = tight_config(loss_kind=loss)
    state = initialize(train, config)
    flat = progression._concat_flats(progression._flatten(train), progression._flatten(valid))
    n_train = len(train.subject_ids())
    obj, _ = fitter._fit_subject_step_flat(state, flat, config, 1, n_train)
    assert obj.shape == (n_train + len(valid.subject_ids()),)
    want = objective(state, train, loss)
    assert want > 0
    assert float(obj[:n_train].sum()) == pytest.approx(want, rel=1e-13)


def test_subject_step_warns_and_freezes_sparse_subject():
    cohort, truth = generate(small_frame_spec(n_subjects=6))
    lone = visit("zz_lone", 0, 3.0, MISSING, {"up": 0.6})
    cohort = Cohort(list(cohort.visits) + [lone], cohort.specs)
    config = tight_config()
    state = initialize(cohort, config)
    state.curves = curve_table(cohort, truth.curves)
    with pytest.warns(UserWarning, match="zz_lone"):
        fit_subject_step(state, cohort, config)
    assert params(state, cohort)[1]["zz_lone"] == SubjectParams(1.0, 0.0)


def test_steps_invariant_to_visit_order():
    cohort, _ = generate(small_frame_spec(n_subjects=10))
    shuffled = Cohort(list(reversed(cohort.visits)), cohort.specs)
    config = tight_config()
    states = []
    for c in (cohort, shuffled):
        state = initialize(c, config)
        fit_biomarker_step(state, c, config)
        fit_subject_step(state, c, config)
        states.append(params(state, c))
    assert states[0][0] == states[1][0]
    assert states[0][1] == states[1][1]


def test_alternation_training_loss_never_rises():
    cohort, _ = generate(
        small_frame_spec(
            n_subjects=16,
            biomarkers=(
                SynthBiomarker("up", CurveParams(kind=VER, a=1.0, d=0.0, b=1.0, c=1.0), 0.05),
                SynthBiomarker("down", CurveParams(kind=VER, a=0.0, d=2.0, b=0.8, c=2.5), 0.08),
            ),
        )
    )
    config = tight_config(inner_solver_tol=1e-8, inner_max_steps=200)
    state = initialize(cohort, config)
    last = objective(state, cohort, config.loss_kind)
    for _ in range(6):
        fit_biomarker_step(state, cohort, config)
        after_curves = objective(state, cohort, config.loss_kind)
        assert after_curves <= last + 1e-12
        fit_subject_step(state, cohort, config)
        after_subjects = objective(state, cohort, config.loss_kind)
        assert after_subjects <= after_curves + 1e-12
        last = after_subjects


def asymmetric_cohort(**overrides):
    kind = LogisticKind.MODIFIED_STANNARD
    return generate(small_frame_spec(
        biomarkers=(
            SynthBiomarker("up", CurveParams(kind=kind, a=1.0, d=0.0, b=1.0, c=1.0, gamma=2.0), 0.02),
            SynthBiomarker("down", CurveParams(kind=kind, a=0.0, d=2.0, b=0.8, c=2.5, gamma=0.5), 0.02),
        ),
        **overrides,
    ))


@pytest.mark.parametrize("kind", [LogisticKind.MODIFIED_STANNARD, LogisticKind.RICHARDS])
def test_first_biomarker_step_holds_gamma_at_its_start(kind):
    cohort, _ = asymmetric_cohort(n_subjects=40)
    config = tight_config(curve_kind=kind)
    state = initialize(cohort, config)
    start = params(state, cohort)[0]
    fit_biomarker_step(state, cohort, config, iteration=1)
    for name, p in params(state, cohort)[0].items():
        assert p.gamma == 1.0, name
        for attr in ("a", "d", "b", "c"):
            assert getattr(p, attr) != getattr(start[name], attr), (name, attr)
    fit_subject_step(state, cohort, config, iteration=1)
    fit_biomarker_step(state, cohort, config, iteration=2)
    for name, p in params(state, cohort)[0].items():
        assert p.gamma != 1.0, name


# ----------------------------------------------------------------------
# the full fit
# ----------------------------------------------------------------------

def noisy_split(seed=5, **overrides):
    spec = small_frame_spec(
        biomarkers=(
            SynthBiomarker("up", CurveParams(kind=VER, a=1.0, d=0.0, b=1.0, c=1.0), 0.04),
            SynthBiomarker("down", CurveParams(kind=VER, a=0.0, d=2.0, b=0.8, c=2.5), 0.06),
        ),
        seed=seed,
        **overrides,
    )
    cohort, truth = generate(spec)
    train, valid = partition_train_test(cohort, test_fraction=0.2, seed=11)
    return train, valid, truth


def test_fit_trace_and_snapshot_selection():
    train, valid, _ = noisy_split()
    config = FitConfig(curve_kind=VER, loss_kind=LossKind.LOGISTIC, l_min=3, l_max=10)
    model, trace = fit(train, valid, config, progress=False)

    assert len(trace.e_train) == len(trace.e_valid) == config.l_max
    diffs = np.diff(trace.e_train)
    assert np.all(diffs <= 1e-12)

    window = trace.e_valid[config.l_min - 1:]
    assert trace.l_opt == config.l_min + int(np.argmin(window))
    assert model.provenance["l_opt"] == trace.l_opt
    assert model.provenance["e_valid_opt"] == trace.e_valid[trace.l_opt - 1]
    assert model.provenance["e_train_opt"] == trace.e_train[trace.l_opt - 1]
    assert model.provenance["n_subjects"] == len(train.subject_ids())


def test_fit_keeps_its_numbers_at_the_default_schedule():
    # Pinned values of a default-schedule fit.  Iteration 10 beats every
    # other candidate by over 7e-6 relative and the stop at 15 clears the
    # tolerance by a wide margin, so the selection does not hinge on the
    # last bits of a BLAS build; the losses may move by rounding only.
    train, valid, _ = noisy_split(n_subjects=40)
    model, trace = fit(train, valid, FitConfig(curve_kind=VER), progress=False)
    assert (trace.l_opt, trace.l_stop) == (10, 15)
    assert model.provenance["e_valid_opt"] == pytest.approx(0.07281682586822781, rel=1e-8)
    assert model.provenance["e_train_opt"] == pytest.approx(0.2831664782779758, rel=1e-8)


def test_fit_is_deterministic(tmp_path):
    train, valid, _ = noisy_split()
    config = FitConfig(curve_kind=VER, loss_kind=LossKind.LOGISTIC, l_min=2, l_max=6)
    model1, trace1 = fit(train, valid, config, progress=False)
    model2, trace2 = fit(train, valid, config, progress=False)
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    save_model(model1, paths[0])
    save_model(model2, paths[1])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert trace1.e_train == trace2.e_train
    assert trace1.e_valid == trace2.e_valid


def test_fit_standardizes_training_cn_scores():
    train, valid, _ = noisy_split()
    config = FitConfig(curve_kind=VER, loss_kind=LossKind.LOGISTIC, l_min=2, l_max=6)
    model, _ = fit(train, valid, config, progress=False)
    assert model.standardization.applied
    scores = [
        compute_dps(model.subjects[v.subject_id], v.age)
        for v in train.visits
        if v.diagnosis is CN and v.subject_id in model.subjects
    ]
    assert len(scores) >= 2
    assert abs(np.mean(scores)) <= 1e-8
    assert abs(np.std(scores) - 1.0) <= 1e-8


def test_fit_without_cn_visits_skips_standardization():
    train, valid, _ = noisy_split(dx_thresholds=(-50.0, -40.0))  # every visit AD
    config = FitConfig(curve_kind=VER, loss_kind=LossKind.LOGISTIC, l_min=1, l_max=3)
    with pytest.warns(UserWarning, match="unstandardized"):
        model, trace = fit(train, valid, config, progress=False)
    assert not model.standardization.applied
    assert any("unstandardized" in w for w in trace.warnings)


def test_fit_flags_constant_data_subject():
    train, valid, truth = noisy_split(n_subjects=14)
    sid = train.subject_ids()[0]
    visits = train.visits
    for v in visits:
        if v.subject_id == sid:
            for name in v.values:
                v.values[name] = 0.5 if name == "up" else 1.0  # both curve midpoints
    train = Cohort(visits, train.specs)
    config = FitConfig(curve_kind=VER, loss_kind=LossKind.LOGISTIC, l_min=1, l_max=4)
    with pytest.warns(UserWarning, match="constant"):
        model, trace = fit(train, valid, config, progress=False)
    assert any(sid in w and "constant" in w for w in trace.warnings)
    rates = sorted(sp.alpha for sp in model.subjects.values())
    assert model.subjects[sid].alpha == rates[0]
    assert model.subjects[sid].alpha < 0.25 * float(np.median(rates))


def test_fit_reports_pinned_subjects_once_by_count_and_id(monkeypatch):
    # A tight rate box pins many subjects, several of them in more than one
    # iteration; the fit names them all in one message after its last.
    monkeypatch.setattr(progression, "_LOG_ALPHA_LIMIT", 0.02)
    train, valid, _ = noisy_split()
    real_step = fitter._fit_subject_step_flat
    flagged = set()

    def recording_step(state, flat, config, iteration, n_train):
        obj, at_bound = real_step(state, flat, config, iteration, n_train)
        flagged.update(flat.subject_ids[i] for i in np.flatnonzero(at_bound))
        return obj, at_bound

    monkeypatch.setattr(fitter, "_fit_subject_step_flat", recording_step)
    with pytest.warns(UserWarning) as record:
        _, trace = fit(train, valid, FitConfig(curve_kind=VER, l_min=1, l_max=4), progress=False)
    ids = sorted(flagged)
    assert len(ids) > 1
    message = (f"progression rate pinned at the log-alpha bound for {len(ids)} training "
               f"subject(s): {', '.join(map(repr, ids))}")
    assert [str(w.message) for w in record] == trace.warnings == [message]


def test_trace_reports_each_message_or_key_once():
    trace = FitTrace()
    with pytest.warns(UserWarning) as record:
        for message, key in [("a", None), ("a", None), ("b", ("k",)), ("c", ("k",))]:
            trace.warn(message, key)
    assert [str(w.message) for w in record] == trace.warnings == ["a", "b"]


def test_fit_rejects_underdetermined_cohort():
    visits = [
        visit("s1", 0, 70.0, CN, {"m": 1.0}),
        visit("s1", 1, 71.0, CN, {"m": 2.0}),
        visit("s2", 0, 72.0, AD, {"m": 9.0}),
        visit("s2", 1, 73.0, AD, {"m": 8.0}),
    ]
    train = Cohort(visits, {"m": BiomarkerSpec(name="m")})
    valid = Cohort([v.clone() for v in visits], dict(train.specs))
    with pytest.raises(FitError, match="degrees of freedom"):
        fit(train, valid, FitConfig(curve_kind=VER), progress=False)

    # At the boundary: 6 measurements for 2 fixed-range curve parameters
    # and 2 per subject leave no degree of freedom.
    visits.append(visit("s1", 2, 72.0, CN, {"m": 3.0}))
    visits.append(visit("s2", 2, 74.0, AD, {"m": 7.0}))
    spec = BiomarkerSpec(
        name="m", valid_range=(0.0, 10.0), constraint_policy=ConstraintPolicy.FIXED_RANGE
    )
    train = Cohort(visits, {"m": spec})
    valid = Cohort([v.clone() for v in visits], {"m": spec})
    with pytest.raises(FitError, match=r"6 measurements for 6 parameters \(degrees of freedom 0\)"):
        fit(train, valid, FitConfig(curve_kind=VER), progress=False)


def test_failed_training_subject_is_named_by_the_subject_step(monkeypatch):
    # The subject step and the validation re-estimation share one solve; a
    # training subject that fails at its start must still be reported by
    # the subject step.  The biomarker step evaluates every training
    # residual before that solve, so no input data gets a training subject
    # that far: a residual scale shrunk after the biomarker step does.
    train, valid, _ = noisy_split(n_subjects=10)
    real_step = fitter._fit_biomarker_step_flat

    def shrinking_step(state, *args):
        problems = real_step(state, *args)
        state.sigma[train.biomarker_names().index("up")] = 5e-324
        return problems

    monkeypatch.setattr(fitter, "_fit_biomarker_step_flat", shrinking_step)
    config = FitConfig(curve_kind=VER, loss_kind=LossKind.LOGISTIC, l_min=1, l_max=1)
    first = train.subject_ids()[0]
    with pytest.raises(FitError, match=f"^subject step, iteration 1, subject {first!r}: "):
        fit(train, valid, config, progress=False)


@pytest.mark.parametrize("kind, hold_matters", [
    (VER, False), (LogisticKind.GOMPERTZ, False), (LogisticKind.MODIFIED_STANNARD, True),
])
def test_only_curves_with_gamma_see_the_first_step_hold(monkeypatch, tmp_path, kind, hold_matters):
    train, valid, _ = noisy_split()
    config = FitConfig(curve_kind=kind, loss_kind=LossKind.LOGISTIC, l_min=2, l_max=4)
    runs = [fit(train, valid, config, progress=False)]
    real_step = fitter._fit_biomarker_step_flat

    def never_first(state, flat, cohort, config, iteration):
        return real_step(state, flat, cohort, config, iteration + 1)

    monkeypatch.setattr(fitter, "_fit_biomarker_step_flat", never_first)
    runs.append(fit(train, valid, config, progress=False))
    for k, (model, _) in enumerate(runs):
        save_model(model, tmp_path / f"{k}.json")
    same_model = (tmp_path / "0.json").read_bytes() == (tmp_path / "1.json").read_bytes()
    same_trace = runs[0][1].e_train == runs[1][1].e_train
    assert same_model == same_trace == (not hold_matters)


def test_fit_names_each_curve_that_leaves_gamma_on_its_box(monkeypatch):
    monkeypatch.setattr(fitter, "_GAMMA_BOUNDS", (0.9, 1.1))
    cohort, _ = asymmetric_cohort(n_subjects=30)
    train, valid = partition_train_test(cohort, test_fraction=0.2, seed=11)
    config = FitConfig(l_min=1, l_max=4)
    with pytest.warns(UserWarning, match="gamma left on its box bound") as record:
        model, trace = fit(train, valid, config, progress=False)
    issued = [str(w.message) for w in record if "gamma" in str(w.message)]
    assert [m for m in trace.warnings if "gamma" in m] == issued
    assert issued == [
        f"biomarker {name!r}: gamma left on its box bound ({bound:g}), first in iteration 2"
        for name, bound in (("down", 0.9), ("up", 1.1))
    ]


def test_fit_names_each_curve_that_leaves_its_rate_on_the_floor(monkeypatch):
    monkeypatch.setattr(fitter, "_RATE_FLOOR", 5.0)
    cohort, _ = asymmetric_cohort(n_subjects=30)
    train, valid = partition_train_test(cohort, test_fraction=0.2, seed=11)
    config = FitConfig(l_min=1, l_max=4)
    with pytest.warns(UserWarning, match="b left on its box bound") as record:
        _, trace = fit(train, valid, config, progress=False)
    issued = [str(w.message) for w in record if "b left" in str(w.message)]
    assert [m for m in trace.warnings if "b left" in m] == issued
    assert issued == [
        f"biomarker {name!r}: b left on its box bound (5), first in iteration 1"
        for name in ("down", "up")
    ]


def test_fit_names_each_asymptote_left_on_the_nonnegative_floor():
    # "neg" falls to -0.5, which its nonnegative policy keeps its curve from.
    cohort, _ = generate(small_frame_spec(
        biomarkers=(
            SynthBiomarker("neg", CurveParams(kind=VER, a=1.0, d=-0.5, b=1.0, c=1.0), 0.04),
            SynthBiomarker("down", CurveParams(kind=VER, a=0.0, d=2.0, b=0.8, c=2.5), 0.04),
        ),
        n_subjects=40,
    ))
    specs = {**cohort.specs, "neg": BiomarkerSpec("neg", constraint_policy=ConstraintPolicy.NONNEGATIVE)}
    train, valid = partition_train_test(Cohort(cohort.visits, specs), test_fraction=0.2, seed=11)
    with pytest.warns(UserWarning, match="left on its box bound") as record:
        model, trace = fit(train, valid, FitConfig(curve_kind=VER, l_min=1, l_max=4), progress=False)
    issued = [str(w.message) for w in record if "box bound" in str(w.message)]
    # The curve solver holds d on its floor rather than creeping along it,
    # so no solve stops at inner_max_steps.
    assert trace.warnings == issued
    assert issued == ["biomarker 'neg': d left on its box bound (0), first in iteration 1"]
    assert model.curves["neg"].d == 0.0


def test_curve_box_holds_each_parameter_to_its_rule():
    inf = np.inf
    for kind in LogisticKind:
        for policy in ConstraintPolicy:
            for iteration in (1, 2):
                floor = 0.0 if policy is ConstraintPolicy.NONNEGATIVE else -inf
                rules = {} if policy is ConstraintPolicy.FIXED_RANGE else {
                    "a": (floor, inf), "d": (floor, inf)}
                rules.update(b=(1e-8, inf), c=(-inf, inf))
                if kind.has_symmetry_param and iteration == 2:
                    rules["gamma"] = (1e-4, 1e4)
                cols, lower, upper = fitter._curve_box(kind, policy, iteration)
                assert [PARAM_NAMES[c] for c in cols] == list(rules), (kind, policy, iteration)
                assert lower.tolist() == [lo for lo, _ in rules.values()]
                assert upper.tolist() == [hi for _, hi in rules.values()]


def test_fit_rejects_validation_cohort_with_other_biomarkers():
    train, valid, _ = noisy_split(n_subjects=10)
    visits = [v.clone() for v in valid.visits]
    for v in visits:
        v.values.pop("down", None)
    valid = Cohort(visits, {"up": valid.specs["up"]})
    with pytest.raises(FitError, match="validation cohort declares biomarkers"):
        fit(train, valid, FitConfig(curve_kind=VER), progress=False)


def test_fit_prints_progress_lines(capsys):
    train, valid, _ = noisy_split(n_subjects=10)
    config = FitConfig(curve_kind=VER, loss_kind=LossKind.LOGISTIC, l_min=1, l_max=2)
    fit(train, valid, config, progress=True)
    err = capsys.readouterr().err
    assert "iter   1" in err and "E_train=" in err and "E_valid=" in err


# ----------------------------------------------------------------------
# early stopping
# ----------------------------------------------------------------------

def stop_iteration(e_valid, l_min, l_max, stop_rtol):
    """The last iteration ``fit`` runs on the validation losses ``e_valid``."""
    for l in range(1, l_max):
        if fitter._stops(e_valid[:l], l_min, stop_rtol):
            return l
    return l_max


def test_stop_rule_fires_five_iterations_after_a_rise_from_l_min():
    # Falling until l_min, rising after it.
    e_valid = [2.0 - 0.1 * l for l in range(1, 11)] + [1.0 + 0.01 * l for l in range(1, 41)]
    assert stop_iteration(e_valid, 10, 50, 1e-4) == 10 + fitter._STOP_WINDOW
    # From l_min 3 the rule waits until a whole window lies on the rise.
    assert stop_iteration(e_valid, 3, 50, 1e-4) == 15


def test_stop_rule_runs_a_steady_fall_to_l_max():
    # Falls by 1e-3 of itself each iteration: about 5e-3 per window.
    e_valid = [0.999 ** l for l in range(1, 51)]
    assert stop_iteration(e_valid, 10, 50, 1e-4) == 50
    assert stop_iteration(e_valid, 10, 50, 1e-2) == 15


def test_stop_rule_never_fires_inside_its_first_window():
    rising = [1.0 + 0.1 * l for l in range(1, 51)]
    for l_min in (1, 4, 10):
        assert not any(
            fitter._stops(rising[:l], l_min, 1e-4)
            for l in range(1, l_min + fitter._STOP_WINDOW)
        )
        l_max = l_min + fitter._STOP_WINDOW - 1
        assert stop_iteration(rising, l_min, l_max, 1e-4) == l_max


def test_stop_rule_is_off_at_zero_tolerance():
    rising = [1.0 + 0.1 * l for l in range(1, 51)]
    flat = [1.0] * 50
    assert stop_iteration(rising, 10, 50, 0.0) == 50
    assert stop_iteration(flat, 10, 50, 0.0) == 50
    assert stop_iteration(flat, 10, 50, 1e-4) == 15


@pytest.mark.parametrize("value", [-1.0, -1e-12, np.nan, np.inf])
def test_fit_config_rejects_a_bad_stop_tolerance(value):
    with pytest.raises(FitError, match="stop_rtol"):
        FitConfig(stop_rtol=value)


def test_fit_that_stops_after_its_optimum_selects_the_same_model(tmp_path):
    # E_valid is lowest at iteration 2 and rises slowly after it.
    train, valid, _ = noisy_split(n_subjects=40)
    config = FitConfig(curve_kind=VER, loss_kind=LossKind.LOGISTIC, l_min=1, l_max=30)
    model, trace = fit(train, valid, config, progress=False)
    full_model, full_trace = fit(train, valid, replace(config, stop_rtol=0.0), progress=False)
    assert len(trace.e_train) == trace.l_stop < config.l_max
    assert full_trace.l_stop == config.l_max
    assert trace.e_valid == full_trace.e_valid[:trace.l_stop]
    assert trace.l_opt == full_trace.l_opt
    paths = [tmp_path / "stopped.json", tmp_path / "full.json"]
    save_model(model, paths[0])
    save_model(full_model, paths[1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_trace_csv_round_trip(tmp_path):
    trace = FitTrace(e_train=[3.25, 1.125], e_valid=[4.5, 2.75], l_opt=2)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,E_train,E_valid"
    assert lines[1].split(",") == ["1", "3.25", "4.5"]
    assert [float(x) for x in lines[2].split(",")] == [2.0, 1.125, 2.75]


def test_trace_csv_round_trip_of_numpy_floats(tmp_path):
    e_train = np.array([0.1, 2.0 / 3.0, 1e-300])
    e_valid = np.array([np.inf, 1.0 / 7.0, 5e20])
    trace = FitTrace(e_train=list(e_train), e_valid=list(e_valid), l_opt=2)
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    rows = path.read_text().strip().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["1", "2", "3"]
    assert [float(row.split(",")[1]) for row in rows] == e_train.tolist()
    assert [float(row.split(",")[2]) for row in rows] == e_valid.tolist()


def test_affine_reparameterized_inits_agree():
    cohort, _ = generate(small_frame_spec(n_subjects=18))
    config = tight_config(inner_solver_tol=1e-10, inner_max_steps=300)

    def run(state):
        for _ in range(10):
            fit_biomarker_step(state, cohort, config)
            fit_subject_step(state, cohort, config)
        curves, subjects = params(state, cohort)
        preds = {}
        for v in sorted(cohort.visits, key=lambda v: (v.subject_id, v.visit_index)):
            s = compute_dps(subjects[v.subject_id], v.age)
            for name in sorted(v.values):
                if v.values[name] is not None:
                    preds.setdefault(name, []).append(evaluate(curves[name], s))
        return preds

    base = initialize(cohort, config)
    base_curves, base_subjects = params(base, cohort)
    m, h = 2.0, 1.5  # scores remapped as (s - h) / m
    warped = FitState(
        kind=base.kind,
        curves=curve_table(cohort, {
            name: p.replace(b=p.b * m, c=(p.c - h) / m)
            for name, p in base_curves.items()
        }),
        subjects=subject_rows(cohort, {
            sid: SubjectParams(sp.alpha / m, (sp.beta - h) / m)
            for sid, sp in base_subjects.items()
        }),
        sigma=base.sigma.copy(),
    )
    preds0 = run(base)
    preds1 = run(warped)
    for name in preds0:
        a, b = np.array(preds0[name]), np.array(preds1[name])
        nmae = np.mean(np.abs(a - b)) / np.std(b)
        assert nmae <= 1e-4, name


# ----------------------------------------------------------------------
# the steps in parts
# ----------------------------------------------------------------------

def three_curve_split(nonnegative=False):
    """A modified-Stannard cohort of three biomarkers, split; with
    ``nonnegative`` every biomarker is declared so, and "neg", which falls
    to -0.3, leaves its lower asymptote on the floor."""
    kind = LogisticKind.MODIFIED_STANNARD
    cohort, _ = generate(small_frame_spec(
        biomarkers=(
            SynthBiomarker("neg", CurveParams(kind=kind, a=1.0, d=-0.3, b=1.0, c=1.0, gamma=2.0), 0.03),
            SynthBiomarker("down", CurveParams(kind=kind, a=0.0, d=2.0, b=0.8, c=2.5, gamma=0.5), 0.03),
            SynthBiomarker("mid", CurveParams(kind=kind, a=3.0, d=1.0, b=1.2, c=1.8), 0.05),
        ),
        n_subjects=30,
    ))
    if nonnegative:
        specs = {name: BiomarkerSpec(name, constraint_policy=ConstraintPolicy.NONNEGATIVE)
                 for name in cohort.specs}
        cohort = Cohort(cohort.visits, specs)
    return partition_train_test(cohort, test_fraction=0.2, seed=11)


@pytest.mark.parametrize("nonnegative", [False, True])
def test_fit_is_byte_identical_in_any_number_of_parts(monkeypatch, capsys, tmp_path, nonnegative):
    # Three parts put every curve in its own part and leave them uneven
    # over the subjects, on any number of CPUs.
    monkeypatch.setattr(fitter, "_MAX_PARTS", 3)
    split = []
    real_parts = fitter._Parts
    monkeypatch.setattr(fitter, "_Parts", lambda n, *args: split.append(n) or real_parts(n, *args))
    train, valid = three_curve_split(nonnegative)
    config = FitConfig(loss_kind=LossKind.LOGISTIC, l_min=2, l_max=6)
    outputs = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(fitter, "_usable_cpus", lambda: cpus)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model, trace = fit(train, valid, config, progress=True)
        assert multiprocessing.active_children() == []
        save_model(model, tmp_path / "model.json")
        trace.to_csv(tmp_path / "trace.csv")
        outputs[cpus] = (
            (tmp_path / "model.json").read_bytes(),
            (tmp_path / "trace.csv").read_bytes(),
            trace.warnings,
            # Python 3.12 warns of a fork in a threaded process (OpenBLAS
            # threads): a DeprecationWarning that only the split fits issue.
            [str(w.message) for w in caught if w.category is UserWarning],
            capsys.readouterr().err,
        )
    assert outputs[1][4].count("iter ") == trace.l_stop
    if nonnegative:
        assert "biomarker 'neg': d left on its box bound (0), first in iteration 1" in outputs[1][2]
    assert split == ([2, 3] if sys.platform == "linux" else [])
    assert outputs[2] == outputs[1]
    assert outputs[3] == outputs[1]


def forbid_parts(n, *args):
    raise LookupError(f"fit split into {n} parts")


def test_parts_are_capped_at_the_measured_count(monkeypatch):
    monkeypatch.setattr(fitter, "_usable_cpus", lambda: 64)
    assert fitter._part_count() == (2 if sys.platform == "linux" else 1)


@pytest.mark.skipif(sys.platform != "linux", reason="fits are split only on Linux")
def test_fit_in_a_threaded_process_forks_no_helper(monkeypatch):
    # A fork could copy a lock another thread holds; a fit run while other
    # threads run solves in one part, with the same result.
    monkeypatch.setattr(fitter, "_usable_cpus", lambda: 2)
    train, valid = three_curve_split()
    config = FitConfig(l_min=1, l_max=3)
    want, _ = fit(train, valid, config, progress=False)
    monkeypatch.setattr(fitter, "_Parts", forbid_parts)
    fitted = []
    thread = threading.Thread(target=lambda: fitted.append(fit(train, valid, config, progress=False)))
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert [model for model, _ in fitted] == [want]
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(sys.platform != "linux", reason="fits are split only on Linux")
def test_parts_run_in_helpers_that_issue_their_warnings_here_in_order(monkeypatch):
    real_solve = fitter._solve_curves

    def noisy_solve(state, flat, cohort, config, iteration, ks):
        warnings.warn(f"iteration {iteration} curves {list(ks)} in process {os.getpid()}")
        return real_solve(state, flat, cohort, config, iteration, ks)

    monkeypatch.setattr(fitter, "_solve_curves", noisy_solve)
    monkeypatch.setattr(fitter, "_MAX_PARTS", 3)
    train, valid = three_curve_split()
    config = FitConfig(l_min=1, l_max=2)
    solved, pids = {}, {}
    for cpus in (1, 3):
        monkeypatch.setattr(fitter, "_usable_cpus", lambda: cpus)
        with pytest.warns(UserWarning, match="^iteration ") as record:
            fit(train, valid, config, progress=False)
        split = [str(w.message).split(" in process ") for w in record
                 if str(w.message).startswith("iteration ")]
        solved[cpus] = [curves for curves, _ in split]
        pids[cpus] = [int(pid) for _, pid in split]
    assert solved[1] == ["iteration 1 curves [0, 1, 2]", "iteration 2 curves [0, 1, 2]"]
    assert solved[3] == [f"iteration {i} curves [{k}]" for i in (1, 2) for k in range(3)]
    assert set(pids[1]) == {os.getpid()}
    # Part 0 is solved here, parts 1 and 2 in the fit's two helpers.
    assert pids[3][0] == pids[3][3] == os.getpid()
    helpers = set(pids[3]) - {os.getpid()}
    assert set(pids[3][1:3]) <= helpers and set(pids[3][4:6]) <= helpers
    assert 1 <= len(helpers) <= 2


def test_lowest_failing_curve_names_the_error_in_any_number_of_parts(monkeypatch):
    # The solves of "mid" and "neg", biomarkers 1 and 2, both fail.  In two
    # parts "neg" fails in part 0 and "mid" in part 1; the error names
    # "mid", the first to fail in biomarker order, as in one part.
    train, valid = three_curve_split()
    config = FitConfig(l_min=1, l_max=2)
    sigma = initialize(train, config).sigma
    failing = {sigma[train.biomarker_names().index(name)] for name in ("mid", "neg")}
    real_minimize = fitter.minimize_robust

    def minimize(model_fn, x0, *, sigma, **kwargs):
        if sigma in failing:
            raise SolverError("objective is not finite at the starting point")
        return real_minimize(model_fn, x0, sigma=sigma, **kwargs)

    monkeypatch.setattr(fitter, "minimize_robust", minimize)
    monkeypatch.setattr(fitter, "_MAX_PARTS", 3)
    messages = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(fitter, "_usable_cpus", lambda: cpus)
        with pytest.raises(FitError) as info:
            fit(train, valid, config, progress=False)
        assert multiprocessing.active_children() == []
        messages.append(str(info.value))
    assert messages == ["biomarker 'mid', iteration 1: objective is not finite at the "
                        "starting point"] * 3


def test_interrupted_fit_stops_its_helpers(monkeypatch):
    train, valid = three_curve_split()
    real_step = fitter._fit_subject_step_flat

    def interrupted_step(state, flat, config, iteration, n_train):
        real_step(state, flat, config, iteration, n_train)
        raise KeyboardInterrupt

    monkeypatch.setattr(fitter, "_fit_subject_step_flat", interrupted_step)
    monkeypatch.setattr(fitter, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(fitter, "_MAX_PARTS", 3)
    with pytest.raises(KeyboardInterrupt):
        fit(train, valid, FitConfig(l_min=1, l_max=2), progress=False)
    assert multiprocessing.active_children() == []

import multiprocessing
import os
import signal
import sys
import threading
import warnings

import numpy as np
import pytest

from dpsfit import fitter, resampling, workers
from dpsfit.cohort import BiomarkerSpec, Cohort, Diagnosis, Visit
from dpsfit.curves import CurveParams, LogisticKind, evaluate
from dpsfit.errors import DpsFitError, EnsembleError
from dpsfit.fitter import FitConfig
from dpsfit.progression import FittedModel, compute_dps
from dpsfit.resampling import (
    BootstrapEnsemble,
    Stratum,
    aggregate_curves,
    bootstrap_sample,
    compute_strata,
    ordering_matrix,
    partition_train_test,
    run_bootstraps,
)
from dpsfit.robust_loss import LossKind
from dpsfit.synth import SynthBiomarker, SynthSpec, generate

VER = LogisticKind.VERHULST
CN, MCI, AD, MISSING = Diagnosis.CN, Diagnosis.MCI, Diagnosis.AD, Diagnosis.MISSING


def flat_cohort(n_subjects, n_visits=1, dx=CN):
    visits = [
        Visit(
            subject_id=f"s{i:04d}", visit_index=j, age=70.0 + j, diagnosis=dx,
            values={"m": float(i + j)},
        )
        for i in range(n_subjects)
        for j in range(n_visits)
    ]
    return Cohort(visits, {"m": BiomarkerSpec(name="m")})


def model_with_inflections(cs, *, scale=1.0):
    curves = {
        name: CurveParams(kind=VER, a=scale, d=0.0, b=1.0, c=c)
        for name, c in cs.items()
    }
    return FittedModel(
        curve_kind=VER,
        loss_kind=LossKind.L2,
        curves=curves,
        sigma={name: 1.0 for name in curves},
        subjects={},
    )


def ensemble_of(models):
    return BootstrapEnsemble(
        models=list(models), traces=[], oob_subjects=[], in_bag_counts=[],
        n_requested=len(models),
    )


# ----------------------------------------------------------------------
# strata
# ----------------------------------------------------------------------

def test_strata_band_splits_at_median_visit_count():
    visits = []
    for sid, n in [("a", 1), ("b", 1), ("c", 3)]:
        for j in range(n):
            visits.append(
                Visit(subject_id=sid, visit_index=j, age=70.0 + j, diagnosis=CN,
                      values={"m": 1.0})
            )
    strata = compute_strata(Cohort(visits, {"m": BiomarkerSpec(name="m")}))
    assert strata["a"].band == "few"
    assert strata["b"].band == "few"
    assert strata["c"].band == "many"
    assert strata["a"] == Stratum(CN.value, CN.value, "few")


def test_strata_use_first_and_last_labeled_diagnosis():
    visits = [
        Visit(subject_id="a", visit_index=0, age=70.0, diagnosis=MISSING, values={"m": 1.0}),
        Visit(subject_id="a", visit_index=1, age=71.0, diagnosis=MCI, values={"m": 1.0}),
        Visit(subject_id="a", visit_index=2, age=72.0, diagnosis=AD, values={"m": 1.0}),
        Visit(subject_id="a", visit_index=3, age=73.0, diagnosis=MISSING, values={"m": 1.0}),
    ]
    strata = compute_strata(Cohort(visits, {"m": BiomarkerSpec(name="m")}))
    assert (strata["a"].first_dx, strata["a"].last_dx) == (MCI.value, AD.value)


# ----------------------------------------------------------------------
# train/test partition
# ----------------------------------------------------------------------

def test_partition_takes_ceil_of_fraction_per_stratum():
    cohort = flat_cohort(10)
    train, test = partition_train_test(cohort, test_fraction=0.2, seed=3)
    assert len(test.subject_ids()) == 2
    assert len(train.subject_ids()) == 8


def test_partition_is_a_partition():
    cohort = flat_cohort(23)
    train, test = partition_train_test(cohort, test_fraction=0.2, seed=1)
    train_ids, test_ids = set(train.subject_ids()), set(test.subject_ids())
    assert train_ids | test_ids == set(cohort.subject_ids())
    assert train_ids & test_ids == set()


def test_partition_is_deterministic():
    cohort = flat_cohort(30)
    a = partition_train_test(cohort, test_fraction=0.2, seed=9)
    b = partition_train_test(cohort, test_fraction=0.2, seed=9)
    assert a[1].subject_ids() == b[1].subject_ids()
    c = partition_train_test(cohort, test_fraction=0.2, seed=10)
    assert c[1].subject_ids() != a[1].subject_ids()


def test_partition_keeps_singleton_stratum_in_train():
    visits = list(flat_cohort(8).visits)
    visits.append(
        Visit(subject_id="lone", visit_index=0, age=80.0, diagnosis=AD,
              values={"m": 5.0})
    )
    cohort = Cohort(visits, {"m": BiomarkerSpec(name="m")})
    with pytest.warns(UserWarning, match="single subject"):
        train, test = partition_train_test(cohort, test_fraction=0.2, seed=0)
    assert "lone" in train.subject_ids()
    assert "lone" not in test.subject_ids()


def test_partition_rejects_bad_fraction():
    with pytest.raises(DpsFitError):
        partition_train_test(flat_cohort(5), test_fraction=0.0, seed=0)


# ----------------------------------------------------------------------
# bootstrap draws
# ----------------------------------------------------------------------

def test_bootstrap_in_bag_size_matches_stratum_and_oob_disjoint():
    cohort = flat_cohort(12)
    in_bag, oob = bootstrap_sample(cohort, 4)
    assert sum(in_bag.values()) == 12
    assert set(in_bag) & oob == set()
    assert set(in_bag) | oob == set(cohort.subject_ids())


def test_bootstrap_singleton_stratum_is_always_in_bag():
    cohort = flat_cohort(1)
    for seed in range(5):
        in_bag, oob = bootstrap_sample(cohort, seed)
        assert in_bag == {"s0000": 1}
        assert oob == set()


def test_bootstrap_is_deterministic_per_seed():
    cohort = flat_cohort(40)
    assert bootstrap_sample(cohort, 7) == bootstrap_sample(cohort, 7)
    assert bootstrap_sample(cohort, 7) != bootstrap_sample(cohort, 8)


def test_oob_fraction_obeys_the_one_over_e_law():
    cohort = flat_cohort(100)
    strata = compute_strata(cohort)
    fractions = [
        len(bootstrap_sample(cohort, [0, b], strata=strata)[1]) / 100.0
        for b in range(1000)
    ]
    assert 0.33 <= float(np.mean(fractions)) <= 0.41


# ----------------------------------------------------------------------
# bootstrap ensembles
# ----------------------------------------------------------------------

def synth_train(noise=0.0, n_subjects=14, seed=5):
    biomarkers = (
        SynthBiomarker("up", CurveParams(kind=VER, a=1.0, d=0.0, b=1.0, c=1.0), noise),
        SynthBiomarker("down", CurveParams(kind=VER, a=0.0, d=2.0, b=0.8, c=2.5), noise),
    )
    spec = SynthSpec(
        biomarkers=biomarkers,
        n_subjects=n_subjects,
        alpha_log_sd=0.1,
        beta_mean=-2.0,
        beta_sd=0.8,
        baseline_age_mean=3.0,
        baseline_age_sd=0.8,
        n_visits=5,
        visit_interval=1.0,
        visit_jitter=0.05,
        dx_thresholds=(1.5, 3.5),
        seed=seed,
    )
    return generate(spec)


def test_run_bootstraps_returns_distinct_replicates():
    train, _ = synth_train()
    config = FitConfig(curve_kind=VER, loss_kind=LossKind.LOGISTIC, l_min=1, l_max=3)
    ensemble = run_bootstraps(train, config, n_bootstraps=2, progress=False)
    assert len(ensemble.models) == 2
    assert ensemble.failures == []
    assert ensemble.in_bag_counts[0] != ensemble.in_bag_counts[1]
    assert [m.provenance["bootstrap_id"] for m in ensemble.models] == [0, 1]
    for in_bag, oob in zip(ensemble.in_bag_counts, ensemble.oob_subjects):
        assert set(in_bag) & oob == set()


def test_run_bootstraps_replicates_do_not_depend_on_the_replicate_count():
    train, _ = synth_train(n_subjects=10, seed=8)
    config = FitConfig(curve_kind=VER, loss_kind=LossKind.LOGISTIC, l_min=1, l_max=2)
    two = run_bootstraps(train, config, n_bootstraps=2, progress=False)
    three = run_bootstraps(train, config, n_bootstraps=3, progress=False)
    assert len(two.models) == 2 and len(three.models) == 3
    assert two.in_bag_counts == three.in_bag_counts[:2]
    for a, b in zip(two.models, three.models[:2]):
        assert a.curves == b.curves
        assert a.subjects == b.subjects
        assert a.provenance == b.provenance


def test_run_bootstraps_standardizes_against_own_in_bag_visits():
    train, _ = synth_train()
    config = FitConfig(curve_kind=VER, loss_kind=LossKind.LOGISTIC, l_min=1, l_max=3)
    ensemble = run_bootstraps(train, config, n_bootstraps=2, progress=False)
    for model, in_bag in zip(ensemble.models, ensemble.in_bag_counts):
        assert model.standardization.applied
        scores = []
        for sid, count in in_bag.items():
            for copy in range(count):
                sp = model.subjects[f"{sid}#{copy}"]
                for v in train.visits_of(sid):
                    if v.diagnosis is CN:
                        scores.append(compute_dps(sp, v.age))
        assert abs(np.mean(scores)) <= 1e-9
        assert abs(np.std(scores) - 1.0) <= 1e-9


def test_run_bootstraps_aborts_when_too_many_replicates_fail():
    # three subjects cannot satisfy the degrees-of-freedom precondition
    cohort = flat_cohort(3, n_visits=2)
    config = FitConfig(curve_kind=VER, loss_kind=LossKind.L2, l_min=1, l_max=2)
    with pytest.raises(EnsembleError, match="failed"):
        run_bootstraps(cohort, config, n_bootstraps=5, progress=False)


@pytest.mark.parametrize("n", [0, -3])
def test_run_bootstraps_needs_a_replicate(n):
    train, _ = synth_train(n_subjects=10, seed=8)
    config = FitConfig(curve_kind=VER, loss_kind=LossKind.LOGISTIC, l_min=1, l_max=2)
    with pytest.raises(EnsembleError, match="at least 1"):
        run_bootstraps(train, config, n_bootstraps=n, progress=False)


def test_pooled_replicate_error_keeps_its_type_and_stops_the_pool(monkeypatch):
    def broken_fit(*args, **kwargs):
        raise LookupError("not a fitting error")

    # Workers are forked, so they inherit both patches.
    monkeypatch.setattr(resampling, "fit", broken_fit)
    monkeypatch.setattr(resampling, "_usable_cpus", lambda: 2)
    train, _ = synth_train(n_subjects=10, seed=8)
    config = FitConfig(curve_kind=VER, loss_kind=LossKind.LOGISTIC, l_min=1, l_max=2)
    with pytest.raises(LookupError, match="not a fitting error"):
        run_bootstraps(train, config, n_bootstraps=4, progress=False)
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(sys.platform != "linux", reason="replicates are pooled only on Linux")
def test_pooled_replicates_issue_their_warnings_here_in_order(monkeypatch):
    real_fit = resampling.fit

    def noisy_fit(train, valid, config, **kwargs):
        warnings.warn(f"fit of {','.join(train.subject_ids())} in process {os.getpid()}")
        return real_fit(train, valid, config, **kwargs)

    monkeypatch.setattr(resampling, "fit", noisy_fit)
    train, _ = synth_train(n_subjects=10, seed=8)
    config = FitConfig(curve_kind=VER, loss_kind=LossKind.LOGISTIC, l_min=1, l_max=2)
    fits, pids = {}, {}
    for cpus in (1, 3):
        monkeypatch.setattr(resampling, "_usable_cpus", lambda: cpus)
        with pytest.warns(UserWarning, match="^fit of ") as record:
            run_bootstraps(train, config, n_bootstraps=3, progress=False)
        split = [str(w.message).split(" in process ") for w in record
                 if str(w.message).startswith("fit of ")]
        fits[cpus] = [subjects for subjects, _ in split]
        pids[cpus] = {int(pid) for _, pid in split}
    assert len(fits[1]) == 3
    assert fits[3] == fits[1]
    assert pids[1] == {os.getpid()}
    assert os.getpid() not in pids[3]


@pytest.mark.skipif(sys.platform != "linux", reason="replicates are pooled only on Linux")
def test_pooled_replicates_fit_in_one_part(monkeypatch):
    # Three usable CPUs would split a fit in this process; each of the
    # pool's workers counts one, and forking a fit's helpers there would
    # raise.
    def split(n, *args):
        raise LookupError(f"fit forked {n} helpers in process {os.getpid()}")

    real_fit = resampling.fit

    def noisy_fit(train, valid, config, **kwargs):
        warnings.warn(f"fit in process {os.getpid()}")
        return real_fit(train, valid, config, **kwargs)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(fitter, "fork_pool", split)
    monkeypatch.setattr(resampling, "fit", noisy_fit)
    train, _ = synth_train(n_subjects=10, seed=8)
    config = FitConfig(curve_kind=VER, loss_kind=LossKind.LOGISTIC, l_min=1, l_max=2)
    with pytest.warns(UserWarning, match="^fit in process ") as record:
        ensemble = run_bootstraps(train, config, n_bootstraps=2, progress=False)
    assert len(ensemble.models) == 2
    pids = {int(str(w.message).split()[-1]) for w in record}
    assert pids and os.getpid() not in pids
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(sys.platform != "linux", reason="replicates are pooled only on Linux")
def test_bootstrap_in_a_threaded_process_forks_no_worker(monkeypatch):
    # A fork could copy a lock another thread holds; a bootstrap run while
    # other threads run fits its replicates in this process, with the same
    # ensemble.
    def forbid_fork(n, *args):
        raise LookupError(f"bootstrap forked {n} workers")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    train, _ = synth_train(n_subjects=10, seed=8)
    config = FitConfig(curve_kind=VER, loss_kind=LossKind.LOGISTIC, l_min=1, l_max=2)
    want = run_bootstraps(train, config, n_bootstraps=2, progress=False)
    monkeypatch.setattr(resampling, "fork_pool", forbid_fork)
    ensembles = []
    thread = threading.Thread(
        target=lambda: ensembles.append(run_bootstraps(train, config, n_bootstraps=2, progress=False))
    )
    thread.start()
    thread.join(timeout=120)
    assert not thread.is_alive()
    assert ensembles == [want]
    assert multiprocessing.active_children() == []


def test_interrupted_bootstrap_stops_its_workers(monkeypatch):
    real_fork_pool = resampling.fork_pool

    def interrupted_pool(n, inputs):
        pool = real_fork_pool(n, inputs)
        real_result = pool.result

        def result(future):
            real_result(future)
            raise KeyboardInterrupt

        pool.result = result
        return pool

    monkeypatch.setattr(resampling, "fork_pool", interrupted_pool)
    monkeypatch.setattr(resampling, "_usable_cpus", lambda: 2)
    train, _ = synth_train(n_subjects=10, seed=8)
    config = FitConfig(curve_kind=VER, loss_kind=LossKind.LOGISTIC, l_min=1, l_max=2)
    with pytest.raises(KeyboardInterrupt):
        run_bootstraps(train, config, n_bootstraps=4, progress=False)
    assert multiprocessing.active_children() == []


def test_pool_workers_ignore_interrupts():
    # Ctrl-C reaches the whole process group; only the parent handles it.
    with workers.fork_pool(1, (signal.SIGINT,)) as pool:
        assert pool.result(pool.submit(signal.getsignal)) == signal.SIG_IGN
    assert multiprocessing.active_children() == []


def _warn_then_raise(message):
    warnings.warn(message, UserWarning)
    raise LookupError(message)


def test_pool_issues_the_warnings_of_a_task_that_raises():
    # As in process, the task's warnings come first, then its exception.
    with workers.fork_pool(1, ()) as pool:
        future = pool.submit(_warn_then_raise, "pooled task failed")
        with pytest.warns(UserWarning, match="pooled task failed"):
            with pytest.raises(LookupError, match="pooled task failed"):
                pool.result(future)
    assert multiprocessing.active_children() == []


def test_bootstrap_ensemble_recovers_noiseless_truth():
    train, truth = synth_train()
    config = FitConfig(curve_kind=VER, loss_kind=LossKind.LOGISTIC, l_min=2, l_max=8)
    n = 100
    ensemble = run_bootstraps(train, config, n_bootstraps=n, progress=False)
    assert len(ensemble.models) == n

    # Each replicate lives in its own standardized score frame.  The fitted
    # timelines expose the frame map exactly, so truth is compared in each
    # replicate's own coordinates before averaging.
    grid = np.linspace(-0.5, 6.5, 101)  # truth-frame scores covered by data
    errs = {name: [] for name in truth.curves}
    for model, in_bag in zip(ensemble.models, ensemble.in_bag_counts):
        ks, hs = [], []
        for sid in in_bag:
            fitted = model.subjects[f"{sid}#0"]
            true = truth.subjects[sid]
            k = fitted.alpha / true.alpha
            ks.append(k)
            hs.append(fitted.beta - k * true.beta)
        k, h = float(np.mean(ks)), float(np.mean(hs))
        for name, p in truth.curves.items():
            want = evaluate(p, grid)
            got = evaluate(model.curves[name], k * grid + h)
            errs[name].append(np.abs(got - want))
    for name, p in truth.curves.items():
        want = evaluate(p, grid)
        nmae = float(np.mean(errs[name])) / float(np.std(want))
        assert nmae <= 1e-3, (name, nmae)


# ----------------------------------------------------------------------
# inflection-point ordering
# ----------------------------------------------------------------------

def test_ordering_matrix_single_model_is_a_permutation():
    model = model_with_inflections({"late": 5.0, "early": -1.0, "mid": 2.0})
    out = ordering_matrix(ensemble_of([model]))
    assert out.biomarkers == ["early", "mid", "late"]
    np.testing.assert_array_equal(out.matrix, np.eye(3))


def test_ordering_matrix_split_between_two_orders():
    a = model_with_inflections({"p": 0.0, "q": 1.0})
    b = model_with_inflections({"p": 1.0, "q": 0.0})
    out = ordering_matrix(ensemble_of([a, b]))
    np.testing.assert_allclose(out.matrix, np.full((2, 2), 0.5))


def test_ordering_matrix_hand_enumerated_frequencies():
    orders = [
        {"x": 0.0, "y": 1.0, "z": 2.0},
        {"x": 0.0, "y": 1.0, "z": 2.0},
        {"y": 0.0, "x": 1.0, "z": 2.0},
        {"z": 0.0, "x": 1.0, "y": 2.0},
    ]
    out = ordering_matrix(ensemble_of([model_with_inflections(o) for o in orders]))
    want = {
        "x": [0.50, 0.50, 0.00],
        "y": [0.25, 0.50, 0.25],
        "z": [0.25, 0.00, 0.75],
    }
    for i, name in enumerate(out.biomarkers):
        np.testing.assert_allclose(out.matrix[i], want[name])
    # mean rank orders the rows x, y, z
    assert out.biomarkers == ["x", "y", "z"]


def test_ordering_matrix_is_doubly_stochastic():
    rng = np.random.default_rng(2)
    names = ["a", "b", "c", "d", "e"]
    models = [
        model_with_inflections(dict(zip(names, rng.normal(size=5))))
        for _ in range(17)
    ]
    out = ordering_matrix(ensemble_of(models))
    np.testing.assert_allclose(out.matrix.sum(axis=0), np.ones(5), atol=1e-12)
    np.testing.assert_allclose(out.matrix.sum(axis=1), np.ones(5), atol=1e-12)


def test_ordering_matrix_breaks_ties_by_name():
    model = model_with_inflections({"b": 1.0, "a": 1.0})
    out = ordering_matrix(ensemble_of([model]))
    assert out.biomarkers == ["a", "b"]
    np.testing.assert_array_equal(out.matrix, np.eye(2))


def test_ordering_matrix_needs_models():
    with pytest.raises(EnsembleError):
        ordering_matrix(ensemble_of([]))


def test_ordering_matrix_csv(tmp_path):
    model = model_with_inflections({"p": 0.0, "q": 1.0})
    out = ordering_matrix(ensemble_of([model]))
    path = tmp_path / "ordering.csv"
    out.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "biomarker,rank_1,rank_2"
    assert lines[1].startswith("p,1.0,0.0")


# ----------------------------------------------------------------------
# curve aggregation
# ----------------------------------------------------------------------

def test_aggregate_identical_models():
    models = [model_with_inflections({"m": 1.0}) for _ in range(3)]
    agg = aggregate_curves(ensemble_of(models), "m", np.linspace(-4, 6, 50))
    assert agg.values.shape == (3, 50)
    for row in agg.values:
        np.testing.assert_allclose(row, agg.mean, rtol=1e-14)
    np.testing.assert_allclose(agg.normalized_mean, agg.normalized[0], rtol=1e-14)


def test_aggregate_normalization_maps_to_unit_interval():
    down = FittedModel(
        curve_kind=VER,
        loss_kind=LossKind.L2,
        curves={"m": CurveParams(kind=VER, a=10.0, d=40.0, b=0.5, c=0.0)},
        sigma={"m": 1.0},
        subjects={},
    )
    agg = aggregate_curves(ensemble_of([down]), "m", np.linspace(-30, 30, 200))
    assert np.all(agg.normalized >= 0.0) and np.all(agg.normalized <= 1.0)
    assert agg.normalized[0, 0] == pytest.approx(0.0, abs=1e-6)
    assert agg.normalized[0, -1] == pytest.approx(1.0, abs=1e-6)


def test_aggregate_normalized_curves_are_scale_invariant():
    small = model_with_inflections({"m": 0.5}, scale=1.0)
    big = model_with_inflections({"m": 0.5}, scale=250.0)
    grid = np.linspace(-5, 5, 80)
    a = aggregate_curves(ensemble_of([small]), "m", grid)
    b = aggregate_curves(ensemble_of([big]), "m", grid)
    np.testing.assert_allclose(a.normalized, b.normalized, atol=1e-12)


def test_aggregate_unknown_biomarker_and_empty_ensemble():
    with pytest.raises(KeyError):
        aggregate_curves(ensemble_of([model_with_inflections({"m": 0.0})]), "q", [0.0])
    with pytest.raises(EnsembleError):
        aggregate_curves(ensemble_of([]), "m", [0.0])


# The benchmark's baseline cohort: name, a, d, b, c, gamma, noise_sd.
BASELINE_BIOMARKERS = (
    ("b0", 1, 0, 1.0, -3, 1.5, 0.05),
    ("b1", 0, 1, 0.8, -1, 0.7, 0.05),
    ("b2", 2, 0.5, 1.2, 0, 1.0, 0.1),
    ("b3", 5, 1, 0.6, 1.5, 2.0, 0.2),
    ("b4", 0, 3, 0.9, 3, 1.2, 0.1),
    ("b5", 1, 0, 1.5, 4, 0.9, 0.05),
)


def test_no_replicate_is_trapped_by_the_first_biomarker_step():
    # With gamma free in iteration 1, replicate 2 of this cohort's default
    # bootstrap drove curve b1 to d 3.9 with gamma on its lower bound, and
    # E_train read 15.4 after two iterations against replicate 0's 1.92.
    kind = LogisticKind.MODIFIED_STANNARD
    spec = SynthSpec(
        biomarkers=tuple(
            SynthBiomarker(name, CurveParams(kind=kind, a=a, d=d, b=b, c=c, gamma=g), noise)
            for name, a, d, b, c, g, noise in BASELINE_BIOMARKERS
        ),
        n_subjects=300, n_visits=6, beta_sd=4.0, seed=1,
    )
    train, _ = partition_train_test(generate(spec)[0], seed=3)
    config = FitConfig(l_min=2, l_max=2)
    strata = compute_strata(train)
    e_train = {b: resampling._fit_replicate(train, config, strata, b)[1].e_train[-1]
               for b in (0, 2)}
    assert e_train[2] <= 2.0 * e_train[0]

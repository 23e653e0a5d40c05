"""Go/no-go gate for the package.

Each test embodies one release criterion at its stated tolerance and
prints a single verdict line, so a full run reads as a checklist.  The
first criterion is a statement rather than a computation: published
benchmark figures for this kind of model come from access-restricted
clinical cohorts, so the remaining criteria substitute synthetic ground
truth and exact oracles.
"""

import itertools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np
from scipy.stats import kendalltau, rankdata

from dpsfit import fitter, resampling
from dpsfit.cli import main
from dpsfit.cohort import Diagnosis
from dpsfit.curves import (
    CurveParams,
    LogisticKind,
    dps_gradient,
    evaluate,
    inflection_point,
    param_gradient,
)
from dpsfit.fitter import FitConfig, fit
from dpsfit.metrics import bic, mae, multiclass_auc, nmae, wilcoxon_signed_rank
from dpsfit.progression import (
    FittedModel,
    SubjectParams,
    compute_dps,
    estimate_subject,
    predict_biomarkers,
    standardize,
)
from dpsfit.resampling import (
    bootstrap_sample,
    compute_strata,
    ordering_matrix,
    partition_train_test,
    run_bootstraps,
)
from dpsfit.robust_loss import LossKind, psi, rho
from dpsfit.staging import (
    KdeDensity,
    collect_class_scores,
    ensemble_posterior,
    fit_classifier,
    kde_eval,
    silverman_bandwidth,
)
from dpsfit.synth import SynthBiomarker, SynthSpec, generate, inject_outliers, write_synth_spec

VER = LogisticKind.VERHULST
GOM = LogisticKind.GOMPERTZ
RIC = LogisticKind.RICHARDS
MS = LogisticKind.MODIFIED_STANNARD


VERDICTS: list[str] = []


def _verdict(number: int, ok: bool, detail: str) -> None:
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'}  {detail}"
    VERDICTS.append(line)
    print(line, flush=True)
    assert ok, line


def _draw_params(rng, kind):
    kwargs = {}
    if kind.has_symmetry_param:
        kwargs["gamma"] = float(rng.uniform(0.4, 3.0))
    return CurveParams(
        kind=kind,
        a=float(rng.uniform(0.5, 2.5)),
        d=float(rng.uniform(-1.5, 0.2)),
        b=float(rng.uniform(0.3, 2.5)),
        c=float(rng.uniform(-3.0, 3.0)),
        **kwargs,
    )


def test_criterion_01_restricted_benchmarks_are_context_only():
    """Accuracy figures on clinical cohorts need data this repository
    cannot ship; the criteria below stand in with synthetic ground truth
    and exact oracles instead of reproducing those numbers."""
    _verdict(1, True, "clinical-cohort benchmarks are context only; "
                      "substituted by the synthetic and oracle criteria below")


def test_criterion_02_curve_family_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)

    worst_ver = worst_ms = worst_gom = worst_map = 0.0
    # The identity's gammas come from their own stream, so the draws of
    # the other checks stay as they were.
    for gamma in np.random.default_rng(2027).uniform(0.4, 3.0, 100):
        a = float(rng.uniform(0.5, 2.5))
        d = float(rng.uniform(-1.5, 0.2))
        b = float(rng.uniform(0.3, 2.5))
        c = float(rng.uniform(-3.0, 3.0))
        s = c + rng.uniform(-8.0, 8.0, 10)
        ver = evaluate(CurveParams(kind=VER, a=a, d=d, b=b, c=c), s)
        gom = evaluate(CurveParams(kind=GOM, a=a, d=d, b=b, c=c), s)
        ric1 = evaluate(CurveParams(kind=RIC, a=a, d=d, b=b, c=c, gamma=1.0), s)
        ms1 = evaluate(CurveParams(kind=MS, a=a, d=d, b=b, c=c, gamma=1.0), s)
        ric0 = evaluate(CurveParams(kind=RIC, a=a, d=d, b=b, c=c, gamma=1e-8), s)
        ms = evaluate(CurveParams(kind=MS, a=a, d=d, b=b, c=c, gamma=gamma), s)
        ric = evaluate(CurveParams(kind=RIC, a=a, d=d, b=b / gamma, c=c, gamma=1.0 / gamma), s)
        worst_ver = max(worst_ver, float(np.max(np.abs(ric1 - ver))))
        worst_ms = max(worst_ms, float(np.max(np.abs(ms1 - ver))))
        worst_gom = max(worst_gom, float(np.max(np.abs(ric0 - gom))))
        worst_map = max(worst_map, float(np.max(np.abs(ms - ric))))

    # curvature must vanish exactly at the reported inflection point
    h = 1e-3
    stencil = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * h * h)
    offsets = np.array([-2 * h, -h, 0.0, h, 2 * h])

    def second(p, pts):
        vals = evaluate(p, (pts[:, None] + offsets[None, :]).ravel())
        return vals.reshape(len(pts), 5) @ stencil

    worst_curv = 0.0
    for kind in LogisticKind:
        for _ in range(50):
            p = _draw_params(rng, kind)
            c_star = inflection_point(p)
            at_c = abs(float(second(p, np.array([c_star]))[0]))
            grid = c_star + np.linspace(-6.0 / p.b, 6.0 / p.b, 121)
            scale = float(np.max(np.abs(second(p, grid))))
            worst_curv = max(worst_curv, at_c / scale)

    elapsed = time.perf_counter() - t0
    ok = (worst_ver <= 1e-12 and worst_ms <= 1e-12 and worst_gom <= 1e-6
          and worst_map <= 1e-12 and worst_curv <= 1e-6 and elapsed < 1.0)
    _verdict(2, ok,
             f"reductions to the symmetric kind {max(worst_ver, worst_ms):.1e} "
             f"(tol 1e-12), small-asymmetry limit {worst_gom:.1e} (tol 1e-6), "
             f"MS(b, g) = R(b/g, 1/g) {worst_map:.1e} (tol 1e-12), "
             f"curvature at inflection {worst_curv:.1e} (tol 1e-6), {elapsed:.2f}s")


def test_criterion_03_analytic_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    kinds = list(LogisticKind)
    names = ("a", "d", "b", "c", "gamma")
    worst = 0.0
    n_draws = 0

    for _ in range(4000):
        kind = kinds[int(rng.integers(0, 4))]
        p = _draw_params(rng, kind)
        s = p.c + float(rng.uniform(-5.0, 5.0)) / p.b
        an = np.asarray(param_gradient(p, s))
        fd = np.zeros(5)
        for j, name in enumerate(names):
            if name == "gamma" and not kind.has_symmetry_param:
                continue
            x = getattr(p, name)
            step = 1e-6 * max(1.0, abs(x))
            fd[j] = (evaluate(p.replace(**{name: x + step}), s)
                     - evaluate(p.replace(**{name: x - step}), s)) / (2 * step)
        denom = np.maximum(np.maximum(np.abs(an), np.abs(fd)), 1e-3)
        worst = max(worst, float(np.max(np.abs(an - fd) / denom)))
        n_draws += 1

    for _ in range(300):
        kind = kinds[int(rng.integers(0, 4))]
        p = _draw_params(rng, kind)
        s = p.c + rng.uniform(-5.0, 5.0, 10) / p.b
        an = dps_gradient(p, s)
        step = 1e-6 * np.maximum(1.0, np.abs(s))
        fd = (evaluate(p, s + step) - evaluate(p, s - step)) / (2 * step)
        denom = np.maximum(np.maximum(np.abs(an), np.abs(fd)), 1e-3)
        worst = max(worst, float(np.max(np.abs(an - fd) / denom)))
        n_draws += 10

    for kind in LossKind:
        r = rng.uniform(-8.0, 8.0, 600)
        if kind is LossKind.MODIFIED_HUBER:
            # the slope is continuous across the kink but its derivative is
            # not, so keep the finite-difference stencil off the corner
            corner = kind.tau * math.pi / 2.0
            near = np.abs(np.abs(r) - corner) < 1e-3
            r = np.where(near, r + 5e-3, r)
        step = 1e-6 * np.maximum(1.0, np.abs(r))
        fd = (rho(kind, r + step) - rho(kind, r - step)) / (2 * step)
        an = psi(kind, r)
        denom = np.maximum(np.maximum(np.abs(an), np.abs(fd)), 1e-3)
        worst = max(worst, float(np.max(np.abs(an - fd) / denom)))
        n_draws += 600

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and n_draws == 10000 and elapsed < 10.0
    _verdict(3, ok, f"worst relative gradient error {worst:.1e} over "
                    f"{n_draws} draws (tol 1e-5), {elapsed:.1f}s")


def test_criterion_04_synthetic_recovery():
    t0 = time.perf_counter()
    # all inflections sit well inside the sampled score range; an
    # inflection outside the data is not identifiable by any method
    shapes = [
        ("m0", 0.0, 1.5, 0.8, 0.8),
        ("m1", 1.0, 1.2, 1.6, 1.4),
        ("m2", 0.0, 1.4, 2.4, 1.0),
        ("m3", 1.0, 1.3, 3.2, 0.7),
        ("m4", 0.0, 1.2, 4.0, 1.6),
        ("m5", 1.0, 1.3, 4.8, 1.2),
    ]
    biomarkers = tuple(
        SynthBiomarker(
            name,
            CurveParams(kind=MS, a=1.0 - d, d=d, b=b, c=c, gamma=g),
            0.05,
        )
        for name, d, b, c, g in shapes
    )
    spec = SynthSpec(
        biomarkers=biomarkers,
        n_subjects=100,
        alpha_log_sd=0.1,
        beta_mean=-2.4,
        beta_sd=1.4,
        baseline_age_mean=3.0,
        baseline_age_sd=1.2,
        n_visits=8,
        visit_interval=0.9,
        visit_jitter=0.05,
        dx_thresholds=(1.0, 3.0),
        seed=40,
    )
    cohort, truth = generate(spec)
    train, valid = partition_train_test(cohort, test_fraction=0.2, seed=4)
    config = FitConfig(curve_kind=MS, loss_kind=LossKind.LOGISTIC,
                       l_min=2, l_max=12, inner_solver_tol=1e-9, seed=4)
    model, _ = fit(train, valid, config, progress=False)

    # the fitted score axis is an affine relabeling of the true one, so
    # compare curves after estimating that gauge from the shared subjects
    ks, hs = [], []
    for sid, sp in model.subjects.items():
        true = truth.subjects[sid]
        k = sp.alpha / true.alpha
        ks.append(k)
        hs.append(sp.beta - k * true.beta)
    k, h = float(np.mean(ks)), float(np.mean(hs))

    grid = np.linspace(-1.0, 6.0, 141)
    nmaes, floors = [], []
    for name, *_ in shapes:
        want = evaluate(truth.curves[name], grid)
        got = evaluate(model.curves[name], k * grid + h)
        sd = float(np.std(want))
        nmaes.append(float(np.mean(np.abs(got - want))) / sd)
        floors.append(math.sqrt(2.0 / math.pi) * 0.05 / sd)
    recovery_nmae = float(np.mean(nmaes))
    noise_floor = float(np.mean(floors))

    ensemble = run_bootstraps(train, config, n_bootstraps=10, progress=False)
    om = ordering_matrix(ensemble)
    mean_rank = om.matrix @ np.arange(1, len(om.biomarkers) + 1)
    consensus = [om.biomarkers[i] for i in np.argsort(mean_rank)]
    true_order = sorted(om.biomarkers,
                        key=lambda n: inflection_point(truth.curves[n]))
    tau = float(kendalltau([true_order.index(n) for n in consensus],
                           range(len(consensus))).statistic)

    elapsed = time.perf_counter() - t0
    ok = recovery_nmae <= 1.1 * noise_floor and tau >= 0.9 and elapsed < 300.0
    _verdict(4, ok,
             f"curve recovery NMAE {recovery_nmae:.4f} vs 1.1x noise floor "
             f"{1.1 * noise_floor:.4f}, ordering tau {tau:.2f} (min 0.9), "
             f"{elapsed:.0f}s")


def test_criterion_05_robust_loss_beats_least_squares_under_outliers():
    t0 = time.perf_counter()
    results = {LossKind.L2: [], LossKind.LOGISTIC: []}
    for trial in range(10):
        biomarkers = (
            SynthBiomarker("b0", CurveParams(kind=VER, a=1.0, d=0.0, b=1.2, c=0.6), 0.04),
            SynthBiomarker("b1", CurveParams(kind=VER, a=0.0, d=1.4, b=0.9, c=1.8), 0.056),
            SynthBiomarker("b2", CurveParams(kind=VER, a=1.2, d=0.2, b=1.4, c=2.6), 0.04),
            SynthBiomarker("b3", CurveParams(kind=VER, a=0.0, d=1.0, b=0.7, c=3.4), 0.04),
        )
        spec = SynthSpec(
            biomarkers=biomarkers,
            n_subjects=50,
            alpha_log_sd=0.12,
            beta_mean=-2.0,
            beta_sd=1.0,
            baseline_age_mean=2.6,
            baseline_age_sd=0.9,
            n_visits=6,
            visit_interval=0.8,
            visit_jitter=0.05,
            dx_thresholds=(0.8, 2.8),
            seed=100 + trial,
        )
        clean, _ = generate(spec)
        corrupt, _cells = inject_outliers(clean, fraction=0.10, magnitude=5.0,
                                          seed=200 + trial)
        train, valid = partition_train_test(corrupt, test_fraction=0.25,
                                            seed=trial)
        clean_valid = clean.subset(valid.subject_ids())
        clean_value = {
            (r.subject_id, r.visit_index, r.biomarker): r.value
            for r in clean_valid.iter_records()
        }
        spreads = {}
        for name in clean_valid.biomarker_names():
            vals = [v for (_, _, n), v in clean_value.items() if n == name]
            spreads[name] = float(np.std(vals))

        for loss in (LossKind.L2, LossKind.LOGISTIC):
            config = FitConfig(curve_kind=VER, loss_kind=loss, l_min=2,
                               l_max=6, inner_solver_tol=1e-8, seed=trial)
            model, _ = fit(train, valid, config, progress=False)
            actual = {n: [] for n in spreads}
            predicted = {n: [] for n in spreads}
            for sid in valid.subject_ids():
                recs = list(valid.subset([sid]).iter_records())
                sp = estimate_subject(model, recs)
                for v in valid.visits_of(sid):
                    preds = predict_biomarkers(model, sp, [v.age])
                    for name in spreads:
                        key = (sid, v.visit_index, name)
                        if key in clean_value:
                            actual[name].append(clean_value[key])
                            predicted[name].append(float(preds[name][0]))
            results[loss].append(nmae(mae(actual, predicted), spreads))

    nm_l2 = results[LossKind.L2]
    nm_rob = results[LossKind.LOGISTIC]
    wins = sum(r < l for r, l in zip(nm_rob, nm_l2))
    _, p_value = wilcoxon_signed_rank(nm_l2, nm_rob)
    elapsed = time.perf_counter() - t0
    ok = wins >= 9 and p_value < 0.05 and elapsed < 900.0
    _verdict(5, ok,
             f"robust loss wins {wins}/10 paired seeds (min 9), "
             f"paired p={p_value:.2e} (max 0.05), mean NMAE "
             f"{np.mean(nm_rob):.3f} vs {np.mean(nm_l2):.3f}, {elapsed:.0f}s")


def test_criterion_06_standardization_changes_nothing_observable():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    curves = {
        "w": CurveParams(kind=VER, a=1.0, d=0.0, b=1.1, c=0.4),
        "x": CurveParams(kind=GOM, a=0.0, d=2.0, b=0.9, c=1.6),
        "y": CurveParams(kind=MS, a=1.0, d=0.0, b=1.3, c=2.8, gamma=1.7),
    }
    sigma = {"w": 0.1, "x": 0.2, "y": 0.15}
    subjects = {
        f"s{i}": SubjectParams(alpha=float(np.exp(rng.normal(0.0, 0.2))),
                               beta=float(rng.normal(0.0, 1.0)))
        for i in range(10)
    }
    model = FittedModel(curve_kind=MS, loss_kind=LossKind.LOGISTIC,
                        curves=curves, sigma=sigma, subjects=subjects)

    ages = {sid: rng.uniform(-1.0, 5.0, 6) for sid in subjects}
    data = {}
    for sid, sp in subjects.items():
        preds = predict_biomarkers(model, sp, ages[sid])
        data[sid] = {n: preds[n] + 0.1 * rng.standard_normal(6) for n in curves}

    def objective(m):
        total = 0.0
        for sid in sorted(subjects):
            s = compute_dps(m.subjects[sid], ages[sid])
            for name in sorted(curves):
                r = (data[sid][name] - evaluate(m.curves[name], s)) / sigma[name]
                total += float(np.sum(rho(LossKind.LOGISTIC, r))) / 18.0
        return total

    probe = rng.uniform(-2.0, 6.0, 40)
    base_obj = objective(model)
    worst_pred = worst_obj = 0.0
    for _ in range(20):
        mu = float(rng.uniform(-5.0, 5.0))
        sd = float(rng.uniform(0.3, 3.0))
        cn = rng.normal(mu, sd, 30)
        mapped = standardize(model, cn)
        for sid, sp in subjects.items():
            p1 = predict_biomarkers(model, sp, probe)
            p2 = predict_biomarkers(mapped, mapped.subjects[sid], probe)
            for name in curves:
                worst_pred = max(worst_pred,
                                 float(np.max(np.abs(p1[name] - p2[name]))))
        worst_obj = max(worst_obj, abs(objective(mapped) - base_obj))

    elapsed = time.perf_counter() - t0
    ok = worst_pred <= 1e-10 and worst_obj <= 1e-10 and elapsed < 60.0
    _verdict(6, ok, f"max prediction shift {worst_pred:.1e}, max objective "
                    f"shift {worst_obj:.1e} (tol 1e-10), {elapsed:.1f}s")


def test_criterion_07_out_of_bag_fraction_matches_the_law():
    t0 = time.perf_counter()
    bm = SynthBiomarker("m", CurveParams(kind=VER, a=1.0, d=0.0, b=1.0, c=2.0), 0.0)
    spec = SynthSpec(biomarkers=(bm,), n_subjects=100, n_visits=2,
                     beta_mean=-2.0, baseline_age_mean=3.0,
                     dx_thresholds=(-1e6, -1e6 + 1.0), seed=7)
    cohort, _ = generate(spec)
    strata = compute_strata(cohort)
    assert len(set(strata.values())) == 1
    fractions = [
        len(bootstrap_sample(cohort, [i], strata=strata)[1]) / 100.0
        for i in range(1000)
    ]
    mean_oob = float(np.mean(fractions))
    elapsed = time.perf_counter() - t0
    ok = 0.33 <= mean_oob <= 0.41 and elapsed < 5.0
    _verdict(7, ok, f"mean out-of-bag fraction {mean_oob:.4f} "
                    f"(want [0.33, 0.41], 1/e = 0.368), {elapsed:.1f}s")


def _auc_pair_oracle(posteriors, truths):
    pairs = [
        (p, t)
        for p, t in zip(posteriors, truths)
        if not (t is None or str(getattr(t, "value", t)) == "Missing")
    ]
    labels = sorted({t for _, t in pairs}, key=lambda x: str(getattr(x, "value", x)))
    total = 0.0
    c = len(labels)
    for i in range(c):
        for k in range(i + 1, c):
            members_i = [p for p, t in pairs if t == labels[i]]
            members_k = [p for p, t in pairs if t == labels[k]]
            n_i, n_k = len(members_i), len(members_k)

            def frac(column, winners, losers):
                count = 0.0
                for x in winners:
                    for y in losers:
                        if x[column] > y[column]:
                            count += 1.0
                        elif x[column] == y[column]:
                            count += 0.5
                return count / (n_i * n_k)

            a_ik = frac(labels[i], members_i, members_k)
            a_ki = frac(labels[k], members_k, members_i)
            total += a_ik + a_ki
    return total / (c * (c - 1))


def test_criterion_08_metric_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(8)

    auc_exact = True
    label_pool = ["AD", "CN", "MCI", "Other"]
    for _ in range(100):
        c = int(rng.integers(2, 5))
        labels = [label_pool[i] for i in rng.choice(4, size=c, replace=False)]
        while True:
            n = int(rng.integers(4, 31))
            truths = [labels[int(i)] for i in rng.integers(0, c, n)]
            if len(set(truths)) >= 2:
                break
        posteriors = []
        for _ in range(n):
            raw = rng.integers(0, 11, c).astype(float)
            if raw.sum() == 0:
                raw[0] = 1.0
            posteriors.append(dict(zip(labels, raw / raw.sum())))
        auc_exact &= multiclass_auc(posteriors, truths) == _auc_pair_oracle(
            posteriors, truths)

    wilcoxon_exact = True
    for n in range(1, 13):
        for _ in range(3):
            d = rng.uniform(0.1, 5.0, n) * rng.choice([-1.0, 1.0], n)
            w, p = wilcoxon_signed_rank(d, np.zeros(n))
            ranks = rankdata(np.abs(d))
            threshold = int(round(w))
            count = sum(
                1
                for mask in itertools.product((0.0, 1.0), repeat=n)
                if float(np.dot(mask, ranks)) <= threshold
            )
            wilcoxon_exact &= p == min(1.0, 2.0 * (count / 2.0**n))

    mass_err = 0.0
    for _ in range(5):
        samples = rng.normal(rng.uniform(-2.0, 2.0), rng.uniform(0.5, 2.0), 40)
        density = KdeDensity(samples=samples, bandwidth=silverman_bandwidth(samples))
        xs = np.linspace(samples.min() - 12.0 * density.bandwidth,
                         samples.max() + 12.0 * density.bandwidth, 40001)
        mass = float(np.trapezoid(kde_eval(density, xs), xs))
        mass_err = max(mass_err, abs(mass - 1.0))

    hand_ok = (
        math.isclose(bic(100.0, 10, 1000), 200.0 + 10.0 * math.log(1000.0),
                     rel_tol=1e-12)
        and mae({"m": [1.0, 2.0, None]}, {"m": [2.0, 4.0, 7.0]}) == {"m": 1.5}
        and nmae({"m": 1.5, "k": 1.0}, {"m": 3.0, "k": 2.0}) == 0.5
    )

    elapsed = time.perf_counter() - t0
    ok = (auc_exact and wilcoxon_exact and mass_err <= 1e-6 and hand_ok
          and elapsed < 30.0)
    _verdict(8, ok,
             f"AUC == pair-count oracle on 100 instances: {auc_exact}, "
             f"signed-rank p == enumeration for n<=12: {wilcoxon_exact}, "
             f"density mass error {mass_err:.1e} (tol 1e-6), "
             f"fixed fixtures: {hand_ok}, {elapsed:.1f}s")


def test_criterion_09_ensemble_staging_separates_well_spaced_classes():
    t0 = time.perf_counter()
    biomarkers = (
        SynthBiomarker("u", CurveParams(kind=VER, a=1.0, d=0.0, b=1.2, c=1.0), 0.05),
        SynthBiomarker("v", CurveParams(kind=VER, a=0.0, d=1.0, b=1.1, c=3.0), 0.05),
    )
    spec = SynthSpec(
        biomarkers=biomarkers,
        n_subjects=80,
        alpha_log_sd=0.1,
        beta_mean=-2.0,
        beta_sd=1.5,
        baseline_age_mean=2.5,
        baseline_age_sd=1.0,
        n_visits=6,
        visit_interval=0.8,
        visit_jitter=0.05,
        dx_thresholds=(1.2, 3.2),
        seed=90,
    )
    cohort, truth = generate(spec)

    # premise: consecutive class bands sit at least two within-class
    # standard deviations apart on the true score axis
    by_class = {}
    for v in cohort.visits:
        s = compute_dps(truth.subjects[v.subject_id], v.age)
        by_class.setdefault(v.diagnosis, []).append(s)
    order = [Diagnosis.CN, Diagnosis.MCI, Diagnosis.AD]
    separated = True
    for lo, hi in zip(order, order[1:]):
        gap = float(np.mean(by_class[hi])) - float(np.mean(by_class[lo]))
        pooled = (float(np.std(by_class[lo])) + float(np.std(by_class[hi]))) / 2.0
        separated &= gap >= 2.0 * pooled

    train, test = partition_train_test(cohort, test_fraction=0.25, seed=9)
    config = FitConfig(curve_kind=VER, loss_kind=LossKind.LOGISTIC,
                       l_min=2, l_max=6, inner_solver_tol=1e-8, seed=9)
    ensemble = run_bootstraps(train, config, n_bootstraps=10, progress=False)
    members = [
        (model, fit_classifier(collect_class_scores(model, train)))
        for model in ensemble.models
    ]

    posteriors, truths = [], []
    for sid in test.subject_ids():
        staged = ensemble_posterior(members, test.subset([sid]).iter_records())
        dx_of = {v.visit_index: v.diagnosis for v in test.visits_of(sid)}
        for sv in staged:
            posteriors.append(sv.probabilities)
            truths.append(dx_of[sv.visit_index])
    auc = multiclass_auc(posteriors, truths)

    elapsed = time.perf_counter() - t0
    ok = separated and auc >= 0.95 and elapsed < 300.0
    _verdict(9, ok, f"bands separated >= 2 SD: {separated}, fused staging "
                    f"AUC {auc:.3f} over {len(truths)} held-out visits "
                    f"(min 0.95), {elapsed:.0f}s")


def test_criterion_10_bootstrap_cli_runs_are_byte_identical(tmp_path, monkeypatch):
    t0 = time.perf_counter()
    biomarkers = (
        SynthBiomarker("up", CurveParams(kind=VER, a=1.0, d=0.0, b=1.0, c=1.0), 0.04),
        SynthBiomarker("down", CurveParams(kind=VER, a=0.0, d=2.0, b=0.8, c=2.5), 0.04),
    )
    spec = SynthSpec(
        biomarkers=biomarkers,
        n_subjects=14,
        alpha_log_sd=0.1,
        beta_mean=-2.0,
        beta_sd=0.8,
        baseline_age_mean=3.0,
        baseline_age_sd=0.8,
        n_visits=5,
        visit_interval=1.0,
        visit_jitter=0.05,
        dx_thresholds=(0.5, 3.0),
        seed=12,
    )
    spec_path = tmp_path / "sim.json"
    write_synth_spec(spec, spec_path)
    assert main(["simulate", "--spec", str(spec_path),
                 "--out", str(tmp_path / "sim")]) == 0

    base = [
        "bootstrap",
        "--cohort", str(tmp_path / "sim" / "cohort.csv"),
        "--specs", str(tmp_path / "sim" / "biomarker_specs.json"),
        "--n", "4",
        "--curve", "verhulst",
        "--loss", "logistic",
        "--l-min", "1",
        "--l-max", "3",
        "--seed", "5",
        "--grid=-3:7:11",
        "--quiet",
    ]

    def tree(outdir):
        root = Path(outdir)
        return {
            p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file()
        }

    # One usable CPU fits the replicates, and the fit, in this process; two
    # fit the replicates in two forked workers, and split the fit in two
    # parts.
    fit = [
        "fit",
        "--cohort", str(tmp_path / "sim" / "cohort.csv"),
        "--specs", str(tmp_path / "sim" / "biomarker_specs.json"),
        "--curve", "verhulst",
        "--l-min", "1",
        "--l-max", "3",
        "--quiet",
    ]
    trees = {}
    for run, cpus in (("a", 1), ("b", 1), ("c", 2)):
        monkeypatch.setattr(resampling, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(fitter, "_usable_cpus", lambda: cpus)
        assert main(base + ["--out", str(tmp_path / run)]) == 0
        assert main(fit + ["--out", str(tmp_path / f"fit-{run}")]) == 0
        trees[run] = tree(tmp_path / run), tree(tmp_path / f"fit-{run}")
    (t_a, f_a), (t_b, f_b), (t_c, f_c) = trees["a"], trees["b"], trees["c"]

    elapsed = time.perf_counter() - t0
    ok = (len(t_a) >= 18 and t_a == t_b and t_a == t_c
          and len(f_a) >= 3 and f_a == f_b and f_a == f_c and elapsed < 120.0)
    _verdict(10, ok, f"{len(t_a)} bootstrap and {len(f_a)} fit artifacts byte-identical "
                     f"across a repeated run and across worker counts, {elapsed:.0f}s")

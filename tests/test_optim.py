import warnings

import numpy as np
import pytest

from dpsfit import optim
from dpsfit.curves import CurveArrays, CurveParams, LogisticKind, value_and_gradients, value_and_slope
from dpsfit.optim import _LOG_ALPHA_LIMIT, minimize_robust, minimize_subjects
from dpsfit.robust_loss import LossKind, psi, rho, weight

VER = LogisticKind.VERHULST
LOSS = LossKind.LOGISTIC
CURVES = (
    CurveParams(kind=VER, a=1.0, d=0.0, b=1.0, c=0.0),
    CurveParams(kind=VER, a=0.0, d=2.0, b=0.7, c=1.5),
)


def make_eval(bm, counter=None, seen=None):
    """``eval_fn(s, rows)`` over measurements whose curve index is ``bm``;
    ``counter[0]`` counts its calls and ``seen`` collects their ``rows``."""

    def eval_fn(s, rows):
        if counter is not None:
            counter[0] += 1
        if seen is not None:
            seen.append(rows.copy())
        bm_rows = bm[rows]
        pred = np.empty_like(s)
        dfds = np.empty_like(s)
        for k, p in enumerate(CURVES):
            mask = bm_rows == k
            pred[mask], dfds[mask] = value_and_slope(p, s[mask])
        return pred, dfds

    return eval_fn


# The subject of ``cohort_problem`` with a single measurement.
SINGLE = 6


def cohort_problem(seed=4):
    """Eight subjects: one with a single measurement, one without
    measurements, one whose best offset lies past its box, and outliers
    for the robust loss."""
    rng = np.random.default_rng(seed)
    n_subjects = 8
    t, sub, bm = [], [], []
    for i in range(n_subjects):
        if i == 5:
            continue  # no measurements
        ages = np.sort(rng.uniform(-2.0, 2.0, size=4))
        for k in range(len(CURVES)):
            t.extend(ages)
            sub.extend([i] * ages.size)
            bm.extend([k] * ages.size)
    t, sub, bm = np.array(t), np.array(sub, dtype=np.intp), np.array(bm, dtype=np.intp)
    truth = np.column_stack([rng.normal(0.0, 0.3, n_subjects), rng.normal(0.5, 1.5, n_subjects)])
    truth[3, 1] = 4.0
    s = np.exp(truth[sub, 0]) * t + truth[sub, 1]
    y, _ = make_eval(bm)(s, np.arange(s.size))
    y = y + rng.normal(0.0, 0.05, size=y.size)
    y[[3, 17]] += 1.5
    # The single-measurement subject keeps its first row only; dropping
    # rows after the draws leaves every other subject's data unchanged.
    keep = (sub != SINGLE) | (np.arange(sub.size) == np.argmax(sub == SINGLE))
    t, y, sub, bm = t[keep], y[keep], sub[keep], bm[keep]
    n_points = np.bincount(sub, minlength=n_subjects)
    omega = 1.0 / n_points[sub]
    sigma = np.where(bm == 0, 0.2, 0.3)
    w_lo = np.full(n_subjects, -4.0)
    w_hi = np.full(n_subjects, 4.0)
    w_hi[3] = 2.5
    x0 = np.column_stack([np.zeros(n_subjects), np.full(n_subjects, 0.5)])
    return dict(t=t, y=y, sub=sub, bm=bm, sigma=sigma, omega=omega, x0=x0,
                n_subjects=n_subjects, w_lo=w_lo, w_hi=w_hi)


def solve_all(P, x0=None, seen=None, loss=LOSS, **kwargs):
    return minimize_subjects(
        make_eval(P["bm"], seen=seen), P["x0"] if x0 is None else x0, t=P["t"], y=P["y"], sub=P["sub"],
        sigma=P["sigma"], omega=P["omega"], n_subjects=P["n_subjects"], loss=loss,
        offset_bounds=(P["w_lo"], P["w_hi"]), **kwargs,
    )


def test_batched_solve_matches_solving_each_subject_alone():
    P = cohort_problem()
    x, obj, at_bound = solve_all(P)
    assert x[3, 1] == P["w_hi"][3]  # the boxed subject exercises a pinned step
    for i in range(P["n_subjects"]):
        rows = np.nonzero(P["sub"] == i)[0]
        xi, obji, at_bound_i = minimize_subjects(
            make_eval(P["bm"][rows]), P["x0"][i:i + 1], t=P["t"][rows], y=P["y"][rows],
            sub=np.zeros(rows.size, dtype=np.intp), sigma=P["sigma"][rows],
            omega=P["omega"][rows], n_subjects=1, loss=LOSS,
            offset_bounds=(P["w_lo"][i], P["w_hi"][i]),
        )
        assert np.array_equal(x[i], xi[0]), i
        assert obj[i] == obji[0], i
        assert at_bound[i] == at_bound_i[0], i
    # The empty subject and the one with a single measurement keep their
    # starting rows.
    assert np.array_equal(x[[5, SINGLE]], P["x0"][[5, SINGLE]])
    assert obj[5] == 0.0
    # Every other subject ends where its projected gradient vanishes.
    sub = P["sub"]
    alpha = np.exp(x[sub, 0])
    pred, dfds = make_eval(P["bm"])(alpha * P["t"] + x[sub, 1], np.arange(sub.size))
    gscale = P["omega"] * psi(LOSS, (P["y"] - pred) / P["sigma"]) / P["sigma"]
    g0 = -np.bincount(sub, weights=gscale * dfds * alpha * P["t"], minlength=P["n_subjects"])
    g1 = -np.bincount(sub, weights=gscale * dfds, minlength=P["n_subjects"])
    g1[3] = max(g1[3], 0.0)  # pushing past the upper offset bound
    assert np.all(np.abs(np.delete(np.column_stack([g0, g1]), SINGLE, axis=0)) < 1e-7)


def solve_subset(P, ids, x0, counter=None, **kwargs):
    """Solve the subjects ``ids`` of problem ``P`` on their own."""
    rows = np.nonzero(np.isin(P["sub"], ids))[0]
    renumber = np.full(P["n_subjects"], -1)
    renumber[ids] = np.arange(len(ids))
    return minimize_subjects(
        make_eval(P["bm"][rows], counter), x0, t=P["t"][rows], y=P["y"][rows],
        sub=renumber[P["sub"][rows]], sigma=P["sigma"][rows], omega=P["omega"][rows],
        n_subjects=len(ids), loss=LOSS, offset_bounds=(P["w_lo"][ids], P["w_hi"][ids]),
        **kwargs,
    )


# A rate box that pins five subjects of ``cohort_problem``, and a step cap
# that one of them runs to while the others finish after 0 to 8 steps.
STAGGERED = dict(log_alpha_bounds=(-0.3, 0.3), max_steps=10)


def evaluations_alone(P):
    """How many ``eval_fn`` calls each subject of ``P`` takes on its own."""
    counts = []
    for i in range(P["n_subjects"]):
        calls = [0]
        solve_subset(P, [i], P["x0"][[i]], calls, **STAGGERED)
        counts.append(calls[0])
    return np.array(counts)


def test_subjects_finishing_far_apart_match_solving_each_alone():
    P = cohort_problem()
    x, obj, at_bound = solve_all(P, **STAGGERED)
    evals = evaluations_alone(P)
    assert evals.max() == STAGGERED["max_steps"] + 1  # one subject runs to the cap
    assert np.count_nonzero(evals[evals > 1] <= 10) >= 3
    assert at_bound.any() and not np.delete(at_bound, SINGLE).all()
    for i in range(P["n_subjects"]):
        xi, obji, at_bound_i = solve_subset(P, [i], P["x0"][[i]], **STAGGERED)
        assert x[i].tobytes() == xi[0].tobytes(), i
        assert obj[i].tobytes() == obji[0].tobytes(), i
        assert at_bound[i] == at_bound_i[0], i


def test_each_evaluation_covers_only_the_live_subjects():
    P = cohort_problem()
    evals = evaluations_alone(P)
    # Interleave the subjects' rows, as the fit's biomarker-major rows do.
    order = np.argsort(P["bm"], kind="stable")
    P = dict(P, **{k: P[k][order] for k in ("t", "y", "sub", "bm", "sigma", "omega")})
    seen = []
    solve_all(P, seen=seen, **STAGGERED)
    assert len(seen) == evals.max()
    assert np.array_equal(seen[0], np.arange(P["sub"].size))
    for call in range(1, len(seen)):
        # Subject i takes part in its first evals[i] calls, as it would
        # alone; its rows come grouped, in their given order.
        live = np.flatnonzero(evals > call)
        expected = np.concatenate([np.flatnonzero(P["sub"] == i) for i in live])
        assert np.array_equal(seen[call], expected), call
        assert seen[call].size <= seen[call - 1].size


def test_one_call_over_two_subject_sets_matches_two_calls():
    # The fit solves its warm-started training subjects and its cold-started
    # validation subjects in one call, their rows interleaved by biomarker.
    P = cohort_problem()
    warm_ids, cold_ids = [0, 1, 2, 3], [4, 5, 6, 7]
    partway, _, _ = solve_all(P, max_steps=2)
    x0 = np.concatenate([partway[warm_ids], P["x0"][cold_ids]])
    order = np.argsort(P["bm"], kind="stable")
    merged = dict(P, **{k: P[k][order] for k in ("t", "y", "sub", "bm", "sigma", "omega")})
    x, obj, at_bound = solve_all(merged, x0=x0)
    assert not np.array_equal(x0[warm_ids], P["x0"][warm_ids])  # a real warm start
    for ids in (warm_ids, cold_ids):
        x_alone, obj_alone, at_bound_alone = solve_subset(P, ids, x0[ids])
        assert np.array_equal(x[ids], x_alone)
        assert np.array_equal(obj[ids], obj_alone)
        assert np.array_equal(at_bound[ids], at_bound_alone)


def test_objective_never_rises_across_steps():
    P = cohort_problem(seed=9)
    previous = None
    for steps in range(25):
        x, obj, _ = solve_all(P, max_steps=steps)
        s = np.exp(x[P["sub"], 0]) * P["t"] + x[P["sub"], 1]
        pred, _ = make_eval(P["bm"])(s, np.arange(s.size))
        direct = np.bincount(P["sub"], weights=P["omega"] * rho(LOSS, (P["y"] - pred) / P["sigma"]),
                             minlength=P["n_subjects"])
        np.testing.assert_allclose(obj, direct, rtol=1e-12, atol=0.0)
        if previous is not None:
            assert np.all(obj <= previous)
        previous = obj


def clip_the_step(t, y, sigma, omega, box, max_steps=200):
    """Reference: one subject's damped 2x2 Gauss-Newton step, clipped into
    ``box = ((u_lo, w_lo), (u_hi, w_hi))`` with no projection."""
    lo, hi = np.asarray(box, dtype=float)

    def evaluate(x):
        alpha = np.exp(x[0])
        pred, dfds = value_and_slope(CURVES[0], alpha * t + x[1])
        r = (y - pred) / sigma
        return float(np.sum(omega * rho(LOSS, r))), r, np.column_stack([dfds * alpha * t, dfds])

    x = np.zeros(2)
    f, r, jac = evaluate(x)
    lam = 1e-3
    for _ in range(max_steps):
        grad = -jac.T @ (omega * psi(LOSS, r) / sigma)
        hess = jac.T @ (jac * (omega * weight(LOSS, r) / sigma**2)[:, None])
        damp = np.maximum(np.diag(hess), max(1e-6 * np.diag(hess).max(), 1e-12))
        x_new = np.clip(x + np.linalg.solve(hess + lam * np.diag(damp), -grad), lo, hi)
        f_new, r_new, jac_new = evaluate(x_new)
        if f_new < f:
            x, f, r, jac, lam = x_new, f_new, r_new, jac_new, max(lam / 3.0, 1e-7)
        else:
            lam *= 10.0
    return x, f


def test_subject_past_the_offset_box_lands_on_the_bound_quickly():
    t = np.array([-1.5, -0.5, 0.5, 1.5])
    y, _ = value_and_slope(CURVES[0], 1.6 * t + 3.0)  # best offset is 3
    sigma = np.full(t.size, 0.1)
    omega = np.full(t.size, 0.25)
    box = ((-5.0, -1.0), (5.0, 2.0))
    calls = [0]
    x, obj, _ = minimize_subjects(
        make_eval(np.zeros(t.size, dtype=np.intp), calls), np.zeros((1, 2)), t=t, y=y,
        sub=np.zeros(t.size, dtype=np.intp), sigma=sigma, omega=omega, n_subjects=1,
        loss=LOSS, log_alpha_bounds=(box[0][0], box[1][0]), offset_bounds=(box[0][1], box[1][1]),
    )
    assert x[0, 1] == box[1][1]
    assert calls[0] <= 20
    x_clip, f_clip = clip_the_step(t, y, sigma, omega, box)
    assert x_clip[1] == box[1][1]
    assert obj[0] <= f_clip


def test_non_finite_start_parks_the_subject_and_solves_the_rest():
    clean = solve_all(cohort_problem())
    P = cohort_problem()
    P["y"] = P["y"].copy()
    P["y"][P["sub"] == 4] = np.inf
    P["y"][P["sub"] == 7] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, obj, at_bound = solve_all(P)
    bad = np.array([4, 7])
    assert np.array_equal(x[bad], P["x0"][bad])
    assert not np.any(np.isfinite(obj[bad]))
    rest = np.setdiff1d(np.arange(P["n_subjects"]), bad)
    for got, want in zip((x, obj, at_bound), clean):
        assert np.array_equal(got[rest], want[rest])


@pytest.mark.parametrize("loss", [LossKind.L2, LossKind.L1L2, LossKind.CAUCHY_LORENTZ])
def test_finite_residual_whose_loss_overflows_parks_the_subject_quietly(loss):
    # 1e200 is a finite residual, but its square is not: the subject's
    # objective is infinite at its start, with no overflow warning.
    clean = solve_all(cohort_problem(), loss=loss)
    P = cohort_problem()
    P["y"] = P["y"].copy()
    P["y"][np.flatnonzero(P["sub"] == 2)[0]] = 1e200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, obj, at_bound = solve_all(P, loss=loss)
    assert np.array_equal(x[2], P["x0"][2])
    assert obj[2] == np.inf
    rest = np.setdiff1d(np.arange(P["n_subjects"]), [2])
    for got, want in zip((x, obj, at_bound), clean):
        assert np.array_equal(got[rest], want[rest])


# Each biomarker's residual scale in the benchmark's seed-0 fit.
SEED0_SIGMA = np.array([0.3640220373566043, 0.41072374882038676, 0.6577423912105441,
                        1.4550232954048394, 1.3032970624960405, 0.46763128532096077])


def one_subject(ages, y, params, x0, log_alpha_hi, offset_bounds):
    """A one-subject problem over six modified-Stannard curves, each with
    ``(a, d, b, c, gamma)`` from ``params``, measured at ``ages`` (the rows
    of ``y``: one per biomarker)."""
    table = CurveArrays.stack([CurveParams(LogisticKind.MODIFIED_STANNARD, *p) for p in params])
    return dict(
        table=table, bm=np.repeat(np.arange(6), 6), t=np.tile(ages, 6), y=np.ravel(y),
        sigma=np.repeat(SEED0_SIGMA, 6), omega=np.full(36, 1.0 / 36.0), x0=np.array([x0]),
        log_alpha_bounds=(-27.631, log_alpha_hi), offset_bounds=offset_bounds,
    )


def solve_one(P):
    """``(x, objective, eval_fn calls)`` of the one-subject problem ``P``."""
    calls = [0]

    def eval_fn(s, rows):
        calls[0] += 1
        return value_and_slope(P["table"].take(P["bm"][rows]), s)

    x, obj, _ = minimize_subjects(
        eval_fn, P["x0"], t=P["t"], y=P["y"], sub=np.zeros(36, dtype=np.intp),
        sigma=P["sigma"], omega=P["omega"], n_subjects=1, loss=LOSS,
        log_alpha_bounds=P["log_alpha_bounds"], offset_bounds=P["offset_bounds"],
    )
    return x, obj, calls[0]


@pytest.fixture
def plateau_subject():
    """One subject of the first subject step of the benchmark's seed-0 fit
    (``perfbench`` fit-baseline): six modified-Stannard curves and the
    subject's 36 measurements, in its mean-centred time frame.  Its optimum
    lies at a score near -17.8, past every inflection, where the curves are
    flat; there the reweighted curvature makes each undamped step overshoot."""
    ages = np.array([-2.51728012289054, -1.4946828639852896, -0.5458427273753301,
                     0.5689898804790658, 1.5004522062087915, 2.4883636275633165])
    y = np.array([
        [0.019470924019867778, 0.013471242493994269, 0.032510941998053204,
         0.02715618806306228, 0.017134105639006594, -0.06275080352538594],
        [0.9382257625190396, 0.9484337886292392, 1.1261441089120094,
         1.041499951417738, 1.0384089886533105, 1.0836582387564784],
        [0.434275782462456, 0.4661788519150622, 0.5100931203229583,
         0.5415210097923997, 0.6087454637627523, 0.47197716455692196],
        [1.0156578307804143, 0.9273851459206123, 1.0205817912591109,
         1.1083124252612029, 0.7267522575059218, 1.2645938489732018],
        [2.967216853548635, 3.184369719508651, 3.0596264420727377,
         2.9341803782055083, 2.9452039296189443, 3.15447924540575],
        [-0.004333967161320519, -0.029206126279483297, 0.10327773733898488,
         -0.0950312940940796, -0.02673500153257185, 0.005815761410430185],
    ])
    # (a, d, b, c, gamma) of each biomarker's curve.
    params = [
        (1.0122604705260225, 0.06338002298718014, 1589.3367272093888, -6.6697915378546435, 6035.142573136006),
        (-0.015347132565090939, 0.9368801595492299, 0.7072744233082312, -4.120909610625914, 2.202806229975057),
        (1.9848694565844314, 0.5626717648906021, 0.45004440247479294, -2.5095138962049486, 1.1679057513587299),
        (5.00217786642289, 0.8664459963896315, 0.18799560109514035, 0.44790275221624437, 0.5905329593573517),
        (0.03682987084042957, 2.992321342357339, 0.3022446630778454, 1.0115051103476356, 0.6552733670727073),
        (0.9736762441816075, 0.01681403048022752, 0.4117696812685539, 1.443098215928941, 0.7725179523210013),
    ]
    return one_subject(ages, y, params, [0.0, -3.6850023770728484], 2.8333594111303673,
                       (-42.10628443832009, 43.002089942752576))


def test_plateau_subject_converges_without_zigzag(plateau_subject):
    x, obj, calls = solve_one(plateau_subject)
    # Without gain-ratio damping every step was accepted and the iterate
    # zigzagged for all 200 steps, ending at this objective.
    assert calls <= 40
    assert obj[0] <= 0.013577975011452177
    assert -18.5 < x[0, 1] < -17.0


@pytest.fixture
def creeping_subject():
    """Validation subject ``s0173`` of the fifth subject step of the
    benchmark's seed-0 fit, cold-started against that step's curves.  Its
    optimum lies at a score near 17, in a shallow curved valley past the
    last inflection, where the reweighted Gauss-Newton model over-curves:
    at the damping floor each step gains about twice what the model
    predicts."""
    ages = np.array([-2.495960109558098, -1.5658415591826298, -0.5322637683661782,
                     0.441858423196237, 1.5782506862099552, 2.573956327700614])
    y = np.array([
        [1.0926936594372207, 0.9671002024649181, 0.9893970271609993,
         1.0552353160318872, 1.0096436579517276, 1.0307057447042676],
        [0.062267000983637, 0.05866719415212812, -0.07742546465685171,
         -0.06510766371337488, -0.02094568477334069, -0.07385120978939021],
        [2.19983565662729, 1.9811577801601798, 2.115867862701752,
         1.8641614946389486, 2.0384937862967694, 2.093236123732545],
        [4.27154714215809, 4.966120526408627, 4.869799393866142,
         5.070969974385997, 4.6318564500651185, 4.950118116674615],
        [0.05343985744586987, 0.11856378305310888, 0.03348378439255372,
         -0.14366390361115897, -0.05835001479103913, -0.03321271620482522],
        [0.9009736785074314, 1.004019832820502, 1.0064371567427637,
         0.9736476053729028, 1.0689189327910413, 1.0928591078980785],
    ])
    params = [
        (1.0021358029089806, -0.023317169342646576, 0.41773625489608684, -6.693501832592156, 0.8293072460476645),
        (-0.005088268134070845, 0.995783142410495, 0.5487899512224129, -4.138804758482448, 0.6813696855081707),
        (1.9940349688842722, 0.4965213122648487, 0.6491266944500648, -2.537207587455234, 0.635216715249356),
        (5.096131113163603, 0.9232535670765155, 0.2945816858782961, -0.12826451976224362, 1.2572997600464002),
        (0.006288412070510015, 2.9993406843121058, 0.6794899483571035, 1.201518356313095, 1.1748241221300433),
        (1.001108992684508, -0.0008717778366140738, 1.3118409072020258, 2.381787451749957, 1.0952891997800767),
    ]
    return one_subject(ages, y, params, [0.0, -1.3327360536087387], 2.6004297032916353,
                       (-34.27294683557581, 34.016417796051314))


def test_creeping_subject_takes_longer_steps(creeping_subject):
    x, obj, calls = solve_one(creeping_subject)
    # With full Gauss-Newton steps at the damping floor the subject crept
    # up the valley for 167 evaluations, ending at this objective.
    assert calls <= 167 // 2
    assert obj[0] <= 0.009594097514807108
    assert 16.5 < x[0, 1] < 17.5


def escalate(monkeypatch):
    """Turn the stall test off, so a solve raises the damping after a
    rejected trial until it passes the cap, as it did before the test."""
    monkeypatch.setattr(optim, "_stalled", lambda predicted, f: False)


def fit_curve(seen, x0, upper):
    """Fit a Verhulst curve's ``(a, d, b, c)`` to 60 noisy points from
    ``x0``, below ``upper``; ``seen`` collects each evaluated vector."""
    rng = np.random.default_rng(0)
    s = np.sort(rng.uniform(-4.0, 4.0, 60))
    y = value_and_slope(CURVES[0], s)[0] + rng.normal(0.0, 0.05, s.size)

    def model_fn(x):
        seen.append(x.copy())
        f, grads = value_and_gradients(CurveArrays(VER, *x, 1.0), s)
        return f, grads[:, :4]

    return minimize_robust(
        model_fn, np.array(x0), y=y, sigma=0.1, omega=np.full(s.size, 1.0 / s.size), loss=LOSS,
        lower=np.array([-np.inf, -np.inf, 1e-8, -np.inf]), upper=np.array(upper),
    )


def fit_curve_both_ways(monkeypatch, x0, upper=(np.inf,) * 4):
    """``(result, vectors evaluated)`` with the stall test, then without."""
    runs = []
    for patch in (False, True):
        with monkeypatch.context() as m:
            if patch:
                escalate(m)
            seen = []
            runs.append((fit_curve(seen, x0, upper), seen))
    return runs


def assert_same_result(a, b):
    assert a.x.tobytes() == b.x.tobytes()
    assert (a.objective, a.n_steps, a.converged) == (b.objective, b.n_steps, b.converged)


def test_stalled_curve_solve_ends_where_escalation_ends(monkeypatch):
    # From this start the early trials overshoot and more damping rescues
    # them, so stopping at any rejected trial would end too soon.
    (stopped, seen), (escalated, seen_escalated) = fit_curve_both_ways(monkeypatch, [3.0, -2.0, 0.1, -2.0])
    # Trials after the last accepted step: with escalation they run until
    # the damping passes its cap, with the stop they end at the first.
    last = max(i for i, x in enumerate(seen_escalated) if np.array_equal(x, escalated.x))
    assert len(seen_escalated) - 1 - last >= 10
    assert len(seen) < len(seen_escalated)
    assert_same_result(stopped, escalated)


def test_clipped_trial_never_stalls_a_curve_solve(monkeypatch):
    # The best c lies past its bound, so the box clips trial steps.
    (stopped, _), (escalated, _) = fit_curve_both_ways(monkeypatch, [0.8, 0.1, 0.7, 0.3],
                                                       upper=(np.inf, np.inf, np.inf, -0.1))
    assert escalated.x[3] == -0.1
    assert_same_result(stopped, escalated)


def test_curve_coordinate_pinned_on_its_bound_leaves_the_solve():
    # The data's d is 0, below its floor of 0.2, where the solve starts:
    # the gradient points out of the box for the whole solve.
    rng = np.random.default_rng(0)
    s = np.sort(rng.uniform(-4.0, 4.0, 60))
    y = value_and_slope(CURVES[0], s)[0] + rng.normal(0.0, 0.05, s.size)

    def solve(cols, lower):
        """Fit the Verhulst parameters ``cols`` of ``(a, d, b, c)`` from
        ``start``, holding the others there."""
        start = np.array([0.8, 0.2, 0.7, 0.3])

        def model_fn(x):
            params = start.copy()
            params[cols] = x
            f, grads = value_and_gradients(CurveArrays(VER, *params, 1.0), s)
            return f, grads[:, cols]

        return minimize_robust(
            model_fn, start[cols], y=y, sigma=0.1, omega=np.full(s.size, 1.0 / s.size), loss=LOSS,
            lower=np.array(lower), upper=np.full(len(cols), np.inf),
        )

    held = solve([0, 1, 2, 3], [-np.inf, 0.2, 1e-8, -np.inf])
    without_d = solve([0, 2, 3], [-np.inf, 1e-8, -np.inf])
    # Solved over every coordinate and then clipped, this solve crept along
    # the bound until it stopped at max_steps.
    assert held.converged and held.n_steps <= 30
    assert held.x[1] == 0.2
    np.testing.assert_allclose(np.delete(held.x, 1), without_d.x, rtol=0.0, atol=1e-10)
    assert held.objective == pytest.approx(without_d.objective, rel=1e-10)


@pytest.mark.parametrize("loss", list(LossKind))
@pytest.mark.parametrize("rate_box", [(-_LOG_ALPHA_LIMIT, _LOG_ALPHA_LIMIT), (-0.1, 0.1)],
                         ids=["free", "boxed"])
def test_stalled_subjects_finish_where_escalation_finishes(monkeypatch, loss, rate_box):
    P = cohort_problem()

    def solve():
        seen = []
        result = solve_all(P, seen=seen, loss=loss, log_alpha_bounds=rate_box)
        return result, sum(rows.size for rows in seen)

    stopped, rows = solve()
    with monkeypatch.context() as m:
        escalate(m)
        escalated, rows_escalated = solve()
    assert rows < rows_escalated
    for got, want in zip(stopped, escalated):
        assert got.tobytes() == want.tobytes()

import numpy as np
import pytest

from dpsfit.curves import CurveArrays, CurveParams, LogisticKind, value_and_slope
from dpsfit.errors import SolverError
from dpsfit.optim import minimize_subjects
from dpsfit.robust_loss import LossKind, psi, rho, weight

VER = LogisticKind.VERHULST
LOSS = LossKind.LOGISTIC
CURVES = (
    CurveParams(kind=VER, a=1.0, d=0.0, b=1.0, c=0.0),
    CurveParams(kind=VER, a=0.0, d=2.0, b=0.7, c=1.5),
)


def make_eval(bm, counter=None):
    """``eval_fn(s, rows)`` over measurements whose curve index is ``bm``."""

    def eval_fn(s, rows):
        if counter is not None:
            counter[0] += 1
        bm_rows = bm[rows]
        pred = np.empty_like(s)
        dfds = np.empty_like(s)
        for k, p in enumerate(CURVES):
            mask = bm_rows == k
            pred[mask], dfds[mask] = value_and_slope(p, s[mask])
        return pred, dfds

    return eval_fn


def cohort_problem(seed=4):
    """Eight subjects: one frozen, one without measurements, one whose
    best offset lies past its box, and outliers for the robust loss."""
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
    n_points = np.bincount(sub, minlength=n_subjects)
    omega = 1.0 / n_points[sub]
    sigma = np.where(bm == 0, 0.2, 0.3)
    w_lo = np.full(n_subjects, -4.0)
    w_hi = np.full(n_subjects, 4.0)
    w_hi[3] = 2.5
    frozen = np.zeros(n_subjects, dtype=bool)
    frozen[6] = True
    x0 = np.column_stack([np.zeros(n_subjects), np.full(n_subjects, 0.5)])
    return dict(t=t, y=y, sub=sub, bm=bm, sigma=sigma, omega=omega, x0=x0,
                n_subjects=n_subjects, w_lo=w_lo, w_hi=w_hi, frozen=frozen)


def solve_all(P, **kwargs):
    return minimize_subjects(
        make_eval(P["bm"]), P["x0"], t=P["t"], y=P["y"], sub=P["sub"],
        sigma=P["sigma"], omega=P["omega"], n_subjects=P["n_subjects"], loss=LOSS,
        offset_bounds=(P["w_lo"], P["w_hi"]), frozen=P["frozen"], **kwargs,
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
            offset_bounds=(P["w_lo"][i], P["w_hi"][i]), frozen=P["frozen"][i:i + 1],
        )
        assert np.array_equal(x[i], xi[0]), i
        assert obj[i] == obji[0], i
        assert at_bound[i] == at_bound_i[0], i
    # Frozen and empty subjects keep their starting rows.
    assert np.array_equal(x[[5, 6]], P["x0"][[5, 6]])
    assert obj[5] == 0.0
    # Every other subject ends where its projected gradient vanishes.
    sub = P["sub"]
    alpha = np.exp(x[sub, 0])
    pred, dfds = make_eval(P["bm"])(alpha * P["t"] + x[sub, 1], np.arange(sub.size))
    gscale = P["omega"] * psi(LOSS, (P["y"] - pred) / P["sigma"]) / P["sigma"]
    g0 = -np.bincount(sub, weights=gscale * dfds * alpha * P["t"], minlength=P["n_subjects"])
    g1 = -np.bincount(sub, weights=gscale * dfds, minlength=P["n_subjects"])
    g1[3] = max(g1[3], 0.0)  # pushing past the upper offset bound
    assert np.all(np.abs(np.delete(np.column_stack([g0, g1]), 6, axis=0)) < 1e-7)


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


def test_non_finite_start_names_the_first_bad_subject():
    P = cohort_problem()
    P["y"] = P["y"].copy()
    P["y"][P["sub"] == 4] = np.inf
    P["y"][P["sub"] == 7] = np.nan
    with pytest.raises(SolverError) as info:
        solve_all(P)
    assert info.value.subject == 4


@pytest.fixture
def plateau_subject():
    """One subject of the first subject step of the benchmark's seed-0 fit
    (``perfbench`` fit-baseline): six modified-Stannard curves and the
    subject's 36 measurements, in its mean-centred time frame.  Its optimum
    lies at a score near -17.8, past every inflection, where the curves are
    flat; there the reweighted curvature makes each undamped step overshoot."""
    ages = np.array([-2.51728012289054, -1.4946828639852896, -0.5458427273753301,
                     0.5689898804790658, 1.5004522062087915, 2.4883636275633165])
    sigma = np.array([0.3640220373566043, 0.41072374882038676, 0.6577423912105441,
                      1.4550232954048394, 1.3032970624960405, 0.46763128532096077])
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
    table = CurveArrays.stack([CurveParams(LogisticKind.MODIFIED_STANNARD, *p) for p in params])
    bm = np.repeat(np.arange(6), 6)
    return dict(
        table=table, bm=bm, t=np.tile(ages, 6), y=y.ravel(), sigma=np.repeat(sigma, 6),
        omega=np.full(36, 1.0 / 36.0), x0=np.array([[0.0, -3.6850023770728484]]),
        log_alpha_bounds=(-27.631, 2.8333594111303673),
        offset_bounds=(-42.10628443832009, 43.002089942752576),
    )


def test_plateau_subject_converges_without_zigzag(plateau_subject):
    P = plateau_subject
    calls = [0]

    def eval_fn(s, rows):
        calls[0] += 1
        return value_and_slope(P["table"].take(P["bm"][rows]), s)

    x, obj, _ = minimize_subjects(
        eval_fn, P["x0"], t=P["t"], y=P["y"], sub=np.zeros(36, dtype=np.intp),
        sigma=P["sigma"], omega=P["omega"], n_subjects=1, loss=LOSS,
        log_alpha_bounds=P["log_alpha_bounds"], offset_bounds=P["offset_bounds"],
    )
    # Without gain-ratio damping every step was accepted and the iterate
    # zigzagged for all 200 steps, ending at this objective.
    assert calls[0] <= 40
    assert obj[0] <= 0.013577975011452177
    assert -18.5 < x[0, 1] < -17.0

import numpy as np
import pytest

from dpsfit.curves import CurveParams, LogisticKind, value_and_slope
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

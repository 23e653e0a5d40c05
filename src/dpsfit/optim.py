"""Damped Gauss-Newton minimization of robust regression objectives.

Both routines here minimize

    F(x) = sum_n omega_n * rho((y_n - f_n(x)) / sigma_n)

over box-constrained parameters, using the iteratively reweighted
Gauss-Newton curvature ``H = J^T diag(omega * weight(r) / sigma^2) J`` with
Levenberg-style diagonal damping.  Candidate steps are clipped to the box
and accepted only when they strictly decrease ``F``, so the objective is
monotone along the iterate path; a rejected or non-finite step raises the
damping instead of aborting.

:func:`minimize_robust` handles one dense parameter vector (the per-curve
subproblems).  :func:`minimize_subjects` solves many independent
two-parameter ``(log alpha, beta)`` problems simultaneously with per-subject
damping, which is how the per-subject subproblems stay cheap in pure numpy.
Two things keep its iterations cheap: each one touches only the
measurements of subjects that are still being solved, and a subject held
on its box takes a projected Newton step (Bertsekas 1982, "Projected
Newton methods for optimization problems with simple constraints") in the
free coordinate instead of creeping along the bound.  Two more keep them
few: it steers each subject's damping by the gain ratio, the actual
decrease over the decrease the undamped Gauss-Newton model predicts (More
1978, "The Levenberg-Marquardt algorithm: implementation and theory"), so
a subject on the curve plateaus, where that model overshoots, no longer
zigzags to ``max_steps``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SolverError
from .robust_loss import LossKind, loss_terms, psi, rho, weight

__all__ = ["RobustFitResult", "minimize_robust", "minimize_subjects"]

_LAMBDA_INIT = 1e-3
_LAMBDA_MAX = 1e12
_LAMBDA_UP = 10.0
_LAMBDA_DOWN = 1.0 / 3.0
# Gain ratios (actual over predicted decrease) below _GAIN_LOW raise the
# subject solver's damping on an accepted step, above _GAIN_HIGH lower it.
_GAIN_LOW = 0.25
_GAIN_HIGH = 0.75
# Relative objective decrease below which an accepted step counts as
# converged.  Without this, points sitting on a curve's flat tail chase the
# asymptote in ever-growing steps, since their objective keeps decreasing
# by slivers all the way to infinity.
_FTOL = 1e-14
# Subject rates stay within exp(+-_LOG_ALPHA_LIMIT), about 1e(+-12).
_LOG_ALPHA_LIMIT = 27.631


@dataclass
class RobustFitResult:
    x: np.ndarray
    objective: float
    n_steps: int
    converged: bool


def _objective(loss: LossKind, r: np.ndarray, omega: np.ndarray) -> float:
    return float(np.dot(omega, rho(loss, r)))


def minimize_robust(
    model_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0: np.ndarray,
    *,
    y: np.ndarray,
    sigma,
    omega: np.ndarray,
    loss: LossKind,
    lower: np.ndarray,
    upper: np.ndarray,
    tol: float = 1e-8,
    max_steps: int = 200,
) -> RobustFitResult:
    """Minimize the robust objective over one parameter vector.

    Parameters
    ----------
    model_fn : callable
        Maps parameters ``x`` to ``(predictions, jacobian)`` where the
        jacobian holds ``d prediction / d x`` with shape ``(n, p)``.
    x0 : ndarray
        Starting point; clipped into the box before the first evaluation.
    y, sigma, omega : array_like
        Observations, residual scales (scalar or per-point) and per-point
        objective weights.
    loss : LossKind
        Which M-estimator shapes the residual penalty.
    lower, upper : ndarray
        Elementwise bounds; use ``+-inf`` for free parameters.
    tol : float
        Convergence threshold on the infinity norm of the projected
        gradient.
    max_steps : int
        Cap on accepted-or-rejected outer steps.

    Raises
    ------
    SolverError
        If the objective is not finite at the starting point.
    """
    loss = LossKind(loss)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    x = np.clip(np.asarray(x0, dtype=float), lower, upper)
    sigma = np.asarray(sigma, dtype=float)
    omega = np.asarray(omega, dtype=float)

    pred, jac = model_fn(x)
    r = (y - pred) / sigma
    if not np.all(np.isfinite(r)):
        raise SolverError("objective is not finite at the starting point")
    fval = _objective(loss, r, omega)

    lam = _LAMBDA_INIT
    n_steps = 0
    for _ in range(max_steps):
        n_steps += 1
        psi_r = psi(loss, r)
        wt = weight(loss, r)
        # d r / d x = -J / sigma
        scale = omega / sigma
        grad = -(jac.T @ (psi_r * scale))
        pgrad = grad.copy()
        pgrad[(x <= lower) & (grad > 0)] = 0.0
        pgrad[(x >= upper) & (grad < 0)] = 0.0
        if np.max(np.abs(pgrad), initial=0.0) <= tol:
            return RobustFitResult(x, fval, n_steps, True)

        jw = jac * (scale * wt / sigma)[:, None]
        hess = jac.T @ jw
        # Tie the damping floor of flat directions to the dominant
        # curvature so near-singular solves cannot produce huge steps.
        diag = np.diag(hess)
        damp = np.maximum(diag, max(1e-6 * float(diag.max(initial=0.0)), 1e-12))

        accepted = False
        while lam <= _LAMBDA_MAX:
            try:
                step = np.linalg.solve(hess + lam * np.diag(damp), -grad)
            except np.linalg.LinAlgError:
                lam *= _LAMBDA_UP
                continue
            if not np.all(np.isfinite(step)):
                lam *= _LAMBDA_UP
                continue
            x_new = np.clip(x + step, lower, upper)
            if np.max(np.abs(x_new - x), initial=0.0) <= 1e-15 * (1.0 + np.max(np.abs(x))):
                # The box absorbed the whole step; nothing left to try.
                return RobustFitResult(x, fval, n_steps, True)
            pred_new, jac_new = model_fn(x_new)
            r_new = (y - pred_new) / sigma
            if np.all(np.isfinite(r_new)):
                f_new = _objective(loss, r_new, omega)
                if np.isfinite(f_new) and f_new < fval - 1e-15 * (1.0 + abs(fval)):
                    decrease = fval - f_new
                    x, pred, jac, r, fval = x_new, pred_new, jac_new, r_new, f_new
                    lam = max(lam * _LAMBDA_DOWN, 1e-7)
                    accepted = True
                    if decrease <= _FTOL * max(1.0, abs(fval)):
                        return RobustFitResult(x, fval, n_steps, True)
                    break
            lam *= _LAMBDA_UP
        if not accepted:
            # Damping exhausted without an acceptable step: stationary
            # within floating point resolution.
            return RobustFitResult(x, fval, n_steps, True)
    return RobustFitResult(x, fval, n_steps, False)


def minimize_subjects(
    eval_fn: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    x0: np.ndarray,
    *,
    t: np.ndarray,
    y: np.ndarray,
    sub: np.ndarray,
    sigma: np.ndarray,
    omega: np.ndarray,
    n_subjects: int,
    loss: LossKind,
    tol: float = 1e-8,
    max_steps: int = 200,
    log_alpha_bounds=(-_LOG_ALPHA_LIMIT, _LOG_ALPHA_LIMIT),
    offset_bounds=(-np.inf, np.inf),
    frozen: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve every subject's ``(log alpha, offset)`` subproblem at once.

    Each measurement ``n`` belongs to subject ``sub[n]`` and contributes
    ``omega_n * rho((y_n - f(exp(u) t_n + w)) / sigma_n)`` to that
    subject's objective, where ``(u, w)`` is the subject's row of ``x``.
    ``eval_fn(s, rows)`` maps the scores ``s`` of the measurements with
    sorted indices ``rows`` to ``(predictions, d prediction / d score)`` at
    those measurements, dispatching internally over biomarkers.  Each
    iteration evaluates only the rows of subjects still being solved, and
    per-subject sums keep the order of a sum over every row, so the result
    does not depend on which other subjects share the call.
    The meaning of ``w`` follows from the caller's ``t``: with raw ages it
    is the onset, with per-subject mean-centered ages it is the subject's
    score at their mean age, which makes ``offset_bounds`` a direct box on
    where subjects may sit on the score axis.

    ``log_alpha_bounds`` and ``offset_bounds`` each hold a ``(lower,
    upper)`` pair of scalars or per-subject arrays.  A coordinate on its
    bound whose gradient points out of the box is held there: it drops out
    of the 2x2 Newton system and the other coordinate takes the 1-D damped
    step ``-g / a``.  Candidate steps are clipped into the box but the
    starting point is not, so a warm start outside the box either stays
    put or is drawn in by a strictly improving step; the objective never
    rises either way.

    Each subject keeps its own damping ``lambda``.  A rejected step raises
    it.  An accepted step whose box took nothing from it, with no pinned
    coordinate, is judged by its gain ratio: the actual decrease over the
    decrease ``-(g.d + d.H.d / 2)`` that the undamped Gauss-Newton model
    predicts for the step ``d``.  Below ``_GAIN_LOW`` it raises the
    damping, above ``_GAIN_HIGH`` it lowers it, and in between the damping
    stays.  Any other accepted step lowers it, so a subject pinned at its
    box still reaches the bound in a few steps.

    Returns ``(x, objective, at_bound)`` where ``x`` has shape ``(S, 2)``,
    ``objective`` the per-subject final values, and ``at_bound`` flags
    subjects whose rate hit the log-alpha box.  Subjects marked ``frozen``
    (or owning no measurements) are left untouched.

    Raises
    ------
    SolverError
        If some subject's objective is not finite at the starting point;
        its ``subject`` attribute holds the first such subject's index.
    """
    loss = LossKind(loss)
    x = np.array(x0, dtype=float)
    la_lo = np.broadcast_to(np.asarray(log_alpha_bounds[0], dtype=float), (n_subjects,))
    la_hi = np.broadcast_to(np.asarray(log_alpha_bounds[1], dtype=float), (n_subjects,))
    w_lo = np.broadcast_to(np.asarray(offset_bounds[0], dtype=float), (n_subjects,))
    w_hi = np.broadcast_to(np.asarray(offset_bounds[1], dtype=float), (n_subjects,))
    movable = np.ones(n_subjects, dtype=bool) if frozen is None else ~np.asarray(frozen, dtype=bool)

    def evaluate(params: np.ndarray, rows: np.ndarray):
        # Per-subject sums over ``rows`` add each subject's terms in the
        # same order as a sum over every row would.
        sr = sub[rows]
        alpha = np.exp(params[sr, 0])
        s = alpha * t[rows] + params[sr, 1]
        pred, dfds = eval_fn(s, rows)
        # An absurd value overflows to an infinite residual, which the
        # objective reports; no warning is needed on the way.
        with np.errstate(over="ignore", invalid="ignore"):
            r = (y[rows] - pred) / sigma[rows]
        finite = np.isfinite(r)
        obj_n = np.where(finite, rho(loss, np.where(finite, r, 0.0)), np.inf)
        obj = np.bincount(sr, weights=omega[rows] * obj_n, minlength=n_subjects)
        return obj, r, dfds, alpha

    rows = np.arange(sub.size)
    obj, r, dfds, alpha = evaluate(x, rows)
    bad = np.nonzero(~np.isfinite(obj))[0]
    if bad.size:
        raise SolverError(
            "subject objective is not finite at the starting point", subject=int(bad[0])
        )

    n_points = np.bincount(sub, minlength=n_subjects)
    done = n_points == 0
    if frozen is not None:
        done = done | frozen
    lam = np.full(n_subjects, _LAMBDA_INIT)

    for _ in range(max_steps):
        # Only rows of subjects still being solved take part below; ``r``,
        # ``dfds`` and ``alpha`` stay full length and are updated in place.
        rows = rows[~done[sub[rows]]]
        sr = sub[rows]
        r_l = r[rows]
        finite_r = np.where(np.isfinite(r_l), r_l, 0.0)
        psi_n, wt_n = loss_terms(loss, finite_r)
        db = dfds[rows]
        da = db * alpha[rows] * t[rows]  # d prediction / d log alpha
        gscale = omega[rows] * psi_n / sigma[rows]
        g0 = -np.bincount(sr, weights=gscale * da, minlength=n_subjects)
        g1 = -np.bincount(sr, weights=gscale * db, minlength=n_subjects)
        hscale = omega[rows] * wt_n / (sigma[rows] * sigma[rows])
        h00 = np.bincount(sr, weights=hscale * da * da, minlength=n_subjects)
        h01 = np.bincount(sr, weights=hscale * da * db, minlength=n_subjects)
        h11 = np.bincount(sr, weights=hscale * db * db, minlength=n_subjects)

        # A coordinate on its bound with the gradient pushing outward is
        # pinned: it leaves the projected gradient and the Newton system.
        pin0 = ((x[:, 0] <= la_lo) & (g0 > 0)) | ((x[:, 0] >= la_hi) & (g0 < 0))
        pin1 = ((x[:, 1] <= w_lo) & (g1 > 0)) | ((x[:, 1] >= w_hi) & (g1 < 0))
        g0p = np.where(pin0, 0.0, g0)
        g1p = np.where(pin1, 0.0, g1)
        gnorm = np.maximum(np.abs(g0p), np.abs(g1p))
        done = done | (gnorm <= tol) | (lam > _LAMBDA_MAX)
        active = ~done
        if not np.any(active):
            break

        # Same damping floor logic as the dense solver: flat directions
        # borrow the dominant curvature scale instead of staying free.
        floor = np.maximum(1e-6 * np.maximum(h00, h11), 1e-12)
        a00 = h00 + lam * np.maximum(h00, floor)
        a11 = h11 + lam * np.maximum(h11, floor)
        # Projected Newton step (Bertsekas 1982): without its coupling a
        # pinned coordinate stays put and the free one takes the 1-D damped
        # step -g / a.  Clipping the coupled step instead creeps along the
        # bound for many steps.
        h01 = np.where(pin0 | pin1, 0.0, h01)
        det = a00 * a11 - h01 * h01
        solvable = active & np.isfinite(det) & (det > 1e-300)
        p0 = np.zeros(n_subjects)
        p1 = np.zeros(n_subjects)
        p0[solvable] = (-g0p[solvable] * a11[solvable] + h01[solvable] * g1p[solvable]) / det[solvable]
        p1[solvable] = (-g1p[solvable] * a00[solvable] + h01[solvable] * g0p[solvable]) / det[solvable]

        x_cand = x.copy()
        x_cand[solvable, 0] = np.clip(x[solvable, 0] + p0[solvable], la_lo[solvable], la_hi[solvable])
        x_cand[solvable, 1] = np.clip(x[solvable, 1] + p1[solvable], w_lo[solvable], w_hi[solvable])
        finite_step = solvable & np.all(np.isfinite(x_cand), axis=1)
        clipped = (x_cand[:, 0] != x[:, 0] + p0) | (x_cand[:, 1] != x[:, 1] + p1)

        cand_rows = rows[active[sr]]
        obj_cand, r_cand, dfds_cand, alpha_cand = evaluate(x_cand, cand_rows)
        improved = finite_step & (obj_cand < obj - 1e-15 * (1.0 + np.abs(obj)))

        # Gain ratio (see the docstring).  On the curve plateaus the model
        # overshoots, so a step that only just improves raises the damping
        # instead of zigzagging on with every step accepted.
        new_lam = np.maximum(lam * _LAMBDA_DOWN, 1e-7)
        steered = np.nonzero(improved & ~clipped & ~pin0 & ~pin1)[0]
        d0 = x_cand[steered, 0] - x[steered, 0]
        d1 = x_cand[steered, 1] - x[steered, 1]
        predicted = -(g0[steered] * d0 + g1[steered] * d1) - 0.5 * (
            h00[steered] * d0 * d0 + 2.0 * h01[steered] * d0 * d1 + h11[steered] * d1 * d1
        )
        actual = obj[steered] - obj_cand[steered]
        new_lam[steered] = np.where(
            actual < _GAIN_LOW * predicted,
            lam[steered] * _LAMBDA_UP,
            np.where(actual > _GAIN_HIGH * predicted, new_lam[steered], lam[steered]),
        )

        x[improved] = x_cand[improved]
        lam[improved] = new_lam[improved]
        done = done | (improved & (obj - obj_cand <= _FTOL * np.maximum(1.0, np.abs(obj))))
        rejected = active & ~improved
        lam[rejected] *= _LAMBDA_UP

        if np.any(improved):
            keep = improved[sub[cand_rows]]
            moved = cand_rows[keep]
            r[moved] = r_cand[keep]
            dfds[moved] = dfds_cand[keep]
            alpha[moved] = alpha_cand[keep]
            obj[improved] = obj_cand[improved]
        if not np.any(improved) and np.all(lam[active] > _LAMBDA_MAX):
            break

    at_bound = movable & ((x[:, 0] <= la_lo) | (x[:, 0] >= la_hi))
    return x, obj, at_bound

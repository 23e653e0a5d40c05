"""Damped Gauss-Newton minimization of robust regression objectives.

Both routines here minimize

    F(x) = sum_n omega_n * rho((y_n - f_n(x)) / sigma_n)

over box-constrained parameters, using the iteratively reweighted
Gauss-Newton curvature ``H = J^T diag(omega * weight(r) / sigma^2) J`` with
Levenberg-style diagonal damping.  Candidate steps are clipped to the box
and accepted only when they strictly decrease ``F``, so the objective is
monotone along the iterate path; a rejected or non-finite step raises the
damping instead of aborting.

Both solvers take projected Newton steps (Bertsekas 1982, "Projected
Newton methods for optimization problems with simple constraints") under
one rule, :func:`_pinned`: a coordinate on a bound whose gradient points
out of the box is held there.  It leaves the projected gradient and the
damped Newton system, and the free coordinates solve the system without
it.  Solving over every coordinate and clipping the step instead creeps
along the bound in short, distorted steps.

A rejected trial can also end a solve as stationary (stalled): when the
box took nothing from its step ``d`` and twice the decrease the undamped
Gauss-Newton model predicts for it, ``-(2 g.d + d.H.d)``, is within the
acceptance threshold ``1e-15 (1 + |F|)``.  Since ``d = -(H + lam D)^-1 g``
gives ``-g.d >= d.H.d``, that quantity bounds ``-g.d``, which bounds the
actual decrease wherever ``F`` is convex along ``d``, and both shrink as
the damping grows: no more damping could find an acceptable step, so the
solve stops there rather than raising the damping up to ``_LAMBDA_MAX``,
which stays as the backstop.

:func:`minimize_robust` handles one dense parameter vector (the per-curve
subproblems).  :func:`minimize_subjects` solves many independent
two-parameter ``(log alpha, beta)`` problems simultaneously with per-subject
damping, which is how the per-subject subproblems stay cheap in pure numpy.
Its iterations stay cheap because it holds arrays only for the subjects
still being solved and their measurements, grouped by subject and
compacted as subjects finish, so an iteration's numpy calls are sized to
the live subjects rather than the whole batch.  Two rules keep them few.
It steers each subject's damping by the gain ratio, the actual decrease
over the decrease the undamped Gauss-Newton model predicts (More 1978,
"The Levenberg-Marquardt algorithm: implementation and theory"), so a
subject on the curve plateaus, where that model overshoots, no longer
zigzags to ``max_steps``.  And each subject keeps a step-length scale for
where the model over-curves instead: a gain ratio that stays near 2 at
the damping floor means each step is far too short, and no lower damping
can lengthen it.  After an accepted, unclipped, unpinned step taken at
the floor with a gain ratio above ``_GAIN_STRETCH``, the subject's
curvature scale ``kappa`` halves, down to ``_SCALE_MIN``: its steps are
divided by ``kappa`` and the curvature term of its predicted decrease is
multiplied by it.  A rejected trial, or a gain ratio below ``_GAIN_LOW``,
resets ``kappa`` to 1 and the damping then moves as before.  A subject
that never meets the trigger keeps ``kappa`` at 1, and its path is the
one it took without the rule.

The loops evaluate the loss through the unchecked kernels of
:mod:`~dpsfit.robust_loss` (``_rho`` and the fused ``loss_terms``), not
the public ``rho``, ``psi`` and ``weight``, whose input checks would rerun
on every evaluation: each solver checks its residuals for finiteness once,
where they are computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import SolverError
from .robust_loss import LossKind, _rho, loss_terms

__all__ = ["RobustFitResult", "minimize_robust", "minimize_subjects"]

_LAMBDA_INIT = 1e-3
_LAMBDA_MAX = 1e12
_LAMBDA_UP = 10.0
_LAMBDA_DOWN = 1.0 / 3.0
_LAMBDA_MIN = 1e-7
# Gain ratios (actual over predicted decrease) below _GAIN_LOW raise the
# subject solver's damping on an accepted step, above _GAIN_HIGH lower it.
_GAIN_LOW = 0.25
_GAIN_HIGH = 0.75
# A subject step taken at _LAMBDA_MIN whose gain ratio exceeds _GAIN_STRETCH
# halves that subject's curvature scale, down to _SCALE_MIN: the reweighted
# Gauss-Newton model over-curves there, so its steps fall far short.
_GAIN_STRETCH = 1.5
_SCALE_MIN = 1e-6
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
    return float(np.dot(omega, _rho(loss, r)))


def _resolution(f):
    """The least decrease of an objective at ``f`` that counts as one."""
    return 1e-15 * (1.0 + np.abs(f))


def _pinned(x, g, lower, upper):
    """The coordinates held on the box: on a bound, with the gradient ``g``
    pointing out of it.  A projected Newton step (Bertsekas 1982) leaves
    them out of the Newton system and out of the projected gradient."""
    return ((x <= lower) & (g > 0)) | ((x >= upper) & (g < 0))


def _stalled(predicted, f):
    """Whether a rejected, unclipped trial step, for which the undamped
    Gauss-Newton model predicts the decrease ``predicted``, shows that no
    more damping can find a step the objective at ``f`` accepts.

    For a damped step ``d = -(H + lam D)^-1 g``, ``-g.d >= d.H.d``, so
    twice the predicted decrease ``-(2 g.d + d.H.d)`` bounds ``-g.d``,
    which bounds the actual decrease wherever the objective is convex along
    ``d``.  Both shrink as the damping grows.
    """
    return 2.0 * predicted <= _resolution(f)


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

    An outer step raises the damping after each rejected trial until one
    is accepted.  The solve ends as converged when the projected gradient
    is within ``tol``, an accepted step gained less than ``_FTOL``
    relative, the box absorbs a whole step, the damping passes
    ``_LAMBDA_MAX``, or a rejected trial stalled (see the module
    docstring), which spares the trials that more damping cannot rescue.

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
        psi_r, wt = loss_terms(loss, r)
        # d r / d x = -J / sigma
        scale = omega / sigma
        grad = -(jac.T @ (psi_r * scale))
        pinned = _pinned(x, grad, lower, upper)
        pgrad = np.where(pinned, 0.0, grad)
        if np.max(np.abs(pgrad), initial=0.0) <= tol:
            return RobustFitResult(x, fval, n_steps, True)

        jw = jac * (scale * wt / sigma)[:, None]
        hess = jac.T @ jw
        # Tie the damping floor of flat directions to the dominant
        # curvature so near-singular solves cannot produce huge steps.
        diag = np.diag(hess)
        damp = np.maximum(diag, max(1e-6 * float(diag.max(initial=0.0)), 1e-12))
        # Projected Newton step: a pinned coordinate's row and column leave
        # the Hessian, so the free coordinates solve the damped system
        # without it, and its own damped equation ``lam * damp * step = 0``
        # holds it on its bound.
        free_hess = np.where(pinned | pinned[:, None], 0.0, hess)

        accepted = False
        while lam <= _LAMBDA_MAX:
            try:
                step = np.linalg.solve(free_hess + lam * np.diag(damp), -pgrad)
            except np.linalg.LinAlgError:
                lam *= _LAMBDA_UP
                continue
            if not np.all(np.isfinite(step)):
                lam *= _LAMBDA_UP
                continue
            x_step = x + step
            x_new = np.clip(x_step, lower, upper)
            dx = x_new - x
            if np.max(np.abs(dx), initial=0.0) <= 1e-15 * (1.0 + np.max(np.abs(x))):
                # The box absorbed the whole step; nothing left to try.
                return RobustFitResult(x, fval, n_steps, True)
            pred_new, jac_new = model_fn(x_new)
            r_new = (y - pred_new) / sigma
            if np.all(np.isfinite(r_new)):
                f_new = _objective(loss, r_new, omega)
                if np.isfinite(f_new) and f_new < fval - _resolution(fval):
                    decrease = fval - f_new
                    x, pred, jac, r, fval = x_new, pred_new, jac_new, r_new, f_new
                    lam = max(lam * _LAMBDA_DOWN, _LAMBDA_MIN)
                    accepted = True
                    if decrease <= _FTOL * max(1.0, abs(fval)):
                        return RobustFitResult(x, fval, n_steps, True)
                    break
            # No more damping can rescue an unclipped trial that stalled.
            if np.array_equal(x_new, x_step) and _stalled(-(grad @ dx) - 0.5 * (dx @ hess @ dx), fval):
                return RobustFitResult(x, fval, n_steps, True)
            lam *= _LAMBDA_UP
        if not accepted:
            # Damping exhausted without an acceptable step: stationary
            # within floating point resolution.
            return RobustFitResult(x, fval, n_steps, True)
    return RobustFitResult(x, fval, n_steps, False)


def _subject_sums(loss: LossKind, loc, n_live: int, t, sigma, omega, r, dfds, alpha):
    """Each subject's gradient ``G`` and reweighted Gauss-Newton curvature,
    its diagonal ``H`` and its coupling ``h01``, over the rows ``loc``
    assigns it; ``G`` and ``H`` are coordinate-major ``(2, n_live)``.

    ``np.bincount`` adds a subject's terms in row order, so the sums do not
    depend on the other subjects' rows.  The row temporaries end with the
    call, which keeps them out of the solver's memory peak.
    """
    psi_n, wt_n = loss_terms(loss, r)
    da = dfds * alpha * t  # d prediction / d log alpha
    gscale = omega * psi_n / sigma
    hscale = omega * wt_n / (sigma * sigma)
    hda = hscale * da

    def total(weights):
        return np.bincount(loc, weights=weights, minlength=n_live)

    G = -np.array([total(gscale * da), total(gscale * dfds)])
    H = np.array([total(hda * da), total(hscale * dfds * dfds)])
    return G, H, total(hda * dfds)


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve every subject's ``(log alpha, offset)`` subproblem at once.

    Each measurement ``n`` belongs to subject ``sub[n]`` and contributes
    ``omega_n * rho((y_n - f(exp(u) t_n + w)) / sigma_n)`` to that
    subject's objective, where ``(u, w)`` is the subject's row of ``x``.
    ``eval_fn(s, rows)`` maps the scores ``s`` of the measurements with
    indices ``rows`` to ``(predictions, d prediction / d score)`` at those
    measurements, dispatching internally over biomarkers.  The first call
    passes every measurement in its given order; later calls pass only the
    rows of subjects still being solved, grouped by subject (each
    subject's rows in their given order), so ``eval_fn`` must work row by
    row.  Subjects leave the solve as they finish, and every per-subject
    sum adds its terms in the order of a sum over every row, so the result
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
    box still reaches the bound in a few steps.  The predicted decrease
    takes the subject's curvature scale ``kappa`` as ``-(g.d + kappa
    d.H.d / 2)``, and a judged step taken at the damping floor whose gain
    ratio exceeds ``_GAIN_STRETCH`` halves ``kappa``, which lengthens the
    next steps (see the module docstring).  A subject finishes when its
    projected gradient is within ``tol``, its damping passes
    ``_LAMBDA_MAX``, its last accepted step gained less than ``_FTOL``
    relative, or its last trial was rejected and stalled: the box took
    nothing from the step and twice its ``predicted`` decrease is within
    the acceptance threshold, so no more damping could rescue it (see the
    module docstring).

    Returns ``(x, objective, at_bound)`` where ``x`` has shape ``(S, 2)``,
    ``objective`` the per-subject final values, and ``at_bound`` flags
    subjects whose rate hit the log-alpha box.  A subject with fewer than
    2 measurements cannot fix both of its coordinates and is left at its
    start.  So is a subject whose objective is not finite at the starting
    point: it keeps its start and its non-finite objective, which is how
    the caller learns of it, and the other subjects are solved as if it
    were absent.
    """
    loss = LossKind(loss)
    x = np.array(x0, dtype=float)
    la_lo = np.broadcast_to(np.asarray(log_alpha_bounds[0], dtype=float), (n_subjects,))
    la_hi = np.broadcast_to(np.asarray(log_alpha_bounds[1], dtype=float), (n_subjects,))
    w_lo = np.broadcast_to(np.asarray(offset_bounds[0], dtype=float), (n_subjects,))
    w_hi = np.broadcast_to(np.asarray(offset_bounds[1], dtype=float), (n_subjects,))
    enough_rows = np.bincount(sub, minlength=n_subjects) >= 2

    def evaluate(params, loc, rows, t, y, sigma, omega):
        # ``params`` holds one column per subject and ``loc`` the column of
        # each row.  An absurd value overflows to an infinite residual, or
        # a finite one to an infinite loss, which the objective reports; no
        # warning is needed on the way.
        alpha = np.exp(params[0][loc])
        s = alpha * t + params[1][loc]
        pred, dfds = eval_fn(s, rows)
        with np.errstate(over="ignore", invalid="ignore"):
            r = (y - pred) / sigma
            finite = np.isfinite(r)
            obj_n = np.where(finite, _rho(loss, np.where(finite, r, 0.0)), np.inf)
        obj = np.bincount(loc, weights=omega * obj_n, minlength=params.shape[1])
        return obj, r, dfds, alpha

    obj, r, dfds, alpha = evaluate(x.T, sub, np.arange(sub.size), t, y, sigma, omega)

    # The state of the live subjects, the ones still being solved: one
    # column per subject (coordinate-major, so one expression covers both
    # coordinates) and one entry per row of theirs, grouped by subject.
    # A live subject's objective is finite, so its residuals are too: a
    # non-finite one would make its term infinite or NaN.
    live = enough_rows & np.isfinite(obj)
    ids = np.flatnonzero(live)
    rows = np.flatnonzero(live[sub])
    rows = rows[np.argsort(sub[rows], kind="stable")]
    loc = (live.cumsum() - 1)[sub[rows]]
    t, y, sigma, omega, r, dfds, alpha = (v[rows] for v in (t, y, sigma, omega, r, dfds, alpha))
    X = x[ids].T
    lower = np.stack([la_lo, w_lo])[:, ids]
    upper = np.stack([la_hi, w_hi])[:, ids]
    F = obj[ids]
    lam = np.full(ids.size, _LAMBDA_INIT)
    kappa = np.ones(ids.size)  # curvature scale: each step is 1 / kappa long
    done = np.zeros(ids.size, dtype=bool)  # gained below _FTOL, or stalled

    for _ in range(max_steps):
        G, H, h01 = _subject_sums(loss, loc, ids.size, t, sigma, omega, r, dfds, alpha)
        pinned = _pinned(X, G, lower, upper)
        GP = np.where(pinned, 0.0, G)
        finished = (np.abs(GP).max(axis=0) <= tol) | (lam > _LAMBDA_MAX) | done
        if finished.any():
            x[ids[finished]] = X[:, finished].T
            obj[ids[finished]] = F[finished]
            keep = ~finished
            ids, F, lam, kappa, h01, X, lower, upper, G, H, pinned, GP = (
                v.compress(keep, axis=-1)
                for v in (ids, F, lam, kappa, h01, X, lower, upper, G, H, pinned, GP)
            )
            kept = np.flatnonzero(keep[loc])
            loc = (keep.cumsum() - 1)[loc[kept]]
            rows, t, y, sigma, omega, r, dfds, alpha = (
                v[kept] for v in (rows, t, y, sigma, omega, r, dfds, alpha)
            )
        if not ids.size:
            break

        # Same damping floor logic as the dense solver: flat directions
        # borrow the dominant curvature scale instead of staying free.
        floor = np.maximum(1e-6 * np.maximum(H[0], H[1]), 1e-12)
        AD = H + lam * np.maximum(H, floor)
        # Projected Newton step (Bertsekas 1982): without its coupling a
        # pinned coordinate stays put and the free one takes the 1-D damped
        # step -g / a.  Clipping the coupled step instead creeps along the
        # bound for many steps.
        free = ~(pinned[0] | pinned[1])
        h01 = np.where(free, h01, 0.0)
        det = AD[0] * AD[1] - h01 * h01
        solvable = np.isfinite(det) & (det > 1e-300)
        # An unsolvable subject's step is never taken: it is evaluated
        # where it stands and cannot improve.
        with np.errstate(over="ignore", invalid="ignore"):
            step = (-GP * AD[::-1] + h01 * GP[::-1]) / (np.where(solvable, det, 1.0) * kappa)
            X_step = X + step
            X_cand = np.where(solvable, np.clip(X_step, lower, upper), X)
        finite_step = solvable & np.isfinite(X_cand).all(axis=0)
        clipped = (X_cand != X_step).any(axis=0)

        F_cand, r_cand, dfds_cand, alpha_cand = evaluate(X_cand, loc, rows, t, y, sigma, omega)
        improved = finite_step & (F_cand < F - _resolution(F))
        actual = F - F_cand

        # Gain ratio (see the docstring).  On the curve plateaus the model
        # overshoots, so a step that only just improves raises the damping
        # instead of zigzagging on with every step accepted.
        with np.errstate(over="ignore", invalid="ignore"):
            D = X_cand - X
            GD = G * D
            HDD = H * D * D
            DHD = HDD[0] + 2.0 * h01 * D[0] * D[1] + HDD[1]
            predicted = -(GD[0] + GD[1]) - 0.5 * kappa * DHD
        judged = free & ~clipped
        low = actual < _GAIN_LOW * predicted
        up = lam * _LAMBDA_UP
        down = np.maximum(lam * _LAMBDA_DOWN, _LAMBDA_MIN)
        gain = np.where(low, up, np.where(actual > _GAIN_HIGH * predicted, down, lam))
        # Step-length scale (see the docstring): a subject the model still
        # over-curves at the damping floor takes longer steps; one whose
        # trial failed or gained too little returns to full curvature.
        stretch = improved & judged & (lam <= _LAMBDA_MIN) & (actual > _GAIN_STRETCH * predicted)
        kappa = np.where(stretch, np.maximum(0.5 * kappa, _SCALE_MIN),
                         np.where(~improved | (judged & low), 1.0, kappa))
        lam = np.where(improved, np.where(judged, gain, down), up)
        done = np.where(improved, actual <= _FTOL * np.maximum(1.0, np.abs(F)),
                        finite_step & ~clipped & _stalled(predicted, F))

        X = np.where(improved, X_cand, X)
        F = np.where(improved, F_cand, F)
        moved = improved[loc]
        r = np.where(moved, r_cand, r)
        dfds = np.where(moved, dfds_cand, dfds)
        alpha = np.where(moved, alpha_cand, alpha)

    x[ids] = X.T
    obj[ids] = F
    at_bound = enough_rows & ((x[:, 0] <= la_lo) | (x[:, 0] >= la_hi))
    return x, obj, at_bound

"""Alternating robust estimation of curves and subject timelines.

Fitting alternates two blocks of independent subproblems until a fixed
iteration budget is spent:

* the biomarker step refits every curve's parameters against the current
  subject scores;
* the subject step refits every subject's ``(alpha, beta)`` against the
  current curves, with the rate kept positive through a log
  parameterization.

Both steps only ever accept objective decreases, so the training loss is
non-increasing across iterations.  Because the alternation has no global
convergence guarantee, the returned model is the snapshot with the lowest
validation loss over a trailing iteration window; validation subjects are
re-estimated from scratch against each iteration's curves so their scores
never leak into training.

Each measurement contributes ``rho(residual / sigma_k) / N_i``: the
per-biomarker scale ``sigma_k`` is frozen at the sample standard deviation
of that biomarker's training values, and the ``1 / N_i`` weight stops
heavily sampled subjects from dominating.
"""

from __future__ import annotations

import csv
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import curves as curves_mod
from .cohort import Cohort, ConstraintPolicy, Diagnosis, Direction
from .curves import CurveParams, LogisticKind
from .errors import FitError, InitializationError, SolverError
from .optim import minimize_robust
from .progression import (
    FittedModel,
    Standardization,
    SubjectParams,
    _eval_flat,
    _Flat,
    _flatten,
    _sigma_per_measurement,
    _solve_subjects,
    degrees_of_freedom,
    param_count,
    standardize,
)
from .robust_loss import LossKind

__all__ = [
    "FitConfig",
    "FitTrace",
    "FitState",
    "initialize",
    "fit",
    "fit_biomarker_step",
    "fit_subject_step",
    "objective",
]

_GAMMA_BOUNDS = (1e-4, 1e4)
_RATE_FLOOR = 1e-8


@dataclass(frozen=True)
class FitConfig:
    """Knobs of one fitting run."""

    curve_kind: LogisticKind = LogisticKind.MODIFIED_STANNARD
    loss_kind: LossKind = LossKind.LOGISTIC
    l_min: int = 10
    l_max: int = 50
    inner_solver_tol: float = 1e-8
    inner_max_steps: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "curve_kind", LogisticKind(self.curve_kind))
        object.__setattr__(self, "loss_kind", LossKind(self.loss_kind))
        if not (1 <= self.l_min <= self.l_max):
            raise FitError(
                f"iteration window must satisfy 1 <= l_min <= l_max, "
                f"got ({self.l_min}, {self.l_max})"
            )


@dataclass
class FitTrace:
    """Loss history of one fitting run."""

    e_train: list[float] = field(default_factory=list)
    e_valid: list[float] = field(default_factory=list)
    l_opt: int = 0
    warnings: list[str] = field(default_factory=list)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "E_train", "E_valid"])
            for i, (et, ev) in enumerate(zip(self.e_train, self.e_valid), start=1):
                writer.writerow([i, repr(et), repr(ev)])


@dataclass
class FitState:
    """Mutable working state of the alternation."""

    curves: dict[str, CurveParams]
    subjects: dict[str, SubjectParams]
    sigma: dict[str, float]


# ----------------------------------------------------------------------
# flat measurement arrays
# ----------------------------------------------------------------------

def _constant_data(flat: _Flat) -> np.ndarray:
    """Per-subject flag: repeated measurements exist but none show spread.

    Biomarkers measured only once for a subject say nothing about change,
    so they neither establish nor refute constancy.
    """
    n_subjects = len(flat.subject_ids)
    n_bm = len(flat.biomarker_names)
    key = flat.sub * n_bm + flat.bm
    counts = np.bincount(key, minlength=n_subjects * n_bm)
    vmin = np.full(n_subjects * n_bm, np.inf)
    vmax = np.full(n_subjects * n_bm, -np.inf)
    if flat.y.size:
        np.minimum.at(vmin, key, flat.y)
        np.maximum.at(vmax, key, flat.y)
    has_multi = np.zeros(n_subjects, dtype=bool)
    has_multi[np.nonzero(counts >= 2)[0] // n_bm] = True
    has_spread = np.zeros(n_subjects, dtype=bool)
    has_spread[np.nonzero(vmax > vmin)[0] // n_bm] = True
    return has_multi & ~has_spread


def _subject_matrix(flat: _Flat, subjects: dict[str, SubjectParams]) -> np.ndarray:
    x = np.empty((len(flat.subject_ids), 2))
    for i, sid in enumerate(flat.subject_ids):
        sp = subjects[sid]
        x[i, 0] = np.log(sp.alpha)
        x[i, 1] = sp.beta
    return x


# ----------------------------------------------------------------------
# initialization
# ----------------------------------------------------------------------

def initialize(cohort: Cohort, config: FitConfig) -> FitState:
    """Starting parameters derived from group statistics.

    Subjects start at the identity timeline (``alpha = 1``, ``beta = 0``),
    so initial scores are ages.  Each curve starts with its asymptotes at
    the observed or declared value range, oriented by comparing the means
    of cognitively normal and demented measurements (falling back to the
    declared direction hint), inflection at score zero, unit symmetry, and
    the growth rate ``4 * lambda / (a - d)`` that gives the oriented unit
    logistic its slope at the inflection.
    """
    state_curves: dict[str, CurveParams] = {}
    sigma: dict[str, float] = {}
    for name in cohort.biomarker_names():
        values, cn_values, ad_values = [], [], []
        for v in cohort.visits:
            value = v.values.get(name)
            if value is None:
                continue
            values.append(value)
            if v.diagnosis is Diagnosis.CN:
                cn_values.append(value)
            elif v.diagnosis is Diagnosis.AD:
                ad_values.append(value)
        if len(values) < 2:
            raise InitializationError(f"biomarker {name!r}: fewer than 2 values")
        arr = np.array(values)
        sd = float(arr.std(ddof=1))
        if not sd > 0:
            raise InitializationError(f"biomarker {name!r}: values have no spread")
        sigma[name] = sd

        spec = cohort.specs[name]
        if cn_values and ad_values:
            lam = 1.0 if float(np.mean(cn_values)) < float(np.mean(ad_values)) else -1.0
        elif spec.direction_hint is Direction.INCREASING:
            lam = 1.0
        elif spec.direction_hint is Direction.DECREASING:
            lam = -1.0
        else:
            raise InitializationError(
                f"biomarker {name!r}: no diagnosed groups to orient the curve "
                f"and no direction hint"
            )

        if spec.constraint_policy is ConstraintPolicy.FIXED_RANGE:
            lo, hi = spec.valid_range
        else:
            lo, hi = float(arr.min()), float(arr.max())
        d0, a0 = (lo, hi) if lam > 0 else (hi, lo)
        state_curves[name] = CurveParams(
            kind=config.curve_kind,
            a=a0,
            d=d0,
            b=4.0 * lam / (a0 - d0),
            c=0.0,
            gamma=1.0,
        )

    subjects = {sid: SubjectParams(alpha=1.0, beta=0.0) for sid in cohort.subject_ids()}
    return FitState(curves=state_curves, subjects=subjects, sigma=sigma)


# ----------------------------------------------------------------------
# objective and alternation steps
# ----------------------------------------------------------------------

def _objective_flat(state: FitState, flat: _Flat, loss: LossKind) -> float:
    from .robust_loss import rho

    x = _subject_matrix(flat, state.subjects)
    s = np.exp(x[flat.sub, 0]) * flat.t + x[flat.sub, 1]
    curve_list = [state.curves[n] for n in flat.biomarker_names]
    pred, _ = _eval_flat(curve_list, flat, s, np.arange(s.size))
    r = (flat.y - pred) / _sigma_per_measurement(flat, state.sigma)
    return float(np.dot(flat.omega, rho(loss, r)))


def objective(state: FitState, cohort: Cohort, loss: LossKind) -> float:
    """Robust training objective of a parameter state on a cohort."""
    return _objective_flat(state, _flatten(cohort), loss)


def _free_param_names(kind: LogisticKind, policy: ConstraintPolicy) -> list[str]:
    names = [] if policy is ConstraintPolicy.FIXED_RANGE else ["a", "d"]
    names += ["b", "c"]
    if kind.has_symmetry_param:
        names.append("gamma")
    return names


_PARAM_COLUMN = {name: i for i, name in enumerate(curves_mod.PARAM_NAMES)}


def _param_bounds(name: str, policy: ConstraintPolicy) -> tuple[float, float]:
    if name in ("a", "d"):
        lo = 0.0 if policy is ConstraintPolicy.NONNEGATIVE else -np.inf
        return (lo, np.inf)
    if name == "b":
        return (_RATE_FLOOR, np.inf)
    if name == "c":
        return (-np.inf, np.inf)
    return _GAMMA_BOUNDS


def _fit_one_biomarker(
    name: str,
    state: FitState,
    flat: _Flat,
    policy: ConstraintPolicy,
    config: FitConfig,
    s_all: np.ndarray,
    iteration: int,
) -> CurveParams:
    k = flat.biomarker_names.index(name)
    lo, hi = flat.bm_bounds[k], flat.bm_bounds[k + 1]
    if hi == lo:
        return state.curves[name]
    idx = slice(lo, hi)
    s = s_all[idx]
    y = flat.y[idx]
    omega = flat.omega[idx]
    current = state.curves[name]
    free = _free_param_names(config.curve_kind, policy)
    cols = [_PARAM_COLUMN[n] for n in free]
    x0 = np.array([getattr(current, n) for n in free])
    lower = np.array([_param_bounds(n, policy)[0] for n in free])
    upper = np.array([_param_bounds(n, policy)[1] for n in free])

    def model_fn(x: np.ndarray):
        p = current.replace(**{n: v for n, v in zip(free, x)})
        f, grads = curves_mod.value_and_gradients(p, s)
        return f, grads[:, cols]

    try:
        result = minimize_robust(
            model_fn,
            x0,
            y=y,
            sigma=state.sigma[name],
            omega=omega,
            loss=config.loss_kind,
            lower=lower,
            upper=upper,
            tol=config.inner_solver_tol,
            max_steps=config.inner_max_steps,
        )
    except SolverError as exc:
        raise FitError(f"biomarker {name!r}, iteration {iteration}: {exc}") from exc
    return current.replace(**{n: v for n, v in zip(free, result.x)})


def fit_biomarker_step(
    state: FitState,
    cohort: Cohort,
    config: FitConfig,
    *,
    iteration: int = 0,
) -> FitState:
    """Refit every curve with subject timelines held fixed."""
    flat = _flatten(cohort)
    _fit_biomarker_step_flat(state, flat, cohort, config, iteration)
    return state


def _fit_biomarker_step_flat(
    state: FitState,
    flat: _Flat,
    cohort: Cohort,
    config: FitConfig,
    iteration: int,
) -> None:
    x = _subject_matrix(flat, state.subjects)
    s_all = np.exp(x[flat.sub, 0]) * flat.t + x[flat.sub, 1]
    for name in flat.biomarker_names:
        policy = cohort.specs[name].constraint_policy
        state.curves[name] = _fit_one_biomarker(
            name, state, flat, policy, config, s_all, iteration
        )


def fit_subject_step(
    state: FitState,
    cohort: Cohort,
    config: FitConfig,
    *,
    iteration: int = 0,
) -> FitState:
    """Refit every subject timeline with curves held fixed."""
    flat = _flatten(cohort)
    _fit_subject_step_flat(state, flat, config, iteration)
    return state


def _fit_subject_step_flat(
    state: FitState,
    flat: _Flat,
    config: FitConfig,
    iteration: int,
    trace: FitTrace | None = None,
) -> None:
    sparse = flat.n_points < 2

    def emit(message: str) -> None:
        if trace is None:
            warnings.warn(message)
        elif message not in trace.warnings:
            trace.warnings.append(message)
            warnings.warn(message)

    for i in np.nonzero(sparse & (flat.n_points > 0))[0]:
        emit(
            f"subject {flat.subject_ids[i]!r} has fewer than 2 points; "
            f"its timeline is left at its current value"
        )
    for i in np.nonzero(~sparse & _constant_data(flat))[0]:
        emit(
            f"subject {flat.subject_ids[i]!r}: measurements are constant across "
            f"visits; its progression rate collapses toward zero (kept finite "
            f"by the log-alpha bound)"
        )
    x0 = _subject_matrix(flat, state.subjects)
    # Optimize (log alpha, score at the subject's mean age) instead of
    # (log alpha, onset): per-subject centered times make the offset the
    # quantity the score box constrains.
    alpha0 = np.exp(x0[:, 0])
    x0[:, 1] = alpha0 * flat.mean_age + x0[:, 1]
    try:
        x, _, at_bound = _solve_subjects(
            state.curves, state.sigma, flat, config.loss_kind,
            config.inner_solver_tol, config.inner_max_steps, x0,
        )
    except SolverError as exc:
        raise _subject_fit_error("subject step", iteration, flat, exc) from exc
    if trace is not None:
        for i in np.nonzero(at_bound)[0]:
            message = (
                f"subject {flat.subject_ids[i]!r}: progression rate pinned at "
                f"the log-alpha bound"
            )
            if message not in trace.warnings:
                trace.warnings.append(message)
    for i, sid in enumerate(flat.subject_ids):
        if x[i, 0] == x0[i, 0] and x[i, 1] == x0[i, 1]:
            continue  # unchanged rows keep their exact previous parameters
        alpha = float(np.exp(x[i, 0]))
        beta = float(x[i, 1] - alpha * flat.mean_age[i])
        state.subjects[sid] = SubjectParams(alpha=alpha, beta=beta)


def _subject_fit_error(phase: str, iteration: int, flat: _Flat, exc: SolverError) -> FitError:
    who = "" if exc.subject is None else f", subject {flat.subject_ids[exc.subject]!r}"
    return FitError(f"{phase}, iteration {iteration}{who}: {exc}")


# ----------------------------------------------------------------------
# the full fit
# ----------------------------------------------------------------------

def _cn_scores(cohort: Cohort, subjects: dict[str, SubjectParams]) -> list[float]:
    scores = []
    for v in sorted(cohort.visits, key=lambda v: (v.subject_id, v.visit_index)):
        if v.diagnosis is Diagnosis.CN and v.subject_id in subjects:
            sp = subjects[v.subject_id]
            scores.append(sp.alpha * v.age + sp.beta)
    return scores


def fit(
    train: Cohort,
    valid: Cohort,
    config: FitConfig,
    *,
    progress: bool = True,
) -> tuple[FittedModel, FitTrace]:
    """Fit a progression model with validation-based snapshot selection.

    Alternates the biomarker and subject steps for ``l_max`` iterations,
    evaluating a validation loss after each one by re-estimating the
    validation subjects' timelines against the current curves.  The
    returned model is the snapshot from the iteration in
    ``[l_min, l_max]`` with the lowest validation loss (earliest on ties),
    standardized to the training cohort's cognitively normal visits when
    any exist.  One progress line per iteration goes to standard error when
    ``progress`` is set.
    """
    flat_train = _flatten(train)
    flat_valid = _flatten(valid)
    if flat_train.y.size == 0:
        raise FitError("training cohort has no measurements")
    if flat_valid.y.size == 0:
        raise FitError("validation cohort has no measurements")

    # Optimize in a mean-centered time frame.  Scores are an affine map of
    # age, so this only reparameterizes the starting point; it keeps the
    # inner gradients alive when ages sit far from the initial inflection
    # at score zero.  Onsets are mapped back to the raw age frame below.
    t_shift = float(flat_train.t.mean())
    flat_train.t = flat_train.t - t_shift
    flat_train.mean_age = flat_train.mean_age - t_shift
    flat_valid.t = flat_valid.t - t_shift
    flat_valid.mean_age = flat_valid.mean_age - t_shift

    points_per_bm = {
        name: int(flat_train.bm_bounds[i + 1] - flat_train.bm_bounds[i])
        for i, name in enumerate(flat_train.biomarker_names)
    }
    params_per_bm = {
        name: param_count(config.curve_kind, train.specs[name].constraint_policy)
        for name in flat_train.biomarker_names
    }
    dof = degrees_of_freedom(points_per_bm, params_per_bm, len(flat_train.subject_ids))
    if dof <= 0:
        needed = sum(params_per_bm.values()) + 2 * len(flat_train.subject_ids)
        raise FitError(
            f"model is not estimable: {flat_train.y.size} measurements for "
            f"{needed} parameters (degrees of freedom {dof})"
        )

    state = initialize(train, config)
    trace = FitTrace()
    best: tuple[float, int, dict, dict] | None = None

    for iteration in range(1, config.l_max + 1):
        _fit_biomarker_step_flat(state, flat_train, train, config, iteration)
        _fit_subject_step_flat(state, flat_train, config, iteration, trace)
        e_train = _objective_flat(state, flat_train, config.loss_kind)
        try:
            _, valid_obj, _ = _solve_subjects(
                state.curves, state.sigma, flat_valid, config.loss_kind,
                config.inner_solver_tol, config.inner_max_steps,
            )
        except SolverError as exc:
            raise _subject_fit_error("validation re-estimation", iteration, flat_valid, exc) from exc
        e_valid = float(valid_obj.sum())
        trace.e_train.append(e_train)
        trace.e_valid.append(e_valid)
        if iteration >= config.l_min and (best is None or e_valid < best[0]):
            best = (e_valid, iteration, dict(state.curves), dict(state.subjects))
        if progress:
            print(
                f"iter {iteration:3d}  E_train={e_train:.8e}  E_valid={e_valid:.8e}",
                file=sys.stderr,
            )

    assert best is not None  # l_min <= l_max guarantees at least one snapshot
    e_valid_opt, l_opt, best_curves, best_subjects = best
    trace.l_opt = l_opt
    best_subjects = {
        sid: SubjectParams(alpha=sp.alpha, beta=sp.beta - sp.alpha * t_shift)
        for sid, sp in best_subjects.items()
    }

    model = FittedModel(
        curve_kind=config.curve_kind,
        loss_kind=config.loss_kind,
        curves=best_curves,
        sigma=dict(state.sigma),
        subjects=best_subjects,
        standardization=Standardization(),
        provenance={
            "seed": config.seed,
            "bootstrap_id": None,
            "l_opt": l_opt,
            "e_train_opt": trace.e_train[l_opt - 1],
            "e_valid_opt": e_valid_opt,
            "n_measurements": int(flat_train.y.size),
            "n_subjects": len(flat_train.subject_ids),
            "q_params": int(sum(params_per_bm.values()) + 2 * len(flat_train.subject_ids)),
        },
    )

    cn = _cn_scores(train, best_subjects)
    if len(cn) >= 2 and float(np.std(cn)) > 0:
        model = standardize(model, cn)
    else:
        message = (
            "no usable cognitively normal visits; scores are left unstandardized"
        )
        trace.warnings.append(message)
        warnings.warn(message)
    return model, trace

"""Alternating robust estimation of curves and subject timelines.

Fitting alternates two blocks of independent subproblems until the
validation loss stops improving or the iteration budget is spent:

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
never leak into training.  The alternation ends early once that loss
stops paying: from iteration ``l_min + _STOP_WINDOW`` on, when it has
fallen by less than the relative tolerance ``stop_rtol`` over the last
``_STOP_WINDOW`` iterations (:func:`_stops`, after Prechelt's "Early
stopping -- but when?").  ``stop_rtol = 0`` runs every iteration.  The
subject step and that re-estimation share one batched solve per
iteration: training subjects start warm from their current timelines,
validation subjects still start cold, and no subject's result depends on
the others in the batch.  That solve returns every subject's objective at
its solution; their training and validation sums are the iteration's
``E_train`` and ``E_valid``, so no curve is evaluated again to report
them.

The first biomarker step sees only :func:`initialize`'s identity
timelines, under which scores are ages and no subject solve has yet
placed anyone on the curves.  With ``gamma`` free, that step could bend a
curve onto the symmetry box ``_GAMMA_BOUNDS`` with asymptotes far outside
the data, and the fit stayed in that basin to the end: one bootstrap
replicate in twelve was trapped that way.  Iteration 1 therefore holds
``gamma`` at its start of 1 and fits the other parameters; from iteration
2 on, with timelines from a subject solve, ``gamma`` is free.  Holding a
parameter only narrows what a step may try, so the training loss still
never rises.

Each measurement contributes ``rho(residual / sigma_k) / N_i``: the
per-biomarker scale ``sigma_k`` is frozen at the sample standard deviation
of that biomarker's training values, and the ``1 / N_i`` weight stops
heavily sampled subjects from dominating.

A subject with fewer than 2 measured points cannot fix its own timeline,
so :func:`fit` leaves it out of training and validation alike, as
estimation at inference does.  Warnings about those subjects and about
training subjects measured without change depend only on the data, so
:func:`fit` emits them once, before the first iteration, into
:attr:`FitTrace.warnings`; each subject step adds the training subjects
whose rate it leaves on the log-alpha bound.  One rule,
:func:`_curve_box`, gives each curve its free parameters and their box,
and so the model size ``q_params``.  A curve whose solve stops at
``inner_max_steps``, or that ends a biomarker step with a free parameter
on a finite bound of its box (``a`` or ``d`` at 0 when nonnegative, ``b``
on its floor, ``gamma`` on its box), is named once per biomarker and
problem, with the first iteration it happened in, in
:attr:`FitTrace.warnings` and through :func:`warnings.warn`.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import curves as curves_mod
from .cohort import Cohort, ConstraintPolicy, Diagnosis, Direction, write_csv
from .curves import CurveParams, LogisticKind
from .errors import FitError, InitializationError, SolverError
from .optim import minimize_robust
from .progression import (
    FittedModel,
    Standardization,
    SubjectParams,
    _eval_flat,
    _concat_flats,
    _Flat,
    _flatten,
    _sigma_per_measurement,
    _solve_subjects,
    standardize,
)
from .robust_loss import LossKind, rho

__all__ = [
    "FitConfig",
    "FitTrace",
    "FitState",
    "initialize",
    "fit",
    "fit_biomarker_step",
    "fit_subject_step",
    "objective",
    "param_count",
]

_GAMMA_BOUNDS = (1e-4, 1e4)
_RATE_FLOOR = 1e-8
# Iterations over which the validation loss must improve by ``stop_rtol``.
_STOP_WINDOW = 5


@dataclass(frozen=True)
class FitConfig:
    """Knobs of one fitting run.

    The fit runs at most ``l_max`` iterations and selects its snapshot from
    ``l_min`` on.  It stops early once the validation loss has fallen by
    less than ``stop_rtol`` of itself over the last ``_STOP_WINDOW``
    iterations (:func:`_stops`); ``stop_rtol = 0`` runs all ``l_max``.
    """

    curve_kind: LogisticKind = LogisticKind.MODIFIED_STANNARD
    loss_kind: LossKind = LossKind.LOGISTIC
    l_min: int = 10
    l_max: int = 50
    stop_rtol: float = 1e-4
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
        if not 0.0 <= self.stop_rtol < np.inf:
            raise FitError(f"stop_rtol must be nonnegative and finite, got {self.stop_rtol}")
        if self.inner_max_steps < 1:
            raise FitError(f"inner_max_steps must be at least 1, got {self.inner_max_steps}")
        if not 0.0 < self.inner_solver_tol < np.inf:
            raise FitError(
                f"inner_solver_tol must be positive and finite, got {self.inner_solver_tol}"
            )
        if self.seed < 0:
            raise FitError(f"seed must be nonnegative, got {self.seed}")


@dataclass
class FitTrace:
    """Loss history of one fitting run: the losses of each of the
    ``l_stop`` iterations run, and the selected iteration ``l_opt``."""

    e_train: list[float] = field(default_factory=list)
    e_valid: list[float] = field(default_factory=list)
    l_opt: int = 0
    warnings: list[str] = field(default_factory=list)

    @property
    def l_stop(self) -> int:
        return len(self.e_valid)

    def to_csv(self, path) -> None:
        write_csv(
            path,
            ["iteration", "E_train", "E_valid"],
            ([i, float(et), float(ev)]
             for i, (et, ev) in enumerate(zip(self.e_train, self.e_valid), start=1)),
        )


@dataclass
class FitState:
    """Mutable working state of the alternation."""

    curves: dict[str, CurveParams]
    subjects: dict[str, SubjectParams]
    sigma: dict[str, float]


# ----------------------------------------------------------------------
# flat measurement arrays
# ----------------------------------------------------------------------

def _data_warnings(flat: _Flat) -> list[str]:
    """Warnings about the subjects whose own data limit their timelines.

    A subject measured once keeps its timeline.  One whose repeated
    measurements never change has its rate driven toward zero; biomarkers
    measured only once for a subject neither establish nor refute that.
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
    constant = np.zeros(n_subjects, dtype=bool)
    constant[np.nonzero(counts >= 2)[0] // n_bm] = True
    constant[np.nonzero(vmax > vmin)[0] // n_bm] = False
    messages = [
        f"subject {flat.subject_ids[i]!r} has fewer than 2 points; "
        f"its timeline is left at its current value"
        for i in np.nonzero(flat.n_points == 1)[0]
    ]
    messages += [
        f"subject {flat.subject_ids[i]!r}: measurements are constant across "
        f"visits; its progression rate collapses toward zero (kept finite "
        f"by the log-alpha bound)"
        for i in np.nonzero(constant)[0]
    ]
    return messages


def _subject_matrix(sids: list[str], subjects: dict[str, SubjectParams]) -> np.ndarray:
    x = np.empty((len(sids), 2))
    for i, sid in enumerate(sids):
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
        # An absurd value overflows these statistics; the checks below
        # name its biomarker instead of letting numpy warn.
        with np.errstate(over="ignore", invalid="ignore"):
            sd = float(arr.std(ddof=1))
            means = (np.mean(cn_values), np.mean(ad_values)) if cn_values and ad_values else None
        if not np.isfinite(sd):
            raise InitializationError(
                f"biomarker {name!r}: values are too large to scale (standard deviation {sd})"
            )
        if not sd > 0:
            raise InitializationError(f"biomarker {name!r}: values have no spread")
        sigma[name] = sd

        spec = cohort.specs[name]
        if means is not None:
            lam = 1.0 if means[0] < means[1] else -1.0
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
        b0 = 4.0 * lam / (a0 - d0)
        if not (np.isfinite(a0) and np.isfinite(d0) and 0.0 < b0 < np.inf):
            raise InitializationError(
                f"biomarker {name!r}: values are too large to start a curve from "
                f"(asymptotes {d0} and {a0}, growth rate {b0})"
            )
        state_curves[name] = CurveParams(
            kind=config.curve_kind, a=a0, d=d0, b=b0, c=0.0, gamma=1.0
        )

    subjects = {sid: SubjectParams(alpha=1.0, beta=0.0) for sid in cohort.subject_ids()}
    return FitState(curves=state_curves, subjects=subjects, sigma=sigma)


# ----------------------------------------------------------------------
# objective and alternation steps
# ----------------------------------------------------------------------

def objective(state: FitState, cohort: Cohort, loss: LossKind) -> float:
    """Robust training objective of a parameter state on a cohort."""
    flat = _flatten(cohort)
    x = _subject_matrix(flat.subject_ids, state.subjects)
    s = np.exp(x[flat.sub, 0]) * flat.t + x[flat.sub, 1]
    table = curves_mod.CurveArrays.stack([state.curves[n] for n in flat.biomarker_names])
    pred, _ = _eval_flat(table, flat, s, np.arange(s.size))
    r = (flat.y - pred) / _sigma_per_measurement(flat, state.sigma)
    return float(np.dot(flat.omega, rho(loss, r)))


def _curve_box(kind: LogisticKind, policy: ConstraintPolicy, iteration: int) -> tuple:
    """Columns, in :data:`~dpsfit.curves.PARAM_NAMES` order, of the
    parameters a curve fits in ``iteration``, and their lower and upper
    bounds.  A fixed range holds ``a`` and ``d``; ``gamma`` is fitted only
    by the kinds that have it, and is held in iteration 1."""
    floor = 0.0 if policy is ConstraintPolicy.NONNEGATIVE else -np.inf
    box = {0: (floor, np.inf), 1: (floor, np.inf), 2: (_RATE_FLOOR, np.inf), 3: (-np.inf, np.inf)}
    if policy is ConstraintPolicy.FIXED_RANGE:
        del box[0], box[1]
    if kind.has_symmetry_param and iteration != 1:
        box[4] = _GAMMA_BOUNDS
    lower, upper = zip(*box.values())
    return list(box), np.array(lower), np.array(upper)


def param_count(kind: LogisticKind, policy: ConstraintPolicy) -> int:
    """Number of free parameters of one biomarker's curve."""
    return len(_curve_box(LogisticKind(kind), ConstraintPolicy(policy), 0)[0])


def fit_biomarker_step(
    state: FitState,
    cohort: Cohort,
    config: FitConfig,
    *,
    iteration: int = 0,
) -> FitState:
    """Refit every curve with subject timelines held fixed; ``iteration``
    1 holds ``gamma``, as the first iteration of :func:`fit` does."""
    flat = _flatten(cohort)
    _fit_biomarker_step_flat(state, flat, cohort, config, iteration)
    return state


def _fit_biomarker_step_flat(
    state: FitState,
    flat: _Flat,
    cohort: Cohort,
    config: FitConfig,
    iteration: int,
) -> list[tuple[str, str]]:
    """Refit every curve of ``flat`` against the timelines in ``state``,
    each within its :func:`_curve_box`.

    Returns ``(biomarker, problem)`` for each curve whose solve stopped at
    ``inner_max_steps``, and for each free parameter it left on a finite
    bound of its box.
    """
    x = _subject_matrix(flat.subject_ids, state.subjects)
    s_all = np.exp(x[flat.sub, 0]) * flat.t + x[flat.sub, 1]
    problems = []
    for k, name in enumerate(flat.biomarker_names):
        idx = slice(flat.bm_bounds[k], flat.bm_bounds[k + 1])
        if idx.stop == idx.start:
            continue
        s = s_all[idx]
        policy = cohort.specs[name].constraint_policy
        current = state.curves[name]
        cols, lower, upper = _curve_box(config.curve_kind, policy, iteration)
        row = np.array([getattr(current, n) for n in curves_mod.PARAM_NAMES])

        def model_fn(x: np.ndarray):
            # The solver keeps x finite and inside the box, so the checks of
            # CurveParams.replace would only cost time: evaluate the current
            # curve's entry with its free columns overwritten instead.
            row[cols] = x
            entry = curves_mod.CurveArrays(current.kind, *row.tolist())
            f, grads = curves_mod.value_and_gradients(entry, s)
            return f, grads[:, cols]

        try:
            result = minimize_robust(
                model_fn,
                row[cols],
                y=flat.y[idx],
                sigma=state.sigma[name],
                omega=flat.omega[idx],
                loss=config.loss_kind,
                lower=lower,
                upper=upper,
                tol=config.inner_solver_tol,
                max_steps=config.inner_max_steps,
            )
        except SolverError as exc:
            raise FitError(f"biomarker {name!r}, iteration {iteration}: {exc}") from exc
        row[cols] = result.x
        state.curves[name] = CurveParams(current.kind, *row.tolist())
        if not result.converged:
            problems.append(
                (name, f"curve solve stopped at inner_max_steps ({config.inner_max_steps})")
            )
        for col, lo, hi in zip(cols, lower, upper):
            if row[col] in (lo, hi):
                problems.append((name, f"{curves_mod.PARAM_NAMES[col]} left on its box bound ({row[col]:g})"))
    return problems


def fit_subject_step(
    state: FitState,
    cohort: Cohort,
    config: FitConfig,
    *,
    iteration: int = 0,
) -> FitState:
    """Refit every subject timeline with curves held fixed."""
    flat = _flatten(cohort)
    for message in _data_warnings(flat):
        warnings.warn(message)
    _fit_subject_step_flat(state, flat, config, iteration, len(flat.subject_ids))
    return state


def _fit_subject_step_flat(
    state: FitState,
    flat: _Flat,
    config: FitConfig,
    iteration: int,
    n_train: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Refit the timelines of the first ``n_train`` subjects of ``flat``,
    warm-started from ``state``, and estimate the others from a cold start
    in the same batched solve.

    The others are validation subjects: they stay out of ``state``.
    Returns every subject's objective at its solution, training subjects
    first, so the first ``n_train`` sum to the training loss and the rest
    to the validation loss; and which training subjects have their rate on
    the log-alpha bound.
    """
    train_ids = flat.subject_ids[:n_train]
    x0 = _subject_matrix(train_ids, state.subjects)
    # Optimize (log alpha, score at the subject's mean age) instead of
    # (log alpha, onset): per-subject centered times make the offset the
    # quantity the score box constrains.
    alpha0 = np.exp(x0[:, 0])
    x0[:, 1] = alpha0 * flat.mean_age[:n_train] + x0[:, 1]
    x, obj, at_bound = _solve_subjects(
        state.curves, state.sigma, flat, config.loss_kind,
        config.inner_solver_tol, config.inner_max_steps, x0,
    )
    bad = np.nonzero(~np.isfinite(obj))[0]
    if bad.size:
        phase = "subject step" if bad[0] < n_train else "validation re-estimation"
        raise FitError(
            f"{phase}, iteration {iteration}, subject {flat.subject_ids[bad[0]]!r}: "
            f"subject objective is not finite at the starting point"
        )
    for i, sid in enumerate(train_ids):
        if x[i, 0] == x0[i, 0] and x[i, 1] == x0[i, 1]:
            continue  # unchanged rows keep their exact previous parameters
        alpha = float(np.exp(x[i, 0]))
        beta = float(x[i, 1] - alpha * flat.mean_age[i])
        state.subjects[sid] = SubjectParams(alpha=alpha, beta=beta)
    return obj, at_bound[:n_train]


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


def _stops(e_valid: list[float], l_min: int, stop_rtol: float) -> bool:
    """Whether the alternation ends after the last iteration of ``e_valid``,
    the validation losses of iterations 1, 2, ...

    It ends once the loss has fallen by less than ``stop_rtol`` of itself
    over the last ``_STOP_WINDOW`` iterations.  The window starts no
    earlier than ``l_min``, so the first possible stop is iteration
    ``l_min + _STOP_WINDOW``.  Over 144 default-schedule bootstrap
    replicates, a rule that could fire at ``l_min`` stopped 13 there, and 6
    selected an ``E_valid`` over 1e-3 relative above the 50-iteration one,
    against 2 with the window placed here.  ``stop_rtol = 0`` never ends
    it.
    """
    if stop_rtol == 0 or len(e_valid) < l_min + _STOP_WINDOW:
        return False
    before = e_valid[-1 - _STOP_WINDOW]
    return before - e_valid[-1] < stop_rtol * before


def _without_sparse_subjects(cohort: Cohort, role: str, messages: list[str]):
    """``cohort`` and its :class:`_Flat` without the subjects of fewer than 2
    measured points; warns once per subject left out and appends the
    message to ``messages``."""
    flat = _flatten(cohort)
    sparse = [sid for sid, n in zip(flat.subject_ids, flat.n_points) if n < 2]
    if not sparse:
        return cohort, flat
    for sid in sparse:
        messages.append(f"{role} subject {sid!r}: fewer than 2 measured points, left out of the fit")
        warnings.warn(messages[-1])
    cohort = cohort.subset(sorted(set(flat.subject_ids) - set(sparse)))
    return cohort, _flatten(cohort)


def fit(
    train: Cohort,
    valid: Cohort,
    config: FitConfig,
    *,
    progress: bool = True,
) -> tuple[FittedModel, FitTrace]:
    """Fit a progression model with validation-based snapshot selection.

    Alternates the biomarker and subject steps for at most ``l_max``
    iterations, evaluating a validation loss after each one by
    re-estimating the validation subjects' timelines against the current
    curves.  That re-estimation shares the subject step's batched solve, in
    which the validation subjects start cold every iteration and the
    training subjects start warm; the two cohorts must declare the same
    biomarkers.  The alternation stops after iteration ``l_stop`` once the
    validation loss has fallen by less than ``config.stop_rtol`` of itself
    over the last ``_STOP_WINDOW`` iterations, and no earlier than
    iteration ``l_min + _STOP_WINDOW`` (:func:`_stops`).
    The returned model is the snapshot from the iteration in
    ``[l_min, l_stop]`` with the lowest validation loss (earliest on ties),
    standardized to the training cohort's cognitively normal visits when
    any exist.  Subjects with fewer than 2 measured points are left out of
    both cohorts, with a warning naming each.  One progress line per
    iteration, and one more when the fit stops early, go to standard error
    when ``progress`` is set.
    """
    dropped: list[str] = []
    train, flat_train = _without_sparse_subjects(train, "training", dropped)
    valid, flat_valid = _without_sparse_subjects(valid, "validation", dropped)
    if flat_train.y.size == 0:
        raise FitError("training cohort has no measurements")
    if flat_valid.y.size == 0:
        raise FitError("validation cohort has no measurements")
    if flat_valid.biomarker_names != flat_train.biomarker_names:
        raise FitError(
            f"validation cohort declares biomarkers {flat_valid.biomarker_names}, "
            f"training cohort {flat_train.biomarker_names}"
        )

    # Optimize in a mean-centered time frame.  Scores are an affine map of
    # age, so this only reparameterizes the starting point; it keeps the
    # inner gradients alive when ages sit far from the initial inflection
    # at score zero.  Onsets are mapped back to the raw age frame below.
    t_shift = float(flat_train.t.mean())
    flat_train.t = flat_train.t - t_shift
    flat_train.mean_age = flat_train.mean_age - t_shift
    flat_valid.t = flat_valid.t - t_shift
    flat_valid.mean_age = flat_valid.mean_age - t_shift
    # Training subjects first, so the subject step's rows of x are 0..n_train-1.
    flat_all = _concat_flats(flat_train, flat_valid)
    n_train = len(flat_train.subject_ids)

    # Every curve spends its free parameters and every subject two.
    q_params = 2 * n_train + sum(
        param_count(config.curve_kind, train.specs[name].constraint_policy)
        for name in flat_train.biomarker_names
    )
    if flat_train.y.size <= q_params:
        raise FitError(
            f"model is not estimable: {flat_train.y.size} measurements for "
            f"{q_params} parameters (degrees of freedom {flat_train.y.size - q_params})"
        )

    state = initialize(train, config)
    trace = FitTrace(warnings=dropped + _data_warnings(flat_train))
    for message in trace.warnings[len(dropped):]:
        warnings.warn(message)
    best: tuple[float, int, dict, dict] | None = None
    curve_problems: set[tuple[str, str]] = set()

    for iteration in range(1, config.l_max + 1):
        for name, problem in _fit_biomarker_step_flat(state, flat_train, train, config, iteration):
            if (name, problem) not in curve_problems:
                curve_problems.add((name, problem))
                trace.warnings.append(f"biomarker {name!r}: {problem}, first in iteration {iteration}")
                warnings.warn(trace.warnings[-1])
        obj, pinned = _fit_subject_step_flat(state, flat_all, config, iteration, n_train)
        for i in np.nonzero(pinned)[0]:
            message = (
                f"subject {flat_train.subject_ids[i]!r}: progression rate pinned at "
                f"the log-alpha bound"
            )
            if message not in trace.warnings:
                trace.warnings.append(message)
        e_train = float(obj[:n_train].sum())
        e_valid = float(obj[n_train:].sum())
        trace.e_train.append(e_train)
        trace.e_valid.append(e_valid)
        if iteration >= config.l_min and (best is None or e_valid < best[0]):
            best = (e_valid, iteration, dict(state.curves), dict(state.subjects))
        if progress:
            print(
                f"iter {iteration:3d}  E_train={e_train:.8e}  E_valid={e_valid:.8e}",
                file=sys.stderr,
            )
        if iteration < config.l_max and _stops(trace.e_valid, config.l_min, config.stop_rtol):
            if progress:
                print(
                    f"stopped after iteration {iteration}: E_valid fell by less than "
                    f"{config.stop_rtol:g} of itself over {_STOP_WINDOW} iterations",
                    file=sys.stderr,
                )
            break

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
            "n_subjects": n_train,
            "q_params": q_params,
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

"""Alternating robust estimation of curves and subject timelines.

Fitting alternates two blocks of independent subproblems until the
validation loss stops improving or the iteration budget is spent:

* the biomarker step refits every curve's parameters against the current
  subject scores;
* the subject step refits every subject's timeline against the current
  curves.

Both steps work on one :class:`FitState` in the solvers' own coordinates,
one time frame throughout; only the selected snapshot becomes curve and
raw-age subject parameters, through :func:`_state_params`.

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

Each step is a set of independent solves, one per curve and one per
subject timeline, and no result depends on which others share a solve.
One object, :class:`_Steps`, runs both steps for any number of parts: it
cuts each step into parts, solves part 0 itself and the others in a pool
of helper processes, and merges the results in their original order, so
the fit comes out byte-identical whatever the number of parts.  ``fit``
takes one part per usable CPU (:func:`_part_count`), which
:func:`~dpsfit.workers.usable_cpus` counts as one on another platform than
Linux, in a worker of :mod:`multiprocessing` and in a process that runs
other threads; only with more than one part does it fork helpers, once per
fit, through :func:`~dpsfit.workers.fork_pool`.

The first biomarker step sees only the starting timelines, under which
scores follow ages and no subject solve has yet placed anyone on the
curves.  With ``gamma`` free, that step could bend a
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
estimation at inference does.  :meth:`FitTrace.warn` records and issues
every message of a fit once: those about such subjects and about training
subjects measured without change before the first iteration, and after
the last, one naming the training subjects whose rate a subject step left
on the log-alpha bound.  One rule,
:func:`_curve_box`, gives each curve its free parameters and their box,
and so the model size ``q_params``.  A curve whose solve stops at
``inner_max_steps``, or that ends a biomarker step with a free parameter
on a finite bound of its box (``a`` or ``d`` at 0 when nonnegative, ``b``
on its floor, ``gamma`` on its box), is named once per biomarker and
problem, with the first iteration it happened in.
"""

from __future__ import annotations

import itertools
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import curves as curves_mod
from .cohort import Cohort, ConstraintPolicy, Diagnosis, Direction, write_csv
from .curves import CurveArrays, CurveParams, LogisticKind
from .errors import FitError, InitializationError, SolverError
from .optim import minimize_robust
from .progression import (
    FittedModel,
    Standardization,
    SubjectParams,
    _eval_flat,
    _Flat,
    _flatten,
    _scores,
    _solve_subjects,
    _subject_params,
    _subset_flat,
    _timelines,
    standardize,
)
from .robust_loss import LossKind, rho
from .workers import fork_pool, usable_cpus as _usable_cpus

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
    _reported: set = field(default_factory=set, init=False, repr=False, compare=False)

    @property
    def l_stop(self) -> int:
        return len(self.e_valid)

    def warn(self, message: str, key=None) -> None:
        """Record and issue ``message`` once per ``key``, by default itself."""
        key = message if key is None else key
        if key not in self._reported:
            self._reported.add(key)
            self.warnings.append(message)
            warnings.warn(message)

    def to_csv(self, path) -> None:
        write_csv(
            path,
            ["iteration", "E_train", "E_valid"],
            ([i, float(et), float(ev)]
             for i, (et, ev) in enumerate(zip(self.e_train, self.e_valid), start=1)),
        )


@dataclass
class FitState:
    """Working state of the alternation, in the solvers' coordinates: per
    biomarker, in sorted order, a :data:`~dpsfit.curves.PARAM_NAMES` row of
    ``curves``, a ``kind`` curve, and a scale of ``sigma``; per subject, by
    sorted id, a row ``(u, w)`` of ``subjects``, scoring ``exp(u) * (age -
    m) + w`` with ``m`` the subject's mean measured age.  Rows do not depend
    on where the age axis starts: ``fit`` uses the mean training age
    ``t_shift`` once, to start ``w`` at ``m - t_shift``."""

    kind: LogisticKind
    curves: np.ndarray
    subjects: np.ndarray
    sigma: np.ndarray


def _state_params(state: FitState, flat: _Flat) -> tuple[dict, dict]:
    """``state``'s curves and raw-age subject timelines, by ``flat``'s names and ids."""
    curves = [CurveParams(state.kind, *row) for row in state.curves.tolist()]
    subjects = _subject_params(state.subjects, flat.mean_age)
    return dict(zip(flat.biomarker_names, curves)), dict(zip(flat.subject_ids, subjects))


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


# ----------------------------------------------------------------------
# initialization
# ----------------------------------------------------------------------

def initialize(cohort: Cohort, config: FitConfig) -> FitState:
    """Starting parameters derived from group statistics.

    Subjects start at the identity timeline (unit rate, score ``m`` at the
    mean age ``m``), so initial scores are ages.  Each curve starts with
    its asymptotes at the observed or declared value range, oriented by
    comparing the means
    of cognitively normal and demented measurements (falling back to the
    declared direction hint), inflection at score zero, unit symmetry, and
    the growth rate ``4 * lambda / (a - d)`` that gives the oriented unit
    logistic its slope at the inflection.
    """
    return _initialize_flat(cohort, _flatten(cohort), config)


def _initialize_flat(cohort: Cohort, flat: _Flat, config: FitConfig) -> FitState:
    """:func:`initialize` of ``cohort``, whose :class:`_Flat` is ``flat``."""
    rows, sigma = [], []
    for name, column in zip(cohort.biomarker_names(), cohort.values.T):
        present = ~np.isnan(column)
        arr, dx = column[present], cohort.dx[present]
        cn_values, ad_values = arr[dx == Diagnosis.CN.code], arr[dx == Diagnosis.AD.code]
        if arr.size < 2:
            raise InitializationError(f"biomarker {name!r}: fewer than 2 values")
        # An absurd value overflows these statistics; the checks below
        # name its biomarker instead of letting numpy warn.
        with np.errstate(over="ignore", invalid="ignore"):
            sd = float(arr.std(ddof=1))
            means = (cn_values.mean(), ad_values.mean()) if cn_values.size and ad_values.size else None
        if not np.isfinite(sd):
            raise InitializationError(
                f"biomarker {name!r}: values are too large to scale (standard deviation {sd})"
            )
        if not sd > 0:
            raise InitializationError(f"biomarker {name!r}: values have no spread")
        sigma.append(sd)

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
        rows.append((a0, d0, b0, 0.0, 1.0))

    subjects = np.column_stack([np.zeros(len(flat.subject_ids)), flat.mean_age])
    return FitState(config.curve_kind, np.array(rows).reshape(-1, 5), subjects, np.array(sigma))


# ----------------------------------------------------------------------
# objective and alternation steps
# ----------------------------------------------------------------------

def objective(state: FitState, cohort: Cohort, loss: LossKind) -> float:
    """Robust training objective of a parameter state on a cohort."""
    flat = _flatten(cohort)
    s = _scores(flat, state.subjects)
    pred, _ = _eval_flat(CurveArrays(state.kind, *state.curves.T), flat, s, np.arange(s.size))
    r = (flat.y - pred) / state.sigma[flat.bm]
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
    with _Steps(1, flat, cohort, flat, len(flat.subject_ids)) as steps:
        steps.biomarker_step(state, config, iteration)
    return state


def _solve_curves(
    state: FitState,
    flat: _Flat,
    cohort: Cohort,
    config: FitConfig,
    iteration: int,
    ks,
) -> list[tuple]:
    """Solve the curves ``ks`` of ``flat``, in order, against the timelines
    in ``state``, each within its :func:`_curve_box`, up to the first whose
    solver fails.

    Returns ``(k, row, problems)`` for each curve solved, with its
    ``(biomarker, problem)`` pairs, and ``(k, error, [])`` for the one that
    failed with that :class:`~dpsfit.errors.SolverError`.  A curve depends
    only on its own row and measurements, so no curve's result depends on
    which others share the call.
    """
    s_all = _scores(flat, state.subjects)
    solved = []
    for k in ks:
        idx = slice(flat.bm_bounds[k], flat.bm_bounds[k + 1])
        if idx.stop == idx.start:
            continue
        s = s_all[idx]
        name = flat.biomarker_names[k]
        policy = cohort.specs[name].constraint_policy
        cols, lower, upper = _curve_box(config.curve_kind, policy, iteration)
        row = state.curves[k].copy()

        def model_fn(x: np.ndarray):
            # The solver keeps x finite and inside the box: evaluate the row,
            # its free columns overwritten, as one unchecked curve.
            row[cols] = x
            f, grads = curves_mod.value_and_gradients(CurveArrays(state.kind, *row.tolist()), s)
            return f, grads[:, cols]

        try:
            result = minimize_robust(
                model_fn,
                row[cols],
                y=flat.y[idx],
                sigma=state.sigma[k],
                omega=flat.omega[idx],
                loss=config.loss_kind,
                lower=lower,
                upper=upper,
                tol=config.inner_solver_tol,
                max_steps=config.inner_max_steps,
            )
        except SolverError as exc:
            solved.append((k, exc, []))
            break
        row[cols] = result.x
        problems = []
        if not result.converged:
            problems.append(
                (name, f"curve solve stopped at inner_max_steps ({config.inner_max_steps})")
            )
        for col, lo, hi in zip(cols, lower, upper):
            if row[col] in (lo, hi):
                problems.append((name, f"{curves_mod.PARAM_NAMES[col]} left on its box bound ({row[col]:g})"))
        solved.append((k, row, problems))
    return solved


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
    with _Steps(1, flat, cohort, flat, len(flat.subject_ids)) as steps:
        steps.subject_step(state, config, iteration)
    return state


# ----------------------------------------------------------------------
# the steps, in parts
# ----------------------------------------------------------------------

# The most parts a fit is split into.  Two is the one count measured, on a
# host with two CPUs; every further part adds a task per step for the
# parent to send and collect, and no host with more CPUs has been measured.
_MAX_PARTS = 2


def _part_count() -> int:
    """How many parts the fit splits its steps into: one per usable CPU
    (:func:`~dpsfit.workers.usable_cpus`), up to :data:`_MAX_PARTS`.

    It is one, and the fit forks nothing, wherever that rule allows no
    fork: on another platform than Linux, in a process that
    :mod:`multiprocessing` started (a bootstrap worker, whose pool already
    holds every CPU), and in a process that runs other threads.
    """
    return min(_usable_cpus(), _MAX_PARTS)


class _Steps:
    """The biomarker and subject steps of one fit, each cut into ``n >= 1``
    parts.

    The biomarker step refits the curves of ``flat_train``, the biomarkers
    of ``train``; the subject step refits the first ``n_train`` subjects of
    ``flat_all`` and estimates the others, the validation subjects, from a
    cold start.  Part ``p`` holds every ``n``-th biomarker and every
    ``n``-th subject, from the ``p``-th on.  Part 0 is solved in this
    process.  With more than one part, the ``with`` block forks a pool of
    helper processes, one per further part, with every input but the
    state, which each step sends, and shuts it down on exit, on every path.
    A curve or a subject comes out the same whichever part solves it, and
    each step merges its parts in their original order, so a fit comes out
    the same in any number of parts.
    """

    def __init__(self, n: int, flat_train: _Flat, train: Cohort, flat_all: _Flat, n_train: int):
        self.flat_train, self.train, self.flat_all, self.n_train = flat_train, train, flat_all, n_train
        n_bm, n_all = len(flat_train.biomarker_names), len(flat_all.subject_ids)
        self.curves = [range(p, n_bm, n) for p in range(max(1, min(n, n_bm)))]
        self.subjects = [np.arange(p, n_all, n) for p in range(max(1, min(n, n_all)))]
        self.flats = [_subset_flat(flat_all, ids) for ids in self.subjects]

    def __enter__(self) -> _Steps:
        helpers = max(len(self.curves), len(self.subjects)) - 1
        self._pool = fork_pool(helpers, (self,)) if helpers else None
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            self._pool.__exit__(*exc)

    def _map(self, solve, count: int, *args) -> list:
        """``solve(self, p, *args)`` of parts ``0 .. count - 1``, in part order.

        A helper's warnings are issued here after the parts before it, and
        its exception is raised here.
        """
        futures = [self._pool.submit(solve, p, *args) for p in range(1, count)]
        return [solve(self, 0, *args)] + [self._pool.result(f) for f in futures]

    def biomarker_step(self, state: FitState, config: FitConfig, iteration: int) -> list[tuple[str, str]]:
        """Refit every curve against the timelines in ``state``.

        The results are taken in biomarker order, up to the first curve
        whose solver fails.  Returns ``(biomarker, problem)`` for each
        curve whose solve stopped at ``inner_max_steps``, and for each free
        parameter it left on a finite bound of its box.
        """
        solved = self._map(_Steps.solve_curves, len(self.curves), state, config, iteration)
        problems = []
        for k, row, curve_problems in sorted(itertools.chain(*solved), key=lambda outcome: outcome[0]):
            if isinstance(row, SolverError):
                name = self.flat_train.biomarker_names[k]
                raise FitError(f"biomarker {name!r}, iteration {iteration}: {row}") from row
            state.curves[k] = row
            problems += curve_problems
        return problems

    def subject_step(self, state: FitState, config: FitConfig, iteration: int) -> tuple[np.ndarray, np.ndarray]:
        """Refit the training timelines, warm-started from ``state``, and
        estimate the validation subjects, which stay out of ``state``.

        Returns every subject's objective at its solution, training subjects
        first, so the first ``n_train`` sum to the training loss and the
        rest to the validation loss; and which training subjects have their
        rate on the log-alpha bound.
        """
        solved = self._map(_Steps.solve_subjects, len(self.subjects), state, config)
        n_all = len(self.flat_all.subject_ids)
        x, obj, at_bound = np.empty((n_all, 2)), np.empty(n_all), np.empty(n_all, dtype=bool)
        for ids, (x_part, obj_part, bound_part) in zip(self.subjects, solved):
            x[ids], obj[ids], at_bound[ids] = x_part, obj_part, bound_part
        bad = np.nonzero(~np.isfinite(obj))[0]
        if bad.size:
            phase = "subject step" if bad[0] < self.n_train else "validation re-estimation"
            raise FitError(
                f"{phase}, iteration {iteration}, subject {self.flat_all.subject_ids[bad[0]]!r}: "
                f"subject objective is not finite at the starting point"
            )
        state.subjects = x[:self.n_train]
        return obj, at_bound[:self.n_train]

    def solve_curves(self, p: int, state: FitState, config: FitConfig, iteration: int) -> list:
        return _solve_curves(state, self.flat_train, self.train, config, iteration, self.curves[p])

    def solve_subjects(self, p: int, state: FitState, config: FitConfig):
        """:func:`~dpsfit.progression._solve_subjects` of part ``p`` against
        the curves of ``state``, warm-starting its training subjects."""
        ids = self.subjects[p]
        return _solve_subjects(
            CurveArrays(state.kind, *state.curves.T), state.sigma, self.flats[p], config.loss_kind,
            config.inner_solver_tol, config.inner_max_steps, state.subjects[ids[ids < self.n_train]],
        )


# ----------------------------------------------------------------------
# the full fit
# ----------------------------------------------------------------------

def _cn_scores(cohort: Cohort, subjects: dict[str, SubjectParams]) -> np.ndarray:
    """The scores of the cognitively normal visits of ``subjects``, in row order."""
    alpha, beta = _timelines(subjects, cohort.ids)
    rows = np.flatnonzero((cohort.dx == Diagnosis.CN.code) & ~np.isnan(alpha[cohort.sub]))
    sub = cohort.sub[rows]
    return alpha[sub] * cohort.age[rows] + beta[sub]


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


def _without_sparse_subjects(cohort: Cohort, role: str, trace: FitTrace) -> Cohort:
    """``cohort`` without the subjects of fewer than 2 measured points;
    reports each subject left out to ``trace``."""
    rows, _ = cohort.cells()
    n_points = np.bincount(cohort.sub[rows], minlength=len(cohort.ids))
    sparse = [sid for sid, n in zip(cohort.ids, n_points.tolist()) if n < 2]
    for sid in sparse:
        trace.warn(f"{role} subject {sid!r}: fewer than 2 measured points, left out of the fit")
    return cohort.subset(set(cohort.ids) - set(sparse)) if sparse else cohort


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
    both cohorts, with a warning naming each, as one warning names the
    training subjects whose rate a subject step left on the log-alpha
    bound.  One progress line per iteration, and one more when the fit
    stops early, go to standard error when ``progress`` is set.

    Both steps run through one :class:`_Steps`, in one part per CPU this
    process may use, up to :data:`_MAX_PARTS` (:func:`_part_count`).
    Part 0 is solved here.  With more than one part, the others are solved
    in helper processes forked once for the alternation and shut down at
    its end, on every exit path, and the helpers' warnings and exceptions
    are issued and raised here.  On another platform than Linux, in a
    process that :mod:`multiprocessing` started, such as a bootstrap
    worker, and in one that runs other threads, there is one part and
    nothing is forked.  The result, the trace, the warnings and the
    progress lines are the same in any number of parts.
    """
    trace = FitTrace()
    train = _without_sparse_subjects(train, "training", trace)
    valid = _without_sparse_subjects(valid, "validation", trace)
    if train.n_measurements() == 0:
        raise FitError("training cohort has no measurements")
    if valid.n_measurements() == 0:
        raise FitError("validation cohort has no measurements")
    if valid.biomarker_names() != train.biomarker_names():
        raise FitError(
            f"validation cohort declares biomarkers {valid.biomarker_names()}, "
            f"training cohort {train.biomarker_names()}"
        )

    # Training subjects first, so the subject step's rows of x are 0..n_train-1.
    flat_all = _flatten(train, valid)
    n_train = len(train.ids)
    flat_train = _subset_flat(flat_all, np.arange(n_train))

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

    state = _initialize_flat(train, flat_train, config)
    # Start the scores at the ages less their training mean, around the
    # inflections at zero, which keeps the first steps' gradients alive.
    t_shift = float(flat_train.t.mean())
    state.subjects[:, 1] -= t_shift
    for message in _data_warnings(flat_train):
        trace.warn(message)
    best: tuple[float, int, FitState] | None = None
    pinned = np.zeros(n_train, dtype=bool)

    with _Steps(_part_count(), flat_train, train, flat_all, n_train) as steps:
        for iteration in range(1, config.l_max + 1):
            for name, problem in steps.biomarker_step(state, config, iteration):
                trace.warn(
                    f"biomarker {name!r}: {problem}, first in iteration {iteration}",
                    key=(name, problem),
                )
            obj, at_bound = steps.subject_step(state, config, iteration)
            pinned |= at_bound
            e_train = float(obj[:n_train].sum())
            e_valid = float(obj[n_train:].sum())
            trace.e_train.append(e_train)
            trace.e_valid.append(e_valid)
            if iteration >= config.l_min and (best is None or e_valid < best[0]):
                snapshot = FitState(state.kind, state.curves.copy(), state.subjects.copy(), state.sigma)
                best = (e_valid, iteration, snapshot)
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

    if pinned.any():
        ids = ", ".join(repr(flat_train.subject_ids[i]) for i in np.flatnonzero(pinned))
        trace.warn(f"progression rate pinned at the log-alpha bound for "
                   f"{np.count_nonzero(pinned)} training subject(s): {ids}")

    assert best is not None  # l_min <= l_max guarantees at least one snapshot
    e_valid_opt, l_opt, snapshot = best
    trace.l_opt = l_opt
    best_curves, best_subjects = _state_params(snapshot, flat_train)

    model = FittedModel(
        curve_kind=config.curve_kind,
        loss_kind=config.loss_kind,
        curves=best_curves,
        sigma=dict(zip(flat_train.biomarker_names, state.sigma.tolist())),
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
        trace.warn("no usable cognitively normal visits; scores are left unstandardized")
    return model, trace

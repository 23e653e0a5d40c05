"""Outside-in span recorder for the traced benchmark run.

The recorder replaces selected public dpsfit functions with timing
wrappers, from outside the package: it edits no file under ``src/``.  A
function is replaced in every loaded ``dpsfit.*`` module namespace that
holds it, because ``from .optim import minimize_subjects`` binds a second
name that patching ``dpsfit.optim`` alone would miss.

Spans (name, start, end, parent, thread, info) are kept in memory and
written out when the benchmark ends.  Self time is derived from them: a
span's duration minus the durations of its children, which run in the
same thread and so never overlap one another.
"""

from __future__ import annotations

import collections
import gzip
import json
import sys
import threading
import time

import numpy as np

# Caller function name -> role of a solver or fit call.  The role says
# which phase of the program asked for the work.
ROLES = {
    "_fit_subject_step_flat": "fit_step",
    "_estimate_cohort_subjects": "validation",
    "estimate_subject": "inference",
    "run_one": "replicate",
}

# (module, attribute) of every traced function.
TARGETS = (
    ("dpsfit.optim", "minimize_subjects"),
    ("dpsfit.optim", "minimize_robust"),
    ("dpsfit.curves", "value_and_slope"),
    ("dpsfit.curves", "value_and_gradients"),
    ("dpsfit.robust_loss", "rho"),
    ("dpsfit.robust_loss", "psi"),
    ("dpsfit.robust_loss", "weight"),
    ("dpsfit.fitter", "fit"),
    ("dpsfit.progression", "estimate_subject"),
    ("dpsfit.progression", "predict_biomarkers"),
    ("dpsfit.cohort", "parse_cohort_csv"),
    ("dpsfit.staging", "ensemble_posterior"),
    ("dpsfit.staging", "posterior"),
    ("dpsfit.staging", "fit_classifier"),
    ("dpsfit.staging", "collect_class_scores"),
    ("dpsfit.resampling", "run_bootstraps"),
)

# Span record layout, a list for cheap in-place updates.
NAME, START, END, PARENT, THREAD, INFO = range(6)


def _counting(fn, box):
    def counted(*args, **kwargs):
        box[0] += 1
        return fn(*args, **kwargs)

    return counted


class Recorder:
    """Wraps the target functions while installed and records spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.iter_records = collections.Counter()
        self.root: list | None = None
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def _open(self, name: str) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        # A worker thread's outermost span belongs to the current root.
        parent = stack[-1] if stack else self.root
        span = [name, time.perf_counter(), 0.0, parent, threading.get_ident(), None]
        stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._local.stack.pop()
        self.spans.append(span)

    def begin_root(self, name: str) -> list:
        """Open the span that every span recorded until `end_root` descends from."""
        self.iter_records.clear()
        self.root = self._open(name)
        return self.root

    def end_root(self) -> None:
        self._close(self.root)
        self.root = None

    # -- wrappers --------------------------------------------------------

    def _wrap(self, name: str, fn):
        recorder = self

        if name == "optim.minimize_subjects":
            def wrapper(eval_fn, *args, **kwargs):
                role = ROLES.get(sys._getframe(1).f_code.co_name, "other")
                box = [0]
                span = recorder._open(name)
                try:
                    result = fn(_counting(eval_fn, box), *args, **kwargs)
                finally:
                    recorder._close(span)
                x, _, at_bound = result
                lo, hi = kwargs.get("offset_bounds", (-np.inf, np.inf))
                frozen = kwargs.get("frozen")
                movable = True if frozen is None else ~np.asarray(frozen, dtype=bool)
                pinned_offset = movable & ((x[:, 1] <= lo) | (x[:, 1] >= hi))
                span[INFO] = {
                    "role": role,
                    "evals": box[0],
                    "pinned_alpha": int(np.count_nonzero(at_bound)),
                    "pinned_offset": int(np.count_nonzero(pinned_offset)),
                }
                return result
        elif name == "optim.minimize_robust":
            def wrapper(model_fn, *args, **kwargs):
                box = [0]
                span = recorder._open(name)
                try:
                    return fn(_counting(model_fn, box), *args, **kwargs)
                finally:
                    recorder._close(span)
                    span[INFO] = {"evals": box[0]}
        elif name.startswith(("curves.", "robust_loss.")):
            # Both families take (params or kind, points).
            def wrapper(first, points, *args, **kwargs):
                span = recorder._open(name)
                try:
                    return fn(first, points, *args, **kwargs)
                finally:
                    recorder._close(span)
                    span[INFO] = {"points": int(np.size(points))}
        elif name == "fitter.fit":
            def wrapper(*args, **kwargs):
                role = ROLES.get(sys._getframe(1).f_code.co_name, "other")
                span = recorder._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    recorder._close(span)
                span[INFO] = {"role": role, "l_opt": int(result[1].l_opt)}
                return result
        elif name == "resampling.run_bootstraps":
            def wrapper(*args, **kwargs):
                span = recorder._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    recorder._close(span)
                span[INFO] = {"failed": len(result.failures)}
                return result
        else:
            def wrapper(*args, **kwargs):
                span = recorder._open(name)
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    span[INFO] = {"failed": 1}
                    raise
                finally:
                    recorder._close(span)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _wrap_iter_records(self, method):
        counts = self.iter_records

        def iter_records(cohort):
            counts["calls"] += 1
            for record in method(cohort):
                counts["rows"] += 1
                yield record

        iter_records.__wrapped__ = method
        return iter_records

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dpsfit" or n.startswith("dpsfit."))]
        for module_name, attr in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(f"{module_name[len('dpsfit.'):]}.{attr}", original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)
        cohort_cls = sys.modules["dpsfit.cohort"].Cohort
        self._patched.append((cohort_cls, "iter_records", cohort_cls.iter_records))
        cohort_cls.iter_records = self._wrap_iter_records(cohort_cls.iter_records)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- export ----------------------------------------------------------

    def write(self, path, meta: dict) -> None:
        """Write every span as a row ``[id, name, start, end, parent, thread, info]``."""
        ids = {id(span): i for i, span in enumerate(self.spans)}
        threads: dict[int, int] = {}
        t0 = min((span[START] for span in self.spans), default=0.0)
        rows = [
            [i, span[NAME], round(span[START] - t0, 7), round(span[END] - t0, 7),
             ids.get(id(span[PARENT])), threads.setdefault(span[THREAD], len(threads)),
             span[INFO]]
            for i, span in enumerate(self.spans)
        ]
        with gzip.open(path, "wt") as fh:
            json.dump({**meta, "columns": ["id", "name", "start_s", "end_s", "parent",
                                           "thread", "info"], "spans": rows}, fh)
            fh.write("\n")


def layer_metrics(spans: list[list], iter_records: collections.Counter, root: list) -> dict:
    """Per-layer counts and times of the spans that descend from ``root``.

    Layers that recorded no span are absent; read them as zero.
    """
    children_s: dict[int, float] = collections.defaultdict(float)
    for span in spans:
        if span[PARENT] is not None:
            children_s[id(span[PARENT])] += span[END] - span[START]

    def under_root(span) -> bool:
        parent = span[PARENT]
        while parent is not None:
            if parent is root:
                return True
            parent = parent[PARENT]
        return False

    out: dict[str, float] = collections.defaultdict(int)
    replicate_s = []

    for span in spans:
        if not under_root(span):
            continue
        name, info = span[NAME], span[INFO] or {}
        dur = span[END] - span[START]
        self_s = dur - children_s.get(id(span), 0.0)
        out[f"{name}.calls"] += 1
        out[f"{name}.s"] += dur
        if name == "optim.minimize_subjects":
            out["optim.minimize_subjects.self_s"] += self_s
            prefix = f"{name}.{info['role']}"
            out[f"{prefix}.calls"] += 1
            out[f"{prefix}.s"] += dur
            out[f"{prefix}.self_s"] += self_s
            out[f"{prefix}.evals"] += info["evals"]
            out[f"{prefix}.evals_max"] = max(out[f"{prefix}.evals_max"], info["evals"])
            out[f"{prefix}.pinned_alpha"] += info["pinned_alpha"]
            out[f"{prefix}.pinned_offset"] += info["pinned_offset"]
        elif name == "optim.minimize_robust":
            out[f"{name}.self_s"] += self_s
            out[f"{name}.evals"] += info["evals"]
        elif "points" in info:
            out[f"{name}.points"] += info["points"]
        elif name == "fitter.fit":
            out["fitter.fit.l_opt"] += info["l_opt"]
            if info["role"] == "replicate":
                replicate_s.append(dur)
        elif name == "resampling.run_bootstraps":
            out["resampling.failed"] += info["failed"]
        elif name == "progression.estimate_subject":
            out[f"{name}.failed"] += info.get("failed", 0)

    out["robust_loss.s"] = sum(out[f"robust_loss.{k}.s"] for k in ("rho", "psi", "weight"))
    out["cohort.Cohort.iter_records.calls"] = iter_records["calls"]
    out["cohort.Cohort.iter_records.rows"] = iter_records["rows"]
    if replicate_s:
        out["resampling.replicate_s_mean"] = sum(replicate_s) / len(replicate_s)
    return dict(out)

#!/usr/bin/env python3
"""Benchmark harness for dpsfit.

Runs one named workload through the real command line in this process
(``dpsfit.cli.main(argv)``), checks its outputs and prints its metrics.
The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
a separate traced run reports per-layer numbers (see spans.py).  Run from
the root of a source checkout; the program is imported from ``src/``:

    python3 perfbench/run.py --workload fit-baseline --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all     # every workload, a fresh process each

Scratch files and results go to ``.perfbench/`` under the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

# Set up at least SETUP_REPEATS times, and until SETUP_MIN_S have passed
# (at most SETUP_MAX_REPEATS times), so that a set-up of milliseconds still
# gets a steady median.
SETUP_REPEATS = 2
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 30
IMPORT_REPEATS = 5

# Per-layer metrics printed with --trace 1.  Times are kept only for the
# layers that both workloads' timed commands use, so none reads zero; the
# role-split and workload-specific times are in the result file.
PER_LAYER_TIMES = (
    "optim.minimize_subjects.s",
    "optim.minimize_subjects.self_s",
    "optim.minimize_robust.s",
    "fitter.fit.s",
    "curves.value_and_slope.s",
    "curves.value_and_gradients.s",
    "robust_loss.s",
    "cohort.parse_cohort_csv.s",
    "import.dpsfit_cli_s",
    "import.scipy_s",
    "process.cpu_s",
    "trace.overhead_s",
)
PER_LAYER_COUNTS = tuple(
    [f"optim.minimize_subjects.{role}.{key}"
     for role in ("fit_step", "validation", "inference")
     for key in ("calls", "evals", "evals_max", "pinned_alpha", "pinned_offset")]
    + ["optim.minimize_robust.calls", "optim.minimize_robust.evals",
       "curves.value_and_slope.calls", "curves.value_and_slope.points",
       "curves.value_and_gradients.calls", "curves.value_and_gradients.points"]
    + [f"robust_loss.{k}.{c}" for k in ("rho", "psi", "weight") for c in ("calls", "points")]
    + ["fitter.fit.calls", "fitter.fit.l_opt",
       "progression.estimate_subject.calls", "progression.estimate_subject.failed",
       "progression.predict_biomarkers.calls", "cohort.parse_cohort_csv.calls",
       "cohort.Cohort.iter_records.calls", "cohort.Cohort.iter_records.rows"]
    + [f"staging.{f}.calls" for f in ("ensemble_posterior", "posterior",
                                       "fit_classifier", "collect_class_scores")]
    + ["resampling.run_bootstraps.calls", "resampling.failed"]
)
# Counts that must repeat exactly between two traced runs of one input.
DETERMINISTIC_SUFFIXES = (".calls", ".evals", ".evals_max", ".points", ".rows",
                          ".pinned_alpha", ".pinned_offset", ".l_opt", ".failed")


class CommandFailed(RuntimeError):
    pass


class Run:
    """Counts attempted and failed operations and runs CLI commands."""

    def __init__(self, main) -> None:
        self.main = main
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"perfbench: check failed: {what}", file=sys.stderr)
        return ok

    def count_replicates(self, requested: int, failures: list) -> None:
        self.attempted += requested
        self.failures += [f"replicate {b} failed: {msg}" for b, msg in failures]

    def count_subjects(self, attempted: int, skipped: list) -> None:
        self.attempted += attempted
        self.failures += [f"subject {sid} skipped" for sid in skipped]

    def cli(self, argv) -> float:
        """Run one dpsfit command; returns its wall time in seconds."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = self.main(argv)
            elapsed = time.perf_counter() - start
        if not self.check(code == 0, f"dpsfit {argv[0]} exited {code}: {err.getvalue()[-500:]}"):
            raise CommandFailed(f"dpsfit {' '.join(argv)} exited {code}")
        return elapsed


# ----------------------------------------------------------------------
# environment, import and memory
# ----------------------------------------------------------------------

def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def _python(code: str, *flags: str) -> subprocess.CompletedProcess:
    prelude = f"import sys; sys.path.insert(0, {str(SRC)!r}); "
    return subprocess.run([sys.executable, *flags, "-c", prelude + code],
                          capture_output=True, text=True, check=True, timeout=120)


def import_seconds() -> float:
    """Time of ``import dpsfit.cli`` in a fresh interpreter.

    The harness's own import of dpsfit is the warm-up: it writes the
    bytecode caches and pulls the files into the page cache.
    """
    code = ("import time; t = time.perf_counter(); import dpsfit.cli; "
            "print(time.perf_counter() - t)")
    return float(_python(code).stdout)


def _outermost_cumulative_s(rows, prefix: str) -> float:
    """Seconds spent importing the modules named ``prefix`` or ``prefix.*``,
    counting each import tree once at its outermost such module."""
    total = 0
    stack: list[tuple[int, bool]] = []
    # -X importtime prints children before their parent; walk parents first.
    for cumulative_us, depth, name in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = stack[-1][1] if stack else False
        match = name == prefix or name.startswith(prefix + ".")
        if match and not inside:
            total += cumulative_us
        stack.append((depth, inside or match))
    return total / 1e6


def import_layers() -> dict[str, float]:
    """``import dpsfit.cli`` split by package, from ``-X importtime``."""
    stderr = _python("import dpsfit.cli", "-X", "importtime").stderr
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, raw = line.split("|")
        name = raw.lstrip()
        rows.append((int(cumulative), (len(raw) - len(name) - 1) // 2, name.strip()))
    return {"import.dpsfit_cli_s": _outermost_cumulative_s(rows, "dpsfit"),
            "import.scipy_s": _outermost_cumulative_s(rows, "scipy")}


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child, in MB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib * 1024 / 1e6


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _hashes(paths: dict[str, Path]) -> dict[str, str]:
    return {name: _sha256(p) for name, p in sorted(paths.items())}


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------

def measure(run: Run, workload: str, work: Path, args, named: dict) -> dict:
    """Untraced run: set up several times, then repeat the timed commands
    for ``args.seconds``.  Returns the end-to-end metrics."""
    tiny = args.size == "tiny"
    # Import samples are spread over the run, one before the set-ups and
    # one after each timed pass, so that no single slow spell of a shared
    # host decides the median.
    imports = [import_seconds()]
    setup_s, setup_hashes = [], []
    while len(setup_s) < SETUP_REPEATS or (sum(setup_s) < SETUP_MIN_S
                                           and len(setup_s) < SETUP_MAX_REPEATS):
        start = time.perf_counter()
        inputs = wl.setup(run, work / f"setup-{len(setup_s)}", args.seed, tiny)
        setup_s.append(time.perf_counter() - start)
        setup_hashes.append(_hashes(inputs.artifacts()))
    run.check(all(h == setup_hashes[0] for h in setup_hashes),
              "set-up outputs differ between set-ups of one seed")
    named["setup_s"] = statistics.median(setup_s)

    iterations, first_hashes = [], None
    while True:
        it = wl.iterate(run, workload, inputs, work / f"iter-{len(iterations)}")
        hashes = _hashes(it.artifacts)
        if first_hashes is None:
            first_hashes = hashes
            named.update(wl.quality(run, workload, inputs, it))
        else:
            run.check(hashes == first_hashes,
                      f"artifacts of iteration {len(iterations)} differ from iteration 0")
        iterations.append(it)
        if len(imports) < IMPORT_REPEATS:
            imports.append(import_seconds())
        # Stop at the pass count whose total time is nearest --seconds.
        spent = sum(i.wall_s for i in iterations)
        typical = statistics.median(i.wall_s for i in iterations)
        if len(iterations) >= 2 and spent + typical / 2 > args.seconds:
            break
    while len(imports) < IMPORT_REPEATS:
        imports.append(import_seconds())
    named["import_s"] = statistics.median(imports)
    for stage in iterations[0].stage_s:
        named[f"{stage}_s"] = statistics.median(i.stage_s[stage] for i in iterations)
    named["iterations"] = len(iterations)
    named["peak_rss_mb"] = peak_rss_mb()
    if "replicates" in named:
        named["replicates_per_s"] = named["replicates"] / named["bootstrap_s"]
    return {
        "setup_s": (named["setup_s"], "s"),
        "wall_s": (statistics.median(i.wall_s for i in iterations), "s"),
        "import_s": (named["import_s"], "s"),
        "peak_rss_mb": (named["peak_rss_mb"], "MB"),
        "heldout_error": (named[wl.HELDOUT_ERROR[workload]], "1"),
        "accuracy": (named[wl.ACCURACY[workload]], "1"),
    }


def trace(run: Run, workload: str, work: Path, args, named: dict) -> dict:
    """Traced run: one untraced pass, then two traced passes of the timed
    commands.  Returns the per-layer metrics."""
    import spans

    inputs = wl.setup(run, work / "setup", args.seed, args.size == "tiny")
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    plain = wl.iterate(run, workload, inputs, work / "untraced")
    usage1 = resource.getrusage(resource.RUSAGE_SELF)
    reference = _hashes(plain.artifacts)
    cpu_s = (usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime)

    recorder = spans.Recorder()
    layers, traced_wall = [], []
    recorder.install()
    try:
        for k in range(2):
            root = recorder.begin_root("bench.iteration")
            try:
                it = wl.iterate(run, workload, inputs, work / f"traced-{k}")
            finally:
                recorder.end_root()
            traced_wall.append(root[spans.END] - root[spans.START])
            layers.append(spans.layer_metrics(recorder.spans, recorder.iter_records, root))
            run.check(_hashes(it.artifacts) == reference,
                      f"traced pass {k} artifacts differ from the untraced pass")
    finally:
        recorder.uninstall()
    OUT.mkdir(exist_ok=True)
    recorder.write(OUT / f"spans-{workload}-seed{args.seed}.json.gz",
                   {"workload": workload, "seed": args.seed})

    first, second = layers
    for key in sorted(first.keys() | second.keys()):
        if key.endswith(DETERMINISTIC_SUFFIXES):
            a, b = first.get(key, 0), second.get(key, 0)
            run.check(a == b, f"count {key} differs between traced runs: {a} != {b}")
    metrics = dict(first)
    metrics.update(import_layers())
    metrics["process.cpu_s"] = cpu_s
    metrics["process.cpu_util"] = cpu_s / plain.wall_s
    metrics["trace.overhead_s"] = traced_wall[0] - plain.wall_s
    metrics["trace.untraced_wall_s"] = plain.wall_s
    if "bootstrap" in plain.stage_s:
        serial = wl.iterate(run, workload, inputs, work / "serial", threads=1)
        run.check(_hashes(serial.artifacts) == reference,
                  "artifacts differ between bootstraps on 1 and 2 workers")
        replicates = sum(name.startswith("model_") for name in serial.artifacts)
        metrics["resampling.replicate_serial_s_mean"] = serial.stage_s["bootstrap"] / replicates
    named.update(metrics)

    out = {name: (metrics.get(name, 0.0), "s") for name in PER_LAYER_TIMES}
    out["process.cpu_util"] = (metrics["process.cpu_util"], "ratio")
    out.update({name: (metrics.get(name, 0), "count") for name in PER_LAYER_COUNTS})
    return out


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------

def run_workload(args) -> int:
    if not (SRC / "dpsfit" / "cli.py").is_file():
        print(f"perfbench: no dpsfit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from dpsfit.cli import main

    workload = args.workload
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{workload}-{os.getpid()}"
    run = Run(main)
    named: dict = {"workload": workload, "seed": args.seed, "size": args.size}
    try:
        metrics = (trace if args.trace else measure)(run, workload, work, args, named)
    except CommandFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment()
    failed = len(run.failures)
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = {**result, "named": named, "environment": env, "failures": run.failures}
    path = OUT / f"result-{workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {workload} seed {args.seed} ({args.size}), trace {args.trace}")
    print("# environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    for key, value in named.items():
        print(f"#   {key}: {value}")
    print(f"# failed operations: {failed} of {run.attempted}")
    print(json.dumps(result))
    return 0


NAMED_UNITS = {
    "setup_s": "s", "peak_rss_mb": "MB", "import_s": "s", "fit_s": "s",
    "fit_valid_loss": "1", "bootstrap_s": "s", "predict_s": "s", "classify_s": "s",
    "report_s": "s", "test_nmae": "1", "staging_auc": "1", "replicates_per_s": "1/s",
    "order_accuracy": "1",
}


def run_all(args) -> int:
    """Every workload in a fresh process; prints the named metrics side by side."""
    table, status = {}, 0
    for name in wl.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", "0", "--size", args.size]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        path = OUT / f"result-{name}-seed{args.seed}-trace0.json"
        table[name] = json.loads(path.read_text())
    if not table:
        return status
    env = next(iter(table.values()))["environment"]
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"{'metric':18s} {'unit':5s}" + "".join(f" {n:>20s}" for n in table))
    for metric, unit in NAMED_UNITS.items():
        cells = [table[n]["named"].get(metric) for n in table]
        if any(c is not None for c in cells):
            print(f"{metric:18s} {unit:5s}" + "".join(
                f" {c:20.6g}" if c is not None else f" {'-':>20s}" for c in cells))
    print(f"{'failed share':24s}" + "".join(
        f" {r['failed']:>9d} of {r['attempted']:<7d}" for r in table.values()))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 is the ROADMAP baseline cohort")
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="how long to repeat the timed commands")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny cohorts are for the harness self-test")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

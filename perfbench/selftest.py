#!/usr/bin/env python3
"""Self-test of the benchmark harness.

Runs every workload on a tiny cohort, untraced and traced, and asserts
that each metric named in BENCHMARK.json is emitted with its unit, that
every output check passes, and that the harness refuses to run where
there are no dpsfit sources.  Takes about two minutes:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=root, capture_output=True, text=True, timeout=600)


def check_workload(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, f"{workload} trace {trace} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, result
    expected = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}, (
        set(result["metrics"]) ^ {m["name"] for m in expected})
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"], (metric, emitted)
        assert isinstance(emitted["value"], (int, float)) and math.isfinite(emitted["value"])
        if not trace:
            assert emitted["value"] != 0, (workload, metric["name"])
    print(f"ok  {workload} trace {trace}: {result['attempted']} operations, none failed")


def check_refuses_without_sources(spec: dict) -> None:
    bare = ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "ran without dpsfit sources"
        assert '"metrics"' not in proc.stdout, "printed a result without dpsfit sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses to run without dpsfit sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            check_workload(spec, workload, trace)
    check_refuses_without_sources(spec)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Smoke test of the benchmark itself, on tiny inputs (about a minute):

    python3 bench/smoke.py

It checks the summary line's schema and that its metric names and units are
exactly those in BENCHMARK.json, that two traced runs with one seed give the
same counters and the same stdout digest, and that without the program's
sources the benchmark exits nonzero and prints no summary.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
EXACT_COUNTERS = ("quadrature.integrate.evals", "core.jacobi_eigenvalue.calls",
                  "core.validate_spectrum.calls_per_op")
TIME_UNITS = ("ref_ms", "%")


def run_bench(workload: str, seed: int, trace: int, cwd: str = ROOT):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def summary(proc, expected: list[dict]) -> tuple[dict, list[str]]:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    doc = json.loads(lines[-1])
    if set(doc) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"summary keys {sorted(doc)}")
    if doc["correct"] is not True:
        raise AssertionError("correct is not true:\n" + proc.stdout[-3000:])
    if not (isinstance(doc["attempted"], int) and doc["attempted"] >= 1
            and isinstance(doc["failed"], int) and 0 <= doc["failed"] <= doc["attempted"]):
        raise AssertionError(f"attempted={doc['attempted']!r} failed={doc['failed']!r}")
    got = {name: (m["unit"], m["value"]) for name, m in doc["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if set(got) != set(want):
        raise AssertionError(f"metric names differ: missing {sorted(set(want) - set(got))}, "
                             f"extra {sorted(set(got) - set(want))}")
    for name, (unit, value) in got.items():
        if unit != want[name] or isinstance(value, bool) or not isinstance(value, (int, float)):
            raise AssertionError(f"{name}: unit {unit!r}, value {value!r}")
    return doc["metrics"], [line for line in lines if "stdout sha256" in line]


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    seen_nonzero = set()
    for workload in (w["name"] for w in spec["workloads"]):
        summary(run_bench(workload, 5, 0), spec["end_to_end"])
        first, first_digest = summary(run_bench(workload, 3, 1), spec["per_layer"])
        second, second_digest = summary(run_bench(workload, 3, 1), spec["per_layer"])
        for name, unit in ((m["name"], m["unit"]) for m in spec["per_layer"]):
            if unit not in TIME_UNITS and first[name]["value"] != second[name]["value"]:
                raise AssertionError(f"{workload}: counter {name} did not repeat: "
                                     f"{first[name]['value']} vs {second[name]['value']}")
        if first_digest != second_digest:
            raise AssertionError(f"{workload}: stdout digest did not repeat")
        seen_nonzero.update(n for n in EXACT_COUNTERS if first[n]["value"])
        print(f"smoke: {workload} ok")
    if seen_nonzero != set(EXACT_COUNTERS):
        raise AssertionError(f"counters never nonzero: {set(EXACT_COUNTERS) - seen_nonzero}")

    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="smoke-", dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("verify", 1, 0, cwd=bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            raise AssertionError("ran without the program's sources")
    finally:
        shutil.rmtree(bare)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(bare))
    print("smoke: refuses to run without sources, ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

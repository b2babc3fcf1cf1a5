"""cbstab benchmark: closed-loop CLI workloads, end-to-end and per-layer metrics.

Run from the root of a source checkout:

    python3 bench/run.py --workload verify --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1

One client in one process, no threads: each op is one `cbstab` command line
run in-process through `cbstab.cli.main(argv)` with stdout and stderr
captured, and the next op starts when the previous one returns.  The
program imported is the checkout's own `src/cbstab`; without it the
benchmark exits with code 2.

--trace 0 measures the end-to-end metrics for `--seconds` (whole rounds,
at least MIN_OPS ops).  --trace 1 runs a fixed number of rounds twice, plain
and then with every public cbstab function wrapped by `tracing.Tracer`, and
reports the per-layer metrics, the tracing overhead and where the spans were
written.  Every op's output is checked; the last stdout line is a JSON
summary with the keys correct, attempted, failed and metrics.  A workload's
known-defect probes run after its ops, untimed and outside attempted and
failed; their outcomes are listed, and in the traced run their calls count
in the per-layer metrics.

Op times are reported in ref_ms.  The CPU of a shared machine changes speed
by up to 2x for tens of seconds at a time, so before every op the benchmark
times a fixed piece of pure-Python work (`reference_probe`, defined to take
1 ref_ms) and divides the op's wall time by the median of the probes around
it; an op repeated within the run (a verify suite, a spectrum file) takes the
median of its repeats.  Wall-clock figures are printed alongside.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction

import tracing
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".bench_tmp")
SPAN_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("verify", "energy-sweep", "spectrum-index")
MIN_OPS = 100  # so that latency_p90_ms has at least ten samples beyond it
TINY_MIN_OPS = 3
SETUP_SAMPLES = 7
PROBE_WINDOW = 3  # probes on each side of an op that set its speed
IMPORT_CLI = f"import sys; sys.path.insert(0, {SRC!r}); import cbstab.cli"


class Run:
    """Outcome of running a list of ops once."""

    def __init__(self):
        self.latencies: list[float] = []  # wall seconds, every attempted op
        self.probes: list[float] = []  # reference_probe seconds, one before each op
        self.commands: list[tuple] = []  # argv of each op
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: list[str] = []
        self.bands = 0
        self.digest = hashlib.sha256()
        self.head_digest = None

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def ref_ms(self) -> list[float]:
        """Each op's time in ref_ms: its wall time over the median probe time
        around it, then the median over all ops of the same command line in
        this run, which damps the second-to-second jitter of a shared CPU."""
        by_command = defaultdict(list)
        for i, (command, latency) in enumerate(zip(self.commands, self.latencies)):
            near = self.probes[max(0, i - PROBE_WINDOW + 1):i + PROBE_WINDOW + 1]
            by_command[command].append(latency / statistics.median(near))
        medians = {command: statistics.median(v) for command, v in by_command.items()}
        return [medians[command] for command in self.commands]


def reference_probe() -> float:
    """Wall seconds of a fixed piece of pure-Python work, which is 1 ref_ms.

    The mix (float math, Fraction arithmetic, JSON round trip) is the kind of
    work cbstab does, but it calls nothing in cbstab, so it gauges the CPU's
    current speed and no change to the program moves it."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(1, 2000):
        x = i * 1e-3
        acc += math.sin(x) * math.exp(-x) / (1.0 + x * x)
    frac = Fraction(0)
    for i in range(1, 250):
        frac += Fraction(i % 13 + 1, i % 7 + 2)
    json.loads(json.dumps({str(i): [i, acc, str(frac)] for i in range(250)}))
    return time.perf_counter() - start


def run_op(cli, op: workloads.Op, run: Run, tracer=None) -> None:
    # Every op starts from an empty young generation, so the collector's
    # pauses are the op's own rather than those of whatever the previous ops
    # left; without this a big op's time moved by up to 1.5x between repeats.
    gc.collect()
    run.probes.append(reference_probe())
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.begin_op()
        start = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except Exception as exc:  # a crash is a failed op, not a crashed benchmark
            rc = f"uncaught {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end_op()
    stdout = out.getvalue()
    run.latencies.append(elapsed)
    run.commands.append(tuple(op.argv))
    run.digest.update(stdout.encode())
    verdict = (workloads.Verdict(False, f"{op.argv}: {rc}") if isinstance(rc, str)
               else op.check(rc, stdout, err.getvalue()))
    if verdict.passed:
        run.bands += op.bands
        return
    run.failed += 1
    (run.known if verdict.known_defect else run.unexpected).append(verdict.problem)


def run_ops(cli, ops, run: Run, digest_ops: int, tracer=None) -> None:
    for op in ops:
        run_op(cli, op, run, tracer)
        if run.attempted == digest_ops:
            run.head_digest = run.digest.hexdigest()


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of positive values, taken on a
    log scale: a Beta-weighted geometric mean of all order statistics.

    Op costs come in steps (quadrature refinement levels, suites, files), and
    a single order statistic jumps between steps from run to run; the weighted
    mean moves smoothly with the share of ops per step.  The log scale keeps
    the few very slow ops (failed quadratures) from pulling the estimate up."""
    ordered = [math.log(v) for v in sorted(values)]
    n = len(ordered)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if not 0.0 < x < 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1.0) * math.log(x) + (b - 1.0) * math.log1p(-x))

    # Simpson's rule for the Beta(a, b) mass of each order statistic's slot
    weights = [density(i / n) + 4.0 * density((i + 0.5) / n) + density((i + 1) / n)
               for i in range(n)]
    return math.exp(sum(w * x for w, x in zip(weights, ordered)) / sum(weights))


def fresh_import() -> float:
    """Reference seconds for a fresh interpreter to start and import cbstab.cli:
    its wall time over that of a reference probe run just before it."""
    probe = reference_probe()
    start = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", IMPORT_CLI], cwd=ROOT, check=True)
    return (time.perf_counter() - start) / probe * 1e-3


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(trace: bool) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "trace": trace,
    }


def report(name: str, value: float, unit: str, note: str = "") -> dict:
    print(f"  {name:<40} {value:>14.6g} {unit:<6} {note}")
    return {"value": value, "unit": unit}


def print_failures(run: Run) -> None:
    for problem in run.unexpected:
        print(f"  FAILED: {problem}")


def run_probes(cli, workload: workloads.Workload, tracer=None) -> Run:
    """Run the workload's known-defect probes once and list their outcomes."""
    probes = Run()
    for op in workload.probes:
        run_op(cli, op, probes, tracer)
    if workload.probes:
        print(f"  known-defect probes (untimed, not in attempted): {len(probes.known)} of "
              f"{len(workload.probes)} still show the defect")
        for problem in probes.known:
            print(f"    known defect: {problem}")
    print_failures(probes)
    return probes


def measure(cli, workload: workloads.Workload, seconds: float, min_ops: int) -> dict:
    """End-to-end metrics over whole rounds for `seconds`, at least min_ops ops.

    The set-up samples are spread over the run, between rounds, so that a
    slow spell of the machine does not hit all of them."""
    run = Run()
    setup = []
    start = time.perf_counter()
    while run.attempted < min_ops or time.perf_counter() - start < seconds:
        if len(setup) * seconds <= SETUP_SAMPLES * (time.perf_counter() - start):
            setup.append(fresh_import())
        run_ops(cli, next(workload.rounds), run, min_ops)
    window = time.perf_counter() - start
    while len(setup) < SETUP_SAMPLES:
        setup.append(fresh_import())
    probes = run_probes(cli, workload)
    ok = run.attempted - run.failed
    wall_ms = [x * 1e3 for x in run.latencies]
    ref_ms = run.ref_ms()
    busy_s, busy_ref_s = sum(run.latencies), sum(ref_ms) / 1e3
    print(f"  {run.attempted} ops in {window:.1f} s, {busy_s:.1f} s of it inside "
          f"cbstab.cli.main; reference probe median {1e3 * statistics.median(run.probes):.3f} "
          f"ms wall = 1 ref_ms; percentiles over all {run.attempted} attempted ops")
    metrics = {
        "setup_s": report("setup_s", statistics.median(setup), "s",
                          f"reference seconds, median of {len(setup)} fresh interpreters "
                          "importing cbstab.cli"),
        "throughput_ops_s": report("throughput_ops_s", ok / busy_ref_s, "1/ref_s",
                                   f"successful ops per second ({ok / busy_s:.4g} 1/s wall)"),
        "latency_p50_ms": report("latency_p50_ms", percentile(ref_ms, 0.5), "ref_ms",
                                 f"({percentile(wall_ms, 0.5):.4g} ms wall)"),
        "latency_p90_ms": report("latency_p90_ms", percentile(ref_ms, 0.9), "ref_ms",
                                 f"({percentile(wall_ms, 0.9):.4g} ms wall; "
                                 f"{run.attempted - int(0.9 * run.attempted)} samples above)"),
        "success_ratio": report("success_ratio", ok / run.attempted, "ratio",
                                f"failed_ratio = {run.failed}/{run.attempted}"),
        "peak_rss_mb": report("peak_rss_mb",
                              resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    if run.bands:
        report("bands_per_s", run.bands / busy_ref_s, "1/ref_s",
               f"input bands of successful ops ({run.bands / busy_s:.4g} 1/s wall)")
    print_failures(run)
    print(f"  stdout sha256, first {min_ops} ops: {run.head_digest}")
    return {"run": run, "metrics": metrics, "unexpected": probes.unexpected}


def measure_traced(cli, workload: workloads.Workload, digest_ops: int, seed: int) -> dict:
    ops = [op for _ in range(workload.trace_rounds) for op in next(workload.rounds)]
    plain, traced = Run(), Run()
    run_ops(cli, ops, plain, digest_ops)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_ops(cli, ops, traced, digest_ops, tracer)
        probes = run_probes(cli, workload, tracer)
    finally:
        tracer.uninstall()
    if traced.digest.hexdigest() != plain.digest.hexdigest():
        traced.unexpected.append("tracing changed the program's stdout")
    plain_s, traced_s = sum(plain.ref_ms()) / 1e3, sum(traced.ref_ms()) / 1e3
    os.makedirs(SPAN_DIR, exist_ok=True)
    span_path = os.path.join(SPAN_DIR, f"spans-{workload.name}-seed{seed}.jsonl")
    tracer.write_spans(span_path)
    print(f"  traced pass: {len(ops)} ops ({workload.trace_rounds} rounds), "
          f"{plain_s:.2f} ref_s plain, {traced_s:.2f} ref_s traced; totals over the pass")
    print(f"  {len(tracer.spans)} spans written to {os.path.relpath(span_path, ROOT)}")
    print("  no waiting time is recorded: one process, no queues, nothing waits")
    # layer times are wall ms; scale them by the pass's mean speed, like op times
    speed = traced_s / sum(traced.latencies)
    print(f"  layer times: wall ms x {speed:.4f} (ref_s per wall s over the traced pass)")
    values = tracer.metrics()
    values["trace.overhead_pct"] = 100.0 * (traced_s - plain_s) / plain_s
    units = per_layer_units()
    metrics = {name: report(name, value * speed if units[name] == "ref_ms" else value,
                            units[name])
               for name, value in values.items()}
    print_failures(traced)
    print(f"  stdout sha256, all {len(ops)} ops: {traced.digest.hexdigest()}")
    traced.failed = max(traced.failed, plain.failed)
    return {"run": traced, "metrics": metrics,
            "unexpected": plain.unexpected + probes.unexpected}


def per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_workload(cli, name: str, args) -> dict:
    print(f"== workload {name}, seed {args.seed}, trace {'on' if args.trace else 'off'}")
    # a fixed, checkout-relative name keeps the file paths in stdout reproducible
    workdir = os.path.relpath(os.path.join(WORK_DIR, f"{name}-seed{args.seed}"), ROOT)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        workload = workloads.make(name, args.seed, args.tiny, workdir)
        # the benchmark's own objects are never scanned by the ops' collections
        gc.collect()
        gc.freeze()
        if not args.trace:
            fresh_import()  # unmeasured: compiles the bytecode cache
        warm = Run()
        run_op(cli, workload.warmup, warm)  # untimed: fills lazy caches
        min_ops = TINY_MIN_OPS if args.tiny else MIN_OPS
        if args.trace:
            result = measure_traced(cli, workload, min_ops, args.seed)
        else:
            result = measure(cli, workload, args.seconds, min_ops)
        result["unexpected"] += warm.unexpected + warm.known
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return result


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="minimal sizes, for the smoke test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cbstab", "cli.py")):
        print(f"bench: no cbstab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cbstab.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"bench: imported {cli.__file__}, not the checkout's sources", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(cli, name, args) for name in names}
    finally:
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)
    print("env: " + json.dumps(environment(bool(args.trace))))
    unexpected = [p for r in results.values() for p in r["unexpected"] + r["run"].unexpected]
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()}
    print(json.dumps({
        "correct": not unexpected,
        "attempted": sum(r["run"].attempted for r in results.values()),
        "failed": sum(r["run"].failed for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""In-memory span tracer for the traced benchmark pass.

`Tracer.install()` wraps the public functions of every `cbstab` module from
outside the package: each module attribute that *is* one of those functions
(its home module, the package re-exports, and names imported into `cli`,
`verify`, `variation` and the others) is replaced by a wrapper, so calls
through any of these names are seen.  `uninstall()` puts the originals back.

A span is (id, name, start_ns, end_ns, parent id, op id).  Self time is a
span's duration minus the durations of its direct children; the package is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import time
from collections import defaultdict

PACKAGE = "cbstab"
LAYERS = ("cli", "verify", "variation", "family", "quadrature", "spectra", "core")
# Called once per band or per eigenvalue: counted, but given no clock or span,
# which would cost more than the call.  Their time is their caller's self time.
COUNT_ONLY = frozenset({"core.as_rational", "core.jacobi_eigenvalue"})


class _Stat:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.ops = 0
        self._ids = itertools.count()
        self._stack: list[list[int]] = []  # [span id, child ns] per open span
        self._op_id = -1
        self._patched: list[tuple] = []
        # counters observed at layer boundaries
        self.evals = 0
        self.useful_nodes = 0
        self.max_panels = 0
        self.quad_failures = 0
        self.family_seen: set = set()
        self.family_repeats = 0
        self.bands_loaded = 0
        self.bands_in = 0
        self.checks_failed = 0
        self.suite_ns: dict[str, int] = defaultdict(int)

    # ------------------------------------------------------------ patching

    def install(self) -> None:
        modules = [mod for name, mod in sys.modules.items()
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, value in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        for module in modules:
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        while self._patched:
            module, attr, value = self._patched.pop()
            setattr(module, attr, value)

    # ------------------------------------------------------------ spans

    def begin_op(self) -> None:
        self._op_id = self.ops
        self.ops += 1
        self._stack.append([next(self._ids), 0, time.perf_counter_ns()])

    def end_op(self) -> None:
        span_id, _, start = self._stack.pop()
        self.spans.append((span_id, "op", start, time.perf_counter_ns(), None, self._op_id))

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)
            return counted

        observe = _OBSERVERS.get(name)
        signature = inspect.signature(fn)
        stack, spans, ids, clock = self._stack, self.spans, self._ids, time.perf_counter_ns

        def traced(*args, **kwargs):
            after = None
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                after = observe(self, bound)
                args, kwargs = bound.args, bound.kwargs
            parent = stack[-1] if stack else None
            frame = [next(ids), 0]
            stack.append(frame)
            start = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat.calls += 1
                stat.total_ns += duration
                stat.self_ns += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                spans.append((frame[0], name, start, end,
                              None if parent is None else parent[0], self._op_id))
                if after is not None:
                    after(result, error, duration)
        return traced

    def write_spans(self, path: str) -> None:
        origin = min((s[2] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, op in sorted(self.spans):
                handle.write(json.dumps({"id": span_id, "name": name,
                                         "start_ns": start - origin, "end_ns": end - origin,
                                         "parent": parent, "op": op}) + "\n")

    # ------------------------------------------------------------ metrics

    def metrics(self) -> dict[str, float]:
        def ms(name):
            return self.stats[name].total_ns / 1e6 if name in self.stats else 0.0

        def calls(name):
            return self.stats[name].calls if name in self.stats else 0

        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = sum(
                s.self_ns for n, s in self.stats.items() if n.startswith(layer + ".")) / 1e6
        for suite in ("tables", "constancy", "hessian", "epsilon", "bounds", "symmetry"):
            out[f"verify.suite_ms.{suite}"] = self.suite_ns[suite] / 1e6
        out["verify.checks_failed"] = self.checks_failed
        for name in ("variation.fd_second_derivative", "family.evaluate_family",
                     "quadrature.integrate", "spectra.sphere_bands", "core.index_nullity"):
            out[f"{name}.calls"] = calls(name)
        for name in ("variation.fd_second_derivative", "family.evaluate_family",
                     "family.upper_bound", "quadrature.integrate", "spectra.load_spectrum",
                     "spectra.sphere_bands", "core.validate_spectrum", "core.index_nullity"):
            out[f"{name}.ms"] = ms(name)
        family_calls = calls("family.evaluate_family")
        out["family.evaluate_family.repeat_ratio"] = (
            self.family_repeats / family_calls if family_calls else 0.0)
        quad_calls = calls("quadrature.integrate")
        out["quadrature.integrate.evals"] = self.evals
        out["quadrature.integrate.evals_per_call"] = self.evals / quad_calls if quad_calls else 0.0
        out["quadrature.integrate.useful_ratio"] = (
            self.useful_nodes / self.evals if self.evals else 0.0)
        out["quadrature.integrate.failures"] = self.quad_failures
        out["quadrature.integrate.max_panels"] = self.max_panels
        out["spectra.load_spectrum.bands"] = self.bands_loaded
        out["core.validate_spectrum.calls_per_op"] = (
            calls("core.validate_spectrum") / self.ops if self.ops else 0.0)
        out["core.index_nullity.bands_in"] = self.bands_in
        out["core.jacobi_eigenvalue.calls"] = calls("core.jacobi_eigenvalue")
        out["trace.ops"] = self.ops
        out["trace.spans"] = len(self.spans)
        return out


# ---------------------------------------------------------------- observers
# Each takes the tracer and the bound arguments of a call (which it may
# replace), and returns a callback run with (result, error, duration_ns).


def _observe_integrate(tracer: Tracer, bound):
    f = bound.arguments["f"]
    count = [0]

    def counted(x):
        count[0] += 1
        return f(x)

    bound.arguments["f"] = counted
    base_nodes = bound.arguments["config"].base_nodes

    def after(result, error, duration):
        tracer.evals += count[0]
        if error is not None:
            tracer.quad_failures += type(error).__name__ == "QuadratureFailure"
            return
        # Gauss-Legendre levels do not nest: only the last level's nodes count
        tracer.useful_nodes += result.panels_used * base_nodes
        tracer.max_panels = max(tracer.max_panels, result.panels_used)
    return after


def _observe_evaluate_family(tracer: Tracer, bound):
    args = bound.arguments
    key = (args["m"], float(args["t"]), args["quad"])
    if key in tracer.family_seen:
        tracer.family_repeats += 1
    tracer.family_seen.add(key)
    return None


def _observe_index_nullity(tracer: Tracer, bound):
    bands = bound.arguments["bands"]
    if not isinstance(bands, (list, tuple)):
        bands = bound.arguments["bands"] = list(bands)
    tracer.bands_in += len(bands)
    return None


def _observe_load_spectrum(tracer: Tracer, bound):
    def after(result, error, duration):
        if error is None:
            tracer.bands_loaded += len(result.bands)
    return after


def _observe_run_suites(tracer: Tracer, bound):
    names = bound.arguments["names"]

    def after(result, error, duration):
        if error is None:
            tracer.checks_failed += sum(not r.passed for r in result)
        if names is not None and len(names) == 1:
            tracer.suite_ns[names[0]] += duration
    return after


_OBSERVERS = {
    "quadrature.integrate": _observe_integrate,
    "family.evaluate_family": _observe_evaluate_family,
    "core.index_nullity": _observe_index_nullity,
    "spectra.load_spectrum": _observe_load_spectrum,
    "verify.run_suites": _observe_run_suites,
}

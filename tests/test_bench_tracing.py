"""The benchmark's traced pass against the library it wraps.

bench/tracing.py binds names of the library by hand: evaluate_family's
`quad`, run_suites' `names` and LoadedSpectrum's `bands`.  A rename in the
library breaks only the traced benchmark run, so one small traced pass runs
here, through the same tracer, on the bench/ beside this test file.
"""

import contextlib
import importlib.util
import io
import json
import os

import cbstab.cli
from cbstab.spectra import builtin_spectrum, spectrum_document

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("tracing",
                                                  os.path.join(BENCH, "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cbstab.cli.main(argv)


def test_traced_pass_binds_the_names_it_reads(tmp_path):
    path = tmp_path / "s4.json"
    path.write_text(json.dumps(spectrum_document(builtin_spectrum(4))), encoding="utf-8")
    ops = [["energy", "--dim", "5", "--t", "0.5", "--format", "json"],
           ["verify", "--suites", "hessian", "--format", "json"],
           ["index", "--spectrum-file", str(path)]]
    # untimed first runs, as the benchmark's warm-up: install() wraps only
    # the modules already loaded
    assert [_run(argv) for argv in ops] == [0, 0, 0]
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        codes = []
        for argv in ops:
            tracer.begin_op()
            codes.append(_run(argv))
            tracer.end_op()
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    metrics = tracer.metrics()
    assert metrics["family.evaluate_family.calls"] > 0
    assert metrics["verify.suite_ms.hessian"] > 0
    assert metrics["spectra.load_spectrum.bands"] > 0

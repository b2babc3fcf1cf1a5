import hashlib
import json
import os
import subprocess
import sys
import warnings

import pytest

import cbstab.core
import cbstab.errors
import cbstab.verify
from cbstab.cli import _ENERGY_COLUMNS, _energy_json, _parse, _verify_json, build_parser, main
from cbstab.core import Functional, index_reports
from cbstab.errors import DomainError, ParseError
from cbstab.family import evaluate_family
from cbstab.spectra import builtin_spectrum, load_spectrum
from helpers import rebind_everywhere

# the directory that holds the cbstab under test: the checkout's src/ or an install's
PACKAGE_PARENT = os.path.dirname(os.path.dirname(os.path.abspath(cbstab.__file__)))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_map(doc):
    return {r["functional"]: (r["index"], r["nullity"]) for r in doc["reports"]}


def test_spectrum_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "spectrum", "--dim", "5")
    assert code == 0
    path = tmp_path / "s5.json"
    path.write_text(out, encoding="utf-8")
    code, from_file, _ = run(capsys, "index", "--spectrum-file", str(path),
                             "--functional", "all")
    assert code == 0
    code, builtin, _ = run(capsys, "index", "--dim", "5", "--functional", "all")
    assert code == 0
    assert report_map(json.loads(from_file)) == report_map(json.loads(builtin))
    for a, b in zip(json.loads(from_file)["reports"], json.loads(builtin)["reports"]):
        assert a["contributing_bands"] == b["contributing_bands"]


def test_energy_documents_hold_the_evaluator_doubles(capsys):
    # JSON writes each double's shortest round-trip form and CSV writes 17
    # significant digits; both must read back to the evaluator's double
    columns = ("energy", "energy_error", "bienergy", "bienergy_error",
               "c_bienergy", "c_bienergy_error")
    ts = (1e-8, 0.37, 1e8)
    for m in (2, 5, 12):
        want = [[t] + [getattr(evaluate_family(m, t), c) for c in columns] for t in ts]
        argv = ("energy", "--dim", str(m), "--t", ",".join(map(repr, ts)))
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [[row[c] for c in ("t",) + columns] for row in rows] == want
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert [[float(v) for v in line.split(",")]
                for line in out.splitlines()[1:]] == want


def _refuse_constant(name):
    pytest.fail(f"energy document holds {name}")


def _energy_doc(m, rows):
    return json.dumps({"dimension": m, "rows": [dict(zip(_ENERGY_COLUMNS, row))
                                                for row in rows]}, indent=2)


@pytest.mark.parametrize("m", [2, 5, 50])
@pytest.mark.parametrize("ts", [(1e-8,), (1.0,), (1e8,),
                                (1e-8, 3e-7, 1e-4, 0.02, 0.5, 1.0, 2.5, 60.0, 1e4,
                                 7e6, 1e8)])
def test_energy_json_is_json_dumps_with_indent(capsys, m, ts):
    # the energy document is written directly, byte for byte as json.dumps
    # with indent=2 writes it from the evaluator's doubles; json.dumps would
    # write NaN and Infinity too, so the document is also read without them
    rows = [[t] + [getattr(evaluate_family(m, t), name) for name in _ENERGY_COLUMNS[1:]]
            for t in ts]
    code, out, _ = run(capsys, "energy", "--dim", str(m), "--t", ",".join(map(repr, ts)),
                       "--format", "json")
    assert code == 0
    assert out == _energy_doc(m, rows) + "\n"
    json.loads(out, parse_constant=_refuse_constant)


def test_energy_json_writes_each_float_as_json_does():
    # reprs with an exponent, the extremes of the double range and a signed
    # zero, in one row and in eleven
    values = [1e-08, 1e+16, 1.2345678901234568e+17, 5e-324, 1.7976931348623157e+308,
              -0.0, 2.5e-15, 0.1, 100000000.0, 1e-05, 3.0]
    assert sum("e" in repr(v) for v in values) >= 6
    eleven = [(values[i:] + values[:i])[:7] for i in range(11)]
    for rows in ([values[:7]], eleven):
        for m in (2, 5, 50):
            assert _energy_json(m, rows) == _energy_doc(m, rows)


def _oversized_files(tmp_path):
    """Spectrum files whose inputs fit the 4300-digit limit but whose output would not."""
    nines = "9" * 4299  # lambda; 12 lambda has 4301 digits
    gradient = {"multiplicity": 1, "kind": "gradient"}
    docs = [
        # a listed Jacobi eigenvalue past the limit
        {"dimension": 5, "einstein_constant": "1" + "0" * 3000, "complete_up_to": "3" + "0" * 3000,
         "bands": [{**gradient, "eigenvalue": "1/" + "7" * 3000}]},
        # two bands of multiplicity 10^4300 - 1 merge into 4301 digits
        {"dimension": 5, "einstein_constant": "4", "complete_up_to": "100",
         "bands": [{**gradient, "eigenvalue": "5", "multiplicity": 10 ** 4300 - 1}] * 2},
        # the flagged band's message writes the Obata bound 12 lambda/11
        {"dimension": 12, "einstein_constant": nines, "bands": [{**gradient, "eigenvalue": "1"}]},
        # no band is listed or flagged; the scalar curvature is 12 lambda
        {"dimension": 12, "einstein_constant": nines,
         "bands": [{**gradient, "eigenvalue": "2" + "0" * 4299}]},
    ]
    paths = []
    for i, doc in enumerate(docs):
        paths.append(tmp_path / f"oversized{i}.json")
        paths[-1].write_text(json.dumps({"name": "oversized", **doc}), encoding="utf-8")
    return [("index", "--spectrum-file", str(path)) for path in paths]


def test_usage_errors_exit_64(tmp_path, capsys):
    cases = [
        ("energy", "--dim", "5", "--t", "1e9"),           # t out of range
        ("energy", "--dim", "5", "--t", "1,1e-9"),        # rejected after t = 1 ran
        ("energy", "--dim", "5", "--t", "abc"),
        ("energy", "--dim", "5", "--t", ","),             # no t value
        ("energy", "--dim", "1", "--t", "1"),             # family needs m >= 2
        ("energy", "--dim", "51", "--t", "1"),            # family needs m <= 50
        ("index",),                                        # no source
        ("index", "--dim", "4", "--lambda", "0"),          # lambda must be positive
        ("index", "--dim", "1", "--lambda", "2"),          # circle is flat
        ("index", "--dim", "4", "--spectrum-file", "x", "--lambda", "3"),
        ("index", "--dim", "4", "--lambda", "3/0"),
        ("index", "--dim", "4", "--lambda", "1e5000"),      # str() could not write it
        ("index", "--dim", "4", "--lambda", "1e3000000"),   # refused before it is built
        ("index", "--dim", "5", "--lambda", "1e3000"),      # a Jacobi eigenvalue could not
        ("index", "--dim", "12", "--lambda", "9" * 4299),   # nor the Obata bound 12 lambda/11
        *_oversized_files(tmp_path),
        ("spectrum", "--dim", "4", "--lambda", "1e5000"),
        ("verify", "--suites", "nonsense"),
        ("verify", "--suites", ","),                        # no suite: nothing checked
        ("verify", "--suites", "tables,tables"),            # would run tables twice
        ("spectrum", "--dim", "4", "--format", "json"),     # spectrum writes JSON only
        ("nonsense",),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 64, argv
        assert out == ""
        assert err.startswith("cbstab: usage error: ") and err.count("\n") == 1, argv
    # a missing source is named as such, not found later as a bad dimension
    assert run(capsys, "index")[2] == (
        "cbstab: usage error: need either --dim (built-in sphere) or --spectrum-file\n")


@pytest.mark.parametrize("line, exit_code", [
    ("", 64), ("nonsense", 64), ("energy --dim 51 --t 1", 64),
    ("index --dim 4 --lambda 3/0", 64), ("--help", 0), ("energy --help", 0),
])
def test_main_reads_sys_argv(capsys, monkeypatch, line, exit_code):
    # the console script calls main() with no argument
    monkeypatch.setattr(sys, "argv", ["cbstab", *line.split()])
    code = main()
    out, err = capsys.readouterr()
    assert code == exit_code
    if exit_code:
        assert out == "" and err.startswith("cbstab: usage error: ")
    else:
        assert out.startswith("usage: cbstab") and err == ""


def test_module_run_without_arguments_exits_64():
    proc = subprocess.run([sys.executable, "-m", "cbstab.cli"], capture_output=True, text=True,
                          encoding="utf-8", env=dict(os.environ, PYTHONPATH=PACKAGE_PARENT),
                          timeout=60)
    assert (proc.returncode, proc.stdout) == (64, "")
    assert proc.stderr.startswith("cbstab: usage error: ")


def test_missing_file_exits_66(capsys):
    code, out, err = run(capsys, "index", "--spectrum-file", "/nonexistent/spec.json")
    assert code == 66
    assert out == ""
    assert "file error" in err


def test_malformed_file_exits_66(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{oops", encoding="utf-8")
    code, _, err = run(capsys, "index", "--spectrum-file", str(bad))
    assert code == 66

    zero_mult = tmp_path / "zero.json"
    zero_mult.write_text(json.dumps({
        "name": "x", "dimension": 4, "einstein_constant": "3",
        "bands": [{"eigenvalue": "4", "multiplicity": 0, "kind": "gradient"}],
    }), encoding="utf-8")
    code, _, _ = run(capsys, "index", "--spectrum-file", str(zero_mult))
    assert code == 66

    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"dimension": 4}), encoding="utf-8")
    code, _, _ = run(capsys, "index", "--spectrum-file", str(missing))
    assert code == 66

    # what json.loads refuses with ValueError or RecursionError: an integer
    # past int's digit limit, too deep a nesting, a byte that is not UTF-8
    huge = "1" * 5000
    refused = {
        "huge-dimension.json": ('{"name": "x", "dimension": %s, "einstein_constant": "3", '
                                '"bands": []}' % huge).encode(),
        "huge-multiplicity.json": ('{"name": "x", "dimension": 4, "einstein_constant": "3", '
                                   '"bands": [{"eigenvalue": "4", "multiplicity": %s, '
                                   '"kind": "gradient"}]}' % huge).encode(),
        "deep.json": b"[" * 100_000 + b"]" * 100_000,
        "latin1.json": '{"name": "S\u00e9", "dimension": 4, "einstein_constant": "3", '
                       '"bands": []}'.encode("latin-1"),
    }
    for name, content in refused.items():
        path = tmp_path / name
        path.write_bytes(content)
        code, out, err = run(capsys, "index", "--spectrum-file", str(path))
        assert (code, out) == (66, ""), name
        assert err.startswith(f"cbstab: spectrum file error: {path}: invalid JSON: "), name

    # rationals that Fraction(str) reads but str() cannot write: a numerator
    # or denominator past the 4300-digit limit
    base = {"name": "x", "dimension": 4, "einstein_constant": "3", "complete_up_to": "6",
            "bands": [{"eigenvalue": "4", "multiplicity": 5, "kind": "gradient"}]}
    for where, doc in [("einstein_constant", dict(base, einstein_constant="1e5000")),
                       ("complete_up_to", dict(base, complete_up_to="1e5000")),
                       ("bands[0].eigenvalue", dict(base, bands=[
                           {"eigenvalue": "1e-5000", "multiplicity": 5, "kind": "gradient"}]))]:
        path = tmp_path / "unwritable.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "index", "--spectrum-file", str(path))
        assert (code, out) == (66, ""), where
        assert err == (f"cbstab: spectrum file error: {where} is out of range: "
                       "numerator or denominator past 4300 digits\n"), where


def test_malformed_band_exits_66_with_position(tmp_path, capsys):
    base = {"name": "x", "dimension": 4, "einstein_constant": "3"}
    cases = [
        ({"eigenvalue": "4", "multiplicity": 5, "kind": ["gradient"]}, "bands[1].kind"),
        ({"eigenvalue": "4", "multiplicity": 5, "kind": {"k": 1}}, "bands[1].kind"),
        ({"eigenvalue": "4", "multiplicity": 0, "kind": "gradient"}, "bands[1].multiplicity"),
        ({"eigenvalue": "4", "multiplicity": -3, "kind": "gradient"}, "bands[1].multiplicity"),
    ]
    for bad_band, where in cases:
        path = tmp_path / "bad-band.json"
        path.write_text(json.dumps(dict(base, bands=[
            {"eigenvalue": "6", "multiplicity": 10, "kind": "divergence_free"}, bad_band])),
            encoding="utf-8")
        code, out, err = run(capsys, "index", "--spectrum-file", str(path))
        assert code == 66, bad_band
        assert out == ""
        assert where in err


def test_curved_circle_file_exits_66(tmp_path, capsys):
    # Ric vanishes in dimension 1, so lambda = 3 is no Einstein space there
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({
        "name": "x", "dimension": 1, "einstein_constant": "3", "complete_up_to": "6",
        "bands": [{"eigenvalue": "1", "multiplicity": 2, "kind": "gradient"}],
    }), encoding="utf-8")
    code, out, err = run(capsys, "index", "--spectrum-file", str(path), "--strict")
    assert code == 66
    assert out == ""
    assert "the circle is flat; its Einstein constant must be 0, got 3" in err


@pytest.mark.parametrize("field, value", [
    ("dimension", True), ("dimension", 0), ("dimension", "4"),
    ("einstein_constant", "-1"), ("einstein_constant", "1/0"),
])
def test_malformed_space_in_file_exits_66(tmp_path, capsys, field, value):
    path = tmp_path / "bad-space.json"
    doc = {"name": "x", "dimension": 4, "einstein_constant": "3", "bands": []}
    path.write_text(json.dumps(dict(doc, **{field: value})), encoding="utf-8")
    with pytest.raises(ParseError):
        load_spectrum(path)
    code, out, err = run(capsys, "index", "--spectrum-file", str(path))
    assert code == 66
    assert out == ""
    assert "spectrum file error" in err


def test_strict_run_builds_the_validation_before_its_checks(tmp_path, capsys):
    # the band's warning would write the Obata bound 12 lambda/11, past the
    # digit limit: that refusal comes before the missing complete_up_to's exit 2
    argv = _oversized_files(tmp_path)[2]
    assert run(capsys, *argv, "--strict") == (
        64, "", "cbstab: usage error: out of range: a number in the output past 4300 digits\n")


def test_strict_validation_exits_2(tmp_path, capsys):
    violating = tmp_path / "violating.json"
    violating.write_text(json.dumps({
        "name": "below Obata", "dimension": 4, "einstein_constant": "3",
        "complete_up_to": "6",
        "bands": [
            {"eigenvalue": "3", "multiplicity": 5, "kind": "gradient"},
            {"eigenvalue": "6", "multiplicity": 10, "kind": "divergence_free"},
        ],
    }), encoding="utf-8")
    code, out, err = run(capsys, "index", "--spectrum-file", str(violating), "--strict")
    assert code == 2
    assert out == ""
    assert "validation failure" in err

    # same file accepted without --strict, warning lands in the document
    code, out, _ = run(capsys, "index", "--spectrum-file", str(violating))
    assert code == 0
    assert any("Lichnerowicz-Obata" in w for w in json.loads(out)["warnings"])


def test_strict_validation_names_the_first_violation_in_band_order(tmp_path, capsys):
    # a rigidity note at the Obata bound 4, then a divergence-free band below
    # 2*lambda = 6, then a gradient band below the Obata bound
    path = tmp_path / "order.json"
    path.write_text(json.dumps({
        "name": "order", "dimension": 4, "einstein_constant": "3", "complete_up_to": "6",
        "bands": [
            {"eigenvalue": "4", "multiplicity": 1, "kind": "gradient"},
            {"eigenvalue": "5", "multiplicity": 2, "kind": "divergence_free"},
            {"eigenvalue": "3", "multiplicity": 3, "kind": "gradient"},
        ],
    }), encoding="utf-8")
    code, out, err = run(capsys, "index", "--spectrum-file", str(path), "--strict")
    assert (code, out) == (2, "")
    assert err == "cbstab: validation failure: divergence-free band mu=5 below 2*lambda=6\n"


def test_strict_requires_declared_completeness(tmp_path, capsys):
    undeclared = tmp_path / "undeclared.json"
    undeclared.write_text(json.dumps({
        "name": "no bound", "dimension": 4, "einstein_constant": "3",
        "bands": [
            {"eigenvalue": "4", "multiplicity": 5, "kind": "gradient"},
            {"eigenvalue": "6", "multiplicity": 10, "kind": "divergence_free"},
        ],
    }), encoding="utf-8")
    code, _, err = run(capsys, "index", "--spectrum-file", str(undeclared), "--strict")
    assert code == 2
    code, out, _ = run(capsys, "index", "--spectrum-file", str(undeclared))
    assert code == 0
    # the validation warnings, then one completeness warning per functional
    assert json.loads(out)["warnings"] == (
        ["gradient band mu=4 saturates the Obata bound: round sphere only"]
        + ["band list has no declared completeness bound; index/nullity may undercount"] * 3)


def test_declared_bound_below_cutoff_exits_2(tmp_path, capsys):
    short = tmp_path / "short.json"
    short.write_text(json.dumps({
        "name": "short", "dimension": 4, "einstein_constant": "3",
        "complete_up_to": "4",
        "bands": [{"eigenvalue": "4", "multiplicity": 5, "kind": "gradient"}],
    }), encoding="utf-8")
    code, _, err = run(capsys, "index", "--spectrum-file", str(short))
    assert code == 2
    assert "validation failure" in err


def test_declared_bound_is_written_in_lowest_terms(tmp_path, capsys):
    short = tmp_path / "short.json"
    short.write_text(json.dumps({
        "name": "short", "dimension": 4, "einstein_constant": "3",
        "complete_up_to": "22/4",
        "bands": [{"eigenvalue": "4", "multiplicity": 5, "kind": "gradient"}],
    }), encoding="utf-8")
    code, _, err = run(capsys, "index", "--spectrum-file", str(short))
    assert code == 2
    assert err == ("cbstab: validation failure: bands declared complete up to 11/2 "
                   "but contributions extend to 6\n")


def _verify_doc(results):
    failed = sum(not r.passed for r in results)
    return json.dumps({"checks": [vars(r) for r in results], "total": len(results),
                       "failed": failed, "ok": not failed}, indent=2)


@pytest.mark.parametrize("suite", [None, *cbstab.verify.SUITES])
def test_verify_json_is_json_dumps_with_indent(capsys, suite):
    # the verify document is written directly, byte for byte as json.dumps
    # with indent=2 writes it from the same CheckResults
    names = list(cbstab.verify.SUITES) if suite is None else [suite]
    results = cbstab.verify.run_suites(names)
    code, out, _ = run(capsys, "verify", "--suites", ",".join(names), "--format", "json")
    assert code == 0
    assert out == _verify_doc(results) + "\n"


def test_verify_json_writes_each_string_as_json_does(capsys, monkeypatch):
    # quotes, backslashes, control and non-ASCII characters, and a failed check
    checks = [
        ('a "quoted" \\ name', "line\nbreak\ttab", "\u03bc \u2264 2\u03bb on S\u2074",
         "\x00\x1f\x7f", True),
        ("\U0001d4ae failed", "", "\u00e9\ud83d", "exact", False),
    ]
    monkeypatch.setitem(cbstab.verify.SUITES, "tables", lambda family: iter(checks))
    code, out, _ = run(capsys, "verify", "--suites", "tables", "--format", "json")
    assert code == 1
    assert out == _verify_doc([cbstab.verify.CheckResult("tables", *check)
                               for check in checks]) + "\n"
    assert json.loads(out)["ok"] is False
    assert _verify_json([], 0) == _verify_doc([])


def test_numerical_failure_exits_3(capsys, monkeypatch):
    import cbstab.family
    from cbstab.errors import QuadratureFailure

    def starved(*args, **kwargs):
        raise QuadratureFailure("panel budget exhausted")

    # the energy handler imports evaluate_family when it runs
    monkeypatch.setattr(cbstab.family, "evaluate_family", starved)
    code, out, err = run(capsys, "energy", "--dim", "5", "--t", "0.3,1")
    assert code == 3
    assert out == ""  # partial output suppressed
    assert "numerical failure" in err


def test_help_exits_zero(capsys):
    for command in ((), ("index",), ("energy",), ("spectrum",), ("verify",)):
        code, out, err = run(capsys, *command, "--help")
        assert (code, err) == (0, ""), command
        assert out.startswith(" ".join(("usage: cbstab",) + command) + " "), command


# the stderr prefix and exit code main gives each error class; a CbstabError
# class not listed here fails the test below
ERROR_EXITS = {
    cbstab.errors.CbstabError: ("error", 1),
    cbstab.errors.DomainError: ("usage error", 64),
    cbstab.errors.QuadratureFailure: ("numerical failure", 3),
    cbstab.errors.InvalidBand: ("spectrum file error", 66),
    cbstab.errors.IncompleteSpectrum: ("validation failure", 2),
    cbstab.errors.BoundViolation: ("validation failure", 2),
    cbstab.errors.ParseError: ("spectrum file error", 66),
}


def test_each_error_class_exits_with_its_code(capsys, monkeypatch):
    import cbstab.family

    classes = {value for value in vars(cbstab.errors).values()
               if isinstance(value, type) and issubclass(value, cbstab.errors.CbstabError)}
    assert classes == set(ERROR_EXITS)
    for error, (prefix, exit_code) in ERROR_EXITS.items():
        def failing(*args, error=error, **kwargs):
            raise error("raised by the handler")

        # the energy handler imports evaluate_family when it runs
        monkeypatch.setattr(cbstab.family, "evaluate_family", failing)
        code, out, err = run(capsys, "energy", "--dim", "5", "--t", "1")
        assert (code, out, err) == (exit_code, "", f"cbstab: {prefix}: raised by the handler\n"), \
            error.__name__


@pytest.mark.parametrize("option", [("--dim", "4"), ("--lambda", "3")])
def test_spectrum_file_excludes_dim_and_lambda_alone(tmp_path, capsys, option):
    path = tmp_path / "s4.json"
    path.write_text(run(capsys, "spectrum", "--dim", "4")[1], encoding="utf-8")
    code, out, err = run(capsys, "index", "--spectrum-file", str(path), *option)
    assert (code, out) == (64, "")
    assert err == "cbstab: usage error: --spectrum-file excludes --dim/--lambda\n"


def test_verify_text_counts_a_failed_check(capsys, monkeypatch):
    checks = [("first", "1", "1", "exact", True), ("second", "2", "3", "exact", False),
              ("third", "3", "3", "exact", True)]
    monkeypatch.setitem(cbstab.verify.SUITES, "tables", lambda family: iter(checks))
    code, out, _ = run(capsys, "verify", "--suites", "tables")
    assert code == 1
    assert out.splitlines() == [
        "PASS tables/first: expected 1, got 1 (tolerance: exact)",
        "FAIL tables/second: expected 2, got 3 (tolerance: exact)",
        "PASS tables/third: expected 3, got 3 (tolerance: exact)",
        "3 checks: 2 passed, 1 failed",
    ]


# command lines whose outcome _parse must share with the top-level parser:
# valid lines, abbreviations, --opt=value, "--", help, the top-level path,
# repeated options, negative values, type and choice errors, extra arguments
PARSE_CASES = [
    ("index", "--dim", "4"),
    ("index", "--dim", "4", "--lambda", "3", "--functional", "e2c", "--strict"),
    ("index", "--spectrum-file", "s.json", "--functional", "all"),
    ("energy", "--dim", "7", "--t", "0.0123456789", "--format", "json"),
    ("energy", "--dim", "4", "--t", "0.5,1,2"),
    ("spectrum", "--dim", "4", "--lambda", "3", "--up-to", "6"),
    ("spectrum", "--dim", "1"),
    ("verify",),
    ("verify", "--suites", "tables,hessian", "--format", "json"),
    ("index", "--fun", "e", "--di", "4"),
    ("energy", "--di", "5", "--t", "1", "--form", "json"),
    ("verify", "--su", "tables"),
    ("index", "--s", "s.json"),                          # ambiguous abbreviation
    ("energy", "--dim=5", "--t=1,2", "--format=json"),
    ("index", "--lambda=7/3", "--dim=7"),
    ("energy", "--di=5", "--t=1"),
    ("energy", "--dim", "5", "--t", "1", "--"),
    ("energy", "--", "--dim", "5", "--t", "1"),
    ("verify", "--", "tables"),
    ("--", "energy", "--dim", "5", "--t", "1"),
    ("energy", "-h"),
    ("energy", "--help"),
    ("index", "--he"),
    ("spectrum", "-h"),
    ("verify", "--help"),
    ("energy", "--dim", "5", "-h"),
    ("energy", "--dim", "x", "-h"),
    (),
    ("nonsense",),
    ("ener",),
    ("ENERGY",),
    ("",),
    ("-h",),
    ("--help",),
    ("--he",),
    ("-h", "energy"),
    ("--dim", "4", "index"),
    ("energy", "--dim", "4", "--dim", "5", "--t", "1"),
    ("index", "--functional", "e", "--functional", "e2", "--dim", "4"),
    ("verify", "--format", "json", "--format", "text"),
    ("energy", "--dim", "-4", "--t", "1"),
    ("energy", "--dim", "5", "--t", "-1,2"),
    ("index", "--dim", "4", "--lambda", "-3"),
    ("spectrum", "--dim", "4", "--up-to", "-1"),
    ("energy", "--dim", "x", "--t", "1"),
    ("energy", "--dim", "5", "--t", "abc"),
    ("energy", "--dim", "5", "--t", "1", "--format", "xml"),
    ("index", "--functional", "bogus"),
    ("index", "--dim", "4", "--lambda", "3/0"),
    ("spectrum", "--dim", "4", "--format", "csv"),
    ("verify", "--suites", ","),
    ("energy", "--t", "1"),
    ("spectrum",),
    ("energy", "--dim", "5", "--t"),
    ("energy", "--dim", "5", "--t", "1", "extra"),
    ("verify", "tables"),
    ("index", "--dim", "4", "--strict", "--bogus"),
    ("index", "--dim", "4", "energy"),
    ("energy", "--dim", "5", "--t", "1e-3", "-x"),
]


def parse_outcome(parse, argv, capsys):
    """The namespace less `command`, the DomainError's message or the
    SystemExit's code, with what the parse printed."""
    try:
        namespace = parse(list(argv))
    except DomainError as exc:
        outcome = ("error", str(exc))
    except SystemExit as exc:
        outcome = ("exit", exc.code)
    else:
        outcome = ("parsed", {key: value for key, value in vars(namespace).items()
                              if key != "command"})
    return outcome + tuple(capsys.readouterr())


def test_parse_matches_the_top_level_parser(capsys):
    kinds = set()
    for argv in PARSE_CASES:
        got = parse_outcome(_parse, argv, capsys)
        assert got == parse_outcome(build_parser().parse_args, argv, capsys), argv
        kinds.add(got[0])
    assert len(PARSE_CASES) >= 40 and kinds == {"parsed", "error", "exit"}


def count_calls(monkeypatch, module, name):
    """Count calls to module.name through every cbstab binding of it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    rebind_everywhere(monkeypatch, module, name, counted)
    return calls


# name, dimension, einstein_constant, complete_up_to (None: undeclared), bands
# and the exit code of a strict run, of the spectrum files whose `index`
# documents are checked against json.dumps
WRITER_FILES = {
    # a rigidity note, a violation and a row past the cut
    'p"a\\th \u00f1\u2211\x01': ('q"uote \\ \u00f1 \u2211 \x07 \u2028', 4, "3", "6",
                             [("4", 5, "gradient"), ("6", 10, "divergence_free"),
                              ("9/2", 1, "divergence_free"), ("11", 3, "gradient")], 2),
    # no warnings; no band at 2*lambda = 10, so the bienergy report lists none
    "clean": ("clean", 6, "5", "10", [("7", 2, "gradient"), ("23/2", 1, "gradient")], 0),
    "empty-declared": ("no bands", 5, "4", "8", [], 0),
    # one completeness warning per functional
    "empty-undeclared": ("no bands, undeclared", 5, "4", None, [], 2),
    # a rigidity note and a violation, then the completeness warnings
    "undeclared": ("undeclared", 4, "3", None,
                   [("4", 1, "gradient"), ("5", 2, "divergence_free")], 2),
}
WRITER_KINDS = {"e": [Functional.ENERGY], "e2": [Functional.BIENERGY],
                "e2c": [Functional.CONFORMAL_BIENERGY], "all": list(Functional)}


def index_document_reference(path, functional, strict, loaded=None):
    """The `index` document of the spectrum file at `path`, or of the
    closed-form sphere `loaded`, as json.dumps(doc, indent=2) prints it."""
    if loaded is None:
        loaded = load_spectrum(path, strict=strict)
    space = loaded.space
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reports = index_reports(space, loaded.bands, WRITER_KINDS[functional],
                                complete_up_to=loaded.complete_up_to)
    doc = {
        "space": {"name": space.name, "dimension": space.dimension,
                  "einstein_constant": str(space.einstein_constant),
                  "scalar_curvature": str(space.scalar_curvature)},
        "source": {"origin": "file", "path": loaded.path} if loaded.path is not None else
                  {"origin": "closed_form_sphere", "dimension": space.dimension,
                   "einstein_constant": str(space.einstein_constant)},
        "strict": strict,
        "complete_up_to": None if loaded.complete_up_to is None else str(loaded.complete_up_to),
        "warnings": list(loaded.validation.warnings) + [str(w.message) for w in caught],
        "reports": [{"functional": report.functional.value, "index": report.index,
                     "nullity": report.nullity,
                     "contributing_bands": [
                         {"eigenvalue": str(band.eigenvalue), "multiplicity": band.multiplicity,
                          "kind": band.kind.value, "jacobi_eigenvalue": str(jacobi)}
                         for band, jacobi in report.contributing_bands]}
                    for report in reports],
    }
    return json.dumps(doc, indent=2) + "\n"


def test_index_writer_matches_json_dumps_on_files(tmp_path, capsys):
    seen = set()
    for stem, (name, dimension, lam, declared, bands, strict_code) in WRITER_FILES.items():
        doc = {"name": name, "dimension": dimension, "einstein_constant": lam,
               "bands": [{"eigenvalue": e, "multiplicity": n, "kind": k} for e, n, k in bands]}
        if declared is not None:
            doc["complete_up_to"] = declared
        path = tmp_path / f"{stem}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for functional in WRITER_KINDS:
            for strict in (False, True):
                argv = ["index", "--spectrum-file", str(path), "--functional", functional]
                code, out, err = run(capsys, *argv, *(["--strict"] if strict else []))
                if strict and strict_code:
                    assert (code, out) == (strict_code, ""), (stem, functional)
                    continue
                assert (code, err) == (0, ""), (stem, functional, strict)
                assert out == index_document_reference(path, functional, strict)
                printed = json.loads(out)
                seen.add(("warnings", bool(printed["warnings"])))
                seen.add(("strict", printed["strict"]))
                seen.update(("listed", bool(report["contributing_bands"]))
                            for report in printed["reports"])
    assert seen == {(key, value) for key in ("warnings", "strict", "listed")
                    for value in (False, True)}


@pytest.mark.parametrize("m, lam", [(m, None) for m in range(1, 13)] + [(7, "7/3")],
                         ids=[f"S^{m}" for m in range(1, 13)] + ["S^7 lambda=7/3"])
def test_index_writer_matches_json_dumps_on_builtin_spheres(capsys, m, lam):
    for functional in WRITER_KINDS:
        for strict in (False, True):
            argv = ["index", "--dim", str(m), "--functional", functional]
            argv += ["--lambda", lam] if lam is not None else []
            code, out, err = run(capsys, *argv, *(["--strict"] if strict else []))
            assert code == 0, (functional, strict, err)
            sphere = builtin_spectrum(m, lam, WRITER_KINDS[functional])
            assert out == index_document_reference(None, functional, strict, sphere)


def test_index_cost_counters(tmp_path, capsys, monkeypatch):
    # duplicates, a violation, a rigidity note and exact hits on both roots
    # (2*lambda = 6 and c = 4 on S^4)
    bands = [("3", 2, "gradient"), ("4", 5, "gradient"), ("8/2", 1, "gradient"),
             ("5", 3, "divergence_free"), ("6", 10, "divergence_free"), ("12/2", 4, "gradient"),
             ("9", 7, "gradient"), ("6", 1, "divergence_free")]
    path = tmp_path / "counted.json"
    path.write_text(json.dumps({
        "name": "counted", "dimension": 4, "einstein_constant": "3",
        "bands": [{"eigenvalue": e, "multiplicity": n, "kind": k} for e, n, k in bands],
    }), encoding="utf-8")
    # the one row validator behind validate_spectrum, which a file load and a
    # built-in sphere both call directly
    validations = count_calls(monkeypatch, cbstab.core, "_validate_rows")
    jacobi = count_calls(monkeypatch, cbstab.core, "jacobi_eigenvalue")
    for argv in (["--spectrum-file", str(path)], ["--dim", "4"], ["--dim", "4", "--strict"]):
        validations.clear()
        jacobi.clear()
        code, out, _ = run(capsys, "index", *argv, "--functional", "all")
        assert code == 0, argv
        reports = json.loads(out)["reports"]
        assert len(validations) == 1, argv
        assert sum(len(r["contributing_bands"]) for r in reports) > 0
        # index_reports takes each reported Jacobi eigenvalue from its integer
        # sign product; test_root_counting_matches_brute_force checks the values
        assert len(jacobi) == 0, argv


def test_parser_built_once_and_reused(capsys, monkeypatch):
    import cbstab.cli

    assert build_parser() is not build_parser()  # still a fresh parser per call
    run(capsys, "energy", "--dim", "4", "--t", "1")
    monkeypatch.setattr(cbstab.cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    # a command word goes straight to the shared parser's own subparser
    energy = cbstab.cli._shared_parser().commands["energy"]
    calls = []
    parse_args = cbstab.cli._Parser.parse_args

    def recorded(self, args=None, namespace=None):
        calls.append((self, args))
        return parse_args(self, args, namespace)

    monkeypatch.setattr(cbstab.cli._Parser, "parse_args", recorded)
    for _ in range(2):
        code, _, err = run(capsys, "energy", "--dim", "1", "--t", "1")
        assert code == 64 and "usage error" in err
    assert calls == [(energy, ["--dim", "1", "--t", "1"])] * 2


def test_missing_band_field_is_hash_seed_independent(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "dimension": 4, "einstein_constant": "3",
                                "bands": [{"kind": "gradient"}]}), encoding="utf-8")
    stderrs = set()
    for seed in ("0", "1"):  # these two named different fields before the fix
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=PACKAGE_PARENT)
        proc = subprocess.run([sys.executable, "-m", "cbstab.cli", "index",
                               "--spectrum-file", str(path)],
                              env=env, capture_output=True, text=True, encoding="utf-8", timeout=60)
        assert proc.returncode == 66
        stderrs.add(proc.stderr)
    assert len(stderrs) == 1
    assert "missing required field 'eigenvalue'" in stderrs.pop()


def test_builtin_output_is_byte_identical(capsys):
    """sha256 of each command line's stdout.

    The documents are part of the CLI contract, so a digest may change only
    with an intended output change.  The `index` and `spectrum` documents
    are exact.  The `energy` and `verify` documents print floats that go
    through the platform libm's `exp`, `log` and `sinh`, which are not
    correctly rounded, so their pins hold for the libm they were recorded
    with (glibc 2.36, Debian 12) and may move by a last bit on another.
    """
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                        "builtin_cli_digests.json")
    with open(path, encoding="utf-8") as handle:
        digests = json.load(handle)
    # an explicit lambda of m - 1 prints the unit sphere's document
    digests["index --dim 4 --lambda 3 --functional all"] = digests["index --dim 4 --functional all"]
    digests["index --dim 2 --lambda 1 --functional e2c"] = digests["index --dim 2 --functional e2c"]
    changed = []
    for command, digest in digests.items():
        code, out, _ = run(capsys, *command.split())
        assert code == 0, command
        got = hashlib.sha256(out.encode("utf-8")).hexdigest()
        if got != digest:
            changed.append(f"{command!r}: pinned {digest}, got {got}")
    # a changed document is named with the digest this platform gave, to be
    # recorded if only the libm moved it
    assert not changed, "\n".join([f"{len(changed)} of {len(digests)} digests changed:",
                                   *changed])


@pytest.mark.parametrize("sphere, up_to", [(("--dim", "12"), "4000"),
                                           (("--dim", "7", "--lambda", "7/3"), "200")],
                         ids=["S^12", "S^7 lambda=7/3"])
def test_many_band_file_counts_as_the_builtin_sphere(tmp_path, capsys, sphere, up_to):
    # most bands lie past the cutoff; a rational lambda's rows share the
    # unreduced denominator 3*(m - 1)
    path = tmp_path / "many.json"
    code, dump, _ = run(capsys, "spectrum", *sphere, "--up-to", up_to)
    assert code == 0
    path.write_text(dump, encoding="utf-8")
    code, from_file, _ = run(capsys, "index", "--spectrum-file", str(path), "--strict")
    assert code == 0
    _, builtin, _ = run(capsys, "index", *sphere)
    from_file, builtin = json.loads(from_file), json.loads(builtin)
    for key in ("reports", "warnings"):
        assert from_file[key] == builtin[key], key


def test_strict_builtin_and_file_list_the_same_warnings(tmp_path, capsys):
    path = tmp_path / "s4.json"
    _, dump, _ = run(capsys, "spectrum", "--dim", "4")
    path.write_text(dump, encoding="utf-8")
    code, builtin, _ = run(capsys, "index", "--dim", "4", "--strict")
    assert code == 0
    _, from_file, _ = run(capsys, "index", "--spectrum-file", str(path), "--strict")
    _, lenient, _ = run(capsys, "index", "--dim", "4")
    warnings = json.loads(builtin)["warnings"]
    assert any("Obata" in w for w in warnings)
    assert warnings == json.loads(from_file)["warnings"] == json.loads(lenient)["warnings"]
    # and the help says so
    _, usage, _ = run(capsys, "index", "--help")
    assert ("--strict exit 2 on a bound violation or a spectrum file without complete_up_to, "
            "and 66 on unknown file fields; rigidity notes stay warnings") in " ".join(usage.split())

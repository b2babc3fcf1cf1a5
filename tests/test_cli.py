import hashlib
import json
import math
import os
import subprocess
import sys

import pytest

import cbstab.core
from cbstab.cli import build_parser, main

PI = math.pi


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_map(doc):
    return {r["functional"]: (r["index"], r["nullity"]) for r in doc["reports"]}


def test_index_s4_all_functionals(capsys):
    code, out, err = run(capsys, "index", "--dim", "4", "--lambda", "3",
                         "--functional", "all")
    assert code == 0
    doc = json.loads(out)
    assert report_map(doc) == {"energy": (5, 10), "bienergy": (0, 10),
                               "c_bienergy": (0, 15)}
    assert doc["space"]["scalar_curvature"] == "12"


def test_index_unit_sphere_default_lambda(capsys):
    code, out, _ = run(capsys, "index", "--dim", "9", "--functional", "e2c")
    assert code == 0
    assert report_map(json.loads(out)) == {"c_bienergy": (10, 45)}


def test_index_s2_e2c(capsys):
    code, out, _ = run(capsys, "index", "--dim", "2", "--lambda", "1",
                       "--functional", "e2c")
    assert code == 0
    assert report_map(json.loads(out)) == {"c_bienergy": (0, 6)}


def test_index_circle(capsys):
    code, out, _ = run(capsys, "index", "--dim", "1", "--functional", "all")
    assert code == 0
    assert report_map(json.loads(out)) == {"energy": (0, 1), "bienergy": (0, 1),
                                           "c_bienergy": (0, 1)}


def test_index_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "index", "--dim", "6", "--functional", "all")
    _, second, _ = run(capsys, "index", "--dim", "6", "--functional", "all")
    assert first == second


def test_spectrum_dump(capsys):
    code, out, _ = run(capsys, "spectrum", "--dim", "4", "--lambda", "3",
                       "--up-to", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 4
    assert doc["einstein_constant"] == "3"
    assert doc["complete_up_to"] == "6"
    assert doc["bands"] == [
        {"eigenvalue": "4", "multiplicity": 5, "kind": "gradient"},
        {"eigenvalue": "6", "multiplicity": 10, "kind": "divergence_free"},
    ]


def test_spectrum_circle(capsys):
    code, out, _ = run(capsys, "spectrum", "--dim", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["einstein_constant"] == "0"
    assert doc["bands"][0] == {"eigenvalue": "0", "multiplicity": 1,
                               "kind": "divergence_free"}


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


def test_energy_csv(capsys):
    code, out, _ = run(capsys, "energy", "--dim", "4", "--t", "0.5,1,2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,energy,energy_error,bienergy,bienergy_error,c_bienergy,c_bienergy_error"
    assert len(lines) == 4
    target = 32.0 * PI ** 2 / 3.0
    for line in lines[1:]:
        c_bienergy = float(line.split(",")[5])
        assert c_bienergy == pytest.approx(target, rel=1e-9)


def test_energy_json_identity_values(capsys):
    code, out, _ = run(capsys, "energy", "--dim", "5", "--t", "1", "--format", "json")
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["c_bienergy"] == pytest.approx(40.0 * PI ** 3 / 3.0, rel=1e-10)
    assert abs(row["bienergy"]) <= 1e-12


def test_energy_deterministic(capsys):
    _, first, _ = run(capsys, "energy", "--dim", "5", "--t", "0.7,1.3", "--format", "json")
    _, second, _ = run(capsys, "energy", "--dim", "5", "--t", "0.7,1.3", "--format", "json")
    assert first == second


def test_usage_errors_exit_64(capsys):
    cases = [
        ("energy", "--dim", "5", "--t", "1e9"),           # t out of range
        ("energy", "--dim", "5", "--t", "abc"),
        ("energy", "--dim", "1", "--t", "1"),             # family needs m >= 2
        ("index",),                                        # no source
        ("index", "--dim", "4", "--lambda", "0"),          # lambda must be positive
        ("index", "--dim", "1", "--lambda", "2"),          # circle is flat
        ("index", "--dim", "4", "--spectrum-file", "x", "--lambda", "3"),
        ("index", "--dim", "4", "--lambda", "3/0"),
        ("verify", "--suites", "nonsense"),
        ("nonsense",),
    ]
    for argv in cases:
        code, out, err = run(capsys, *argv)
        assert code == 64, argv
        assert out == ""
        assert err


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
    # one completeness warning per functional
    assert sum("completeness" in w for w in json.loads(out)["warnings"]) == 3


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


def test_verify_tables_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suites", "tables")
    assert code == 0
    assert "0 failed" in out
    assert out.count("FAIL") == 0


def test_verify_json_format(capsys):
    code, out, _ = run(capsys, "verify", "--suites", "tables,epsilon",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["failed"] == 0
    assert doc["total"] == len(doc["checks"])
    assert {c["suite"] for c in doc["checks"]} == {"tables", "epsilon"}
    for check in doc["checks"]:
        assert set(check) == {"suite", "name", "expected", "got", "tolerance", "passed"}


def test_numerical_failure_exits_3(capsys, monkeypatch):
    import cbstab.cli
    from cbstab.errors import QuadratureFailure

    def starved(*args, **kwargs):
        raise QuadratureFailure("panel budget exhausted")

    monkeypatch.setattr(cbstab.cli, "evaluate_family", starved)
    code, out, err = run(capsys, "energy", "--dim", "5", "--t", "0.3,1")
    assert code == 3
    assert out == ""  # partial output suppressed
    assert "numerical failure" in err


def test_index_reports_source(capsys, tmp_path):
    code, out, _ = run(capsys, "index", "--dim", "4", "--functional", "e")
    assert code == 0
    doc = json.loads(out)
    assert doc["source"] == {"origin": "closed_form_sphere", "dimension": 4,
                             "einstein_constant": "3"}
    path = tmp_path / "s4.json"
    code, dump, _ = run(capsys, "spectrum", "--dim", "4")
    path.write_text(dump, encoding="utf-8")
    code, out, _ = run(capsys, "index", "--spectrum-file", str(path))
    assert code == 0
    assert json.loads(out)["source"] == {"origin": "file", "path": str(path)}


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0


def count_calls(monkeypatch, module, name):
    """Count calls to module.name through every cbstab binding of it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "cbstab" or mod_name.startswith("cbstab."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


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
    validations = count_calls(monkeypatch, cbstab.core, "validate_spectrum")
    jacobi = count_calls(monkeypatch, cbstab.core, "jacobi_eigenvalue")
    for argv in (["--spectrum-file", str(path)], ["--dim", "4"], ["--dim", "4", "--strict"]):
        validations.clear()
        jacobi.clear()
        code, out, _ = run(capsys, "index", *argv, "--functional", "all")
        assert code == 0, argv
        reports = json.loads(out)["reports"]
        assert len(validations) == 1, argv
        contributing = sum(len(r["contributing_bands"]) for r in reports)
        assert contributing > 0
        assert len(jacobi) == contributing, argv


def test_parser_built_once_and_reused(capsys, monkeypatch):
    import cbstab.cli

    assert build_parser() is not build_parser()  # still a fresh parser per call
    run(capsys, "energy", "--dim", "4", "--t", "1")
    monkeypatch.setattr(cbstab.cli, "build_parser", lambda: pytest.fail("parser rebuilt"))
    code, _, err = run(capsys, "energy", "--dim", "1", "--t", "1")
    assert code == 64 and "usage error" in err


def test_missing_band_field_is_hash_seed_independent(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "x", "dimension": 4, "einstein_constant": "3",
                                "bands": [{"kind": "gradient"}]}), encoding="utf-8")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    stderrs = set()
    for seed in ("0", "1"):  # these two named different fields before the fix
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "cbstab.cli", "index",
                               "--spectrum-file", str(path)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 66
        stderrs.add(proc.stderr)
    assert len(stderrs) == 1
    assert "missing required field 'eigenvalue'" in stderrs.pop()


def test_builtin_output_is_byte_identical(capsys):
    # sha256 of each command line's stdout: the documents are part of the CLI
    # contract, so a digest may change only with an intended output change
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                        "builtin_cli_digests.json")
    with open(path, encoding="utf-8") as handle:
        digests = json.load(handle)
    changed = []
    for command, digest in digests.items():
        code, out, _ = run(capsys, *command.split())
        assert code == 0, command
        if hashlib.sha256(out.encode("utf-8")).hexdigest() != digest:
            changed.append(command)
    assert changed == []


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

"""What README promises of the package: no runtime dependencies, a
Library example that runs, lazy exports, and a CLI that loads only the
modules each subcommand runs."""

import ast
import dataclasses
import importlib
import json
import os
import re
import subprocess
import sys

import pytest

import cbstab
import cbstab.cli
import cbstab.verify

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# the package under test, in the checkout's src/ or wherever it is installed
SOURCE = os.path.dirname(os.path.abspath(cbstab.__file__))

SPECTRUM = {"name": "x", "dimension": 4, "einstein_constant": "3", "complete_up_to": "6",
            "bands": [{"eigenvalue": "4", "multiplicity": 5, "kind": "gradient"}]}
# the cbstab, json and exact-arithmetic modules a fresh interpreter holds
# after each statement or CLI run; the CLI's JSON writers need no json module
# of their own, the family's floats need no fractions, and no row loads
# typing, which is tracked too
CLI = {"cbstab", "cbstab.cli", "cbstab.errors"}
JSON = {"json", "json.decoder", "json.encoder", "json.scanner"}
EXACT = {"fractions", "decimal", "numbers"}
CORE = {"cbstab", "cbstab.errors", "cbstab.core"} | EXACT
ENGINE = CLI | JSON | CORE | {"cbstab.spectra"}
# (id, statement, argv, expected): a row runs its statement, or cbstab.cli.main(argv)
MODULE_SETS = [
    ("import cbstab", "import cbstab", None, {"cbstab"}),
    ("import cbstab.cli", "import cbstab.cli", None, CLI),
    ("cbstab.core", "import cbstab; cbstab.core", None, CORE),
    ("energy", None, ["energy", "--dim", "5", "--t", "1"], CLI | {"cbstab.family"}),
    ("energy --format json", None, ["energy", "--dim", "5", "--t", "1", "--format", "json"],
     CLI | {"cbstab.family"}),
    ("index --dim", None, ["index", "--dim", "5"], ENGINE),
    ("index --spectrum-file", None, ["index", "--spectrum-file", "{spectrum}"], ENGINE),
    ("spectrum", None, ["spectrum", "--dim", "4"], ENGINE),
    ("verify", None, ["verify"], ENGINE | {"cbstab.family", "cbstab.verify"}),
]
# prints [exit code or null, sorted tracked modules] and drops the CLI's
# stdout; json is imported only to print them
PROBE = """
import contextlib, io, sys
sys.path.insert(0, {src!r})
argv = {argv!r}
code = None
if argv is None:
    {statement}
else:
    import cbstab.cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = cbstab.cli.main(argv)
tracked = ("cbstab", "json", "fractions", "decimal", "numbers", "typing")
loaded = sorted(m for m in sys.modules if m.split(".")[0] in tracked)
import json
print(json.dumps([code, loaded]))
"""


def test_runtime_imports_only_the_standard_library():
    foreign = []
    for filename in sorted(os.listdir(SOURCE)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(SOURCE, filename), encoding="utf-8") as handle:
            tree = ast.parse(handle.read(), filename)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "cbstab" and top not in sys.stdlib_module_names:
                    foreign.append(f"{filename}:{node.lineno} {name}")
    assert not foreign


def test_readme_library_example_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    section = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


@pytest.mark.parametrize("statement, argv, expected", [m[1:] for m in MODULE_SETS],
                         ids=[m[0] for m in MODULE_SETS])
def test_fresh_interpreter_loads_only_what_it_runs(tmp_path, statement, argv, expected):
    if argv is not None:
        path = tmp_path / "spectrum.json"
        path.write_text(json.dumps(SPECTRUM), encoding="utf-8")
        argv = [arg.format(spectrum=path) for arg in argv]
    probe = PROBE.format(src=os.path.dirname(SOURCE), argv=argv, statement=statement or "pass")
    # -S: site's .pth files may import typing before the probe starts
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", probe], capture_output=True,
                          text=True, encoding="utf-8", timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    assert code in (None, 0), proc.stderr
    assert set(modules) == expected


def test_each_export_is_its_home_module_object():
    for name in cbstab.__all__:
        home = importlib.import_module(f"cbstab.{cbstab._HOME[name]}")
        value = getattr(cbstab, name)
        assert value is getattr(home, name)
        assert getattr(value, "__module__", home.__name__) == home.__name__, name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from cbstab import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(cbstab.__all__)
    assert all(namespace[name] is getattr(cbstab, name) for name in namespace)


def test_dir_lists_the_exports_and_the_submodules():
    listed = set(dir(cbstab))
    assert set(cbstab.__all__) <= listed
    assert {"__version__", "core", "errors", "family", "spectra"} <= listed


def test_each_fact_has_one_public_path():
    # the warnings live on `validation`, a clean report has first_violation
    # None, the ladder's budget is family's own, not a package export, and a
    # contribution cutoff is core._cutoffs' alone
    assert not hasattr(cbstab.LoadedSpectrum, "warnings")
    # a spectrum's report is derived from its rows, never stored beside them
    assert "validation" not in {f.name for f in dataclasses.fields(cbstab.LoadedSpectrum)}
    # a missing field is a ParseError like any other
    assert not hasattr(cbstab.errors, "MissingField")
    assert not hasattr(cbstab.SpectrumValidation, "ok")
    assert all(field.default is dataclasses.MISSING
               for field in dataclasses.fields(cbstab.IndexReport))
    assert "QuadratureConfig" not in cbstab.__all__
    assert not hasattr(cbstab.family, "DEFAULT_CONFIG")
    assert "contribution_cutoff" not in cbstab.__all__
    assert not hasattr(cbstab.core, "contribution_cutoff")
    # epsilon_schedule's certificate type is family's own, not a package export
    assert "EpsilonCertificate" not in cbstab.__all__
    assert isinstance(cbstab.epsilon_schedule(5, 0.1)[1], cbstab.family.EpsilonCertificate)


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        cbstab.no_such_name


def test_cli_suite_names_are_the_verify_suites():
    # verify --help lists the suites without importing cbstab.verify
    assert cbstab.cli._SUITE_NAMES == tuple(cbstab.verify.SUITES)

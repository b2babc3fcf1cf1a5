"""What README promises of the package: no runtime dependencies, and a
Library example that runs."""

import ast
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "src", "cbstab")


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

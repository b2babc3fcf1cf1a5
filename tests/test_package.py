"""The runtime is the standard library: README promises no runtime dependencies."""

import ast
import os
import sys

SOURCE = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "src", "cbstab")


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

"""The example scripts import only names the package still provides.

Nothing runs the scripts in the test suite, so this parses each one and
resolves every ``from ptcor[.module] import name`` against the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def ptcor_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module \
                and (node.module == "ptcor" or node.module.startswith("ptcor.")):
            for alias in node.names:
                yield node.module, alias.name


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_imports_resolve(path):
    for module, name in ptcor_imports(path):
        assert hasattr(importlib.import_module(module), name), f"{path.name}: {module}.{name}"

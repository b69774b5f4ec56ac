"""Import layering: the operator modules never reach the oracles or the runner,
and the twist side (chiral) never imports the deformation side.

The two schemes meet only in ``suites``, so no code they share can make the
equivalence checks compare an operator with itself.  Imports are read from
each module's syntax tree, at module level and inside functions alike.
"""

import ast
from pathlib import Path

import pytest

import fockdeform

PACKAGE = Path(fockdeform.__file__).parent
OPERATOR_MODULES = ("grids", "inner", "fock", "deformation", "chiral")
UPPER_MODULES = {"dense", "suites", "cliconfig", "cli"}


def imported_modules(source: str) -> set[str]:
    """The package modules that a module with this source imports anywhere."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            prefix = node.module if node.level == 0 else ".".join(
                filter(None, ("fockdeform", node.module)))
            names.update(f"{prefix}.{alias.name}" for alias in node.names)
    return {name.split(".")[1] for name in names if name.startswith("fockdeform.")}


def module_imports(module: str) -> set[str]:
    return imported_modules((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", OPERATOR_MODULES)
def test_operator_modules_import_no_oracle_or_runner(module):
    assert not module_imports(module) & UPPER_MODULES


def test_chiral_does_not_import_deformation():
    assert module_imports("chiral") == {"fock", "grids", "inner"}


def test_imports_inside_functions_are_seen():
    """The walk reaches a lazy import, in every spelling the package could use."""
    source = ("def f():\n    from .dense import LOWER\n"
              "def g():\n    from . import suites\n"
              "import fockdeform.cli\nfrom fockdeform import cliconfig\n"
              "from .deformation import KernelSpec\nimport numpy\n")
    assert imported_modules(source) == {"dense", "suites", "cli", "cliconfig", "deformation"}

"""Reachability: every function of the package is entered by the ``verify`` CLI.

Code that the CLI does not need is deleted, not kept "just in case".  ``cli.main`` runs
in process under a profile hook on the default config and on one that sets every key,
and every ``def`` of the package's source (read from its syntax tree, nested ones
included) must be entered, except the names of ``UNREACHED``.
"""

import ast
import json
import sys
from pathlib import Path

import fockdeform
from fockdeform import cli, suites

PACKAGE = Path(fockdeform.__file__).parent
UNREACHED = {
    ("cli", "console_main"),  # the console-script entry, which calls main
    # held by the benchmark tracer's groups until they are retired
    ("deformation", "kernel"),
    ("dense", "operator_matrix"),
}
EVERY_KEY = {
    "tolerance": 1e-10, "seed": 3, "truncation": 2, "root_count": 2,
    "roots": [{"zeros": [[0.5, 1.0], [-0.5, 1.0]], "sign": -1,
               "flips": [[0.3, 0.9], [-0.9, -0.3]]},
              {"zeros": [[0.0, 2.0]]}],
    "ratio_roots": [{"zeros": [[1.0, 0.5], [-1.0, 0.5]], "flips": [[1.3, 2.1], [-2.1, -1.3]]},
                    {"zeros": [[1.0, 0.5], [-1.0, 0.5]]}],
    "suites": list(suites.SUITE_NAMES),
    "massless_grid": {"points_per_side": 2, "p_min": 0.5, "p_max": 2.0},
    "massive_grid": {"mass": 2.0, "size": 4, "theta_min": -1.0, "theta_max": 1.0},
}


def defined() -> set[tuple[str, str, int]]:
    """(module, name, first line) of every def of the package, the first line being that of
    its first decorator, as in the code object's ``co_firstlineno``."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                out.add((path.stem, node.name, first))
    return out


def entered(*argvs) -> set[tuple[str, str, int]]:
    """(module, name, first line) of every package function that ``cli.main`` enters on
    each of ``argvs``, which must exit 0.  The package's caches are emptied first, so a
    table that earlier tests built is built again."""
    for module in [m for name, m in sys.modules.items() if name.startswith("fockdeform.")]:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    sys.setprofile(profile)
    try:
        exits = [cli.main(argv) for argv in argvs]
    finally:
        sys.setprofile(None)
    assert exits == [0] * len(argvs)
    return {(Path(c.co_filename).stem, c.co_name, c.co_firstlineno) for c in codes
            if Path(c.co_filename).parent == PACKAGE}


def test_the_cli_enters_every_function_of_the_package(tmp_path):
    argvs = []
    for name, doc in (("default", {}), ("every-key", EVERY_KEY)):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        argvs.append(["--config", str(config), "--report", str(tmp_path / f"{name}-report.json")])
    never = {(module, name) for module, name, _ in defined() - entered(*argvs)}
    assert never == UNREACHED

"""Import contract of the package, read from its source by an AST scan.

* The runtime depends on numpy alone: every module imports only the
  standard library, numpy and bernprim itself.
* The quadrature oracles import nothing from the rest of bernprim, so
  their agreement with the Bernstein construction means something.
* The package exports all of core's __all__ and eight named expr and
  quadrature entries, each as its defining module's object.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bernprim"
MODULES = sorted(PACKAGE.glob("*.py"))


def imports(path: Path) -> list[tuple[int, str]]:
    """(level, module) for each import in the file, nested ones included; level 0 is absolute."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.extend((0, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.append((node.level, node.module or ""))
    return found


def test_the_scan_sees_the_package():
    assert {"core.py", "quadrature.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_stdlib_numpy_and_the_package(path):
    allowed = sys.stdlib_module_names | {"numpy", "bernprim"}
    absolute = [module for level, module in imports(path) if level == 0]
    assert [module for module in absolute if module.split(".")[0] not in allowed] == []


def test_quadrature_imports_nothing_of_bernprim():
    found = imports(PACKAGE / "quadrature.py")
    assert [module for level, module in found if level > 0] == []
    assert [module for _, module in found if module.split(".")[0] == "bernprim"] == []


EXPR_NAMES = ("ParseError", "eval_ast", "parse", "to_real_function", "to_text")
QUADRATURE_NAMES = ("central_difference", "riemann_sum", "simpson")


def test_the_package_exports_core_and_the_named_entries():
    import bernprim
    from bernprim import core, expr, quadrature

    exported = bernprim.__all__
    assert len(set(exported)) == len(exported)
    assert sorted(exported) == sorted([*core.__all__, *EXPR_NAMES, *QUADRATURE_NAMES])
    homes = {
        **dict.fromkeys(core.__all__, core),
        **dict.fromkeys(EXPR_NAMES, expr),
        **dict.fromkeys(QUADRATURE_NAMES, quadrature),
    }
    for name in exported:
        assert getattr(bernprim, name) is getattr(homes[name], name), name

"""Layering of ``src/iflt``: a module uses another's public names only.

A name with a leading underscore is private to the module that defines it,
so ``from .<module> import _<name>`` anywhere in the package is a layering
fault: the helper belongs in the importing module, or is public.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "iflt"


def private_imports(src: Path = SRC) -> list[str]:
    """``file:line: from .module import _name`` for every such import under ``src``."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}:{node.lineno}: from {'.' * node.level}{node.module or ''}"
                          f" import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name_of_another():
    assert list(SRC.glob("*.py"))  # the package is where the test looks
    assert private_imports() == []

"""No decagon module imports an underscore-prefixed name from another
decagon module: a name that another module needs is public."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "decagon"


def _private_imports():
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] != "decagon":
                continue
            for name in module.split(".") + [a.name for a in node.names]:
                if name.startswith("_"):
                    yield f"{path.relative_to(SRC)}:{node.lineno} imports {name}"


def test_no_module_imports_a_private_name_from_another():
    assert list(_private_imports()) == []

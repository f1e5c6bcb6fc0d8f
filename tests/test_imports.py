"""Module boundaries the code relies on, checked on the parsed source.

No decagon module imports an underscore-prefixed name from another
decagon module: a name that another module needs is public.  Only
``functors.apply_obj`` calls the trusted ``FinSet._raw`` and
``Subset._raw``, which skip the sort: every other carrier, user input
included, is sorted by ``FinSet``, and every other subset by ``Subset``.
Only ``report.compare`` pauses and resumes the cycle collector.  Only
``elements`` names its intern tables and its order-key memo, so their
layout is decided in one module.
And every top-level function and class is referenced somewhere in the
package outside its own definition, or wrapped by the benchmark's tracer.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "decagon"


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


def _uses(paths, owner: str, attrs: set[str], module: str, function: str):
    """Every ``owner.attr`` in ``paths``, as (place, inside the top-level
    ``function`` of ``module``)."""
    for path in paths:
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path == SRC / module:
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == function:
                    allowed = {id(n) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr in attrs
                    and isinstance(node.value, ast.Name) and node.value.id == owner):
                yield f"{path.relative_to(ROOT)}:{node.lineno}", id(node) in allowed


SOURCES_AND_TESTS = sorted(SRC.rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _only_apply_obj_calls_raw(owner: str):
    uses = list(_uses(SOURCES_AND_TESTS, owner, {"_raw"}, "functors.py", "apply_obj"))
    assert any(inside for _, inside in uses)  # the check sees apply_obj's calls
    assert [place for place, inside in uses if not inside] == []


def test_only_apply_obj_skips_the_carrier_sort():
    _only_apply_obj_calls_raw("FinSet")


def test_only_apply_obj_skips_the_subset_sort():
    _only_apply_obj_calls_raw("Subset")


def test_only_compare_pauses_the_cycle_collector():
    uses = list(_uses(sorted(SRC.rglob("*.py")), "gc", {"disable", "enable"},
                      "report.py", "compare"))
    assert sum(inside for _, inside in uses) == 2  # the check sees the pause
    assert [place for place, inside in uses if not inside] == []


def _name(node) -> str | None:
    """The name a node mentions: a name, an attribute or an imported name."""
    return (node.id if isinstance(node, ast.Name) else node.attr
            if isinstance(node, ast.Attribute) else node.name
            if isinstance(node, ast.alias) else None)


_ELEMENT_TABLES = {"_KEY_CACHE", "_PAIRS", "_ORDER_KEYS"}


def test_only_elements_names_the_intern_tables():
    def names(path):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if _name(node) in _ELEMENT_TABLES:
                yield f"{path.relative_to(SRC)}:{node.lineno} {_name(node)}"

    assert {n.rsplit(" ", 1)[1] for n in names(SRC / "elements.py")} == _ELEMENT_TABLES
    assert [n for path in sorted(SRC.rglob("*.py")) if path != SRC / "elements.py"
            for n in names(path)] == []


def _traced_functions() -> set[str]:
    """The function names the benchmark's tracer wraps by name."""
    spec = importlib.util.spec_from_file_location("bench_tracer", ROOT / "bench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {fname for _, _, fname in module.SPANS + module.COUNTERS}


def _unreferenced_definitions():
    """Top-level functions and classes whose name occurs nowhere in the
    package (as a name, an attribute or an imported name, exports in an
    ``__init__.py`` included) outside their own definition."""
    defs, refs = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defs += [(path, node) for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        for node in ast.walk(tree):
            name = _name(node)
            if name is not None:
                refs.append((name, path, id(node)))
    for path, node in defs:
        own = {id(n) for n in ast.walk(node)}
        if not any(name == node.name and not (where == path and at in own)
                   for name, where, at in refs):
            yield f"{path.relative_to(SRC)}:{node.lineno} {node.name}"


def test_every_definition_has_a_reference():
    traced = _traced_functions()
    assert [d for d in _unreferenced_definitions() if d.rsplit(" ", 1)[1] not in traced] == []

"""Module boundaries the code relies on, checked on the parsed source.

No decagon module imports an underscore-prefixed name from another
decagon module: a name that another module needs is public.  Only
``functors._carrier``, the builder behind ``apply_obj``, calls the trusted
``FinSet._raw`` and ``Subset._raw``, which skip the sort: every other
carrier, user input included, is sorted by ``FinSet``, and every other
subset by ``Subset``.  Outside ``functors``, only ``join_generators``
decides a carrier cap itself (``size_within``, ``OversizeCarrier``),
because it must not build the carrier it decides on; everything else
takes its carriers from ``apply_obj``, which decides the cap.  Only
``elements`` names its intern tables and its order-key memo, so their
layout is decided in one module.  A transformation family is built only
by ``formula``, ``tabulated``, ``derived`` or ``per_member``, the only
callers of ``NatTrans``, and only ``transforms`` and ``functors`` use
``compiled_action``: a family's linearity can then be read off how it was
built.  Only ``per_member`` gives a family its ``linear`` marks and
only ``derived`` computes one; only ``pasting/evaluate.py`` builds the
join generators a cell is checked on.  Likewise only ``extension`` records
which unions an extension operator preserves (``Extension``), and no
``Category`` keeps such a record; only ``monads.generator_valued_arrows``
reads the records, off the operator and the ambient lift it is given, to
decide which arrows of the operator equations range over generator-valued
maps, and only the shared equations ``extension_unit`` and
``extension_composition`` ask it, for ``check_monad_extensive`` and
``check_noiter`` alike; and only ``report.quantify``
builds the generator-valued hom-sets an arrow may range over.  Only
``report`` builds the record an object assignment reaches ``compare`` as
(``Reduced``) or names a reduction, and only its ``instances`` and the
kernel's ``_settle`` read a record's full draw, so a witness rerun has one
home.
Only ``check_naturality`` compares naturality squares, reading a family's
components at both ends of a morphism, and only ``search`` calls it, from
the one enumeration ``_natural_candidates``, which builds candidates only
through ``tabulated`` and enumerates no raw component tables.
Elements have one printer: only ``Element``, ``FinSet`` and ``FinFn``
define ``__repr__`` in ``elements``, so every element prints through
``element_repr``.  Under ``pasting``, only ``words`` turns a word's symbols
into text, so a word prints one way wherever it is shown; the one exception
is the cell-name scheme of ``Signature.interchanger``.
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
    uses = list(_uses(SOURCES_AND_TESTS, owner, {"_raw"}, "functors.py", "_carrier"))
    assert any(inside for _, inside in uses)  # the check sees the builder's calls
    assert [place for place, inside in uses if not inside] == []


def test_only_apply_obj_skips_the_carrier_sort():
    _only_apply_obj_calls_raw("FinSet")


def test_only_apply_obj_skips_the_subset_sort():
    _only_apply_obj_calls_raw("Subset")


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


def _calls(name: str):
    """Every call of ``name`` under ``src/decagon``, as (module, enclosing
    top-level definition)."""
    for path in sorted(SRC.rglob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and _name(node.func) == name:
                    yield path.relative_to(SRC).as_posix(), getattr(top, "name", None)


def test_only_the_four_constructors_build_a_family():
    callers = set(_calls("NatTrans"))
    assert callers  # the check sees the constructors
    assert callers <= {("transforms.py", f)
                       for f in ("formula", "tabulated", "derived", "per_member")}


def test_only_per_member_and_derived_set_linearity():
    # a ``linear`` keyword or an assignment to ``.linear``, anywhere
    places = set()
    for path in sorted(SRC.rglob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.keyword) and node.arg == "linear"
                        or isinstance(node, ast.Attribute) and node.attr == "linear"
                        and isinstance(node.ctx, ast.Store)):
                    places.add((path.relative_to(SRC).as_posix(), getattr(top, "name", None)))
    assert places == {("transforms.py", "per_member"), ("transforms.py", "derived")}
    assert set(_calls("carry_mark")) == {("transforms.py", "derived"),
                                         ("pasting/evaluate.py", "generator_mark")}


def test_only_extension_records_which_unions_an_operator_preserves():
    places = set()
    for path in sorted(SRC.rglob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.keyword) and node.arg in ("linear_in_values", "joins"):
                    places.add((path.relative_to(SRC).as_posix(), getattr(top, "name", None),
                                node.arg))
    assert set(_calls("Extension")) == {("transforms.py", "extension")}
    assert places == {("transforms.py", "extension", record)
                      for record in ("linear_in_values", "joins")}
    # the base category (a module-level assignment) and the Kleisli
    # categories, neither with a record
    assert set(_calls("Category")) == {("monads.py", None), ("monads.py", "kleisli")}


def test_one_function_decides_the_generator_valued_arrows_of_the_operator_equations():
    # the records are read where the reduction is decided, nowhere else
    reads = set()
    for path in sorted(SRC.rglob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr in ("linear_in_values", "joins")
                        and isinstance(node.ctx, ast.Load)):
                    reads.add((path.relative_to(SRC).as_posix(), getattr(top, "name", None)))
    assert reads == {("monads.py", "generator_valued_arrows")}
    shared = {("monads.py", "extension_unit"), ("monads.py", "extension_composition")}
    assert set(_calls("generator_valued_arrows")) == shared
    keywords = set()
    for path in sorted(SRC.rglob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if isinstance(node, ast.keyword) and node.arg == "generator_valued":
                    keywords.add((path.relative_to(SRC).as_posix(), getattr(top, "name", None)))
    assert keywords == shared
    # both checkers state the two equations through them; check_noiter keeps
    # one quantifier of its own, op-eta's
    for name in ("extension_unit", "extension_composition"):
        assert set(_calls(name)) == {("monads.py", "check_monad_extensive"),
                                     ("distlaw.py", "check_noiter")}
    assert [c for c in _calls("quantify") if c[0] == "distlaw.py"] == [
        ("distlaw.py", "check_noiter")]


def test_only_quantify_builds_generator_valued_hom_sets():
    assert set(_calls("generators")) == {("report.py", "quantify")}
    assert set(_calls("_generator_values")) == {("report.py", "quantify"),
                                               ("report.py", "TestUniverse")}


def test_only_report_builds_a_record_and_only_the_kernel_reads_its_full_draw():
    # so no checker keeps a witness rerun of its own beside the kernel's
    assert set(_calls("Reduced")) == {("report.py", f)
                                      for f in ("quantify", "instances", "compare", "_settle")}
    reads, named = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                where = (path.relative_to(SRC).as_posix(), getattr(top, "name", None))
                if isinstance(node, ast.Attribute) and node.attr == "full":
                    reads.add(where)
                if _name(node) in ("GENERATOR_VALUED_F", "JOIN_GENERATORS") or (
                        isinstance(node, ast.Constant)
                        and node.value in ("generator-valued-f", "join-generators")):
                    named.add(where[0])
    # instances settles the full draw quantify gives; _settle runs it
    assert reads == {("report.py", "instances"), ("report.py", "_settle")}
    assert named == {"report.py"}


def test_only_check_naturality_compares_naturality_squares():
    # a square reads a family's components at both ends of one morphism
    ends = set()
    for path in sorted(SRC.rglob("*.py")):
        for top in ast.parse(path.read_text(), str(path)).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and _name(node.func) == "component"
                        and any(_name(arg) in ("dom", "cod") for arg in node.args)):
                    ends.add((path.relative_to(SRC).as_posix(), getattr(top, "name", None)))
    assert ends == {("transforms.py", "check_naturality")}
    assert set(_calls("check_naturality")) == {("search.py", "_natural_candidates")}
    built = {(place, name) for name in ("NatTrans", "formula", "tabulated", "derived",
                                        "per_member", "iter_functions", "all_functions")
             for place in _calls(name) if place[0] == "search.py"}
    assert built == {(("search.py", "_natural_candidates"), "tabulated")}


def test_only_join_generators_decides_a_carrier_cap_outside_functors():
    found = set(_calls("size_within")) | set(_calls("OversizeCarrier"))
    assert ("functors.py", "apply_obj") in found  # the check sees the builder's guard
    assert {p for p in found if p[0] != "functors.py"} == {("pasting/evaluate.py",
                                                          "join_generators")}


def test_only_the_cell_evaluator_builds_join_generators():
    assert set(_calls("join_generators")) == {("pasting/evaluate.py", "_Side")}


def test_only_transforms_and_functors_use_compiled_action():
    uses = [f"{path.relative_to(SRC)}:{node.lineno}" for path in sorted(SRC.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if _name(node) == "compiled_action"]
    assert any(u.startswith("transforms.py:") for u in uses)  # the check sees the uses
    assert [u for u in uses if u.split(":")[0] not in ("transforms.py", "functors.py")] == []


def test_only_element_finset_and_finfn_define_a_printer_in_elements():
    tree = ast.parse((SRC / "elements.py").read_text())
    printers = {cls.name for cls in tree.body if isinstance(cls, ast.ClassDef)
                for node in cls.body
                if isinstance(node, ast.FunctionDef) and node.name in ("__repr__", "__str__")
                or isinstance(node, ast.Assign)
                and any(_name(t) in ("__repr__", "__str__") for t in node.targets)}
    assert printers == {"Element", "FinSet", "FinFn"}


def _symbol_joins(node, where=None):
    """The dotted name of the definition around every ``join`` call whose
    argument reads some ``.symbols``."""
    for child in ast.iter_child_nodes(node):
        inside = where
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inside = f"{where}.{child.name}" if where else child.name
        if (isinstance(child, ast.Call) and _name(child.func) == "join"
                and any(isinstance(n, ast.Attribute) and n.attr == "symbols"
                        for arg in child.args for n in ast.walk(arg))):
            yield inside
        yield from _symbol_joins(child, inside)


def test_only_words_prints_a_word_in_pasting():
    joins = {(path.relative_to(SRC).as_posix(), where)
             for path in sorted((SRC / "pasting").glob("*.py"))
             for where in _symbol_joins(ast.parse(path.read_text(), str(path)))}
    assert ("pasting/words.py", "Word.__str__") in joins  # the check sees the printer
    assert {j for j in joins if j[0] != "pasting/words.py"} == {
        ("pasting/signature.py", "Signature.interchanger")}


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

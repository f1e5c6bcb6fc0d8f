import json
import pathlib
import subprocess
import sys

import pytest

from decagon import cli
from decagon.cli import run
from decagon.elements import Atom, Subset, element_repr, subset
from decagon.report import compare

PY = [sys.executable, "-m", "decagon.cli"]
ASSETS = pathlib.Path(cli.__file__).resolve().parent / "pasting" / "assets"
MIXED = (ASSETS / "mixed_signature.sexp").read_text()


def invoke(args):
    proc = subprocess.run(PY + list(args), capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_check_law_decagon_exit_zero(capsys):
    code = run(["check-law", "--law", "exception-over-powerset",
                "--form", "decagon", "--max-size", "2"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert set(payload) >= {"command", "universe", "verdicts", "witnesses",
                            "timing_ms", "exhaustive"}
    assert len(payload["verdicts"]) == 3
    assert all(v["passed"] for v in payload["verdicts"])


def test_a_verdict_row_names_its_reduction_only_when_it_ran_under_one(capsys):
    assert run(["check-law", "--law", "writer-over-powerset", "--max-size", "1"]) == 0
    rows = json.loads(capsys.readouterr().out)["verdicts"]
    named = {(v["law"].split(":")[0], v["axiom"]): v["reduction"] for v in rows if "reduction" in v}
    assert named == {("beck", "mu-pentagon"): "join-generators",
                     ("decagon", "decagon"): "join-generators",
                     ("algebra", "hexagon"): "join-generators",
                     ("noiter", "op-unit"): "generator-valued-f",
                     ("noiter", "op-composition"): "generator-valued-f",
                     ("five-axiom", "m-square"): "join-generators",
                     ("five-axiom", "mu-diagram"): "join-generators"}
    assert run(["check-monad", "--monad", "powerset", "--form", "extensive",
                "--max-size", "1"]) == 0
    rows = json.loads(capsys.readouterr().out)["verdicts"]
    assert {v["axiom"]: v.get("reduction") for v in rows} == {
        "extension-unit": "generator-valued-f", "unit-extension": None,
        "extension-composition": "generator-valued-f"}


def test_unknown_law_exit_two(capsys):
    assert run(["check-law", "--law", "unknown-name"]) == 2


def test_seed_flag_is_a_usage_error(capsys):
    assert run(["check-law", "--law", "exception-over-powerset", "--max-size", "0",
                "--seed", "7"]) == 2


def test_one_parser_serves_every_run_of_a_process(capsys):
    # a usage error, --help and two commands give, run one after another in
    # one process, the exit codes and bytes each gives when it runs first
    argvs = [("check-law", "--law", "exception-over-powerset", "--seed", "7"), ("--help",),
             ("check-monad", "--monad", "identity", "--max-size", "1"),
             ("search", "--monad", "exception", "--monad", "identity", "--max-size", "1")]

    def outcome(argv):
        code = run(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    first = {}
    for argv in argvs:
        cli.make_parser.cache_clear()
        first[argv] = outcome(argv)
    assert [first[argv][0] for argv in argvs] == [2, 0, 0, 0]
    assert [outcome(argv) for argv in argvs] == [first[argv] for argv in argvs]
    assert cli.make_parser() is cli.make_parser()


def test_unknown_flag_rejected():
    code, _, err = invoke(["check-law", "--law", "x", "--nonsense"])
    assert code == 2


def test_convert_roundtrip(capsys):
    code = run(["convert", "--law", "exception-over-powerset",
                "--from", "monoidal", "--to", "algebra", "--roundtrip",
                "--max-size", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["roundtrip_identity"] is True


def test_convert_noiter_roundtrip(capsys):
    code = run(["convert", "--law", "exception-over-powerset",
                "--from", "algebra", "--to", "noiter", "--roundtrip",
                "--max-size", "1"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["roundtrip_identity"] is True


def test_check_failure_exit_one(tmp_path, capsys):
    # register a law whose lambda is the wrong builtin: writer strength on
    # the wrong monad pair cannot satisfy the axioms
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps({
        "laws": [{
            "law": "exception-misdistributed",
            "T": {"name": "exception", "E": ["e1", "e2"]},
            "P": {"name": "powerset"},
            "lambda": "builtin:exception-dist",
        }]
    }))
    code = run(["check-law", "--law", "exception-misdistributed",
                "--registry", str(registry), "--form", "monoidal", "--max-size", "1"])
    out = capsys.readouterr().out
    assert code == 0  # exception-dist is uniform in E, so it still passes
    payload = json.loads(out)
    assert all(v["passed"] for v in payload["verdicts"])


def test_malformed_registry_exit_two(tmp_path, capsys):
    registry = tmp_path / "registry.json"
    for text in ("{not json", "[]", '{"monads": [1]}', '{"laws": {"law": "x"}}'):
        registry.write_text(text)
        assert run(["check-law", "--law", "x", "--registry", str(registry)]) == 2


def test_registry_with_mismatched_component_exit_two(tmp_path):
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps({
        "laws": [{"law": "bad", "T": {"name": "powerset"}, "P": {"name": "powerset"},
                  "lambda": "builtin:writer-strength"}]
    }))
    assert run(["check-law", "--law", "bad", "--registry", str(registry)]) == 2


def test_registry_lambda_without_a_powerset_to_distribute_exit_two(tmp_path, capsys):
    # exception-dist over reader: no powerset behind a one-position context
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps({
        "laws": [{"law": "bad", "T": {"name": "reader", "R": ["r"]}, "P": {"name": "powerset"},
                  "lambda": "builtin:exception-dist"}]
    }))
    assert run(["check-law", "--law", "bad", "--registry", str(registry)]) == 2
    assert "has no marked subset" in capsys.readouterr().err


def test_registry_with_bad_monoid_exit_two(tmp_path):
    registry = tmp_path / "registry.json"
    registry.write_text(json.dumps({
        "monads": [{"name": "writer",
                    "monoid": {"elems": ["1", "s"], "op": [["s", "1"], ["1", "s"]],
                               "unit": "1"}}]
    }))
    assert run(["check-monad", "--monad", "writer", "--registry", str(registry)]) == 2


@pytest.mark.parametrize("text,key", [('{"monads": 5}', "monads"), ('{"laws": null}', "laws")],
                         ids=["monads-number", "laws-null"])
def test_registry_section_that_is_not_a_list_exit_two(tmp_path, capsys, text, key):
    registry = tmp_path / "registry.json"
    registry.write_text(text)
    assert run(["check-law", "--law", "exception-over-powerset", "--registry", str(registry)]) == 2
    assert capsys.readouterr().err == f"error: registry {registry}: {key!r} must be a list\n"


@pytest.mark.parametrize("form,code", [("extensive", 2), ("monoidal", 0), ("all", 0)])
def test_check_monad_form_on_a_comonad(capsys, form, code):
    # a comonad has counit and comultiplication laws only: no extensive form
    assert run(["check-monad", "--monad", "coreader", "--form", form, "--max-size", "1"]) == code
    captured = capsys.readouterr()
    if code == 2:
        assert captured.out == ""
        assert captured.err == "error: form 'extensive' does not apply to comonad 'coreader'\n"
    else:
        assert [v["law"] for v in json.loads(captured.out)["verdicts"]] == ["comonad:coreader[2]"] * 3


@pytest.mark.parametrize("law,exhaustive", [
    ("writer-over-powerset", False),  # decagon and hexagon skip an instance at |X| = 2
    ("exception-over-powerset", True),
])
def test_check_law_exhaustive_follows_the_verdicts(capsys, law, exhaustive):
    run(["check-law", "--law", law, "--max-size", "2"])
    payload = json.loads(capsys.readouterr().out)
    assert any(v["skipped"] for v in payload["verdicts"]) is not exhaustive
    assert payload["exhaustive"] is exhaustive


def test_check_monad(capsys):
    assert run(["check-monad", "--monad", "powerset", "--max-size", "1"]) == 0
    capsys.readouterr()
    assert run(["check-monad", "--monad", "coreader", "--max-size", "1"]) == 0


def test_search_with_law(capsys):
    code = run(["search", "--law", "exception-over-powerset", "--max-size", "1"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["registered_among_survivors"] is True
    assert payload["forms_agree"] is True


def test_search_budget_exit_two(capsys):
    assert run(["search", "--law", "exception-over-powerset",
                "--max-size", "2", "--budget", "10"]) == 2


@pytest.mark.parametrize("law,raw", [("exception-over-powerset", 8388608),
                                     ("writer-over-powerset", 1099511627776)])
def test_search_reaches_the_powerset_laws_at_size_two(law, raw, capsys):
    assert run(["search", "--law", law, "--max-size", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["counts"] == {"raw": raw, "natural": 16, "beck": 1, "decagon": 1}
    assert payload["survivors"] == 1
    assert payload["registered_among_survivors"] is True
    assert payload["forms_agree"] is True


@pytest.mark.parametrize("args,message", [
    (["--monad", "coreader", "--monad", "powerset"], "monad-monad pairs only"),
    (["--monad", "powerset", "--monad", "coreader"], "monad-monad pairs only"),
    (["--law", "exception-over-powerset", "--monad", "maybe", "--monad", "powerset"],
     "not both"),
])
def test_search_refuses_a_comonad_and_a_law_with_monads(args, message, capsys):
    assert run(["search", *args, "--max-size", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("pair", [("powerset", "powerset"), ("reader", "powerset"),
                                  ("powerset", "reader")])
def test_search_on_a_carrier_over_the_cap_is_a_configuration_error(pair, capsys):
    # the algebra form's source TPT is over the cap at size 3 for these pairs
    args = ["search", "--monad", pair[0], "--monad", pair[1], "--max-size", "3"]
    assert run([*args, "--form", "algebra"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: carrier exceeds cap 200000\n"


def test_extend_kleisli_covers_every_writer_instance_at_size_three(capsys):
    # extension-unit and extension-composition range each arrow over its
    # generator-valued maps, so no hom-set is over HOM_CAP
    assert run(["extend-kleisli", "--law", "writer-over-powerset", "--max-size", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exhaustive"] is True
    assert [(v["axiom"], v["skipped"], v.get("reduction")) for v in payload["verdicts"]] == [
        ("extension-unit", 0, "generator-valued-f"), ("unit-extension", 0, None),
        ("extension-composition", 0, "generator-valued-f")]


def test_internal_error_exit_three(monkeypatch, capsys):
    def broken(args, monads, laws):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._RUNNERS, "search", broken)
    code = run(["search", "--law", "exception-over-powerset", "--max-size", "0"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "Traceback" in captured.err and "RuntimeError: boom" in captured.err


def _duplicate(s):
    """A second object with the structure of subset ``s``, made past the
    intern table."""
    dup = object.__new__(Subset)
    dup._members = s._members
    return dup


def test_element_that_bypassed_the_intern_table_is_an_internal_error(monkeypatch, capsys):
    x = Atom("a")
    s = subset([x, Atom("b")])
    dup = _duplicate(s)
    assert dup is not s and element_repr(dup) == element_repr(s)
    with pytest.raises(RuntimeError, match="bypassed the intern table"):
        compare("axiom", [("|X|=1", ({x: s}, {x: dup}))])
    # a real difference is still a witness
    assert compare("axiom", [("|X|=1", ({x: s}, {x: subset([x])}))]).witness.rhs == "{a}"

    def duplicating(args, monads, laws):
        compare("axiom", [("|X|=1", ({x: s}, {x: dup}))])

    monkeypatch.setitem(cli._RUNNERS, "search", duplicating)
    code = run(["search", "--law", "exception-over-powerset", "--max-size", "0"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "print as {a,b}; one bypassed the intern table" in captured.err


def test_pasting_derive(capsys):
    code = run(["pasting-derive", "--axiom", "all"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert set(payload["derivations"]) == {"Omega", "omega3", "omega4",
                                           "phi", "theta", "delta", "H"}
    assert all(d["boundary_matches"] for d in payload["derivations"].values())


def test_pasting_check_single_axiom(capsys):
    code = run(["pasting-check", "--axiom", "W1",
                "--interpretation", "exception-over-powerset", "--max-size", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert all(v["passed"] for v in json.loads(out)["verdicts"])


def test_pasting_check_builtin_signature_is_the_shipped_asset(capsys):
    asset = pathlib.Path(__file__).resolve().parents[1] / "src" / "decagon" / "pasting" \
        / "assets" / "builtin_signature.sexp"
    args = ["pasting-check", "--axiom", "all", "--max-size", "1"]
    outputs = []
    for extra in ([], ["--signature", str(asset)]):
        code = run(args + extra)
        captured = capsys.readouterr()
        outputs.append((code, captured.out, captured.err))
    assert outputs[0][0] == 0
    assert outputs[0] == outputs[1]


def test_byte_identical_reports():
    args = ["check-law", "--law", "exception-over-powerset",
            "--form", "monoidal", "--max-size", "1"]
    c1, out1, _ = invoke(args)
    c2, out2, _ = invoke(args)
    assert c1 == c2 == 0
    assert out1 == out2


def test_json_goes_to_stdout_summary_to_stderr():
    code, out, err = invoke(["check-law", "--law", "exception-over-powerset",
                             "--form", "monoidal", "--max-size", "1"])
    assert code == 0
    json.loads(out)
    assert "pass" in err


def test_pasting_check_on_a_signature_without_axioms_is_a_configuration_error(capsys):
    # the shipped mixed signature declares cells only, so a check would
    # report no verdict at all
    code = run(["pasting-check", "--signature", str(ASSETS / "mixed_signature.sexp")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: signature declares no axioms\n"


def test_pasting_check_of_a_generic_arrow_with_no_object_symbol_exit_two(tmp_path, capsys):
    # nu's carriers T(X) and TT(X) would depend on the ambient object X
    path = tmp_path / "nu.sexp"
    path.write_text(
        "(signature (version 1) (alphabet T P) (arrow nu (T T) (T))\n"
        "  (cell c (src [epsilon . nu . epsilon]) (tgt [epsilon . nu . epsilon]))\n"
        "  (axiom A (cell c) (cell c)))\n")
    code = run(["pasting-check", "--signature", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: cell c needs a family for nu")


@pytest.mark.parametrize("text", [
    # an atom naming an arrow the signature does not declare
    "(signature (version 1) (alphabet T) (arrow m (T T) (T))\n"
    "  (cell c (src [epsilon . nope . epsilon]) (tgt [epsilon . m . epsilon])))\n",
    # a file cut off after its alphabet
    "(signature (version 1) (alphabet T)",
    # content after the closing parenthesis
    MIXED + "(cell junk\n",
    # a version the writer never writes
    MIXED.replace("(version 1)", "(version 2)"),
    # a second declaration of a cell name
    MIXED.rstrip().removesuffix(")")
    + "  (cell counit-l-L\n    (src @ L)\n    (tgt @ L)))\n",
    # a cell over a symbol the alphabet does not declare
    "(signature (version 1) (alphabet T P) (arrow m (T T) (T))\n"
    "  (cell c (src [T Q . m . epsilon]) (tgt [T Q . m . epsilon])))\n",
    # an arrow over a symbol the alphabet does not declare
    "(signature (version 1) (alphabet T P) (arrow k (X) (T)))\n",
    # an axiom that whiskers by a symbol the alphabet does not declare
    "(signature (version 1) (alphabet T P) (arrow m (T T) (T))\n"
    "  (cell c (src [epsilon . m . epsilon]) (tgt [epsilon . m . epsilon]))\n"
    "  (axiom A (whisker Q (cell c) epsilon) (whisker Q (cell c) epsilon)))\n",
    # epsilon inside a word, which would otherwise read as T P and pass
    "(signature (version 1) (alphabet T P) (arrow lambda (T epsilon P) (P T))\n"
    "  (cell c (src [epsilon . lambda . epsilon]) (tgt [epsilon . lambda . epsilon]))\n"
    "  (axiom A (cell c) (cell c)))\n",
], ids=["unknown-arrow", "truncated", "trailing-content", "version", "duplicate-cell",
        "symbol-outside-alphabet-in-cell", "symbol-outside-alphabet-in-arrow",
        "symbol-outside-alphabet-in-axiom", "epsilon-inside-a-word"])
def test_malformed_signature_exit_two(tmp_path, capsys, text):
    path = tmp_path / "bad.sexp"
    path.write_text(text)
    code = run(["pasting-check", "--axiom", "all", "--signature", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error: cannot load signature" in err and "Traceback" not in err


_DEEP_SIGNATURE = """\
(signature
  (version 1)
  (alphabet T P)
  (arrow u (epsilon) (T))
  (arrow m (T T) (T))
  (cell deep
    (src [T T T T T T T . u . epsilon] ; [T T T T T T . m . epsilon])
    (tgt @ T T T T T T T))
  (axiom D
    (cell deep)
    (cell deep))
)
"""


def test_cell_deeper_than_the_depth_bound_is_a_configuration_error(tmp_path, capsys):
    path = tmp_path / "deep.sexp"
    path.write_text(_DEEP_SIGNATURE)
    code = run(["pasting-check", "--max-size", "1", "--signature", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("error: cell deep needs functor words of length 8, "
                            "universe depth bound is 7\n")


def test_other_value_errors_of_pasting_check_stay_internal(monkeypatch, capsys):
    import decagon.pasting.evaluate as evaluate

    def broken(*args):
        raise ValueError("boom")

    monkeypatch.setattr(evaluate, "check_axiom_degenerate", broken)
    assert run(["pasting-check", "--axiom", "D2", "--max-size", "0"]) == 3
    assert "ValueError: boom" in capsys.readouterr().err


_NATURALITY_SIGNATURE = """\
(signature
  (version 1)
  (alphabet T P X Y)
  (arrow u (epsilon) (T))
  (arrow k (X) (T Y))
  (cell u-natural
    (src [epsilon . u . X] ; [T . k . epsilon])
    (tgt [epsilon . k . epsilon] ; [epsilon . u . T Y]))
  (axiom N
    (cell u-natural)
    (cell u-natural))
)
"""


def test_user_signature_quantifies_generic_arrows_over_declared_boundary(tmp_path, capsys):
    # k is generic under the exception interpretation, which assigns no
    # family to it; it ranges over the functions X -> T(Y) it declares:
    # 1 + 1 + 1 + 2 of them for |X|, |Y| <= 1
    path = tmp_path / "naturality.sexp"
    path.write_text(_NATURALITY_SIGNATURE)
    code = run(["pasting-check", "--axiom", "N", "--signature", str(path), "--max-size", "1"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [(v["axiom"], v["passed"], v["checked"], v["skipped"]) for v in payload["verdicts"]] \
        == [("cell:u-natural", True, 5, 0)]


@pytest.mark.parametrize("axiom", ["all", "H"])
def test_pasting_derive_without_the_cell_is_a_configuration_error(tmp_path, capsys, axiom):
    path = tmp_path / "naturality.sexp"
    path.write_text(_NATURALITY_SIGNATURE)
    code = run(["pasting-derive", "--axiom", axiom, "--signature", str(path)])
    err = capsys.readouterr().err
    cell = "Omega" if axiom == "all" else axiom
    assert code == 2
    assert err == f"error: cannot derive {cell}: no cell {cell!r}\n"


def test_pasting_derive_on_a_cell_the_script_does_not_fit_is_a_configuration_error(
        tmp_path, capsys):
    # Psi with its source and target swapped is still a valid cell, but the
    # script of H cannot apply it where it expects to
    from decagon.pasting import CellGen, builtin_signature, signature_to_text

    sig = builtin_signature().copy()
    sig.axioms.clear()
    psi = sig.cells["Psi"]
    sig.cells["Psi"] = CellGen("Psi", psi.tgt, psi.src)
    path = tmp_path / "swapped.sexp"
    path.write_text(signature_to_text(sig))
    code = run(["pasting-derive", "--axiom", "H", "--signature", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot derive H: ") and "Psi" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_pasting_derive_checks_against_the_interchangers_its_builder_registers(
        tmp_path, capsys):
    # the builtin asset without its axioms and its interchanger squares: the
    # builders register the interchangers they slide through in a copy,
    # and the derived terms are checked against that copy
    from decagon.pasting import builtin_signature, signature_to_text

    sig = builtin_signature().copy()
    sig.axioms.clear()
    sig.cells = {name: cell for name, cell in sig.cells.items() if not name.startswith("xc-")}
    path = tmp_path / "no-interchangers.sexp"
    path.write_text(signature_to_text(sig))
    code = run(["pasting-derive", "--axiom", "Omega", "--signature", str(path)])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["derivations"]["Omega"]["boundary_matches"] is True
    assert run(["pasting-derive", "--axiom", "all", "--signature", str(path)]) == 0


def _nested_axiom_signature(depth: int) -> str:
    """The builtin asset plus an axiom ``Deep`` whose left side nests
    ``depth`` parentheses within the file's outermost form."""
    from decagon.pasting import builtin_signature, signature_to_text

    term = "(id @ T)"
    for _ in range(depth - 3):  # the signature and axiom forms nest two more
        term = f"(vcomp {term} (id @ T))"
    text = signature_to_text(builtin_signature())
    return text.rstrip().removesuffix(")") + f"  (axiom Deep\n    {term}\n    (id @ T)))\n"


@pytest.mark.parametrize("command", ["pasting-check", "pasting-derive"])
def test_deeply_nested_signature_is_a_configuration_error(tmp_path, capsys, command):
    from decagon.pasting.signature import MAX_NESTING

    path = tmp_path / "deep.sexp"
    path.write_text(_nested_axiom_signature(1200))
    code = run([command, "--axiom", "Deep" if command == "pasting-check" else "H",
                "--signature", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == (f"error: cannot load signature {path}: "
                   f"forms nest deeper than {MAX_NESTING} levels\n")


def test_signature_nested_to_the_limit_is_checked(tmp_path, capsys):
    # every recursion over the terms of a signature at the nesting limit
    # stays within the interpreter's stack
    from decagon.pasting.signature import MAX_NESTING

    path = tmp_path / "deep.sexp"
    path.write_text(_nested_axiom_signature(MAX_NESTING))
    code = run(["pasting-check", "--axiom", "Deep", "--max-size", "0", "--signature", str(path)])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdicts"] == []


def _readme_cli_commands() -> list[list[str]]:
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    commands = [c for c in (line.split("#", 1)[0].split() for line in block.splitlines()) if c]
    assert all(c[0] == "decagon" for c in commands)
    return [c[1:] for c in commands]


def test_readme_cli_commands_run(capsys):
    # argparse keeps the last --max-size, so each command runs at size 1
    commands = _readme_cli_commands()
    assert commands
    for argv in commands:
        assert run(argv + ["--max-size", "1"]) == 0, argv
        capsys.readouterr()

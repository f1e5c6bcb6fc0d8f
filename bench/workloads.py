"""The benchmark's workloads: commands, negative controls and verdict rows.

A workload is a fixed list of commands.  A command either calls the public
CLI entry point ``decagon.cli.run`` with an argument vector, or calls the
public library API.  The seed only fixes the order in which a run executes
the commands; the program never sees it.

Every command yields verdict rows keyed by ``(command, law, axiom)``.  They
are compared with the known answers in ``expected.json`` and with two rules
that hold whatever that file says: a registered law or monad passes every
axiom, and a negative control fails its named axiom with its named witness.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

FULL_SIZE = 2
QUICK_SIZE = 1


@dataclass(frozen=True)
class Command:
    """One step of a workload.

    ``argv`` selects a CLI command; ``call`` a library call taking the shared
    context and returning LawReports.  ``fails`` marks a negative control: it
    maps an axiom to the witness suffix its failure must show.
    """

    name: str
    argv: tuple = ()
    call: Optional[Callable] = None
    fails: dict = field(default_factory=dict)

    @property
    def control(self) -> bool:
        return bool(self.fails)


def _cli(*argv: str) -> Command:
    return Command(" ".join(argv), argv=argv)


# --- library calls ------------------------------------------------------------


def _empty_set_law(decagon):
    """exception-over-powerset with lambda(inr e) redefined to the empty set."""
    good = decagon.builtin_laws()["exception-over-powerset"]

    def lam(e):
        if type(e) is decagon.Inl:
            return decagon.subset(decagon.Inl(x) for x in e.value.members)
        return decagon.Subset(())

    return decagon.DistLaw("empty-set-mutation", good.T, good.P,
                           decagon.formula(good.lam.src, good.lam.tgt, lam, "empty-set-mutation"))


def _size_sensitive_law(decagon):
    """exception-over-powerset that adds inr(e) to the image of singletons."""
    good = decagon.builtin_laws()["exception-over-powerset"]

    def lam(e):
        if type(e) is decagon.Inl:
            img = [decagon.Inl(x) for x in e.value.members]
            if len(img) == 1:
                img.append(decagon.Inr(decagon.Atom("e")))
            return decagon.subset(img)
        return decagon.Subset((e,))

    return decagon.DistLaw("size-sensitive-mutation", good.T, good.P,
                           decagon.formula(good.lam.src, good.lam.tgt, lam, "size-sensitive-mutation"))


def _check_beck_empty_set(ctx):
    return [ctx.decagon.check_beck(_empty_set_law(ctx.decagon), ctx.universe)]


def _check_decagon_size_sensitive(ctx):
    return [ctx.decagon.check_decagon(_size_sensitive_law(ctx.decagon), ctx.universe)]


def _pasting(axiom: str, law: Optional[Callable] = None) -> Callable:
    def call(ctx):
        from decagon.pasting.evaluate import law_interpretation

        interp = ctx.interpretation if law is None else law_interpretation(law(ctx.decagon))
        return [ctx.pasting.check_axiom_degenerate(axiom, interp, ctx.universe, ctx.signature)]

    return call


class Context:
    """Objects shared by the library calls of one run, as ``pasting-check
    --axiom all`` shares one interpretation, universe and signature."""

    def __init__(self, max_size: int):
        import decagon
        import decagon.pasting as pasting
        from decagon.pasting.evaluate import law_interpretation

        self.decagon = decagon
        self.pasting = pasting
        self.universe = decagon.TestUniverse.sizes(max_size)
        self.signature = pasting.builtin_signature()
        self.interpretation = law_interpretation(decagon.builtin_laws()["exception-over-powerset"])


_WITNESS_EMPTY_SET = "inr(e): {} != {inr(e)}"

WORKLOADS: dict[str, list[Command]] = {
    "law-forms": [
        _cli("check-law", "--law", "writer-over-powerset", "--max-size", "2"),
        _cli("check-law", "--law", "exception-over-powerset", "--max-size", "2"),
        _cli("compose", "--law", "writer-over-powerset", "--max-size", "2"),
        _cli("compose", "--law", "exception-over-powerset", "--max-size", "2"),
        _cli("check-law", "--law", "coreader-over-powerset", "--max-size", "2"),
        Command("control: check_beck, empty-set lambda", call=_check_beck_empty_set,
                fails={"unit-eta-triangle": _WITNESS_EMPTY_SET}),
        Command("control: check_decagon, size-sensitive lambda",
                call=_check_decagon_size_sensitive,
                fails={"decagon": "inl({inl({})}): {} != {inr(e)}"}),
    ],
    "kleisli-homs": [
        _cli("extend-kleisli", "--law", "writer-over-powerset", "--max-size", "2"),
        _cli("extend-kleisli", "--law", "exception-over-powerset", "--max-size", "2"),
        _cli("check-monad", "--monad", "powerset", "--form", "extensive", "--max-size", "2"),
        _cli("check-monad", "--monad", "reader", "--form", "extensive", "--max-size", "2"),
        _cli("check-monad", "--monad", "writer", "--form", "extensive", "--max-size", "2"),
        _cli("check-monad", "--monad", "exception2", "--form", "extensive", "--max-size", "2"),
        _cli("search", "--monad", "maybe", "--monad", "exception", "--max-size", "2"),
        _cli("search", "--monad", "exception", "--monad", "identity", "--max-size", "3"),
    ],
    "pasting-algebra": [
        Command("check_axiom_degenerate M1", call=_pasting("M1")),
        Command("check_axiom_degenerate M2", call=_pasting("M2")),
        Command("check_axiom_degenerate I1", call=_pasting("I1")),
        Command("check_axiom_degenerate I2", call=_pasting("I2")),
        Command("control: check_axiom_degenerate M1, empty-set lambda",
                call=_pasting("M1", _empty_set_law), fails={"cell:psi2": _WITNESS_EMPTY_SET}),
    ],
}


def commands(workload: str, quick: bool) -> list[Command]:
    """The workload's commands; quick mode shrinks every universe to size 1."""
    cmds = WORKLOADS[workload]
    if not quick:
        return list(cmds)
    out = []
    for c in cmds:
        if c.argv:
            argv = list(c.argv)
            argv[argv.index("--max-size") + 1] = str(QUICK_SIZE)
            c = Command(" ".join(argv), argv=tuple(argv), fails=c.fails)
        out.append(c)
    return out


def ordered(cmds: list[Command], seed: int) -> list[Command]:
    """The run order of the commands for one seed."""
    cmds = list(cmds)
    random.Random(seed).shuffle(cmds)
    return cmds


# --- executing and scoring ----------------------------------------------------


def execute(cmd: Command, ctx_factory: Callable[[], Context]):
    """Run one command; return its raw outcome, parsed later off the clock."""
    if cmd.argv:
        from decagon.cli import run

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(list(cmd.argv))
        return {"exit": code, "stdout": out.getvalue()}
    return {"reports": cmd.call(ctx_factory())}


def _witness_text(w) -> Optional[str]:
    if w is None:
        return None
    return f"{w['at']}: {w['element']}: {w['lhs']} != {w['rhs']}"


def rows_of(cmd: Command, outcome: dict) -> dict:
    """Verdict rows of one outcome: {"rows": [...], "error": str|None}."""
    if "error" in outcome:
        return {"rows": [], "error": outcome["error"]}
    rows = []
    if "reports" in outcome:
        for rep in outcome["reports"]:
            for v in rep.verdicts:
                w = v.witness.as_dict() if v.witness is not None else None
                rows.append(_row(cmd, rep.law, v.axiom, v.passed, v.checked, v.skipped,
                                 _witness_text(w)))
        return {"rows": rows, "error": None}
    error = None if outcome["exit"] == 0 else f"exit code {outcome['exit']}"
    try:
        payload = json.loads(outcome["stdout"])
    except ValueError:
        return {"rows": [], "error": error or "no JSON report"}
    witnesses = {(w["law"], w["axiom"]): w for w in payload["witnesses"]}
    for v in payload["verdicts"]:
        rows.append(_row(cmd, v["law"], v["axiom"], v["passed"], v["checked"], v["skipped"],
                         _witness_text(witnesses.get((v["law"], v["axiom"])))))
    if "forms_agree" in payload and "counts" not in payload:
        rows.append({"cmd": cmd.name, "law": "-", "axiom": "forms_agree",
                     "result": {"value": payload["forms_agree"]}})
    if "counts" in payload:
        value = {k: payload[k] for k in ("counts", "survivors", "forms_agree",
                                         "registered_among_survivors") if k in payload}
        rows.append({"cmd": cmd.name, "law": "-", "axiom": "search", "result": {"value": value}})
    return {"rows": rows, "error": error}


def _row(cmd, law, axiom, passed, checked, skipped, witness) -> dict:
    return {"cmd": cmd.name, "law": law, "axiom": axiom,
            "result": {"passed": passed, "checked": checked, "skipped": skipped,
                       "witness": witness}}


def _key(row: dict) -> tuple:
    return (row["cmd"], row["law"], row["axiom"])


def _rule_broken(cmd: Command, row: dict) -> Optional[str]:
    """Why a row breaks the mathematical known answer, or None."""
    res = row["result"]
    if cmd.control:
        suffix = cmd.fails.get(row["axiom"])
        if suffix is None:
            return None
        if res["passed"] or not (res["witness"] or "").endswith(suffix):
            return f"negative control must fail with witness ...{suffix}"
        return None
    if "passed" in res and not res["passed"]:
        return "registered law or monad must pass"
    value = res.get("value")
    if value is False:
        return "forms must agree"
    if isinstance(value, dict) and (value.get("forms_agree") is False
                                    or value.get("registered_among_survivors") is False):
        return "search must agree across forms and keep the registered law"
    return None


def score(cmds: list[Command], results: dict, expected: list[dict]) -> tuple[int, int, list[str]]:
    """Compare one run's rows with the known answers.

    ``results`` maps every command's name to the output of ``rows_of``.  A row is
    attempted if it is expected or produced; it fails if it differs from the
    expected row, breaks a known-answer rule, is missing, or belongs to a
    command that raised or exited with an unexpected code.
    """
    by_cmd = {c.name: c for c in cmds}
    want = {_key(r): r for r in expected}
    got = {}
    errors = {}
    for name, res in results.items():
        if res["error"]:
            errors[name] = res["error"]
        for r in res["rows"]:
            got[_key(r)] = r
    problems = [f"{name}: {error}" for name, error in errors.items()]
    failed = 0
    for c in cmds:
        missing = set(c.fails) - {k[2] for k in got if k[0] == c.name}
        if missing:
            failed += len(missing)
            problems.append(f"{c.name}: control rows missing: {sorted(missing)}")
    keys = sorted(set(want) | set(got))
    for k in keys:
        if k[0] in errors:
            reason = "command failed"
        elif k not in got:
            reason = "missing"
        elif k not in want:
            reason = "unexpected row"
        elif got[k]["result"] != want[k]["result"]:
            reason = f"expected {want[k]['result']}, got {got[k]['result']}"
        else:
            reason = _rule_broken(by_cmd[k[0]], got[k])
        if reason:
            failed += 1
            problems.append(f"{' | '.join(k)}: {reason}")
    attempted = max(len(keys), failed, 1)
    return attempted, failed, problems


def format_rows(cmds: list[Command], results: dict) -> list[str]:
    """Verdict table lines in workload order, independent of the run order."""
    lines = []
    for c in cmds:
        res = results[c.name]
        if res["error"]:
            lines.append(f"{c.name} | error: {res['error']}")
        for r in res["rows"]:
            lines.append(f"{c.name} | {r['law']} | {r['axiom']} | "
                         f"{json.dumps(r['result'], sort_keys=True)}")
    return lines

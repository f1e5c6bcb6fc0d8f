"""Command-line front end.

Reports are JSON on standard output with sorted keys and a stable layout,
so identical invocations produce byte-identical reports; human-readable
summaries go to standard error.  Exit code 0 means every requested check
passed, 1 means a check failed (the report is still emitted), 2 means a
usage or configuration error, 3 means an internal error (the traceback
goes to standard error).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from functools import cache

from .distlaw import (
    MixedLaw,
    algebra_to_monoidal,
    algebra_to_noiter,
    builtin_laws,
    check_algebra,
    check_beck,
    check_decagon,
    check_five_axiom,
    check_mixed_classic,
    check_mixed_decagon,
    check_noiter,
    compose_monads,
    extend_to_kleisli,
    law_from_config,
    monoidal_to_algebra,
    noiter_to_algebra,
)
from .functors import OversizeCarrier
from .monads import (
    ComonadMonoidal,
    builtin_monads,
    check_comonad,
    check_monad_extensive,
    check_monad_monoidal,
    monad_from_config,
    monoidal_to_extensive,
)
from .report import LawReport, TestUniverse
from .search import BudgetExceeded, SearchSpec, candidate_matches, enumerate_candidates


class ConfigError(ValueError):
    pass


def _load_registry(path: str | None):
    monads = builtin_monads()
    laws = builtin_laws()
    if path:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read registry {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"registry {path} must hold a JSON object")
        for key in ("monads", "laws"):
            if not isinstance(data.get(key, []), list):
                raise ConfigError(f"registry {path}: {key!r} must be a list")
        for i, cfg in enumerate(data.get("monads", [])):
            try:
                m = monad_from_config(cfg)
            except (AttributeError, KeyError, ValueError, TypeError) as exc:
                raise ConfigError(f"registry monads[{i}]: {exc}") from exc
            monads[cfg.get("alias", m.name)] = m
        for i, cfg in enumerate(data.get("laws", [])):
            try:
                law = law_from_config(cfg)
            except (AttributeError, KeyError, ValueError, TypeError) as exc:
                raise ConfigError(f"registry laws[{i}]: {exc}") from exc
            laws[law.name] = law
    return monads, laws


def _law(laws, name: str, mixed: str | None = None, kind: str = "law"):
    """The registered law ``name``; a mixed law is refused with the message
    ``mixed`` when one is given."""
    if name not in laws:
        raise ConfigError(f"unknown {kind} {name!r}")
    law = laws[name]
    if mixed and isinstance(law, MixedLaw):
        raise ConfigError(mixed)
    return law


_MONAD_FORMS = ("monoidal", "extensive", "all")
_LAW_FORMS = ("monoidal", "decagon", "algebra", "noiter", "five",
              "mixed-decagon", "mixed-classic", "all")


def _law_reports(law, form: str, universe: TestUniverse) -> list[LawReport]:
    if isinstance(law, MixedLaw):
        table = {
            "mixed-decagon": lambda: check_mixed_decagon(law, universe),
            "mixed-classic": lambda: check_mixed_classic(law, universe),
        }
        forms = ["mixed-decagon", "mixed-classic"] if form == "all" else [form]
    else:
        alg = monoidal_to_algebra(law)

        def noiter():
            return check_noiter(algebra_to_noiter(alg), universe)

        table = {
            "monoidal": lambda: check_beck(law, universe),
            "decagon": lambda: check_decagon(law, universe),
            "algebra": lambda: check_algebra(alg, universe),
            "noiter": noiter,
            "five": lambda: check_five_axiom(alg.alpha, law.T, law.P, universe, name=law.name),
        }
        forms = ["monoidal", "decagon", "algebra", "noiter", "five"] if form == "all" else [form]
    missing = [f for f in forms if f not in table]
    if missing:
        raise ConfigError(f"form {missing[0]!r} does not apply to law {law.name!r}")
    return [table[f]() for f in forms]


def _report_json(command: str, universe: str, reports: list[LawReport],
                 extra: dict | None = None) -> dict:
    """The JSON report; ``exhaustive`` is false when any verdict skipped an
    instance."""
    verdicts = []
    witnesses = []
    for rep in reports:
        for v in rep.verdicts:
            row = {"law": rep.law, **v.as_dict()}
            witness = row.pop("witness", None)
            verdicts.append(row)
            if witness is not None:
                witnesses.append({"law": rep.law, "axiom": v.axiom, **witness})
    out = {
        "command": command,
        "universe": universe,
        "verdicts": verdicts,
        "witnesses": witnesses,
        "timing_ms": 0,
        "exhaustive": all(v["skipped"] == 0 for v in verdicts),
    }
    if extra:
        out.update(extra)
    return out


def _emit(payload: dict, summaries: list[str]) -> None:
    print(json.dumps(payload, sort_keys=True, indent=1))
    for line in summaries:
        print(line, file=sys.stderr)


@cache  # one parser per process: a build takes milliseconds, a share of a small check
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decagon",
        description="Finite-instance checks, conversions and searches for distributive laws of monads.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--registry", help="path to a JSON registry of monads and laws")
        p.add_argument("--max-size", type=int, default=2, choices=range(0, 4),
                       help="largest carrier size in the test universe")
        p.add_argument("--timing", action="store_true",
                       help="report wall-clock timing (breaks byte-identical output)")

    p = sub.add_parser("check-monad", help="run monad or comonad law suites")
    common(p)
    p.add_argument("--monad", required=True)
    p.add_argument("--form", choices=_MONAD_FORMS, default="all")

    p = sub.add_parser("check-law", help="run distributive-law axiom suites")
    common(p)
    p.add_argument("--law", required=True)
    p.add_argument("--form", choices=_LAW_FORMS, default="all")

    p = sub.add_parser("convert", help="convert between presentations and round-trip")
    common(p)
    p.add_argument("--law", required=True)
    p.add_argument("--from", dest="from_form", choices=("monoidal", "algebra", "noiter"),
                   default="monoidal")
    p.add_argument("--to", dest="to_form", choices=("monoidal", "algebra", "noiter"),
                   default="algebra")
    p.add_argument("--roundtrip", action="store_true")

    p = sub.add_parser("compose", help="build the composite monad and check it")
    common(p)
    p.add_argument("--law", required=True)

    p = sub.add_parser("extend-kleisli", help="extend along the law and check over Kleisli homs")
    common(p)
    p.add_argument("--law", required=True)

    p = sub.add_parser("search", help="brute-force candidate transformations")
    common(p)
    p.add_argument("--law", help="search the monad pair of a registered law")
    p.add_argument("--monad", action="append", default=[],
                   help="give twice: outer then inner monad")
    p.add_argument("--form", choices=("monoidal", "decagon", "algebra", "all"), default="all")
    p.add_argument("--budget", type=int, default=200_000)

    p = sub.add_parser("pasting-check", help="degenerate checks of the symbolic axioms")
    common(p)
    p.add_argument("--axiom", default="all")
    p.add_argument("--interpretation", default="exception-over-powerset",
                   help="law name or 'identity'")
    p.add_argument("--signature", help="path to a signature file")

    p = sub.add_parser("pasting-derive", help="run a construction builder and check boundaries")
    common(p)
    p.add_argument("--axiom", default="all",
                   help="Omega | pentagons | extension-cells | H | all")
    p.add_argument("--signature", help="path to a signature file")
    return parser


def _run_check_monad(args, monads, laws) -> tuple[int, dict, list[str]]:
    if args.monad not in monads:
        raise ConfigError(f"unknown monad {args.monad!r}")
    m = monads[args.monad]
    universe = TestUniverse.sizes(args.max_size)
    reports = []
    if isinstance(m, ComonadMonoidal):
        if args.form == "extensive":
            raise ConfigError(f"form 'extensive' does not apply to comonad {args.monad!r}")
        reports.append(check_comonad(m, universe))
    else:
        if args.form in ("monoidal", "all"):
            reports.append(check_monad_monoidal(m, universe))
        if args.form in ("extensive", "all"):
            reports.append(check_monad_extensive(monoidal_to_extensive(m), universe))
    ok = all(r.ok for r in reports)
    payload = _report_json("check-monad", universe.describe(), reports)
    return (0 if ok else 1), payload, [r.summary() for r in reports]


def _run_check_law(args, monads, laws) -> tuple[int, dict, list[str]]:
    law = _law(laws, args.law)
    universe = TestUniverse.sizes(args.max_size)
    reports = _law_reports(law, args.form, universe)
    ok = all(r.ok for r in reports)
    extra = {}
    if args.form == "all":
        extra["forms_agree"] = len({rep.ok for rep in reports}) <= 1
    payload = _report_json("check-law", universe.describe(), reports, extra=extra)
    return (0 if ok else 1), payload, [r.summary() for r in reports]


def _run_convert(args, monads, laws) -> tuple[int, dict, list[str]]:
    law = _law(laws, args.law, "mixed laws have no algebra or operator form")
    universe = TestUniverse.sizes(args.max_size)
    alg = monoidal_to_algebra(law)
    ok = True
    details: dict = {"from": args.from_form, "to": args.to_form}
    if args.roundtrip:
        if {args.from_form, args.to_form} == {"monoidal", "algebra"}:
            back = algebra_to_monoidal(alg)
            same = all(back.lam.component(X) == law.lam.component(X) for X in universe.objects)
        elif {args.from_form, args.to_form} == {"algebra", "noiter"}:
            ni = algebra_to_noiter(alg)
            back_alg = noiter_to_algebra(ni, universe, law.P)
            same = all(back_alg.alpha.component(X) == alg.alpha.component(X)
                       for X in universe.objects)
        else:
            raise ConfigError("round trips run monoidal<->algebra or algebra<->noiter")
        details["roundtrip_identity"] = same
        ok = same
    payload = _report_json("convert", universe.describe(), [], extra=details)
    return (0 if ok else 1), payload, [f"convert {args.law}: {details}"]


def _run_compose(args, monads, laws) -> tuple[int, dict, list[str]]:
    law = _law(laws, args.law, "mixed laws do not compose the monads")
    universe = TestUniverse.sizes(args.max_size)
    composite = compose_monads(monoidal_to_algebra(law))
    report = check_monad_monoidal(composite, universe)
    payload = _report_json("compose", universe.describe(), [report],
                           extra={"composite": composite.name})
    return (0 if report.ok else 1), payload, [report.summary()]


def _run_extend(args, monads, laws) -> tuple[int, dict, list[str]]:
    law = _law(laws, args.law, "mixed laws do not extend to the Kleisli category")
    universe = TestUniverse.sizes(args.max_size)
    ext = extend_to_kleisli(monoidal_to_algebra(law))
    report = check_monad_extensive(ext, universe)
    payload = _report_json("extend-kleisli", universe.describe(), [report])
    return (0 if report.ok else 1), payload, [report.summary()]


def _run_search(args, monads, laws) -> tuple[int, dict, list[str]]:
    if args.law and args.monad:
        raise ConfigError("search takes --law NAME or --monad T --monad P, not both")
    if args.law:
        law = _law(laws, args.law, "search handles monad-monad pairs only")
        T, Pm = law.T, law.P
        reference = law.lam
    elif len(args.monad) == 2:
        for name in args.monad:
            if name not in monads:
                raise ConfigError(f"unknown monad {name!r}")
        T, Pm = monads[args.monad[0]], monads[args.monad[1]]
        reference = None
    else:
        raise ConfigError("search needs --law NAME or --monad T --monad P")
    universe = TestUniverse.sizes(args.max_size)
    try:
        spec = SearchSpec(T, Pm, form=args.form, universe=universe, budget=args.budget)
        result = enumerate_candidates(spec)
    except (BudgetExceeded, OversizeCarrier, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    extra = {
        "note": result.note,
        "counts": {"raw": result.raw, "natural": result.natural, **result.per_axiom},
        "survivors": len(result.survivors),
        "forms_agree": result.forms_agree,
    }
    if reference is not None:
        extra["registered_among_survivors"] = any(
            candidate_matches(c, reference, universe) for c in result.survivors
        )
    payload = _report_json("search", universe.describe(), [], extra=extra)
    ok = result.forms_agree and (reference is None or extra["registered_among_survivors"])
    return (0 if ok else 1), payload, [f"search {result.spec_desc}: {extra['counts']}"]


def _interpretation_by_name(name: str, laws):
    from .pasting.evaluate import identity_interpretation, law_interpretation

    if name == "identity":
        return identity_interpretation()
    return law_interpretation(_law(laws, name, "mixed laws do not interpret the signature",
                                   kind="interpretation"))


def _load_signature(path: str | None):
    from .pasting.builtin import builtin_signature
    from .pasting.signature import parse_signature

    if not path:
        return builtin_signature()
    try:
        with open(path) as fh:
            return parse_signature(fh.read())
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load signature {path}: {exc}") from exc


def _run_pasting_check(args, monads, laws) -> tuple[int, dict, list[str]]:
    from .pasting.evaluate import DepthBoundExceeded, UnboundGenericArrow, check_axiom_degenerate

    sig = _load_signature(args.signature)
    if not sig.axioms:
        raise ConfigError("signature declares no axioms")
    interp = _interpretation_by_name(args.interpretation, laws)
    universe = TestUniverse.sizes(args.max_size)
    names = list(sig.axioms) if args.axiom == "all" else [args.axiom]
    for name in names:
        if name not in sig.axioms:
            raise ConfigError(f"unknown axiom {name!r}")
    try:
        reports = [check_axiom_degenerate(n, interp, universe, sig) for n in names]
    except (DepthBoundExceeded, UnboundGenericArrow) as exc:
        raise ConfigError(str(exc)) from exc
    ok = all(r.ok for r in reports)
    payload = _report_json("pasting-check", universe.describe(), reports)
    return (0 if ok else 1), payload, [r.summary() for r in reports]


def _run_pasting_derive(args, monads, laws) -> tuple[int, dict, list[str]]:
    from .pasting.builtin import (
        build_H,
        build_kleisli_extension_cells,
        build_omega_from_pentagons,
        build_pentagons_from_omega,
    )
    from .pasting.signature import term_to_text
    from .pasting.terms import boundary

    builders = {
        "Omega": (build_omega_from_pentagons, ["Omega"]),
        "pentagons": (build_pentagons_from_omega, ["omega4", "omega3"]),
        "extension-cells": (build_kleisli_extension_cells, ["phi", "theta", "delta"]),
        "H": (build_H, ["H"]),
    }
    sig = _load_signature(args.signature)
    if args.axiom != "all" and args.axiom not in builders:
        raise ConfigError(f"unknown derivation target {args.axiom!r}")
    results = {}
    for target, (build, cells) in builders.items():
        if args.axiom not in (target, "all"):
            continue
        # a user's signature may lack a cell the script pastes, or declare
        # one whose boundary the script's steps do not fit; the terms are
        # checked against the copy the builder extended with its interchangers
        work = sig.copy()
        try:
            terms = build(work)
            for cell, term in zip(cells, terms if len(cells) > 1 else [terms]):
                good = boundary(term, work) == (work.cells[cell].src, work.cells[cell].tgt)
                results[cell] = {"boundary_matches": good, "term": term_to_text(term)}
        except KeyError as exc:
            raise ConfigError(f"cannot derive {target}: no cell {exc.args[0]!r}") from exc
        except ValueError as exc:
            raise ConfigError(f"cannot derive {target}: {exc}") from exc
    ok = all(r["boundary_matches"] for r in results.values())
    payload = _report_json("pasting-derive", "-", [], extra={"derivations": results})
    return (0 if ok else 1), payload, [f"{k}: {'ok' if v['boundary_matches'] else 'FAIL'}"
                                       for k, v in results.items()]


_RUNNERS = {
    "check-monad": _run_check_monad,
    "check-law": _run_check_law,
    "convert": _run_convert,
    "compose": _run_compose,
    "extend-kleisli": _run_extend,
    "search": _run_search,
    "pasting-check": _run_pasting_check,
    "pasting-derive": _run_pasting_derive,
}


def run(argv: list[str]) -> int:
    try:
        args = make_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    t0 = time.monotonic()
    try:
        monads, laws = _load_registry(args.registry)
        code, payload, summaries = _RUNNERS[args.command](args, monads, laws)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3
    if args.timing:
        payload["timing_ms"] = int((time.monotonic() - t0) * 1000)
    _emit(payload, summaries)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()

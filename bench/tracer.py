"""Outside-in tracing of the decagon layers, from the benchmark's own files.

Modules copy names with ``from .x import f``, so a function is wrapped by
rebinding it in every ``decagon`` module that holds it.  Coarse boundaries
(commands, checkers, cells, composites, the search) become spans with a
parent id; leaf functions that run hundreds of thousands of times only get
a call count and a total time, so memory stays bounded.  Spans stay in
memory and are written out once, when the run ends.  Nothing under
``src/`` changes.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (metric prefix, defining module, function)
SPANS = [
    ("cli.run", "decagon.cli", "run"),
    ("distlaw.builtin_laws", "decagon.distlaw", "builtin_laws"),
    ("monads.builtin_monads", "decagon.monads", "builtin_monads"),
    ("pasting.builtin_signature", "decagon.pasting.builtin", "builtin_signature"),
    ("distlaw.check_beck", "decagon.distlaw", "check_beck"),
    ("distlaw.check_decagon", "decagon.distlaw", "check_decagon"),
    ("distlaw.check_algebra", "decagon.distlaw", "check_algebra"),
    ("distlaw.check_noiter", "decagon.distlaw", "check_noiter"),
    ("distlaw.check_five_axiom", "decagon.distlaw", "check_five_axiom"),
    ("distlaw.check_mixed_decagon", "decagon.distlaw", "check_mixed_decagon"),
    ("distlaw.check_mixed_classic", "decagon.distlaw", "check_mixed_classic"),
    ("monads.check_monad_monoidal", "decagon.monads", "check_monad_monoidal"),
    ("monads.check_monad_extensive", "decagon.monads", "check_monad_extensive"),
    ("monads.check_comonad", "decagon.monads", "check_comonad"),
    ("monads.check_category", "decagon.monads", "check_category"),
    ("search.enumerate_candidates", "decagon.search", "enumerate_candidates"),
    ("pasting.check_axiom_degenerate", "decagon.pasting.evaluate", "check_axiom_degenerate"),
    ("pasting.evaluate_cell", "decagon.pasting.evaluate", "evaluate_cell"),
    ("transforms.composite_map", "decagon.transforms", "composite_map"),
]

COUNTERS = [
    ("elements.subset", "decagon.elements", "subset"),
    ("elements.compose", "decagon.elements", "compose"),
    ("functors.apply_elem", "decagon.functors", "apply_elem"),
    ("functors.apply_mor", "decagon.functors", "apply_mor"),
    ("functors.compiled_action", "decagon.functors", "compiled_action"),
    ("search.check_naturality", "decagon.transforms", "check_naturality"),
]

# Spans whose time is the checkers' work inside a CLI command.
CHECKERS = {name for name, _, _ in SPANS
            if ".check_" in name or name == "search.enumerate_candidates"}

# The cells that M1, M2, I1 and I2 of the built-in signature use.
PASTING_CELLS = [
    "Psi", "assoc-P", "psi1", "psi2", "unit-l-P", "unit-r-T", "xc-alpha-P-alpha",
    "xc-alpha-PT-h", "xc-alpha-e-g", "xc-alpha-e-h", "xc-alpha-e-mu", "xc-eta-T-g",
    "xc-eta-e-alpha", "xc-eta-e-u", "xc-mu-T-h", "xc-mu-e-alpha", "xc-u-e-g",
]

_REFUSALS = ("OversizeCarrier", "ComponentUnavailable")


class Tracer:
    """Span and counter store; ``active`` is False while a negative control
    runs, so the layer figures describe the workload's own work."""

    def __init__(self):
        self.active = True
        self.spans: list[list] = []  # [id, parent, name, start, end, info, error]
        self.counts: dict[str, list] = {}  # name -> [calls, seconds, depth]
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every listed function in every loaded ``decagon`` module."""
        for mod in ("decagon", "decagon.cli", "decagon.pasting", "decagon.pasting.evaluate"):
            importlib.import_module(mod)
        for kind, table in (("span", SPANS), ("count", COUNTERS)):
            for metric, modname, fname in table:
                original = getattr(sys.modules[modname], fname)
                wrapped = (self._span(metric, original) if kind == "span"
                           else self._count(metric, original))
                for name, mod in list(sys.modules.items()):
                    if name.split(".")[0] == "decagon" and getattr(mod, fname, None) is original:
                        setattr(mod, fname, wrapped)

    def _span(self, metric, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [len(spans), stack[-1] if stack else -1, metric, perf_counter(), 0.0, None, None]
            if metric == "pasting.evaluate_cell":
                rec[5] = args[0].name
            spans.append(rec)
            stack.append(rec[0])
            try:
                out = fn(*args, **kwargs)
                if metric == "transforms.composite_map":
                    rec[5] = len(out)
                return out
            except BaseException as exc:
                rec[6] = type(exc).__name__
                raise
            finally:
                rec[4] = perf_counter()
                stack.pop()

        return wrapper

    def _count(self, metric, fn):
        stat = self.counts[metric] = [0, 0.0, 0]

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stat[0] += 1
            if stat[2]:  # recursive call: the outermost call holds the time
                return fn(*args, **kwargs)
            stat[2] = 1
            t = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                stat[1] += perf_counter() - t
                stat[2] = 0

        return wrapper

    # --- results -------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its direct children cover."""
        own = [s[4] - s[3] for s in self.spans]
        for s in self.spans:
            if s[1] >= 0:
                own[s[1]] -= s[4] - s[3]
        return own

    def metrics(self, caches: dict) -> dict:
        """The per-layer metrics of BENCHMARK.json, by name."""
        total: dict[str, float] = {}
        for s in self.spans:
            total[s[2]] = total.get(s[2], 0.0) + s[4] - s[3]
        out = {
            "elements.key_cache.entries": caches["key_cache"],
            "functors.obj_cache.entries": caches["obj_cache"],
        }
        for metric, (n, secs, _) in self.counts.items():
            out[f"{metric}.calls"] = n
            out[f"{metric}.s"] = secs
        del out["functors.compiled_action.s"]
        for metric in ("distlaw.check_beck", "distlaw.check_decagon", "distlaw.check_algebra",
                       "distlaw.check_noiter", "distlaw.check_five_axiom",
                       "monads.check_monad_monoidal", "monads.check_monad_extensive",
                       "search.enumerate_candidates", "pasting.builtin_signature",
                       "distlaw.builtin_laws", "cli.run"):
            out[f"{metric}.s"] = total.get(metric, 0.0)

        cm = [s for s in self.spans if s[2] == "transforms.composite_map"]
        elements = sum(s[5] or 0 for s in cm)
        cm_s = total.get("transforms.composite_map", 0.0)
        out["transforms.composite_map.calls"] = len(cm)
        out["transforms.composite_map.s"] = cm_s
        out["transforms.composite_map.source_elements"] = elements
        out["transforms.composite_map.largest_source"] = max((s[5] or 0 for s in cm), default=0)
        out["transforms.composite_map.refused"] = sum(s[6] in _REFUSALS for s in cm)
        out["transforms.composite_map.us_per_element"] = cm_s / elements * 1e6 if elements else 0.0

        cells = [s for s in self.spans if s[2] == "pasting.evaluate_cell"]
        distinct = {s[5] for s in cells}
        out["pasting.evaluate_cell.calls"] = len(cells)
        out["pasting.evaluate_cell.distinct"] = len(distinct)
        out["pasting.evaluate_cell.distinct_ratio"] = len(distinct) / len(cells) if cells else 0.0
        out["pasting.evaluate_cell.s"] = total.get("pasting.evaluate_cell", 0.0)
        for name in PASTING_CELLS:
            out[f"pasting.cell.{name}.s"] = sum((s[4] - s[3] for s in cells if s[5] == name), 0.0)

        checker_time = 0.0
        for s in self.spans:
            if s[2] in CHECKERS and s[1] >= 0 and self.spans[s[1]][2] == "cli.run":
                checker_time += s[4] - s[3]
        out["cli.overhead_s"] = total.get("cli.run", 0.0) - checker_time
        return out

    def summary(self) -> dict:
        """Calls, inclusive and self seconds per span name, and the counters."""
        by_name: dict[str, list] = {}
        for s, own in zip(self.spans, self.self_times()):
            row = by_name.setdefault(s[2], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s[4] - s[3]
            row[2] += own
        return {
            "spans": {k: {"calls": v[0], "s": v[1], "self_s": v[2]} for k, v in by_name.items()},
            "counters": {k: {"calls": v[0], "s": v[1]} for k, v in self.counts.items()},
        }

    def write(self, path: str) -> None:
        own = self.self_times()
        with open(path, "w") as fh:
            json.dump({
                "summary": self.summary(),
                "spans": [{"id": s[0], "parent": s[1], "name": s[2], "start": s[3],
                           "end": s[4], "self_s": o, "info": s[5], "error": s[6]}
                          for s, o in zip(self.spans, own)],
            }, fh)

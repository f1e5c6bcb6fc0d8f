"""decagon benchmark: time to a verdict table, peak RSS and verdict correctness.

    python3 bench/run.py --workload law-forms --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout.  Set-up is timed in several fresh
processes and reported as the median.  Each repetition of the workload then
runs in its own fresh process, one at a time, until ``--seconds`` is used up
(at least one).  Every verdict row is checked against the known answers in
``bench/expected.json``.  With ``--trace 1`` repetitions alternate between
untraced and traced processes, and the per-layer metrics come from the
traced ones; end-to-end figures never do.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_RUNS = 12
DEADLINE_S = 170.0  # a whole run must end well within 180 s


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def run_child(args: list[str], timeout: float) -> dict:
    """Run one fresh child process to completion and return its record."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{' '.join(args)}: no result within {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(args)}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def load_expected(quick: bool) -> dict:
    with open(HERE / "expected.json") as fh:
        return json.load(fh)["quick" if quick else "full"]


def measure(workload: str, seed: int, seconds: float, trace: bool, quick: bool,
            t_start: float) -> dict:
    """Set-up runs, then repetitions until the budget is used up."""
    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - t_start)

    def setups() -> list[float]:
        return [run_child(["setup"], remaining())["setup_s"] for _ in range(SETUP_RUNS // 2)]

    run_child(["setup"], remaining())  # compiles bytecode; not measured
    setup = setups()

    base = ["workload", workload, "--seed", str(seed)] + (["--quick"] if quick else [])
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload}-seed{seed}.json"
    plain, traced = [], []
    deadline = time.monotonic() + seconds
    while True:
        t = time.monotonic()
        plain.append(run_child(base, remaining()))
        if trace:
            traced.append(run_child(base + ["--trace-out", str(trace_path)], remaining()))
        step = time.monotonic() - t
        if time.monotonic() + step > deadline or remaining() < 2 * step:
            break
    setup += setups()  # half after the repetitions, so set-up samples a wider span of time
    return {"setup": setup, "plain": plain, "traced": traced, "trace_path": trace_path}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="carriers up to size 1 instead of 2 (self-test)")
    args = parser.parse_args()
    t_start = time.monotonic()
    if not (ROOT / "src" / "decagon" / "__init__.py").is_file():
        print(f"error: no decagon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    load = os.getloadavg()
    try:
        units = {section: _units(section) for section in ("end_to_end", "per_layer")}
        expected = load_expected(args.quick)[args.workload]
        m = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.quick, t_start)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    cmds = workloads.commands(args.workload, args.quick)
    attempted = failed = 0
    problems: list[str] = []
    for rec in m["plain"] + m["traced"]:
        a, f, p = workloads.score(cmds, rec["results"], expected)
        attempted += a
        failed += f
        problems.extend(p)

    wall = statistics.median(r["wall_s"] for r in m["plain"])
    print(f"workload {args.workload} seed {args.seed} quick {args.quick} "
          f"order: {[c.name for c in workloads.ordered(cmds, args.seed)]}")
    print(f"machine: nproc {os.cpu_count()} python {platform.python_version()} "
          f"loadavg at start {load[0]:.2f} {load[1]:.2f} {load[2]:.2f}")
    print(f"setup_s runs: {[round(s, 4) for s in m['setup']]}")
    for i, r in enumerate(m["plain"]):
        print(f"repetition {i}: wall_s {r['wall_s']:.4f} cpu_s {r['cpu_s']:.4f} "
              f"peak_rss_mb {r['peak_rss_mb']:.2f} "
              f"caches at end {r['caches']}")
    print("verdict rows:")
    for line in workloads.format_rows(cmds, m["plain"][0]["results"]):
        print(f"  {line}")
    for p in sorted(set(problems)):
        print(f"FAILED: {p}")
    print(f"failed_share {failed / attempted:.6f} ({failed} of {attempted} rows)")

    if args.trace:
        layers = {}
        for name in m["traced"][0]["layers"]:
            layers[name] = statistics.median(r["layers"][name] for r in m["traced"])
        layers["trace.overhead_ratio"] = statistics.median(
            r["wall_s"] for r in m["traced"]) / wall
        summary = m["traced"][-1]["trace_summary"]
        print("spans by self time (last traced repetition):")
        for name, sp in sorted(summary["spans"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name}: calls {sp['calls']} s {sp['s']:.4f} self_s {sp['self_s']:.4f}")
        print("counters:")
        for name, c in summary["counters"].items():
            print(f"  {name}: calls {c['calls']} s {c['s']:.4f}")
        print(f"spans written to {m['trace_path'].relative_to(ROOT)}")
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in units["per_layer"]}
    else:
        values = {
            "setup_s": statistics.median(m["setup"]),
            "wall_s": wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in m["plain"]),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units["end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _units(section: str) -> list[tuple[str, str]]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[section]]


if __name__ == "__main__":
    sys.exit(main())

"""One fresh benchmark process: either set-up only, or one workload repetition.

    python3 bench/child.py setup
    python3 bench/child.py workload NAME --seed N [--quick] [--trace-out PATH]

Prints one JSON record on its last line of standard output.  The program's
own reports are captured in memory, so they never reach that stream.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def _setup(tracer=None) -> float:
    """Import decagon and build the registries and the parsed signature;
    return the seconds this took."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import decagon

    if not Path(decagon.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"decagon imported from {decagon.__file__}, not from {SRC}")
    if tracer is not None:
        tracer.install()
    from decagon.pasting import builtin_signature

    decagon.builtin_laws()
    decagon.builtin_monads()
    builtin_signature()
    return time.perf_counter() - t0


def _workload(args) -> dict:
    import workloads

    tracer = None
    if args.trace_out:
        from tracer import Tracer

        tracer = Tracer()
    _setup(tracer)
    size = workloads.QUICK_SIZE if args.quick else workloads.FULL_SIZE
    cmds = workloads.commands(args.name, args.quick)
    shared = []

    def context():
        if not shared:
            shared.append(workloads.Context(size))
        return shared[0]

    outcomes = {}
    start, cpu_start = time.perf_counter(), time.process_time()
    for cmd in workloads.ordered(cmds, args.seed):
        if tracer is not None:
            tracer.active = not cmd.control
        try:
            outcomes[cmd.name] = workloads.execute(cmd, context)
        except Exception as exc:  # a failing command is scored, not fatal
            outcomes[cmd.name] = {"error": f"{type(exc).__name__}: {exc}"}
    wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start

    from decagon import elements, functors

    record = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "caches": {"key_cache": len(elements._KEY_CACHE), "obj_cache": len(functors._OBJ_CACHE)},
        "results": {c.name: workloads.rows_of(c, outcomes[c.name]) for c in cmds},
    }
    if tracer is not None:
        tracer.active = False
        record["layers"] = tracer.metrics(record["caches"])
        record["trace_summary"] = tracer.summary()
        tracer.write(args.trace_out)
    return record


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    w = sub.add_parser("workload")
    w.add_argument("name")
    w.add_argument("--seed", type=int, required=True)
    w.add_argument("--quick", action="store_true")
    w.add_argument("--trace-out")
    args = parser.parse_args()
    record = {"setup_s": _setup()} if args.mode == "setup" else _workload(args)
    print(json.dumps(record))


if __name__ == "__main__":
    main()

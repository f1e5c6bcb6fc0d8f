"""Self-test of the benchmark, kept out of the test suite.

    python3 bench/selftest.py

Runs every workload in quick mode (carriers up to size 1) and checks that:
every metric of BENCHMARK.json is printed with its unit, traced or not; a
deliberately altered expected row is reported as a failure; two quick runs
with different seeds print identical verdict rows; and a directory holding
only BENCHMARK.json and bench/ exits non-zero without a result.  Takes
about half a minute.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import workloads
from run import HERE, OUT, ROOT, load_expected, run_child


def bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def verdict_rows(stdout: str) -> list[str]:
    lines = stdout.splitlines()
    rows = []
    for line in lines[lines.index("verdict rows:") + 1:]:
        if not line.startswith("  "):
            break
        rows.append(line)
    return rows


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = load_expected(quick=True)
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    for workload in workloads.WORKLOADS:
        tables = []
        for seed, trace, section in ((1, "0", "end_to_end"), (2, "1", "per_layer")):
            proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                         "--trace", trace, "--quick")
            check(proc.returncode == 0, f"{workload} trace {trace}: exit 0 ({proc.stderr[-500:]})")
            if proc.returncode != 0:
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, f"{workload} trace {trace}: every {section} metric with its unit")
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace {trace}: all verdict rows correct")
            tables.append(verdict_rows(proc.stdout))
        check(len(tables) == 2 and tables[0] == tables[1] and tables[0],
              f"{workload}: two quick runs print identical verdict rows")

        cmds = workloads.commands(workload, quick=True)
        results = run_child(["workload", workload, "--seed", "3", "--quick"], 120)["results"]
        check(workloads.score(cmds, results, expected[workload])[1] == 0,
              f"{workload}: rows match the known answers")
        for i in (0, len(expected[workload]) - 1):
            altered = copy.deepcopy(expected[workload])
            res = altered[i]["result"]
            if "checked" in res:
                res["checked"] += 1
            else:
                res["value"] = "altered"
            failed = workloads.score(cmds, results, altered)[1]
            check(failed == 1, f"{workload}: altered expected row {i} is reported as a failure")

    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "law-forms", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    check(proc.returncode != 0 and '"metrics"' not in proc.stdout,
          "without the sources: non-zero exit and no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Record the known verdict rows of every workload into bench/expected.json.

    python3 bench/record_expected.py

Run on a commit whose verdicts are trusted.  checked and skipped are kept
as coverage guards, so a later run that evaluates fewer instances fails.
The benchmark also enforces, whatever this file says, that registered laws
and monads pass and that negative controls fail with their witnesses.
"""

import json

import workloads
from run import HERE, run_child


def main() -> None:
    out = {}
    for mode, flag in (("full", []), ("quick", ["--quick"])):
        out[mode] = {}
        for name in workloads.WORKLOADS:
            rec = run_child(["workload", name, "--seed", "0", *flag], timeout=600)
            cmds = workloads.commands(name, mode == "quick")
            out[mode][name] = [r for c in cmds for r in rec["results"][c.name]["rows"]]
            errors = {c: r["error"] for c, r in rec["results"].items() if r["error"]}
            if errors:
                raise SystemExit(f"{name} ({mode}): commands failed: {errors}")
    with open(HERE / "expected.json", "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()

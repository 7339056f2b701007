"""Record the reference outputs every benchmark run is compared against.

    python3 perfbench/record_reference.py

Runs each workload once at every recorded master seed (the default 16, the
held-out 61 and 17..25) and writes perfbench/reference.json. Re-record only
when a change to the program's outputs has been shown to be correct.
"""

import json
import sys

from run import RECORDED_SEEDS, REFERENCE, WORKLOADS, Workload, invoke

# math.isclose(got, ref, rel_tol=rtol, abs_tol=atol) for every numeric records.csv cell.
TOLERANCE = {"rtol": 1e-3, "atol": 1e-9}

KEPT = ("exit_code", "records", "verdicts", "counts", "records_sha256")


def main():
    reference = {"tolerance": TOLERANCE, "workloads": {}}
    for name in WORKLOADS:
        table = reference["workloads"][name] = {}
        for seed in RECORDED_SEEDS:
            run = invoke(Workload(name, seed))
            if run.get("crashed"):
                sys.exit(f"{name} seed {seed} crashed: {run['problems']}")
            table[str(seed)] = {key: run["outputs"][key] for key in KEPT}
            print(f"{name} seed {seed}: rc={run['rc']} wall={run['wall_s']:.2f}s", flush=True)
    REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    main()

"""Record bench/reference.json from one pass of each workload at the default seed.

    python3 bench/record_reference.py

It stores the sha256 of every report, or the exit status of a job that
produced none.  Record again only in a change that means to alter reports.
"""

import json

from jobs import DEFAULT_SEED, WORKLOADS, generate
from run import REFERENCE, collect, job_key


def main() -> None:
    reports = {}
    for workload in WORKLOADS:
        jobs = generate(workload, DEFAULT_SEED)
        run, _ = collect(workload, DEFAULT_SEED, seconds=0, trace=0)
        for ex in run.executions:
            reports[job_key(jobs[ex.job])] = (
                {"sha256": ex.sha256} if ex.status == 0 else {"exit": ex.status}
            )
    REFERENCE.write_text(json.dumps({"seed": DEFAULT_SEED, "reports": reports}, indent=1) + "\n")


if __name__ == "__main__":
    main()

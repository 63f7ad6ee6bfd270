"""Record golden.json: the SHA-256 of every seed-independent job output.

Run from the checkout root as ``python3 bench/record_golden.py``, only on a
commit whose outputs are known to be right; the benchmark compares every
later run with this file.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import import_cli, run_job, workdir  # noqa: E402
from workloads import (  # noqa: E402
    GOLDEN,
    GOLDEN_PATH,
    GOLDEN_SEEDED,
    WORKLOADS,
    digest,
    golden_text,
    make_workload,
)


def main() -> int:
    cli = import_cli()
    golden = {}
    for name in WORKLOADS:
        for job in make_workload(name, 0, workdir(name, 0)).jobs:
            if job.check not in (GOLDEN, GOLDEN_SEEDED):
                continue
            _, rc, text = run_job(cli, job)
            if rc != 0:
                print(f"{job.name}: exit code {rc}", file=sys.stderr)
                return 1
            golden[job.golden_key] = digest(golden_text(job, text))
            print(f"recorded {job.golden_key}", file=sys.stderr)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write reference.json: the digest of every job's output at the reference seed.

    python3 bench/make_reference.py

A digest covers a job's JSON output with every ``millis`` field removed.
The pinned commands' digests are checked at every seed, the jobs' at the
reference seed only.
Regenerate only when a change is meant to alter what tdpair prints.
"""

from __future__ import annotations

import json

import run
from workloads import WORKLOADS


def main() -> int:
    digests = {}
    for name, workload in WORKLOADS.items():
        passes, errors, _, _ = run.timed_run(workload, run.REFERENCE_SEED, 0, None, setup_repeats=1)
        if errors:
            raise SystemExit(f"{name}: {errors}")
        pinned, first = passes[:2]
        digests[name] = {o.job.label: o.digest for o in pinned + first}
    run.REFERENCE_FILE.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

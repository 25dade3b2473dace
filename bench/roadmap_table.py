"""Reproduce ROADMAP's baseline table from traced runs; record the environment.

    python3 bench/roadmap_table.py [--seed 1]

For each ROADMAP shape, (3,2), (2,2,1), (4,3) and (3,3,2), one
``tdpair verify --format json`` job on ``random_valid_parameters(shape, seed)``
runs untraced and then traced.  The row holds the dimension, the untraced
job time, the suite time (the traced ``run_suite`` span) and the share of
that suite spent in ``overlap_consistency``.  The table and the run
environment (nproc, Python, CPU model, commit) go into ``bench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
from math import prod

import run
import tracing
from workloads import Job

SHAPES = ((3, 2), (2, 2, 1), (4, 3), (3, 3, 2))


def environment() -> dict:
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu_model": cpu,
        "commit": commit,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    jobs = []
    for shape in SHAPES:
        path = run.OUT / "roadmap" / f"{'x'.join(map(str, shape))}-s{args.seed}.json"
        jobs.append(Job(shape, args.seed, path, ("verify", "--params", str(path), "--format", "json"), str(shape)))
    run.setup(jobs)
    cli, clears = run.import_cli()
    rows = []
    for job in jobs:
        shape = job.shape
        [plain] = run.run_pass(cli, clears, [job])
        with tracing.installed(tracing.Tracer()) as tracer:
            [traced] = run.run_pass(cli, clears, [job])
        for outcome in (plain, traced):
            if outcome.error is not None:
                raise SystemExit(f"{shape}: {outcome.error}")
        suite = next(s for s in tracer.spans if s.name == "verify.run_suite")
        overlap = tracing.layer_metrics(tracer)["verify.check.overlap_consistency.s"]
        row = {
            "shape": list(shape),
            "dim": prod(n + 1 for n in shape),
            "job_s_untraced": round(plain.seconds, 4),
            "suite_s_traced": round(suite.end - suite.start, 4),
            "overlap_consistency_share": round(overlap / (suite.end - suite.start), 4),
        }
        rows.append(row)
        print(json.dumps(row), flush=True)

    baseline_file = run.BENCH / "baseline.json"
    baseline = json.loads(baseline_file.read_text()) if baseline_file.exists() else {}
    baseline["environment"] = environment()
    baseline["roadmap_table"] = {"seed": args.seed, "rows": rows}
    baseline_file.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

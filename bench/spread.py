"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload overlap_routes --seeds 1-10 [--save]

Runs ``run.py --trace 0`` once per seed, one run at a time, with the
``run_seconds`` of ``BENCHMARK.json``, and prints for every end-to-end metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread (Q3 - Q1) / median next to the metric's bound.  ``--save`` records
the values and the summary under ``end_to_end`` in ``bench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BASELINE = BENCH / "baseline.json"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--save", action="store_true")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, *spec["command"][1:], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            raise SystemExit(f"seed {seed}: run not correct: {done.stderr}")
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={v[-1]:.4f}" for n, v in values.items()), flush=True)

    summary = {}
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                              "bound": m["bound"], "values": vals}
        print(f"{m['name']}: median {med:.4f} {m['unit']}, spread {(q3 - q1) / med:.4f} (bound {m['bound']})")
    if args.save:
        baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
        baseline.setdefault("end_to_end", {})[args.workload] = {"seeds": args.seeds, "metrics": summary}
        BASELINE.write_text(json.dumps(baseline, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

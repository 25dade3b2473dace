"""The tdpair benchmark: seeded CLI workloads, timed end to end or traced.

    python3 bench/run.py --workload overlap_routes --seed 1 --seconds 40 --trace 0

Run from the repository root.  One run is one fresh interpreter:

1. Set-up: ``bench/prepare.py`` runs as its own process (interpreter
   start, ``import tdpair`` compiled from source, seeded sampling, writing
   the ``--params`` files); ``setup_s`` is its CPU time less the
   validations of draws the sampler rejected, at the reference speed (see
   3).  It runs in rounds of at least ``SETUP_ROUND_S`` seconds, before the
   passes and after each pass, at least ``SETUP_REPEATS`` times in all, so
   its samples span the run as the passes do; ``setup_s`` is their median.
2. Pinned commands: the workload's small ``overlap`` and ``build`` runs at
   ``REFERENCE_SEED`` run once, untimed; their output must hash to the
   digest in ``reference.json`` at every seed.
3. Passes: every job of the workload is one in-process ``tdpair.cli.main``
   call, one after another, on one thread, with ``TDPAIR_THREADS`` unset.
   Before each pass the package's ``functools`` caches are cleared, so every
   pass starts cold, as a CLI process does.  With ``--trace 0`` passes and
   set-ups alternate until ``--seconds`` have gone by.  Times are CPU times
   at the reference speed of ``calibrate.py``, whose kernel is sampled
   every ``calibrate.INTERVAL_S`` of CPU time in the middle of the jobs: on a
   shared virtual machine the same work took from one to two times as much
   CPU time, from run to run and from second to second, and steal time
   swung the wall time further.  ``pass_s`` sums each job's median over the
   passes and ``largest_job_s`` is the largest shape's median.  Plain CPU
   and wall times are printed, not gated.
   With ``--trace 1``, ``TRACED_PASSES`` untraced passes alternate with as
   many traced ones, whose exact counts must agree; the overhead is the
   traced mean over the untraced mean.  ``--seconds`` is unused there.
4. Checks: a job fails when it raises, exits non-zero, reports a
   non-skipped check other than pass, differs between passes, or, at
   ``REFERENCE_SEED``, differs from the digest in ``reference.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
repeat every metric by name with its unit.  The exit status is 1 when the
run is not correct.  Spans of the first traced pass
go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import calibrate
import tracing
from workloads import WORKLOADS, Job, Workload, jobs_for, pinned_jobs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REFERENCE_FILE = BENCH / "reference.json"
REFERENCE_SEED = 1
SETUP_REPEATS = 5
SETUP_ROUND_S = 1.0
TRACED_PASSES = 2


@dataclass
class Outcome:
    job: Job
    seconds: float
    cpu: float
    digest: Optional[str]
    error: Optional[str]
    scaled: Optional[float] = None  # CPU time at the reference speed


# ---------------------------------------------------------------------------
# set-up


def setup(jobs: list[Job]) -> float:
    """Run ``prepare.py`` once; return its CPU time less the validations of
    rejected draws, at the reference speed.  Raises if it fails."""
    env = {k: v for k, v in os.environ.items() if k != "TDPAIR_THREADS"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every set-up compiles tdpair alike
    cmd = [sys.executable, str(BENCH / "prepare.py")]
    for path, job in {job.path: job for job in jobs}.items():
        cmd += [str(path), str(job.seed), ",".join(map(str, job.shape))]
    done = subprocess.run(cmd, check=True, env=env, cwd=ROOT, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def setup_round(jobs: list[Job]) -> list[float]:
    """Set up once, then again until ``SETUP_ROUND_S`` seconds have gone by:
    a short set-up is measured more often, to the same precision."""
    start = tracing.clock()
    times = [setup(jobs)]
    while tracing.clock() - start < SETUP_ROUND_S:
        times.append(setup(jobs))
    return times


def import_cli():
    """Import tdpair from ``src/``; return the cli module and the package's
    cache-clearing functions, collected before any tracing wraps them."""
    os.environ.pop("TDPAIR_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    import tdpair.cli

    clears = {}
    for name, mod in list(sys.modules.items()):
        if name == "tdpair" or name.startswith("tdpair."):
            for value in vars(mod).values():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clears[id(value)] = clear
    return tdpair.cli, list(clears.values())


# ---------------------------------------------------------------------------
# one pass


def _without_millis(obj):
    if isinstance(obj, dict):
        return {k: _without_millis(v) for k, v in obj.items() if k != "millis"}
    if isinstance(obj, list):
        return [_without_millis(v) for v in obj]
    return obj


def judge(status, stdout: str, stderr: str) -> tuple[Optional[str], Optional[str]]:
    """(digest of the output without millis, error) for one finished job."""
    if status != 0:
        return None, f"exit status {status}: {stderr.strip()[:300]}"
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError as err:
        return None, f"output is not JSON: {err}"
    bad = [c["check"] for c in doc.get("checks", ()) if c["pass"] not in (True, None)]
    if bad or doc.get("pass", True) is not True:
        return None, f"checks not passing: {bad}"
    canonical = json.dumps(_without_millis(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest(), None


def run_pass(cli, clears, jobs: list[Job], sampler: Optional[calibrate.Sampler] = None) -> list[Outcome]:
    """Run every job once from cold caches.  With an active ``sampler``,
    each job's CPU time excludes the sampler's and is also scaled to the
    reference speed."""
    for clear in clears:
        clear()
    finished = []
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        mark = sampler.mark() if sampler else None
        start, cpu_start = tracing.clock(), time.process_time()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = cli.main(list(job.argv))
        except Exception as exc:  # a crashing job is a failed job, not a failed run
            status = f"raised {exc!r}"
        wall, cpu, scaled = tracing.clock() - start, time.process_time() - cpu_start, None
        if sampler:
            cpu, scaled = sampler.own(cpu, mark), sampler.scaled(cpu, mark)
        finished.append((job, wall, cpu, scaled, status, out.getvalue(), err.getvalue()))
    return [Outcome(job, wall, cpu, *judge(status, o, e), scaled) for job, wall, cpu, scaled, status, o, e in finished]


def pass_seconds(outcomes: list[Outcome]) -> float:
    return sum(o.seconds for o in outcomes)


def pass_cpu(outcomes: list[Outcome]) -> float:
    return sum(o.cpu for o in outcomes)


def scaled_pass(passes: list[list[Outcome]]) -> float:
    """Sum over the jobs of each job's median scaled time over the passes."""
    return sum(statistics.median(p[k].scaled for p in passes) for k in range(len(passes[0])))


def scaled_largest(workload: Workload, passes: list[list[Outcome]]) -> float:
    return statistics.median(o.scaled for p in passes for o in p if o.job.shape == workload.largest)


def gate(passes: list[list[Outcome]], reference: Optional[dict]) -> list[str]:
    """Turn outputs that differ between passes, or from the reference
    digests, into job errors; return every error of the run."""
    first = {o.job.label: o.digest for o in passes[0]}
    errors = []
    for outcomes in passes:
        for o in outcomes:
            if o.error is None and reference is not None and reference.get(o.job.label) != o.digest:
                o.error = "digest differs from reference.json"
            elif o.error is None and o.digest != first[o.job.label]:
                o.error = "output differs from the first pass"
            if o.error is not None:
                errors.append(f"{o.job.label}: {o.error}")
    return errors


# ---------------------------------------------------------------------------
# whole runs


def load_reference(workload: Workload) -> dict:
    return json.loads(REFERENCE_FILE.read_text()).get(workload.name, {})


def checked_passes(cli, clears, workload: Workload, seed: int, passes: list, reference) -> tuple[list, list[str]]:
    """Run the pinned commands once, untimed, and gate them and ``passes``.
    ``reference`` maps labels to digests, or is None to gate nothing
    against it; the jobs' own digests apply at ``REFERENCE_SEED`` only.
    Returns every pass, the pinned one first, and every error."""
    pinned = run_pass(cli, clears, pinned_jobs(workload, REFERENCE_SEED))
    errors = gate([pinned], reference)
    errors += gate(passes, reference if seed == REFERENCE_SEED else None)
    return [pinned, *passes], errors


def timed_run(workload: Workload, seed: int, seconds: float, reference, setup_repeats=SETUP_REPEATS):
    jobs = jobs_for(workload, seed, OUT / f"{workload.name}-s{seed}")
    start = tracing.clock()
    setups = setup_round(jobs)
    cli, clears = import_cli()
    passes = []
    while not passes or tracing.clock() - start < seconds:
        with calibrate.Sampler() as sampler:
            passes.append(run_pass(cli, clears, jobs, sampler))
        setups += setup_round(jobs)
    while len(setups) < setup_repeats:
        setups.append(setup(jobs))
    all_passes, errors = checked_passes(cli, clears, workload, seed, passes, reference)
    metrics = {
        "pass_s": (scaled_pass(passes), "s"),
        "largest_job_s": (scaled_largest(workload, passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = [
        f"passes: {len(passes)}",
        *(f"pass {k}: {sum(o.scaled for o in p):.4f} s scaled, {pass_cpu(p):.4f} s CPU, "
          f"{pass_seconds(p):.4f} s wall" for k, p in enumerate(passes)),
        "set-ups: " + " ".join(f"{t:.4f}" for t in setups) + " s scaled",
    ]
    return all_passes, errors, metrics, notes


def traced_run(workload: Workload, seed: int, reference):
    jobs = jobs_for(workload, seed, OUT / f"{workload.name}-s{seed}")
    setup(jobs)
    cli, clears = import_cli()
    untraced, traced, layer_runs, tracers = [], [], [], []
    for _ in range(TRACED_PASSES):  # alternate, so drift hits both kinds alike
        untraced.append(run_pass(cli, clears, jobs))
        with tracing.installed(tracing.Tracer()) as tracer:
            traced.append(run_pass(cli, clears, jobs))
        tracers.append(tracer)
        layer_runs.append(tracing.layer_metrics(tracer))
    passes, errors = checked_passes(cli, clears, workload, seed, untraced + traced, reference)
    for name, value in layer_runs[0].items():
        if tracing.is_exact(name) and any(other[name] != value for other in layer_runs[1:]):
            errors.append(f"count {name} differs between traced passes: {[r[name] for r in layer_runs]}")
    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"trace-{workload.name}-s{seed}.json"
    spans_file.write_text(json.dumps(tracers[0].to_json_obj()))

    units = dict(tracing.PER_LAYER)
    metrics = {
        name: (value if tracing.is_exact(name) else statistics.fmean(r[name] for r in layer_runs), units[name])
        for name, value in layer_runs[0].items()
    }
    untraced_s = statistics.fmean(pass_seconds(p) for p in untraced)
    traced_s = statistics.fmean(pass_seconds(p) for p in traced)
    metrics["trace.wall_s"] = (traced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    notes = [f"untraced pass: {untraced_s:.4f} s wall", f"spans: {spans_file.relative_to(ROOT)}"]
    return passes, errors, metrics, notes


def result_line(passes, errors, metrics) -> dict:
    attempted = sum(len(p) for p in passes)
    failed = sum(o.error is not None for p in passes for o in p)
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    reference = load_reference(workload)
    if args.trace:
        passes, errors, metrics, notes = traced_run(workload, args.seed, reference)
    else:
        passes, errors, metrics, notes = timed_run(workload, args.seed, args.seconds, reference)
    result = result_line(passes, errors, metrics)

    for line in notes:
        print(line)
    for error in errors:
        print(f"FAILED {error}", file=sys.stderr)
    print(f"fail_ratio: {result['failed'] / result['attempted']:.4f} ({result['failed']} of {result['attempted']} jobs)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

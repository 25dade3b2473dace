"""Self-tests of the benchmark.

    python3 -m pytest bench

Covers the self-time computation, the scaling of CPU times by the
reference kernel, the correctness gate (a planted wrong
reference digest must fail a job or a pinned command, and the pinned
commands are gated at every seed), exact repetition of the traced counts
across two processes, the metric names against ``BENCHMARK.json``, and the
failure exit in a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, self_times  # noqa: E402
from workloads import WORKLOADS, Group, Workload, pinned_jobs  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_time_of_nested_spans():
    spans = [Span("a", 0, 10, None), Span("b", 1, 6, 0), Span("c", 2, 4, 1)]
    assert self_times(spans) == [5, 3, 2]


def test_self_time_of_back_to_back_children():
    spans = [Span("a", 0, 10, None), Span("b", 1, 4, 0), Span("c", 4, 7, 0)]
    assert self_times(spans) == [4, 3, 3]


def test_self_time_without_children():
    assert self_times([Span("a", 2, 5, None)]) == [3]


def test_scaled_time_uses_the_samples_since_the_mark():
    sampler = calibrate.Sampler()
    sampler.samples = [9.0] * 3 + [0.002] * 4 + [0.004] * 4
    sampler.spent = 0.3
    # 1.3 s measured, 0.2 s of it in the handler; harmonic mean 8 / 3000 s
    scaled = sampler.scaled(1.3, (3, 0.1))
    assert abs(scaled - 1.1 * calibrate.REFERENCE_S * 3000 / 8) < 1e-12


def test_sampler_samples_while_active():
    with calibrate.Sampler() as sampler:
        mark, start = sampler.mark(), time.process_time()
        while time.process_time() - start < 0.3:
            pass
    assert len(sampler.samples) - mark[0] >= 5
    assert 0 < sampler.spent - mark[1] < 0.3
    assert sampler.scaled(time.process_time() - start, mark) > 0


# a small workload over every command: one pass takes about a second
SMALL = Workload(
    "small",
    (Group(("verify",), ((2, 1),)), Group(("limits",), ((1, 1), (2,))), Group(("validate",), ((30,),))),
    largest=(2, 1),
    pinned=("overlap --which both --shape 2,1", "build --operator C --shape 1,1"),
)


def test_planted_reference_digest_fails_a_job():
    passes, errors, metrics, _ = run.timed_run(SMALL, 1, 0, None, 1)
    assert errors == []
    assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
    pinned, first = passes[:2]
    reference = {o.job.label: o.digest for o in pinned + first}
    assert len(set(reference)) == len(pinned) + len(first) == 6
    passes, errors, metrics, _ = run.timed_run(SMALL, 1, 0, reference, 1)
    assert errors == []

    for label in (pinned[0].job.label, first[0].job.label):
        planted = dict(reference)
        planted[label] = "0" * 64
        passes, errors, metrics, _ = run.timed_run(SMALL, 1, 0, planted, 1)
        result = run.result_line(passes, errors, metrics)
        assert not result["correct"]
        assert result["failed"] >= 1
        assert result["failed"] / result["attempted"] > 0


def test_pinned_outputs_are_checked_at_every_seed():
    planted = {job.label: "0" * 64 for job in pinned_jobs(SMALL, run.REFERENCE_SEED)}
    passes, errors, metrics, _ = run.timed_run(SMALL, 2, 0, planted, 1)
    result = run.result_line(passes, errors, metrics)
    assert result["failed"] == len(planted)
    assert len(errors) == len(planted)


TRACED_SMALL = f"""
import json, sys
sys.path.insert(0, {str(BENCH)!r})
import run, test_bench
print(json.dumps(run.result_line(*run.traced_run(test_bench.SMALL, 3, None)[:3])))
"""


def test_traced_counts_repeat_across_runs():
    def traced() -> dict:
        cmd = [sys.executable, "-c", TRACED_SMALL]
        done = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, check=True)
        return json.loads(done.stdout.splitlines()[-1])

    first, second = traced(), traced()
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    exact = {n: m["value"] for n, m in first["metrics"].items() if tracing.is_exact(n)}
    assert exact == {n: second["metrics"][n]["value"] for n in exact}
    for name in ("exactfield.ratfunc.ops", "tdcore.matmul.scalar_mults", "verify.limits.pairs"):
        assert exact[name] > 0


def test_spec_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.PER_LAYER


def test_fails_without_the_program():
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    cmd = [sys.executable, "bench/run.py", "--workload", "overlap_routes", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

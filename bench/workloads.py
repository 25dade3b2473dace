"""The benchmark's workloads: which CLI commands run on which seeded shapes.

A job is one ``tdpair.cli.main`` call on one ``--params`` file drawn by
``random_valid_parameters(shape, seed)``, exactly the parameter set
``tdpair ... --shape ... --seed <seed>`` would use.  ``BENCHMARK.json``
records why each workload was chosen.

Each workload also names pinned commands: small ``overlap`` and ``build``
runs at a fixed seed whose exact output ``reference.json`` pins, so every
run checks computed values, not only that the checks passed.

The four job groups are the ones a per-layer study needs; they are paired
into two workloads so that each run is long enough to average over the
minutes-long speed changes of a shared host (a run of either workload
measures for ``run_seconds``).  ``overlap_routes`` runs every pointwise
overlap route, over Q and over Q(t); ``matrix_validate`` runs none of them.
The shapes are smaller than a full ROADMAP sweep: one (3,3,2) suite alone
takes over 20 s on a 2-core machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

MATRIX_CHECKS = "eigen,inverse,td_relations,r3l,block_structure,sas_conjugation,biorthogonality"


@dataclass(frozen=True)
class Group:
    command: tuple[str, ...]
    shapes: tuple[tuple[int, ...], ...]


VERIFY_ROADMAP = Group(("verify",), ((3, 2), (2, 2, 1), (4, 3)))
LIMITS_QT = Group(("limits",), ((5,), (2, 1), (1, 2)))
MATRIX_IDENTITIES = Group(("verify", "--checks", MATRIX_CHECKS), ((5, 4), (3, 3, 2), (2, 2, 1, 1)))
VALIDATE_WIDE = Group(("validate",), ((400,), (150, 150), (90, 90, 90)))


@dataclass(frozen=True)
class Workload:
    name: str
    groups: tuple[Group, ...]
    largest: tuple[int, ...]
    pinned: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "overlap_routes",
            (VERIFY_ROADMAP, LIMITS_QT),
            largest=(4, 3),
            pinned=(
                "overlap --which both --shape 3,2",
                "overlap --kind hahn --shape 2,1",
                "overlap --kind krawtchouk --shape 2,1",
            ),
        ),
        Workload(
            "matrix_validate",
            (MATRIX_IDENTITIES, VALIDATE_WIDE),
            largest=(3, 3, 2),
            pinned=(
                "overlap --which T --method matrix_product --shape 2,2,1",
                "overlap --which U --method linear_solve --shape 2,2,1",
                "build --operator Cbar --shape 2,2,1",
            ),
        ),
    )
}


@dataclass(frozen=True)
class Job:
    shape: tuple[int, ...]
    seed: int
    path: Optional[Path]
    argv: tuple[str, ...]
    label: str


def jobs_for(workload: Workload, seed: int, input_dir: Path) -> list[Job]:
    """The jobs of one pass, in the order they run."""
    jobs = []
    for group in workload.groups:
        for shape in group.shapes:
            path = input_dir / f"{'x'.join(map(str, shape))}.json"
            argv = (*group.command, "--params", str(path), "--format", "json")
            jobs.append(Job(shape, seed, path, argv, f"{group.command[0]} {','.join(map(str, shape))}"))
    return jobs


def pinned_jobs(workload: Workload, seed: int) -> list[Job]:
    """The workload's pinned commands at ``seed``; each draws its own
    parameters, so they need no set-up."""
    jobs = []
    for command in workload.pinned:
        argv = (*command.split(), "--seed", str(seed), "--format", "json")
        jobs.append(Job((), seed, None, argv, f"{command} --seed {seed}"))
    return jobs

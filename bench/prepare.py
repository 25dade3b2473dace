"""Set-up step of one benchmark run, executed as its own interpreter.

    python3 bench/prepare.py <path> <seed> <l1,l2,...> [<path> <seed> <l1,...> ...]

Imports tdpair from ``src/``, draws each listed parameter set with
``random_valid_parameters(Shape(l1, l2, ...), seed)`` and writes it to its
path as a ``--params`` JSON file.  The set-up time is the CPU time of this
whole process, interpreter start included, at the reference speed of
``calibrate.py``: its sampler runs from before ``import tdpair`` to the end.

``random_valid_parameters`` validates every draw it does not reject on
sight, and how many draws a seed needs is luck: on the wide shapes one
validation costs tenths of a second.  So the CPU time of the validations
of rejected draws is left out, which leaves one validation per parameter
set, the one that accepts it.  The last line of standard output is
``{"setup_s": ..., "rejected_s": ..., "validations": ...}``, with
``rejected_s`` in plain CPU seconds.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import calibrate

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    with calibrate.Sampler() as sampler:
        sys.path.insert(0, str(ROOT / "src"))
        import tdpair.verify
        from tdpair.multiindex import Shape
        from tdpair.tdcore import parameters_to_json_obj

        validate = tdpair.verify.validate_parameters
        times: list[float] = []

        def timed_validate(params):
            mark, start = sampler.mark(), time.process_time()
            try:
                return validate(params)
            finally:
                times.append(sampler.own(time.process_time() - start, mark))

        tdpair.verify.validate_parameters = timed_validate
        rejected_s, validations = 0.0, 0
        for k in range(0, len(argv), 3):
            path, seed = Path(argv[k]), int(argv[k + 1])
            shape = Shape([int(v) for v in argv[k + 2].split(",")])
            times.clear()
            params = tdpair.verify.random_valid_parameters(shape, seed=seed)
            rejected_s += sum(times[:-1])
            validations += len(times)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(parameters_to_json_obj(params)) + "\n")
    # read after the sampler's timer is off: while it is on, the kernel
    # counts the process's CPU time only to the scheduler tick
    setup_s = sampler.scaled(time.process_time() - rejected_s, (0, 0.0))
    print(json.dumps({"setup_s": setup_s, "rejected_s": rejected_s, "validations": validations}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

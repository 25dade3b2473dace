"""The package keeps no code that only the tests reach.

Every subcommand of the CLI and every name of `tdpair.__all__` is driven
once under `sys.setprofile`, and every function compiled from the package's
files must have run, keyed by (file, name, first line) as
`test_overlap.TestRouteIndependence` keys them.  A function left out is on
the allowlist below with its reason, or it is dead: delete it, or move it
next to the tests that call it.
"""

import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import types
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import tdpair
from tdpair import cli

ROOT = os.path.dirname(tdpair.__file__)

# (file, qualified name): why no CLI command and no public name runs it
_DISPLAY = "interactive display only"
_OPERATOR = "number protocol of a field type, which no route happens to use"
ALLOWED_UNREACHED = {
    ("tdcore.py", "ExactMatrix.solve_upper_triangular"): "the benchmark's tracer wraps it",
    ("tdcore.py", "ExactMatrix.__hash__"): "refuses to hash a mutable matrix",
    ("cob.py", "StructureViolation.__init__"): "raised only where a block form breaks; no valid set does",
    ("exactfield.py", "RationalFunction.__repr__"): _DISPLAY,
    ("exactfield.py", "LaurentSeries.__repr__"): _DISPLAY,
    ("multiindex.py", "MultiIndex.__repr__"): _DISPLAY,
    ("multiindex.py", "Shape.__repr__"): _DISPLAY,
    ("exactfield.py", "RationalFunction.__pos__"): _OPERATOR,
    ("exactfield.py", "RationalFunction.__pow__"): _OPERATOR,
    ("exactfield.py", "LaurentSeries.__bool__"): _OPERATOR,
    ("exactfield.py", "LaurentSeries.__neg__"): _OPERATOR,
    ("exactfield.py", "LaurentSeries.__rsub__"): _OPERATOR,
    ("exactfield.py", "LaurentSeries.__rtruediv__"): _OPERATOR,
}


def _package_functions() -> dict:
    """Every function compiled from the package's files: {(file, name, first
    line): (file, qualified name)}.  Class bodies, comprehensions, generator
    expressions and lambdas are left out: a class body runs at import, and
    the others only inside a function that holds them."""
    found = {}
    for fname in sorted(os.listdir(ROOT)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(ROOT, fname), encoding="utf-8") as fh:
            stack = [(compile(fh.read(), fname, "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                    continue
                qualname = prefix + const.co_name
                if const.co_flags & inspect.CO_OPTIMIZED:
                    found[(fname, const.co_name, const.co_firstlineno)] = (fname, qualname)
                stack.append((const, qualname + "."))
    return found


def _cli(*argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def _params_file(tmp_path, name, **fields) -> str:
    doc = {"ell": [1], "theta0": "0", "theta0_star": "0", "h": "1", "h_star": "1",
           "omega": "1/3", "omega_star": "1/5", "a": ["1/7"], **fields}
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _drive_cli(tmp_path):
    seeded = ["--shape", "2,1", "--seed", "1"]
    # the route-undefined integer set the CI runs, written with JSON ints, and
    # a set failing every clause
    undefined = _params_file(tmp_path, "undefined", ell=[1, 1], theta0=0, h=1, omega=0, omega_star="0", a=[0, "0"])
    invalid = _params_file(tmp_path, "invalid", h="0", omega="-1", omega_star="-2", a=["-1"])
    for fmt in cli.FORMATS:
        out = ["--format", fmt]
        assert _cli("validate", *seeded, *out) == 0
        assert _cli("build", "--operator", "A", *seeded, *out) == 0
        assert _cli("overlap", "--which", "both", "--method", "all", *seeded, *out) == 0
        assert _cli("verify", "--checks", "constraints", *seeded, *out) == 0
    assert _cli("build", "--operator", "Cbar", *seeded) == 0
    assert _cli("verify", "--checks", "all", "--beta", "3", *seeded) == 1  # beta = 3 fails td_relations
    assert _cli("verify", "--params", undefined) == 1
    assert _cli("overlap", "--method", "shift_operator", "--params", undefined) == 1
    for kind in cli.LIMIT_KINDS:
        assert _cli("overlap", "--kind", kind, *seeded) == 0
    assert _cli("limits", *seeded) == 0
    assert _cli("validate", "--params", invalid) == 1
    assert _cli("build", "--operator", "A", "--params", invalid) == 1
    assert _cli("verify", "--checks", "eigen,inverse", "--shape", "x", "--seed", "1") == 2


def _drive_library():
    t = tdpair.variable_t()
    p = tdpair.random_valid_parameters(tdpair.Shape((2,)), 1)
    for q in (p, replace(p, omega=p.omega + t)):
        basis = tdpair.enumerate_box(q.shape)
        i, x = basis[1], basis[2]
        for name in tdpair.OPERATOR_NAMES:
            tdpair.build_operator(q, name)
        for kind in tdpair.COEFFICIENT_KINDS:
            tdpair.coefficient_matrix(q, kind)
            tdpair.cob_coefficient(q, kind, i, x)
        for name in tdpair.EIGENBASIS_NAMES:
            tdpair.eigenbasis_matrix(q, name)
        for form in tdpair.BLOCK_FORMS:
            tdpair.block_tridiagonal_form(q, form)
        for method in tdpair.T_METHODS:
            tdpair.overlap_T(q, i, x, method)
        for method in tdpair.U_METHODS:
            tdpair.overlap_U(q, i, x, method)
        tdpair.overlap_table(q, "T", "direct_sum")
        for kind in tdpair.LIMIT_KINDS:
            tdpair.overlap_limit_kind(q, kind, i, x)
        for form in (tdpair.univariate_t_racah, tdpair.univariate_u_balanced, tdpair.univariate_u_racah_normalized):
            form(q, i, x)
        tdpair.xi(q, i, 1)
        tdpair.xi(q, i, 1, starred=True)
        tdpair.eigenvalue(q, 1)
        tdpair.substituted_for_involution(q, True)
        tdpair.validate_parameters(q)
    report = tdpair.run_suite(p, checks=list(tdpair.DEFAULT_CHECKS))
    assert report.passed
    report.to_text(), report.to_json_obj(), report.result("constraints")
    doc = tdpair.parameters_to_json_obj(p)
    assert tdpair.parameters_from_json_obj(doc) == p
    m = tdpair.build_operator(p, "A")
    m.to_json_obj(), m.to_csv_rows(), m.first_difference(m), m == m, m.item(0, 0), repr(m)
    assert m @ m == m @ m
    shape = tdpair.Shape((2, 1))
    shape.dimension, tdpair.shape_profile(shape), tdpair.level_histogram(shape), tdpair.partial_sum((1, 2), 1, 2)
    tdpair.pfq_terminating([-2, F(1, 3)], [F(1, 2)], F(1), 2)
    tdpair.binomial(4, 2), tdpair.rational("-3/7"), tdpair.format_scalar(1 / t), tdpair.pochhammer(t, 2)
    tdpair.limit_at_zero((t + 1) / (t + 2))


# run in a new interpreter with the profiler set before the package is
# imported, so a function that runs at import counts, and no cache warmed or
# name patched by another test hides a body
_DRIVE = """
import json, sys
seen = set()

def record(frame, event, arg):
    if event == "call":
        code = frame.f_code
        seen.add((code.co_filename, code.co_name, code.co_firstlineno))

sys.setprofile(record)
import test_reachability as drive
drive._drive_cli(drive.Path(sys.argv[1]))
drive._drive_library()
sys.setprofile(None)
print(json.dumps(sorted(seen)))
"""


def test_every_package_function_runs(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _DRIVE, str(tmp_path)], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    seen = {
        (os.path.basename(path), name, line)
        for path, name, line in json.loads(proc.stdout)
        if os.path.realpath(os.path.dirname(path)) == os.path.realpath(ROOT)
    }
    functions = _package_functions()
    unreached = {functions[key] for key in functions.keys() - seen}
    assert sorted(unreached - ALLOWED_UNREACHED.keys()) == []
    # an allowlisted name that runs, or that no longer exists, is stale
    assert sorted(ALLOWED_UNREACHED.keys() - unreached) == []

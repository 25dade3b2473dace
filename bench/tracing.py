"""Spans and counters around tdpair's layers, installed from outside ``src/``.

``installed(tracer)`` replaces the public functions (and a few module-level
helpers) of each tdpair module with wrappers, everywhere the package binds
them, and puts the originals back on exit.  Two kinds of record are kept in
memory:

* a span per call at a layer boundary: name, start, end and the index of the
  enclosing span.  A span's self time is its duration minus the part of its
  interval that its child spans cover.
* for high-frequency primitives (``pochhammer``, ``RationalFunction``
  arithmetic, ``cob_coefficient``, matrix arithmetic), a count and a total
  time per enclosing span instead of one span per call.

``layer_metrics`` turns one traced pass into the per-layer metrics listed in
``PER_LAYER``.  ``tdcore.matmul.scalar_mults`` is computed from the operands'
nonzero patterns, not counted while multiplying.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterator, Optional

clock = time.perf_counter

TRACED_CHECKS = (
    "constraints",
    "eigen",
    "inverse",
    "td_relations",
    "r3l",
    "block_structure",
    "sas_conjugation",
    "overlap_consistency",
    "biorthogonality",
    "racah_reduction",
    "limits",
)
_CHECK_FUNCTIONS = {name: f"_check_{name}" for name in TRACED_CHECKS[1:]}
_CHECK_FUNCTIONS["sas_conjugation"] = "_check_sas"

T_ROUTES = ("direct_sum", "matrix_product", "shift_operator")
U_ROUTES = ("direct_sum", "shift_operator", "linear_solve")
COEFFICIENT_KINDS = ("C", "Cbar", "D", "Dbar")
LIMIT_KINDS = ("hahn", "krawtchouk")

PER_LAYER: list[tuple[str, str]] = [
    ("exactfield.pochhammer.calls", "count"),
    ("exactfield.pochhammer.s", "s"),
    ("exactfield.pfq_terminating.calls", "count"),
    ("exactfield.pfq_terminating.s", "s"),
    ("exactfield.ratfunc.ops", "count"),
    ("exactfield.ratfunc.s", "s"),
    ("exactfield.limit_at_zero.calls", "count"),
    ("tdcore.validate.calls", "count"),
    ("tdcore.validate.s", "s"),
    ("tdcore.cond3.s", "s"),
    ("tdcore.matmul.calls", "count"),
    ("tdcore.matmul.s", "s"),
    ("tdcore.matmul.scalar_mults", "count"),
    ("tdcore.solve.s", "s"),
    ("tdcore.compare.s", "s"),
    ("tdcore.matrix.constructed", "count"),
    ("tdcore.assemble.s", "s"),
    ("tdcore.max_bits", "bits"),
    *[(f"cob.coefficient_matrix.{k}.s", "s") for k in COEFFICIENT_KINDS],
    ("cob.block_tridiagonal_form.s", "s"),
    ("cob.cob_coefficient.calls", "count"),
    ("cob.cob_coefficient.s", "s"),
    *[(f"overlap.T.{r}.{m}", u) for r in T_ROUTES for m, u in (("calls", "count"), ("s", "s"))],
    *[(f"overlap.U.{r}.{m}", u) for r in U_ROUTES for m, u in (("calls", "count"), ("s", "s"))],
    ("overlap.table.T.matrix_product.s", "s"),
    ("overlap.table.U.linear_solve.s", "s"),
    *[(f"overlap.limit_kind.{k}.{m}", u) for k in LIMIT_KINDS for m, u in (("calls", "count"), ("s", "s"))],
    ("overlap.max_bits", "bits"),
    *[(f"verify.check.{c}.s", "s") for c in TRACED_CHECKS],
    ("verify.context.s", "s"),
    ("verify.limits.pairs", "count"),
    ("cli.self.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]

# metrics that must repeat exactly between two traced passes on one input
EXACT_SUFFIXES = (".calls", ".ops", ".scalar_mults", ".constructed", "max_bits", ".pairs")


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name: str, start: float, end: float, parent: Optional[int]):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for k, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for c in sorted(children.get(k, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append(s.end - s.start - covered)
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.agg: dict[tuple[Optional[int], str], list] = {}  # -> [count, seconds]
        self.counts: Counter = Counter()
        self.max_bits: Counter = Counter()
        self._stack: list[int] = []
        self._in_ratfunc = False

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        span = Span(name, 0.0, 0.0, parent)
        self.spans.append(span)
        span.start = clock()
        return span

    def close(self, span: Span) -> None:
        span.end = clock()
        self._stack.pop()

    def add(self, name: str, seconds: float) -> None:
        key = (self._stack[-1] if self._stack else None, name)
        entry = self.agg.get(key)
        if entry is None:
            self.agg[key] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def note_bits(self, layer: str, bits: int) -> None:
        if bits > self.max_bits[layer]:
            self.max_bits[layer] = bits

    def to_json_obj(self) -> dict:
        origin = self.spans[0].start if self.spans else 0.0
        return {
            "spans": [
                [s.name, round(s.start - origin, 7), round(s.end - origin, 7), s.parent]
                for s in self.spans
            ],
            "aggregates": [[p, n, c, round(t, 7)] for (p, n), (c, t) in self.agg.items()],
        }


# ---------------------------------------------------------------------------
# exact-value sizes


def value_bits(v) -> int:
    """Largest numerator or denominator bit-length of an exact scalar."""
    if isinstance(v, Fraction):
        return max(v.numerator.bit_length(), v.denominator.bit_length())
    if isinstance(v, int):
        return v.bit_length()
    coeffs = getattr(v, "num", ()) + getattr(v, "den", ())  # RationalFunction
    return max((value_bits(c) for c in coeffs), default=0)


def matrix_bits(m) -> int:
    return max((value_bits(v) for v in m.entries.values()), default=0)


def scalar_mults(a, b) -> int:
    """Products a sparse a @ b forms: sum over k of nnz(col k of a) * nnz(row k of b)."""
    cols = Counter(c for _, c in a.entries)
    rows = Counter(r for r, _ in b.entries)
    return sum(n * rows[k] for k, n in cols.items())


# ---------------------------------------------------------------------------
# wrappers


def _spanned(tracer: Tracer, fn, name_of: Callable[..., str], after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name_of(*args, **kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(result, args)
        return result

    return wrapper


def _aggregated(tracer: Tracer, fn, name: str, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.add(name, clock() - start)
        if after is not None:
            after(result, args)
        return result

    return wrapper


def _ratfunc_op(tracer: Tracer, fn):
    # only the outermost operator counts: __rsub__ and __rtruediv__ call
    # __sub__ and __truediv__, and __pow__ multiplies
    @functools.wraps(fn)
    def wrapper(*args):
        if tracer._in_ratfunc:
            return fn(*args)
        tracer._in_ratfunc = True
        start = clock()
        try:
            return fn(*args)
        finally:
            tracer.add("exactfield.ratfunc", clock() - start)
            tracer._in_ratfunc = False

    return wrapper


def _hooked(fn, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        after(result, args)
        return result

    return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap tdpair's layer boundaries for the duration of the block."""
    from tdpair import cli, cob, exactfield, overlap, tdcore, verify

    modules = [m for n, m in sys.modules.items() if n == "tdpair" or n.startswith("tdpair.")]
    undo: list[tuple[object, str, object]] = []

    def patch_function(fn, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    undo.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def patch_method(cls, attr: str, make) -> None:
        original = vars(cls)[attr]
        undo.append((cls, attr, original))
        setattr(cls, attr, make(original))

    def overlap_bits(result, args) -> None:
        bits = matrix_bits(result) if hasattr(result, "entries") else value_bits(result)
        tracer.note_bits("overlap", bits)

    def count_cond3(report, args) -> None:
        tracer.counts["tdcore.cond3.ms"] += report.result("cond3").millis

    def count_mults(args) -> None:
        tracer.counts["tdcore.matmul.scalar_mults"] += scalar_mults(args[0], args[1])

    def count_pairs(pairs, args) -> None:
        tracer.counts["verify.limits.pairs"] += len(pairs)

    spans = [
        (cli.main, lambda *a, **k: "cli.main", None),
        (verify.run_suite, lambda *a, **k: "verify.run_suite", None),
        (tdcore.validate_parameters, lambda *a, **k: "tdcore.validate", count_cond3),
        (tdcore._assemble_operator, lambda *a, **k: "tdcore.assemble", None),
        (cob.coefficient_matrix, lambda params, kind: f"cob.coefficient_matrix.{kind}", None),
        (cob.block_tridiagonal_form, lambda *a, **k: "cob.block_tridiagonal_form", None),
        (
            overlap.overlap_T,
            lambda params, i, x, method="direct_sum": f"overlap.T.{method}",
            overlap_bits,
        ),
        (
            overlap.overlap_U,
            lambda params, i, x, method="direct_sum": f"overlap.U.{method}",
            overlap_bits,
        ),
        (
            overlap.overlap_table,
            lambda params, which, method: f"overlap.table.{which}.{method}",
            overlap_bits,
        ),
        (
            overlap.overlap_limit_kind,
            lambda params, kind, i, x: f"overlap.limit_kind.{kind}",
            overlap_bits,
        ),
    ]
    for check, attr in _CHECK_FUNCTIONS.items():
        spans.append((getattr(verify, attr), lambda *a, _n=check, **k: f"verify.check.{_n}", None))
    for fn, name_of, after in spans:
        patch_function(fn, _spanned(tracer, fn, name_of, after))

    for fn, name in (
        (exactfield.pochhammer, "exactfield.pochhammer"),
        (exactfield.pfq_terminating, "exactfield.pfq_terminating"),
        (exactfield.limit_at_zero, "exactfield.limit_at_zero"),
        (cob.cob_coefficient, "cob.cob_coefficient"),
    ):
        patch_function(fn, _aggregated(tracer, fn, name))
    patch_function(verify._limit_pairs, _hooked(verify._limit_pairs, count_pairs))

    matrix = tdcore.ExactMatrix
    patch_method(
        matrix,
        "__matmul__",
        lambda f: _aggregated(
            tracer,
            f,
            "tdcore.matmul",
            before=count_mults,
            after=lambda m, a: tracer.note_bits("tdcore", matrix_bits(m)),
        ),
    )
    patch_method(matrix, "solve_upper_triangular", lambda f: _aggregated(tracer, f, "tdcore.solve"))
    patch_method(matrix, "first_difference", lambda f: _aggregated(tracer, f, "tdcore.compare"))
    patch_method(matrix, "__eq__", lambda f: _aggregated(tracer, f, "tdcore.compare"))
    patch_method(matrix, "__init__", lambda f: _aggregated(tracer, f, "tdcore.matrix"))
    for op in ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv"):
        patch_method(exactfield.RationalFunction, f"__{op}__", lambda f: _ratfunc_op(tracer, f))
    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every PER_LAYER metric except the trace.* ones, from one traced pass."""
    spans = tracer.spans
    calls: Counter = Counter()
    secs: Counter = Counter()
    for s in spans:
        # a span nested in one of its own name is already inside the outer one
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            calls[s.name] += 1
            secs[s.name] += s.end - s.start
    agg_calls: Counter = Counter()
    agg_secs: Counter = Counter()
    for (_, name), (count, seconds) in tracer.agg.items():
        agg_calls[name] += count
        agg_secs[name] += seconds

    v: dict[str, float] = {}
    for name in ("pochhammer", "pfq_terminating"):
        v[f"exactfield.{name}.calls"] = agg_calls[f"exactfield.{name}"]
        v[f"exactfield.{name}.s"] = agg_secs[f"exactfield.{name}"]
    v["exactfield.ratfunc.ops"] = agg_calls["exactfield.ratfunc"]
    v["exactfield.ratfunc.s"] = agg_secs["exactfield.ratfunc"]
    v["exactfield.limit_at_zero.calls"] = agg_calls["exactfield.limit_at_zero"]

    v["tdcore.validate.calls"] = calls["tdcore.validate"]
    v["tdcore.validate.s"] = secs["tdcore.validate"]
    v["tdcore.cond3.s"] = tracer.counts["tdcore.cond3.ms"] / 1000
    v["tdcore.matmul.calls"] = agg_calls["tdcore.matmul"]
    v["tdcore.matmul.s"] = agg_secs["tdcore.matmul"]
    v["tdcore.matmul.scalar_mults"] = tracer.counts["tdcore.matmul.scalar_mults"]
    v["tdcore.solve.s"] = agg_secs["tdcore.solve"]
    v["tdcore.compare.s"] = agg_secs["tdcore.compare"]
    v["tdcore.matrix.constructed"] = agg_calls["tdcore.matrix"]
    v["tdcore.assemble.s"] = secs["tdcore.assemble"]
    v["tdcore.max_bits"] = tracer.max_bits["tdcore"]

    for kind in COEFFICIENT_KINDS:
        v[f"cob.coefficient_matrix.{kind}.s"] = secs[f"cob.coefficient_matrix.{kind}"]
    v["cob.block_tridiagonal_form.s"] = secs["cob.block_tridiagonal_form"]
    v["cob.cob_coefficient.calls"] = agg_calls["cob.cob_coefficient"]
    v["cob.cob_coefficient.s"] = agg_secs["cob.cob_coefficient"]

    for family, routes in (("T", T_ROUTES), ("U", U_ROUTES)):
        for route in routes:
            v[f"overlap.{family}.{route}.calls"] = calls[f"overlap.{family}.{route}"]
            v[f"overlap.{family}.{route}.s"] = secs[f"overlap.{family}.{route}"]
    v["overlap.table.T.matrix_product.s"] = secs["overlap.table.T.matrix_product"]
    v["overlap.table.U.linear_solve.s"] = secs["overlap.table.U.linear_solve"]
    for kind in LIMIT_KINDS:
        v[f"overlap.limit_kind.{kind}.calls"] = calls[f"overlap.limit_kind.{kind}"]
        v[f"overlap.limit_kind.{kind}.s"] = secs[f"overlap.limit_kind.{kind}"]
    v["overlap.max_bits"] = tracer.max_bits["overlap"]

    # the suite's own time minus its checks and its constraint validation:
    # the shared _Context build, which no check's millis include
    check_time: Counter = Counter()
    context = 0.0
    for k, s in enumerate(spans):
        if s.name != "verify.run_suite":
            continue
        inside = 0.0
        for c in spans:
            if c.parent != k:
                continue
            if c.name.startswith("verify.check."):
                check_time[c.name] += c.end - c.start
                inside += c.end - c.start
            elif c.name == "tdcore.validate":
                check_time["verify.check.constraints"] += c.end - c.start
                inside += c.end - c.start
        context += s.end - s.start - inside
    for check in TRACED_CHECKS:
        v[f"verify.check.{check}.s"] = check_time[f"verify.check.{check}"]
    v["verify.context.s"] = context
    v["verify.limits.pairs"] = tracer.counts["verify.limits.pairs"]

    own = self_times(spans)
    v["cli.self.s"] = sum(t for s, t in zip(spans, own) if s.name == "cli.main")
    return v


def is_exact(name: str) -> bool:
    return name.endswith(EXACT_SUFFIXES)

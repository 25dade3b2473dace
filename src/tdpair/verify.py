"""One-shot exact verification suites over a parameter set.

Every algebraic identity the construction promises is phrased as a named
check returning a CheckResult with a reproducible witness on failure.
All comparisons are exact field equalities; there are no tolerances.

The operator words and the block forms run over Z with the `cleared_*`
helpers of tdcore, on integer rows over one denominator: A, A* and S as
assembled and R and L from their rows, once per suite, and the four
coefficient families as `cob` keeps them; no check builds an
`ExactMatrix`.  Every product is the row-by-row kernel, whose rows feed the
next product; `block_structure` builds its block forms with the five-term
kernel of `cob` straight into rows.  The two sides are compared exactly, in
storage order, by cross-multiplying their denominators; only a witness
entry is built as a rational.  `inverse` multiplies each row or column over
its own denominator (`_content_lines`): one lcm over a whole C runs to
1,770 bits at (143,).  The overlap route tables stay factored
(`tdcore.Factored`): `overlap_consistency` and `racah_reduction`
cross-multiply heads and dots, and `biorthogonality` runs on ints from U's
dots to I.  `irreducibility` spans words in A's and A*'s integer rows,
row-reduced fraction-free.

Check names, in canonical report order:

  constraints          the three parameter constraint families
  eigen                both eigenbasis matrices diagonalize their operator,
                       spectra pairwise distinct
  inverse              forward and inverse change-of-basis multiply to I
  td_relations         both cubic tridiagonal relations (beta exposed so a
                       mutated value visibly breaks them)
  r3l                  the triple commutator [R,[R,[R,L]]] collapses onto
                       R^2 times a level diagonal
  block_structure      the explicit block formulas are the conjugated
                       operators, with zero far blocks
  sas_conjugation      the antidiagonal involution swaps the operators up
                       to the parameter substitution
  overlap_consistency  every T route agrees; every U route agrees
  biorthogonality      sum_x T_i(x) U_j(x) = delta_ij
  racah_reduction      single-coordinate closed forms match (skipped for
                       N > 1)
  limits               the degenerate kinds equal t -> 0 limits of the
                       general kind under the spectrum substitutions
  irreducibility       words in {A, A*} span the full matrix algebra
                       (opt-in; reports certified or inconclusive)

A failing constraints check short-circuits everything that depends on a
valid parameter set; those checks are reported as skipped, not failed.
"""

from __future__ import annotations

import random
import time
from dataclasses import replace
from functools import partial
from fractions import Fraction
from itertools import count
from math import gcd, lcm
from typing import Callable, Optional, Sequence

from .exactfield import (
    FieldElement,
    LaurentSeries,
    PoleAtZero,
    PrecisionExhausted,
    ZeroDenominatorPochhammer,
    as_integer,
    format_scalar,
    limit_at_zero,
    variable_t,
)
from .multiindex import MultiIndex, Shape, _box, format_multiindex
from .report import CheckResult, VerificationReport
from .cob import COEFFICIENT_KINDS, StructureViolation, _block_form_rows, _coefficient_rows
from . import overlap
from .overlap import (
    T_METHODS,
    U_METHODS,
    _factored_table,
    _hahn_table,
    _t_direct,
    _u_col_factor,
    _u_row_factor,
)
from .tdcore import (
    Factored,
    TDParameters,
    _PARAM_KEYS,
    _assemble_operator,
    _constraint_report,
    _content_lines,
    _ensure_valid,
    _line_product,
    _lines,
    _primitive,
    cleared_combination,
    cleared_commutator,
    cleared_difference,
    cleared_product,
    cleared_scaled,
    eigenvalue,
    factored_difference,
    factored_scaled,
    factored_values,
    identity_difference,
    substituted_for_involution,
    validate_parameters,
)

__all__ = [
    "CHECK_NAMES",
    "DEFAULT_CHECKS",
    "SamplingExhausted",
    "run_suite",
    "random_valid_parameters",
]

CHECK_NAMES = (
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
    "irreducibility",
)

# irreducibility is opt-in: its cost grows much faster than the rest
DEFAULT_CHECKS = CHECK_NAMES[:-1]


class SamplingExhausted(RuntimeError):
    """The rejection sampler ran out of attempts; the bound is too tight
    for the shape, which says nothing about the mathematics."""


# ---------------------------------------------------------------------------
# witness helpers


def _entry_witness(diff, identity: str, keys: tuple = ("row", "col"), **extra) -> Optional[dict]:
    """The witness of diff = (row index, col index, lhs, rhs), or None when
    diff is: the identity, the extra keys, the two indices under keys (the
    operator words' row and col, the overlap functions' i and x) and both
    sides."""
    if diff is None:
        return None
    row, col, lhs, rhs = diff
    return {
        "identity": identity,
        **extra,
        keys[0]: format_multiindex(row),
        keys[1]: format_multiindex(col),
        "lhs": _shown(lhs),
        "rhs": _shown(rhs),
    }


def _shown(v) -> str:
    # an exact value, or the error that says why a limit has none
    if isinstance(v, PrecisionExhausted):
        return f"unknown: {v}"
    if isinstance(v, PoleAtZero):
        return f"does not exist: {v}"
    return format_scalar(v)


# ---------------------------------------------------------------------------
# the individual checks; each takes a prebuilt context and returns
# (passed, witness)


class _Context:
    """Operators and coefficient families as integer rows, and overlap route
    tables, shared by the checks, each built on first use, so its cost lands
    in the first check that needs it and a check that needs none (limits)
    builds none."""

    def __init__(self, params: TDParameters):
        self.params = params
        self.basis = _box(params.shape)
        self.tables: dict[tuple[str, str], Factored] = {}
        self.rows: dict[str, tuple] = {}

    def cleared(self, name: str) -> tuple:
        """A, As or S as assembled, or R or L, the context's A or As rows off
        the diagonal made primitive, kept for the suite; or a coefficient
        family, C, Cbar, D or Dbar, as `cob` keeps it."""
        if name in COEFFICIENT_KINDS:
            return _coefficient_rows(self.params, name)
        if name not in self.rows:
            if name in ("R", "L"):
                rows, den = self.cleared("A" if name == "R" else "As")
                off = {r: {c: v for c, v in row.items() if c != r} for r, row in rows.items()}
                self.rows[name] = _primitive({r: row for r, row in off.items() if row}, den)
            else:
                self.rows[name] = _assemble_operator(self.params, "Astar" if name == "As" else name)
        return self.rows[name]

    def table(self, which: str, method: str) -> Factored:
        """The (which, method) overlap route table, kept for the suite."""
        if (which, method) not in self.tables:
            self.tables[which, method] = _factored_table(self.params, which, method)
        return self.tables[which, method]


def _check_eigen(ctx: _Context):
    p = ctx.params
    spectra = {starred: [eigenvalue(p, j, starred=starred) for j in range(p.diameter + 1)] for starred in (False, True)}
    for starred, vals in spectra.items():
        for u in range(len(vals)):
            for v in range(u + 1, len(vals)):
                if vals[u] == vals[v]:
                    name = "starred" if starred else "plain"
                    return False, {
                        "identity": f"{name} spectrum distinctness",
                        "levels": [u, v],
                        "value": format_scalar(vals[u]),
                    }
    for X, family, starred, label in (
        ("A", "C", False, "A on its eigenbasis"),
        ("As", "D", True, "A* on its eigenbasis"),
    ):
        M = ctx.cleared(family)
        thetas = [spectra[starred][m.weight] for m in ctx.basis]
        diff = cleared_difference(cleared_product(ctx.cleared(X), M), cleared_scaled(M, thetas), ctx.basis)
        if diff is not None:
            return False, _entry_witness(diff, label)
    return True, None


def _check_inverse(ctx: _Context):
    # fwd inv = I: entry (r, c) is the kernel's sum over L_r M_c, row r of fwd over
    # L_r and column c of inv over M_c, cross-multiplied, in storage order
    for fwd, inv, label in (("C", "Cbar", "raising family inverse"), ("D", "Dbar", "lowering family inverse")):
        (row_den, rows), (col_den, cols) = (_content_lines(ctx.cleared(k), a) for k, a in ((fwd, 0), (inv, 1)))
        heads = [(1, row_den[r]) for r in range(len(ctx.basis))]
        diff = identity_difference(_line_product(rows, cols), heads, col_den, ctx.basis)
        if diff is not None:
            return False, _entry_witness(diff, label)
    return True, None


def _check_td_relations(ctx: _Context, beta: FieldElement):
    p = ctx.params
    A, As = ctx.cleared("A"), ctx.cleared("As")
    gamma, rho = 2 * p.h, p.h * (p.h * (p.omega**2 - 1) - 4 * p.theta0)
    gamma_s = 2 * p.h_star
    rho_s = p.h_star * (p.h_star * (p.omega_star**2 - 1) - 4 * p.theta0_star)
    # A A* and A* A once, shared by both relations
    AAs, AsA = cleared_product(A, As), cleared_product(As, A)
    for X, Y, XY, YX, g, r, label in (
        (A, As, AAs, AsA, gamma, rho, "plain cubic relation"),
        (As, A, AsA, AAs, gamma_s, rho_s, "starred cubic relation"),
    ):
        # P = X X Y + (Y X - beta X Y) X - g (X Y + Y X) - r Y
        YXX = cleared_product(cleared_combination([(1, YX), (-beta, XY)]), X)
        P = cleared_combination([(1, cleared_product(X, XY)), (1, YXX), (-g, XY), (-g, YX), (-r, Y)])
        diff = cleared_difference(cleared_commutator(X, P), ({}, 1), ctx.basis)
        if diff is not None:
            return False, _entry_witness(diff, label)
    return True, None


def _check_r3l(ctx: _Context):
    p = ctx.params
    R, lhs = ctx.cleared("R"), ctx.cleared("L")
    for _ in range(3):
        lhs = cleared_commutator(R, lhs)
    levels = [-6 * p.h * p.h_star * (4 * w + p.omega + p.omega_star + 4) for w in range(p.diameter + 1)]
    rhs = cleared_scaled(cleared_product(R, R), [levels[m.weight] for m in ctx.basis])
    w = _entry_witness(cleared_difference(lhs, rhs, ctx.basis), "triple commutator collapse")
    return w is None, w


def _check_block_structure(ctx: _Context):
    try:
        for which, fwd, inv, op in (("Astar_in_Vx", "C", "Cbar", "As"), ("A_in_Vi", "D", "Dbar", "A")):
            _block_form_rows(ctx.params, which, ctx.cleared(fwd), ctx.cleared(inv), ctx.cleared(op))
    except StructureViolation as err:
        return False, _entry_witness((err.row, err.col, err.lhs, err.rhs), "block tridiagonal form")
    return True, None


def _check_sas(ctx: _Context):
    p, S = ctx.params, ctx.cleared("S")
    for X, starred, target, label in (
        ("A", False, "Astar", "involution on the raising side"),
        ("As", True, "A", "involution on the lowering side"),
    ):
        other = _assemble_operator(substituted_for_involution(p, starred=starred), target)
        lhs = cleared_product(cleared_product(S, ctx.cleared(X)), S)
        diff = cleared_difference(lhs, other, ctx.basis)
        if diff is not None:
            return False, _entry_witness(diff, label)
    return True, None


def _check_overlap_consistency(ctx: _Context):
    # one whole table per route; within a family the witness is the first
    # disagreeing (i, x) in graded order, the earlier method on a tie.  A
    # route that meets a vanishing denominator fails the check: agreement
    # cannot be shown where a route is undefined
    for which, methods in (("T", T_METHODS), ("U", U_METHODS)):
        tables = {}
        for method in methods:
            try:
                tables[method] = ctx.table(which, method)
            except ZeroDenominatorPochhammer as err:
                identity = f"{which} route agreement"
                return False, {"identity": identity, "method": method, "error": str(err)}
        diff = factored_difference([(tables[methods[0]], tables[m]) for m in methods[1:]])
        if diff is not None:
            k, r, c, lhs, rhs = diff
            entry = (ctx.basis[r], ctx.basis[c], lhs, rhs)
            return False, _entry_witness(entry, f"{which} route agreement", ("i", "x"), method=methods[k + 1])
    return True, None


def _check_biorthogonality(ctx: _Context):
    # T Uᵀ = ((U Cbar) D)ᵀ, T = (Cbar D)ᵀ; U by the direct sum reads no
    # coefficient table, so a planted Cbar or D entry breaks it.  With U_rc =
    # ru cu z / (rv cv), U Cbar = ru P / (rv e_k), P the dots times Cbar's rows
    # scaled by cu / cv, column k over e_k: Cbar's rows put over w, the lcm of
    # the cv, and each column divided by its content, so e_k is least (a third
    # fewer bits than over lines of reduced entries at (143,)).  U Cbar is
    # Dbar: column k of P shares nearly all of e_k (1,278 of 1,287 bits, median
    # at (143,)), so it is divided out before U Cbar D = ru Q / (rv f_j)
    u = ctx.table("U", "direct_sum")
    dots = {r: {c: z for c, z in enumerate(line) if z} for r, line in enumerate(u.dots)}
    (rows, den), w = ctx.cleared("Cbar"), lcm(*(cv for _, cv in u.cols))
    rows = {c: {k: x * u.cols[c][0] * (w // u.cols[c][1]) for k, x in row.items()} for c, row in rows.items()}
    e, cbar = _content_lines((rows, w * den), 1)
    p, g = _line_product(dots, cbar), dict(e)
    for row in p.values():
        for k, x in row.items():
            if g[k] > 1:
                g[k] = gcd(g[k], x) if type(x) is int else 1
    p = {r: {k: x // g[k] if g[k] > 1 else x for k, x in row.items()} for r, row in p.items()}
    b, dl = _content_lines(ctx.cleared("D"), 1)
    f, d = _lines((((k, j), v, e[k] // g[k] * b[j]) for k, row in dl.items() if k in e for j, v in row.items()), 1)
    # entry (r, j) is ru Q_rj / (rv f_j), against I in the transpose's order
    diff = identity_difference(_line_product(p, d), u.rows, f, ctx.basis, transposed=True)
    return diff is None, _entry_witness(diff, "biorthogonality")


def _check_racah_reduction(ctx: _Context):
    p = ctx.params
    if p.N != 1:
        return None, "skipped: single-coordinate reduction needs N = 1"
    # at N = 1 the T form is one Racah factor at unit argument, the shift
    # table; the balanced U form is its S-mirror, the U shift table; and the
    # normalized U form is f(i) g(x) T_i(x).  The witness is the first (i, x)
    # in graded order, the earlier form on a tie
    mt, mu = ctx.table("T", "direct_sum"), ctx.table("U", "direct_sum")
    ms, mb = ctx.table("T", "shift_operator"), ctx.table("U", "shift_operator")
    f = [_u_row_factor(p, i[0]) for i in ctx.basis]
    g = [_u_col_factor(p, x[0]) for x in ctx.basis]
    labels = ("univariate T form", "balanced U form", "normalized U form")
    diff = factored_difference([(mt, ms), (mu, mb), (mu, factored_scaled(ms, f, g))])
    if diff is not None:
        k, r, c, lhs, rhs = diff
        return False, _entry_witness((ctx.basis[r], ctx.basis[c], lhs, rhs), labels[k], ("i", "x"))
    return True, None


_LIMIT_IDENTITIES = ("level-linear starred spectrum limit", "both spectra linear limit")


def _limit_pairs(basis: Sequence[MultiIndex]) -> list:
    """Every pair (i, x) up to d = 6 basis elements, else ten: the j-th steps
    i by a and x by b, both coprime to d, so the rows and the columns are
    min(10, d) distinct ones; gcd(b - a, d) <= 2 leaves at most two pairs
    with i = x, and j // d moves x at d < 10 when j comes round again."""
    d = len(basis)
    if d <= 6:
        return [(i, x) for i in basis for x in basis]
    a = next(s for s in count(d // 3) if gcd(s, d) == 1)
    b = next(s for s in count(a + d // 3) if gcd(s, d) == 1 and gcd(s - a, d) <= 2)
    return [(basis[j * a % d], basis[(j * b + j // d) % d]) for j in range(10)]


def _series_sides(p: TDParameters) -> tuple[TDParameters, TDParameters]:
    """p at omega* = 1/t and p at omega = 1/t, 1/t a Laurent series: the
    parameter sets of `_row_limits`, built once per limits check (they are
    unhashable, so no cache may keep them)."""
    s = LaurentSeries(-1, 1)
    return replace(p, omega_star=s), replace(p, omega=s)


def _series_limits(kernel: Callable, params: TDParameters, rows: Sequence, cols: Sequence) -> list:
    """The t -> 0 limits of kernel(params, rows, cols), one row of values
    per row of rows, params a parameter set over Laurent series.  An entry
    whose t^0 coefficient is unknown is the PrecisionExhausted that says
    so, never a guessed value; so is every entry when the kernel itself
    raises it; an entry with a pole at t = 0 is the PoleAtZero that says
    its limit does not exist."""
    try:
        table = factored_values(kernel(params, rows, cols))
    except PrecisionExhausted as err:
        return [[err] * len(cols) for _ in rows]
    return [[_limit_or_error(v) for v in line] for line in table]


def _limit_or_error(v):
    try:
        return limit_at_zero(v)
    except (PrecisionExhausted, PoleAtZero) as err:
        return err


def _row_limits(sides: tuple, rows: Sequence, cols: Sequence) -> tuple[list, list]:
    """For each i of rows and x of cols, the t -> 0 limits of T_i(x) at
    omega* = 1/t and of the truncated Hahn kind at omega = 1/t, both taken
    in Laurent series by one table-kernel call per kind, at the parameter
    sets sides = `_series_sides(p)`; `_sampled_limits` takes them per row.

    Relative precision 1, the only one `LaurentSeries` has, always
    suffices.  Call the sum of a term's factors' valuations its nominal
    valuation.  With every factor known to relative precision 1, a product
    is known below t^(nominal + 1), so is a quotient by a Pochhammer symbol
    in 1/t (its valuation is exact), and a sum below the least bound of its
    terms, whatever cancels.  Every term of T's direct sum is an int times
    the numerators prod_q (omega* - a_q + m_q)_{k_q}, k_q = i_q - n_q, of
    valuation -sum_q k_q, over the one telescoped denominator (omega* + |i|
    + |n|)_{|i| - |n|}, of valuation -(|i| - |n|) = -sum_q k_q: nominal
    valuation 0.  Every path term of the Hahn kind has -|x| and its head 1
    / (|x| + omega)_{|x|} has +|x|.  So every entry is known below t^1.  An
    entry left unknown means a kernel broke this premise, a defect that
    `_check_limits` reports as a failure.
    """
    at_star, at_omega = sides
    return _series_limits(_t_direct, at_star, rows, cols), _series_limits(_hahn_table, at_omega, rows, cols)


def _sampled_limits(p: TDParameters, sides: tuple, pairs: Sequence):
    """(i, x, the two series limits, the two closed forms) per pair, on line
    kernels bound once per check: a row's pairs are one table, taken where
    the row's first pair is."""
    kinds, by_row = (overlap._t_direct_lines, overlap._hahn_lines), {}
    series = [partial(overlap._dot_table, *lines(q)) for lines, q in zip(kinds, sides)]
    hahn, krawtchouk = partial(overlap._dot_table, *overlap._hahn_lines(p)), overlap._krawtchouk_entry(p)
    for i, x in pairs:
        by_row.setdefault(i, []).append(x)
    for i, cols in by_row.items():
        (lim_t,), (lim_h,) = (_series_limits(k, q, [i], cols) for k, q in zip(series, sides))
        (form_h,) = factored_values(hahn(p, [i], cols))
        yield from ((i, x, *v) for x, *v in zip(cols, lim_t, lim_h, form_h, [krawtchouk(i, x) for x in cols]))


def _check_limits(ctx: _Context):
    """T's limit at omega* = 1/t against the Hahn kind, then the Hahn kind's
    at omega = 1/t against the Krawtchouk kind, on `_limit_pairs`: the box as
    one table per kind (`_row_limits`), a sample per row (`_sampled_limits`)."""
    p = ctx.params
    if any(type(v) is not Fraction for v in [getattr(p, k) for k in _PARAM_KEYS] + list(p.a)):
        # the limits substitute their own t, which a Q(t) parameter would share
        return None, "skipped: parameters outside Q"
    t = variable_t()
    # the limits are taken in series, but the parameters validated exactly
    _ensure_valid(replace(p, h_star=p.h_star * t, omega_star=1 / t))
    _ensure_valid(replace(p, h=p.h * t, omega=1 / t))
    _ensure_valid(p)
    sides, pairs, basis = _series_sides(p), _limit_pairs(ctx.basis), ctx.basis
    if len(pairs) == len(basis) ** 2:
        # the closed forms from the overlap module: `_hahn_table` here is the series kernel
        kinds, pos = (overlap._hahn_table, overlap._krawtchouk_table), {m: k for k, m in enumerate(basis)}
        tables = [*_row_limits(sides, basis, basis), *(factored_values(kind(p, basis, basis)) for kind in kinds)]
        checked = ((i, x, *(v[pos[i]][pos[x]] for v in tables)) for i, x in pairs)
    else:
        checked = _sampled_limits(p, sides, pairs)
    for i, x, *values in checked:
        for lim, form, identity in zip(values[:2], values[2:], _LIMIT_IDENTITIES):
            if lim != form:
                return False, _entry_witness((i, x, lim, form), identity, ("i", "x"))
    return True, None


def _check_irreducibility(ctx: _Context):
    """Span words in {A, A*} from the identity and row-reduce exactly.

    Reaching dimension d^2 certifies the joint action generates the full
    matrix algebra.  Anything else is inconclusive: saturation below d^2
    or hitting the word-length cap proves nothing at this budget.

    A word is the `_line_product` of A's or A*'s numerator rows with the
    word before it: its span does not depend on its scale, so the
    operators' denominators drop out.  The echelon is fraction-free: a word
    w meets the pivot p of its lead entry as p_lead w - w_lead p, and each
    line is kept over its content (`_scaled_down`), so no entry becomes a
    rational and the span is exact.
    """
    gens = [ctx.cleared(name)[0] for name in ("A", "As")]
    d = len(ctx.basis)
    target = d * d
    pivots: dict = {}

    def insert(word: dict) -> bool:
        vec = _scaled_down({(r, c): v for r, row in word.items() for c, v in row.items()})
        while vec:
            lead = min(vec)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = vec
                return True
            a, b = pivot[lead], vec[lead]
            if type(a) is int and type(b) is int:
                g = gcd(a, b)
                a, b = a // g, b // g
            vec = {k: a * v for k, v in vec.items()} if a != 1 else vec
            for k, v in pivot.items():
                nv = vec.get(k, 0) - b * v
                if nv:
                    vec[k] = nv
                else:
                    vec.pop(k, None)
            vec = _scaled_down(vec)
        return False

    frontier = [{k: {k: 1} for k in range(d)}]
    insert(frontier[0])
    length = 0
    while len(pivots) < target and length < 2 * d + 2:
        length += 1
        # the words that grew the span, the next frontier
        nxt = [m for w in frontier for g in gens if insert(m := _line_product(g, w))]
        if not nxt:
            break
        frontier = nxt
    if len(pivots) == target:
        return True, {"status": "certified", "span": target, "word_length": length}
    return None, {
        "status": "inconclusive",
        "span": len(pivots),
        "target": target,
        "word_length": length,
    }


def _scaled_down(vec: dict) -> dict:
    """vec divided by the gcd of its entries, ints over Q, or by its lead
    entry when one is a rational function (Q(t)): a line that spans what
    vec spans, exactly."""
    if not vec:
        return vec
    try:
        g = gcd(*vec.values())
    except TypeError:  # not every entry is an int
        g = vec[min(vec)]
    if g == 1:
        return vec
    return {k: v // g if type(g) is int else v / g for k, v in vec.items()}


# ---------------------------------------------------------------------------
# the suite


def _timed(fn: Callable[[], tuple]) -> tuple[Optional[bool], object, int]:
    # a formula that meets a vanishing denominator fails its check, which
    # proves nothing there; the other checks still run
    start = time.perf_counter()
    try:
        passed, witness = fn()
    except ZeroDenominatorPochhammer as err:
        passed, witness = False, {"error": str(err)}
    millis = int((time.perf_counter() - start) * 1000)
    return passed, witness, millis


_CHECK_REFS = {
    "constraints": "parameter constraints",
    "eigen": "eigenbasis diagonalization with simple spectra",
    "inverse": "change-of-basis inverse pairs",
    "td_relations": "cubic tridiagonal relations",
    "r3l": "triple commutator collapse onto the level diagonal",
    "block_structure": "block tridiagonal form in each eigenbasis",
    "sas_conjugation": "antidiagonal involution swaps the operators",
    "overlap_consistency": "overlap route agreement",
    "biorthogonality": "overlap biorthogonality",
    "racah_reduction": "single-coordinate closed forms",
    "limits": "degenerate kind limits",
    "irreducibility": "joint action spans the matrix algebra",
}


def run_suite(
    params: TDParameters,
    checks: Optional[Sequence[str]] = None,
    beta: FieldElement = Fraction(2),
) -> VerificationReport:
    """Run the selected checks (default: all but irreducibility).

    Failures are report entries with witnesses, not errors: a t -> 0 limit
    that limits cannot determine fails that check too, and so does a
    vanishing denominator (ZeroDenominatorPochhammer).  When the
    constraints check fails, dependent checks are reported as skipped.
    overlap_consistency compares whole route tables, one per route, each
    built by a single call of that route's table kernel and kept factored.
    Each operator, coefficient family (as cleared rows) and route table is
    built when a selected check first needs it, so its cost shows in that
    check's millis, and is kept for the suite: overlap_consistency,
    biorthogonality and racah_reduction read one table per route, and every
    check that reads a family reads the same rows.  params is validated
    once: the constraints entry and every later gate read one bounded cache
    (`tdcore._constraint_clauses`), which hands out only new reports.
    """
    if checks is None:
        selected = list(DEFAULT_CHECKS)
    else:
        unknown = [c for c in checks if c not in CHECK_NAMES]
        if unknown:
            raise ValueError(
                f"unknown checks: {', '.join(unknown)}; expected among {CHECK_NAMES}"
            )
        selected = [c for c in CHECK_NAMES if c in set(checks)]

    report = VerificationReport()

    def add(name: str, passed: Optional[bool], witness, millis: int) -> None:
        report.add(CheckResult(name, _CHECK_REFS[name], passed, witness, millis))

    start = time.perf_counter()
    constraint_report = _constraint_report(params)
    constraints_ms = int((time.perf_counter() - start) * 1000)
    if "constraints" in selected:
        failures = [
            {"clause": r.check, "violations": r.witness}
            for r in constraint_report.results
            if r.passed is False
        ]
        add("constraints", constraint_report.passed, failures or None, constraints_ms)

    rest = [c for c in selected if c != "constraints"]
    if not rest:
        return report
    if not constraint_report.passed:
        for name in rest:
            add(name, None, "skipped: constraints failed", 0)
        return report

    ctx = _Context(params)
    bodies: dict[str, Callable[[], tuple]] = {
        "eigen": lambda: _check_eigen(ctx),
        "inverse": lambda: _check_inverse(ctx),
        "td_relations": lambda: _check_td_relations(ctx, beta),
        "r3l": lambda: _check_r3l(ctx),
        "block_structure": lambda: _check_block_structure(ctx),
        "sas_conjugation": lambda: _check_sas(ctx),
        "overlap_consistency": lambda: _check_overlap_consistency(ctx),
        "biorthogonality": lambda: _check_biorthogonality(ctx),
        "racah_reduction": lambda: _check_racah_reduction(ctx),
        "limits": lambda: _check_limits(ctx),
        "irreducibility": lambda: _check_irreducibility(ctx),
    }

    for name in rest:
        add(name, *_timed(bodies[name]))
    return report


# ---------------------------------------------------------------------------
# seeded parameter search


def random_valid_parameters(
    shape: Shape, seed: int, bound: int = 10, max_attempts: int = 1000
) -> TDParameters:
    """Rejection-sample a parameter set that passes every constraint.

    Rationals have numerator in [-bound, bound] and denominator in
    [1, bound].  Draws where omega, omega*, a_p + omega, or a_p - omega*
    land on an integer are rejected too: the identity checks evaluate
    parameter-dependent Pochhammer denominators at shifted arguments, and
    keeping these four quantities off the integers keeps every such
    denominator provably nonzero.  Deterministic for a fixed seed.
    """
    if bound < 4:
        raise ValueError("bound must be at least 4")
    rng = random.Random(seed)

    def draw() -> Fraction:
        return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))

    def draw_nonzero() -> Fraction:
        while True:
            v = draw()
            if v != 0:
                return v

    for _ in range(max_attempts):
        params = TDParameters(
            shape=shape,
            theta0=draw(),
            theta0_star=draw(),
            h=draw_nonzero(),
            h_star=draw_nonzero(),
            omega=draw(),
            omega_star=draw(),
            a=tuple(draw() for _ in range(shape.N)),
        )
        generic = (
            as_integer(params.omega) is None
            and as_integer(params.omega_star) is None
            and all(as_integer(ap + params.omega) is None for ap in params.a)
            and all(as_integer(ap - params.omega_star) is None for ap in params.a)
        )
        if not generic:
            continue
        if validate_parameters(params).passed:
            return params
    raise SamplingExhausted(
        f"no valid parameters for {shape!r} within {max_attempts} attempts at bound {bound}"
    )

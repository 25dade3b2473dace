"""Change-of-basis coefficients between the split basis and the eigenbases.

Four families, each a product of one global Pochhammer denominator and one
binomial-times-Pochhammer factor per coordinate:

  C[n,x]     expansion of the A-eigenvector V(x) over the split basis,
             supported on n >= x pointwise
  Cbar[x,n]  the inverse expansion, supported on x >= n
  D[n,i]     expansion of the A*-eigenvector V_i, supported on n <= i
  Dbar[i,n]  its inverse, supported on i <= n

The matrices they fill satisfy, over the graded basis order,

  M_C M_Cbar = I            M_D M_Dbar = I
  A M_C  = M_C diag(theta_|x|)      A* M_D = M_D diag(theta*_|i|)

Only the raising side (C, Cbar, the block formula for A* on V(x)) is
written out.  The lowering side is its mirror under the involution S, which
swaps A and A*: at the parameter set q = `_swapped(p)`

  D(p)[n,i] = C(q)[ell-n, ell-i]      Dbar(p)[i,n] = Cbar(q)[ell-i, ell-n]
  (A on V_i)(p)[j,i] = (A* on V(x))(q)[ell-j, ell-i]

and in graded order n -> ell - n reverses the positions (`_mirrored`).

Each family's table is built once per parameter set and kept in a small
module-level cache; `coefficient_matrix` hands out copies, so a caller that
writes into its matrix changes nothing another caller sees.  Every reader in
the package (the verifier's context, the block formulas, the whole-table
matrix_product and linear_solve overlap routes) goes through it, so one
suite builds each family once.

`block_tridiagonal_form` expresses the opposite operator in an eigenbasis
two independent ways (conjugation by a triangular solve with C or D, and an
explicit five-term block formula, the only reader of Cbar and Dbar) and
insists they agree entrywise with zero far blocks.  The eigen and inverse
checks test the tables themselves against A and A*, assembled independently.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import cache, lru_cache
from itertools import product
from typing import Sequence

from .exactfield import (
    FieldElement,
    _inv_poch,
    binomial,
    is_zero,
    pochhammer,
)
from .multiindex import (
    IndexOutOfRange,
    MultiIndex,
    add,
    enumerate_box,
    in_box,
    partial_sum,
    sub,
    unit,
)
from .tdcore import (
    ExactMatrix,
    InvalidParameters,
    TDParameters,
    _assemble_operator,
    eigenvalue,
    substituted_for_involution,
    validate_parameters,
    xi,
)

__all__ = [
    "COEFFICIENT_KINDS",
    "StructureViolation",
    "cob_coefficient",
    "coefficient_matrix",
    "eigenbasis_matrix",
    "block_tridiagonal_form",
]

COEFFICIENT_KINDS = ("C", "Cbar", "D", "Dbar")


class StructureViolation(ArithmeticError):
    """Two routes to the same block matrix produced different entries,
    or an entry appeared outside the tridiagonal band of levels."""

    def __init__(self, row, col, lhs, rhs, detail: str = ""):
        self.row = row
        self.col = col
        self.lhs = lhs
        self.rhs = rhs
        msg = f"entry [{tuple(row)}, {tuple(col)}]: {lhs} != {rhs}"
        if detail:
            msg = f"{detail}: {msg}"
        super().__init__(msg)


def cob_coefficient(
    params: TDParameters, kind: str, first: Sequence[int], second: Sequence[int]
) -> FieldElement:
    """One coefficient, indexed in subscript order (row index first).

    Out-of-support pairs give an exact zero.  Parameters are taken as
    already validated; on sets violating the constraints the global
    denominator can vanish, raising ZeroDenominatorPochhammer.
    """
    shape = params.shape
    if not in_box(first, shape):
        raise IndexOutOfRange(f"index {tuple(first)} outside the box of {shape!r}")
    if not in_box(second, shape):
        raise IndexOutOfRange(f"index {tuple(second)} outside the box of {shape!r}")
    if kind in _RAISING:
        return _RAISING[kind](params, first, second)
    if kind in _MIRROR_OF:
        # the lowering side is the raising side at the swapped parameters,
        # read through n -> ell - n
        first, second = (tuple(lp - v for lp, v in zip(params.ell, n)) for n in (first, second))
        return _RAISING[_MIRROR_OF[kind]](_swapped(params), first, second)
    raise ValueError(f"unknown coefficient kind {kind!r}; expected one of {COEFFICIENT_KINDS}")


def _swapped(params: TDParameters) -> TDParameters:
    """Both halves of `substituted_for_involution` applied together, each
    read off params: the plain and starred spectra trade places, so the
    raising side at the result is the mirror of the lowering side at params."""
    lo = substituted_for_involution(params, starred=True)
    hi = substituted_for_involution(params, starred=False)
    return replace(lo, theta0_star=hi.theta0_star, h_star=hi.h_star, omega_star=hi.omega_star)


def _mirrored(m: ExactMatrix) -> ExactMatrix:
    """S M S: entry [n, m] moves to [ell - n, ell - m], which in graded
    order (weight first, ties lexicographic) is the reversed position."""
    last = m.dimension - 1
    return ExactMatrix(m.basis, {(last - r, last - c): v for (r, c), v in m.entries.items()})


def _coeff_C(params: TDParameters, n, x) -> FieldElement:
    ell, N, om = params.ell, params.N, params.omega
    tot = Fraction(1)
    for p in range(1, N + 1):
        b = binomial(n[p - 1], x[p - 1])
        if b == 0:
            return Fraction(0)
        base = (
            partial_sum(n, 1, p - 1)
            + partial_sum(x, 1, p)
            + partial_sum(ell, p, N)
            + params.a[p - 1]
            + om
            + 1
        )
        tot *= b * pochhammer(base, n[p - 1] - x[p - 1])
    d = sum(n) - sum(x)
    tot *= Fraction((-1) ** d)
    return tot / _inv_poch(2 * sum(x) + om + 1, d, "C global factor")


def _coeff_Cbar(params: TDParameters, x, n) -> FieldElement:
    ell, N, om = params.ell, params.N, params.omega
    tot = Fraction(1)
    for p in range(1, N + 1):
        b = binomial(x[p - 1], n[p - 1])
        if b == 0:
            return Fraction(0)
        base = (
            partial_sum(n, 1, p)
            + partial_sum(x, 1, p - 1)
            + partial_sum(ell, p, N)
            + params.a[p - 1]
            + om
            + 1
        )
        tot *= b * pochhammer(base, x[p - 1] - n[p - 1])
    d = sum(x) - sum(n)
    return tot / _inv_poch(sum(n) + sum(x) + om, d, "Cbar global factor")


_RAISING = {"C": _coeff_C, "Cbar": _coeff_Cbar}
_MIRROR_OF = {"D": "C", "Dbar": "Cbar"}


def coefficient_matrix(params: TDParameters, kind: str) -> ExactMatrix:
    """The full table of one family as a matrix over the graded basis,
    oriented so entry [first, second] carries subscripts (first, second).

    The table is built once per (params, kind); each call returns a copy.
    """
    if kind not in COEFFICIENT_KINDS:
        raise ValueError(f"unknown coefficient kind {kind!r}; expected one of {COEFFICIENT_KINDS}")
    m = _coefficient_table(params, kind)
    return ExactMatrix(m.basis, m.entries)


@lru_cache(maxsize=16)
def _coefficient_table(params: TDParameters, kind: str) -> ExactMatrix:
    # the shared table; only coefficient_matrix reads it, to copy it.  The
    # raising table at the swapped parameters is built for the mirror only,
    # not kept
    if kind in _MIRROR_OF:
        return _mirrored(_raising_table(_swapped(params), _MIRROR_OF[kind]))
    return _raising_table(params, kind)


def _raising_table(params: TDParameters, kind: str) -> ExactMatrix:
    # C and Cbar vanish unless row >= col pointwise: iterate only the
    # dominance sub-box of each column
    shape = params.shape
    basis = enumerate_box(shape)
    m = ExactMatrix(basis)
    for col in basis:
        c = m.pos[col]
        for row in product(*[range(col[p], shape.ell[p] + 1) for p in range(shape.N)]):
            v = cob_coefficient(params, kind, row, col)
            if not is_zero(v):
                m.entries[(m.pos[MultiIndex(row)], c)] = v
    return m


EIGENBASIS_NAMES = ("A_basis", "Astar_basis")


def eigenbasis_matrix(params: TDParameters, which: str) -> ExactMatrix:
    """Column matrix of an eigenbasis over the split basis.

    "A_basis" gives M_C (column x is the A-eigenvector of eigenvalue
    theta_|x|), "Astar_basis" gives M_D.  Parameters are validated first.
    """
    if which not in EIGENBASIS_NAMES:
        raise ValueError(f"unknown eigenbasis {which!r}; expected one of {EIGENBASIS_NAMES}")
    report = validate_parameters(params)
    if not report.passed:
        raise InvalidParameters(report)
    return coefficient_matrix(params, "C" if which == "A_basis" else "D")


BLOCK_FORMS = ("Astar_in_Vx", "A_in_Vi")


def block_tridiagonal_form(params: TDParameters, which: str) -> ExactMatrix:
    """The opposite operator written in an eigenbasis, computed two ways.

    "Astar_in_Vx" is A* over the V(x) basis; "A_in_Vi" is A over the V_i
    basis.  The conjugated matrix and the explicit block formula must agree
    entrywise, and every entry linking levels |row| and |col| with
    ||row| - |col|| >= 2 must vanish; any discrepancy raises
    StructureViolation.
    """
    if which not in BLOCK_FORMS:
        raise ValueError(f"unknown block form {which!r}; expected one of {BLOCK_FORMS}")
    report = validate_parameters(params)
    if not report.passed:
        raise InvalidParameters(report)
    # the conjugation solves fwd X = op fwd, so only the block formula reads
    # the inverse family
    if which == "Astar_in_Vx":
        fwd = coefficient_matrix(params, "C")
        explicit = _explicit_star_blocks(params, fwd, coefficient_matrix(params, "Cbar"))
        # C is lower triangular in graded order and its mirror upper
        # triangular: solve on the mirrors
        rhs = _mirrored(_assemble_operator(params, "Astar") @ fwd)
        conj = _mirrored(_mirrored(fwd).solve_upper_triangular(rhs))
    else:
        fwd = coefficient_matrix(params, "D")
        # the mirrors of D and Dbar are C and Cbar at the swapped parameters
        inv = _mirrored(coefficient_matrix(params, "Dbar"))
        explicit = _mirrored(_explicit_star_blocks(_swapped(params), _mirrored(fwd), inv))
        conj = fwd.solve_upper_triangular(_assemble_operator(params, "A") @ fwd)
    diff = conj.first_difference(explicit)
    if diff is not None:
        raise StructureViolation(*diff, detail=f"{which}: conjugation vs block formula")
    for (r, c), v in conj.entries.items():
        if abs(conj.basis[r].weight - conj.basis[c].weight) >= 2 and not is_zero(v):
            raise StructureViolation(
                conj.basis[r], conj.basis[c], v, Fraction(0), detail=f"{which}: far block"
            )
    return conj


def _explicit_star_blocks(params: TDParameters, mc: ExactMatrix, mcb: ExactMatrix) -> ExactMatrix:
    """A* on the V(x) basis from the five-term block formula, with the C and
    Cbar coefficients read from their tables."""
    shape = params.shape
    N = shape.N
    basis = enumerate_box(shape)
    m = ExactMatrix(basis)

    def put(row, col, v):
        if is_zero(v):
            return
        key = (m.pos[MultiIndex(row)], m.pos[col])
        m.entries[key] = m.entries.get(key, Fraction(0)) + v
        if m.entries[key] == 0:
            del m.entries[key]

    def ths(j):
        return eigenvalue(params, j, starred=True)

    # each xi*_{n,p} is read by several terms: one dict per build, keyed on (n, p)
    xs = cache(lambda n, p: xi(params, n, p, starred=True))

    cC, cCb = mc.entry, mcb.entry

    for x in basis:
        w = x.weight
        for p in range(1, N + 1):
            y = sub(x, unit(p, N))
            if in_box(y, shape):
                put(y, x, xs(y, p))
        for p in range(1, N + 1):
            y = add(x, unit(p, N))
            if in_box(y, shape):
                put(y, x, ths(w) * cCb(y, x) + ths(w + 1) * cC(y, x))
        put(x, x, ths(w))
        for p in range(1, N + 1):
            for q in range(1, N + 1):
                y = sub(add(x, unit(p, N)), unit(q, N))
                if not in_box(y, shape):
                    continue
                xmq = sub(x, unit(q, N))
                if in_box(xmq, shape):
                    put(y, x, xs(xmq, q) * cCb(y, xmq))
                xpp = add(x, unit(p, N))
                if in_box(xpp, shape):
                    put(y, x, xs(y, q) * cC(xpp, x))
        for p in range(1, N + 1):
            for q in range(1, N + 1):
                for r in range(q, N + 1):
                    y = sub(add(add(x, unit(q, N)), unit(r, N)), unit(p, N))
                    if not in_box(y, shape):
                        continue
                    top = add(add(x, unit(q, N)), unit(r, N))
                    for n in product(*[range(x[s], top[s] + 1) for s in range(N)]):
                        nm = sub(n, unit(p, N))
                        if not (in_box(n, shape) and in_box(nm, shape)):
                            continue
                        put(y, x, xs(nm, p) * cC(n, x) * cCb(y, nm))
    return m

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

One kernel, `_raising_values`, builds every table over int pairs: each
Pochhammer symbol of C and Cbar is (c + M)_k with an integer M and c either
a_p + omega + 1 or, in the global factor, omega, memoized once per call, so
an entry is one product over one product.  `cob_coefficient` is that kernel
at one entry.

Each family's table is built once per parameter set and kept in a small
module-level cache; `coefficient_matrix` hands out copies, so a caller that
writes into its matrix changes nothing another caller sees.  Every reader in
the package (the verifier's context, the block formulas, the whole-table
matrix_product and linear_solve overlap routes) goes through it, so one
suite builds each family once.

`block_tridiagonal_form` writes the opposite operator in an eigenbasis by
the explicit five-term block formula B (the only reader of Cbar and Dbar,
each entry one common-denominator sum of its terms) and proves fwd B =
op fwd over Z, fwd = M_C or M_D; fwd has a unit diagonal, so B is the
conjugate without a triangular solve, and B is block tridiagonal by
construction.  It reads xi* from `tdcore._xi_kernel`, which also assembles
A and A*; the eigen and inverse checks test the tables themselves against
A and A*, assembled independently of them.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb
from typing import Sequence

from .exactfield import (
    FieldElement,
    ZeroDenominatorPochhammer,
    _pair,
    _rising,
    over_common_denominator,
    pair_value,
)
from .multiindex import IndexOutOfRange, enumerate_box, in_box
from .tdcore import (
    ExactMatrix,
    TDParameters,
    _assemble_operator,
    _ensure_valid,
    _xi_kernel,
    cleared,
    cleared_difference,
    cleared_product,
    eigenvalue,
    substituted_for_involution,
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
    """The two sides of fwd B = op fwd differ at an entry."""

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
    """One coefficient, indexed in subscript order (row index first): the
    table kernel `_raising_values` at one entry.

    Out-of-support pairs give an exact zero.  Parameters are taken as
    already validated; on sets violating the constraints the global
    denominator can vanish, raising ZeroDenominatorPochhammer.
    """
    shape = params.shape
    if not in_box(first, shape):
        raise IndexOutOfRange(f"index {tuple(first)} outside the box of {shape!r}")
    if not in_box(second, shape):
        raise IndexOutOfRange(f"index {tuple(second)} outside the box of {shape!r}")
    if kind in _MIRROR_OF:
        # the lowering side is the raising side at the swapped parameters,
        # read through n -> ell - n
        first, second = (tuple(lp - v for lp, v in zip(params.ell, n)) for n in (first, second))
        params, kind = _swapped(params), _MIRROR_OF[kind]
    elif kind not in ("C", "Cbar"):
        raise ValueError(f"unknown coefficient kind {kind!r}; expected one of {COEFFICIENT_KINDS}")
    if any(f < s for f, s in zip(first, second)):
        return Fraction(0)
    return _raising_values(params, kind, [(first, second)])[0]


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


_MIRROR_OF = {"D": "C", "Dbar": "Cbar"}


def _raising_values(params: TDParameters, kind: str, pairs) -> list[FieldElement]:
    """C[row, col] (kind "C") or Cbar[row, col] (kind "Cbar") at every
    (row, col) of pairs, in order, each with row >= col pointwise.

    Both are one product over the coordinates p of
    binomial(row_p, col_p) (c_p + M_p)_{row_p - col_p}, with
    c_p = a_p + omega + 1 and M_p = |row|_1^{p-1} + |col|_1^p + |ell|_p^N,
    over one global factor (omega + M)_d, d = |row| - |col|: M = 2|col| + 1
    and a sign (-1)^d for C, M = |row| + |col| for Cbar.  Every factor is a
    `_rising` pair memoized for the call, so an entry is one product of
    numerators over one of denominators, over Q one Fraction.  A vanishing
    global factor raises ZeroDenominatorPochhammer(d, "<kind> global factor").
    """
    ell, om = params.ell, params.omega
    no, do = _pair(om)
    consts = [(*_pair(ap + om + 1), sum(ell[p:])) for p, ap in enumerate(params.a)]
    is_c = kind == "C"
    detail = f"{kind} global factor"
    factors: dict[tuple, tuple] = {}
    heads: dict[tuple[int, int], tuple] = {}
    out = []
    for row, col in pairs:
        u = v = 1
        ms = 0  # |row|_1^{p-1} + |col|_1^{p-1}
        for p, (r, c, (cn, cd, tail)) in enumerate(zip(row, col, consts)):
            m = ms + c + tail
            f = factors.get((p, m, r, c))
            if f is None:
                fu, fv = _rising(cn + m * cd, cd, r - c)
                f = factors[(p, m, r, c)] = (comb(r, c) * fu, fv)
            u, v = u * f[0], v * f[1]
            ms += r + c
        wc = sum(col)
        m, d = (2 * wc + 1 if is_c else ms), ms - 2 * wc
        g = heads.get((m, d))
        if g is None:
            g = heads[(m, d)] = _rising(no + m * do, do, d)
            if g[0] == 0:
                raise ZeroDenominatorPochhammer(d, detail)
        if is_c and d % 2:
            u = -u
        out.append(pair_value(u * g[1], v * g[0]))
    return out


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
    # C and Cbar vanish unless row >= col pointwise: the kernel runs over
    # the dominance sub-box of each column
    basis = enumerate_box(params.shape)
    pos, tops = {m: k for k, m in enumerate(basis)}, [lp + 1 for lp in params.ell]
    pairs = [(row, col) for col in basis for row in product(*map(range, col, tops))]
    values = zip(pairs, _raising_values(params, kind, pairs))
    return ExactMatrix(basis, {(pos[row], pos[col]): v for (row, col), v in values})


EIGENBASIS_NAMES = ("A_basis", "Astar_basis")


def eigenbasis_matrix(params: TDParameters, which: str) -> ExactMatrix:
    """Column matrix of an eigenbasis over the split basis.

    "A_basis" gives M_C (column x is the A-eigenvector of eigenvalue
    theta_|x|), "Astar_basis" gives M_D.  Parameters are validated first.
    """
    if which not in EIGENBASIS_NAMES:
        raise ValueError(f"unknown eigenbasis {which!r}; expected one of {EIGENBASIS_NAMES}")
    _ensure_valid(params)
    return coefficient_matrix(params, "C" if which == "A_basis" else "D")


BLOCK_FORMS = ("Astar_in_Vx", "A_in_Vi")


def block_tridiagonal_form(params: TDParameters, which: str) -> ExactMatrix:
    """The opposite operator in an eigenbasis, by the explicit block formula.

    "Astar_in_Vx" is A* over the V(x) basis, the B* with M_C B* = A* M_C;
    "A_in_Vi" is A over the V_i basis, the B with M_D B = A M_D.  Both sides
    are products over Z; a discrepancy raises StructureViolation, with the
    entries of fwd B and op fwd.  B has no far blocks (no entry linking
    levels two or more apart) by construction, and the identity makes B
    the conjugate, so the conjugate is block tridiagonal."""
    if which not in BLOCK_FORMS:
        raise ValueError(f"unknown block form {which!r}; expected one of {BLOCK_FORMS}")
    _ensure_valid(params)
    if which == "Astar_in_Vx":
        fwd = coefficient_matrix(params, "C")
        form = _explicit_star_blocks(params, fwd, coefficient_matrix(params, "Cbar"))
        op, identity = _assemble_operator(params, "Astar"), "M_C B* vs A* M_C"
    else:
        fwd = coefficient_matrix(params, "D")
        # the mirrors of D and Dbar are C and Cbar at the swapped parameters
        inv = _mirrored(coefficient_matrix(params, "Dbar"))
        form = _mirrored(_explicit_star_blocks(_swapped(params), _mirrored(fwd), inv))
        op, identity = _assemble_operator(params, "A"), "M_D B vs A M_D"
    # fwd is triangular with a unit diagonal, so this holds exactly when
    # form is fwd^-1 op fwd
    f = cleared(fwd)
    diff = cleared_difference(
        cleared_product(f, cleared(form)), cleared_product(cleared(op), f), form.basis
    )
    if diff is not None:
        raise StructureViolation(*diff, detail=f"{which}: {identity}")
    return form


def _explicit_star_blocks(params: TDParameters, mc: ExactMatrix, mcb: ExactMatrix) -> ExactMatrix:
    """A* on the V(x) basis from the five-term block formula, with the C and
    Cbar coefficients read from their tables.

    The formula runs on basis positions: plus[p][k] and minus[p][k] are the
    positions of basis[k] +- e_p, or `out` outside the box, theta*_w is kept
    per level and xi*_{n,p} per (position, p), a `tdcore._xi_kernel` pair.
    Every term is a product of pairs, and each entry is one sum of its terms
    over their common denominator."""
    basis = enumerate_box(params.shape)
    N = params.N
    pos, out = {x: k for k, x in enumerate(basis)}, len(basis)

    def moved(p, step):
        return [pos.get(x[:p] + (x[p] + step,) + x[p + 1 :], out) for x in basis] + [out]

    plus, minus = [moved(p, 1) for p in range(N)], [moved(p, -1) for p in range(N)]
    ths = [_pair(eigenvalue(params, w, starred=True)) for w in range(params.diameter + 1)]
    xi_star = _xi_kernel(params, True)
    xs = [[xi_star(x, p) for p in range(N)] for x in basis]
    cp = {key: _pair(v) for key, v in mc.entries.items()}
    cbp = {key: _pair(v) for key, v in mcb.entries.items()}
    terms: dict[tuple[int, int], list] = {}

    def put(yk, xk, *factors):
        u, v = 1, 1
        for fu, fv in factors:
            u, v = u * fu, v * fv
        terms.setdefault((yk, xk), []).append((u, v))

    for xk, x in enumerate(basis):
        w = x.weight
        put(xk, xk, ths[w])
        for p in range(N):
            yk = minus[p][xk]
            if yk != out:
                put(yk, xk, xs[yk][p])
            yk = plus[p][xk]
            if (yk, xk) in cbp:
                put(yk, xk, ths[w], cbp[(yk, xk)])
            if (yk, xk) in cp:
                put(yk, xk, ths[w + 1], cp[(yk, xk)])
        for p in range(N):
            for q in range(N):
                # y = x + e_p - e_q
                yk = xk if p == q else minus[q][plus[p][xk]]
                xmq, xpp = minus[q][xk], plus[p][xk]
                if yk != out and (yk, xmq) in cbp:
                    put(yk, xk, xs[xmq][q], cbp[(yk, xmq)])
                if yk != out and (xpp, xk) in cp:
                    put(yk, xk, xs[yk][q], cp[(xpp, xk)])
                for r in range(p, N):
                    # y = x + e_p + e_r - e_q, summed over x <= n <= x + e_p + e_r
                    # with n and n - e_q in the box; x + e_p + e_r may lie
                    # outside it while y lies inside
                    if q == p:
                        yk = plus[r][xk]
                    elif q == r:
                        yk = xpp
                    else:
                        yk = minus[q][plus[r][xpp]]
                    if yk == out:
                        continue
                    ns = (xk, xpp, plus[p][xpp]) if p == r else (xk, xpp, plus[r][xk], plus[r][xpp])
                    for nk in ns:
                        nm = minus[q][nk]
                        if (nk, xk) in cp and (yk, nm) in cbp:
                            put(yk, xk, xs[nm][q], cp[(nk, xk)], cbp[(yk, nm)])
    sums = {key: over_common_denominator(*zip(*pairs)) for key, pairs in terms.items()}
    return ExactMatrix(basis, {key: pair_value(sum(scaled), den) for key, (scaled, den) in sums.items()})

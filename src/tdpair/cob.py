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

and in graded order n -> ell - n reverses the positions (`_reversed`, on
cleared rows).

C and Cbar differ only in the global factor, so one walk, `_raising_walk`,
builds both from one int product per entry, a column's entries as prefix
products over the coordinates; `cob_coefficient` is the walk at one entry.
Each side's two families are kept cleared (rows {r: {c: numerator}} over
one denominator, the lcm of the table's denominators; D and Dbar at the
reversed positions) in a small module-level cache, `_family_pair`, which
`_coefficient_rows` serves to the verifier's checks, the block formulas
and both matrix overlap routes.
`coefficient_matrix` and `block_tridiagonal_form` build a new matrix from
rows on each call (`tdcore.uncleared`), so a caller that writes into it
changes nothing another caller sees.

`block_tridiagonal_form` writes the opposite operator in an eigenbasis by
the explicit five-term block formula B and proves fwd B = op fwd over Z,
fwd = M_C or M_D; fwd has a unit diagonal, so B is the conjugate without a
triangular solve, and B is block tridiagonal by construction.  Its kernel
visits only the stored entries of C and Cbar, column by column, and writes
each term as an int product over one denominator, so the rows are B
cleared; block_structure runs it on the families' shared rows.  It reads
xi* from `tdcore._xi_kernel`, which also assembles A and A*; the eigen and
inverse checks test the tables against A and A*, assembled independently.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, gcd, prod
from typing import Sequence

from .exactfield import (
    FieldElement,
    ZeroDenominatorPochhammer,
    _pair,
    _rising,
    over_common_denominator,
    pair_value,
)
from .multiindex import IndexOutOfRange, _box, in_box
from .tdcore import (
    ExactMatrix,
    TDParameters,
    _assemble_operator,
    _ensure_valid,
    _primitive,
    _xi_kernel,
    cleared_difference,
    cleared_product,
    eigenvalue,
    substituted_for_involution,
    uncleared,
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
        self.row, self.col, self.lhs, self.rhs = row, col, lhs, rhs
        msg = f"entry [{tuple(row)}, {tuple(col)}]: {lhs} != {rhs}"
        if detail:
            msg = f"{detail}: {msg}"
        super().__init__(msg)


def cob_coefficient(
    params: TDParameters, kind: str, first: Sequence[int], second: Sequence[int]
) -> FieldElement:
    """One coefficient, indexed in subscript order (row index first): the
    table walk at one entry; out-of-support pairs give an exact zero.
    Parameters are taken as already validated; on sets violating the
    constraints the global factor can vanish, raising ZeroDenominatorPochhammer."""
    for n in (first, second):
        if not in_box(n, params.shape):
            raise IndexOutOfRange(f"index {tuple(n)} outside the box of {params.shape!r}")
    if kind in _MIRROR_OF:
        # the lowering side: the raising side at the swapped parameters, read at ell - n;
        # swapped uncached, as params may be over Laurent series, which no cache can key
        first, second = (tuple(lp - v for lp, v in zip(params.ell, n)) for n in (first, second))
        params, kind = _swapped.__wrapped__(params), _MIRROR_OF[kind]
    elif kind not in ("C", "Cbar"):
        raise ValueError(f"unknown coefficient kind {kind!r}; expected one of {COEFFICIENT_KINDS}")
    if any(f < s for f, s in zip(first, second)):
        return Fraction(0)
    _, fams = _raising_walk(params, [(second, [range(r, r + 1) for r in first])])
    fam = fams[kind == "Cbar"]
    if isinstance(fam, ZeroDenominatorPochhammer):
        raise fam
    return pair_value(fam[0][0], fam[1][0])


@lru_cache(maxsize=8)
def _swapped(params: TDParameters) -> TDParameters:
    """Both halves of `substituted_for_involution` applied together, each
    read off params: the plain and starred spectra trade places, so the
    raising side at the result is the mirror of the lowering side at params.
    Derived once per parameter set: the U kernels, the lowering families and
    the A-side block form all read it."""
    lo = substituted_for_involution(params, starred=True)
    hi = substituted_for_involution(params, starred=False)
    return replace(lo, theta0_star=hi.theta0_star, h_star=hi.h_star, omega_star=hi.omega_star)


_MIRROR_OF = {"D": "C", "Dbar": "Cbar"}


def _raising_walk(params: TDParameters, spans) -> tuple:
    """C and Cbar at (row, col) for each (col, ranges) of spans and each row
    of product(*ranges), row >= col, in that order: (keys, [C, Cbar]), keys
    the (row, col) lexicographic box indices and each family its unreduced
    (numerators, denominators) in key order, or the ZeroDenominatorPochhammer
    of its own first vanishing global factor.  Both are the product over p
    of binomial(row_p, col_p) (c_p + M_p)_k, k = row_p - col_p, c_p = a_p +
    omega + 1, M_p = |row|_1^{p-1} + |col|_1^p + |ell|_p^N, over (omega + M)_d,
    d = |row| - |col|, M = 2|col| + 1 with a sign (-1)^d for C, |row| + |col|
    for Cbar: factor p extends a prefix of the row, memoized by (p, M_p,
    row_p, col_p), and one product u / v per entry serves both.  do^d enters
    coordinate p as do^k over c_p's denominator to the k, both divided by
    their gcd to the k; with a Q(t) part each pair is the `_pair` of its value."""
    ell, om = params.ell, params.omega
    no, do = _pair(om)
    consts = []
    for p, ap in enumerate(params.a):
        cn, cd = _pair(ap + om + 1)
        dq, cq = do // gcd(do, cd), cd // gcd(do, cd)
        consts.append((cn, cd, dq, cq, sum(ell[p:]), prod(lp + 1 for lp in ell[p + 1 :])))
    factors, heads, keys, fams = {}, {}, [], [([], []), ([], [])]
    for col, ranges in spans:
        paths = [(0, 0, 1, 1)]  # (row index so far, |row|_1^{p-1} + |col|_1^{p-1}, u, v)
        for p, (c, span, (cn, cd, dq, cq, tail, step)) in enumerate(zip(col, ranges, consts)):
            longer = []
            for at, ms, u, v in paths:
                m = ms + c + tail
                for r in span:
                    f = factors.get((p, m, r, c))
                    if f is None:
                        # over Q the _rising denominator is cd^k = (cd / cq)^k cq^k
                        k = r - c
                        f = factors[p, m, r, c] = (comb(r, c) * _rising(cn + m * cd, cd, k)[0] * dq**k, cq**k)
                    longer.append((at + r * step, ms + r + c, u * f[0], v * f[1]))
            paths = longer
        wc, ck = sum(col), sum(c * s[-1] for c, s in zip(col, consts))
        lo, hi = (sum(r[i] for r in ranges) - wc for i in (0, -1))
        keys += [(at, ck) for at, _, _, _ in paths]
        key, base, ds = (wc, lo, hi), 2 * wc + lo, range(lo, hi + 1)
        if key not in heads:  # (omega + M)_d of C and of Cbar, read at d - lo = ms - base
            heads[key] = [[_rising(no + (2 * wc + (d if j else 1)) * do, do, d)[0] for d in ds] for j in (0, 1)]
        for j, (fam, h) in enumerate(zip(fams, heads[key])):
            if isinstance(fam, ZeroDenominatorPochhammer):
                continue
            if not all(h):
                d = next(ms - 2 * wc for _, ms, _, _ in paths if not h[ms - base])
                fams[j] = ZeroDenominatorPochhammer(d, f"{('C', 'Cbar')[j]} global factor")
                continue
            fam[0].extend([u for _, _, u, _ in paths] if j else [-u if ms % 2 else u for _, ms, u, _ in paths])
            fam[1].extend([v * h[ms - base] for _, ms, _, v in paths])
    if type(no) is not int or any(type(c[0]) is not int for c in consts):
        for j, fam in enumerate(fams):
            if not isinstance(fam, ZeroDenominatorPochhammer):
                pairs = ((u, v) if type(u) is type(v) is int else _pair(pair_value(u, v)) for u, v in zip(*fam))
                fams[j] = tuple(zip(*pairs))
    return keys, fams


def coefficient_matrix(params: TDParameters, kind: str) -> ExactMatrix:
    """The full table of one family as a matrix over the graded basis,
    oriented so entry [first, second] carries subscripts (first, second),
    built anew on each call from the family's shared cleared rows."""
    if kind not in COEFFICIENT_KINDS:
        raise ValueError(f"unknown coefficient kind {kind!r}; expected one of {COEFFICIENT_KINDS}")
    return uncleared(_box(params.shape), _coefficient_rows(params, kind))


@lru_cache(maxsize=8)
def _family_pair(params: TDParameters, lowering: bool) -> tuple:
    """(C, Cbar), or (D, Dbar) from the swapped parameters at the reversed
    positions: one walk over each column's sub-box row >= col, each family
    over one common multiple made `_primitive`, or its fault."""
    basis, tops = _box(params.shape), [lp + 1 for lp in params.ell]
    at = list(map({m: k for k, m in enumerate(basis)}.get, product(*map(range, tops))))  # lexicographic -> graded
    if lowering:
        params, at = _swapped(params), [len(basis) - 1 - k for k in at]
    keys, fams = _raising_walk(params, [(col, list(map(range, col, tops))) for col in basis])
    for j, fam in enumerate(fams):
        if not isinstance(fam, ZeroDenominatorPochhammer):
            nums, den = over_common_denominator(*fam)
            rows: dict[int, dict] = {}
            for (r, c), u in zip(keys, nums):
                if u:
                    rows.setdefault(at[r], {})[at[c]] = u
            fams[j] = _primitive(rows, den)
    return tuple(fams)


def _coefficient_rows(params: TDParameters, kind: str) -> tuple:
    """One family cleared, shared by readers that never write into it, or its fault raised."""
    x = _family_pair(params, kind in _MIRROR_OF)[kind in ("Cbar", "Dbar")]
    if isinstance(x, ZeroDenominatorPochhammer):
        raise ZeroDenominatorPochhammer(x.k, x.detail)  # anew: the cached one keeps no traceback
    return x


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
    fwd, inv, op = ("C", "Cbar", "Astar") if which == "Astar_in_Vx" else ("D", "Dbar", "A")
    tables = (_coefficient_rows(params, kind) for kind in (fwd, inv))
    form = _block_form_rows(params, which, *tables, _assemble_operator(params, op))
    return uncleared(_box(params.shape), form)


def _block_form_rows(params: TDParameters, which: str, fwd: tuple, inv: tuple, op: tuple) -> tuple:
    """The block form `which` cleared, from fwd (M_C or M_D), its inverse
    family and op (A* or A), all cleared; raises StructureViolation unless
    fwd B = op fwd.  A on V_i is the kernel at the swapped parameters on the
    reversed rows of D and Dbar, reversed back: compared in the order of params."""
    basis = _box(params.shape)
    if which == "Astar_in_Vx":
        form, identity = _star_block_rows(params, fwd, inv), "M_C B* vs A* M_C"
    else:
        last = len(basis) - 1
        mirrors = (_reversed(x, last) for x in (fwd, inv))
        form = _reversed(_star_block_rows(_swapped(params), *mirrors), last)
        identity = "M_D B vs A M_D"
    # fwd is triangular with a unit diagonal, so this holds exactly when
    # form is fwd^-1 op fwd
    diff = cleared_difference(cleared_product(fwd, form), cleared_product(op, fwd), basis)
    if diff is not None:
        raise StructureViolation(*diff, detail=f"{which}: {identity}")
    return form


def _reversed(x: tuple, last: int) -> tuple:
    """S X S of a cleared X: entry [r, c] moves to [last - r, last - c]."""
    rows, den = x
    return {last - r: {last - c: v for c, v in row.items()} for r, row in rows.items()}, den


def _star_block_rows(params: TDParameters, c: tuple, cbar: tuple) -> tuple:
    """A* on the V(x) basis from the five-term block formula, cleared, from
    C and Cbar cleared, on basis positions.  theta*_w and xi*_{n,p} are put
    over their lcm, dt and dx, once; with dc and dcb those of C and Cbar,
    each term is an int product over den = dt dx dc dcb, each kind scaled
    by the factors of den it lacks, and the rows are made `_primitive`.
    The walk visits stored entries only, C and Cbar by column k at rows k,
    k + e_p and k + e_p + e_r: for each n of C's column x and m = n - e_q
    in the box, xi*_{m,q} C[n,x] is formed once and multiplies each Cbar[y,m]
    with |y| = |x| + 1, the y = x + e_p + e_r - e_q with n <= x + e_p + e_r."""
    basis, N = _box(params.shape), params.N
    pos = {x: k for k, x in enumerate(basis)}
    (c_rows, dc), (cb_rows, dcb) = c, cbar
    levels = range(params.diameter + 1)
    th, dt = over_common_denominator(*zip(*(_pair(eigenvalue(params, w, True)) for w in levels)))
    xi_star = _xi_kernel(params, True)
    # xi*_{n,p} at n N + p
    xs, dx = over_common_denominator(*zip(*(xi_star(x, p) for x in basis for p in range(N))))
    # theta* alone, times Cbar, times C; xi* alone, times Cbar, times C, times C Cbar
    th1, thb, thc = ([u * k for u in th] for k in (dx * dc * dcb, dx * dc, dx * dcb))
    k1, kb, kc = dt * dc * dcb, dt * dc, dt * dcb
    # below[n]: (m, the four xi*_{m,q}) for each m = n - e_q in the box; above[m]: (q, n)
    below, above = [[] for _ in basis], [[] for _ in basis]
    for n, x in enumerate(basis):
        for q in range(N):
            m = pos.get(x[:q] + (x[q] - 1,) + x[q + 1 :])
            if m is not None:
                u = xs[m * N + q]
                below[n].append((m, u * k1, u * kb, u * kc, u * dt))
                above[m].append((q, n))
    # column k of C and of Cbar: [(row, entry)] at rows k, k + e_p and k + e_p + e_r
    rows, cs, cbs = {}, [], []
    for k, up in enumerate(above):
        tops = ([k], [n for _, n in up], [t for q, n in up for r, t in above[n] if r >= q])
        for cols, fam in ((cs, c_rows), (cbs, cb_rows)):
            cols.append([[(n, fam[n][k]) for n in ns if k in fam[n]] for ns in tops])
    for xk, w in enumerate(x.weight for x in basis):
        acc = {xk: th1[w]}
        for m, a, _, _, _ in below[xk]:
            acc[m] = acc.get(m, 0) + a
        for _, yk in above[xk]:
            acc[yk] = acc.get(yk, 0) + thb[w] * cb_rows[yk].get(xk, 0) + thc[w + 1] * c_rows[yk].get(xk, 0)
        # y = x + e_p - e_q: Cbar[y, x - e_q], and C[x + e_p, x] at each y below x + e_p
        for m, _, b, _, _ in below[xk]:
            for yk, u in cbs[m][1]:
                acc[yk] = acc.get(yk, 0) + b * u
        for nk, v in cs[xk][1]:
            for yk, _, _, cv, _ in below[nk]:
                acc[yk] = acc.get(yk, 0) + cv * v
        # y = x + e_p + e_r - e_q: n at level |x| + g, Cbar's column n - e_q at |x| + 1
        for g, cg in enumerate(cs[xk]):
            for nk, v in cg:
                for m, _, _, _, cc in below[nk]:
                    xc = cc * v
                    for yk, u in cbs[m][2 - g]:
                        acc[yk] = acc.get(yk, 0) + xc * u
        for yk, s in acc.items():
            if s:
                rows.setdefault(yk, {})[xk] = s
    return _primitive(rows, dt * dx * dc * dcb)

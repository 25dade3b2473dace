"""Overlap functions between the two eigenbases.

T_i(x) expands the A*-eigenvector V_i over the A-eigenbasis, U_i(x) the
other way around:

    V_i = sum_x T_i(x) V(x)          V(x) = sum_i U_i(x) V_i

Each is computed by independent routes that must agree exactly:

  T: direct_sum       nested sum over n from 0 to min(i, x) pointwise
     matrix_product   sum_n D[n,i] Cbar[x,n]
     shift_operator   ordered product of Racah factors whose argument is
                      the joint shift Z = e^{d_i_p + d_x_p}
  U: direct_sum       the T direct_sum at the swapped parameters, mirrored
     shift_operator   the T shift_operator at the swapped parameters, mirrored
     linear_solve     back-substitution of M_D X = M_C

The involution S swaps A and A* and with them the two bases: at
q = `cob._swapped(p)`, U = Dbar C with Dbar(p)[i,n] = Cbar(q)[ell-i, ell-n]
and C(p)[n,x] = D(q)[ell-n, ell-x] gives U(p)_i(x) = T(q)_{ell-x}(ell-i), so
no U formula is written out (`_mirror_of`).  The three U routes stay
independent: T's direct sum and shift walk at q, the back-substitution at p.

The shift route is evaluated literally as an operator acting on a function
table: every factor expands as sum_k coeff(k) Z^k, the table maps the
accumulated shift offsets to accumulated weights, and the product applies
factor 1 outermost.  One walk (`_shift_walk`) drives the table for T and
for the truncated Hahn kind; each of them only supplies its factor, with
every parameter an integer pair (n + m d, d) over the `_pair` (n, d) of a
per-table constant.  T's factor is the one pair-level Racah factor,
`_racah_factor`, which `RacahFactorSpec` wraps.  Each series advances by its
hypergeometric term ratio (Petkovsek-Wilf-Zeilberger, A = B, ch. 3) instead
of recomputing its Pochhammer symbols.  Truncated Hahn and Krawtchouk kinds
live at the end.

The two pointwise routes carry every value as a pair (numerator,
denominator): two ints over Q, a field element over 1 (or over a field
element) over Q(t).  Each sums its pairs through
`exactfield.over_common_denominator`, the accumulation primitive the matrix
routes and the series sums use too: the walk keeps its weights as
numerators over one common denominator, and the direct sums multiply pairs
of Pochhammer symbols memoized once per table and sum the terms of an entry
over their lcm, so over Q each entry is built as one Fraction.  Only that
primitive is shared; within a family no route borrows another's formula.

`overlap_table` builds one whole table per route with one call: a kernel
per pointwise route (`_t_direct`, `_t_shift` and their mirrors `_u_direct`,
`_u_shift`) takes the rows and columns and returns every entry, and
`overlap_T` and `overlap_U` call the same kernel for a single entry;
matrix_product is one matrix product and linear_solve one
back-substitution.  The verifier compares these tables, so the routes stay
independent computations.  Cached tables are never returned themselves,
only copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import factorial, prod
from typing import Callable, Iterator, Sequence

from .exactfield import (
    FieldElement,
    ZeroDenominatorPochhammer,
    _inv_poch,
    _pair,
    _rising,
    _term_pairs,
    binomial,
    is_zero,
    over_common_denominator,
    pair_value,
    pfq_terminating,
    pochhammer,
)
from .multiindex import (
    IndexOutOfRange,
    MultiIndex,
    enumerate_box,
    in_box,
)
from .cob import _swapped, cob_coefficient, coefficient_matrix
from .tdcore import (
    ExactMatrix,
    InvalidParameters,
    TDParameters,
    validate_parameters,
)

__all__ = [
    "T_METHODS",
    "U_METHODS",
    "LIMIT_KINDS",
    "RacahFactorSpec",
    "overlap_T",
    "overlap_U",
    "overlap_table",
    "overlap_limit_kind",
    "univariate_t_racah",
    "univariate_u_balanced",
    "univariate_u_racah_normalized",
]

T_METHODS = ("direct_sum", "matrix_product", "shift_operator")
U_METHODS = ("direct_sum", "shift_operator", "linear_solve")
LIMIT_KINDS = ("hahn", "krawtchouk")


@lru_cache(maxsize=32)
def _ensure_valid(params: TDParameters):
    report = validate_parameters(params)
    if not report.passed:
        raise InvalidParameters(report)


def _point(params: TDParameters, n: Sequence[int]) -> MultiIndex:
    if not in_box(n, params.shape):
        raise IndexOutOfRange(f"index {tuple(n)} outside the box of {params.shape!r}")
    return MultiIndex(n)


# ---------------------------------------------------------------------------
# the single Racah factor and the shift-operator machinery


@dataclass(frozen=True)
class RacahFactorSpec:
    """One factor R(i, x, a1, a2; ell, b1, b2; Z): the prefactor
    binom(ell,i) (b1)_i (b2)_x times the terminating series
    sum_k (-i)_k (-x)_k (a1)_k (a2)_k / [(1)_k (b1)_k (b2)_k (-ell)_k] Z^k."""

    i: int
    x: int
    a1: FieldElement
    a2: FieldElement
    b1: FieldElement
    b2: FieldElement
    ell: int

    def __post_init__(self):
        if not 0 <= self.i <= self.ell:
            raise ValueError(f"factor degree i={self.i} outside 0..{self.ell}")
        if not 0 <= self.x <= self.ell:
            raise ValueError(f"factor degree x={self.x} outside 0..{self.ell}")

    def _factor(self) -> tuple:
        args = (_pair(v) for v in (self.a1, self.a2, self.b1, self.b2))
        return _racah_factor(self.i, self.x, *args, self.ell)

    def prefactor_pair(self) -> tuple[FieldElement, FieldElement]:
        """The prefactor as a pair (u, v) with u / v its value, two ints
        over Q."""
        return self._factor()[0]

    def term_pairs(self) -> Iterator[tuple[int, FieldElement, FieldElement]]:
        """Yield (k, u, v) with u / v the series coefficient of Z^k, each
        from the last by the term ratio (integers over Q); a vanishing
        numerator ends the series, a vanishing denominator factor is an
        error."""
        return self._factor()[1]

    def series(self) -> Iterator[tuple[int, FieldElement]]:
        """Yield (k, series coefficient of Z^k); see `term_pairs`."""
        return ((k, pair_value(u, v)) for k, u, v in self.term_pairs())

    def value_at_unit(self) -> FieldElement:
        """The scalar value with Z = 1 (the univariate collapse)."""
        return pair_value(*self.prefactor_pair()) * sum((c for _, c in self.series()), Fraction(0))


def _racah_factor(i: int, x: int, a1: tuple, a2: tuple, b1: tuple, b2: tuple, ell: int) -> tuple:
    """The factor of `RacahFactorSpec` with a1, a2, b1 and b2 given as pairs
    (n, d): (its prefactor pair, its iterator of term pairs (k, u, v))."""
    (u1, v1), (u2, v2) = _rising(*b1, i), _rising(*b2, x)
    num, den = [(-i, 1), (-x, 1), a1, a2], [b1, b2, (-ell, 1)]
    terms = _term_pairs(num, den, min(i, x), (1, 1), "Racah factor series")
    return (binomial(ell, i) * u1 * u2, v1 * v2), terms


def _shifted(n: Sequence[int], offsets: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(v + k for v, k in zip(n, offsets))


def _shift_walk(N: int, factor_terms) -> FieldElement:
    """Apply factors 1..N (factor 1 outermost) to the identity table and
    sum it.  factor_terms(p, offsets) gives factor p at the shifted indices
    as (prefactor pair, iterator of (k, u, v)), u / v the coefficient of
    Z^k; the term for Z^k moves its weight k steps along coordinate p.
    The table maps the joint shift offsets (k_1, ..., k_N) reached so far
    to the total weight of the paths reaching them, as numerators over one
    common denominator `den`; factor p only adds to coordinate p.  Over Q
    every pair is two ints, so each factor costs integer products and one
    rescaling of the table to a new common denominator."""
    table: dict[tuple[int, ...], FieldElement] = {(0,) * N: 1}
    den = 1
    for p in range(1, N + 1):
        keys, nums, dens = [], [], []
        for offsets, w in table.items():
            (pu, pv), terms = factor_terms(p, offsets)
            wu, wv = w * pu, den * pv
            for k, u, v in terms:
                keys.append(
                    offsets if k == 0 else offsets[: p - 1] + (offsets[p - 1] + k,) + offsets[p:]
                )
                nums.append(wu * u)
                dens.append(wv * v)
        scaled, den = over_common_denominator(nums, dens)
        table = {}
        for key, weight in zip(keys, scaled):
            cur = table.get(key)
            table[key] = weight if cur is None else cur + weight
    return pair_value(sum(table.values()), den)


def _t_shift(
    params: TDParameters, rows: Sequence[MultiIndex], cols: Sequence[MultiIndex]
) -> list[list[FieldElement]]:
    """T_i(x) by the shift-operator product for every i of rows, x of cols.
    Factor p at the shifted indices i', x' has a1 = |i'| + omega*,
    a2 = |x'| + omega, b1 = |i'|_1^{p-1} + c1_p and b2 = |x'|_1^{p-1} + c2_p,
    each a pair (n + m d, d) over the pair (n, d) of a per-table constant."""
    ell, N, om, oms, a = params.ell, params.N, params.omega, params.omega_star, params.a
    (no, do), (nos, dos) = _pair(om), _pair(oms)
    c1 = [_pair(sum(ell[p:]) - a[p - 1] + oms) for p in range(1, N + 1)]
    c2 = [_pair(sum(ell[p - 1 :]) + a[p - 1] + 1 + om) for p in range(1, N + 1)]
    heads: dict[tuple[int, int], FieldElement] = {}

    def entry(i, x):
        def factor_terms(p, offsets):
            si, sx = _shifted(i, offsets), _shifted(x, offsets)
            (n1, d1), (n2, d2) = c1[p - 1], c2[p - 1]
            b1 = (n1 + sum(si[: p - 1]) * d1, d1)
            b2 = (n2 + sum(sx[: p - 1]) * d2, d2)
            a1, a2 = (nos + sum(si) * dos, dos), (no + sum(sx) * do, do)
            return _racah_factor(si[p - 1], sx[p - 1], a1, a2, b1, b2, ell[p - 1])

        key = wi, wx = i.weight, x.weight
        if key not in heads:
            heads[key] = Fraction((-1) ** wi) / (
                _inv_poch(wi + oms, wi, "T shift head") * _inv_poch(wx + om, wx, "T shift head")
            )
        return heads[key] * _shift_walk(N, factor_terms)

    return [[entry(i, x) for x in cols] for i in rows]


# ---------------------------------------------------------------------------
# direct nested sums


def _direct_ratios(params: TDParameters, detail: str) -> Callable[..., tuple]:
    """ratio(j, m, jd, md, k) = (b_j + m)_k / (b_jd + md)_k as a pair (u, v),
    memoized for one table.  Every rational Pochhammer symbol of the direct
    sums has an integer m and a base b_j among omega (j = 0), omega* (1),
    a_p + omega + 1 (2p) and omega* - a_p (2p + 1).  Over Q, u and v are
    ints, so each term is a product of ints; a vanishing denominator raises
    ZeroDenominatorPochhammer(k, detail)."""
    om, oms = params.omega, params.omega_star
    bases = [om, oms]
    for ap in params.a:
        bases += [ap + om + 1, oms - ap]
    parts = [_pair(b) for b in bases]
    memo: dict[tuple, tuple] = {}

    def ratio(j, m, jd, md, k):
        key = (j, m, jd, md, k)
        hit = memo.get(key)
        if hit is None:
            (n, d), (dn, dd) = parts[j], parts[jd]
            (u, v), (du, dv) = _rising(n + m * d, d, k), _rising(dn + md * dd, dd, k)
            if du == 0:
                raise ZeroDenominatorPochhammer(k, detail)
            hit = memo[key] = (u * dv, v * du)
        return hit

    return ratio


def _entry_value(nums: list, dens: list, hu: int, hv: int) -> FieldElement:
    scaled, den = over_common_denominator(nums, dens)
    return pair_value(sum(scaled) * hu, den * hv)


def _t_direct(
    params: TDParameters, rows: Sequence[MultiIndex], cols: Sequence[MultiIndex]
) -> list[list[FieldElement]]:
    """T_i(x) by the nested sum over 0 <= n <= min(i, x) for every i of
    rows, x of cols; s? below are prefix sums, s?[q] = |?|_1^q.
    prod_p (-ell_p)_{i_p} / (1)_{i_p} depends on i only and multiplies each
    entry once."""
    ell, N = params.ell, params.N
    ratio = _direct_ratios(params, "T direct denominator")
    tail = [sum(ell[q:]) for q in range(N + 1)]
    out = []
    for i in rows:
        si, wi = list(accumulate(i, initial=0)), i.weight
        hu = prod(prod(range(-lq, iq - lq)) for lq, iq in zip(ell, i))
        hv = prod(factorial(iq) for iq in i)
        row = []
        for x in cols:
            sx, wx = list(accumulate(x, initial=0)), x.weight
            nums, dens = [], []
            for n in product(*[range(min(iq, xq) + 1) for iq, xq in zip(i, x)]):
                sn = list(accumulate(n, initial=0))
                wn = sn[N]
                tu = tv = 1
                for q in range(N):
                    nq, iq, xq, lq, j = n[q], i[q], x[q], ell[q], 2 * q + 2
                    lo, hi = sn[q], sn[q + 1]
                    xu, xv = ratio(j, sx[q] + hi + tail[q], 0, wx + wn + sx[q] - lo, xq - nq)
                    iu, iv = ratio(j + 1, si[q] + hi + tail[q + 1], 1, wi + wn + si[q] - lo, iq - nq)
                    tu *= prod(range(-xq, nq - xq)) * prod(range(-iq, nq - iq)) * xu * iu
                    tv *= factorial(nq) * prod(range(-lq, nq - lq)) * xv * iv
                nums.append(tu)
                dens.append(tv)
            row.append(_entry_value(nums, dens, hu, hv))
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# U as the mirror of T


def _mirror_of(t_kernel: Callable) -> Callable:
    """The U kernel U(p)_i(x) = T(q)_{ell-x}(ell-i), q = _swapped(p): t_kernel,
    bound here, runs at q on rows ell - cols and columns ell - rows, and its
    table comes back transposed."""

    def u_kernel(
        params: TDParameters, rows: Sequence[MultiIndex], cols: Sequence[MultiIndex]
    ) -> list[list[FieldElement]]:
        ell = params.ell

        def flip(n):
            return MultiIndex(lp - v for lp, v in zip(ell, n))

        table = t_kernel(_swapped(params), [flip(x) for x in cols], [flip(i) for i in rows])
        return [[row[r] for row in table] for r in range(len(rows))]

    return u_kernel


_u_direct = _mirror_of(_t_direct)
_u_shift = _mirror_of(_t_shift)


# ---------------------------------------------------------------------------
# matrix routes


def _t_matrix_entry(params: TDParameters, i: MultiIndex, x: MultiIndex) -> FieldElement:
    total = Fraction(0)
    for n in product(*[range(min(i[p], x[p]) + 1) for p in range(params.N)]):
        total += cob_coefficient(params, "D", n, i) * cob_coefficient(params, "Cbar", x, n)
    return total


@lru_cache(maxsize=32)
def _u_solved_table(params: TDParameters) -> ExactMatrix:
    # M_D is unit upper triangular in graded order, so M_D X = M_C is one
    # exact back-substitution
    md = coefficient_matrix(params, "D")
    mc = coefficient_matrix(params, "C")
    return md.solve_upper_triangular(mc)


# ---------------------------------------------------------------------------
# public evaluators


def overlap_T(
    params: TDParameters, i: Sequence[int], x: Sequence[int], method: str = "direct_sum"
) -> FieldElement:
    """T_i(x) by the chosen route; all routes agree on valid parameters."""
    if method not in T_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {T_METHODS}")
    _ensure_valid(params)
    mi, mx = _point(params, i), _point(params, x)
    if method == "matrix_product":
        return _t_matrix_entry(params, mi, mx)
    kernel = _t_direct if method == "direct_sum" else _t_shift
    return kernel(params, [mi], [mx])[0][0]


def overlap_U(
    params: TDParameters, i: Sequence[int], x: Sequence[int], method: str = "direct_sum"
) -> FieldElement:
    """U_i(x) by the chosen route; all routes agree on valid parameters."""
    if method not in U_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {U_METHODS}")
    _ensure_valid(params)
    mi, mx = _point(params, i), _point(params, x)
    if method == "linear_solve":
        return _u_solved_table(params).entry(mi, mx)
    kernel = _u_direct if method == "direct_sum" else _u_shift
    return kernel(params, [mi], [mx])[0][0]


def overlap_table(params: TDParameters, which: str, method: str) -> ExactMatrix:
    """Full table as a matrix with rows i and columns x in graded order."""
    if which not in ("T", "U"):
        raise ValueError(f"unknown overlap family {which!r}; expected 'T' or 'U'")
    _ensure_valid(params)
    methods = T_METHODS if which == "T" else U_METHODS
    if method not in methods:
        raise ValueError(f"unknown method {method!r}; expected one of {methods}")
    basis = enumerate_box(params.shape)
    if method == "matrix_product":
        mcb = coefficient_matrix(params, "Cbar")
        md = coefficient_matrix(params, "D")
        return (mcb @ md).transpose()
    if method == "linear_solve":
        # a copy: the cached table must not be writable through the result
        m = _u_solved_table(params)
        return ExactMatrix(m.basis, m.entries)
    if which == "T":
        kernel = _t_direct if method == "direct_sum" else _t_shift
    else:
        kernel = _u_direct if method == "direct_sum" else _u_shift
    m = ExactMatrix(basis)
    for r, row in enumerate(kernel(params, basis, basis)):
        for c, v in enumerate(row):
            if not is_zero(v):
                m.entries[(r, c)] = v
    return m


# ---------------------------------------------------------------------------
# univariate closed forms (single coordinate only)


def _require_univariate(params: TDParameters):
    if params.N != 1:
        raise ValueError("closed form defined for a single coordinate only")


def _coords_1d(params: TDParameters, i, x) -> tuple[int, int]:
    mi, mx = _point(params, i), _point(params, x)
    return mi[0], mx[0]


def univariate_t_racah(params: TDParameters, i, x) -> FieldElement:
    """T for N = 1 as one Racah factor at unit argument."""
    _require_univariate(params)
    _ensure_valid(params)
    iv, xv = _coords_1d(params, i, x)
    ell, om, oms, a = params.ell[0], params.omega, params.omega_star, params.a[0]
    factor = RacahFactorSpec(iv, xv, iv + oms, xv + om, oms - a, ell + om + a + 1, ell)
    head = Fraction((-1) ** iv) / (_inv_poch(iv + oms, iv, "T head") * _inv_poch(xv + om, xv, "T head"))
    return head * factor.value_at_unit()


def univariate_u_balanced(params: TDParameters, i, x) -> FieldElement:
    """U for N = 1 as the balanced 4F3 the mirrored sum collapses to."""
    _require_univariate(params)
    _ensure_valid(params)
    iv, xv = _coords_1d(params, i, x)
    ell = params.ell[0]
    om, oms, a = params.omega, params.omega_star, params.a[0]
    pref = (
        Fraction((-1) ** ell)
        * pochhammer(-ell, xv)
        * pochhammer(xv + ell + a + om + 1, ell - xv)
        * pochhammer(iv - a + oms, ell - iv)
    )
    pref /= (
        pochhammer(Fraction(1), xv)
        * _inv_poch(2 * xv + om + 1, ell - xv, "U balanced denominator")
        * _inv_poch(2 * iv + oms + 1, ell - iv, "U balanced denominator")
    )
    series = pfq_terminating(
        [iv - ell, xv - ell, -xv - ell - om, -iv - ell - oms],
        [-ell, -2 * ell - a - om, -ell + a + 1 - oms],
        Fraction(1),
        ell,
    )
    return pref * series


def univariate_u_racah_normalized(params: TDParameters, i, x) -> FieldElement:
    """U for N = 1 rewritten so the same Racah-type 4F3 kernel as T appears;
    must agree exactly with the balanced form."""
    _require_univariate(params)
    _ensure_valid(params)
    iv, xv = _coords_1d(params, i, x)
    ell = params.ell[0]
    om, oms, a = params.omega, params.omega_star, params.a[0]
    norm = Fraction((-1) ** ell) * pochhammer(-ell, xv) / pochhammer(Fraction(1), xv)
    norm *= (
        pochhammer(iv - a + oms, ell - iv)
        * pochhammer(iv - ell - a - om + oms, ell - iv)
        * pochhammer(iv + a + 1, ell - iv)
    )
    norm /= (
        _inv_poch(2 * iv + oms + 1, ell - iv, "U normalized denominator")
        * _inv_poch(-2 * ell - a - om, ell - iv, "U normalized denominator")
        * _inv_poch(-ell + a - oms + 1, ell - iv, "U normalized denominator")
    )
    norm *= (
        pochhammer(xv + ell + a + om + 1, ell - xv)
        * pochhammer(-xv + a - oms + 1, xv)
        * pochhammer(-xv - ell - a - om, xv)
    )
    norm /= (
        _inv_poch(2 * xv + om + 1, ell - xv, "U normalized denominator")
        * _inv_poch(a + om - oms + 1, xv, "U normalized denominator")
        * _inv_poch(-ell - a, xv, "U normalized denominator")
    )
    series = pfq_terminating(
        [-iv, iv + oms, -xv, xv + om],
        [-ell, -a + oms, ell + a + om + 1],
        Fraction(1),
        min(iv, xv),
    )
    return norm * series


# ---------------------------------------------------------------------------
# degenerate kinds


def _hahn_value(params: TDParameters, i: MultiIndex, x: MultiIndex) -> FieldElement:
    """Nested product of truncated Hahn factors; shifts act on x only."""
    ell, N, om, a = params.ell, params.N, params.omega, params.a
    no, do = _pair(om)
    c = [_pair(sum(ell[p - 1 :]) + a[p - 1] + 1 + om) for p in range(1, N + 1)]

    def factor_terms(p, offsets):
        xsh = _shifted(x, offsets)
        lp, ip, xp = ell[p - 1], i[p - 1], xsh[p - 1]
        (nb, db), aa = c[p - 1], (no + sum(xsh) * do, do)
        b = (nb + sum(xsh[: p - 1]) * db, db)
        num, den = [(-ip, 1), (-xp, 1), aa], [(-lp, 1), b]
        terms = _term_pairs(num, den, min(ip, xp), (1, 1), "Hahn factor series")
        u, v = _rising(*b, xp)
        return (binomial(lp, ip) * u, v), terms

    head = Fraction((-1) ** i.weight) / _inv_poch(x.weight + om, x.weight, "Hahn head")
    return head * _shift_walk(N, factor_terms)


def _krawtchouk_value(params: TDParameters, i: MultiIndex, x: MultiIndex) -> FieldElement:
    total = Fraction(1)
    for p in range(params.N):
        lp, ip, xp = params.ell[p], i[p], x[p]
        total *= pochhammer(-lp, ip) / pochhammer(Fraction(1), ip)
        total *= pfq_terminating([-ip, -xp], [-lp], Fraction(1), min(ip, xp))
    return total


def overlap_limit_kind(params: TDParameters, kind: str, i: Sequence[int], x: Sequence[int]) -> FieldElement:
    """The degenerate-spectrum closed forms: truncated Hahn (level-linear
    starred spectrum) and Krawtchouk (both spectra linear)."""
    if kind not in LIMIT_KINDS:
        raise ValueError(f"unknown kind {kind!r}; expected one of {LIMIT_KINDS}")
    _ensure_valid(params)
    mi, mx = _point(params, i), _point(params, x)
    if kind == "hahn":
        return _hahn_value(params, mi, mx)
    return _krawtchouk_value(params, mi, mx)

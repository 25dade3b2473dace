"""Overlap functions between the two eigenbases.

T_i(x) expands the A*-eigenvector V_i over the A-eigenbasis, U_i(x) the
other way around:

    V_i = sum_x T_i(x) V(x)          V(x) = sum_i U_i(x) V_i

Each is computed by independent routes that must agree exactly:

  T: direct_sum       nested sum over n from 0 to min(i, x) pointwise
     matrix_product   sum_n D[n,i] Cbar[x,n]
     shift_operator   ordered product of Racah factors whose argument is
                      the joint shift Z = e^{d_i_p + d_x_p}
  U: direct_sum       nested sum over n from max(i, x) to ell
     shift_operator   mirrored factors with negative shifts
     linear_solve     back-substitution of M_D X = M_C

The shift route is evaluated literally as an operator acting on a function
table: every factor expands as sum_k coeff(k) Z^k, the table maps the
accumulated shift offsets to accumulated weights, and the product applies
factor 1 outermost.  One walk (`_shift_walk`) drives the table for T, for U
and for the truncated Hahn kind; each of them only supplies its factor.
Each factor's series advances coefficient by coefficient through its
hypergeometric term ratio (Petkovsek-Wilf-Zeilberger, A = B, ch. 3) instead
of recomputing its Pochhammer symbols.  Truncated Hahn and Krawtchouk kinds
live at the end.

`overlap_table` builds one whole table per route: the pointwise routes call
the evaluators entry by entry, matrix_product is one matrix product and
linear_solve one back-substitution.  The verifier compares these tables, so
the routes stay independent computations.  Cached tables are never returned
themselves, only copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterator, Sequence

from .exactfield import (
    FieldElement,
    _inv_poch,
    binomial,
    hypergeometric_terms,
    is_zero,
    pfq_terminating,
    pochhammer,
)
from .multiindex import (
    IndexOutOfRange,
    MultiIndex,
    enumerate_box,
    in_box,
    partial_sum,
)
from .cob import cob_coefficient, coefficient_matrix
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
    "ShiftedFunctional",
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

    def prefactor(self) -> FieldElement:
        return (
            binomial(self.ell, self.i)
            * pochhammer(self.b1, self.i)
            * pochhammer(self.b2, self.x)
        )

    def series(self) -> Iterator[tuple[int, FieldElement]]:
        """Yield (k, series coefficient of Z^k), each from the last by the
        term ratio; a vanishing numerator ends the series, a vanishing
        denominator factor is an error."""
        return hypergeometric_terms(
            [-self.i, -self.x, self.a1, self.a2],
            [self.b1, self.b2, -self.ell],
            min(self.i, self.x),
            detail="Racah factor series",
        )

    def value_at_unit(self) -> FieldElement:
        """The scalar value with Z = 1 (the univariate collapse)."""
        return self.prefactor() * sum((c for _, c in self.series()), Fraction(0))


class ShiftedFunctional:
    """The function table a shift-operator product acts on.

    Keys are joint shift offsets (k_1, ..., k_N) accumulated so far; the
    value is the total weight of all expansion paths reaching that offset.
    Factor p only ever adds to coordinate p, so offsets stay within
    min(i_p, x_p) per coordinate.
    """

    __slots__ = ("n_coords", "table")

    def __init__(self, n_coords: int):
        self.n_coords = n_coords
        self.table: dict[tuple[int, ...], FieldElement] = {}

    @classmethod
    def identity(cls, n_coords: int) -> "ShiftedFunctional":
        f = cls(n_coords)
        f.table[(0,) * n_coords] = Fraction(1)
        return f

    def add(self, offsets: tuple[int, ...], weight: FieldElement):
        cur = self.table.get(offsets)
        self.table[offsets] = weight if cur is None else cur + weight

    def total(self) -> FieldElement:
        return sum(self.table.values(), Fraction(0))


def _shifted(n: Sequence[int], offsets: tuple[int, ...], sign: int) -> tuple[int, ...]:
    return tuple(v + sign * k for v, k in zip(n, offsets))


def _shift_walk(N: int, factor_terms) -> FieldElement:
    """Apply factors 1..N (factor 1 outermost) to the identity table and
    sum it.  factor_terms(p, offsets) gives factor p at the shifted indices
    as (prefactor, iterator of (k, coefficient of Z^k)); the term for Z^k
    moves its weight k steps along coordinate p."""
    funct = ShiftedFunctional.identity(N)
    for p in range(1, N + 1):
        nxt = ShiftedFunctional(N)
        for offsets, w in funct.table.items():
            pref, terms = factor_terms(p, offsets)
            wp = w * pref
            for k, coeff in terms:
                key = offsets if k == 0 else offsets[: p - 1] + (offsets[p - 1] + k,) + offsets[p:]
                nxt.add(key, wp * coeff)
        funct = nxt
    return funct.total()


def _t_factor(params: TDParameters, p: int, i: Sequence[int], x: Sequence[int]) -> RacahFactorSpec:
    ell, N = params.ell, params.N
    return RacahFactorSpec(
        i=i[p - 1],
        x=x[p - 1],
        a1=sum(i) + params.omega_star,
        a2=sum(x) + params.omega,
        b1=partial_sum(i, 1, p - 1) + partial_sum(ell, p + 1, N) + params.omega_star - params.a[p - 1],
        b2=partial_sum(x, 1, p - 1) + partial_sum(ell, p, N) + params.omega + params.a[p - 1] + 1,
        ell=ell[p - 1],
    )


def _t_shift(params: TDParameters, i: MultiIndex, x: MultiIndex) -> FieldElement:
    def factor_terms(p, offsets):
        factor = _t_factor(params, p, _shifted(i, offsets, 1), _shifted(x, offsets, 1))
        return factor.prefactor(), factor.series()

    wi, wx = i.weight, x.weight
    head = Fraction((-1) ** wi) / (
        _inv_poch(wi + params.omega_star, wi, "T shift head")
        * _inv_poch(wx + params.omega, wx, "T shift head")
    )
    return head * _shift_walk(params.N, factor_terms)


def _u_factor(params: TDParameters, p: int, i: Sequence[int], x: Sequence[int]) -> RacahFactorSpec:
    ell, N = params.ell, params.N
    lp = ell[p - 1]
    L = params.diameter
    return RacahFactorSpec(
        i=lp - x[p - 1],
        x=lp - i[p - 1],
        a1=-2 * sum(x) - partial_sum(ell, 1, p) + partial_sum(x, 1, p) - params.omega,
        a2=-2 * sum(i) - partial_sum(ell, 1, p) + partial_sum(i, 1, p) - params.omega_star,
        b1=-L - partial_sum(x, 1, p - 1) - lp - params.a[p - 1] - params.omega,
        b2=-L - partial_sum(i, 1, p - 1) + params.a[p - 1] + 1 - params.omega_star,
        ell=lp,
    )


def _u_shift(params: TDParameters, i: MultiIndex, x: MultiIndex) -> FieldElement:
    # the factor argument lowers the indices: offsets count how far i_q,
    # x_q have been pulled down
    ell = params.ell

    def factor_terms(p, offsets):
        ish, xsh = _shifted(i, offsets, -1), _shifted(x, offsets, -1)
        lp = ell[p - 1]

        def den(n, om):
            return _inv_poch(
                2 * sum(n) + partial_sum(ell, 1, p - 1) - partial_sum(n, 1, p - 1) + om + 1,
                lp - n[p - 1],
                "U factor outer",
            )

        outer = Fraction((-1) ** (ish[p - 1] + lp)) / (
            den(xsh, params.omega) * den(ish, params.omega_star)
        )
        factor = _u_factor(params, p, ish, xsh)
        return outer * factor.prefactor(), factor.series()

    return _shift_walk(params.N, factor_terms)


# ---------------------------------------------------------------------------
# direct nested sums


def _t_direct(params: TDParameters, i: MultiIndex, x: MultiIndex) -> FieldElement:
    ell, N, om, oms = params.ell, params.N, params.omega, params.omega_star
    a = params.a
    wi, wx = i.weight, x.weight
    total = Fraction(0)
    for n in product(*[range(min(i[p], x[p]) + 1) for p in range(N)]):
        term = Fraction(1)
        for p in range(1, N + 1):
            np_, ip_, xp_, lp_ = n[p - 1], i[p - 1], x[p - 1], ell[p - 1]
            term *= pochhammer(-xp_, np_) * pochhammer(-ip_, np_) * pochhammer(-lp_, ip_)
            term /= pochhammer(Fraction(1), np_) * pochhammer(-lp_, np_) * pochhammer(
                Fraction(1), ip_
            )
            term *= pochhammer(
                partial_sum(x, 1, p - 1) + partial_sum(n, 1, p) + partial_sum(ell, p, N)
                + a[p - 1] + om + 1,
                xp_ - np_,
            )
            term /= _inv_poch(
                wx + sum(n) + partial_sum(x, 1, p - 1) - partial_sum(n, 1, p - 1) + om,
                xp_ - np_,
                "T direct denominator",
            )
            term *= pochhammer(
                partial_sum(i, 1, p - 1) + partial_sum(n, 1, p) + partial_sum(ell, p + 1, N)
                - a[p - 1] + oms,
                ip_ - np_,
            )
            term /= _inv_poch(
                wi + sum(n) + partial_sum(i, 1, p - 1) - partial_sum(n, 1, p - 1) + oms,
                ip_ - np_,
                "T direct denominator",
            )
        total += term
    return total


def _u_direct(params: TDParameters, i: MultiIndex, x: MultiIndex) -> FieldElement:
    ell, N, om, oms = params.ell, params.N, params.omega, params.omega_star
    a = params.a
    wi, wx = i.weight, x.weight
    total = Fraction(0)
    for n in product(*[range(max(i[p], x[p]), ell[p] + 1) for p in range(N)]):
        term = Fraction(1)
        for p in range(1, N + 1):
            np_, ip_, xp_, lp_ = n[p - 1], i[p - 1], x[p - 1], ell[p - 1]
            term *= pochhammer(-np_, xp_) * pochhammer(-np_, ip_) * pochhammer(-lp_, np_)
            term /= pochhammer(Fraction(1), xp_) * pochhammer(-lp_, ip_) * pochhammer(
                Fraction(1), np_
            )
            term *= pochhammer(
                partial_sum(x, 1, p) + partial_sum(n, 1, p - 1) + partial_sum(ell, p, N)
                + a[p - 1] + om + 1,
                np_ - xp_,
            )
            term /= _inv_poch(
                2 * wx + partial_sum(n, 1, p - 1) - partial_sum(x, 1, p - 1) + om + 1,
                np_ - xp_,
                "U direct denominator",
            )
            term *= pochhammer(
                partial_sum(i, 1, p) + partial_sum(n, 1, p - 1) + partial_sum(ell, p + 1, N)
                - a[p - 1] + oms,
                np_ - ip_,
            )
            term /= _inv_poch(
                2 * wi + partial_sum(n, 1, p - 1) - partial_sum(i, 1, p - 1) + oms + 1,
                np_ - ip_,
                "U direct denominator",
            )
        total += term
    return total


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
    if method == "direct_sum":
        return _t_direct(params, mi, mx)
    if method == "matrix_product":
        return _t_matrix_entry(params, mi, mx)
    return _t_shift(params, mi, mx)


def overlap_U(
    params: TDParameters, i: Sequence[int], x: Sequence[int], method: str = "direct_sum"
) -> FieldElement:
    """U_i(x) by the chosen route; all routes agree on valid parameters."""
    if method not in U_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {U_METHODS}")
    _ensure_valid(params)
    mi, mx = _point(params, i), _point(params, x)
    if method == "direct_sum":
        return _u_direct(params, mi, mx)
    if method == "linear_solve":
        return _u_solved_table(params).entry(mi, mx)
    return _u_shift(params, mi, mx)


def overlap_table(params: TDParameters, which: str, method: str) -> ExactMatrix:
    """Full table as a matrix with rows i and columns x in graded order."""
    if which not in ("T", "U"):
        raise ValueError(f"unknown overlap family {which!r}; expected 'T' or 'U'")
    _ensure_valid(params)
    basis = enumerate_box(params.shape)
    if which == "T":
        if method == "matrix_product":
            mcb = coefficient_matrix(params, "Cbar")
            md = coefficient_matrix(params, "D")
            return (mcb @ md).transpose()
        fn = overlap_T
    else:
        if method == "linear_solve":
            # a copy: the cached table must not be writable through the result
            m = _u_solved_table(params)
            return ExactMatrix(m.basis, m.entries)
        fn = overlap_U
    m = ExactMatrix(basis)
    for r, mi in enumerate(basis):
        for c, mx in enumerate(basis):
            v = fn(params, mi, mx, method)
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
    factor = _t_factor(params, 1, (iv,), (xv,))
    head = Fraction((-1) ** iv) / (
        _inv_poch(iv + params.omega_star, iv, "T head")
        * _inv_poch(xv + params.omega, xv, "T head")
    )
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

    def factor_terms(p, offsets):
        xsh = _shifted(x, offsets, 1)
        lp, ip, xp = ell[p - 1], i[p - 1], xsh[p - 1]
        aa = sum(xsh) + om
        b = partial_sum(xsh, 1, p - 1) + partial_sum(ell, p, N) + om + a[p - 1] + 1
        terms = hypergeometric_terms(
            [-ip, -xp, aa], [-lp, b], min(ip, xp), detail="Hahn factor series"
        )
        return binomial(lp, ip) * pochhammer(b, xp), terms

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

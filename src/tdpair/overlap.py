"""Overlap functions between the two eigenbases.

T_i(x) expands the A*-eigenvector V_i over the A-eigenbasis, U_i(x) the
other way around:

    V_i = sum_x T_i(x) V(x)          V(x) = sum_i U_i(x) V_i

Each is computed by independent routes that must agree exactly:

  T: direct_sum       nested sum over n from 0 to min(i, x)
     matrix_product   sum_n D[n,i] Cbar[x,n]
     shift_operator   ordered product of Racah factors whose argument is
                      the joint shift Z = e^{d_i_p + d_x_p}
  U: direct_sum       the T direct_sum at the swapped parameters, mirrored
     shift_operator   the T shift_operator at the swapped parameters, mirrored
     linear_solve     back-substitution of M_D X = M_C

The involution S swaps A and A* and with them the two bases: at
q = `cob._swapped(p)`, U(p)_i(x) = T(q)_{ell-x}(ell-i), so no U formula is
written out (`_mirror_of`); T's direct sum and shift product at q and the
back-substitution at p stay three independent U routes.

The shift product is a sum over paths: factor p reads the shifts kappa_1,
..., kappa_{p-1} before it only through their sum K, so it is the sum over
kappa <= min(i, x) of the product of the factors' Z^{kappa_p} terms.  A
factor is binom(ell, i) (b1)_i (b2)_x times the terminating 4F3(-i, -x, a1,
a2; b1, b2, -ell; Z), and its term k is an i-side binom(ell_p, i_p)
(b1)_{i_p} (-i_p)_k (a1)_k / (b1)_k of i and K, over k! (-ell_p)_k, times an
x-side (b2)_{x_p} (-x_p)_k (a2)_k / (b2)_k of x and K (`_racah_side`); no
factor is formed whole.  The truncated Hahn kind splits the same way, and so
does the direct sum, its denominators telescoped to one Pochhammer symbol
per term (`_t_direct`).  So a pointwise table is head(i) head(x) sum_n
R_i(n) C_x(n): one line per row and one per column, each built once over
one common denominator, and over Q made primitive (its content moved into
the head) with one integer dot product per entry (`_dot_table`, `_line`).
Each route keeps its own term formula; the line-and-dot helper, which the
matrix routes do not use, is a shared primitive like
`over_common_denominator`.  Parameters enter as integer pairs (`_pair`).

Every overlap formula, the matrix routes included, is one table kernel
(params, rows, cols) -> factored table (`tdcore.Factored`: row heads,
column heads and rows of dots, entry (r, c) = ru cu z / (rv cv)), named by
one lookup (`_kernel`) of the six routes and the two degenerate kinds
(`_hahn_table`, `_krawtchouk_table`).  The matrix routes and the Krawtchouk
kind return their values under unit heads.  `_entry` runs a kernel on one
entry and `_table` on the box, each validating once: `overlap_T`,
`overlap_U`, `overlap_limit_kind` and the univariate forms are entries,
`overlap_table` is a table, and `verify` reads `_factored_table`.  At N = 1
the shift product is a single Racah factor at unit argument:
`univariate_t_racah` is T's, `univariate_u_balanced` U's, and
`univariate_u_racah_normalized` T's times a row factor f(i) and a column
factor g(x) (`_u_row_factor`, `_u_col_factor`).  The matrix routes are one
product, T = (M_Cbar M_D)^T, and one back-substitution, M_D U = M_C, reading
only the columns of M_D (rows of T) or of M_C (columns of U) asked for
(`_family_columns`, on the families' cleared rows).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, gcd, perm, prod
from operator import mul
from typing import Callable, Sequence

from .exactfield import (
    FieldElement,
    ZeroDenominatorPochhammer,
    _inv_poch,
    _pair,
    _rising,
    _term_pairs,
    binomial,
    over_common_denominator,
    pfq_terminating,
    pochhammer,
)
from .multiindex import (
    IndexOutOfRange,
    MultiIndex,
    _box,
    in_box,
)
from .cob import _coefficient_rows, _swapped, coefficient_matrix
from .tdcore import (
    ExactMatrix,
    Factored,
    TDParameters,
    _ZERO,
    _back_substitution,
    _content_lines,
    _ensure_valid,
    factored_value,
    factored_values,
    uncleared,
    unit_factored,
)

__all__ = [
    "T_METHODS",
    "U_METHODS",
    "LIMIT_KINDS",
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


# ---------------------------------------------------------------------------
# tables as dot products of lines


def _dot_table(params, rows, cols, row_line, col_line) -> Factored:
    """Every head(i) head(x) sum_n R_i(n) C_x(n), i of rows, x of cols, n in
    the box up to the componentwise minimum `top` of the largest row and
    column, as the factored table of the line heads and the dots (`_line`).
    row_line(i, top, strides) gives (head(i) as a pair, a dict from the
    position sum_q n_q strides_q of each n <= i with a term to R_i(n) as a
    pair, faults); col_line likewise.  A fault (key, pos, error) is a term
    whose denominator vanished: an entry raises the row's head error, the
    column's, then the fault of least key whose partner term is there."""
    top = [min(max(a), max(b)) for a, b in zip(zip(*rows), zip(*cols))]
    strides = [prod(t + 1 for t in top[q + 1 :]) for q in range(len(top))]
    # rational parameters make every pair two ints: dense lines, one int dot product
    over_q = all(type(v) in (int, Fraction) for v in (params.omega, params.omega_star, *params.a))
    cs, heads, dots = [_line(col_line, x, top, strides, over_q) for x in cols], [], []
    for ru, rv, rn, rt, rf in (_line(row_line, i, top, strides, over_q) for i in rows):
        row = []
        for cu, cv, cn, ct, cf in cs:
            if rv is None or cv is None or rf or cf:
                heads = [h for h in (ru, cu) if isinstance(h, Exception)]
                met = [f for f in rf if f[1] in ct] + [f for f in cf if f[1] in rt]
                if heads or met:
                    raise heads[0] if heads else min(met, key=lambda f: f[0])[2]
            if over_q:
                row.append(sum(map(mul, rn, cn)))
            else:
                row.append(sum(u * cn[pos] for pos, u in rn.items() if pos in cn))
        heads.append((ru, rv))
        dots.append(row)
    return Factored(heads, [(cu, cv) for cu, cv, *_ in cs], dots)


def _line(make, index: MultiIndex, top, strides, over_q: bool) -> tuple:
    """make's line over one common denominator: (head numerator, head
    denominator, numerators, terms, faults), or its head error first.  Over
    Q the numerators are a dense int list made primitive: their gcd g leaves
    them, g / gcd(g, den) joins the head and den becomes den / gcd(g, den)."""
    try:
        (hu, hv), terms, faults = make(index, top, strides)
    except ZeroDenominatorPochhammer as err:
        return err, None, None, {}, []
    nums, den = over_common_denominator(*zip(*terms.values()))
    if not over_q:
        return hu, hv * den, dict(zip(terms, nums)), terms, faults
    g = gcd(*nums)
    if g > 1:
        k = gcd(g, den)
        nums, hu, den = [u // g for u in nums], hu * (g // k), den // k
    dense = [0] * (max(terms) + 1)
    for pos, u in zip(terms, nums):
        dense[pos] = u
    return hu, hv * den, dense, terms, faults


# ---------------------------------------------------------------------------
# the two sides of a Racah factor, and the shift-operator product


def _racah_side(n: int, a: tuple, b: tuple, kmax: int, detail: str, ell=None) -> tuple:
    """The side (b)_n (-n)_k (a)_k / (b)_k of a Racah factor, over k! (-ell)_k
    too with ell, a and b pairs: ((b)_n as a pair, its term pairs up to kmax
    or the first vanishing numerator, the ZeroDenominatorPochhammer met
    before either or None)."""
    nums, dens = ([(-n, 1), a], [b, (-ell, 1)]) if ell is not None else ([(-n, 1), (1, 1), a], [b])
    terms = []
    try:
        for _, u, v in _term_pairs(nums, dens, kmax, (1, 1), detail):
            terms.append((u, v))
    except ZeroDenominatorPochhammer as err:
        return _rising(*b, n), terms, err
    return _rising(*b, n), terms, None


def _path_line(index: MultiIndex, top, strides, side: Callable, rank: int) -> tuple:
    """(terms, faults) of a shift-product line over the paths kappa <=
    min(index, top): factor p is term kappa_p of side(p, K, kmax) =
    (prefactor pair, term pairs, fault), K the shifts before p.  A path ends
    at a factor's fault as the product meets it, with no later shift."""
    terms, faults, paths = {}, [], [(0, 0, 1, 1)]
    for p, step in enumerate(strides):
        kmax, sides, longer = min(index[p], top[p]), {}, []
        for pos, K, u, v in paths:
            if K not in sides:
                sides[K] = side(p, K, kmax)
            (pu, pv), ts, fault = sides[K]
            u, v = u * pu, v * pv
            longer += [(pos + k * step, K + k, u * tu, v * tv) for k, (tu, tv) in enumerate(ts)]
            if fault is not None:
                at = pos + fault.k * step
                faults.append(((p, at, rank), at, fault))
                terms[at] = (0, 1)
        paths = longer
    terms.update((pos, (u, v)) for pos, _, u, v in paths)
    return terms, faults


def _racah_line(base: tuple, c: list, details: tuple, ell=None) -> Callable:
    """A line of the shift product: factor p is the side of (index_p,
    |index| + K + base, |index|_1^{p-1} + K + c_p), head 1 / (|index| +
    base)_{|index|}; with ell the i-side, binom(ell_p, i_p) over k! (-ell_p)_k
    and the head times (-1)^|i|."""
    (nb, db), (head_detail, detail) = base, details

    def line(index, top, strides):
        s, w = list(accumulate(index, initial=0)), index.weight
        hu, hv = _rising(nb + w * db, db, w)
        if hu == 0:
            raise ZeroDenominatorPochhammer(w, head_detail)

        def side(p, K, kmax):
            (n, d), m = c[p], index[p]
            a, b = (nb + (w + K) * db, db), (n + (s[p] + K) * d, d)
            if ell is None:
                return _racah_side(m, a, b, kmax, detail)
            (pu, pv), terms, fault = _racah_side(m, a, b, kmax, detail, ell[p])
            return (binomial(ell[p], m) * pu, pv), terms, fault

        head = (hv, hu) if ell is None else ((-1) ** w * hv, hu)
        return (head, *_path_line(index, top, strides, side, int(ell is not None)))

    return line


def _t_shift(params: TDParameters, rows: Sequence[MultiIndex], cols: Sequence[MultiIndex]) -> Factored:
    """T_i(x) by the shift-operator product for every i of rows, x of cols:
    factor p at shifts K before it has a1 = |i| + K + omega*, a2 = |x| + K +
    omega, b1 = |i|_1^{p-1} + K + c1_p and b2 = |x|_1^{p-1} + K + c2_p."""
    ell, N, om, oms, a = params.ell, params.N, params.omega, params.omega_star, params.a
    c1 = [_pair(sum(ell[p:]) - a[p - 1] + oms) for p in range(1, N + 1)]
    c2 = [_pair(sum(ell[p - 1 :]) + 1 + a[p - 1] + om) for p in range(1, N + 1)]
    details = ("T shift head", "Racah factor series")
    row_line, col_line = _racah_line(_pair(oms), c1, details, ell), _racah_line(_pair(om), c2, details)
    return _dot_table(params, rows, cols, row_line, col_line)


# ---------------------------------------------------------------------------
# direct nested sums


def _t_direct(params: TDParameters, rows: Sequence[MultiIndex], cols: Sequence[MultiIndex]) -> Factored:
    """T_i(x) by the nested sum over 0 <= n <= min(i, x) for every i of
    rows, x of cols: head(i) sum_n R_i(n) C_x(n), head(i) = prod_q (-1)^{i_q}
    C(ell_q, i_q) / ell_q!.  On the line of j = x (C, rank 0) or i (R, rank
    1), term n is prod_q c_q (beta_q + m_q)_{k_q} / (b + mu_q)_{k_q}, with
    k_q = j_q - n_q, m_q = |j|_1^{q-1} + |n|_1^q + |ell|_{q+rank}^N and mu_q
    = |j| + |n| + |j|_1^{q-1} - |n|_1^{q-1}; C has c_q = (-1)^{n_q}
    perm(x_q, n_q), beta_q = a_q + omega + 1 and b = omega, R has c_q =
    C(i_q, n_q) (ell_q - n_q)!, beta_q = omega* - a_q and b = omega*.  As
    mu_{q+1} = mu_q + k_q, the denominators telescope to one (b + |j| +
    |n|)_{|j| - |n|}, and a numerator reads n only through n_q and |n|_1^q:
    a line is prefix products over q and one quotient per term, memoized.

    A denominator factor b + u has |j| <= u <= 2|j| - 1, so cond1 keeps it
    nonzero on valid parameters, for U too (the swap maps the omega band
    onto the omega* band): only with validation off can it vanish.  The
    factors are distinct, so one q at most holds a zero; the walk over q
    finds it and records ZeroDenominatorPochhammer(k_q) under (pos, q, rank),
    so an entry meets its denominators in order of q, C's before R's."""
    ell, N, om, oms = params.ell, params.N, params.omega, params.omega_star
    tail = [sum(ell[q:]) for q in range(N + 1)]
    betas = ([_pair(ap + 1 + om) for ap in params.a], [_pair(oms - ap) for ap in params.a])
    bases, memo = (_pair(om), _pair(oms)), {}

    def side(rank):
        (bn, bd), beta = bases[rank], betas[rank]

        def line(index, top, strides):
            s, w, paths = list(accumulate(index, initial=0)), index.weight, [(0, 0, 1, 1)]
            for q, (jq, step, (n, d)) in enumerate(zip(index, strides, beta)):
                m0, longer = s[q] + tail[q + rank], []
                for pos, sn, u, v in paths:
                    for nq in range(min(jq, top[q]) + 1):
                        key = (rank, q, m0 + sn + nq, jq, nq)
                        f = memo.get(key)
                        if f is None:
                            # R's (-i_q)_{n_q} / (n_q! (-ell_q)_{n_q}) is C(i_q, n_q) (ell_q - n_q)! / ell_q!
                            c = comb(jq, nq) * factorial(ell[q] - nq) if rank else (-1) ** nq * perm(jq, nq)
                            fu, fv = _rising(n + key[2] * d, d, jq - nq)
                            f = memo[key] = (c * fu, fv)
                        longer.append((pos + nq * step, sn + nq, u * f[0], v * f[1]))
                paths = longer
            terms, faults = {}, []
            for pos, sn, u, v in paths:
                g = (rank, w, sn)
                du, dv = memo.get(g) or memo.setdefault(g, _rising(bn + (w + sn) * bd, bd, w - sn))
                if du != 0:
                    terms[pos] = (u * dv, v * du)
                    continue
                terms[pos], mu = (0, 1), w + sn  # walk q from mu_0 (n_q read back from pos)
                for q, (jq, t, step) in enumerate(zip(index, top, strides)):
                    k = jq - pos // step % (t + 1)
                    if _rising(bn + mu * bd, bd, k)[0] == 0:
                        faults.append(((pos, q, rank), pos, ZeroDenominatorPochhammer(k, "T direct denominator")))
                    mu += k
            head = ((-1) ** w * prod(map(comb, ell, index)), prod(map(factorial, ell))) if rank else (1, 1)
            return head, terms, faults

        return line

    return _dot_table(params, rows, cols, side(1), side(0))


# ---------------------------------------------------------------------------
# U as the mirror of T


def _mirror_of(t_kernel: Callable) -> Callable:
    """The U kernel U(p)_i(x) = T(q)_{ell-x}(ell-i), q = _swapped(p): t_kernel,
    bound here, runs at q on rows ell - cols and columns ell - rows, and its
    table comes back transposed, heads and all."""

    def u_kernel(params: TDParameters, rows: Sequence[MultiIndex], cols: Sequence[MultiIndex]) -> Factored:
        ell = params.ell

        def flip(n):
            return MultiIndex(lp - v for lp, v in zip(ell, n))

        t = t_kernel(_swapped(params), [flip(x) for x in cols], [flip(i) for i in rows])
        return Factored(t.cols, t.rows, [[row[r] for row in t.dots] for r in range(len(rows))])

    return u_kernel


_u_direct = _mirror_of(_t_direct)
_u_shift = _mirror_of(_t_shift)


# ---------------------------------------------------------------------------
# matrix routes


def _family_columns(params: TDParameters, kind: str, indices: Sequence[MultiIndex]) -> tuple:
    """The cleared rows of one family with only the columns at indices."""
    pos = {m: k for k, m in enumerate(_box(params.shape))}
    keep, (rows, den) = {pos[n] for n in indices}, _coefficient_rows(params, kind)
    return {r: {c: v for c, v in row.items() if c in keep} for r, row in rows.items()}, den


def _t_product(params: TDParameters, rows: Sequence[MultiIndex], cols: Sequence[MultiIndex]) -> Factored:
    """T_i(x) for every i of rows, x of cols as one product: T = (M_Cbar
    M_D)^T, and row i of T reads column i of M_D only."""
    md = uncleared(_box(params.shape), _family_columns(params, "D", rows))
    m = coefficient_matrix(params, "Cbar") @ md
    return unit_factored([[m.entry(x, i) for x in cols] for i in rows])


def _u_solved(params: TDParameters, rows: Sequence[MultiIndex], cols: Sequence[MultiIndex]) -> Factored:
    """U_i(x) for every i of rows, x of cols as one back-substitution: M_D is
    unit upper triangular in graded order, so M_D U = M_C is solved exactly
    on the lines of their cleared rows, and column x of U reads column x of
    M_C only."""
    pos = {m: k for k, m in enumerate(_box(params.shape))}
    mc = _family_columns(params, "C", cols)
    m = _back_substitution(_content_lines(_coefficient_rows(params, "D"), 0), _content_lines(mc, 1), len(pos))
    return unit_factored([[m.get((pos[i], pos[x]), _ZERO) for x in cols] for i in rows])


# ---------------------------------------------------------------------------
# public evaluators: one lookup, one entry runner, one table builder


def _kernel(family: str, name: str) -> Callable:
    """The table kernel of route `name` of family "T" or "U", or of the
    degenerate kind `name` (family "kind").  The lookup is built when called,
    so a kernel replaced on the module is the one run; the routes share this
    dispatch only, never a formula."""
    kernels = {
        "T": dict(zip(T_METHODS, (_t_direct, _t_product, _t_shift))),
        "U": dict(zip(U_METHODS, (_u_direct, _u_shift, _u_solved))),
        "kind": dict(zip(LIMIT_KINDS, (_hahn_table, _krawtchouk_table))),
    }[family]
    if name not in kernels:
        noun = "kind" if family == "kind" else "method"
        raise ValueError(f"unknown {noun} {name!r}; expected one of {tuple(kernels)}")
    return kernels[name]


def _entry(params: TDParameters, family: str, name: str, i, x) -> FieldElement:
    """One entry of a kernel: the kernel run on rows [i] and columns [x]."""
    kernel = _kernel(family, name)
    _ensure_valid(params)
    for n in (i, x):
        if not in_box(n, params.shape):
            raise IndexOutOfRange(f"index {tuple(n)} outside the box of {params.shape!r}")
    return factored_value(kernel(params, [MultiIndex(i)], [MultiIndex(x)]), 0, 0)


def _factored_table(params: TDParameters, family: str, name: str) -> Factored:
    """The kernel run on the whole box, rows i and columns x in graded
    order, as it returns it."""
    kernel = _kernel(family, name)
    _ensure_valid(params)
    basis = _box(params.shape)
    return kernel(params, basis, basis)


def _table(params: TDParameters, family: str, name: str) -> ExactMatrix:
    """The whole table of a kernel as a matrix of its nonzero values."""
    values = factored_values(_factored_table(params, family, name))
    entries = {(r, c): v for r, row in enumerate(values) for c, v in enumerate(row)}
    return ExactMatrix(_box(params.shape), entries)


def overlap_T(
    params: TDParameters, i: Sequence[int], x: Sequence[int], method: str = "direct_sum"
) -> FieldElement:
    """T_i(x) by the chosen route; all routes agree on valid parameters."""
    return _entry(params, "T", method, i, x)


def overlap_U(
    params: TDParameters, i: Sequence[int], x: Sequence[int], method: str = "direct_sum"
) -> FieldElement:
    """U_i(x) by the chosen route; all routes agree on valid parameters."""
    return _entry(params, "U", method, i, x)


def overlap_table(params: TDParameters, which: str, method: str) -> ExactMatrix:
    """Full table as a matrix with rows i and columns x in graded order."""
    if which not in ("T", "U"):
        raise ValueError(f"unknown overlap family {which!r}; expected 'T' or 'U'")
    return _table(params, which, method)


# ---------------------------------------------------------------------------
# univariate closed forms (single coordinate only)


def _require_univariate(params: TDParameters):
    if params.N != 1:
        raise ValueError("closed form defined for a single coordinate only")


def univariate_t_racah(params: TDParameters, i, x) -> FieldElement:
    """T for N = 1 as one Racah factor at unit argument: the shift product
    with a single factor, so the shift_operator kernel on one entry."""
    _require_univariate(params)
    return _entry(params, "T", "shift_operator", i, x)


def univariate_u_balanced(params: TDParameters, i, x) -> FieldElement:
    """U for N = 1 as the balanced 4F3 the mirrored sum collapses to: T's
    Racah factor at the S-swapped parameters on (ell - x, ell - i), so the
    U shift_operator kernel on one entry."""
    _require_univariate(params)
    return _entry(params, "U", "shift_operator", i, x)


# At N = 1, T_i(x) = tau(i) sigma(x) S(i, x) with S the Racah 4F3
# (-i, i + omega*, -x, x + omega; -ell, omega* - a, ell + a + omega + 1; 1),
# tau(i) = (-1)^i binom(ell, i) (omega* - a)_i / (i + omega*)_i and sigma(x) =
# (ell + 1 + a + omega)_x / (x + omega)_x.  The normalized U form is
# nu(i) mu(x) S(i, x), so U_i(x) = f(i) g(x) T_i(x) with f = nu / tau and
# g = mu / sigma: the duality between U and T.


def _u_row_factor(params: TDParameters, i: int) -> FieldElement:
    """f(i) = nu(i) / tau(i), nu the i-part of the normalized prefactor with
    its sign (-1)^ell."""
    ell, om, oms, a = params.ell[0], params.omega, params.omega_star, params.a[0]
    m, detail = ell - i, "U normalized denominator"
    num = (
        pochhammer(i - a + oms, m)
        * pochhammer(i - ell - a - om + oms, m)
        * pochhammer(i + a + 1, m)
        * pochhammer(i + oms, i)
    )
    den = (
        _inv_poch(2 * i + oms + 1, m, detail)
        * _inv_poch(-2 * ell - a - om, m, detail)
        * _inv_poch(-ell + a - oms + 1, m, detail)
        * _inv_poch(oms - a, i, detail)
    )
    return Fraction((-1) ** m, comb(ell, i)) * num / den


def _u_col_factor(params: TDParameters, x: int) -> FieldElement:
    """g(x) = mu(x) / sigma(x), mu the x-part of the normalized prefactor."""
    ell, om, oms, a = params.ell[0], params.omega, params.omega_star, params.a[0]
    detail = "U normalized denominator"
    num = (
        pochhammer(-ell, x)
        * pochhammer(x + ell + a + om + 1, ell - x)
        * pochhammer(-x + a - oms + 1, x)
        * pochhammer(-x - ell - a - om, x)
        * pochhammer(x + om, x)
    )
    den = (
        _inv_poch(2 * x + om + 1, ell - x, detail)
        * _inv_poch(a + om - oms + 1, x, detail)
        * _inv_poch(-ell - a, x, detail)
        * _inv_poch(ell + 1 + a + om, x, detail)
    )
    return num / (factorial(x) * den)


def univariate_u_racah_normalized(params: TDParameters, i, x) -> FieldElement:
    """U for N = 1 rewritten so the same Racah-type 4F3 kernel as T appears:
    f(i) g(x) T_i(x), T_i(x) the shift_operator kernel on one entry; must
    agree exactly with the balanced form.  Over Q(t) it is slower pointwise
    than the 4F3 it replaced (1.4-1.7 s against 0.5-0.9 s for the 169
    entries at ell = 12, seed 1), as each call rebuilds f(i) and g(x): for
    many entries, build the T shift table and scale it instead."""
    _require_univariate(params)
    t = _entry(params, "T", "shift_operator", i, x)
    return _u_row_factor(params, i[0]) * _u_col_factor(params, x[0]) * t


# ---------------------------------------------------------------------------
# degenerate kinds


def _hahn_table(params: TDParameters, rows: Sequence[MultiIndex], cols: Sequence[MultiIndex]) -> Factored:
    """The truncated Hahn kind for every i of rows, x of cols: the shift
    product with T's x-side at omega and the i-side of factor p reduced to
    binom(ell_p, i_p) (-i_p)_k / (k! (-ell_p)_k), head (-1)^|i|."""
    ell, N, om, a = params.ell, params.N, params.omega, params.a
    c = [_pair(sum(ell[p - 1 :]) + 1 + a[p - 1] + om) for p in range(1, N + 1)]

    def row_line(i, top, strides):
        # (-i_p)_k / (k! (-ell_p)_k) = perm(i_p, k) / (k! perm(ell_p, k)), whatever the shifts K
        sides = [
            ((comb(lp, m), 1), [(perm(m, k), factorial(k) * perm(lp, k)) for k in range(t + 1)], None)
            for m, lp, t in zip(i, ell, map(min, i, top))
        ]
        return ((-1) ** i.weight, 1), *_path_line(i, top, strides, lambda p, K, kmax: sides[p], 1)

    col_line = _racah_line(_pair(om), c, ("Hahn head", "Hahn factor series"))
    return _dot_table(params, rows, cols, row_line, col_line)


def _krawtchouk_table(
    params: TDParameters, rows: Sequence[MultiIndex], cols: Sequence[MultiIndex]
) -> Factored:
    """The Krawtchouk kind for every i of rows, x of cols: the product over p
    of (-ell_p)_{i_p} / i_p! 2F1(-i_p, -x_p; -ell_p; 1), each factor
    computed once per (ell_p, i_p, x_p) in the call."""
    memo: dict[tuple, FieldElement] = {}

    def factor(lp: int, ip: int, xp: int) -> FieldElement:
        if (lp, ip, xp) not in memo:
            head = pochhammer(-lp, ip) / pochhammer(Fraction(1), ip)
            memo[lp, ip, xp] = head * pfq_terminating([-ip, -xp], [-lp], Fraction(1), min(ip, xp))
        return memo[lp, ip, xp]

    return unit_factored(
        [[prod(map(factor, params.ell, i, x), start=Fraction(1)) for x in cols] for i in rows]
    )


def overlap_limit_kind(params: TDParameters, kind: str, i: Sequence[int], x: Sequence[int]) -> FieldElement:
    """The degenerate-spectrum closed forms: truncated Hahn (level-linear
    starred spectrum) and Krawtchouk (both spectra linear)."""
    return _entry(params, "kind", kind, i, x)


def _limit_kind_table(params: TDParameters, kind: str) -> ExactMatrix:
    """The whole table of a degenerate kind, as `overlap_table` fills one."""
    return _table(params, "kind", kind)

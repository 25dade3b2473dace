"""Parameter validation and the split-basis operators A, A*, S, R, L.

The pair acts on a vector space with basis {V^n} indexed by the box of a
Shape.  Eigenvalues are quadratic in the level:

    theta_j      = theta0  + h  j (j + omega)
    theta*_j     = theta0* + h* j (j + omega*)

and the off-diagonal data are the xi coefficients defined below.  A raises
the level by one, A* lowers it by one; terms that would leave the box are
dropped (the out-of-box index stands for the zero vector).

xi and xi* are written once, as the int pair of `_xi_kernel`; the public
`xi`, the operator assembly and the five-term formula of `cob` read it.

Inside the package a matrix is cleared, integer rows {r: {c: numerator}}
over one denominator: the operators are assembled so, and an
`ExactMatrix` is built only at the public edge (`uncleared`).

Validity of a parameter set means three constraint families hold:

  cond1   h and h* nonzero; omega, omega* outside {-2|ell|+1, ..., -1}
  cond2   for each p: none of a_p, a_p + omega - omega*,
          a_p - |ell| - omega*, a_p + |ell| + omega lies in {-ell_p, ..., -1}
  cond3   every pair of the 2N value strings S^+/-(ell_p, a_p) is in
          general position; each string is a unit-step interval, so a
          pair is tested in constant time by comparing interval bounds
          (its values are never listed)

These guarantee simple distinct spectra, never-vanishing off-diagonal
coefficients, and (together) irreducibility of the pair.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Callable, NamedTuple, Optional, Sequence

from .exactfield import (
    FieldElement,
    _coerce,
    _pair,
    as_integer,
    format_scalar,
    over_common_denominator,
    pair_value,
    rational,
)
from .multiindex import (
    IndexOutOfRange,
    MultiIndex,
    Shape,
    _box,
    format_multiindex,
    in_box,
)
from .report import CheckResult, VerificationReport

__all__ = [
    "InvalidParameters",
    "TDParameters",
    "ExactMatrix",
    "eigenvalue",
    "xi",
    "validate_parameters",
    "build_operator",
    "parameters_from_json_obj",
    "parameters_to_json_obj",
]

OPERATOR_NAMES = ("A", "Astar", "S", "R", "L")


class InvalidParameters(ValueError):
    """Raised when construction is attempted with a failing parameter set."""

    def __init__(self, report: VerificationReport):
        self.report = report
        failed = ", ".join(r.check for r in report.failures())
        super().__init__(f"parameter constraints violated: {failed}")


@dataclass(frozen=True)
class TDParameters:
    """The full parameter set of one pair.

    Scalars are exact (`exactfield._coerce`): rationals, rational functions
    or Laurent series (the latter two for the limits); ints are coerced to
    Fraction, and a float or a bool raises TypeError.
    """

    shape: Shape
    theta0: FieldElement
    theta0_star: FieldElement
    h: FieldElement
    h_star: FieldElement
    omega: FieldElement
    omega_star: FieldElement
    a: tuple[FieldElement, ...]

    def __post_init__(self):
        for key in _PARAM_KEYS:
            object.__setattr__(self, key, _coerce(getattr(self, key)))
        object.__setattr__(self, "a", tuple(_coerce(v) for v in self.a))
        if len(self.a) != self.shape.N:
            raise ValueError(
                f"expected {self.shape.N} anchor values a_p, got {len(self.a)}"
            )

    @property
    def N(self) -> int:
        return self.shape.N

    @property
    def ell(self) -> tuple[int, ...]:
        return self.shape.ell

    @property
    def diameter(self) -> int:
        return self.shape.diameter


_PARAM_KEYS = ("theta0", "theta0_star", "h", "h_star", "omega", "omega_star")


def parameters_from_json_obj(obj: dict) -> TDParameters:
    """Build parameters from the JSON document schema.

    Expected keys: "ell" (list of ints), "theta0", "theta0_star", "h",
    "h_star", "omega", "omega_star" (rational strings "p/q"), and "a"
    (list of rational strings).
    """
    if not isinstance(obj, dict):
        raise ValueError("parameter document must be a JSON object")
    missing = [k for k in ("ell", *_PARAM_KEYS, "a") if k not in obj]
    if missing:
        raise ValueError(f"parameter document missing keys: {', '.join(missing)}")
    shape = Shape(tuple(obj["ell"]))
    scalars = {}
    for key in _PARAM_KEYS:
        raw = obj[key]
        scalars[key] = rational(raw) if isinstance(raw, str) else Fraction(_expect_int(raw, key))
    a_raw = obj["a"]
    if not isinstance(a_raw, list):
        raise ValueError('"a" must be a list of rational strings')
    a = tuple(rational(v) if isinstance(v, str) else Fraction(_expect_int(v, "a")) for v in a_raw)
    return TDParameters(shape=shape, a=a, **scalars)


def _expect_int(v, key: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f'field "{key}" must be a rational string "p/q" or an integer')
    return v


def parameters_to_json_obj(params: TDParameters) -> dict:
    obj = {"ell": list(params.ell)}
    for key in _PARAM_KEYS:
        obj[key] = format_scalar(getattr(params, key))
    obj["a"] = [format_scalar(v) for v in params.a]
    return obj


# ---------------------------------------------------------------------------
# eigenvalues and off-diagonal coefficients


def eigenvalue(params: TDParameters, i: int, starred: bool = False) -> FieldElement:
    """theta_i, or theta*_i when starred; defined for 0 <= i <= |ell|."""
    if not isinstance(i, int) or not 0 <= i <= params.diameter:
        raise IndexOutOfRange(f"level {i} outside 0..{params.diameter}")
    if starred:
        return params.theta0_star + params.h_star * i * (i + params.omega_star)
    return params.theta0 + params.h * i * (i + params.omega)


def xi(params: TDParameters, n: Sequence[int], p: int, starred: bool = False) -> FieldElement:
    """The off-diagonal coefficient xi_{n,p} (or xi*_{n,p} when starred).

    xi_{n,p}  = h  (|n|_1^{p-1} + |n|_1^p + |ell|_p^N     + a_p + omega ) n_p
    xi*_{n,p} = h* (|n|_1^{p-1} + |n|_1^p + |ell|_{p+1}^N - a_p + omega*) (n_p - ell_p)

    Its value is that of the `_xi_kernel` pair."""
    shape = params.shape
    if not 1 <= p <= shape.N:
        raise IndexOutOfRange(f"coordinate {p} outside 1..{shape.N}")
    if not in_box(n, shape):
        raise IndexOutOfRange(f"index {tuple(n)} outside the box of {shape!r}")
    return pair_value(*_xi_kernel(params, starred)(n, p - 1))


def _xi_kernel(params: TDParameters, starred: bool) -> Callable[[tuple, int], tuple]:
    """xi_{t,p}, or xi*_{t,p} when starred, as a pair linear in t: the
    function (t, p) -> (h_n ((2|t|_1^{p-1} + t_p) c_d + c_n) m_p, h_d c_d)
    of a box index t and a 0-based coordinate p.  (h_n, h_d) is the pair of
    h (h*), (c_n, c_d) that of c_p = |ell|_p^N + a_p + omega
    (|ell|_{p+1}^N - a_p + omega*), taken once per p, and m_p = t_p
    (t_p - ell_p).  A Q(t) parameter rides as the pair (value, 1)."""
    ell = params.ell
    if starred:
        h, lows = params.h_star, ell
        cs = [sum(ell[p + 1 :]) - ap + params.omega_star for p, ap in enumerate(params.a)]
    else:
        h, lows = params.h, (0,) * len(ell)
        cs = [sum(ell[p:]) + ap + params.omega for p, ap in enumerate(params.a)]
    hn, hd = _pair(h)
    consts = [(*_pair(c), lo) for c, lo in zip(cs, lows)]

    def kernel(t: tuple, p: int) -> tuple:
        cn, cd, lo = consts[p]
        tp = t[p]
        return hn * ((2 * sum(t[:p]) + tp) * cd + cn) * (tp - lo), hd * cd

    return kernel


# ---------------------------------------------------------------------------
# constraint validation


def _general_position(len1: int, low1: FieldElement, len2: int, low2: FieldElement) -> bool:
    """Whether two value strings, given by their lengths and least elements,
    are in general position: one contains the other, or their union is not
    itself a string of consecutive unit-step values.

    Both strings are unit-step intervals, so this is an interval test in
    constant time.  When the offset between their least elements is not an
    integer they share no element and no union of them is a string.
    """
    d = as_integer(low2 - low1)
    if d is None:
        return True
    # s1 covers offsets 0..hi1 and s2 covers d..hi2
    hi1, hi2 = len1 - 1, d + len2 - 1
    if (d >= 0 and hi2 <= hi1) or (d <= 0 and hi1 <= hi2):
        return True
    return max(0, d) > min(hi1, hi2) + 1


def _in_band(v: FieldElement, lo: int, hi: int) -> bool:
    m = as_integer(v)
    return m is not None and lo <= m <= hi


def validate_parameters(params: TDParameters) -> VerificationReport:
    """Check the three constraint families; every violated clause is listed
    with its witness value.  Never raises: failures live in the report."""
    report = VerificationReport()
    ell = params.ell
    L = params.diameter
    N = params.N

    start = time.perf_counter()
    bad1 = []
    if params.h == 0:
        bad1.append("h = 0")
    if params.h_star == 0:
        bad1.append("h_star = 0")
    if L >= 1 and _in_band(params.omega, -2 * L + 1, -1):
        bad1.append(f"omega = {format_scalar(params.omega)} lies in {{-{2 * L - 1},...,-1}}")
    if L >= 1 and _in_band(params.omega_star, -2 * L + 1, -1):
        bad1.append(
            f"omega_star = {format_scalar(params.omega_star)} lies in {{-{2 * L - 1},...,-1}}"
        )
    report.add(
        CheckResult(
            check="cond1",
            paper_ref="nonzero quadratic steps; omega bands avoid eigenvalue collisions",
            passed=not bad1,
            witness=bad1 or None,
            millis=_ms(start),
        )
    )

    start = time.perf_counter()
    bad2 = []
    for p in range(1, N + 1):
        combos = {
            f"a_{p}": params.a[p - 1],
            f"a_{p} + omega - omega_star": params.a[p - 1] + params.omega - params.omega_star,
            f"a_{p} - |ell| - omega_star": params.a[p - 1] - L - params.omega_star,
            f"a_{p} + |ell| + omega": params.a[p - 1] + L + params.omega,
        }
        for label, value in combos.items():
            if _in_band(value, -ell[p - 1], -1):
                bad2.append(
                    f"{label} = {format_scalar(value)} lies in {{-{ell[p - 1]},...,-1}}"
                )
    report.add(
        CheckResult(
            check="cond2",
            paper_ref="anchor offsets keep every off-diagonal coefficient nonzero",
            passed=not bad2,
            witness=bad2 or None,
            millis=_ms(start),
        )
    )

    start = time.perf_counter()
    bad3 = []
    # S+/-(ell_p, a_p) = {+/-(a_p + k + (omega - omega*)/2) : k = 1..ell_p} is
    # the unit-step interval of ell_p values from its least element
    half = (params.omega - params.omega_star) * Fraction(1, 2)
    strings = [
        (f"S{sign}(ell_{p}, a_{p})", lp, low)
        for p, (lp, ap) in enumerate(zip(ell, params.a), 1)
        for sign, low in (("+", ap + 1 + half), ("-", -(ap + lp + half)))
    ]
    for u, (tag1, len1, low1) in enumerate(strings):
        for tag2, len2, low2 in strings[u + 1 :]:
            if not _general_position(len1, low1, len2, low2):
                bad3.append(f"{tag1} and {tag2} are not in general position")
    report.add(
        CheckResult(
            check="cond3",
            paper_ref="value strings pairwise in general position (irreducibility)",
            passed=not bad3,
            witness=bad3 or None,
            millis=_ms(start),
        )
    )
    return report


@lru_cache(maxsize=32)
def _constraint_clauses(params: TDParameters) -> tuple:
    """The results of `validate_parameters`, each as (check, paper_ref,
    passed, witness, millis) with the witness a tuple, so nothing cached can
    be changed: each parameter set is validated once, and the constraints
    check of `run_suite` and every `_ensure_valid` gate read it here.  A
    set over Laurent series is unhashable and never reaches it."""
    return tuple(
        (r.check, r.paper_ref, r.passed, r.witness and tuple(r.witness), r.millis)
        for r in validate_parameters(params).results
    )


def _constraint_report(params: TDParameters) -> VerificationReport:
    """A new report of the cached `_constraint_clauses` of params."""
    return VerificationReport(
        [CheckResult(c, ref, ok, w and list(w), ms) for c, ref, ok, w, ms in _constraint_clauses(params)]
    )


def _ensure_valid(params: TDParameters) -> None:
    """Raise InvalidParameters unless params pass every constraint; the
    validation is cached, so a repeated gate costs one lookup."""
    if not all(ok for _, _, ok, _, _ in _constraint_clauses(params)):
        raise InvalidParameters(_constraint_report(params))


def _ms(start: float) -> int:
    return int((time.perf_counter() - start) * 1000)


# ---------------------------------------------------------------------------
# exact matrices over the enumerated basis


def _rows(items) -> dict[int, dict]:
    """The stored rows {r: {c: v}} of the ((r, c), v) items of a matrix."""
    rows: dict[int, dict] = {}
    for (r, c), v in items:
        rows.setdefault(r, {})[c] = v
    return rows


def _terms(entries: dict):
    return ((k, v.numerator, v.denominator) for k, v in entries.items())


def _lines(terms, axis: int) -> tuple[dict, dict]:
    """({index: den}, {r: {c: numerator}}): the values u / v of the ((r, c),
    u, v) terms of a matrix as stored rows, each row (axis 0) or column
    (axis 1) over den, the lcm of its v.  The v are ints: a Q(t) entry
    rides as the pair (entry, 1)."""
    terms, dens = list(terms), {}
    for key, _, v in terms:
        d = dens.get(key[axis])
        if d is None or d % v:
            dens[key[axis]] = v if d is None else lcm(d, v)
    rows: dict[int, dict] = {}
    for (r, c), u, v in terms:
        den = dens[c if axis else r]
        rows.setdefault(r, {})[c] = u if v == den else u * (den // v)
    return dens, rows


def _content_lines(x: tuple, axis: int) -> tuple[dict, dict]:
    """`_lines` of the entries of a cleared matrix x: each row (axis 0) or
    column (axis 1) divided by its content k, one gcd of den and its int
    numerators, lies over den / k (a Q(t) numerator is divided as one)."""
    rows, den = x
    lines: dict[int, list] = {}
    for r, row in rows.items():
        for c, v in row.items():
            lines.setdefault(c if axis else r, []).append(v)
    content = {i: gcd(den, *(v for v in vs if type(v) is int)) for i, vs in lines.items()}
    out = {r: {c: v if (k := content[c if axis else r]) == 1 else v // k if type(v) is int else v / k
               for c, v in row.items()} for r, row in rows.items()}
    return {i: den // k for i, k in content.items()}, out


def _line_product(rows: dict, right_rows: dict) -> dict:
    """The sparse product kernel, row by row (Gustavson), of the stored rows
    {r: {k: a}} and {k: {c: b}} of two matrices, as rows {r: {c: sum}} of
    ints or field elements; a zero sum and an empty row are left out."""
    out = {}
    for r, row in rows.items():
        acc: dict = {}
        for k, a in row.items():
            for c, b in right_rows.get(k, {}).items():
                acc[c] = acc.get(c, 0) + a * b
        acc = {c: s for c, s in acc.items() if s}
        if acc:
            out[r] = acc
    return out


# A matrix cleared of denominators is the pair ({r: {c: numerator}}, one
# common denominator), the lcm of its entries' denominators, a Q(t) entry
# riding over 1.  The operator-word checks multiply, sum and compare
# these over Z, a product's rows feeding the next product as they are, and
# build a field element only for a differing entry.


def uncleared(basis: Sequence[MultiIndex], x: tuple) -> "ExactMatrix":
    """The matrix over basis of a cleared x."""
    rows, den = x
    return ExactMatrix(basis, {(r, c): pair_value(v, den) for r, row in rows.items() for c, v in row.items()})


def _primitive(rows: dict, den: int) -> tuple:
    """rows over den, a common multiple of their denominators, cleared:
    dividing out g = gcd(den, every int numerator) leaves den / g =
    lcm_e(den / g_e), g_e = gcd(den, numerator e).  A Q(t) numerator stays
    out of g and is divided as one, as a cleared matrix keeps it over 1."""
    g = gcd(den, *(v for row in rows.values() for v in row.values() if type(v) is int))
    if g > 1:
        rows = {r: {k: v // g if type(v) is int else v / g for k, v in row.items()} for r, row in rows.items()}
    return rows, den // g


def cleared_product(x: tuple, y: tuple) -> tuple[dict, FieldElement]:
    """The product of two cleared matrices, over the product of their
    denominators."""
    return _line_product(x[0], y[0]), x[1] * y[1]


def _back_substitution(row_lines: tuple, col_lines: tuple, dimension: int) -> dict:
    """{(r, c): x} with M X = B, M upper triangular with nonzero diagonal,
    from the row lines of M and the column lines of B (`_lines`).  With row
    r of M over L_r (diagonal D_r, entries V), x_r = (L_r b_r - sum V x) /
    D_r over the column's running denominator q, the lcm of those of b and
    the x so far: a new x costs one gcd and scales the others' numerators."""
    (row_den, rows), (col_den, b) = row_lines, col_lines
    upper = {r: [(cc, v) for cc, v in row.items() if cc > r] for r, row in rows.items()}
    diag = {r: row[r] for r, row in rows.items()}
    out: dict[tuple[int, int], FieldElement] = {}
    for c, q in col_den.items():
        # b_rc = b[r][c] bscale / q and x_cc = xnum[cc] / q
        bscale, xnum = 1, {}
        for r in range(dimension - 1, -1, -1):
            num = b[r][c] * bscale * row_den[r] if c in b.get(r, ()) else 0
            num -= sum(v * xnum[cc] for cc, v in upper[r] if cc in xnum)
            if not num:
                continue
            x = out[(r, c)] = pair_value(num, q * diag[r])
            grow = x.denominator // gcd(q, x.denominator)
            if grow != 1:
                q, bscale = q * grow, bscale * grow
                for cc in xnum:
                    xnum[cc] *= grow
            xnum[r] = x.numerator * (q // x.denominator)
    return out


def cleared_scaled(x: tuple, values: Sequence[FieldElement]) -> tuple[dict, FieldElement]:
    """x diag(values) as `cleared_product` with the cleared diagonal gives
    it, column c of x times values[c], zeros left out, with no kernel call."""
    nums, den = over_common_denominator([v.numerator for v in values], [v.denominator for v in values])
    rows = {r: {c: s for c, v in row.items() if (s := v * nums[c])} for r, row in x[0].items()}
    return {r: row for r, row in rows.items() if row}, x[1] * den


def cleared_combination(terms: Sequence[tuple]) -> tuple[dict, FieldElement]:
    """The sum of s X over the (scalar s, cleared X) terms, over the lcm of
    the terms' denominators."""
    mults, den = over_common_denominator(
        [s.numerator for s, _ in terms], [s.denominator * x[1] for s, x in terms]
    )
    out: dict = {}
    for m, (_, (rows, _)) in zip(mults, terms):
        for r, row in rows.items():
            acc = out.setdefault(r, {})
            for c, a in row.items():
                acc[c] = acc.get(c, 0) + m * a
    return out, den


def cleared_commutator(x: tuple, y: tuple) -> tuple[dict, FieldElement]:
    return cleared_combination([(1, cleared_product(x, y)), (-1, cleared_product(y, x))])


def cleared_difference(lhs: tuple, rhs: tuple, basis: Sequence[MultiIndex]):
    """(row index, col index, lhs value, rhs value) of the first entry in
    storage order where two cleared matrices differ, compared by
    cross-multiplying their denominators, or None when they are equal."""
    (ln, ld), (rn, rd) = lhs, rhs
    for r in sorted(ln.keys() | rn.keys()):
        lrow, rrow = ln.get(r, {}), rn.get(r, {})
        bad = [c for c in lrow.keys() | rrow.keys() if lrow.get(c, 0) * rd != rrow.get(c, 0) * ld]
        if bad:
            c = min(bad)
            return basis[r], basis[c], pair_value(lrow.get(c, 0), ld), pair_value(rrow.get(c, 0), rd)
    return None


def identity_difference(
    product: dict, heads: Sequence[tuple], col_dens: dict, basis: Sequence[MultiIndex], transposed: bool = False
):
    """(row index, col index, lhs value, rhs value) of the first entry where
    a product differs from I, or None: entry (r, c) of the rows {r: {c: s}}
    is ru s / (rv col_dens[c]), (ru, rv) = heads[r], compared with I by
    cross-multiplying, in storage order, or in that of the transpose (the
    indices then those of the transpose).  The value is reduced."""
    bad = []
    for r, (ru, rv) in enumerate(heads):
        row, one = product.get(r, {}), rv * col_dens.get(r, 1)
        bad += [(r, c) for c in row.keys() | {r} if ru * row.get(c, 0) != (one if c == r else 0)]
    if not bad:
        return None
    r, c = min(bad, key=lambda k: k[::-1] if transposed else k)
    (ru, rv), s = heads[r], product.get(r, {}).get(c, 0)
    i, j = (c, r) if transposed else (r, c)
    return basis[i], basis[j], pair_value(ru * s, rv * col_dens[c]) if s else _ZERO, Fraction(int(r == c))


# A factored table, as every overlap route kernel returns it, holds entry
# (r, c) as ru cu z / (rv cv): (ru, rv) the head of row r, (cu, cv) that of
# column c, z the dot.  The checks compare and multiply tables by these
# helpers and build a field element only for an entry they report.


class Factored(NamedTuple):
    rows: list  # (ru, rv) per row
    cols: list  # (cu, cv) per column
    dots: list  # one list of dots per row


def unit_factored(values: list) -> Factored:
    """Rows of values under unit heads."""
    return Factored([(1, 1)] * len(values), [(1, 1)] * len(values[0] if values else ()), values)


def factored_value(t: Factored, r: int, c: int) -> FieldElement:
    (ru, rv), (cu, cv) = t.rows[r], t.cols[c]
    return pair_value(ru * cu * t.dots[r][c], rv * cv)


def factored_values(t: Factored) -> list[list[FieldElement]]:
    return [
        [pair_value(ru * cu * z, rv * cv) for (cu, cv), z in zip(t.cols, line)]
        for (ru, rv), line in zip(t.rows, t.dots)
    ]


def factored_scaled(t: Factored, row_factors: Sequence, col_factors: Sequence) -> Factored:
    """t with row r times row_factors[r] and column c times col_factors[c]."""

    def scaled(heads, factors):
        return [(u * f.numerator, v * f.denominator) for (u, v), f in zip(heads, factors)]

    return Factored(scaled(t.rows, row_factors), scaled(t.cols, col_factors), t.dots)


def _cross_heads(a: list, b: list) -> list[tuple]:
    # (au bv, bu av) per line, int pairs divided by their gcd
    out = []
    for (au, av), (bu, bv) in zip(a, b):
        ka, kb = au * bv, bu * av
        g = gcd(ka, kb) if type(ka) is int and type(kb) is int else 0
        out.append((ka // g, kb // g) if g > 1 else (ka, kb))
    return out


def _first_unequal(a: Factored, b: Factored) -> Optional[tuple[int, int]]:
    # cross-multiplied, each pair of cross heads divided by its gcd: two
    # formula routes' pairs all reduce to units, and the others lose about
    # half their bits or more
    rows, cols = _cross_heads(a.rows, b.rows), _cross_heads(a.cols, b.cols)
    for r, ((ka, kb), la, lb) in enumerate(zip(rows, a.dots, b.dots)):
        for c, ((ma, mb), x, y) in enumerate(zip(cols, la, lb)):
            if x.numerator * y.denominator * ka * ma != y.numerator * x.denominator * kb * mb:
                return r, c
    return None


def factored_difference(pairs: Sequence[tuple[Factored, Factored]]) -> Optional[tuple]:
    """(k, r, c, lhs, rhs) of the first entry (r, c) in row-major order
    where the tables of a pair differ, k the least such pair, or None."""
    diffs = [(at, k) for k, (a, b) in enumerate(pairs) if (at := _first_unequal(a, b)) is not None]
    if not diffs:
        return None
    (r, c), k = min(diffs)
    a, b = pairs[k]
    return k, r, c, factored_value(a, r, c), factored_value(b, r, c)


# the value of an absent entry, shared: a Fraction is immutable
_ZERO = Fraction(0)


class ExactMatrix:
    """A square matrix over an exact field, indexed by the box basis.

    Entries are stored sparsely, keyed by (row, col) positions in the
    graded enumeration order; an absent entry is zero.  Matrices are
    immutable by convention once constructed; all operations return new
    objects.  Equality is exact and entrywise.

    Products and upper-triangular solves take one path over Q and Q(t):
    each row or column is brought over one common denominator (`_lines`),
    the products are `_line_product` sums of numerators, and each result
    entry is built once from its numerator and denominator.  Over Q the
    numerators are ints and every result entry is a Fraction (one gcd); a
    Q(t) entry is carried as the pair (entry, 1).  No zero is stored.
    """

    __slots__ = ("basis", "pos", "entries")

    def __init__(self, basis: Sequence[MultiIndex], entries: Optional[dict] = None):
        self.basis = tuple(basis)
        self.pos = {m: k for k, m in enumerate(self.basis)}
        # a zero of every field type is falsy
        self.entries: dict = {k: v for k, v in entries.items() if v} if entries else {}

    # -- access -----------------------------------------------------------

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def entry(self, row: MultiIndex, col: MultiIndex) -> FieldElement:
        return self.entries.get((self.pos[row], self.pos[col]), _ZERO)

    def item(self, r: int, c: int) -> FieldElement:
        return self.entries.get((r, c), _ZERO)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.basis == other.basis and self.first_difference(other) is None

    def __hash__(self):
        raise TypeError("ExactMatrix is not hashable")

    def first_difference(self, other: "ExactMatrix"):
        """(row index, col index, self value, other value) of the first
        differing entry in storage order, or None when equal: the walk of
        `cleared_difference` over denominator 1, run only when the entry
        dicts differ (a stored zero is no difference)."""
        if self.entries == other.entries:
            return None
        lhs, rhs = ((_rows(m.entries.items()), 1) for m in (self, other))
        return cleared_difference(lhs, rhs, self.basis)

    # -- arithmetic ---------------------------------------------------------

    def _check_same_basis(self, other: "ExactMatrix"):
        if self.basis != other.basis:
            raise ValueError("matrices over different bases")

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        """Entry (r, c) is the `_line_product` sum of numerator products over
        L_r * M_c, L_r and M_c the common denominators of row r of self and
        column c of other."""
        self._check_same_basis(other)
        row_den, rows = _lines(_terms(self.entries), 0)
        col_den, right = _lines(_terms(other.entries), 1)
        m = ExactMatrix(self.basis)
        m.entries = {
            (r, c): pair_value(s, row_den[r] * col_den[c])
            for r, row in _line_product(rows, right).items()
            for c, s in row.items()
        }
        return m

    def solve_upper_triangular(self, rhs: "ExactMatrix") -> "ExactMatrix":
        """Solve self X = rhs for X, with self upper triangular in storage
        order with nonzero diagonal, by `_back_substitution`."""
        self._check_same_basis(rhs)
        if any(r > c for r, c in self.entries):
            raise ValueError("matrix is not upper triangular in storage order")
        if any(self.item(k, k) == 0 for k in range(self.dimension)):
            raise ZeroDivisionError("upper-triangular solve with zero diagonal entry")
        m = ExactMatrix(self.basis)
        lines = (_lines(_terms(x.entries), axis) for x, axis in ((self, 0), (rhs, 1)))
        m.entries = _back_substitution(*lines, self.dimension)
        return m

    # -- serialization ------------------------------------------------------

    def to_json_obj(self) -> dict:
        triplets = [
            [format_multiindex(self.basis[r]), format_multiindex(self.basis[c]), format_scalar(v)]
            for (r, c), v in sorted(self.entries.items())
        ]
        return {
            "basis": [format_multiindex(m) for m in self.basis],
            "entries": triplets,
        }

    def to_csv_rows(self) -> list[list[str]]:
        header = ["index"] + [format_multiindex(m) for m in self.basis]
        out = [header]
        for r, rm in enumerate(self.basis):
            out.append(
                [format_multiindex(rm)]
                + [format_scalar(self.item(r, c)) for c in range(self.dimension)]
            )
        return out

    def __repr__(self):
        return f"<ExactMatrix {self.dimension}x{self.dimension}, {len(self.entries)} stored>"


# ---------------------------------------------------------------------------
# operator construction


def _assemble_operator(params: TDParameters, which: str) -> tuple:
    """The operator cleared of denominators, without re-validating the
    parameters.

    The walk runs on tuples: each column n reaches its targets t = n +- e_p
    by replacing one coordinate, checked against its own bound.  theta (or
    theta*) is one pair per level and each off-diagonal entry one
    `_xi_kernel` pair; the pairs are put over one common multiple and the
    rows made `_primitive`.  S is the reversal of the graded order."""
    shape = params.shape
    basis = _box(shape)
    if which == "S":
        return {len(basis) - 1 - c: {c: 1} for c in range(len(basis))}, 1
    entries, pos = [], {n: k for k, n in enumerate(basis)}
    starred = which in ("Astar", "L")
    levels = range(shape.diameter + 1) if which in ("A", "Astar") else ()
    thetas = [_pair(eigenvalue(params, w, starred=starred)) for w in levels]
    kernel = _xi_kernel(params, starred)
    step = -1 if starred else 1
    for c, n in enumerate(basis):
        if thetas:
            entries.append(((c, c), thetas[sum(n)]))
        for p, lp in enumerate(shape.ell):
            tp = n[p] + step
            if 0 <= tp <= lp:
                t = n[:p] + (tp,) + n[p + 1 :]
                entries.append(((pos[t], c), kernel(t, p)))
    nums, den = over_common_denominator([u for _, (u, _) in entries], [v for _, (_, v) in entries])
    return _primitive(_rows((k, u) for (k, _), u in zip(entries, nums) if u), den)


def build_operator(params: TDParameters, which: str) -> ExactMatrix:
    """Matrix of A, A*, S, R, or L over the graded box basis.

    A  = diag(theta_|n|)  + R  (R raises the level by one)
    A* = diag(theta*_|n|) + L  (L lowers the level by one)
    S  maps V^n to V^(ell - n)

    Raises InvalidParameters when the constraint report fails.
    """
    if which not in OPERATOR_NAMES:
        raise ValueError(f"unknown operator {which!r}; expected one of {OPERATOR_NAMES}")
    _ensure_valid(params)
    return uncleared(_box(params.shape), _assemble_operator(params, which))


def substituted_for_involution(params: TDParameters, starred: bool) -> TDParameters:
    """The parameter substitution realizing conjugation by S.

    With starred=False: parameters whose starred family reproduces S A S,
    i.e. theta0* -> theta0 + h |ell| (|ell| + omega), h* -> h,
    omega* -> -omega - 2|ell|.  With starred=True: the mirror substitution
    whose plain family reproduces S A* S.
    """
    L = params.diameter
    if starred:
        return replace(
            params,
            theta0=params.theta0_star + params.h_star * L * (L + params.omega_star),
            h=params.h_star,
            omega=-params.omega_star - 2 * L,
        )
    return replace(
        params,
        theta0_star=params.theta0 + params.h * L * (L + params.omega),
        h_star=params.h,
        omega_star=-params.omega - 2 * L,
    )

"""Exact scalar arithmetic and the combinatorial series primitives.

Two concrete scalar types are supported and freely mixed:

* ``fractions.Fraction`` for the field of rationals, and
* :class:`RationalFunction` for the field of univariate rational
  functions in the formal variable ``t`` with rational coefficients, kept
  as a quotient of two polynomials over Z in lowest terms.  Their gcd is a
  primitive pseudo-remainder sequence, whose divisions are exact integer
  divisions by Gauss's lemma (Collins 1967; Knuth, TAOCP vol. 2, 4.6.1).

Plain ``int`` values are accepted everywhere and coerced.  "FieldElement"
below means any of the three.  All operations are pure and every value is
immutable, so everything in this module is safe to use concurrently.

A third scalar kind serves only to take limits at t = 0:
:class:`LaurentSeries`, a Laurent series over Q known to relative precision
1, that is one valuation, one numerator and one denominator.  It is exact
(no floats, no gcd of polynomials), and it raises `PrecisionExhausted`
rather than guess a coefficient that its precision does not determine.  It
enters the same series primitives and `pochhammer`, and `limit_at_zero`
reads its t^0 coefficient.

A value may also ride as a pair (numerator, denominator): two ints for a
rational, (v, 1) for a rational function or series v, which answers the
int/Fraction ``numerator``/``denominator`` protocol that way.
`over_common_denominator`, the package's one accumulation primitive, puts a
run of pairs over the lcm of their denominators, so every exact sum (series
terms, overlap terms, matrix dot products) adds numerators and builds one
value at the end.

The module also provides the handful of combinatorial primitives that all
closed formulas in the package are assembled from: Pochhammer symbols
(over Q one integer product, `_rising`), binomial coefficients, and
terminating generalized hypergeometric series, advanced term by term.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

__all__ = [
    "Rational",
    "RationalFunction",
    "FieldElement",
    "ZeroDenominatorPochhammer",
    "PoleAtZero",
    "LaurentSeries",
    "PrecisionExhausted",
    "rational",
    "format_scalar",
    "variable_t",
    "is_zero",
    "as_integer",
    "pochhammer",
    "binomial",
    "pair_value",
    "over_common_denominator",
    "hypergeometric_term_pairs",
    "pfq_terminating",
    "limit_at_zero",
]

Rational = Fraction

# Polynomials are tuples of int coefficients in ascending degree order with
# no trailing zero; the zero polynomial is the empty tuple.  Rational
# coefficients live in the integer content of a RationalFunction's pair.
_Poly = tuple


class ZeroDenominatorPochhammer(ArithmeticError):
    """A denominator Pochhammer symbol vanished where a nonzero value was required.

    ``k`` is the series index (or symbol length) at which the zero factor
    appeared.  For the coefficient formulas of this package the parameter
    constraints rule this out, so reaching it signals a bug or an invalid
    parameter set that slipped past validation.
    """

    def __init__(self, k: int, detail: str = ""):
        self.k = k
        self.detail = detail
        msg = f"denominator Pochhammer symbol vanished at k={k}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class PoleAtZero(ArithmeticError):
    """A rational function was evaluated at t = 0 where it has a pole."""


class PrecisionExhausted(ArithmeticError):
    """A Laurent series is not known far enough to decide what was asked:
    its t^0 coefficient, or whether it is zero."""


def _trim(coeffs: list) -> _Poly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _padd(a: _Poly, b: _Poly) -> _Poly:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for k, v in enumerate(b):
        out[k] += v
    return _trim(out)


def _pneg(a: _Poly) -> _Poly:
    return tuple(-v for v in a)


def _pmul(a: _Poly, b: _Poly) -> _Poly:
    # over Z the leading coefficient of a product is never zero: no trim
    if not a or not b:
        return ()
    if len(b) == 1:
        c = b[0]
        return a if c == 1 else tuple(v * c for v in a)
    out = [0] * (len(a) + len(b) - 1)
    for ka, va in enumerate(a):
        if va:
            for kb, vb in enumerate(b):
                out[ka + kb] += va * vb
    return tuple(out)


def _pprimitive(a: _Poly) -> _Poly:
    g = math.gcd(*a)
    return a if g == 1 else tuple(v // g for v in a)


def _pprem(a: _Poly, b: _Poly) -> _Poly:
    # a pseudo-remainder: c a = q b + r with deg r < deg b and an int c != 0;
    # each step scales by lc(b) over its gcd with the coefficient removed
    r = list(a)
    lead, n = b[-1], len(b)
    while len(r) >= n:
        g = math.gcd(r[-1], lead)
        c, s = r[-1] // g, lead // g
        if s != 1:
            r = [v * s for v in r]
        d = len(r) - n
        for k, v in enumerate(b):
            r[d + k] -= c * v
        _trim(r)  # drops the cancelled leading term
    return tuple(r)


def _pgcd(a: _Poly, b: _Poly) -> _Poly:
    # primitive remainder sequence (Collins 1967) of two nonzero polynomials;
    # the gcd over Q, primitive and of either sign
    if len(a) < len(b):
        a, b = b, a
    a, b = _pprimitive(a), _pprimitive(b)
    while b:
        r = _pprem(a, b)
        a, b = b, (_pprimitive(r) if r else r)
    return a


def _pquo(a: _Poly, b: _Poly) -> _Poly:
    # a / b for a primitive b that divides a over Q: by Gauss's lemma the
    # quotient has int coefficients, so every step divides exactly
    r = list(a)
    lead, n = b[-1], len(b)
    q = [0] * (len(a) - n + 1)
    for d in range(len(q) - 1, -1, -1):
        c = q[d] = r[d + n - 1] // lead
        if c:
            for k, v in enumerate(b):
                r[d + k] -= c * v
    return tuple(q)


def _valuation(a: _Poly) -> int:
    # multiplicity of the root t = 0; 0 for the zero polynomial by convention
    for k, v in enumerate(a):
        if v:
            return k
    return 0


def _canonical(num: _Poly, den: _Poly, coprime: bool) -> tuple[_Poly, _Poly]:
    """num/den with den != 0 in canonical form; the polynomial gcd is taken
    unless the caller knows num and den share no factor over Q."""
    if not num:
        return (), _ONE
    if not coprime:
        v = min(_valuation(num), _valuation(den))  # cheap common power of t
        if v:
            num, den = num[v:], den[v:]
        g = _pgcd(num, den)
        if len(g) > 1:
            num, den = _pquo(num, g), _pquo(den, g)
    g = math.gcd(*num, *den)
    if den[-1] < 0:
        g = -g
    if g != 1:
        num, den = tuple(v // g for v in num), tuple(v // g for v in den)
    return num, den


_ONE: _Poly = (1,)


class RationalFunction:
    """A univariate rational function over the rationals, in canonical form.

    ``num`` and ``den`` are polynomials with int coefficients (see `_Poly`)
    that share no factor over Q, the gcd of all their coefficients is 1, and
    ``den`` has a positive leading coefficient.  That form is unique, so
    equality is plain component comparison, and a constant p/q is stored as
    ((p,), (q,)) like its Fraction.  The formal variable is written ``t``;
    `str` and `repr` print the value with a monic denominator.
    """

    __slots__ = ("num", "den")

    def __init__(self, num=0, den=1):
        pn, cn = self._coerce_poly(num)
        pd, cd = self._coerce_poly(den)
        if not pd:
            raise ZeroDivisionError("rational function with zero denominator")
        self.num, self.den = _canonical(_pmul(pn, (cd,)), _pmul(pd, (cn,)), False)

    @staticmethod
    def _coerce_poly(v) -> tuple[_Poly, int]:
        # v as (an int polynomial P, a positive int c) with v = P / c
        if isinstance(v, (tuple, list)):
            cs = [Fraction(c) for c in v]
            c = math.lcm(*(x.denominator for x in cs))
            return _trim([x.numerator * (c // x.denominator) for x in cs]), c
        if isinstance(v, (int, Fraction)):
            return ((v.numerator,) if v else ()), v.denominator
        if isinstance(v, RationalFunction):
            if len(v.den) != 1:
                raise TypeError("cannot use a non-polynomial rational function as a polynomial")
            return v.num, v.den[0]
        raise TypeError(f"cannot build a polynomial from {type(v).__name__}")

    @classmethod
    def _make(cls, num: _Poly, den: _Poly, coprime: bool = False) -> "RationalFunction":
        obj = cls.__new__(cls)
        obj.num, obj.den = _canonical(num, den, coprime)
        return obj

    # -- field structure ------------------------------------------------
    # With a polynomial operand P/c the result needs no gcd: a/b + P/c has
    # numerator ac + Pb and gcd(ac + Pb, bc) = gcd(a, b) = 1 over Q; a
    # constant scales a/b, or c / (a/b) = cb/a, and keeps it coprime.  Those
    # paths only remove the integer content.

    def __add__(self, other):
        o = _as_rf(other)
        if o is NotImplemented:
            return NotImplemented
        polynomial = len(o.den) == 1 or len(self.den) == 1
        return RationalFunction._make(
            _padd(_pmul(self.num, o.den), _pmul(o.num, self.den)), _pmul(self.den, o.den), polynomial
        )

    __radd__ = __add__

    def __sub__(self, other):
        o = _as_rf(other)
        if o is NotImplemented:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = _as_rf(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__sub__(self)

    def __mul__(self, other):
        o = _as_rf(other)
        if o is NotImplemented:
            return NotImplemented
        constant = o.is_constant() or self.is_constant()
        return RationalFunction._make(_pmul(self.num, o.num), _pmul(self.den, o.den), constant)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _as_rf(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by the zero rational function")
        constant = o.is_constant() or self.is_constant()
        return RationalFunction._make(_pmul(self.num, o.den), _pmul(self.den, o.num), constant)

    def __rtruediv__(self, other):
        o = _as_rf(other)
        if o is NotImplemented:
            return NotImplemented
        return o.__truediv__(self)

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            if not self.num:
                raise ZeroDivisionError("negative power of zero")
            return RationalFunction._make(self.den, self.num, True) ** (-k)
        out = RationalFunction(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __neg__(self):
        return RationalFunction._make(_pneg(self.num), self.den, True)

    def __pos__(self):
        return self

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return not self.num
            return self.num == (other.numerator,) and self.den == (other.denominator,)
        return NotImplemented

    def __hash__(self):
        # constants hash like the rational they are, so mixed-type dict
        # and set use behaves
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.num, self.den))

    # -- inspection ------------------------------------------------------

    # the numerator/denominator protocol of int and Fraction: a rational
    # function is carried as the pair (itself, 1)
    @property
    def numerator(self) -> "RationalFunction":
        return self

    @property
    def denominator(self) -> int:
        return 1

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant rational function")
        return Fraction(self.num[0], self.den[0]) if self.num else Fraction(0)

    def __repr__(self):
        lead = self.den[-1]
        return f"RationalFunction({_fmt_poly(self.num, lead)!r}, {_fmt_poly(self.den, lead)!r})"

    def __str__(self):
        lead = self.den[-1]
        if len(self.den) == 1:
            return _fmt_poly(self.num, lead)
        return f"({_fmt_poly(self.num, lead)})/({_fmt_poly(self.den, lead)})"


def _fmt_poly(p: _Poly, lead: int) -> str:
    # p / lead with rational coefficients, highest degree first
    if not p:
        return "0"
    parts = []
    for k in range(len(p) - 1, -1, -1):
        c = Fraction(p[k], lead)
        if c == 0:
            continue
        if k == 0:
            parts.append(f"{c}")
        else:
            mono = "t" if k == 1 else f"t^{k}"
            if c == 1:
                parts.append(mono)
            elif c == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{c}*{mono}")
    out = parts[0]
    for piece in parts[1:]:
        out += piece if piece.startswith("-") else "+" + piece
    return out


def _as_rf(v):
    if isinstance(v, RationalFunction):
        return v
    if isinstance(v, (int, Fraction)):
        return RationalFunction._make(((v.numerator,) if v else ()), (v.denominator,), True)
    return NotImplemented


class LaurentSeries:
    """A Laurent series at t = 0 over Q, known to relative precision 1.

    ``t^val (num / den) + O(t^(val+1))`` with an int ``num`` != 0 and an
    int ``den`` > 0; with ``num`` = 0 it is ``O(t^val)``, a zero known below
    t^val only.  An int or Fraction operand is exact.  A product is the
    product of the leading terms and an inverse swaps numerator and
    denominator.  A sum is known below the smaller absolute precision
    (PARI/GP's power series): it keeps the lowest term known there, the sum
    of the two leading terms when they sit at one t^v, where an exact
    cancellation leaves O(t^(v+1)); a higher known term is cut, so 3 + t is
    3 + O(t).  Only the precision is ever cut, never a coefficient guessed:
    ``== 0`` and division raise PrecisionExhausted on a zero that is not
    known to be one.
    """

    __slots__ = ("val", "num", "den")

    def __init__(self, val: int, num: int = 0, den: int = 1):
        if den < 0:
            num, den = -num, -den
        self.val, self.num, self.den = val, num, den

    def _abs(self) -> int:
        return self.val + 1 if self.num else self.val

    def __add__(self, other):
        if type(other) is LaurentSeries:
            top, v2, b, d2 = min(self._abs(), other._abs()), other.val, other.num, other.den
        elif isinstance(other, (int, Fraction)):
            top, v2, b, d2 = self._abs(), 0, other.numerator, other.denominator
        else:
            return NotImplemented
        v1, a, d1 = self.val, self.num, self.den
        # a known term counts only below top: a series term lies at top - 1,
        # an exact constant at t^0, and a constant below a series term cuts it
        ka, kb = a and v1 < top, b and v2 < top
        if ka and kb and v1 == v2:
            if d1 == d2:
                c, den = a + b, d1
            else:
                den = math.lcm(d1, d2)
                c = a * (den // d1) + b * (den // d2)
            return LaurentSeries(v1, c, den) if c else LaurentSeries(v1 + 1, 0, den)
        if kb:
            return LaurentSeries(v2, b, d2)
        return self if ka else LaurentSeries(top, 0, d1)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(self.val, -self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        # a series first: isinstance against Fraction's ABC is the slow test
        if type(other) is LaurentSeries:
            return LaurentSeries(self.val + other.val, self.num * other.num, self.den * other.den)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            return Fraction(0)
        if other == 1:
            return self
        return LaurentSeries(self.val, self.num * other.numerator, self.den * other.denominator)

    __rmul__ = __mul__

    def _inverse(self) -> "LaurentSeries":
        if not self.num:
            raise PrecisionExhausted(f"division by O(t^{self.val}), not known to be nonzero")
        return LaurentSeries(-self.val, self.den, self.num)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self * other._inverse()

    def __rtruediv__(self, other):
        return self._inverse() * other

    def __eq__(self, other):
        # only a comparison with 0 is decided; an unknown zero raises
        if not isinstance(other, (int, Fraction)) or other != 0:
            raise TypeError("a Laurent series is only compared with 0")
        if not self.num:
            raise PrecisionExhausted(f"O(t^{self.val}) is not known to be zero")
        return False

    __hash__ = None

    def __bool__(self):
        return self != 0

    # the numerator/denominator protocol, like RationalFunction: (self, 1)
    @property
    def numerator(self) -> "LaurentSeries":
        return self

    @property
    def denominator(self) -> int:
        return 1

    def __repr__(self):
        return f"LaurentSeries({self.val}, {self.num}, {self.den})"


FieldElement = Union[int, Fraction, RationalFunction]


def variable_t() -> RationalFunction:
    """The generator t of the rational-function field."""
    return RationalFunction((0, 1))


def is_zero(v: FieldElement) -> bool:
    return v == 0


def as_integer(v: FieldElement):
    """Return the value as a Python int when it is one, else None."""
    if isinstance(v, bool):
        return None
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return int(v) if v.denominator == 1 else None
    if isinstance(v, RationalFunction):
        if not v.is_constant():
            return None
        return as_integer(v.constant_value())
    return None


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def rational(text: str) -> Fraction:
    """Parse a rational literal of the form "p/q" or "p"."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal: {text!r}") from None


def format_scalar(v: FieldElement) -> str:
    """Serialize a scalar the way `rational` parses it; never a float."""
    if isinstance(v, int):
        return str(v)
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, RationalFunction):
        return str(v)
    raise TypeError(f"not an exact scalar: {type(v).__name__}")


def _coerce(v) -> FieldElement:
    if isinstance(v, bool):
        raise TypeError("bool is not a scalar")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, (Fraction, RationalFunction, LaurentSeries)):
        return v
    raise TypeError(f"not an exact scalar: {type(v).__name__}")


def pochhammer(x: FieldElement, k: int) -> FieldElement:
    """Rising factorial x(x+1)...(x+k-1); equals 1 when k = 0."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise ValueError("pochhammer requires a nonnegative integer length")
    x = _coerce(x)
    if k == 0:
        return Fraction(1)
    if isinstance(x, RationalFunction):
        return _pochhammer_qt(x, k)
    if isinstance(x, LaurentSeries):
        return math.prod((x + j for j in range(1, k)), start=x)
    return pair_value(*_rising(x.numerator, x.denominator, k))


def _pochhammer_qt(x: RationalFunction, k: int) -> RationalFunction:
    # x = a/b in lowest terms gives prod (a + j b) / b^k; every a + j b is
    # coprime to b, so the product needs no gcd, only its content removed
    num, den = x.num, x.den
    for j in range(1, k):
        num = _pmul(num, _padd(x.num, _pmul(x.den, (j,))))
        den = _pmul(den, x.den)
    return RationalFunction._make(num, den, True)


def _inv_poch(base: FieldElement, k: int, detail: str) -> FieldElement:
    """(base)_k for use as a denominator; a zero value raises."""
    v = pochhammer(base, k)
    if is_zero(v):
        raise ZeroDenominatorPochhammer(k, detail)
    return v


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the convention 0 outside 0 <= k <= n."""
    if isinstance(n, bool) or not isinstance(n, int) or n < 0:
        raise ValueError("binomial requires a nonnegative integer n")
    if isinstance(k, bool) or not isinstance(k, int):
        raise ValueError("binomial requires an integer k")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _pair(v: FieldElement) -> tuple:
    """v as (numerator, denominator): two ints for a rational, (v, 1) for a
    rational function or a Laurent series."""
    if type(v) not in (int, Fraction):
        v = _coerce(v)
    return v.numerator, v.denominator


def _rising(n, d, k: int) -> tuple:
    """(n / d)_k as a pair: over Q (d > 0) the ints prod (n + s d) and d**k,
    over Q(t) (n over d = 1) its `pochhammer` over 1, at k = 0 ints (1, 1)."""
    if type(n) is int:
        return math.prod(range(n, n + k * d, d)), d**k
    return (pochhammer(n, k) if k else 1), 1


def pair_value(u, v) -> FieldElement:
    """The field element u / v of a pair whose parts are ints or field
    elements; two ints give a Fraction, never a float."""
    if type(u) is int and type(v) is int:
        return Fraction(u, v)
    if type(v) is int and v == 1:
        return u
    return u / v


def over_common_denominator(nums: Sequence, dens: Sequence) -> tuple[list, FieldElement]:
    """The values nums[j] / dens[j] as (numerators, one denominator).

    With every denominator an int, the denominator is their lcm (one that
    divides the running lcm costs a remainder, not a gcd) and each numerator
    is scaled to it, unreduced: ints stay ints and a rational-function
    numerator stays a field element.  A numerator already over the lcm is
    kept as it is, so a Q(t) value over 1 costs no field multiplication.  A
    field-element denominator is divided out instead, over 1."""
    den = 1
    for d in dens:
        if type(d) is not int:  # a rational-function denominator
            return [pair_value(u, d) for u, d in zip(nums, dens)], 1
        if den % d:
            den = math.lcm(den, d)
    return [u if d == den else u * (den // d) for u, d in zip(nums, dens)], den


def hypergeometric_term_pairs(
    num: Sequence[FieldElement],
    den: Sequence[FieldElement],
    kmax: int,
    z: Optional[FieldElement] = None,
    detail: str = "hypergeometric denominator parameter",
) -> Iterator[tuple[int, FieldElement, FieldElement]]:
    """Yield (k, u_k, v_k) with u_k / v_k = t_k the k-th term
    (a_1)_k ... (a_r)_k / [(1)_k (b_1)_k ... (b_s)_k] z^k.

    Each term is the previous one times the term ratio
    prod (a_j + k - 1) / [k prod (b_j + k - 1)] z, so no Pochhammer symbol
    is recomputed.  Stops after kmax, at the first vanishing numerator
    factor, or once a term is zero; z = None means z = 1 without the
    multiplication.  Raises ZeroDenominatorPochhammer(k, detail) if some
    (b_j)_k vanishes while the k-th term's numerator is nonzero.

    A rational parameter c = n/d enters the term ratio as the integer
    factor n + (k - 1) d over d.  So over Q every u_k and v_k is an int,
    unreduced, and no gcd is taken; v_k divides v_{k+1}.  With a rational
    function or series among the parameters or z, u_k is the term itself
    and v_k = 1.
    Its core `_term_pairs` takes the parameters and z as `_pair`s already.
    """
    zp = (1, 1) if z is None else _pair(z)
    return _term_pairs([_pair(v) for v in num], [_pair(v) for v in den], kmax, zp, detail)


def _term_pairs(nums: list, dens: list, kmax: int, zp: tuple, detail: str) -> Iterator[tuple]:
    """`hypergeometric_term_pairs` on parameters and z given as pairs (n, d)."""
    if isinstance(kmax, bool) or not isinstance(kmax, int) or kmax < 0:
        raise ValueError("kmax must be a nonnegative integer")
    # the parameters' denominators scale every step's ratio alike
    up, down = zp
    for _, d in dens:
        up = up * d
    for _, d in nums:
        down = down * d
    u, v = 1, 1
    yield 0, u, v
    for k in range(1, kmax + 1):
        numfac = 1
        for n, d in nums:
            numfac = numfac * (n + (k - 1) * d)
        if numfac == 0:
            return  # the series terminated at k-1
        denfac = k
        for n, d in dens:
            denfac = denfac * (n + (k - 1) * d)
        if denfac == 0:
            raise ZeroDenominatorPochhammer(k, detail)
        # a non-int parameter or z keeps its factor non-int at every k
        if type(numfac) is int and type(denfac) is int and type(up) is int:
            u, v = u * numfac * up, v * denfac * down
        else:
            u = u * (numfac * up) / (denfac * down)
        if u == 0:
            return  # z = 0; every later term vanishes too
        yield k, u, v


def pfq_terminating(
    num: Sequence[FieldElement],
    den: Sequence[FieldElement],
    z: FieldElement,
    kmax: int,
) -> FieldElement:
    """Terminating generalized hypergeometric sum.

    Returns sum_{k=0..K} (a_1)_k ... (a_r)_k / [(1)_k (b_1)_k ... (b_s)_k] z^k
    where K = min(kmax, first index at which a numerator Pochhammer vanishes).
    The caller guarantees termination, either through a nonpositive-integer
    numerator parameter or through kmax.

    Raises ZeroDenominatorPochhammer(k) if some (b_j)_k vanishes while the
    k-th term's numerator is nonzero.
    """
    _, us, vs = zip(*hypergeometric_term_pairs(num, den, kmax, z))
    scaled, d = over_common_denominator(us, vs)
    return pair_value(sum(scaled), d)


def limit_at_zero(f) -> Fraction:
    """Value at t = 0 of a rational function, after full reduction, or of
    a Laurent series, exactly and without floats.

    Accepts plain rationals (returned unchanged) for convenience.  Raises
    PoleAtZero when the reduced denominator vanishes at 0, or when a
    series has a known term of negative power.  A series whose t^0
    coefficient lies beyond its precision raises PrecisionExhausted: the
    limit is never guessed.
    """
    if isinstance(f, (int, Fraction)):
        return Fraction(f)
    if isinstance(f, LaurentSeries):
        if f.num and f.val < 0:
            raise PoleAtZero(f"pole at t = 0: {f!r}")
        if f.val <= 0 and not f.num:
            raise PrecisionExhausted(f"t^0 coefficient of {f!r} unknown")
        return Fraction(f.num, f.den) if f.val == 0 else Fraction(0)
    if not isinstance(f, RationalFunction):
        raise TypeError(f"not a rational function: {type(f).__name__}")
    den0 = f.den[0]  # canonical form, so num/den share no factor of t
    if den0 == 0:
        raise PoleAtZero(f"pole at t = 0: {f}")
    return Fraction(f.num[0] if f.num else 0, den0)

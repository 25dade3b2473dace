"""Field arithmetic and series primitives."""

import math
import operator
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tdpair.exactfield import (
    LaurentSeries,
    PoleAtZero,
    PrecisionExhausted,
    RationalFunction,
    ZeroDenominatorPochhammer,
    _rising,
    as_integer,
    binomial,
    format_scalar,
    hypergeometric_term_pairs,
    limit_at_zero,
    over_common_denominator,
    pair_value,
    pfq_terminating,
    pochhammer,
    rational,
    variable_t,
)


_small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def _rf_values(draw):
    t = variable_t()
    num = draw(st.lists(_small_fractions, min_size=1, max_size=3))
    den = draw(st.lists(_small_fractions, min_size=1, max_size=3))
    f = RationalFunction(0)
    for k, c in enumerate(num):
        f = f + c * t**k
    g = RationalFunction(0)
    for k, c in enumerate(den):
        g = g + c * t**k
    if g == 0:
        g = g + 1
    return f / g


class TestPochhammer:
    def test_length_zero_is_one(self):
        assert pochhammer(Fraction(5), 0) == 1

    @pytest.mark.parametrize("kind", ["int", "rational function", "series"])
    def test_unit_rising_pair_is_two_ints(self, kind):
        # a zero-length symbol brings no Fraction(1) into a line, whatever
        # its base; pochhammer itself still returns Fraction(1)
        t = variable_t()
        n = {"int": -3, "rational function": t + Fraction(1, 2), "series": LaurentSeries(-1, 1)}[kind]
        for x in (n, 0, 7):
            got = _rising(x, 1, 0)
            assert got == (1, 1) and all(type(v) is int for v in got)
        for x in (Fraction(5), t + 1, LaurentSeries(-1, 1)):
            assert pochhammer(x, 0) == 1 and type(pochhammer(x, 0)) is Fraction

    def test_hits_zero_factor(self):
        assert pochhammer(Fraction(-2), 3) == 0

    def test_half(self):
        assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(Fraction(1), -1)

    @given(
        st.fractions(max_denominator=20),
        st.integers(min_value=0, max_value=20),
        st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_splitting(self, x, j, k):
        assert pochhammer(x, j + k) == pochhammer(x, j) * pochhammer(x + j, k)

    def test_over_rational_functions(self):
        t = variable_t()
        assert pochhammer(t, 2) == t * (t + 1)

    @given(_rf_values(), st.integers(min_value=0, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_over_rational_functions_matches_product_loop(self, x, k):
        expect = Fraction(1)
        for j in range(k):
            expect = expect * (x + j)
        got = pochhammer(x, k)
        assert got == expect
        assert type(got) is type(expect)

    @pytest.mark.parametrize("c", [Fraction(3, 2), Fraction(-2), Fraction(0)])
    def test_constant_rational_function_keeps_its_type(self, c):
        # a constant RationalFunction equals and hashes like its Fraction, so
        # the rational memo must not answer for it, in either call order
        for k in range(1, 4):
            as_rf = pochhammer(RationalFunction(c), k)
            as_q = pochhammer(c, k)
            assert isinstance(as_rf, RationalFunction)
            assert isinstance(as_q, Fraction)
            assert as_rf == as_q
            assert isinstance(pochhammer(RationalFunction(c), k), RationalFunction)


class TestBinomial:
    def test_plain(self):
        assert binomial(4, 2) == 6

    def test_below_range(self):
        assert binomial(3, -1) == 0

    def test_full(self):
        assert binomial(5, 5) == 1

    def test_above_range(self):
        assert binomial(3, 4) == 0

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)


class TestBoolLengths:
    """A bool is not a length or an index, as `_coerce` refuses it as a
    scalar: each primitive raises the ValueError it raises for a non-int."""

    def test_pochhammer_length(self):
        for k in (True, False, 1.0):
            with pytest.raises(ValueError, match="nonnegative integer length"):
                pochhammer(Fraction(1, 2), k)

    def test_binomial_arguments(self):
        for n, k, match in ((5, True, "integer k"), (5, False, "integer k"), (True, 1, "integer n"), (5, 1.0, "integer k")):
            with pytest.raises(ValueError, match=match):
                binomial(n, k)

    def test_series_kmax(self):
        for kmax in (True, False, 2.0):
            with pytest.raises(ValueError, match="kmax"):
                pfq_terminating([-2, Fraction(1, 3)], [Fraction(1, 2)], Fraction(1), kmax)
            with pytest.raises(ValueError, match="kmax"):
                list(hypergeometric_term_pairs([-2], [Fraction(1, 2)], kmax))


class TestPfqTerminating:
    def test_two_f_one_minus_one_minus_one(self):
        # 2F1(-1,-1;-2;1): the k=1 term is (-1)(-1)/((1)(-2)) = -1/2,
        # so the two-term sum is 1/2
        v = pfq_terminating([Fraction(-1), Fraction(-1)], [Fraction(-2)], Fraction(1), 10)
        assert v == Fraction(1, 2)

    def test_zero_numerator_parameter(self):
        v = pfq_terminating(
            [Fraction(0), Fraction(3), Fraction(-5), Fraction(7)],
            [Fraction(1, 3), Fraction(2), Fraction(9)],
            Fraction(1),
            10,
        )
        assert v == 1

    def test_krawtchouk_factor(self):
        # 2F1(-i,-x;-l;1) at (i,x,l)=(1,1,2); same series as above
        v = pfq_terminating([Fraction(-1), Fraction(-1)], [Fraction(-2)], Fraction(1), 1)
        assert v == Fraction(1, 2)

    def test_kmax_truncates(self):
        # 1F0(1;;1) truncated after k=2: 1 + 1 + 1
        v = pfq_terminating([Fraction(1)], [], Fraction(1), 2)
        assert v == 3

    def test_denominator_zero_raises(self):
        with pytest.raises(ZeroDenominatorPochhammer) as exc:
            pfq_terminating([Fraction(-5)], [Fraction(-2)], Fraction(1), 5)
        assert exc.value.k == 3

    def test_numerator_terminates_before_denominator_vanishes(self):
        # numerator dies at k=2, denominator would die at k=3
        v = pfq_terminating([Fraction(-1)], [Fraction(-2)], Fraction(1), 5)
        assert v == Fraction(3, 2)

    def test_agrees_with_brute_force(self):
        nums = [Fraction(-3), Fraction(1, 2), Fraction(5, 3)]
        dens = [Fraction(7, 2), Fraction(-9)]
        z = Fraction(2, 5)
        expect = Fraction(0)
        for k in range(4):
            term = Fraction(1)
            for a in nums:
                term *= pochhammer(a, k)
            den = pochhammer(Fraction(1), k)
            for b in dens:
                den *= pochhammer(b, k)
            expect += term / den * z**k
        assert pfq_terminating(nums, dens, z, 10) == expect

    @given(
        st.lists(_small_fractions, max_size=3),
        st.lists(_small_fractions, max_size=3),
        st.integers(min_value=0, max_value=5),
    )
    @example([Fraction(-1), Fraction(2)], [Fraction(3)], 4)  # numerator stops
    @example([Fraction(2)], [Fraction(-1)], 4)  # denominator vanishes at k = 2
    @settings(max_examples=60, deadline=None)
    def test_terms_match_pochhammer_definition(self, nums, dens, kmax):
        expect = []
        raised_at = None
        for k in range(kmax + 1):
            num = Fraction(1)
            for a in nums:
                num *= pochhammer(a, k)
            if num == 0:
                break
            den = pochhammer(Fraction(1), k)
            for b in dens:
                den *= pochhammer(b, k)
            if den == 0:
                raised_at = k
                break
            expect.append((k, num / den))
        if raised_at is None:
            terms = hypergeometric_term_pairs(nums, dens, kmax)
            assert [(k, pair_value(u, v)) for k, u, v in terms] == expect
        else:
            with pytest.raises(ZeroDenominatorPochhammer) as exc:
                list(hypergeometric_term_pairs(nums, dens, kmax))
            assert exc.value.k == raised_at

    @given(
        st.integers(min_value=0, max_value=4),
        st.fractions(min_value=0, max_value=3, max_denominator=7),
        st.fractions(min_value=-2, max_value=2, max_denominator=7),
    )
    @settings(max_examples=40, deadline=None)
    def test_limit_commutes(self, m, b_shift, z):
        # evaluating over Q(t) and sending t -> 0 matches evaluating over Q
        # at the limit parameters, whenever no pole occurs
        t = variable_t()
        b = b_shift + Fraction(1, 9)  # strictly positive, so (b)_k never vanishes
        over_qt = pfq_terminating([-m + t, Fraction(1, 3)], [b + t], z, 6)
        at_limit = pfq_terminating([Fraction(-m), Fraction(1, 3)], [b], z, 6)
        got = limit_at_zero(over_qt) if isinstance(over_qt, RationalFunction) else over_qt
        assert got == at_limit


class TestOverCommonDenominator:
    def test_over_q_unreduced_int_numerators_over_the_lcm(self):
        nums, den = over_common_denominator([1, 2, -3], [4, 6, 9])
        assert den == 36
        assert nums == [9, 12, -12]
        assert all(type(u) is int for u in nums)
        # 12/36 is left unreduced; the values are unchanged
        assert [Fraction(u, den) for u in nums] == [Fraction(1, 4), Fraction(1, 3), Fraction(-1, 3)]

    def test_rational_function_numerator_stays_a_field_element(self):
        t = variable_t()
        nums, den = over_common_denominator([t + 1, 5], [1, 2])
        assert den == 2
        assert nums == [2 * t + 2, 5]
        assert isinstance(nums[0], RationalFunction) and type(nums[1]) is int

    def test_field_denominator_divides_out_over_one(self):
        t = variable_t()
        nums, den = over_common_denominator([3, t], [t, 2])
        assert den == 1
        assert nums == [3 / t, t / 2]
        # a Fraction denominator is a field element too, wherever it stands
        for dens in ([Fraction(1), 2], [2, Fraction(1)], [2, 4, t]):
            nums, den = over_common_denominator([3, 5, 7][: len(dens)], dens)
            assert den == 1
            expected = [pair_value(u, d) for u, d in zip([3, 5, 7], dens)]
            assert [(type(u), u) for u in nums] == [(type(u), u) for u in expected]

    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(1, 60)), max_size=12))
    def test_the_lcm_is_taken_only_where_a_denominator_does_not_divide(self, pairs):
        # the divisibility test first gives math.lcm's denominator and numerators
        nums, dens = [u for u, _ in pairs], [v for _, v in pairs]
        got, den = over_common_denominator(nums, dens)
        assert den == math.lcm(*dens)
        assert got == [u * (den // v) for u, v in pairs]
        assert all(type(u) is int for u in got)

    def test_rational_function_pair_protocol(self):
        f = variable_t() + Fraction(1, 2)
        assert (f.numerator, f.denominator) == (f, 1)
        assert pair_value(f.numerator, f.denominator) is f


class TestLimitAtZero:
    def test_reduces_to_constant(self):
        t = variable_t()
        f = (3 * t + 6) / (t + 2)
        assert limit_at_zero(f) == 3

    def test_t_over_t(self):
        t = variable_t()
        assert limit_at_zero(t / t) == 1

    def test_pole(self):
        t = variable_t()
        with pytest.raises(PoleAtZero):
            limit_at_zero(1 / t)

    def test_plain_rational_passthrough(self):
        assert limit_at_zero(Fraction(5, 7)) == Fraction(5, 7)


# t and 1/t as Laurent series
_T, _INV_T = LaurentSeries(1, 1), LaurentSeries(-1, 1)


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

# expression trees over the factors a + b*t, 1/t + c and constants
_expressions = st.recursive(
    st.one_of(
        st.tuples(st.just("lin"), _small_fractions, _small_fractions),
        st.tuples(st.just("inv"), _small_fractions),
        st.tuples(st.just("const"), _small_fractions),
    ),
    lambda sub: st.tuples(st.sampled_from(sorted(_OPS)), sub, sub),
    max_leaves=8,
)


def _evaluate(expr, t, inv_t):
    kind = expr[0]
    if kind == "lin":
        return expr[1] + expr[2] * t
    if kind == "inv":
        return inv_t + expr[1]
    if kind == "const":
        return expr[1]
    return _OPS[kind](_evaluate(expr[1], t, inv_t), _evaluate(expr[2], t, inv_t))


def _outcome(f):
    try:
        return limit_at_zero(f)
    except PoleAtZero:
        return PoleAtZero


def _leading_term(v):
    # (valuation, leading coefficient) at t = 0 of a known nonzero value,
    # None for a zero or for O(t^k)
    if isinstance(v, LaurentSeries):
        return (v.val, Fraction(v.num, v.den)) if v.num else None
    if isinstance(v, RationalFunction):
        if not v:
            return None
        vn, vd = (next(k for k, c in enumerate(p) if c) for p in (v.num, v.den))
        return vn - vd, Fraction(v.num[vn], v.den[vd])
    return (0, Fraction(v)) if v else None


def _series_and_exact(expr):
    # the expression in series and over Q(t); hypothesis drops it where either
    # divides by a zero or the series leaves its value unknown
    try:
        return _evaluate(expr, _T, _INV_T), _evaluate(expr, variable_t(), 1 / variable_t())
    except (PrecisionExhausted, ZeroDivisionError):
        assume(False)


class TestLaurentSeries:
    @given(_expressions)
    @settings(max_examples=150, deadline=None)
    def test_limit_matches_the_reduced_rational_function(self, expr):
        series, exact = _series_and_exact(expr)
        try:
            got = _outcome(series)
        except PrecisionExhausted:
            assume(False)
        assert got == _outcome(exact)

    @given(_expressions)
    @settings(max_examples=150, deadline=None)
    # 2t (3 + t): the constant 3 cuts the t of 3 + t, and the product keeps
    # the leading term 6t of positive valuation
    @example(("*", ("lin", Fraction(0), Fraction(2)), ("lin", Fraction(3), Fraction(1))))
    def test_precision_one_keeps_the_leading_term(self, expr):
        # where the series knows a term, it is the leading term of the
        # reduced rational function; a wrong leading term of positive
        # valuation would leave the limit unchanged
        series, exact = _series_and_exact(expr)
        lead = _leading_term(series)
        assume(lead is not None)
        assert lead == _leading_term(exact)

    def test_cancellation_exhausts_precision_one_only(self):
        # the cancellation of 1/t loses exactly the constant below it: the
        # product is O(1/t), while the reduced rational function has a pole
        f = ((_INV_T + 1) - _INV_T) * _INV_T
        assert (f.val, f.num) == (-1, 0)
        with pytest.raises(PrecisionExhausted):
            limit_at_zero(f)
        with pytest.raises(PoleAtZero):
            limit_at_zero(((1 / variable_t() + 1) - 1 / variable_t()) / variable_t())

    def test_a_known_zero_limit_after_two_cancellations(self):
        # the reduced rational function is 0; the series never guesses it
        with pytest.raises(PrecisionExhausted):
            limit_at_zero((((_INV_T + 1) - _INV_T) - 1) * _INV_T)
        inv_t = 1 / variable_t()
        assert limit_at_zero((((inv_t + 1) - inv_t) - 1) * inv_t) == 0

    def test_only_a_known_nonzero_is_decided(self):
        assert _INV_T != 0 and bool(_INV_T)
        with pytest.raises(PrecisionExhausted):
            _ = _INV_T - _INV_T == 0
        with pytest.raises(PrecisionExhausted):
            _ = 1 / (_INV_T - _INV_T)
        with pytest.raises(TypeError):
            _ = _INV_T == 1
        assert _INV_T * 0 == 0 and type(_INV_T * 0) is Fraction

    def test_pochhammer_and_pair_protocol(self):
        # (1/t + 1/2)_3 = t^-3 + O(t^-2): the constant lies beyond the precision
        got = pochhammer(_INV_T + Fraction(1, 2), 3)
        assert (got.val, Fraction(got.num, got.den)) == (-3, 1)
        # (1/2 + t)_3 = (1/2)(3/2)(5/2) + O(t)
        s = _T + Fraction(1, 2)
        assert limit_at_zero(pochhammer(s, 3)) == Fraction(15, 8)
        assert (s.numerator, s.denominator) == (s, 1)


class TestRationalFunctionField:
    def test_canonical_equality(self):
        t = variable_t()
        assert (t * t - 1) / (t - 1) == t + 1

    def test_equality_with_rational(self):
        t = variable_t()
        f = (2 * t + 3) / (4 * t + 6)
        assert f == Fraction(1, 2)
        assert hash(f) == hash(Fraction(1, 2))

    def test_zero_denominator_rejected(self):
        t = variable_t()
        with pytest.raises(ZeroDivisionError):
            _ = (t + 1) / (t - t)

    def test_pow(self):
        t = variable_t()
        assert (t + 1) ** 3 == t**3 + 3 * t**2 + 3 * t + 1
        assert (t + 1) ** 0 == 1
        assert t ** (-2) == 1 / (t * t)

    def test_str_round_trip_is_readable(self):
        t = variable_t()
        assert str((3 * t + 6) / (t + 2)) == "3"
        assert str(1 / t) == "(1)/(t)"

    @given(_rf_values(), _rf_values(), _rf_values())
    @settings(max_examples=50, deadline=None)
    def test_ring_axioms(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + g == g + f
        assert f * g == g * f

    @given(_rf_values())
    @settings(max_examples=50, deadline=None)
    def test_field_inverse(self, f):
        if f != 0:
            assert f * (1 / f) == 1


# A rational function as the coefficient lists (ascending) of a numerator
# and a nonzero denominator, built with a random common factor so that
# reduction has work to do; the lists are the oracle's own copy of it.
_coeff_lists = st.lists(_small_fractions, min_size=1, max_size=3)


def _convolve(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for ka, va in enumerate(a):
        for kb, vb in enumerate(b):
            out[ka + kb] += va * vb
    return out


def _at(coeffs, z):
    return sum(Fraction(c) * z**k for k, c in enumerate(coeffs))


@st.composite
def _rf_lists(draw):
    num, den, common = draw(_coeff_lists), draw(_coeff_lists), draw(_coeff_lists)
    if not any(den):
        den = den + [Fraction(1)]
    if not any(common):
        common = [Fraction(1)]
    return _convolve(num, common), _convolve(den, common)


def _gcd_degree_over_q(a, b):
    # Euclid over Q with Fraction coefficients: independent of the module
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while b:
        while len(a) >= len(b):
            c, d = a[-1] / b[-1], len(a) - len(b)
            for k, v in enumerate(b):
                a[d + k] -= c * v
            while a and a[-1] == 0:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _assert_canonical(f):
    num, den = f.num, f.den
    assert all(type(c) is int for c in num + den), f
    assert den and den[-1] > 0, f
    assert not num or num[-1] != 0, f
    if not num:
        assert den == (1,)
        return
    assert math.gcd(*num, *den) == 1, f
    assert _gcd_degree_over_q(num, den) == 0, f


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}

# (f, g, op, k, reflected): f and g as in _rf_lists, or g a plain rational
_cases = st.tuples(
    _rf_lists(),
    st.one_of(_rf_lists(), _small_fractions),
    st.sampled_from(["+", "-", "*", "/", "**", "neg"]),
    st.integers(min_value=-2, max_value=3),
    st.booleans(),
)


def _apply(op, k, reflected, a, b):
    # a op b (b op a when reflected), a ** k or -a, for either scalar type
    if op == "neg":
        return -a
    if op == "**":
        return a**k
    return _BINARY[op](*((b, a) if reflected else (a, b)))


def _result(case):
    """The case evaluated over Q(t); None where it divides by zero."""
    f, g, op, k, reflected = case
    a = RationalFunction(*f)
    b = RationalFunction(*g) if isinstance(g, tuple) else g
    if (op == "**" and k < 0 and a == 0) or (op == "/" and (a if reflected else b) == 0):
        return None
    return _apply(op, k, reflected, a, b)


class TestIntegerCore:
    """RationalFunction keeps int polynomials num/den, coprime over Q, with
    coefficient gcd 1 and a positive leading coefficient in den."""

    @given(_cases)
    # a product that needs its gcd, a quotient by a negative constant, and
    # sums whose gcd is not a power of t
    @example((([1], [1, 1]), ([1, 1], [1]), "*", 0, False))
    @example((([1], [0, 1]), ([0, 1], [2]), "*", 0, True))
    @example((([1], [1, 1]), Fraction(-2), "/", 0, False))
    @example((([-1, 0, 1], [-3, 3]), Fraction(-2, 3), "+", 0, False))
    @example((([2], [-1, 1]), ([0, 1], [-1, 0, 1]), "+", 0, False))
    @settings(max_examples=150, deadline=None)
    def test_results_are_canonical(self, case):
        got = _result(case)
        if got is not None:
            assert isinstance(got, RationalFunction)
            _assert_canonical(got)

    @given(_cases, st.lists(_small_fractions, min_size=3, max_size=3, unique=True))
    @settings(max_examples=150, deadline=None)
    def test_values_match_fraction_arithmetic(self, case, points):
        # the same expression in Fraction arithmetic, at the points where no
        # input has a pole and nothing divides by zero: independent of the gcd
        got = _result(case)
        if got is None:
            return
        (fn, fd), g, op, k, reflected = case
        for z in points:
            if _at(fd, z) == 0 or (isinstance(g, tuple) and _at(g[1], z) == 0):
                continue
            gz = _at(g[0], z) / _at(g[1], z) if isinstance(g, tuple) else g
            try:
                expect = _apply(op, k, reflected, _at(fn, z) / _at(fd, z), gz)
            except ZeroDivisionError:
                continue
            assert _at(got.den, z) != 0
            assert _at(got.num, z) / _at(got.den, z) == expect

    @given(_small_fractions)
    @settings(max_examples=40, deadline=None)
    def test_constant_equals_and_hashes_like_its_fraction(self, c):
        t = variable_t()
        for f in (RationalFunction(c), RationalFunction([2 * c, 3 * c], [2, 3]), c * t / t):
            assert f.is_constant()
            assert f == c and c == f
            assert hash(f) == hash(c)
            assert {c: "found"}[f] == "found"
            assert type(f.constant_value()) is Fraction and f.constant_value() == c
            _assert_canonical(f)

    def test_half_finds_its_fraction_key(self):
        assert {Fraction(1, 2): "half"}[RationalFunction(Fraction(1, 2))] == "half"

    # printed in the monic-denominator form of earlier releases
    @pytest.mark.parametrize(
        "build, text, rep",
        [
            (lambda t: t / 2, "1/2*t", "RationalFunction('1/2*t', '1')"),
            (lambda t: (2 * t + 3) / (4 * t + 6), "1/2", "RationalFunction('1/2', '1')"),
            (lambda t: 1 / t, "(1)/(t)", "RationalFunction('1', 't')"),
            (
                lambda t: (2 * t + 1) / (3 * t - 6),
                "(2/3*t+1/3)/(t-2)",
                "RationalFunction('2/3*t+1/3', 't-2')",
            ),
            (
                lambda t: (Fraction(1, 2) * t + Fraction(1, 3)) / (Fraction(5, 7) * t * t - 4),
                "(7/10*t+7/15)/(t^2-28/5)",
                "RationalFunction('7/10*t+7/15', 't^2-28/5')",
            ),
            (
                lambda t: (-3 * t**3 + Fraction(2, 9)) / (-Fraction(4, 5) * t + Fraction(7, 3)),
                "(15/4*t^3-5/18)/(t-35/12)",
                "RationalFunction('15/4*t^3-5/18', 't-35/12')",
            ),
            (
                lambda t: pochhammer(t / 3 - Fraction(1, 2), 3),
                "1/27*t^3+1/6*t^2-1/12*t-3/8",
                "RationalFunction('1/27*t^3+1/6*t^2-1/12*t-3/8', '1')",
            ),
            (
                lambda t: RationalFunction((Fraction(1), Fraction(-2, 3)), (0, 6, Fraction(9, 4))),
                "(-8/27*t+4/9)/(t^2+8/3*t)",
                "RationalFunction('-8/27*t+4/9', 't^2+8/3*t')",
            ),
            (lambda t: RationalFunction(Fraction(-7, 3)), "-7/3", "RationalFunction('-7/3', '1')"),
            (lambda t: RationalFunction(0), "0", "RationalFunction('0', '1')"),
            (
                lambda t: (t + 1) ** -3,
                "(1)/(t^3+3*t^2+3*t+1)",
                "RationalFunction('1', 't^3+3*t^2+3*t+1')",
            ),
        ],
    )
    def test_str_and_repr_are_unchanged(self, build, text, rep):
        f = build(variable_t())
        assert (str(f), repr(f)) == (text, rep)


class TestSerialization:
    def test_parse(self):
        assert rational("3/4") == Fraction(3, 4)
        assert rational("-2") == -2
        assert rational(" 7/2 ") == Fraction(7, 2)

    def test_parse_rejects_floats(self):
        with pytest.raises(ValueError):
            rational("0.5")
        with pytest.raises(ValueError):
            rational("1e3")

    def test_format(self):
        assert format_scalar(Fraction(-3, 7)) == "-3/7"
        assert format_scalar(Fraction(4)) == "4"
        assert rational(format_scalar(Fraction(22, 7))) == Fraction(22, 7)

    def test_as_integer(self):
        t = variable_t()
        assert as_integer(Fraction(6, 2)) == 3
        assert as_integer(Fraction(1, 2)) is None
        assert as_integer((t * 2 + 4) / (t + 2)) == 2
        assert as_integer(t) is None

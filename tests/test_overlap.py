"""Overlap function routes, closed forms, and degenerate kinds."""

import itertools
import json
import math
import os
import random
import sys
from collections import namedtuple
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import comb, prod
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tdpair.exactfield import (
    LaurentSeries,
    RationalFunction,
    ZeroDenominatorPochhammer,
    _inv_poch,
    _pair,
    binomial,
    hypergeometric_term_pairs,
    limit_at_zero,
    pair_value,
    pochhammer,
    variable_t,
)
from tdpair.multiindex import IndexOutOfRange, Shape, enumerate_box, partial_sum
from tdpair import cob, overlap, tdcore
from tdpair.cob import coefficient_matrix
from tdpair.tdcore import (
    InvalidParameters,
    TDParameters,
    factored_scaled,
    factored_values,
    substituted_for_involution,
)
from tdpair.verify import random_valid_parameters, run_suite
from tdpair.overlap import (
    overlap_T,
    overlap_U,
    overlap_limit_kind,
    overlap_table,
    univariate_t_racah,
    univariate_u_balanced,
    univariate_u_racah_normalized,
)
from matrix_ops import identity, transpose
from operator_oracle import shapes_to_18
from overlap_oracle import (
    oracle_hahn,
    oracle_krawtchouk,
    oracle_racah_side,
    oracle_t_racah,
    oracle_u_balanced,
    oracle_u_normalized,
)

F = Fraction
GOLDEN = Path(__file__).parent / "golden"

T_METHODS = ("direct_sum", "matrix_product", "shift_operator")
U_METHODS = ("direct_sum", "shift_operator", "linear_solve")


def _params_1d():
    return TDParameters(Shape((1,)), 0, 0, 1, 1, 0, 0, (1,))


def _params_2d():
    return TDParameters(
        Shape((1, 1)), F(1, 2), F(-1, 3), 2, 3, F(1, 3), F(1, 5), (F(1, 7), F(3, 11))
    )


def _params_21():
    return TDParameters(Shape((2, 1)), 0, 0, 1, 1, F(1, 3), F(1, 5), (F(1, 7), F(3, 11)))


def _params_111():
    return TDParameters(
        Shape((1, 1, 1)), 0, 1, -1, 3, F(2, 7), F(1, 5), (F(1, 7), F(3, 11), F(5, 13))
    )


def _params_univariate(ell=3):
    return TDParameters(Shape((ell,)), 0, 0, 1, 1, F(1, 3), F(1, 5), (F(1, 7),))


_factor_values = st.one_of(
    st.integers(min_value=-4, max_value=4).map(F),
    st.fractions(min_value=-4, max_value=4, max_denominator=5),
    st.fractions(min_value=-2, max_value=2, max_denominator=3).map(lambda c: c + variable_t()),
)


# a Racah factor binom(ell, i) (b1)_i (b2)_x 4F3(-i, -x, a1, a2; b1, b2, -ell; Z)
_Factor = namedtuple("_Factor", "i x a1 a2 b1 b2 ell")


@st.composite
def _racah_specs(draw):
    ell = draw(st.integers(min_value=0, max_value=4))
    degree = st.integers(min_value=0, max_value=ell)
    return _Factor(
        i=draw(degree),
        x=draw(degree),
        a1=draw(_factor_values),
        a2=draw(_factor_values),
        b1=draw(_factor_values),
        b2=draw(_factor_values),
        ell=ell,
    )


# ---------------------------------------------------------------------------
# oracle: the direct nested sums term by term, one Pochhammer symbol and one
# field operation at a time, as they read in the construction; the table
# kernels of tdpair.overlap must reproduce them value for value and type for
# type


def _oracle_t(params, i, x):
    ell, N, om, oms = params.ell, params.N, params.omega, params.omega_star
    a = params.a
    wi, wx = sum(i), sum(x)
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


def _oracle_u(params, i, x):
    ell, N, om, oms = params.ell, params.N, params.omega, params.omega_star
    a = params.a
    wi, wx = sum(i), sum(x)
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


_ORACLES = {"T": (_oracle_t, overlap_T), "U": (_oracle_u, overlap_U)}


def _swapped(params):
    # both halves of the involution substitution, each read off params: the
    # plain and starred spectra trade places, and T at the result is U at
    # params read through n -> ell - n
    lo = substituted_for_involution(params, starred=True)
    hi = substituted_for_involution(params, starred=False)
    return replace(lo, theta0_star=hi.theta0_star, h_star=hi.h_star, omega_star=hi.omega_star)


def _flip(ell):
    return lambda n: tuple(lp - v for lp, v in zip(ell, n))


def _limit_side(ell):
    # the starred side the limits check evaluates: h* -> h* t, omega* -> 1/t
    p = random_valid_parameters(Shape(ell), 1)
    inv_t = RationalFunction((F(1),), (F(0), F(1)))
    return replace(p, h_star=p.h_star * variable_t(), omega_star=inv_t)


def _outcome(fn, *args):
    """The value with its type, or the raised zero denominator's k and detail."""
    try:
        v = fn(*args)
    except ZeroDenominatorPochhammer as err:
        return ("raised", err.k, err.detail)
    return ("value", type(v).__name__, v)


def _assert_table_is(m, expect):
    # every nonzero value with its type, and no zero entry stored
    assert all(v != 0 for v in m.entries.values())
    got = {k: (type(v).__name__, v) for k, v in m.entries.items()}
    assert got == {k: (type(v).__name__, v) for k, v in expect.items() if v != 0}


def _assert_direct_raises_as_the_oracle(p, which):
    """Every direct_sum outcome, pointwise and as a table, equals the
    oracle's, a value or the raised k and detail; returns the outcomes in
    the order the table kernel meets them: i outer for T, x outer for U.
    U_i(x) is T(q)_{ell-x}(ell-i) at the swapped parameters q: it raises
    exactly where that T oracle raises and equals the U oracle elsewhere."""
    oracle, pointwise = _ORACLES[which]
    basis = enumerate_box(p.shape)
    if which == "T":
        pairs = [(i, x) for i in basis for x in basis]
        expect = [_outcome(oracle, p, i, x) for i, x in pairs]
    else:
        q, flip = _swapped(p), _flip(p.ell)
        pairs = [(i, x) for x in basis for i in basis]
        expect = []
        for i, x in pairs:
            mirrored = _outcome(_oracle_t, q, flip(x), flip(i))
            expect.append(mirrored if mirrored[0] == "raised" else _outcome(oracle, p, i, x))
    assert any(o[0] == "raised" for o in expect)
    got = [_outcome(pointwise, p, i, x, "direct_sum") for i, x in pairs]
    assert got == expect
    first = next(o for o in expect if o[0] == "raised")
    assert _outcome(overlap_table, p, which, "direct_sum") == first
    return expect


def _first_vanishing(params, i, x):
    """(q, k) of the first vanishing denominator (b + mu_q)_k of T_i(x)'s
    direct sum in the oracle's order (terms n in order, then q, C's before
    R's), or None: mu_q = |j| + |n| + |j|_1^{q-1} - |n|_1^{q-1}, k = j_q -
    n_q, with (j, b) = (x, omega) or (i, omega*)."""
    for n in product(*(range(min(a, b) + 1) for a, b in zip(i, x))):
        for q in range(params.N):
            for j, b in ((x, params.omega), (i, params.omega_star)):
                mu = sum(j) + sum(n) + sum(j[:q]) - sum(n[:q])
                if pochhammer(b + mu, j[q] - n[q]) == 0:
                    return q, j[q] - n[q]
    return None


@st.composite
def _small_shapes(draw):
    n_coords = draw(st.integers(min_value=1, max_value=3))
    ell = draw(st.lists(st.integers(min_value=1, max_value=8), min_size=n_coords, max_size=n_coords))
    assume(prod(v + 1 for v in ell) <= 18)
    return Shape(tuple(ell))


class TestTableKernels:
    @given(_small_shapes(), st.integers(min_value=0, max_value=10**6))
    @example(Shape((2, 2, 1)), 1)
    @settings(max_examples=15, deadline=None)
    def test_kernels_match_the_oracle(self, shape, seed):
        # every route, the matrix ones included, as a table and entry by entry
        p = random_valid_parameters(shape, seed)
        basis = enumerate_box(shape)
        for which, (oracle, pointwise) in _ORACLES.items():
            expect = {
                (r, c): oracle(p, i, x) for r, i in enumerate(basis) for c, x in enumerate(basis)
            }
            for method in T_METHODS if which == "T" else U_METHODS:
                _assert_table_is(overlap_table(p, which, method), expect)
                for (r, c), v in expect.items():
                    got = pointwise(p, basis[r], basis[c], method)
                    assert (type(got), got) == (type(v), v), (which, method, r, c)

    @pytest.mark.parametrize("ell", [(5,), (2, 1), (1, 2), (2, 2)])
    def test_direct_sum_over_qt_at_the_limit_parameters(self, ell):
        hahn_side = _limit_side(ell)
        basis = enumerate_box(hahn_side.shape)
        expect = {
            (r, c): _oracle_t(hahn_side, i, x)
            for r, i in enumerate(basis)
            for c, x in enumerate(basis)
        }
        assert any(isinstance(v, RationalFunction) for v in expect.values())
        _assert_table_is(overlap_table(hahn_side, "T", "direct_sum"), expect)
        for (r, c), v in expect.items():
            got = overlap_T(hahn_side, basis[r], basis[c], "direct_sum")
            assert (type(got), got) == (type(v), v)

    @pytest.mark.parametrize("which", ["T", "U"])
    @pytest.mark.parametrize("omegas", [(-1, F(1, 3)), (F(1, 3), -1), (-2, -3)])
    def test_zero_denominator_raises_as_the_oracle(self, monkeypatch, which, omegas):
        # omega or omega* in the cond1 band makes a direct denominator vanish;
        # validation is switched off to reach it
        monkeypatch.setattr(overlap, "_ensure_valid", lambda params: None)
        p = TDParameters(Shape((2, 1)), 0, 0, 1, 1, *omegas, (F(1, 7), F(3, 11)))
        _assert_direct_raises_as_the_oracle(p, which)

    @pytest.mark.parametrize("which", ["T", "U"])
    @pytest.mark.parametrize("omegas", [(-2, F(1, 3)), (F(1, 3), -2), (-1, -2)])
    def test_zero_denominator_past_the_first_coordinate(self, monkeypatch, which, omegas):
        # at three coordinates the vanishing factor of a telescoped
        # denominator lies at q >= 1 for some entries, of T's own table or of
        # the T table at the swapped parameters that U mirrors
        monkeypatch.setattr(overlap, "_ensure_valid", lambda params: None)
        p = TDParameters(Shape((1, 2, 1)), 0, 0, 1, 1, *omegas, (F(1, 7), F(3, 11), F(2, 13)))
        expect = _assert_direct_raises_as_the_oracle(p, which)
        basis = enumerate_box(p.shape)
        if which == "T":
            at = [_first_vanishing(p, i, x) for i in basis for x in basis]
        else:
            q, flip = _swapped(p), _flip(p.ell)
            at = [_first_vanishing(q, flip(x), flip(i)) for x in basis for i in basis]
        # the walk in the oracle's order finds the oracle's k, and some q >= 1
        assert [o[:2] if o[0] == "raised" else None for o in expect] == [
            ("raised", v[1]) if v else None for v in at
        ]
        assert any(v and v[0] >= 1 for v in at)

    @pytest.mark.parametrize("which", ["T", "U"])
    @pytest.mark.parametrize("omegas", [(-1, F(1, 3)), (F(1, 3), -1), (-2, -3), (F(-1, 2), F(-3, 2))])
    def test_shift_zero_denominator_matches_the_record(self, monkeypatch, which, omegas):
        # the shift route at the parameters above, validation off: the golden
        # file holds every entry's outcome, in the order the table kernel
        # meets them, as a value with its type or the raised k and detail
        monkeypatch.setattr(overlap, "_ensure_valid", lambda params: None)
        p = TDParameters(Shape((2, 1)), 0, 0, 1, 1, *omegas, (F(1, 7), F(3, 11)))
        golden = json.loads((GOLDEN / "shift_zero_denominator_2x1.json").read_text())
        record = golden[",".join(map(str, omegas))][which]
        pointwise = _ORACLES[which][1]
        basis = [tuple(n) for n in enumerate_box(p.shape)]
        expect, got, values = [], [], {}
        for i, x, *outcome in record:
            i, x = tuple(map(int, i)), tuple(map(int, x))
            kind, *rest = _outcome(pointwise, p, i, x, "shift_operator")
            if kind == "value":
                values[(basis.index(i), basis.index(x))] = rest[1]
                rest[1] = str(rest[1])
            expect.append(tuple(outcome))
            got.append((kind, *rest))
        assert got == expect
        raised = [o for o in expect if o[0] == "raised"]
        table = _outcome(overlap_table, p, which, "shift_operator")
        if raised:
            assert table == raised[0]
        else:
            _assert_table_is(table[2], values)

    @pytest.mark.parametrize("which", ["T", "U"])
    @pytest.mark.parametrize("ell", [(5,), (2, 1), (1, 2), (2, 2)])
    def test_shift_operator_over_qt_at_the_limit_parameters(self, which, ell):
        hahn_side = _limit_side(ell)
        oracle = _ORACLES[which][0]
        basis = enumerate_box(hahn_side.shape)
        expect = {
            (r, c): oracle(hahn_side, i, x)
            for r, i in enumerate(basis)
            for c, x in enumerate(basis)
        }
        assert any(isinstance(v, RationalFunction) for v in expect.values())
        _assert_table_is(overlap_table(hahn_side, which, "shift_operator"), expect)


@st.composite
def _index_and_below(draw):
    # an index i of up to four coordinates and an n <= i
    i = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4))
    return tuple(i), tuple(draw(st.integers(min_value=0, max_value=v)) for v in i)


class TestTelescopedDenominator:
    """The identity the direct-sum kernel rests on, with no kernel call:
    with k_q = i_q - n_q and mu_q = |i| + |n| + |i|_1^{q-1} - |n|_1^{q-1},
    mu_{q+1} = mu_q + k_q, so prod_q (b + mu_q)_{k_q} = (b + |i| +
    |n|)_{|i| - |n|}, and where that vanishes exactly one q holds the
    vanishing factor."""

    @given(
        _index_and_below(),
        st.one_of(
            st.integers(min_value=-16, max_value=4),
            st.fractions(min_value=-16, max_value=4, max_denominator=7),
        ),
    )
    @example(((0, 1, 2), (0, 0, 0)), -4)
    @example(((2, 1, 1, 3), (1, 0, 1, 2)), -13)
    @settings(max_examples=300, deadline=None)
    def test_the_denominators_telescope(self, index, b):
        i, n = index
        k = [iq - nq for iq, nq in zip(i, n)]
        mu = [sum(i) + sum(n) + sum(i[:q]) - sum(n[:q]) for q in range(len(i))]
        factors = [pochhammer(b + m, kq) for m, kq in zip(mu, k)]
        whole = pochhammer(b + sum(i) + sum(n), sum(i) - sum(n))
        assert prod(factors, start=F(1)) == whole
        assert sum(f == 0 for f in factors) == (whole == 0)


class TestMirrorIdentity:
    @pytest.mark.parametrize("ell", [(3,), (3, 2), (2, 2, 1), (2, 1, 1, 1)])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_u_is_the_mirrored_t_at_the_swapped_parameters(self, ell, seed):
        # U(p)_i(x) = T(q)_{ell-x}(ell-i): U by back-substitution reads D and
        # C at p, T by the matrix product reads Cbar and D at q; in graded
        # order n -> ell - n reverses the positions
        p = random_valid_parameters(Shape(ell), seed)
        mu = overlap_table(p, "U", "linear_solve")
        mt = overlap_table(_swapped(p), "T", "matrix_product")
        last = mu.dimension - 1
        mirrored = {(last - c, last - r): v for (r, c), v in mt.entries.items()}
        assert len(mu.entries) > mu.dimension
        _assert_table_is(mu, mirrored)


class TestFrozenTables:
    """The hand-checkable ell = (1) instance."""

    def test_t_values_every_method(self):
        p = _params_1d()
        expected = {((0,), (0,)): 1, ((0,), (1,)): 3, ((1,), (0,)): 1, ((1,), (1,)): 4}
        for (i, x), v in expected.items():
            for m in T_METHODS:
                assert overlap_T(p, i, x, m) == v

    def test_u_values_every_method(self):
        p = _params_1d()
        expected = {((0,), (0,)): 4, ((0,), (1,)): -1, ((1,), (0,)): -3, ((1,), (1,)): 1}
        for (i, x), v in expected.items():
            for m in U_METHODS:
                assert overlap_U(p, i, x, m) == v

    def test_biorthogonality_cross_term(self):
        p = _params_1d()
        total = sum(
            overlap_T(p, (0,), (x,), "direct_sum") * overlap_U(p, (1,), (x,), "direct_sum")
            for x in range(2)
        )
        assert total == 0

    def test_origin_is_one(self):
        # only the n = 0 term contributes and every Pochhammer is empty
        for p in (_params_1d(), _params_2d(), _params_21()):
            z = tuple(0 for _ in range(p.N))
            assert overlap_T(p, z, z, "direct_sum") == 1


class TestMethodAgreement:
    @pytest.mark.parametrize("params", [_params_2d(), _params_21(), _params_111()])
    def test_t_routes_coincide(self, params):
        idx = enumerate_box(params.shape)
        for i in idx:
            for x in idx:
                ref = overlap_T(params, i, x, "direct_sum")
                assert overlap_T(params, i, x, "matrix_product") == ref
                assert overlap_T(params, i, x, "shift_operator") == ref

    @pytest.mark.parametrize("params", [_params_2d(), _params_21(), _params_111()])
    def test_u_routes_coincide(self, params):
        idx = enumerate_box(params.shape)
        for i in idx:
            for x in idx:
                ref = overlap_U(params, i, x, "direct_sum")
                assert overlap_U(params, i, x, "shift_operator") == ref
                assert overlap_U(params, i, x, "linear_solve") == ref

    def test_table_matches_pointwise(self):
        p = _params_21()
        basis = enumerate_box(p.shape)
        for method in T_METHODS:
            m = overlap_table(p, "T", method)
            for r, i in enumerate(basis):
                for c, x in enumerate(basis):
                    assert m.item(r, c) == overlap_T(p, i, x, "direct_sum")


class TestBasisIdentities:
    @pytest.mark.parametrize("params", [_params_1d(), _params_2d(), _params_21()])
    def test_eigenvector_expansions(self, params):
        mc = coefficient_matrix(params, "C")
        md = coefficient_matrix(params, "D")
        mt = overlap_table(params, "T", "matrix_product")
        mu = overlap_table(params, "U", "linear_solve")
        assert md == mc @ transpose(mt)
        assert mc == md @ mu

    @pytest.mark.parametrize("params", [_params_1d(), _params_2d(), _params_21()])
    def test_biorthogonality(self, params):
        mt = overlap_table(params, "T", "direct_sum")
        mu = overlap_table(params, "U", "direct_sum")
        I = identity(mt.basis)
        assert mt @ transpose(mu) == I


class TestUnivariateForms:
    def test_t_closed_form(self):
        p = _params_univariate()
        for i in range(4):
            for x in range(4):
                assert univariate_t_racah(p, (i,), (x,)) == overlap_T(p, (i,), (x,))

    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_u_closed_forms(self, ell):
        p = _params_univariate(ell)
        for i in range(ell + 1):
            for x in range(ell + 1):
                ref = overlap_U(p, (i,), (x,))
                assert univariate_u_balanced(p, (i,), (x,)) == ref
                assert univariate_u_racah_normalized(p, (i,), (x,)) == ref

    @pytest.mark.parametrize("ell", [1, 2, 5, 8, 12])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_t_form_matches_the_racah_factor(self, ell, seed):
        # the shift kernel on one entry against the Racah 4F3 at unit
        # argument summed term by term in the test, value and type, over Q
        # and at both Q(t) substitutions of the limits check
        p, t = random_valid_parameters(Shape((ell,)), seed), variable_t()
        sides = [p, replace(p, h_star=p.h_star * t, omega_star=1 / t), replace(p, h=p.h * t, omega=1 / t)]
        for q in sides:
            for i in range(ell + 1):
                for x in range(ell + 1):
                    want, got = oracle_t_racah(q, (i,), (x,)), univariate_t_racah(q, (i,), (x,))
                    assert (type(got), got) == (type(want), want), (q, i, x)

    @pytest.mark.parametrize("ell", [1, 2, 5, 8, 12])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_u_forms_match_the_closed_4f3s(self, ell, seed):
        # the U shift kernel and f(i) g(x) times the T shift kernel on one
        # entry against the two 4F3 closed forms evaluated pointwise, over Q
        # and at both Q(t) substitutions of the limits check; value
        # everywhere, and type but at (ell, 0) with omega* = 1/t, where the
        # normalized form's row factor is a constant rational function
        p, t = random_valid_parameters(Shape((ell,)), seed), variable_t()
        sides = [p, replace(p, h_star=p.h_star * t, omega_star=1 / t), replace(p, h=p.h * t, omega=1 / t)]
        for k, q in enumerate(sides):
            for i in range(ell + 1):
                for x in range(ell + 1):
                    for oracle, public in (
                        (oracle_u_balanced, univariate_u_balanced),
                        (oracle_u_normalized, univariate_u_racah_normalized),
                    ):
                        want, got = oracle(q, (i,), (x,)), public(q, (i,), (x,))
                        assert got == want, (q, i, x, public)
                        if (k, i, x, public) != (1, ell, 0, univariate_u_racah_normalized):
                            assert type(got) is type(want), (q, i, x, public)

    def test_multivariate_rejected(self):
        p = _params_2d()
        with pytest.raises(ValueError, match="single coordinate"):
            univariate_t_racah(p, (0, 0), (0, 0))
        with pytest.raises(ValueError, match="single coordinate"):
            univariate_u_balanced(p, (0, 0), (0, 0))
        with pytest.raises(ValueError, match="single coordinate"):
            univariate_u_racah_normalized(p, (0, 0), (0, 0))


class TestLimitKinds:
    def _inv_t(self):
        return RationalFunction((F(1),), (F(0), F(1)))

    @pytest.mark.parametrize(
        "ell,a",
        [((2,), (F(3, 2),)), ((1, 1), (F(1), F(3, 7)))],
    )
    def test_level_linear_starred_spectrum(self, ell, a):
        # dropping the quadratic term of theta* turns T into the Hahn kind
        p = TDParameters(Shape(ell), 0, 0, 1, 1, F(1, 3), F(1, 5), a)
        t = variable_t()
        pt = replace(p, h_star=p.h_star * t, omega_star=self._inv_t())
        for i in enumerate_box(p.shape):
            for x in enumerate_box(p.shape):
                lim = limit_at_zero(overlap_T(pt, i, x, "direct_sum"))
                assert lim == overlap_limit_kind(p, "hahn", i, x)

    @pytest.mark.parametrize(
        "ell,a",
        [((2,), (F(3, 2),)), ((1, 1), (F(1), F(3, 7)))],
    )
    def test_both_spectra_linear(self, ell, a):
        p = TDParameters(Shape(ell), 0, 0, 1, 1, F(1, 3), F(1, 5), a)
        t = variable_t()
        pt = replace(p, h=p.h * t, omega=self._inv_t())
        for i in enumerate_box(p.shape):
            for x in enumerate_box(p.shape):
                lim = limit_at_zero(overlap_limit_kind(pt, "hahn", i, x))
                assert lim == overlap_limit_kind(p, "krawtchouk", i, x)

    def test_krawtchouk_factor_at_zero_degree(self):
        # i_p = 0 makes the p-th factor exactly 1
        p = TDParameters(Shape((2, 2)), 0, 0, 1, 1, F(1, 3), F(1, 5), (F(1, 7), F(3, 11)))
        assert overlap_limit_kind(p, "krawtchouk", (0, 0), (2, 1)) == 1

    def test_krawtchouk_collapsed_form(self):
        # Chu-Vandermonde collapses each factor to (x_p - ell_p)_{i_p} / (1)_{i_p}
        p = TDParameters(Shape((3, 2)), 0, 0, 1, 1, F(1, 3), F(1, 5), (F(1, 7), F(3, 11)))
        for i in enumerate_box(p.shape):
            for x in enumerate_box(p.shape):
                closed = F(1)
                for q in range(p.N):
                    closed *= pochhammer(x[q] - p.ell[q], i[q]) / pochhammer(F(1), i[q])
                assert overlap_limit_kind(p, "krawtchouk", i, x) == closed

    def test_single_frozen_value(self):
        p = TDParameters(Shape((2,)), 0, 0, 1, 1, F(1, 3), F(1, 5), (F(3, 2),))
        assert overlap_limit_kind(p, "krawtchouk", (1,), (1,)) == -1

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            overlap_limit_kind(_params_2d(), "racah", (0, 0), (0, 0))


class TestRacahFactorSpec:
    """A Racah factor by its Pochhammer definition against the two sides
    `_racah_side` splits it into, as the shift product reads them: the
    i-side (b1)_i (-i)_k (a1)_k / ((b1)_k k! (-ell)_k) and the x-side (b2)_x
    (-x)_k (a2)_k / (b2)_k, each given its parameters as pairs (n, d)."""

    DETAIL = "Racah factor series"

    @classmethod
    def _sides(cls, spec):
        kmax = min(spec.i, spec.x)
        a1, a2, b1, b2 = (_pair(v) for v in (spec.a1, spec.a2, spec.b1, spec.b2))
        i_side = overlap._racah_side(spec.i, a1, b1, kmax, cls.DETAIL, spec.ell)
        return i_side, overlap._racah_side(spec.x, a2, b2, kmax, cls.DETAIL)

    def test_zero_numerator_ends_series(self):
        # a = 0 kills every term past k = 0, on either side
        for ell in (3, None):
            (pu, pv), terms, fault = overlap._racah_side(2, (0, 1), (1, 1), 2, self.DETAIL, ell)
            assert ((pu, pv), terms, fault) == ((2, 1), [(1, 1)], None)

    def test_zero_denominator_raises(self):
        # b = -1: (b)_k vanishes at k = 2, so the side keeps k = 0, 1 and
        # reports the error; the shift table raises it at an entry whose row
        # line has a k = 2 term (N = 1, b2 = ell + 1 + a + omega = -1)
        (pu, pv), terms, fault = overlap._racah_side(2, (5, 1), (-1, 1), 2, self.DETAIL)
        assert (pu, len(terms), fault.k, fault.detail) == (0, 2, 2, self.DETAIL)
        assert isinstance(fault, ZeroDenominatorPochhammer)
        p = TDParameters(Shape((2,)), 0, 0, 1, 1, F(1, 3), F(1, 5), (F(-13, 3),))
        with pytest.raises(ZeroDenominatorPochhammer) as exc:
            overlap._t_shift(p, enumerate_box(p.shape)[-1:], enumerate_box(p.shape)[-1:])
        assert (exc.value.k, exc.value.detail) == (2, self.DETAIL)

    @staticmethod
    def _by_definition(n, a, b, ell, kmax):
        # one side term by term from its Pochhammer symbols: the (k, value)
        # list, and the k at which a denominator vanishes or None
        expect = []
        for k in range(kmax + 1):
            num = pochhammer(-n, k) * pochhammer(a, k)
            if num == 0:
                return expect, None
            den = pochhammer(b, k)
            if ell is not None:
                den = den * pochhammer(F(1), k) * pochhammer(-ell, k)
            if den == 0:
                return expect, k
            expect.append((k, num / den))
        return expect, None

    @given(_racah_specs())
    @example(_Factor(i=3, x=3, a1=F(-1), a2=F(5), b1=F(1, 2), b2=F(2), ell=3))
    @example(_Factor(i=3, x=2, a1=F(5), a2=F(7), b1=F(1, 2), b2=F(-1), ell=3))
    @settings(max_examples=80, deadline=None)
    def test_series_matches_pochhammer_definition(self, spec):
        # each side's prefactor, terms and fault; the examples: a1 = -1 stops
        # the i-side after k = 1, b2 = -1 makes the x-side's denominator
        # vanish at k = 2
        kmax = min(spec.i, spec.x)
        sides = zip(self._sides(spec), ((spec.i, spec.a1, spec.b1, spec.ell), (spec.x, spec.a2, spec.b2, None)))
        for ((pu, pv), terms, fault), (n, a, b, ell) in sides:
            assert pair_value(pu, pv) == pochhammer(b, n)
            expect, raised_at = self._by_definition(n, a, b, ell, kmax)
            assert [(k, pair_value(u, v)) for k, (u, v) in enumerate(terms)] == expect
            assert (fault and (fault.k, fault.detail)) == (raised_at and (raised_at, self.DETAIL))

    @given(_racah_specs())
    @example(_Factor(i=2, x=1, a1=F(5), a2=F(7), b1=F(1, 2), b2=F(2, 3), ell=3))
    @example(_Factor(i=3, x=2, a1=F(5), a2=F(7), b1=F(1, 2), b2=F(-1), ell=3))
    @settings(max_examples=80, deadline=None)
    def test_pair_level_factor_matches_pochhammer_definition(self, spec):
        # the two sides composed as the shift product composes one factor:
        # prefactor binom(ell, i) times theirs, term k the product of theirs
        # while both have one, and the fault of a side that ends first; the
        # first example has i != x and b1 != b2 with denominators, so a
        # swapped b1/b2 or a lost d**k in the prefactor shows
        ((piu, piv), ti, fi), ((pxu, pxv), tx, fx) = self._sides(spec)
        prefactor = comb(spec.ell, spec.i) * pochhammer(spec.b1, spec.i) * pochhammer(spec.b2, spec.x)
        assert binomial(spec.ell, spec.i) * pair_value(piu * pxu, piv * pxv) == prefactor
        expect, raised_at = [], None
        for k in range(min(spec.i, spec.x) + 1):
            num = pochhammer(-spec.i, k) * pochhammer(-spec.x, k) * pochhammer(spec.a1, k) * pochhammer(spec.a2, k)
            if num == 0:
                break
            den = pochhammer(F(1), k) * pochhammer(spec.b1, k) * pochhammer(spec.b2, k) * pochhammer(-spec.ell, k)
            if den == 0:
                raised_at = k
                break
            expect.append((k, num / den))
        got = [(k, pair_value(ui * ux, vi * vx)) for k, ((ui, vi), (ux, vx)) in enumerate(zip(ti, tx))]
        assert got == expect
        ends = [f for t, f in ((ti, fi), (tx, fx)) if len(t) == len(got)]
        assert (None in ends and raised_at is None) or ends[0].k == raised_at

    @given(_racah_specs())
    @example(_Factor(i=3, x=2, a1=F(5), a2=F(7, 2), b1=F(1, 2), b2=F(2, 3), ell=4))
    @settings(max_examples=80, deadline=None)
    def test_sides_compose_the_unsplit_factor(self, spec):
        # each side against its Pochhammer definition, the i-side over
        # k! (-ell)_k as the shift product takes it, and their product against
        # the unsplit term times the prefactor; the example has a1 != a2 and
        # i != x, so a parameter on the wrong side shows
        i, x, ell, kmax = spec.i, spec.x, spec.ell, min(spec.i, spec.x)
        try:
            unsplit = [
                pair_value(u, v)
                for _, u, v in hypergeometric_term_pairs([-i, -x, spec.a1, spec.a2], [spec.b1, spec.b2, -ell], kmax)
            ]
        except ZeroDenominatorPochhammer:
            assume(False)
        (pi, ti, _), (px, tx, _) = self._sides(spec)
        assert pair_value(*pi) == pochhammer(spec.b1, i) and pair_value(*px) == pochhammer(spec.b2, x)
        assert len(unsplit) == min(len(ti), len(tx))
        prefactor = binomial(ell, i) * pochhammer(spec.b1, i) * pochhammer(spec.b2, x)
        for k, term in enumerate(unsplit):
            i_side, x_side = pair_value(*ti[k]), pair_value(*tx[k])
            norm = pochhammer(F(1), k) * pochhammer(-ell, k)
            assert i_side * pochhammer(spec.b1, k) * norm == pochhammer(-i, k) * pochhammer(spec.a1, k)
            assert x_side * pochhammer(spec.b2, k) == pochhammer(-x, k) * pochhammer(spec.a2, k)
            assert binomial(ell, i) * pair_value(*pi) * i_side * pair_value(*px) * x_side == term * prefactor

    def test_unit_value_collapse(self):
        # i = 0 leaves only the k = 0 term: T_0(x) is the prefactor
        # (ell + omega + a + 1)_x over the head (x + omega)_x
        for ell in (1, 3):
            p = _params_univariate(ell)
            for x in range(ell + 1):
                want = pochhammer(ell + p.omega + p.a[0] + 1, x) / pochhammer(x + p.omega, x)
                assert univariate_t_racah(p, (0,), (x,)) == want


class TestRacahSideRatio:
    """`_racah_side`, each term from the last by its own ratio, against the
    generic series core's form of one side (`oracle_racah_side`): the same
    prefactor pair, the same unreduced term pairs, and the same fault at
    the same k, or the same error raised."""

    DETAIL = "Racah factor series"

    @staticmethod
    def _outcome(side, *args):
        # a series by (valuation, numerator, denominator): it compares only with 0
        def rep(v):
            return (v.val, v.num, v.den) if isinstance(v, LaurentSeries) else v

        try:
            (pu, pv), terms, fault = side(*args)
        except Exception as err:
            return "raised", type(err), str(err)
        return (rep(pu), rep(pv)), [(rep(u), rep(v)) for u, v in terms], fault and (type(fault), fault.k, fault.detail)

    def _assert_same(self, n, a, b, kmax, ell):
        args = (n, a, b, kmax, self.DETAIL, ell)
        got = self._outcome(overlap._racah_side, *args)
        assert got == self._outcome(oracle_racah_side, *args), args
        return got

    def test_seeded_integer_pairs(self):
        # parameters with denominators, so each step scales by them; some
        # series end at a vanishing numerator, some at a vanishing denominator
        rng, ends = random.Random(1), set()
        for _ in range(3000):
            pair = lambda: (rng.randint(-8, 8), rng.randint(1, 4))
            ell = rng.choice([None, rng.randint(0, 7)])
            got = self._assert_same(rng.randint(0, 6), pair(), pair(), rng.randint(0, 7), ell)
            ends.add("fault" if got[2] else "short" if len(got[1]) < 4 else "full")
        assert ends == {"fault", "short", "full"}

    @pytest.mark.parametrize("ell", [None, 9])
    def test_a_vanishing_denominator_at_each_k(self, ell):
        # b = -(k0 - 1) d / d makes (b)_k vanish first at k = k0; a = 1/3
        # keeps every numerator nonzero, so the side ends there with k0
        for k0 in range(1, 7):
            for d in (1, 2, 5):
                got = self._assert_same(6, (1, 3), (-(k0 - 1) * d, d), 6, ell)
                assert (len(got[1]), got[2][1]) == (k0, k0)

    def test_the_ell_denominator_vanishes_past_ell(self):
        # (-ell)_k vanishes at k = ell + 1 when kmax runs past ell
        for ell in range(0, 4):
            got = self._assert_same(6, (1, 3), (2, 7), 6, ell)
            assert got[2][1] == ell + 1

    def test_early_termination(self):
        # (-n)_k ends the series after k = n, (a)_k after k = m when a = -m
        for n, m in ((0, 3), (2, 5), (4, 1), (3, 3)):
            got = self._assert_same(n, (-m * 2, 2), (1, 2), 6, None)
            assert len(got[1]) == min(n, m) + 1 and got[2] is None

    def test_series_and_rational_function_pairs(self):
        # a Laurent series known to relative precision 1 or only as O(t^v),
        # and a rational function, on either side, against integer pairs
        rng, t = random.Random(2), variable_t()
        for _ in range(1500):
            series = lambda: (LaurentSeries(rng.randint(-2, 1), rng.choice([0, rng.randint(-5, 5)]), rng.randint(1, 4)), 1)
            ratfunc = lambda: (F(rng.randint(-5, 5), rng.randint(1, 4)) + rng.choice([1, -1]) * t, 1)
            rational = lambda: (rng.randint(-6, 6), rng.randint(1, 4))
            make_a, make_b = rng.choice([(series, rational), (rational, series), (series, series),
                                         (ratfunc, rational), (rational, ratfunc), (ratfunc, ratfunc)])
            self._assert_same(rng.randint(0, 5), make_a(), make_b(), rng.randint(0, 6), rng.choice([None, rng.randint(0, 6)]))


class TestProductRoute:
    """The T matrix_product kernel, int dots under the heads of D's columns
    and Cbar's rows, against the Fraction product M_Cbar M_D of the public
    matrices, value for value and type for type."""

    @pytest.mark.parametrize(
        "ell, free",
        [((3, 2), None), ((2, 2, 1), None), ((4, 3), None), ((3, 3, 2), None)]
        + [((2, 1), "omega"), ((2, 1), "omega_star"), ((3,), "omega"), ((1, 2), "omega_star")],
    )
    def test_values_match_the_fraction_product(self, ell, free):
        p = random_valid_parameters(Shape(ell), 1)
        if free is not None:
            p = replace(p, **{free: getattr(p, free) + variable_t()})
        basis = enumerate_box(p.shape)
        m = coefficient_matrix(p, "Cbar") @ coefficient_matrix(p, "D")
        table = overlap._t_product(p, basis, basis)
        values, expect = factored_values(table), [[m.entry(x, i) for x in basis] for i in basis]
        assert values == expect
        assert [list(map(type, row)) for row in values] == [list(map(type, row)) for row in expect]
        if free is None:
            assert all(type(z) is int for row in table.dots for z in row)
        # a sub-table reads only its own columns of D
        rows, cols = basis[1::2], basis[::3]
        sub = factored_values(overlap._t_product(p, rows, cols))
        assert sub == [[m.entry(x, i) for x in cols] for i in rows]


def _scalar(v):
    # the value with its type; a series by its valuation and known
    # coefficient, whatever denominator it is kept over
    if isinstance(v, LaurentSeries):
        return ("LaurentSeries", v.val, F(v.num, v.den))
    return (type(v).__name__, v)


class TestHahnKernel:
    @given(_small_shapes(), st.integers(min_value=0, max_value=10**6))
    @example(Shape((2, 2, 1)), 1)
    @settings(max_examples=8, deadline=None)
    def test_kernel_matches_the_walk(self, shape, seed):
        # over Q, over Q(t) at the limits check's Krawtchouk side and in
        # Laurent series at omega = 1/t: the
        # table, each row and each entry, value and type
        p = random_valid_parameters(shape, seed)
        t, basis = variable_t(), enumerate_box(shape)
        sides = [p, replace(p, h=p.h * t, omega=1 / t), replace(p, omega=LaurentSeries(-1, 1))]
        for q in sides:
            expect = [[_scalar(oracle_hahn(q, i, x)) for x in basis] for i in basis]
            table = factored_values(overlap._hahn_table(q, basis, basis))
            assert [[_scalar(v) for v in row] for row in table] == expect
            for i, row in zip(basis, expect):
                assert [_scalar(v) for v in factored_values(overlap._hahn_table(q, [i], basis))[0]] == row
                for x, v in zip(basis, row):
                    assert _scalar(factored_values(overlap._hahn_table(q, [i], [x]))[0][0]) == v


class TestKrawtchoukKernel:
    @given(shapes_to_18(), st.integers(min_value=0, max_value=10**6))
    @example(Shape((3, 2)), 1)
    @example(Shape((5,)), 1)
    @example(Shape((1, 1, 1)), 2)
    @example(Shape((2, 2, 1)), 1)
    @settings(max_examples=15, deadline=None)
    def test_kernel_matches_the_per_pair_value(self, shape, seed):
        # the table, each row and each entry, value and type, against the
        # per-coordinate 2F1 by `pfq_terminating`, at N = 1 to 3
        p, basis = random_valid_parameters(shape, seed), enumerate_box(shape)
        expect = [[_scalar(oracle_krawtchouk(p, i, x)) for x in basis] for i in basis]
        table = factored_values(overlap._krawtchouk_table(p, basis, basis))
        assert [[_scalar(v) for v in row] for row in table] == expect
        for i, row in zip(basis, expect):
            assert [_scalar(v) for v in factored_values(overlap._krawtchouk_table(p, [i], basis))[0]] == row
            for x, v in zip(basis, row):
                assert _scalar(overlap_limit_kind(p, "krawtchouk", i, x)) == v


class TestFactoredTables:
    """Every route kernel and degenerate kind returns a factored table: over
    Q each line `_dot_table` dots is primitive, and the table's values are
    the oracles', value for value and type for type."""

    @given(shapes_to_18(), st.integers(min_value=0, max_value=10**6))
    @example(Shape((3, 2)), 1)
    @example(Shape((7,)), 2)
    @settings(max_examples=12, deadline=None)
    def test_every_dotted_line_is_primitive(self, shape, seed):
        # content 1 on every int line, and each term's value kept: the head
        # times the line's numerator over their denominator
        lines, original = [], overlap._line

        def recorded(make, index, top, strides, over_q):
            out = original(make, index, top, strides, over_q)
            lines.append((make(index, top, strides), out))
            return out

        p, basis = random_valid_parameters(shape, seed), enumerate_box(shape)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(overlap, "_line", recorded)
            for family, name in (("T", "direct_sum"), ("T", "shift_operator"), ("U", "direct_sum"),
                                 ("U", "shift_operator"), ("kind", "hahn")):
                overlap._kernel(family, name)(p, basis, basis)
        assert len(lines) == 10 * len(basis)
        for ((u0, v0), terms, _), (hu, hv, dense, _, _) in lines:
            assert math.gcd(*dense) == 1
            assert all(F(hu * dense[pos], hv) == F(u0 * u, v0 * v) for pos, (u, v) in terms.items())

    @given(shapes_to_18(), st.integers(min_value=0, max_value=10**6))
    @example(Shape((2, 2, 1)), 1)
    @example(Shape((6,)), 1)
    @settings(max_examples=10, deadline=None)
    def test_values_match_the_oracles(self, shape, seed):
        self._assert_values(random_valid_parameters(shape, seed))

    @pytest.mark.parametrize("ell, name", [((2, 1), "omega_star"), ((4,), "omega")])
    def test_values_match_the_oracles_over_qt(self, ell, name):
        # one parameter made free: heads and dots are rational functions
        p = random_valid_parameters(Shape(ell), 1)
        self._assert_values(replace(p, **{name: getattr(p, name) + variable_t()}))

    @staticmethod
    def _assert_values(p):
        basis = enumerate_box(p.shape)
        kernels = [("T", m, _oracle_t) for m in T_METHODS] + [("U", m, _oracle_u) for m in U_METHODS]
        kernels += [("kind", "hahn", oracle_hahn), ("kind", "krawtchouk", oracle_krawtchouk)]
        if p.N == 1:
            kernels += [("T", "shift_operator", oracle_t_racah), ("U", "shift_operator", oracle_u_balanced)]
        for family, name, oracle in kernels:
            got = factored_values(overlap._kernel(family, name)(p, basis, basis))
            expect = [[_scalar(oracle(p, i, x)) for x in basis] for i in basis]
            assert [[_scalar(v) for v in row] for row in got] == expect, (family, name, oracle.__name__)
        if p.N == 1:
            f = [overlap._u_row_factor(p, i[0]) for i in basis]
            g = [overlap._u_col_factor(p, x[0]) for x in basis]
            got = factored_values(factored_scaled(overlap._t_shift(p, basis, basis), f, g))
            expect = [[_scalar(oracle_u_normalized(p, i, x)) for x in basis] for i in basis]
            assert [[_scalar(v) for v in row] for row in got] == expect


def _route_calls(p, which: str, method: str) -> set:
    """The package functions, as (file, name, first line), that one route
    kernel calls on a cold table: the coefficient families and the swapped
    parameters rebuilt, the validity gate already warm.  A comprehension,
    generator or lambda is left out: it runs only inside the function that
    holds it, which is recorded."""
    root = os.path.dirname(overlap.__file__)
    seen = set()

    def record(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(root) and not code.co_name.startswith("<"):
            seen.add((os.path.basename(code.co_filename), code.co_name, code.co_firstlineno))

    cob._family_pair.cache_clear()
    cob._swapped.cache_clear()
    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        overlap._factored_table(p, which, method)
    finally:
        sys.setprofile(previous)
    return seen


# What two routes of one family may share: tested primitives, the table
# dispatch and validity gate, and the index, shape and parameter accessors
# (the shape's __eq__ and __hash__ and `_box` run on cache lookups, so
# whether a route reaches them depends on what is cached); the line-and-dot
# helpers for direct_sum with shift_operator; and for U the S-mirror (the
# swapped parameters, built by `replace`, and the mirrored kernel with its
# index flip).  A change that shares more must extend these and say why.
_PRIMITIVES = {
    ("exactfield.py", "_pair"),
    ("exactfield.py", "_rising"),
    ("exactfield.py", "over_common_denominator"),
    ("overlap.py", "_kernel"),
    ("overlap.py", "_factored_table"),
    ("tdcore.py", "_ensure_valid"),
}
_ACCESSORS = {
    *(("multiindex.py", name) for name in ("__new__", "weight", "N", "diameter", "__eq__", "__hash__", "_box")),
    *(("tdcore.py", name) for name in ("N", "ell", "diameter")),
}
_LINE_HELPERS = {("overlap.py", "_dot_table"), ("overlap.py", "_line")}
_S_MIRROR = {
    ("cob.py", "_swapped"),
    ("tdcore.py", "substituted_for_involution"),
    ("tdcore.py", "__post_init__"),
    ("exactfield.py", "_coerce"),
    ("overlap.py", "u_kernel"),
    ("overlap.py", "flip"),
}


class TestSolvedColumns:
    """The U linear_solve kernel keeps each column of the back-substitution
    as int numerators under the least column head (1, q_c); its values are
    those of a per-entry Fraction solve, value and type, over Q and Q(t)."""

    @staticmethod
    def _per_entry_solve(p, d):
        # M_D U = M_C entry by entry, M_D unit upper triangular in graded order
        md, mc, u = coefficient_matrix(p, "D"), coefficient_matrix(p, "C"), {}
        for c in range(d):
            for r in range(d - 1, -1, -1):
                acc = mc.item(r, c) - sum((md.item(r, k) * u[k, c] for k in range(r + 1, d)), F(0))
                u[r, c] = acc / md.item(r, r)
        return [[u[r, c] for c in range(d)] for r in range(d)]

    @pytest.mark.parametrize(
        "ell, free",
        [((3, 2), None), ((2, 2, 1), None), ((4, 3), None), ((3, 3, 2), None)]
        + [((2, 1), "omega"), ((2, 1), "omega_star"), ((3,), "omega"), ((1, 2), "omega_star")],
    )
    def test_values_match_a_per_entry_solve(self, ell, free):
        p = random_valid_parameters(Shape(ell), 1)
        if free is not None:
            p = replace(p, **{free: getattr(p, free) + variable_t()})
        d = len(enumerate_box(p.shape))
        table = overlap._factored_table(p, "U", "linear_solve")
        values, expect = factored_values(table), self._per_entry_solve(p, d)
        assert values == expect
        assert [list(map(type, row)) for row in values] == [list(map(type, row)) for row in expect]
        assert table.rows == [(1, 1)] * d
        if free is None:
            assert all(type(z) is int for row in table.dots for z in row)
            # each column head is the least: the lcm of its entries' denominators
            assert [q for _, q in table.cols] == [math.lcm(*(v.denominator for v in col)) for col in zip(*values)]


class TestRouteIndependence:
    def test_routes_of_one_family_share_only_allowed_helpers(self):
        # (2,2,1), seed 1: every pairwise intersection of the functions the
        # routes call lies in the allowlist, and each allowed name but the
        # accessors is shared by some pair, so the list holds nothing stale
        p = random_valid_parameters(Shape((2, 2, 1)), 1)
        for q in (p, cob._swapped(p)):
            tdcore._ensure_valid(q)
        used = set()
        for which, methods in (("T", T_METHODS), ("U", U_METHODS)):
            calls = {m: _route_calls(p, which, m) for m in methods}
            for a, b in itertools.combinations(methods, 2):
                shared = {(f, name) for f, name, _ in calls[a] & calls[b]}
                allowed = _PRIMITIVES | _ACCESSORS | (_S_MIRROR if which == "U" else set())
                if {a, b} == {"direct_sum", "shift_operator"}:
                    allowed |= _LINE_HELPERS
                assert shared <= allowed, (which, a, b, sorted(shared - allowed))
                used |= shared
        assert used - _ACCESSORS == _PRIMITIVES | _LINE_HELPERS | _S_MIRROR

    def test_a_fault_in_the_shared_helper_is_caught_by_the_matrix_route(self, monkeypatch):
        # direct_sum and shift_operator both build their tables through
        # `_dot_table`; matrix_product does not, so it disagrees with both
        p = random_valid_parameters(Shape((3, 2)), 1)
        assert run_suite(p, checks=["overlap_consistency"]).passed
        original = overlap._dot_table

        def planted(*args):
            table = original(*args)
            table.dots[0][0] += 1
            return table

        monkeypatch.setattr(overlap, "_dot_table", planted)
        result = run_suite(p, checks=["overlap_consistency"]).result("overlap_consistency")
        assert result.passed is False
        assert result.witness["method"] == "matrix_product"


class TestCaches:
    def test_every_package_cache_is_bounded(self):
        caches = [
            (name, value)
            for name, mod in list(sys.modules.items())
            if name.startswith("tdpair")
            for value in vars(mod).values()
            if callable(getattr(value, "cache_info", None))
        ]
        assert any(cache is cob._family_pair for _, cache in caches)
        for name, cache in caches:
            assert cache.cache_info().maxsize is not None, (name, cache)

    def test_writing_a_returned_table_changes_nothing(self):
        p = _params_21()
        basis = enumerate_box(p.shape)
        before = overlap_U(p, basis[0], basis[0], "linear_solve")
        for which, method in (("U", "linear_solve"), ("T", "matrix_product")):
            m = overlap_table(p, which, method)
            m.entries[(0, 0)] = F(12345)
            m.entries.clear()
        assert overlap_U(p, basis[0], basis[0], "linear_solve") == before
        assert overlap_table(p, "U", "linear_solve").item(0, 0) == before
        assert run_suite(p).passed


class TestErrors:
    def test_invalid_parameters(self):
        bad = TDParameters(Shape((1,)), 0, 0, 0, 1, 0, 0, (1,))
        with pytest.raises(InvalidParameters):
            overlap_T(bad, (0,), (0,))
        with pytest.raises(InvalidParameters):
            overlap_limit_kind(bad, "hahn", (0,), (0,))

    def test_out_of_box_points(self):
        p = _params_2d()
        with pytest.raises(IndexOutOfRange):
            overlap_T(p, (2, 0), (0, 0))
        with pytest.raises(IndexOutOfRange):
            overlap_U(p, (0, 0), (0, 2))

    def test_unknown_method(self):
        p = _params_2d()
        with pytest.raises(ValueError):
            overlap_T(p, (0, 0), (0, 0), "linear_solve")
        with pytest.raises(ValueError):
            overlap_U(p, (0, 0), (0, 0), "matrix_product")
        with pytest.raises(ValueError):
            overlap_table(p, "V", "direct_sum")

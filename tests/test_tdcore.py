"""Operator assembly, parameter validation, and exact matrix algebra."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdpair.exactfield import (
    LaurentSeries,
    PrecisionExhausted,
    RationalFunction,
    as_integer,
    rational,
    variable_t,
)
from tdpair.multiindex import IndexOutOfRange, MultiIndex, Shape, enumerate_box
from tdpair.tdcore import (
    ExactMatrix,
    InvalidParameters,
    OPERATOR_NAMES,
    TDParameters,
    _assemble_operator,
    _general_position,
    _content_lines,
    _line_product,
    _lines,
    _rows,
    _terms,
    cleared_combination,
    cleared_commutator,
    cleared_difference,
    cleared_product,
    cleared_scaled,
    build_operator,
    identity_difference,
    eigenvalue,
    parameters_from_json_obj,
    parameters_to_json_obj,
    substituted_for_involution,
    uncleared,
    validate_parameters,
    xi,
)
from tdpair.verify import random_valid_parameters

from matrix_ops import (
    all_zero,
    cleared,
    column,
    commutator,
    diagonal,
    identity,
    minus,
    negated,
    off_diagonal_part,
    plus,
    scaled,
    transpose,
    typed_cleared,
)
from operator_oracle import oracle_operator, oracle_xi, shapes_to_18

F = Fraction


def _params_1d():
    # smallest valid instance: single coordinate, ell = (1)
    return TDParameters(
        shape=Shape((1,)),
        theta0=0,
        theta0_star=0,
        h=1,
        h_star=1,
        omega=0,
        omega_star=0,
        a=(1,),
    )


def _params_2d():
    # generic two-coordinate instance; all constraint offsets non-integer
    return TDParameters(
        shape=Shape((1, 1)),
        theta0=F(1, 2),
        theta0_star=F(-1, 3),
        h=2,
        h_star=3,
        omega=F(1, 3),
        omega_star=F(1, 5),
        a=(F(1, 7), F(3, 11)),
    )


class TestEigenvalues:
    def test_plain_sequence(self):
        p = _params_2d()
        assert [eigenvalue(p, j) for j in range(3)] == [F(1, 2), F(19, 6), F(59, 6)]

    def test_starred_sequence(self):
        p = _params_2d()
        got = [eigenvalue(p, j, starred=True) for j in range(3)]
        assert got == [F(-1, 3), F(49, 15), F(193, 15)]

    def test_out_of_range_level(self):
        p = _params_2d()
        with pytest.raises(IndexOutOfRange):
            eigenvalue(p, -1)
        with pytest.raises(IndexOutOfRange):
            eigenvalue(p, 3)

    def test_distinct_on_valid_instance(self):
        p = _params_2d()
        vals = [eigenvalue(p, j) for j in range(p.diameter + 1)]
        assert len(set(vals)) == len(vals)


class TestXi:
    def test_single_coordinate_value(self):
        # h (0 + 1 + 1 + 1 + 0) * 1 = 3
        assert xi(_params_1d(), (1,), 1) == 3

    def test_two_coordinate_values(self):
        p = _params_2d()
        assert xi(p, (1, 0), 1) == F(146, 21)
        assert xi(p, (1, 1), 2) == F(304, 33)

    def test_starred_values(self):
        p = _params_2d()
        assert xi(p, (0, 1), 1, starred=True) == F(-111, 35)
        assert xi(p, (0, 0), 2, starred=True) == F(12, 55)

    def test_starred_vanishes_at_ceiling(self):
        # the factor (n_p - ell_p) kills the coefficient at n_p = ell_p
        p = _params_2d()
        assert xi(p, (1, 0), 1, starred=True) == 0

    def test_plain_vanishes_at_floor(self):
        assert xi(_params_2d(), (0, 1), 1) == 0

    def test_bad_coordinate(self):
        with pytest.raises(IndexOutOfRange):
            xi(_params_2d(), (0, 0), 3)
        with pytest.raises(IndexOutOfRange):
            xi(_params_2d(), (0, 0), 0)

    def test_out_of_box_index(self):
        with pytest.raises(IndexOutOfRange):
            xi(_params_2d(), (2, 0), 1)


class TestOperatorAssembly:
    def test_single_coordinate_columns(self):
        p = _params_1d()
        A = build_operator(p, "A")
        As = build_operator(p, "Astar")
        v0, v1 = MultiIndex((0,)), MultiIndex((1,))
        assert column(A, v0) == {v1: F(3)}
        assert column(A, v1) == {v1: F(1)}
        assert column(As, v0) == {}
        assert column(As, v1) == {v0: F(1), v1: F(1)}

    def test_two_coordinate_raising_columns(self):
        A = build_operator(_params_2d(), "A")
        n00, n01, n10, n11 = (MultiIndex(v) for v in ((0, 0), (0, 1), (1, 0), (1, 1)))
        assert column(A, n00) == {n00: F(1, 2), n01: F(172, 33), n10: F(146, 21)}
        assert column(A, n01) == {n01: F(19, 6), n11: F(146, 21)}
        assert column(A, n10) == {n10: F(19, 6), n11: F(304, 33)}
        assert column(A, n11) == {n11: F(59, 6)}

    def test_two_coordinate_lowering_columns(self):
        As = build_operator(_params_2d(), "Astar")
        n00, n01, n10, n11 = (MultiIndex(v) for v in ((0, 0), (0, 1), (1, 0), (1, 1)))
        assert column(As, n00) == {n00: F(-1, 3)}
        assert column(As, n01) == {n00: F(12, 55), n01: F(49, 15)}
        assert column(As, n10) == {n00: F(-111, 35), n10: F(49, 15)}
        assert column(As, n11) == {n01: F(-111, 35), n10: F(-318, 55), n11: F(193, 15)}

    def test_split_parts(self):
        p = _params_2d()
        A = build_operator(p, "A")
        As = build_operator(p, "Astar")
        R = build_operator(p, "R")
        L = build_operator(p, "L")
        assert R == off_diagonal_part(A)
        assert L == off_diagonal_part(As)
        # the diagonal entries are the eigenvalues at each level
        basis = A.basis
        assert A == plus(diagonal(basis, lambda m: eigenvalue(p, m.weight)), R)
        assert As == plus(
            diagonal(basis, lambda m: eigenvalue(p, m.weight, starred=True)), L
        )

    def test_antidiagonal_involution(self):
        p = _params_2d()
        S = build_operator(p, "S")
        basis = enumerate_box(p.shape)
        assert S @ S == identity(basis)
        n01, n10 = MultiIndex((0, 1)), MultiIndex((1, 0))
        assert column(S, n01) == {n10: F(1)}

    def test_conjugation_by_involution(self):
        # S A S matches the lowering assembly at substituted parameters,
        # and S A* S the raising assembly at the mirror substitution
        p = _params_2d()
        A = build_operator(p, "A")
        As = build_operator(p, "Astar")
        S = build_operator(p, "S")
        for X, starred, target in ((A, False, "Astar"), (As, True, "A")):
            other = _assemble_operator(substituted_for_involution(p, starred=starred), target)
            assert S @ X @ S == uncleared(A.basis, other)

    def test_unknown_operator_name(self):
        with pytest.raises(ValueError):
            build_operator(_params_2d(), "B")

    def test_invalid_parameters_refused(self):
        bad = TDParameters(
            shape=Shape((1,)),
            theta0=0,
            theta0_star=0,
            h=0,
            h_star=1,
            omega=0,
            omega_star=0,
            a=(1,),
        )
        with pytest.raises(InvalidParameters) as exc:
            build_operator(bad, "A")
        assert exc.value.report.result("cond1").passed is False


def _outcome(f, *args):
    try:
        v = f(*args)
    except IndexOutOfRange:
        return IndexOutOfRange
    return type(v), v


class TestAssemblyOracle:
    """The int-pair xi kernel against the per-entry Fraction oracle: the
    assembled rows of A, A*, R, L and S are the oracle's matrix cleared,
    every numerator and the denominator with its type, and xi and xi* agree
    at every (n, p) with the out-of-range cases, over Q, at both Q(t)
    substitutions of the limits check and with one parameter free."""

    @given(shapes_to_18(), st.integers(min_value=0, max_value=10**6))
    @example(Shape((2, 2, 1)), 1)
    @example(Shape((1, 1, 1, 1, 1, 1, 1)), 1)
    @settings(max_examples=25, deadline=None)
    def test_kernel_matches_the_oracle(self, shape, seed):
        p = random_valid_parameters(shape, seed)
        t = variable_t()
        N = shape.N
        beyond = [
            n[:q] + (v,) + n[q + 1 :]
            for n in ((0,) * N, shape.ell)
            for q in range(N)
            for v in (-1, shape.ell[q] + 1)
        ]
        indices = enumerate_box(shape) + beyond + [(0,) * (N + 1)]
        for q in (
            p,
            replace(p, h_star=p.h_star * t, omega_star=1 / t),
            replace(p, h=p.h * t, omega=1 / t),
        ):
            for which in OPERATOR_NAMES:
                got = _assemble_operator(q, which)
                assert typed_cleared(got) == typed_cleared(cleared(oracle_operator(q, which))), which
            for n in indices:
                for k in range(N + 2):
                    for starred in (False, True):
                        assert _outcome(xi, q, n, k, starred) == _outcome(
                            oracle_xi, q, n, k, starred
                        ), (n, k, starred)

    @pytest.mark.parametrize("name", ["omega", "omega_star", "h", "h_star", "a1"])
    def test_rows_match_the_oracle_with_a_free_parameter(self, name):
        p = random_valid_parameters(Shape((3, 2)), 1)
        t = variable_t()
        if name == "a1":
            q = replace(p, a=(p.a[0] + t, *p.a[1:]))
        else:
            q = replace(p, **{name: getattr(p, name) + t})
        for which in OPERATOR_NAMES:
            got = _assemble_operator(q, which)
            assert typed_cleared(got) == typed_cleared(cleared(oracle_operator(q, which))), which


class TestValidation:
    def test_valid_instance(self):
        report = validate_parameters(_params_2d())
        assert report.passed
        assert [r.check for r in report.results] == ["cond1", "cond2", "cond3"]

    def test_zero_step_fails_first_clause(self):
        p = TDParameters(Shape((2,)), 0, 0, 0, 1, 0, 0, (1,))
        r = validate_parameters(p).result("cond1")
        assert r.passed is False
        assert any("h = 0" in w for w in r.witness)

    def test_omega_band_fails_first_clause(self):
        # ell = (1): forbidden band for omega is {-1}
        p = TDParameters(Shape((1,)), 0, 0, 1, 1, -1, 0, (1,))
        r = validate_parameters(p).result("cond1")
        assert r.passed is False

    def test_omega_band_edges_allowed(self):
        p = TDParameters(Shape((1,)), 0, 0, 1, 1, -2, 0, (2,))
        assert validate_parameters(p).result("cond1").passed

    def test_anchor_band_fails_second_clause(self):
        # a_1 - |ell| - omega_star = 1 - 2 - 0 = -1 lands in {-1}
        p = TDParameters(Shape((1, 1)), 0, 0, 1, 1, 0, 0, (1, 5))
        r = validate_parameters(p).result("cond2")
        assert r.passed is False
        assert any("a_1" in w for w in r.witness)

    def test_adjacent_strings_fail_third_clause(self):
        # S+(1,2) = {3} and S+(1,3) = {4} merge into a longer string
        p = TDParameters(Shape((1, 1)), 0, 0, 1, 1, 0, 0, (2, 3))
        report = validate_parameters(p)
        assert report.result("cond2").passed
        r = report.result("cond3")
        assert r.passed is False
        assert len(r.witness) == 2  # positive pair and its mirror

    def test_report_shape(self):
        report = validate_parameters(_params_2d())
        obj = report.to_json_obj()
        assert obj["pass"] is True
        assert [c["check"] for c in obj["checks"]] == ["cond1", "cond2", "cond3"]

    @pytest.mark.parametrize("key", ["theta0", "theta0_star", "h", "h_star", "omega", "omega_star", "a"])
    def test_a_float_parameter_is_refused(self, key):
        # omega = -1.0 would pass cond1, where as_integer(-1.0) is None
        p = _params_2d()
        value = (-1.0, *p.a[1:]) if key == "a" else -1.0
        with pytest.raises(TypeError):
            replace(p, **{key: value})

    @pytest.mark.parametrize("anchor", [1.5, True, "1"])
    def test_a_string_set_refuses_an_inexact_anchor(self, anchor):
        # a_p anchors the value strings S+/-(ell_p, a_p) of cond3: a float, a
        # bool or a string never reaches them
        with pytest.raises(TypeError):
            replace(_params_2d(), a=(anchor, F(3, 11)))


def _string(sign, length, anchor, p):
    """The value string {sign (anchor + k + (omega - omega*)/2) : k = 1..length}
    of cond3, listed."""
    half = (p.omega - p.omega_star) * F(1, 2)
    return [sign * (anchor + k + half) for k in range(1, length + 1)]


def _ends(values):
    """(length, least element) of a listed string: the element that every
    other exceeds by an integer >= 0, as `validate_parameters` passes them
    to `_general_position`."""
    return len(values), next(v for v in values if all(as_integer(w - v) >= 0 for w in values))


def _general_position_by_definition(e1: list, e2: list) -> bool:
    """One contains the other, or their union is not a unit-step string;
    from the listed values, comparing only by equality and integer gaps."""
    contains = lambda big, small: all(any(v == w for w in big) for v in small)
    if contains(e1, e2) or contains(e2, e1):
        return True
    union = list(e1) + [v for v in e2 if not any(v == w for w in e1)]
    offsets = [as_integer(v - union[0]) for v in union]
    if None in offsets:
        return True
    return max(offsets) - min(offsets) + 1 != len(offsets)


class _CountedAnchor(Fraction):
    """A Fraction that counts the sums it enters: a string listed value by
    value adds its anchor once per value."""

    adds = 0

    def __add__(self, other):
        _CountedAnchor.adds += 1
        return Fraction.__add__(self, other)

    __radd__ = __add__


class TestStringsGeneralPosition:
    def _p(self, omega=0, omega_star=0):
        return TDParameters(Shape((1,)), 0, 0, 1, 1, omega, omega_star, (1,))

    def _test(self, spec1, spec2):
        # the interval test on the ends of two strings (sign, length,
        # anchor), checked against the definition on their listed values
        e1, e2 = (_string(*spec, self._p()) for spec in (spec1, spec2))
        verdict = _general_position(*_ends(e1), *_ends(e2))
        assert verdict == _general_position_by_definition(e1, e2)
        return verdict

    def test_opposite_strings_with_gap(self):
        # {1,2} against {-2,-1}: union has a hole at 0
        assert self._test((1, 2, 0), (-1, 2, 0))

    def test_adjacent_singletons(self):
        # {1} and {2} form the string {1,2}
        assert not self._test((1, 1, 0), (1, 1, 1))

    def test_coincident_singletons(self):
        # {1} and -({-2}+1) = {1}: containment
        assert self._test((1, 1, 0), (-1, 1, -2))

    def test_non_integer_offset(self):
        # a gap that is not an integer can never close a string
        assert self._test((1, 3, 0), (1, 3, F(1, 2)))

    def test_proper_containment(self):
        assert self._test((1, 4, 0), (1, 2, 1))

    def test_interleaving_rejected(self):
        # {2,3} just after {1,2} overlaps but neither contains the other
        assert not self._test((1, 2, 0), (1, 2, 1))

    @settings(max_examples=400, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from((1, -1)),
                st.integers(1, 4),
                st.fractions(min_value=-4, max_value=4, max_denominator=3),
            ),
            min_size=2,
            max_size=2,
        ),
        st.integers(-6, 6),
        st.integers(-6, 6),
    )
    def test_interval_test_matches_the_definition(self, specs, twice_omega, twice_omega_star):
        # omega and omega* on the half-integers, anchors with small
        # denominators: containment, overlap, touching and non-integer gaps
        p = self._p(F(twice_omega, 2), F(twice_omega_star, 2))
        e1, e2 = (_string(g, n, a, p) for g, n, a in specs)
        assert _general_position(*_ends(e1), *_ends(e2)) == _general_position_by_definition(e1, e2)

    def test_over_rational_functions(self):
        # the limits substitution omega* = 1/t: opposite-sign strings drift
        # apart by a non-constant gap, same-sign strings keep their offsets
        inv_t = RationalFunction((F(1),), (F(0), F(1)))
        for a, failing in (((F(1, 7), F(3, 11)), []), ((2, 3), ["+", "-"])):
            p = TDParameters(Shape((1, 1)), 0, 0, 1, 1, 0, F(1, 5), a)
            qt = replace(p, h_star=p.h_star * variable_t(), omega_star=inv_t)
            strings = [_string(g, 1, v, qt) for v in qt.a for g in (1, -1)]
            for u in range(len(strings)):
                for e2 in strings[u + 1 :]:
                    e1 = strings[u]
                    assert _general_position(*_ends(e1), *_ends(e2)) == _general_position_by_definition(e1, e2)
            r = validate_parameters(qt).result("cond3")
            assert r.witness == (
                [f"S{g}(ell_1, a_1) and S{g}(ell_2, a_2) are not in general position" for g in failing]
                or None
            )

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 4), st.fractions(min_value=-4, max_value=4, max_denominator=2)),
            min_size=1,
            max_size=3,
        ),
        st.integers(-6, 6),
        st.integers(-6, 6),
        st.booleans(),
    )
    @example([(1, F(2)), (1, F(3))], 0, 0, False)
    @example([(1, F(2)), (1, F(3))], 0, 0, True)
    def test_cond3_is_the_pairwise_test(self, coords, twice_omega, twice_omega_star, inverse_t):
        # cond3's verdict and witness are the definition's on the listed
        # values of every pair of strings, in order, over Q and with
        # omega* = 1/t
        ell, a = zip(*coords)
        p = TDParameters(Shape(ell), 0, 0, 1, 1, F(twice_omega, 2), F(twice_omega_star, 2), a)
        if inverse_t:
            p = replace(p, omega_star=RationalFunction((F(1),), (F(0), F(1))))
        strings = [
            (f"S{'+' if g == 1 else '-'}(ell_{q}, a_{q})", _string(g, ell[q - 1], a[q - 1], p))
            for q in range(1, len(ell) + 1)
            for g in (1, -1)
        ]
        expect = [
            f"{tag1} and {tag2} are not in general position"
            for u, (tag1, e1) in enumerate(strings)
            for tag2, e2 in strings[u + 1 :]
            if not _general_position_by_definition(e1, e2)
        ]
        r = validate_parameters(p).result("cond3")
        assert (r.passed, r.witness) == (not expect, expect or None)

    @pytest.mark.parametrize("ell", [(2000,), (1000, 1000)])
    def test_validation_never_lists_string_values(self, monkeypatch, ell):
        # cond3 is constant time per pair: each anchor enters as many sums at
        # ell_p = 1000 or 2000 as at ell_p = 1, so no string is enumerated
        def sums(lengths):
            anchors = [_CountedAnchor(1, 7), _CountedAnchor(3, 11)][: len(lengths)]
            p = TDParameters(Shape(lengths), 0, 0, 1, 1, F(1, 3), F(1, 5), anchors)
            monkeypatch.setattr(_CountedAnchor, "adds", 0)
            assert validate_parameters(p).passed
            return _CountedAnchor.adds

        assert sums(ell) == sums((1,) * len(ell)) > 0


class TestExactMatrix:
    def _basis(self):
        return enumerate_box(Shape((1, 1)))

    def test_identity_is_neutral(self):
        basis = self._basis()
        I = identity(basis)
        A = build_operator(_params_2d(), "A")
        assert I @ A == A
        assert A @ I == A

    def test_zero_entries_dropped(self):
        basis = self._basis()
        m = ExactMatrix(basis, {(0, 0): F(0), (1, 2): F(5)})
        assert (0, 0) not in m.entries
        assert m.item(1, 2) == 5

    def test_a_stored_zero_of_each_field_type_is_dropped(self):
        t = variable_t()
        for zero, nonzero in ((0, -2), (F(0), F(1, 3)), (t - t, t - 1), (0 * t, F(0) + t)):
            m = ExactMatrix(self._basis(), {(0, 1): zero, (2, 3): nonzero})
            assert m.entries == {(2, 3): nonzero}
        # a Laurent series: a known nonzero is kept, and a zero not known to
        # be one raises, as its comparison with 0 does
        s = LaurentSeries(-1, 3, 2)
        assert ExactMatrix(self._basis(), {(1, 1): s}).entries == {(1, 1): s}
        with pytest.raises(PrecisionExhausted):
            ExactMatrix(self._basis(), {(1, 1): LaurentSeries(2)})

    def test_product_against_hand_computation(self):
        basis = enumerate_box(Shape((1,)))
        a = ExactMatrix(basis, {(0, 0): F(1), (0, 1): F(2), (1, 1): F(3)})
        b = ExactMatrix(basis, {(0, 0): F(5), (1, 0): F(7), (1, 1): F(11)})
        assert a @ b == ExactMatrix(
            basis, {(0, 0): F(19), (0, 1): F(22), (1, 0): F(21), (1, 1): F(33)}
        )

    def test_transpose_reverses_products(self):
        p = _params_2d()
        A = build_operator(p, "A")
        As = build_operator(p, "Astar")
        assert transpose(A @ As) == transpose(As) @ transpose(A)

    def test_commutator_antisymmetry(self):
        p = _params_2d()
        A = build_operator(p, "A")
        As = build_operator(p, "Astar")
        assert commutator(A, As) == negated(commutator(As, A))
        assert all_zero(commutator(A, A))

    def test_scale(self):
        A = build_operator(_params_2d(), "A")
        assert all_zero(scaled(A, F(0)))
        assert scaled(A, F(2)) == plus(A, A)

    def test_mixed_bases_rejected(self):
        a = identity(enumerate_box(Shape((1,))))
        b = identity(enumerate_box(Shape((2,))))
        with pytest.raises(ValueError):
            a @ b

    def test_first_difference(self):
        basis = self._basis()
        a = identity(basis)
        b = ExactMatrix(basis, {(0, 0): F(1), (1, 1): F(2)})
        row, col, lhs, rhs = a.first_difference(b)
        assert (row, col) == (basis[1], basis[1])
        assert (lhs, rhs) == (F(1), F(2))
        assert a.first_difference(a) is None
        # a stored zero makes the entry dicts differ; the walk finds no witness
        c = identity(basis)
        c.entries[(0, 1)] = F(0)
        assert a.first_difference(c) is None and c.first_difference(a) is None

    def test_solve_upper_triangular(self):
        basis = self._basis()
        u = ExactMatrix(
            basis,
            {(0, 0): F(1), (0, 1): F(2), (0, 3): F(-1), (1, 1): F(1), (2, 2): F(1), (2, 3): F(4), (3, 3): F(1)},
        )
        x = ExactMatrix(basis, {(0, 2): F(7), (1, 0): F(-2), (3, 3): F(5), (2, 2): F(1, 3)})
        assert u.solve_upper_triangular(u @ x) == x

    def test_solve_rejects_lower_entries(self):
        basis = enumerate_box(Shape((1,)))
        m = ExactMatrix(basis, {(0, 0): F(1), (1, 0): F(1), (1, 1): F(1)})
        with pytest.raises(ValueError):
            m.solve_upper_triangular(identity(basis))

    def test_json_and_csv_forms(self):
        basis = enumerate_box(Shape((1,)))
        m = ExactMatrix(basis, {(1, 0): F(3, 2)})
        obj = m.to_json_obj()
        assert obj["basis"] == ["[0]", "[1]"]
        assert obj["entries"] == [["[1]", "[0]", "3/2"]]
        rows = m.to_csv_rows()
        assert rows[0] == ["index", "[0]", "[1]"]
        assert rows[2] == ["[1]", "3/2", "0"]

    def test_unhashable(self):
        m = identity(enumerate_box(Shape((1,))))
        with pytest.raises(TypeError):
            hash(m)


_BASIS6 = enumerate_box(Shape((2, 1)))

# small values, so that sums cancel to zero often; ints and Fractions mixed
_q_scalar = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


def _sparse(values):
    """Sparse entries on the 6x6 basis: about half the positions are absent,
    so that whole rows and columns come out empty."""
    return st.dictionaries(
        st.tuples(st.integers(0, 5), st.integers(0, 5)), values, max_size=18
    ).map(lambda e: ExactMatrix(_BASIS6, e))


def _reference_product(a, b):
    d = a.dimension
    return {
        (r, c): sum((a.item(r, k) * b.item(k, c) for k in range(d)), F(0))
        for r in range(d)
        for c in range(d)
    }


def _reference_solve(u, rhs):
    d = u.dimension
    x = {}
    for c in range(d):
        for r in range(d - 1, -1, -1):
            acc = F(0) + rhs.item(r, c)
            for cc in range(r + 1, d):
                acc = acc - u.item(r, cc) * x[(cc, c)]
            x[(r, c)] = acc / u.item(r, r)
    return x


def _assert_matches(m, reference, over_q):
    # equal to the reference at every position, no zero stored
    assert {k: v for k, v in reference.items() if v != 0} == m.entries
    assert all(v != 0 for v in m.entries.values())
    if over_q:
        assert all(type(v) is Fraction for v in m.entries.values())


class TestExactMatrixOverQ:
    """Products and upper-triangular solves over Q against a plain per-entry
    Fraction loop; a Q(t) operand must give the same values."""

    @settings(max_examples=150, deadline=None)
    @given(_sparse(_q_scalar), _sparse(_q_scalar))
    def test_product_matches_reference(self, a, b):
        _assert_matches(a @ b, _reference_product(a, b), over_q=True)

    def test_product_drops_cancelled_sums(self):
        a = ExactMatrix(_BASIS6, {(0, 1): F(1, 2), (0, 2): 3, (4, 1): F(2, 3)})
        b = ExactMatrix(_BASIS6, {(1, 5): F(6, 5), (2, 5): F(-1, 5), (2, 0): F(7, 9)})
        p = a @ b
        # row 0, column 5: 1/2 * 6/5 + 3 * (-1/5) = 0
        assert (0, 5) not in p.entries
        assert p.entries == {(0, 0): F(7, 3), (4, 5): F(4, 5)}
        assert all(type(v) is Fraction for v in p.entries.values())

    def test_product_with_an_empty_operand(self):
        a = ExactMatrix(_BASIS6, {(0, 1): F(1, 2)})
        empty = ExactMatrix(_BASIS6)
        assert (a @ empty).entries == {}
        assert (empty @ a).entries == {}

    @settings(max_examples=150, deadline=None)
    @given(
        _sparse(_q_scalar),
        st.lists(_q_scalar.filter(lambda v: v != 0), min_size=6, max_size=6),
        _sparse(_q_scalar),
    )
    def test_solve_matches_reference(self, m, diagonal, rhs):
        # the upper triangle of a random sparse matrix, with a non-unit diagonal
        entries = {(r, c): v for (r, c), v in m.entries.items() if r < c}
        entries.update({(k, k): v for k, v in enumerate(diagonal)})
        u = ExactMatrix(_BASIS6, entries)
        x = u.solve_upper_triangular(rhs)
        _assert_matches(x, _reference_solve(u, rhs), over_q=True)
        assert u @ x == rhs

    def test_solve_drops_cancelled_entries(self):
        u = ExactMatrix(
            _BASIS6, {(k, k): F(2, k + 1) for k in range(6)} | {(0, 1): F(1, 3), (1, 4): 5}
        )
        rhs = ExactMatrix(_BASIS6, {(0, 2): F(1, 3), (1, 2): F(2), (0, 3): 1})
        x = u.solve_upper_triangular(rhs)
        # x(1, 2) = 2 / 1 = 2, then x(0, 2) = (1/3 - 1/3 * 2) / 2 = -1/6;
        # with rhs (0, 2) = 2/3 instead the row cancels to zero
        assert x.entries == {(1, 2): F(2), (0, 2): F(-1, 6), (0, 3): F(1, 2)}
        rhs.entries[(0, 2)] = F(2, 3)
        x = u.solve_upper_triangular(rhs)
        assert x.entries == {(1, 2): F(2), (0, 3): F(1, 2)}
        assert all(type(v) is Fraction for v in x.entries.values())

    @settings(max_examples=60, deadline=None)
    @given(_sparse(_q_scalar), _sparse(_q_scalar), st.integers(0, 5), st.integers(0, 5))
    def test_q_t_operands_match_reference(self, a, b, r, c):
        # a Q(t) entry rides through the same path as the pair (entry, 1);
        # the values are the same as the per-entry reference, for
        # Q(t) @ Q(t) and Q @ Q(t)
        t = variable_t()
        at = ExactMatrix(_BASIS6, {**a.entries, (r, c): t + 1})
        _assert_matches(at @ b, _reference_product(at, b), over_q=False)
        _assert_matches(b @ at, _reference_product(b, at), over_q=False)
        bt = ExactMatrix(_BASIS6, {k: v * t for k, v in b.entries.items()})
        _assert_matches(at @ bt, _reference_product(at, bt), over_q=False)

    def test_q_t_solve_matches_reference(self):
        t = variable_t()
        u = ExactMatrix(
            _BASIS6,
            {(k, k): F(k + 2, 3) for k in range(6)}
            | {(0, 3): t, (1, 2): F(-1, 2), (2, 5): 3, (4, 5): t + F(1, 2)},
        )
        rhs = ExactMatrix(_BASIS6, {(5, 0): F(1, 7), (3, 1): 2, (2, 2): t, (0, 4): F(5, 4)})
        _assert_matches(u.solve_upper_triangular(rhs), _reference_solve(u, rhs), over_q=False)
        # and a Q(t) right-hand side against a Q matrix
        uq = ExactMatrix(_BASIS6, {k: v for k, v in u.entries.items() if k not in ((0, 3), (4, 5))})
        _assert_matches(uq.solve_upper_triangular(rhs), _reference_solve(uq, rhs), over_q=False)


_int_entries = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), st.integers(-3, 3), max_size=18
)


def _dense_product(a: dict, b: dict, zero) -> dict:
    sums = {
        (r, c): sum((a.get((r, k), 0) * b.get((k, c), 0) for k in range(6)), zero)
        for r in range(6)
        for c in range(6)
    }
    return {k: v for k, v in sums.items() if v != 0}


def _flat(rows: dict) -> dict:
    # stored rows {r: {c: v}} as {(r, c): v}; no row is stored empty
    assert all(rows.values())
    return {(r, c): v for r, row in rows.items() for c, v in row.items()}


class TestLineProduct:
    """The one sparse product kernel, row by row on the stored rows of both
    operands, against the dense definition."""

    @settings(max_examples=150, deadline=None)
    @given(_int_entries, _int_entries)
    def test_int_entries_match_the_dense_product(self, a, b):
        got = _flat(_line_product(_rows(a.items()), _rows(b.items())))
        assert got == _dense_product(a, b, 0)
        assert all(type(v) is int for v in got.values())

    @settings(max_examples=60, deadline=None)
    @given(_int_entries, _int_entries, _int_entries)
    def test_q_t_numerators_match_the_dense_product(self, a0, a1, b):
        # entries c0 + c1 t, and ints against them
        t = variable_t()
        at = {k: v + a1.get(k, 0) * t for k, v in a0.items()}
        at = {k: v for k, v in at.items() if v != 0}
        for x, y in ((at, at), (at, b), (b, at)):
            got = _flat(_line_product(_rows(x.items()), _rows(y.items())))
            assert got == _dense_product(x, y, 0 * t)

    def test_lines_with_no_shared_index_give_nothing(self):
        assert _line_product({0: {1: 2}}, {0: {0: 3}, 2: {1: 5}}) == {}
        assert _line_product({}, {0: {0: 1}}) == {}
        # a row whose sums all cancel is left out
        assert _line_product({0: {0: 1, 1: 1}, 1: {0: 2}}, {0: {3: 1}, 1: {3: -1}}) == {1: {3: 2}}

    @settings(max_examples=60, deadline=None)
    @given(_sparse(_q_scalar), _sparse(_q_scalar), st.integers(0, 5), st.integers(0, 5))
    def test_matmul_keeps_the_value_and_type_of_every_entry(self, a, b, r, c):
        # each entry is the sum of its stored terms: a Fraction over Q, a
        # RationalFunction once a Q(t) term enters it, and never a zero
        t = variable_t()
        at = ExactMatrix(_BASIS6, {**a.entries, (r, c): t - 1})
        for x, y in ((a, b), (at, b), (b, at), (at, at)):
            terms: dict = {}
            for (i, k), u in x.entries.items():
                for (kk, j), v in y.entries.items():
                    if k == kk:
                        terms[i, j] = terms.get((i, j), F(0)) + u * v
            expected = {k: (v, type(v)) for k, v in terms.items() if v != 0}
            assert {k: (v, type(v)) for k, v in (x @ y).entries.items()} == expected


class TestClearedMatrices:
    """Products, sums and commutators of matrices cleared of denominators,
    kept as stored rows of numerators, equal the ExactMatrix ones, and
    their first difference is the ExactMatrix one, over Q and with a Q(t)
    entry."""

    @settings(max_examples=80, deadline=None)
    @given(_sparse(_q_scalar), _sparse(_q_scalar), _q_scalar, st.integers(0, 5), st.booleans())
    def test_words_match_exact_matrix_algebra(self, a, b, s, r, with_t):
        if with_t:
            t = variable_t()
            a, s = ExactMatrix(_BASIS6, {**a.entries, (r, r): t - 1}), s * t
        x, y = cleared(a), cleared(b)
        assert uncleared(_BASIS6, x) == a and uncleared(_BASIS6, y) == b
        for got, want in (
            (cleared_product(x, y), a @ b),
            (cleared_product(y, x), b @ a),
            (cleared_commutator(x, y), commutator(a, b)),
            (
                cleared_combination([(s, x), (-1, y), (F(1, 3), x)]),
                plus(minus(scaled(a, s), b), scaled(a, F(1, 3))),
            ),
        ):
            assert cleared_difference(got, cleared(want), _BASIS6) is None
            assert uncleared(_BASIS6, got) == want
        assert cleared_difference(x, y, _BASIS6) == a.first_difference(b)
        assert cleared_difference(y, x, _BASIS6) == b.first_difference(a)

    @settings(max_examples=60, deadline=None)
    @given(
        _sparse(_q_scalar), _sparse(_q_scalar), _sparse(_q_scalar), st.integers(0, 5), st.booleans()
    )
    def test_chained_words_match_exact_matrix_algebra(self, a, b, c, r, with_t):
        # a product's rows go straight into the next product: X (X Y),
        # (X Y) Z and [X, [X, Y]], and their first difference from Z
        if with_t:
            a = ExactMatrix(_BASIS6, {**a.entries, (r, 5 - r): variable_t() + 1})
        x, y, z = cleared(a), cleared(b), cleared(c)
        for got, want in (
            (cleared_product(x, cleared_product(x, y)), a @ (a @ b)),
            (cleared_product(cleared_product(x, y), z), (a @ b) @ c),
            (cleared_commutator(x, cleared_commutator(x, y)), commutator(a, commutator(a, b))),
            (
                cleared_product(cleared_commutator(y, x), cleared_product(z, x)),
                commutator(b, a) @ (c @ a),
            ),
        ):
            assert uncleared(_BASIS6, got) == want
            assert cleared_difference(got, cleared(want), _BASIS6) is None
            assert cleared_difference(got, z, _BASIS6) == want.first_difference(c)


class TestIdentityDifference:
    """The first entry where a product differs from I, entry (r, c) = ru s /
    (rv col_dens[c]), in storage order or in that of the transpose, its
    value reduced."""

    def test_first_entry_in_either_order(self):
        b = _BASIS6
        heads, dens = [(1, 2)] * len(b), dict.fromkeys(range(len(b)), 3)
        product = {r: {r: 6} for r in range(len(b))}
        assert identity_difference(product, heads, dens, b) is None
        product[0][2], product[1][0] = 3, 4
        assert identity_difference(product, heads, dens, b) == (b[0], b[2], F(1, 2), F(0))
        # in the transpose (1, 0) comes first, reported at its transposed place
        assert identity_difference(product, heads, dens, b, transposed=True) == (b[0], b[1], F(2, 3), F(0))

    def test_a_missing_diagonal_entry_and_a_row_head(self):
        b = _BASIS6
        heads, dens = [(1, 1)] * len(b), dict.fromkeys(range(len(b)), 1)
        product = {r: {r: 1} for r in range(len(b)) if r != 3}
        assert identity_difference(product, heads, dens, b) == (b[3], b[3], F(0), F(1))
        product[3], heads[3] = {3: 1}, (2, 1)
        assert identity_difference(product, heads, dens, b, transposed=True) == (b[3], b[3], F(2), F(1))


class TestClearedLinesAndScaling:
    """The helpers that read a cleared matrix's rows give, value and type,
    what the entrywise path gives: its lines (`_lines` of `_terms`) and its
    product with a cleared diagonal."""

    @settings(max_examples=80, deadline=None)
    @given(_sparse(_q_scalar), st.integers(0, 5), st.booleans())
    def test_lines_of_the_rows_are_the_lines_of_the_entries(self, a, r, with_t):
        if with_t:
            a = ExactMatrix(_BASIS6, {**a.entries, (r, 5 - r): variable_t() + 1})
        x = cleared(a)
        for axis in (0, 1):
            dens, rows = _content_lines(x, axis)
            want_dens, want_rows = _lines(_terms(a.entries), axis)
            assert {i: (type(d), d) for i, d in dens.items()} == {i: (type(d), d) for i, d in want_dens.items()}
            assert typed_cleared((rows, 1)) == typed_cleared((want_rows, 1))

    @settings(max_examples=80, deadline=None)
    @given(_sparse(_q_scalar), st.lists(_q_scalar, min_size=6, max_size=6), st.integers(0, 5), st.booleans())
    def test_column_scaling_is_the_product_with_the_cleared_diagonal(self, a, values, r, with_t):
        # zero results and emptied rows are left out, as the kernel leaves them
        if with_t:
            a = ExactMatrix(_BASIS6, {**a.entries, (r, r): variable_t() - 1})
            values[5 - r] = values[5 - r] * variable_t()
        dm = diagonal(_BASIS6, lambda m: values[_BASIS6.index(m)])
        x = cleared(a)
        want = cleared_product(x, cleared(dm))
        assert typed_cleared(cleared_scaled(x, values)) == typed_cleared(want)


class TestParameterSerialization:
    def test_round_trip(self):
        p = _params_2d()
        obj = parameters_to_json_obj(p)
        assert obj["ell"] == [1, 1]
        assert obj["h"] == "2"
        assert obj["a"] == ["1/7", "3/11"]
        assert parameters_from_json_obj(obj) == p

    def test_integer_fields_accepted(self):
        obj = {
            "ell": [2],
            "theta0": 0,
            "theta0_star": 0,
            "h": 1,
            "h_star": 1,
            "omega": "1/3",
            "omega_star": "1/5",
            "a": [1],
        }
        p = parameters_from_json_obj(obj)
        assert p.h == F(1)
        assert p.a == (F(1),)

    def test_missing_key(self):
        with pytest.raises(ValueError, match="missing keys"):
            parameters_from_json_obj({"ell": [1]})

    def test_wrong_anchor_count(self):
        with pytest.raises(ValueError, match="anchor"):
            TDParameters(Shape((1, 1)), 0, 0, 1, 1, 0, 0, (1,))

    def test_rational_strings(self):
        assert rational("-3/4") == F(-3, 4)
        with pytest.raises(ValueError):
            rational("3/0")

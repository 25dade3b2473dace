"""Change-of-basis coefficients, eigenbasis matrices, block structure."""

from dataclasses import replace
from fractions import Fraction
from functools import cache
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tdpair import cob
from tdpair.exactfield import (
    LaurentSeries,
    ZeroDenominatorPochhammer,
    _inv_poch,
    binomial,
    is_zero,
    pochhammer,
    variable_t,
)
from tdpair.multiindex import (
    IndexOutOfRange,
    MultiIndex,
    Shape,
    enumerate_box,
    in_box,
    partial_sum,
)
from tdpair.cob import (
    COEFFICIENT_KINDS,
    StructureViolation,
    block_tridiagonal_form,
    cob_coefficient,
    coefficient_matrix,
    eigenbasis_matrix,
)
from tdpair.tdcore import (
    ExactMatrix,
    InvalidParameters,
    TDParameters,
    _content_lines,
    _lines,
    _terms,
    build_operator,
    eigenvalue,
    substituted_for_involution,
    uncleared,
)
from tdpair.verify import random_valid_parameters, run_suite

from matrix_ops import cleared, column, diagonal, identity, plant_off_diagonal
from operator_oracle import add, oracle_xi, shapes_to_18, sub, unit

F = Fraction


def _params_1d():
    return TDParameters(Shape((1,)), 0, 0, 1, 1, 0, 0, (1,))


def _params_2d():
    return TDParameters(
        Shape((1, 1)), F(1, 2), F(-1, 3), 2, 3, F(1, 3), F(1, 5), (F(1, 7), F(3, 11))
    )


def _params_21():
    return TDParameters(Shape((2, 1)), 0, 0, 1, 1, F(1, 3), F(1, 5), (F(1, 7), F(3, 11)))


def _params_3d():
    return random_valid_parameters(Shape((2, 1, 1)), 1)


def _swapped(params):
    # both halves of the involution substitution, each read off params:
    # the plain and starred spectra trade places
    lo = substituted_for_involution(params, starred=True)
    hi = substituted_for_involution(params, starred=False)
    return replace(
        lo, theta0_star=hi.theta0_star, h_star=hi.h_star, omega_star=hi.omega_star
    )


def _assert_mirrored(lhs, rhs, ell):
    # lhs[n, m] == rhs[ell - n, ell - m] for every pair in the box
    def flip(n):
        return tuple(ell[p] - n[p] for p in range(len(ell)))

    basis = lhs.basis
    for n in basis:
        for m in basis:
            assert lhs.entry(n, m) == rhs.entry(flip(n), flip(m)), (n, m)


class TestCoefficientValues:
    def test_single_coordinate(self):
        p = _params_1d()
        assert cob_coefficient(p, "C", (1,), (0,)) == -3
        assert cob_coefficient(p, "Cbar", (1,), (0,)) == 3
        assert cob_coefficient(p, "D", (0,), (1,)) == 1
        assert cob_coefficient(p, "Dbar", (0,), (1,)) == -1

    def test_two_coordinate_expansion(self):
        p = _params_2d()
        assert cob_coefficient(p, "C", (0, 1), (0, 0)) == F(-43, 22)
        assert cob_coefficient(p, "C", (1, 1), (0, 0)) == F(1241, 308)
        assert cob_coefficient(p, "Cbar", (1, 1), (0, 0)) == F(1241, 770)
        assert cob_coefficient(p, "D", (0, 0), (1, 0)) == F(-37, 42)
        assert cob_coefficient(p, "D", (1, 0), (1, 1)) == F(-53, 88)
        assert cob_coefficient(p, "Dbar", (0, 0), (1, 1)) == F(629, 1694)

    def test_unit_diagonal(self):
        p = _params_2d()
        for n in enumerate_box(p.shape):
            for kind in ("C", "Cbar", "D", "Dbar"):
                assert cob_coefficient(p, kind, n, n) == 1

    def test_out_of_support_is_zero(self):
        p = _params_2d()
        # C is supported on first >= second pointwise, D on first <= second
        assert cob_coefficient(p, "C", (0, 0), (1, 0)) == 0
        assert cob_coefficient(p, "C", (0, 1), (1, 0)) == 0
        assert cob_coefficient(p, "D", (1, 0), (0, 1)) == 0
        assert cob_coefficient(p, "Dbar", (1, 0), (0, 0)) == 0

    def test_out_of_box_rejected(self):
        with pytest.raises(IndexOutOfRange):
            cob_coefficient(_params_2d(), "C", (2, 0), (0, 0))
        with pytest.raises(IndexOutOfRange):
            cob_coefficient(_params_2d(), "C", (0, 0), (0, 2))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            cob_coefficient(_params_2d(), "E", (0, 0), (0, 0))
        with pytest.raises(ValueError):
            coefficient_matrix(_params_2d(), "E")


def _typed_rows(x):
    rows, den = x
    return (type(den), den), {r: {c: (type(v), v) for c, v in row.items()} for r, row in rows.items()}


def _assert_rows_are_the_cleared_tables(p):
    # the shared rows are `cleared` of each family's matrix, and the lines
    # the checks and the solve read from them are those of its entries
    for kind in COEFFICIENT_KINDS:
        x, m = cob._coefficient_rows(p, kind), coefficient_matrix(p, kind)
        assert _typed_rows(x) == _typed_rows(cleared(m)), kind
        for axis in (0, 1):
            dens, rows = _content_lines(x, axis)
            want_dens, want_rows = _lines(_terms(m.entries), axis)
            assert dens == want_dens and all(type(d) is int for d in dens.values()), (kind, axis)
            assert _typed_rows((rows, 1)) == _typed_rows((want_rows, 1)), (kind, axis)


class TestSharedTables:
    def test_writing_a_returned_matrix_changes_nothing(self):
        p = _params_21()
        before = {kind: coefficient_matrix(p, kind) for kind in COEFFICIENT_KINDS}
        for kind in COEFFICIENT_KINDS:
            m = coefficient_matrix(p, kind)
            m.entries[(0, 1)] = F(12345)
            assert coefficient_matrix(p, kind) == before[kind]
            m.entries.clear()
            assert coefficient_matrix(p, kind) == before[kind]
        assert run_suite(p).passed

    def test_writing_a_returned_matrix_leaves_the_cached_rows(self):
        p = _params_21()
        snapshot = {kind: _typed_rows(cob._coefficient_rows(p, kind)) for kind in COEFFICIENT_KINDS}
        forms = {which: block_tridiagonal_form(p, which) for which in cob.BLOCK_FORMS}
        for m in [coefficient_matrix(p, kind) for kind in COEFFICIENT_KINDS] + list(forms.values()):
            for key in list(m.entries):
                m.entries[key] += 1
            m.entries[(0, m.dimension - 1)] = F(12345)
        assert {kind: _typed_rows(cob._coefficient_rows(p, kind)) for kind in COEFFICIENT_KINDS} == snapshot
        for which, m in forms.items():
            assert block_tridiagonal_form(p, which) != m
        assert run_suite(p).passed

    @given(shapes_to_18(), st.integers(min_value=0, max_value=10**6))
    @example(Shape((3, 3, 2)), 1)
    @settings(max_examples=15, deadline=None)
    def test_rows_are_the_cleared_tables(self, shape, seed):
        _assert_rows_are_the_cleared_tables(random_valid_parameters(shape, seed))

    @pytest.mark.parametrize("free", ["omega", "omega_star", "a1"])
    def test_rows_are_the_cleared_tables_over_qt(self, free):
        p = random_valid_parameters(Shape((3, 2)), 1)
        t = variable_t()
        if free == "a1":
            p = replace(p, a=(p.a[0] + t, p.a[1]))
        else:
            p = replace(p, **{free: getattr(p, free) + t})
        _assert_rows_are_the_cleared_tables(p)
        # each family has a Q(t) numerator, so the type check has something to see
        assert all(
            any(type(v) is not int for row in cob._coefficient_rows(p, kind)[0].values() for v in row.values())
            for kind in (("C", "Cbar") if free != "omega_star" else ("D", "Dbar"))
        )


class TestMirrorSymmetry:
    """The lowering side is the raising side at the swapped parameter set,
    read through the flip n -> ell - n."""

    @pytest.mark.parametrize("params", [_params_2d(), _params_21(), _params_3d()])
    def test_lowering_family_mirrors_raising_family(self, params):
        # D[n,i] equals C[ell-n, ell-i] after omega -> -omega* - 2|ell|
        L = params.diameter
        mirrored = replace(params, omega=-params.omega_star - 2 * L)
        ell = params.ell
        for i in enumerate_box(params.shape):
            for n in enumerate_box(params.shape):
                flip_n = tuple(ell[p] - n[p] for p in range(params.N))
                flip_i = tuple(ell[p] - i[p] for p in range(params.N))
                assert cob_coefficient(params, "D", n, i) == cob_coefficient(
                    mirrored, "C", flip_n, flip_i
                )

    @pytest.mark.parametrize("params", [_params_2d(), _params_21(), _params_3d()])
    @pytest.mark.parametrize("lowering, raising", [("D", "C"), ("Dbar", "Cbar")])
    def test_lowering_tables_at_swapped_parameters(self, params, lowering, raising):
        _assert_mirrored(
            coefficient_matrix(params, lowering),
            coefficient_matrix(_swapped(params), raising),
            params.ell,
        )

    @pytest.mark.parametrize("params", [_params_2d(), _params_3d()])
    def test_plain_blocks_mirror_starred_blocks(self, params):
        _assert_mirrored(
            block_tridiagonal_form(params, "A_in_Vi"),
            block_tridiagonal_form(_swapped(params), "Astar_in_Vx"),
            params.ell,
        )


class TestMatrixIdentities:
    @pytest.mark.parametrize("params", [_params_1d(), _params_2d(), _params_21()])
    def test_forward_inverse_pairs(self, params):
        basis = enumerate_box(params.shape)
        I = identity(basis)
        assert coefficient_matrix(params, "C") @ coefficient_matrix(params, "Cbar") == I
        assert coefficient_matrix(params, "D") @ coefficient_matrix(params, "Dbar") == I

    @pytest.mark.parametrize("params", [_params_2d(), _params_21()])
    def test_columns_are_eigenvectors(self, params):
        basis = enumerate_box(params.shape)
        A = build_operator(params, "A")
        As = build_operator(params, "Astar")
        MC = eigenbasis_matrix(params, "A_basis")
        MD = eigenbasis_matrix(params, "Astar_basis")
        DT = diagonal(basis, lambda m: eigenvalue(params, m.weight))
        DTs = diagonal(basis, lambda m: eigenvalue(params, m.weight, starred=True))
        assert A @ MC == MC @ DT
        assert As @ MD == MD @ DTs

    def test_matrix_orientation_matches_scalar(self):
        p = _params_2d()
        m = coefficient_matrix(p, "D")
        for r in enumerate_box(p.shape):
            for c in enumerate_box(p.shape):
                assert m.entry(r, c) == cob_coefficient(p, "D", r, c)

    def test_lowering_basis_matrix_is_unit_upper(self):
        # in graded order the support n <= i puts every entry on or above
        # the diagonal, which back-substitution relies on
        p = _params_21()
        m = coefficient_matrix(p, "D")
        assert all(r <= c for (r, c) in m.entries)
        assert all(m.item(k, k) == 1 for k in range(m.dimension))

    def test_eigenbasis_validation(self):
        bad = TDParameters(Shape((1,)), 0, 0, 0, 1, 0, 0, (1,))
        with pytest.raises(InvalidParameters):
            eigenbasis_matrix(bad, "A_basis")
        with pytest.raises(ValueError):
            eigenbasis_matrix(_params_2d(), "B_basis")


class TestBlockTridiagonalForm:
    def test_lowering_operator_blocks(self):
        m = block_tridiagonal_form(_params_2d(), "Astar_in_Vx")
        n00, n01, n10, n11 = (MultiIndex(v) for v in ((0, 0), (0, 1), (1, 0), (1, 1)))
        assert column(m, n11) == {
            n01: F(-111, 35),
            n10: F(-318, 55),
            n11: F(1396189, 889350),
        }
        assert m.entry(n00, n00) == F(534221, 71148)
        assert m.entry(n00, n11) == 0

    def test_raising_operator_blocks(self):
        m = block_tridiagonal_form(_params_2d(), "A_in_Vi")
        n00, n01, n10, n11 = (MultiIndex(v) for v in ((0, 0), (0, 1), (1, 0), (1, 1)))
        assert column(m, n00) == {
            n00: F(673291, 106722),
            n01: F(172, 33),
            n10: F(146, 21),
        }
        assert m.entry(n01, n11) == F(58987805, 175308672)
        assert m.entry(n11, n00) == 0

    @pytest.mark.parametrize("which", ["Astar_in_Vx", "A_in_Vi"])
    def test_far_blocks_vanish(self, which):
        m = block_tridiagonal_form(_params_21(), which)
        for (r, c), v in m.entries.items():
            assert abs(m.basis[r].weight - m.basis[c].weight) <= 1 or v == 0

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            block_tridiagonal_form(_params_2d(), "A_in_Vx")

    def test_invalid_parameters_refused(self):
        bad = TDParameters(Shape((1,)), 0, 0, 1, 0, 0, 0, (1,))
        with pytest.raises(InvalidParameters):
            block_tridiagonal_form(bad, "Astar_in_Vx")

    def test_violation_carries_location(self):
        err = StructureViolation(
            MultiIndex((0, 1)), MultiIndex((1, 0)), F(1), F(2), detail="probe"
        )
        assert err.row == (0, 1)
        assert "probe" in str(err)


# ---------------------------------------------------------------------------
# oracles: the per-entry coefficient formulas and the five-term block formula
# written out on multi-indices, one Fraction operation at a time


def _oracle_C(params, n, x):
    ell, N, om = params.ell, params.N, params.omega
    tot = Fraction(1)
    for p in range(1, N + 1):
        b = binomial(n[p - 1], x[p - 1])
        if b == 0:
            return Fraction(0)
        base = (
            partial_sum(n, 1, p - 1)
            + partial_sum(x, 1, p)
            + partial_sum(ell, p, N)
            + params.a[p - 1]
            + om
            + 1
        )
        tot *= b * pochhammer(base, n[p - 1] - x[p - 1])
    d = sum(n) - sum(x)
    tot *= Fraction((-1) ** d)
    return tot / _inv_poch(2 * sum(x) + om + 1, d, "C global factor")


def _oracle_Cbar(params, x, n):
    ell, N, om = params.ell, params.N, params.omega
    tot = Fraction(1)
    for p in range(1, N + 1):
        b = binomial(x[p - 1], n[p - 1])
        if b == 0:
            return Fraction(0)
        base = (
            partial_sum(n, 1, p)
            + partial_sum(x, 1, p - 1)
            + partial_sum(ell, p, N)
            + params.a[p - 1]
            + om
            + 1
        )
        tot *= b * pochhammer(base, x[p - 1] - n[p - 1])
    d = sum(x) - sum(n)
    return tot / _inv_poch(sum(n) + sum(x) + om, d, "Cbar global factor")


def _oracle_coefficient(params, kind, first, second):
    if kind in ("D", "Dbar"):
        ell = params.ell
        first, second = (tuple(lp - v for lp, v in zip(ell, n)) for n in (first, second))
        params, kind = _swapped(params), {"D": "C", "Dbar": "Cbar"}[kind]
    return (_oracle_C if kind == "C" else _oracle_Cbar)(params, first, second)


def _oracle_star_blocks(params, mc, mcb):
    shape = params.shape
    N = shape.N
    basis = enumerate_box(shape)
    m = ExactMatrix(basis)

    def put(row, col, v):
        if is_zero(v):
            return
        key = (m.pos[MultiIndex(row)], m.pos[col])
        m.entries[key] = m.entries.get(key, Fraction(0)) + v
        if m.entries[key] == 0:
            del m.entries[key]

    def ths(j):
        return eigenvalue(params, j, starred=True)

    xs = cache(lambda n, p: oracle_xi(params, n, p, starred=True))
    cC, cCb = mc.entry, mcb.entry

    for x in basis:
        w = x.weight
        for p in range(1, N + 1):
            y = sub(x, unit(p, N))
            if in_box(y, shape):
                put(y, x, xs(y, p))
        for p in range(1, N + 1):
            y = add(x, unit(p, N))
            if in_box(y, shape):
                put(y, x, ths(w) * cCb(y, x) + ths(w + 1) * cC(y, x))
        put(x, x, ths(w))
        for p in range(1, N + 1):
            for q in range(1, N + 1):
                y = sub(add(x, unit(p, N)), unit(q, N))
                if not in_box(y, shape):
                    continue
                xmq = sub(x, unit(q, N))
                if in_box(xmq, shape):
                    put(y, x, xs(xmq, q) * cCb(y, xmq))
                xpp = add(x, unit(p, N))
                if in_box(xpp, shape):
                    put(y, x, xs(y, q) * cC(xpp, x))
        for p in range(1, N + 1):
            for q in range(1, N + 1):
                for r in range(q, N + 1):
                    y = sub(add(add(x, unit(q, N)), unit(r, N)), unit(p, N))
                    if not in_box(y, shape):
                        continue
                    top = add(add(x, unit(q, N)), unit(r, N))
                    for n in product(*[range(x[s], top[s] + 1) for s in range(N)]):
                        nm = sub(n, unit(p, N))
                        if not (in_box(n, shape) and in_box(nm, shape)):
                            continue
                        put(y, x, xs(nm, p) * cC(n, x) * cCb(y, nm))
    return m


def _typed(m):
    return {k: (type(v), v) for k, v in m.entries.items()}


def _oracle_star_rows(params, c, cbar):
    # the oracle on the kernel's signature: C and Cbar cleared in, the form
    # cleared out
    basis = enumerate_box(params.shape)
    return cleared(_oracle_star_blocks(params, uncleared(basis, c), uncleared(basis, cbar)))


def _assert_kernel_matches_oracle(params, kinds=COEFFICIENT_KINDS):
    basis = enumerate_box(params.shape)
    for kind in kinds:
        table = coefficient_matrix(params, kind)
        expect = {}
        for (r, first), (c, second) in product(enumerate(basis), repeat=2):
            v = _oracle_coefficient(params, kind, first, second)
            got = cob_coefficient(params, kind, first, second)
            assert (type(got), got) == (type(v), v), (kind, first, second)
            if v != 0:
                expect[(r, c)] = (type(v), v)
        assert _typed(table) == expect, kind


class TestCoefficientKernel:
    """The one table kernel against the per-entry product formulas."""

    @given(shapes_to_18(), st.integers(min_value=0, max_value=10**6))
    @example(Shape((2, 2, 1)), 1)
    @example(Shape((1, 1, 1, 1)), 2)
    @settings(max_examples=15, deadline=None)
    def test_tables_and_entries_match_the_oracle(self, shape, seed):
        _assert_kernel_matches_oracle(random_valid_parameters(shape, seed))

    @pytest.mark.parametrize("ell", [(2, 2, 1, 1), (3, 3, 2)])
    def test_rows_are_the_cleared_oracle_tables(self, ell):
        # the shared rows of each family against `cleared` of its per-entry
        # oracle table, types included; shapes_to_18 never reaches four
        # coordinates with some ell_p = 2, where every prefix branches
        p = random_valid_parameters(Shape(ell), 1)
        basis = enumerate_box(p.shape)
        cob._family_pair.cache_clear()
        for kind in COEFFICIENT_KINDS:
            entries = {}
            for (r, first), (c, second) in product(enumerate(basis), repeat=2):
                v = _oracle_coefficient(p, kind, first, second)
                if v != 0:
                    entries[(r, c)] = v
            want = cleared(ExactMatrix(basis, entries))
            assert _typed_rows(cob._coefficient_rows(p, kind)) == _typed_rows(want), kind

    @pytest.mark.parametrize("ell", [(3,), (2, 1)])
    def test_over_qt_at_the_hahn_limit_parameters(self, ell):
        # the parameters `limits` validates for its Hahn kind: omega = 1/t
        p = random_valid_parameters(Shape(ell), 1)
        t = variable_t()
        _assert_kernel_matches_oracle(replace(p, h=p.h * t, omega=1 / t))

    def test_a_lowering_entry_over_laurent_series(self):
        # one entry takes any parameter set, one over Laurent series too,
        # which no cache can key: the lowering side is the raising side at
        # the swapped parameters, read at ell - n
        p = random_valid_parameters(Shape((2, 1)), 1)
        q = replace(p, omega_star=LaurentSeries(-1, 1))
        for kind, mirror, first, second in (("D", "C", (0, 0), (1, 1)), ("Dbar", "Cbar", (1, 0), (2, 1))):
            got = cob_coefficient(q, kind, first, second)
            flipped = (tuple(lp - v for lp, v in zip(q.ell, n)) for n in (first, second))
            want = cob_coefficient(_swapped(q), mirror, *flipped)
            assert type(got) is LaurentSeries
            assert (got.val, Fraction(got.num, got.den)) == (want.val, Fraction(want.num, want.den))

    @pytest.mark.parametrize("kind", ["C", "Cbar"])
    def test_vanishing_global_factor_raises_where_the_oracle_does(self, monkeypatch, kind):
        # omega = -3 lies in the cond1 band {-5, ..., -1} of (2, 1)
        bad = replace(random_valid_parameters(Shape((2, 1)), 1), omega=-3)
        basis = enumerate_box(bad.shape)
        oracle = _oracle_C if kind == "C" else _oracle_Cbar
        expect = None
        for col in basis:
            for row in product(*[range(col[p], bad.ell[p] + 1) for p in range(bad.N)]):
                try:
                    oracle(bad, row, col)
                except ZeroDenominatorPochhammer as err:
                    expect = (err.k, err.detail, row, col)
                    break
            if expect:
                break
        assert expect is not None
        monkeypatch.setattr(cob, "_ensure_valid", lambda params: None)
        with pytest.raises(ZeroDenominatorPochhammer) as raised:
            if kind == "C":
                eigenbasis_matrix(bad, "A_basis")
            else:
                coefficient_matrix(bad, kind)
        assert (raised.value.k, raised.value.detail) == expect[:2]
        with pytest.raises(ZeroDenominatorPochhammer) as raised:
            cob_coefficient(bad, kind, *expect[2:])
        assert (raised.value.k, raised.value.detail) == expect[:2]


def _mirrored(m):
    # S M S: in graded order, the reversed positions
    last = m.dimension - 1
    return ExactMatrix(m.basis, {(last - r, last - c): v for (r, c), v in m.entries.items()})


def _oracle_conjugate(params, which):
    # fwd^-1 op fwd by a triangular solve: C is lower triangular in graded
    # order and its mirror upper triangular, so A* on V(x) is solved on the
    # mirrors
    if which == "Astar_in_Vx":
        fwd = coefficient_matrix(params, "C")
        rhs = _mirrored(build_operator(params, "Astar") @ fwd)
        return _mirrored(_mirrored(fwd).solve_upper_triangular(rhs))
    fwd = coefficient_matrix(params, "D")
    return fwd.solve_upper_triangular(build_operator(params, "A") @ fwd)


class TestFiveTermBlockFormula:
    """The block formula on basis positions against the same formula on
    multi-indices, term by term, and both forms against the conjugate by a
    triangular solve."""

    @given(shapes_to_18(), st.integers(min_value=0, max_value=10**6))
    @example(Shape((2, 2, 1)), 1)
    @example(Shape((1, 1, 1, 1)), 2)
    @settings(max_examples=15, deadline=None)
    def test_both_forms_match_the_oracle(self, shape, seed):
        _assert_both_forms_match_the_oracle(random_valid_parameters(shape, seed))

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("ell", [(1, 1, 1, 1, 1), (2, 1, 1, 1, 1), (1, 1, 1, 1, 1, 1)])
    def test_both_forms_match_the_oracle_at_five_and_six_coordinates(self, ell, seed):
        # shapes_to_18 stops at N = 4; the walk's deepest loops run over
        # every pair of coordinates and every third one
        _assert_both_forms_match_the_oracle(random_valid_parameters(Shape(ell), seed))

    @pytest.mark.parametrize("free", ["omega_star", "h_star"])
    def test_both_forms_match_the_oracle_over_qt(self, free):
        # theta* and xi* in Q(t): rational-function numerators in every term
        p = random_valid_parameters(Shape((2, 1, 1)), 1)
        t = variable_t()
        if free == "omega_star":
            p = replace(p, omega_star=p.omega_star + t)
        else:
            p = replace(p, h_star=p.h_star * t)
        _assert_both_forms_match_the_oracle(p)

    @given(shapes_to_18(), st.integers(min_value=0, max_value=10**6))
    @example(Shape((2, 2, 1)), 1)
    @settings(max_examples=15, deadline=None)
    def test_both_forms_are_the_solved_conjugate(self, shape, seed):
        p = random_valid_parameters(shape, seed)
        for which in cob.BLOCK_FORMS:
            assert _typed(block_tridiagonal_form(p, which)) == _typed(_oracle_conjugate(p, which))

    @pytest.mark.parametrize("kind, which", [("Cbar", "Astar_in_Vx"), ("Dbar", "A_in_Vi")])
    def test_planted_inverse_entry_gives_the_oracle_violation(self, monkeypatch, kind, which):
        _assert_planted_violation_is_the_oracles(monkeypatch, Shape((3, 2)), kind, which)

    @pytest.mark.parametrize("kind, which", [("Cbar", "Astar_in_Vx"), ("Dbar", "A_in_Vi")])
    @pytest.mark.parametrize("ell", [(2, 1, 1), (1, 1, 1, 1)])
    def test_planted_inverse_entry_gives_the_oracle_violation_above_two_coordinates(
        self, monkeypatch, ell, kind, which
    ):
        _assert_planted_violation_is_the_oracles(monkeypatch, Shape(ell), kind, which)


def _assert_both_forms_match_the_oracle(p):
    for params in (p, _swapped(p)):
        mc, mcb = coefficient_matrix(params, "C"), coefficient_matrix(params, "Cbar")
        got = uncleared(mc.basis, cob._star_block_rows(params, cleared(mc), cleared(mcb)))
        assert _typed(got) == _typed(_oracle_star_blocks(params, mc, mcb))


def _assert_planted_violation_is_the_oracles(monkeypatch, shape, kind, which):
    # a planted Cbar or Dbar entry: the kernel's StructureViolation is the
    # oracle kernel's, entry and both sides with their types
    p = random_valid_parameters(shape, 1)

    def violation():
        cob._family_pair.cache_clear()
        plant_off_diagonal(cob._coefficient_rows(p, kind))
        try:
            with pytest.raises(StructureViolation) as raised:
                block_tridiagonal_form(p, which)
        finally:
            cob._family_pair.cache_clear()
        e = raised.value
        return e.row, e.col, (type(e.lhs), e.lhs), (type(e.rhs), e.rhs)

    got = violation()
    monkeypatch.setattr(cob, "_star_block_rows", _oracle_star_rows)
    assert got == violation()


def _assert_block_rows_are_cleared_forms(p):
    operands = {"Astar_in_Vx": ("C", "Cbar", "Astar"), "A_in_Vi": ("D", "Dbar", "A")}
    for which, (fwd, inv, op) in operands.items():
        got = cob._block_form_rows(
            p, which, cleared(coefficient_matrix(p, fwd)), cleared(coefficient_matrix(p, inv)),
            cleared(build_operator(p, op)),
        )
        assert _typed_rows(got) == _typed_rows(cleared(block_tridiagonal_form(p, which))), which


class TestBlockFormRows:
    """The rows block_structure multiplies are the block form cleared: the
    same numerators over the same denominator, so the kernel's content
    division leaves no common factor behind."""

    @given(shapes_to_18(), st.integers(min_value=0, max_value=10**6))
    @example(Shape((3, 2)), 1)
    @settings(max_examples=15, deadline=None)
    def test_rows_are_the_cleared_form(self, shape, seed):
        _assert_block_rows_are_cleared_forms(random_valid_parameters(shape, seed))

    def test_over_qt_with_omega_star_free(self):
        p = random_valid_parameters(Shape((3, 2)), 1)
        _assert_block_rows_are_cleared_forms(replace(p, omega_star=p.omega_star + variable_t()))

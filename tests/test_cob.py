"""Change-of-basis coefficients, eigenbasis matrices, block structure."""

from dataclasses import replace
from fractions import Fraction

import pytest

from tdpair.multiindex import IndexOutOfRange, MultiIndex, Shape, enumerate_box
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
    build_operator,
    eigenvalue,
    substituted_for_involution,
)
from tdpair.verify import random_valid_parameters, run_suite

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
        I = ExactMatrix.identity(basis)
        assert coefficient_matrix(params, "C") @ coefficient_matrix(params, "Cbar") == I
        assert coefficient_matrix(params, "D") @ coefficient_matrix(params, "Dbar") == I

    @pytest.mark.parametrize("params", [_params_2d(), _params_21()])
    def test_columns_are_eigenvectors(self, params):
        basis = enumerate_box(params.shape)
        A = build_operator(params, "A")
        As = build_operator(params, "Astar")
        MC = eigenbasis_matrix(params, "A_basis")
        MD = eigenbasis_matrix(params, "Astar_basis")
        DT = ExactMatrix.diagonal(basis, lambda m: eigenvalue(params, m.weight))
        DTs = ExactMatrix.diagonal(basis, lambda m: eigenvalue(params, m.weight, starred=True))
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
        assert m.column(n11) == {
            n01: F(-111, 35),
            n10: F(-318, 55),
            n11: F(1396189, 889350),
        }
        assert m.entry(n00, n00) == F(534221, 71148)
        assert m.entry(n00, n11) == 0

    def test_raising_operator_blocks(self):
        m = block_tridiagonal_form(_params_2d(), "A_in_Vi")
        n00, n01, n10, n11 = (MultiIndex(v) for v in ((0, 0), (0, 1), (1, 0), (1, 1)))
        assert m.column(n00) == {
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

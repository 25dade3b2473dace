"""Acceptance criteria for the package, one test per criterion.

Each criterion sweeps seeded valid parameter draws and asserts exact
field equality; there are no tolerances anywhere.  The sweep instances
and their matrices are cached at module scope because several criteria
share them.
"""

from dataclasses import replace
from fractions import Fraction as F
from functools import lru_cache
from types import SimpleNamespace

from tdpair.cob import BLOCK_FORMS, block_tridiagonal_form, coefficient_matrix
from tdpair.exactfield import RationalFunction, limit_at_zero, variable_t
from tdpair.multiindex import Shape, enumerate_box, level_histogram, shape_profile
from tdpair.overlap import (
    overlap_T,
    overlap_U,
    overlap_limit_kind,
    overlap_table,
    univariate_t_racah,
    univariate_u_balanced,
    univariate_u_racah_normalized,
)
from tdpair.tdcore import (
    TDParameters,
    build_operator,
    eigenvalue,
)
from tdpair.verify import random_valid_parameters

from matrix_ops import all_zero, commutator, diagonal, identity, minus, off_diagonal_part, plus, scaled, transpose

SWEEP_SHAPES = (
    (1,),
    (2,),
    (3,),
    (4,),
    (1, 1),
    (2, 1),
    (2, 2),
    (3, 2),
    (1, 1, 1),
    (2, 1, 1),
)
DRAW_COUNT = 20


@lru_cache(maxsize=None)
def _instance(ell: tuple, seed: int) -> TDParameters:
    return random_valid_parameters(Shape(ell), seed=seed)


@lru_cache(maxsize=None)
def _mats(ell: tuple, seed: int) -> SimpleNamespace:
    params = _instance(ell, seed)
    basis = enumerate_box(params.shape)
    return SimpleNamespace(
        tag=f"shape={ell} seed={seed}",
        params=params,
        basis=basis,
        identity=identity(basis),
        A=build_operator(params, "A"),
        As=build_operator(params, "Astar"),
        MC=coefficient_matrix(params, "C"),
        MCb=coefficient_matrix(params, "Cbar"),
        MD=coefficient_matrix(params, "D"),
        MDb=coefficient_matrix(params, "Dbar"),
    )


def _sweep():
    for ell in SWEEP_SHAPES:
        for seed in range(DRAW_COUNT):
            yield _mats(ell, seed)


def test_criterion_01_eigen_structure():
    # A.C = C.diag(theta_|x|) and A*.D = D.diag(theta*_|i|), exactly
    for m in _sweep():
        p = m.params
        dt = diagonal(m.basis, lambda mi: eigenvalue(p, mi.weight))
        dts = diagonal(
            m.basis, lambda mi: eigenvalue(p, mi.weight, starred=True)
        )
        assert (m.A @ m.MC).first_difference(m.MC @ dt) is None, m.tag
        assert (m.As @ m.MD).first_difference(m.MD @ dts) is None, m.tag


def test_criterion_02_inverse_pairs():
    # C.Cbar = I and D.Dbar = I, exactly
    for m in _sweep():
        assert (m.MC @ m.MCb).first_difference(m.identity) is None, m.tag
        assert (m.MD @ m.MDb).first_difference(m.identity) is None, m.tag


def _cubic_combination(X, Y, beta, gamma, rho):
    # X^2 Y - beta X Y X + Y X^2 - gamma (XY + YX) - rho Y
    out = plus(minus(X @ X @ Y, scaled(X @ Y @ X, beta)), Y @ X @ X)
    return minus(minus(out, scaled(plus(X @ Y, Y @ X), gamma)), scaled(Y, rho))


def test_criterion_03_tridiagonal_relations_and_mutation():
    # both cubic relations vanish at beta = 2, gamma = 2h, gamma* = 2h*
    beta = F(2)
    for m in _sweep():
        p = m.params
        rho = p.h * (p.h * (p.omega**2 - 1) - 4 * p.theta0)
        rho_s = p.h_star * (p.h_star * (p.omega_star**2 - 1) - 4 * p.theta0_star)
        p1 = _cubic_combination(m.A, m.As, beta, 2 * p.h, rho)
        p2 = _cubic_combination(m.As, m.A, beta, 2 * p.h_star, rho_s)
        assert all_zero(commutator(m.A, p1)), m.tag
        assert all_zero(commutator(m.As, p2)), m.tag
    # mutating beta to 3 must break the relation on the reference instance
    ref = TDParameters(
        shape=Shape((1,)),
        theta0=F(1),
        theta0_star=F(1),
        h=F(1),
        h_star=F(1),
        omega=F(0),
        omega_star=F(0),
        a=(F(1),),
    )
    A = build_operator(ref, "A")
    As = build_operator(ref, "Astar")
    rho = ref.h * (ref.h * (ref.omega**2 - 1) - 4 * ref.theta0)
    good = _cubic_combination(A, As, F(2), 2 * ref.h, rho)
    mutated = _cubic_combination(A, As, F(3), 2 * ref.h, rho)
    assert all_zero(commutator(A, good))
    assert not all_zero(commutator(A, mutated))


def test_criterion_04_triple_commutator():
    # [R,[R,[R,L]]] = -6 h h* (4|n| + omega + omega* + 4) R^2, columnwise
    for m in _sweep():
        p = m.params
        R = off_diagonal_part(m.A)
        L = off_diagonal_part(m.As)
        lhs = commutator(R, commutator(R, commutator(R, L)))
        level_factor = diagonal(
            m.basis,
            lambda mi: -6
            * p.h
            * p.h_star
            * (4 * mi.weight + p.omega + p.omega_star + 4),
        )
        assert lhs.first_difference((R @ R) @ level_factor) is None, m.tag


def test_criterion_05_block_structure():
    # conjugated operators match the explicit block coefficients entrywise
    # and vanish between eigenspaces two or more levels apart
    for m in _sweep():
        for form in BLOCK_FORMS:
            mat = block_tridiagonal_form(m.params, form)
            for (r, c), v in mat.entries.items():
                gap = abs(mat.basis[r].weight - mat.basis[c].weight)
                assert gap <= 1 or v == 0, (m.tag, form)


def test_criterion_06_overlap_three_way_agreement():
    # every T route agrees, every U route agrees, on every (i, x);
    # and the A*-eigenbasis columns expand in the A-eigenbasis through T
    for m in _sweep():
        p = m.params
        t_ref = overlap_table(p, "T", "direct_sum")
        assert t_ref.first_difference(overlap_table(p, "T", "matrix_product")) is None, m.tag
        assert t_ref.first_difference(overlap_table(p, "T", "shift_operator")) is None, m.tag
        u_ref = overlap_table(p, "U", "direct_sum")
        assert u_ref.first_difference(overlap_table(p, "U", "shift_operator")) is None, m.tag
        assert u_ref.first_difference(overlap_table(p, "U", "linear_solve")) is None, m.tag
        assert m.MD.first_difference(m.MC @ transpose(t_ref)) is None, m.tag


def test_criterion_07_biorthogonality():
    # sum_x T_i(x) U_j(x) = delta_ij on the sweep
    for m in _sweep():
        mt = overlap_table(m.params, "T", "matrix_product")
        mu = overlap_table(m.params, "U", "linear_solve")
        assert (mt @ transpose(mu)).first_difference(m.identity) is None, m.tag
    # hand-checked single-coordinate tables
    hand = TDParameters(
        shape=Shape((1,)),
        theta0=F(0),
        theta0_star=F(0),
        h=F(1),
        h_star=F(1),
        omega=F(0),
        omega_star=F(0),
        a=(F(1),),
    )
    t_table = overlap_table(hand, "T", "direct_sum")
    u_table = overlap_table(hand, "U", "direct_sum")
    assert [[t_table.item(r, c) for c in range(2)] for r in range(2)] == [[1, 3], [1, 4]]
    assert [[u_table.item(r, c) for c in range(2)] for r in range(2)] == [[4, -1], [-3, 1]]


def test_criterion_08_racah_reduction():
    # at N = 1 the closed hypergeometric forms match the sums, and the
    # balanced and normalized U forms coincide, for ell <= 4
    for ell in (1, 2, 3, 4):
        for seed in range(5):
            p = _instance((ell,), seed)
            box = enumerate_box(p.shape)
            for i in box:
                for x in box:
                    tag = f"ell={ell} seed={seed} i={i} x={x}"
                    t_sum = overlap_T(p, i, x, "direct_sum")
                    u_sum = overlap_U(p, i, x, "direct_sum")
                    assert univariate_t_racah(p, i, x) == t_sum, tag
                    balanced = univariate_u_balanced(p, i, x)
                    normalized = univariate_u_racah_normalized(p, i, x)
                    assert balanced == normalized == u_sum, tag


def _limit_pairs(basis):
    pairs = [(i, x) for i in basis for x in basis]
    if len(basis) <= 6:
        return pairs
    step = max(1, len(pairs) // 12)
    return pairs[::step][:12]


def test_criterion_09_limits():
    # over the rational function field, h* -> h*t, omega* -> 1/t sends T to
    # the level-linear starred form at t = 0, and then h -> ht, omega -> 1/t
    # sends that form to the fully linear product
    t = variable_t()
    inv_t = RationalFunction((F(1),), (F(0), F(1)))
    for ell in SWEEP_SHAPES:
        if sum(ell) > 5:
            continue
        p = _instance(ell, 0)
        basis = enumerate_box(p.shape)
        hahn_side = replace(p, h_star=p.h_star * t, omega_star=inv_t)
        kraw_side = replace(p, h=p.h * t, omega=inv_t)
        for i, x in _limit_pairs(basis):
            tag = f"shape={ell} i={i} x={x}"
            lim = limit_at_zero(overlap_T(hahn_side, i, x, "direct_sum"))
            assert lim == overlap_limit_kind(p, "hahn", i, x), tag
            lim = limit_at_zero(overlap_limit_kind(kraw_side, "hahn", i, x))
            assert lim == overlap_limit_kind(p, "krawtchouk", i, x), tag


def test_criterion_10_shape_profile():
    # the character-formula profile counts the eigenspace dimensions and
    # reads the same in both directions
    extras = ((5,), (4, 3), (3, 3, 2), (2, 2, 2, 2), (1, 2, 3, 4, 5))
    for ell in SWEEP_SHAPES + extras:
        shape = Shape(ell)
        profile = shape_profile(shape)
        assert profile == level_histogram(shape), ell
        assert profile == tuple(reversed(profile)), ell
        assert sum(profile) == shape.dimension, ell

"""Per-entry oracles for xi, xi* and the operator assembly, the multi-index
arithmetic they and the coefficient-family oracles step with, and the shape
strategy shared by the property tests.

`oracle_xi` is the paper's formula in Fraction arithmetic with partial sums,
and `oracle_operator` assembles A, A*, R, L and S entry by entry from it, with
one `eigenvalue` call per basis element and unit vectors, box checks and
MultiIndex objects for every neighbour.  Neither shares code with the
int-pair kernel of `tdcore`, so they can check it.
"""

from fractions import Fraction
from math import prod

from hypothesis import strategies as st

from tdpair.multiindex import (
    IndexOutOfRange,
    MultiIndex,
    Shape,
    enumerate_box,
    in_box,
    partial_sum,
)
from tdpair.tdcore import ExactMatrix, eigenvalue


def unit(p, n_coords):
    """The unit tuple e_p (1-based coordinate p)."""
    if not 1 <= p <= n_coords:
        raise IndexOutOfRange(f"coordinate {p} outside 1..{n_coords}")
    return tuple(1 if q == p - 1 else 0 for q in range(n_coords))


def add(n, m):
    return tuple(a + b for a, b in zip(n, m, strict=True))


def sub(n, m):
    """Pointwise difference; entries may go negative (out of any box)."""
    return tuple(a - b for a, b in zip(n, m, strict=True))


@st.composite
def shapes_to_18(draw):
    # every shape of at most 4 coordinates and 18 basis elements; each ell_p
    # is drawn within the room the later coordinates leave (a factor of at
    # least 2 each), so no draw is filtered out
    n_coords = draw(st.integers(min_value=1, max_value=4))
    ell, room = [], 18
    for later in range(n_coords - 1, -1, -1):
        ell.append(draw(st.integers(min_value=1, max_value=room // 2**later - 1)))
        room //= ell[-1] + 1
    assert prod(v + 1 for v in ell) <= 18
    return Shape(tuple(ell))


def oracle_xi(params, n, p, starred=False):
    """xi_{n,p}  = h  (|n|_1^{p-1} + |n|_1^p + |ell|_p^N     + a_p + omega ) n_p
    xi*_{n,p} = h* (|n|_1^{p-1} + |n|_1^p + |ell|_{p+1}^N - a_p + omega*) (n_p - ell_p)"""
    shape = params.shape
    if not 1 <= p <= shape.N:
        raise IndexOutOfRange(f"coordinate {p} outside 1..{shape.N}")
    if not in_box(n, shape):
        raise IndexOutOfRange(f"index {tuple(n)} outside the box of {shape!r}")
    ell = shape.ell
    head = partial_sum(n, 1, p - 1) + partial_sum(n, 1, p)
    if starred:
        factor = head + partial_sum(ell, p + 1, shape.N) - params.a[p - 1] + params.omega_star
        return params.h_star * factor * (n[p - 1] - ell[p - 1])
    factor = head + partial_sum(ell, p, shape.N) + params.a[p - 1] + params.omega
    return params.h * factor * n[p - 1]


def oracle_operator(params, which):
    """A, A*, R, L or S over the graded box basis, entry by entry."""
    shape = params.shape
    basis = enumerate_box(shape)
    m = ExactMatrix(basis)
    N = shape.N
    if which == "S":
        for n in basis:
            mirrored = MultiIndex(sub(shape.ell, n))
            m.entries[(m.pos[mirrored], m.pos[n])] = Fraction(1)
        return m
    diagonal = which in ("A", "Astar")
    starred = which in ("Astar", "L")
    for n in basis:
        c = m.pos[n]
        if diagonal:
            v = eigenvalue(params, n.weight, starred=starred)
            if v != 0:
                m.entries[(c, c)] = v
        for p in range(1, N + 1):
            target = sub(n, unit(p, N)) if starred else add(n, unit(p, N))
            if not in_box(target, shape):
                continue
            coeff = oracle_xi(params, target, p, starred=starred)
            if coeff != 0:
                m.entries[(m.pos[MultiIndex(target)], c)] = coeff
    return m

"""ExactMatrix constructors, a transpose and entrywise sums, scalings and
commutators of ExactMatrix objects; a matrix cleared of denominators, its
typed view and a planted error in it.

The package proves its identities on matrices cleared of denominators
(`tdcore.cleared_product`, `cleared_combination`) and builds an
ExactMatrix only for a caller; the tests write their oracle words with
these.
"""

from fractions import Fraction

from tdpair.exactfield import over_common_denominator
from tdpair.tdcore import ExactMatrix, _rows


def identity(basis) -> ExactMatrix:
    return ExactMatrix(basis, dict.fromkeys(((k, k) for k in range(len(basis))), Fraction(1)))


def diagonal(basis, value_at) -> ExactMatrix:
    """diag(value_at(m)) over the basis elements m."""
    return ExactMatrix(basis, {(k, k): value_at(mi) for k, mi in enumerate(basis)})


def transpose(a: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(a.basis, {(c, r): v for (r, c), v in a.entries.items()})


def off_diagonal_part(a: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(a.basis, {k: v for k, v in a.entries.items() if k[0] != k[1]})


def cleared(m: ExactMatrix) -> tuple:
    """m cleared of denominators, (rows {r: {c: numerator}}, one
    denominator), as the package keeps its matrices; `tdcore.uncleared` is
    its inverse."""
    vals = m.entries.values()
    nums, den = over_common_denominator([v.numerator for v in vals], [v.denominator for v in vals])
    return _rows(zip(m.entries, nums)), den


def plus(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    a._check_same_basis(b)
    out = dict(a.entries)
    for k, v in b.entries.items():
        out[k] = out.get(k, Fraction(0)) + v
    return ExactMatrix(a.basis, out)


def minus(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    a._check_same_basis(b)
    out = dict(a.entries)
    for k, v in b.entries.items():
        out[k] = out.get(k, Fraction(0)) - v
    return ExactMatrix(a.basis, out)


def negated(a: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(a.basis, {k: -v for k, v in a.entries.items()})


def scaled(a: ExactMatrix, s) -> ExactMatrix:
    if s == 0:
        return ExactMatrix(a.basis)
    return ExactMatrix(a.basis, {k: s * v for k, v in a.entries.items()})


def commutator(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    return minus(a @ b, b @ a)


def all_zero(a: ExactMatrix) -> bool:
    return all(v == 0 for v in a.entries.values())


def column(a: ExactMatrix, col) -> dict:
    """Column col as {row index: value}, stored entries only."""
    c = a.pos[col]
    return {a.basis[r]: v for (r, cc), v in a.entries.items() if cc == c}


def typed_cleared(x: tuple):
    """A cleared matrix with the type of its denominator and of every
    numerator, for comparisons that must keep types."""
    rows, den = x
    return (type(den), den), {r: {c: (type(v), v) for c, v in row.items()} for r, row in rows.items()}


def plant_off_diagonal(x: tuple) -> tuple:
    """Add 1 to the first off-diagonal stored entry (r, c), in storage order,
    of the cleared matrix x = (rows, den), in place; return (r, c)."""
    rows, den = x
    r, c = min((r, c) for r, row in rows.items() for c in row if r != c)
    rows[r][c] += den
    return r, c

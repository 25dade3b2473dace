"""Multi-index tuples, the bounding box, and the graded enumeration order.

A multi-index is an N-tuple of nonnegative integers n = (n_1, ..., n_N)
bounded coordinatewise by a :class:`Shape` ell, i.e. 0 <= n_p <= ell_p.
Indices outside the box stand for the zero vector; that convention is
applied at the matrix-assembly layer (entries landing outside the box are
dropped), never by silently wrapping an index.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterable, Sequence

__all__ = [
    "IndexOutOfRange",
    "MultiIndex",
    "Shape",
    "partial_sum",
    "enumerate_box",
    "shape_profile",
    "level_histogram",
    "in_box",
    "format_multiindex",
]


class IndexOutOfRange(LookupError):
    """A coordinate position or index value fell outside its allowed range."""


class MultiIndex(tuple):
    """An N-tuple of nonnegative integers.

    Serialized as comma-separated entries in brackets, e.g. "[2,0,3]".
    """

    def __new__(cls, entries: Iterable[int]):
        vals = tuple(entries)
        for v in vals:
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise ValueError(f"multi-index entries must be nonnegative integers, got {v!r}")
        return super().__new__(cls, vals)

    @property
    def weight(self) -> int:
        """The total |n| = n_1 + ... + n_N."""
        return sum(self)

    def __repr__(self):
        return f"MultiIndex({tuple(self)!r})"


class Shape:
    """The coordinate bounds ell = (ell_1, ..., ell_N), all >= 1.

    A zero bound is rejected: a length-zero coordinate contributes nothing
    to the module and breaks the parameter constraints vacuously.
    """

    __slots__ = ("ell",)

    def __init__(self, ell: Sequence[int]):
        vals = tuple(ell)
        if len(vals) < 1:
            raise ValueError("shape needs at least one coordinate")
        for v in vals:
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"shape entries must be integers >= 1, got {v!r}")
        self.ell = vals

    @property
    def N(self) -> int:
        return len(self.ell)

    @property
    def diameter(self) -> int:
        """|ell|, the top level of the grading."""
        return sum(self.ell)

    @property
    def dimension(self) -> int:
        """Number of multi-indices in the box, prod(ell_p + 1)."""
        d = 1
        for v in self.ell:
            d *= v + 1
        return d

    def __eq__(self, other):
        return isinstance(other, Shape) and self.ell == other.ell

    def __hash__(self):
        return hash(("Shape", self.ell))

    def __repr__(self):
        return f"Shape({self.ell!r})"


def partial_sum(n: Sequence[int], j: int, k: int) -> int:
    """The partial sum |n|_j^k = n_j + ... + n_k (1-based, inclusive).

    Returns 0 when j > k.  Raises IndexOutOfRange when j < 1 or k > N;
    an empty range expressed within those bounds is fine.
    """
    if j < 1 or k > len(n):
        raise IndexOutOfRange(f"partial sum bounds ({j},{k}) outside 1..{len(n)}")
    if j > k:
        return 0
    return sum(n[j - 1 : k])


def enumerate_box(shape: Shape) -> list[MultiIndex]:
    """All multi-indices of the box in graded order.

    Ascending total weight |n|, ties broken lexicographically.  This is the
    storage order of every matrix in the package; blocks of constant |n|
    are contiguous.  A new list each call, read off a bounded per-shape
    cache (`_box`), so a caller that changes it changes nothing else.
    """
    return list(_box(shape))


@lru_cache(maxsize=16)
def _box(shape: Shape) -> tuple[MultiIndex, ...]:
    """`enumerate_box` as a tuple, built once per shape: read directly by
    the package's own callers, which never change it."""
    ranges = [range(v + 1) for v in shape.ell]
    return tuple(
        sorted(
            (MultiIndex(tup) for tup in product(*ranges)),
            key=lambda m: (m.weight, tuple(m)),
        )
    )


def shape_profile(shape: Shape) -> tuple[int, ...]:
    """Coefficients (rho_0, ..., rho_d) of prod_p (1 - y^(ell_p+1))/(1 - y).

    Computed by exact integer polynomial multiplication.  rho_i is the
    number of multi-indices of weight i; see level_histogram for the
    independent counting route.
    """
    coeffs = [1]
    for v in shape.ell:
        factor = [1] * (v + 1)
        out = [0] * (len(coeffs) + v)
        for ka, ca in enumerate(coeffs):
            for kb in range(v + 1):
                out[ka + kb] += ca * factor[kb]
        coeffs = out
    return tuple(coeffs)


def level_histogram(shape: Shape) -> tuple[int, ...]:
    """Number of box multi-indices at each weight 0..diameter, by counting."""
    counts = [0] * (shape.diameter + 1)
    for m in _box(shape):
        counts[m.weight] += 1
    return tuple(counts)


def in_box(n: Sequence[int], shape: Shape) -> bool:
    """Whether 0 <= n_p <= ell_p for every coordinate."""
    if len(n) != shape.N:
        return False
    return all(0 <= v <= b for v, b in zip(n, shape.ell))


def format_multiindex(n: Sequence[int]) -> str:
    return "[" + ",".join(str(v) for v in n) + "]"

"""Numeric matrix representations: value maps, blockwise lifts, bit reduction.

A matrix "stands for" a number: rho(m, A) sums the entries and divides by m.
The mu maps send numbers to constant/scalar matrices so that rho recovers
them, and lifting a matrix entrywise trades bigger dimension for smaller
entries while preserving rho.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matrix import Mat, MatrixError, Rat, as_rat


@dataclass(frozen=True)
class RepParams:
    """Valuation divisor m and target block shape p x q."""

    m: int
    p: int
    q: int

    def __post_init__(self):
        if self.m < 1 or self.p < 1 or self.q < 1:
            raise MatrixError(f"representation parameters must be positive: {self}")


def rho(m: int, a: Mat) -> Rat:
    """Matrix valuation: the sum of all entries divided by m."""
    if m < 1:
        raise MatrixError(f"valuation divisor must be positive, got {m}")
    return as_rat(Fraction(sum(a.nums), a.den * m))


def mu_const(params: RepParams, x: Rat) -> Mat:
    """Constant p x q matrix with every entry m*x/(p*q); rho(m, .) gives x back."""
    return Mat.constant(as_rat(Fraction(params.m) * x / (params.p * params.q)),
                        params.p, params.q)


def mu_int(n: int, x: int) -> Mat:
    """Integer as an n x n matrix: (x/n)*ones when n divides x, else x*I."""
    if n < 2:
        raise MatrixError(f"integer representation needs dimension > 1, got {n}")
    if not isinstance(x, int) or isinstance(x, bool):
        raise MatrixError(f"integer required, got {x!r}")
    if x % n == 0:
        return Mat.constant(x // n, n, n)
    return Mat.identity(n).scale(x)


def nu(n: int, x: Rat) -> Mat:
    """Number as the constant n-vector x*ones; rho(n, .) gives x back."""
    if n < 1:
        raise MatrixError(f"vector dimension must be positive, got {n}")
    return Mat.constant(as_rat(x), n, 1)


def lift(params: RepParams, a: Mat) -> Mat:
    """Replace every entry by its mu_const image, giving a (rows*p) x (cols*q) block matrix."""
    return Mat.from_blocks(
        [[mu_const(params, a.at(i, j)) for j in range(a.cols)] for i in range(a.rows)])


def lift_int(n: int, a: Mat) -> Mat:
    """Replace every integer entry by its mu_int image; preserves rho at divisor m*n."""
    if a.den != 1:
        raise MatrixError("entrywise integer lift needs integer entries")
    return Mat.from_blocks(
        [[mu_int(n, a.at(i, j)) for j in range(a.cols)] for i in range(a.rows)])


def to_bit_matrix(a: Mat) -> tuple[Mat, int]:
    """Reduce a natural matrix to a bit matrix by iterated lifting.

    Each round lifts with n = current max entry, which strictly decreases the
    max. Returns the bit matrix and the accumulated scale (product of the n's)
    with rho(m*scale, result) = rho(m, a) for every m.
    """
    if not a.is_natural():
        raise MatrixError("bit reduction is defined for natural matrices")
    scale = 1
    while a.max_entry() > 1:
        n = a.max_entry()
        a = lift_int(n, a)
        scale *= n
    return a, scale

"""Numeric matrix representations: value maps, blockwise lifts, bit reduction.

A matrix "stands for" a number: rho(m, A) sums the entries and divides by m.
``mu_const`` sends a number to a constant matrix so that rho recovers it,
and lifting a matrix entrywise trades bigger dimension for smaller entries
while preserving rho.

Every lift and expansion substitutes one block per entry. ``substitute``
does that for a whole matrix: it builds each distinct value's block rows
once, as int tuples, and each output row by concatenating them.
``lift_blocks`` gives a natural entry e its block after lifting by each of
a sequence of factors: (e/x)·J when a factor x divides e, else e·I, composed
along the sequence. ``lift_factors`` predicts that sequence for iterated
lifting from the entry set, so a bit reduction builds its final matrix in
one pass.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import prod

from .matrix import Mat, MatrixError, Rat, Record, as_rat


class RepParams(Record):
    """Valuation divisor m and target block shape p x q."""

    __slots__ = ("m", "p", "q")

    def __init__(self, m: int, p: int, q: int):
        __class__._set_m(self, m)
        __class__._set_p(self, p)
        __class__._set_q(self, q)
        if m < 1 or p < 1 or q < 1:
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


def lift(params: RepParams, a: Mat) -> Mat:
    """Replace every entry by its mu_const image, giving a (rows*p) x (cols*q) block matrix."""
    return Mat.from_blocks(
        [[mu_const(params, a.at(i, j)) for j in range(a.cols)] for i in range(a.rows)])


def substitute(a: Mat, block_of, p: int, q: int) -> Mat:
    """``a`` with every entry e replaced by the p x q int block ``block_of(e)``.

    This is the one kernel behind every lift and expansion. ``block_of``
    returns its block as a list of p row tuples of q ints, and the kernel
    calls it once per distinct entry value. Then each output row is the
    concatenation of one row of each block along a source row, so the
    result costs one ``Mat._derived`` and no ``Mat`` per entry.
    (Blocks are lists, built by comprehensions: ``tuple(generator)``
    resizes its result, which leaves one small tuple on CPython's free
    list per call and grew the resident size of long runs.)
    """
    blocks = {}
    out = []
    nums, c = a.nums, a.cols
    for i in range(0, len(nums), c):
        row = []
        for num in nums[i:i + c]:
            block = blocks.get(num)
            if block is None:
                block = blocks[num] = block_of(a._rat(num))
            row.append(block)
        # the r-th output row joins row r of each block
        out.extend(chain.from_iterable(chain.from_iterable(zip(*row))))
    return Mat._derived(a.rows * p, a.cols * q, out)


def lift_factors(values) -> tuple[int, ...]:
    """The factors that iterated lifting by the largest entry takes, from the
    set of natural entry values alone.

    A lift by x maps an entry e to a block of e/x when x divides e, and
    else to e·I. So the next entry set is {e/x : x | e} ∪ {e : x ∤ e},
    plus the 0s off the diagonal of e·I. A 0 is divisible by every factor
    and never the largest entry, so it cannot change a later factor, and
    the set leaves it out. Lifting stops once no entry exceeds 1.
    """
    values = set(values)
    factors = []
    while values and max(values) > 1:
        x = max(values)
        values = {e // x if e % x == 0 else e for e in values}
        factors.append(x)
    return tuple(factors)


def lift_blocks(factors):
    """``block_of`` for ``substitute``: an entry's block after lifting by each
    of ``factors`` in turn (square, with the product of the factors as side).

    One lift by x maps e to (e/x)·J when x divides e, else to e·I, and a
    later lift maps each entry of that block on. So e's block is
    J_x ⊗ B(e/x) or I_x ⊗ B(e), with B the block of the remaining factors.
    """
    memo = {}

    def block(e, i=0):
        key = (e, i)
        if key not in memo:
            if i == len(factors):
                memo[key] = [(e,)]
            else:
                x = factors[i]
                if e % x == 0:
                    inner = block(e // x, i + 1)
                    memo[key] = [row * x for row in inner] * x
                else:
                    inner = block(e, i + 1)
                    m = len(inner)
                    memo[key] = [(0,) * (k * m) + row + (0,) * ((x - 1 - k) * m)
                                 for k in range(x) for row in inner]
        return memo[key]

    return block


def to_bit_matrix(a: Mat) -> tuple[Mat, int]:
    """Reduce a natural matrix to a bit matrix by iterated lifting.

    Each round lifts with n = current max entry, which strictly decreases the
    max. The rounds' factors come from ``lift_factors`` and the bit matrix
    from their composed blocks in one pass. Returns the bit matrix and the
    accumulated scale (product of the n's) with rho(m*scale, result) =
    rho(m, a) for every m.
    """
    if not a.is_natural():
        raise MatrixError("bit reduction is defined for natural matrices")
    factors = lift_factors(a.nums)
    if not factors:
        return a, 1
    scale = prod(factors)
    return substitute(a, lift_blocks(factors), scale, scale), scale

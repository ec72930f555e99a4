import random
from fractions import Fraction

import pytest

from matint import (BlockShape, Interpretation, LinearFunc, Mat, MatrixError,
                    RepParams, catalog, jordan, lift, mu_const, parse_matrix, rho,
                    to_bit_matrix)
from matint.represent import lift_blocks, substitute
from matint.transform import _substitute
from _reference import from_rows
from _helpers import rand_nat_mat, rand_rat, rand_rat_mat


# The paper's integer maps, as the transforms compute them: mu_int is the
# one-factor lift block, nu a lifted constant, and the integer lift
# substitutes mu_int's block for every entry.

def mu_int(n, x):
    return from_rows(lift_blocks((n,))(x))


def nu(n, x):
    interp = Interpretation(BlockShape(1, 1), "natural",
                            {"c": LinearFunc((), Mat.column([x]))})
    return _substitute(interp, lift_blocks((n,)), n, n).table["c"].const


def lift_int(n, a):
    return substitute(a, lift_blocks((n,)), n, n)


def test_rho_examples():
    assert rho(2, jordan(2)) == Fraction(1, 2)
    assert rho(5, Mat.zero(3, 4)) == 0
    q_half = catalog("quarters").table[Fraction(1, 2)]
    assert rho(4, q_half) == Fraction(1, 2)
    with pytest.raises(MatrixError):
        rho(0, Mat.zero(2))


def test_mu_const_examples():
    assert mu_const(RepParams(3, 3, 3), 3) == Mat.ones(3)
    assert mu_const(RepParams(1, 1, 1), 7) == parse_matrix("[7]")
    with pytest.raises(MatrixError, match=r"positive: RepParams\(m=0, p=1, q=1\)$"):
        RepParams(0, 1, 1)
    rng = random.Random(1)
    for _ in range(100):
        x = rand_rat(rng)
        assert rho(3 * 1, mu_const(RepParams(3, 3, 3), x)) == rho(1, Mat(1, 1, (x,)))


def test_mu_int_examples():
    assert mu_int(2, 4) == parse_matrix("[2 2 ; 2 2]")
    assert mu_int(2, 2) == Mat.ones(2)
    assert mu_int(3, 2) == Mat.identity(3).scale(2)
    assert rho(3, mu_int(3, -4)) == -4      # negative integers permitted
    assert mu_int(1, 5) == parse_matrix("[5]")


def test_nu_examples():
    assert nu(2, 2) == Mat.column([2, 2])
    assert nu(4, 0) == Mat.zero(4, 1)
    assert rho(2, nu(2, 5)) == 5


def test_lift_example_three():
    lifted = lift(RepParams(3, 3, 3), parse_matrix("[3 0 ; 0 3]"))
    assert lifted.shape == (6, 6)
    assert lifted.block(0, 0, 3, 3) == Mat.ones(3)
    assert lifted.block(1, 1, 3, 3) == Mat.ones(3)
    assert lifted.block(0, 1, 3, 3) == Mat.zero(3)
    assert lifted.is_bit()


def test_lift_degenerate_and_rho():
    rng = random.Random(2)
    a = rand_rat_mat(rng, 3, 2)
    assert lift(RepParams(1, 1, 1), a) == a
    # value preservation: rho_{m n}(lift with divisor m) = rho_n(A)
    for _ in range(100):
        a = rand_nat_mat(rng, rng.randint(1, 4), rng.randint(1, 4))
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        assert rho(m * n, lift(RepParams(m, p, q), a)) == rho(n, a)


def test_lift_int_examples():
    lifted = lift_int(2, parse_matrix("[1 2 ; 0 0]"))
    assert lifted == Mat.from_blocks([[Mat.identity(2), Mat.ones(2)],
                                      [Mat.zero(2), Mat.zero(2)]])
    assert lift_int(2, parse_matrix("[0]")) == Mat.zero(2)


def test_lift_int_decreases_max():
    rng = random.Random(3)
    for _ in range(200):
        a = rand_nat_mat(rng, rng.randint(1, 3), rng.randint(1, 3))
        n = a.max_entry()
        if n <= 1:
            continue
        lifted = lift_int(n, a)
        assert lifted.max_entry() < n
        for m in (1, 2, 5):
            assert rho(m * n, lifted) == rho(m, a)


def test_to_bit_matrix_example_three():
    bit, scale = to_bit_matrix(parse_matrix("[3 0 ; 0 3]"))
    assert scale == 3 and bit.shape == (6, 6)
    assert bit.block(0, 0, 3, 3) == Mat.ones(3)
    assert bit.block(1, 0, 3, 3) == Mat.zero(3)


def test_to_bit_matrix_trivial_and_two_rounds():
    a = Mat.identity(2)
    assert to_bit_matrix(a) == (a, 1)
    # reductions n=3 then n=2 give a (2*3*2)-square result at scale 6
    bit, scale = to_bit_matrix(parse_matrix("[2 3 ; 0 1]"))
    assert scale == 6
    assert bit.shape == (12, 12)
    assert bit.is_bit()
    assert rho(6, bit) == rho(1, parse_matrix("[2 3 ; 0 1]")) == 6


def test_to_bit_matrix_rejects_rationals():
    with pytest.raises(MatrixError):
        to_bit_matrix(parse_matrix("[1/2]"))


def test_representation_identity_random():
    rng = random.Random(4)
    for _ in range(300):
        params = RepParams(rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6))
        x = rand_rat(rng)
        assert rho(params.m, mu_const(params, x)) == x


def test_additivity_and_scaling():
    rng = random.Random(5)
    for _ in range(300):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = rng.randint(1, 6)
        a, b = rand_rat_mat(rng, r, c), rand_rat_mat(rng, r, c)
        assert rho(m, a + b) == rho(m, a) + rho(m, b)
        alpha = rand_rat(rng)
        assert rho(m, a.scale(alpha)) == alpha * rho(m, a)


def test_product_preservation_constant_and_scalar():
    rng = random.Random(6)
    for _ in range(200):
        p, q, r = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = rand_rat_mat(rng, p, q)
        b = Mat.constant(rand_rat(rng), q, r)
        assert rho(p, a * b) == rho(p, a) * rho(q, b)
        a2 = Mat.constant(rand_rat(rng), p, q)
        b2 = rand_rat_mat(rng, q, r)
        assert rho(p, a2 * b2) == rho(p, a2) * rho(q, b2)
    for _ in range(200):
        p, q = rng.randint(1, 5), rng.randint(1, 5)
        a = rand_rat_mat(rng, p, q)
        b = Mat.identity(q).scale(rand_rat(rng))     # scalar, q <= r with r = q
        assert rho(p, a * b) == rho(p, a) * rho(q, b)


def test_product_preservation_additive_combination():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        a = rand_rat_mat(rng, n, n)
        b = Mat.constant(rand_rat(rng), n) + Mat.identity(n).scale(rand_rat(rng))
        expected = rho(n, a) * rho(n, b)
        assert rho(n, a * b) == expected
        assert rho(n, b * a) == expected


def test_product_preservation_fails_for_general_b():
    # preconditions are necessary: a general B breaks the product rule
    a = parse_matrix("[1 0 ; 0 0]")
    b = parse_matrix("[0 0 ; 0 1]")
    assert rho(2, a * b) == 0
    assert rho(2, a) * rho(2, b) == Fraction(1, 4)


def test_lift_product_compatibility():
    # the product identity needs the inner block dimension to equal the divisor
    rng = random.Random(8)
    for _ in range(200):
        s, t, u = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        n = rng.randint(1, 3)
        p, r = rng.randint(1, 3), rng.randint(1, 3)
        m = rng.randint(1, 4)
        a, b = rand_nat_mat(rng, s, t, 5), rand_nat_mat(rng, t, u, 5)
        la = lift(RepParams(n, p, n), a)
        lb = lift(RepParams(n, n, r), b)
        assert rho(m * n, la * lb) == rho(m, a * b)
        assert rho(m * n, la + lift(RepParams(n, p, n), b)) == rho(m, a) + rho(m, b) \
            if a.shape == b.shape else True


def test_bit_reduction_strictly_decreases():
    # entries <= 9 on single-row/column shapes, <= 4 on 2x2: keeps the
    # iterated dimension growth (product of successive maxima) bounded
    rng = random.Random(9)
    for i in range(100):
        if i % 2:
            r, c = (1, rng.randint(1, 2)) if i % 4 == 1 else (rng.randint(1, 2), 1)
            a = rand_nat_mat(rng, r, c, 9)
        else:
            a = rand_nat_mat(rng, 2, 2, 4)
        maxes = [a.max_entry()]
        current = a
        while current.max_entry() > 1:
            current = lift_int(current.max_entry(), current)
            maxes.append(current.max_entry())
        assert all(x > y for x, y in zip(maxes, maxes[1:]))
        assert current.is_bit()

import random
from fractions import Fraction

import pytest

from matint import (Cmp, Mat, MatrixError, cmp_entrywise, format_matrix, jordan,
                    parse_matrix, parse_rat)
from matint.matrix import as_rat, strip_comment

J2 = jordan(2)


def test_parse_rat():
    assert parse_rat("3") == 3
    assert parse_rat("-2") == -2
    assert parse_rat("1/2") == Fraction(1, 2)
    assert parse_rat("4/2") == 2 and isinstance(parse_rat("4/2"), int)
    with pytest.raises(MatrixError):
        parse_rat("1.5")
    with pytest.raises(MatrixError):
        parse_rat("1/0")


def test_as_rat_rejects_floats_and_bools():
    with pytest.raises(MatrixError):
        as_rat(0.5)
    with pytest.raises(MatrixError):
        as_rat(True)
    assert as_rat(Fraction(6, 3)) == 2 and isinstance(as_rat(Fraction(6, 3)), int)


def test_matrix_literal_roundtrip():
    m = parse_matrix("[1 1/2 ; 0 3]")
    assert m.shape == (2, 2)
    assert m.at(0, 1) == Fraction(1, 2)
    assert parse_matrix(format_matrix(m)) == m
    with pytest.raises(MatrixError):
        parse_matrix("1 2 ; 3 4")
    with pytest.raises(MatrixError):
        parse_matrix("[1 2 ; 3]")
    with pytest.raises(MatrixError):
        parse_matrix("[]")


def test_strip_comment_keeps_sharp_symbols():
    assert strip_comment("interp f# : 1") == "interp f# : 1"
    assert strip_comment("delta 1/2   # optional") == "delta 1/2   "
    assert strip_comment("# whole line") == ""


def test_add():
    assert parse_matrix("[1 1 ; 1 1]") + parse_matrix("[0 1 ; 0 0]") \
        == parse_matrix("[1 2 ; 1 1]")
    a = parse_matrix("[2 3 ; 5 7]")
    assert a + Mat.zero(2, 2) == a
    assert J2 + J2.transpose() == parse_matrix("[0 1 ; 1 0]")
    with pytest.raises(MatrixError):
        a + Mat.zero(2, 3)


def test_mul():
    assert J2 * J2 == Mat.zero(2)                      # nilpotency of J_2
    a = parse_matrix("[2 3 ; 5 7]")
    assert Mat.identity(2) * a == a
    assert J2 * J2.transpose() == parse_matrix("[1 0 ; 0 0]")
    with pytest.raises(MatrixError):
        a * Mat.zero(3, 2)


def test_scale_and_pow():
    assert parse_matrix("[1 2]").scale(Fraction(1, 2)) == parse_matrix("[1/2 1]")
    assert J2 ** 2 == Mat.zero(2)
    assert J2 ** 0 == Mat.identity(2)


def test_cmp_entrywise_examples():
    # F1*f1 vs F1*g1*f1 recomputed from the dim-2 natural interpretation
    assert cmp_entrywise(parse_matrix("[2 2 ; 1 1]"),
                         parse_matrix("[1 1 ; 0 0]")) is Cmp.GT
    a = parse_matrix("[2 2 ; 1 1]")
    assert cmp_entrywise(a, a) is Cmp.GE
    assert cmp_entrywise(parse_matrix("[2 2 ; 2 2]"),
                         parse_matrix("[3 0 ; 0 0]")) is Cmp.INCOMPARABLE
    with pytest.raises(MatrixError):
        cmp_entrywise(a, Mat.zero(3, 3))


def test_cmp_transitivity_on_comparable_triples():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 4)
        c = Mat(n, n, tuple(rng.randint(0, 5) for _ in range(n * n)))
        b = c + Mat(n, n, tuple(rng.randint(0, 3) for _ in range(n * n)))
        a = b + Mat(n, n, tuple(rng.randint(0, 3) for _ in range(n * n)))
        assert cmp_entrywise(a, b) in (Cmp.GE, Cmp.GT)
        assert cmp_entrywise(b, c) in (Cmp.GE, Cmp.GT)
        assert cmp_entrywise(a, c) in (Cmp.GE, Cmp.GT)


def test_jordan_construction():
    assert jordan(2, 1) == parse_matrix("[0 1 ; 0 0]")
    for n in (1, 3, 5):
        assert jordan(n, 0) == Mat.identity(n)
    j42 = jordan(4, 2)
    assert j42.at(0, 2) == 1 and j42.at(1, 3) == 1
    assert j42.sum_entries() == 2
    assert j42 == jordan(4, 1) * jordan(4, 1)
    assert jordan(3, 3) == Mat.zero(3)
    assert jordan(3, 7) == Mat.zero(3)


def test_jordan_shift_equals_repeated_product():
    for n in range(1, 9):
        acc = Mat.identity(n)
        for p in range(n + 1):
            assert jordan(n, p) == acc
            acc = acc * jordan(n, 1)


def test_jordan_power_nilpotency():
    for n in range(1, 9):
        for p in range(1, n):
            a = jordan(n, p)
            k = -(-n // p)  # ceil(n/p)
            assert a ** k == Mat.zero(n)


def test_exact_arithmetic():
    rng = random.Random(13)
    for _ in range(200):
        r, c = rng.randint(1, 4), rng.randint(1, 4)
        a = Mat(r, c, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                            for _ in range(r * c)))
        b = Mat(r, c, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                            for _ in range(r * c)))
    for _ in range(100):
        n = rng.randint(1, 4)
        a = Mat(n, n, tuple(rng.randint(-9, 9) for _ in range(n * n)))
        b = Mat(n, n, tuple(rng.randint(-9, 9) for _ in range(n * n)))
        assert all(isinstance(e, int) for e in (a * b).entries)


def test_blocks_and_from_blocks():
    m = Mat.from_blocks([[Mat.identity(2), Mat.ones(2)],
                         [Mat.zero(2), jordan(2)]])
    assert m.shape == (4, 4)
    assert m.block(0, 1, 2, 2) == Mat.ones(2)
    assert m.block(1, 1, 2, 2) == jordan(2)
    with pytest.raises(MatrixError):
        Mat.from_blocks([[Mat.identity(2), Mat.identity(3)]])


def test_mat_validation():
    with pytest.raises(MatrixError):
        Mat(2, 2, (1, 2, 3))
    with pytest.raises(MatrixError):
        Mat(0, 1, ())
    with pytest.raises(MatrixError):
        Mat(1, 1, (0.5,))

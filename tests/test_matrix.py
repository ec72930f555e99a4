import copy
import pickle
import random
from fractions import Fraction
from math import gcd

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


# --- the representation: int numerators over one canonical denominator ---

def _rand_entries(rng, count):
    """Mixed denominators, negatives, integral Fractions and all-zero draws."""
    if rng.random() < 0.1:
        return [0] * count
    out = []
    for _ in range(count):
        d = rng.choice((1, 1, 2, 3, 4, 6, 7))
        k = rng.randint(-9, 9)
        out.append(Fraction(k * d, d) if rng.random() < 0.2 else Fraction(k, d))
    return out


class Ref:
    """Plain-Fraction reference matrix."""

    def __init__(self, rows, cols, entries):
        self.rows, self.cols = rows, cols
        self.e = [Fraction(x) for x in entries]

    def at(self, i, j):
        return self.e[i * self.cols + j]

    def mat(self):
        return Mat(self.rows, self.cols, tuple(self.e))

    def __add__(self, o):
        return Ref(self.rows, self.cols, [x + y for x, y in zip(self.e, o.e)])

    def __mul__(self, o):
        return Ref(self.rows, o.cols, [sum(self.at(i, k) * o.at(k, j) for k in range(self.cols))
                                       for i in range(self.rows) for j in range(o.cols)])

    def scale(self, x):
        return Ref(self.rows, self.cols, [e * x for e in self.e])

    def transpose(self):
        return Ref(self.cols, self.rows,
                   [self.at(i, j) for j in range(self.cols) for i in range(self.rows)])

    def column_sums(self):
        return [sum(self.e[j::self.cols]) for j in range(self.cols)]


def _rand_ref(rng, rows, cols):
    return Ref(rows, cols, _rand_entries(rng, rows * cols))


def _assert_canonical(m: Mat, ref: Ref):
    assert m.shape == (ref.rows, ref.cols)
    assert m.den >= 1 and gcd(m.den, *m.nums) == 1
    assert m.entries == tuple(ref.e)
    assert all(type(e) is (int if Fraction(e).denominator == 1 else Fraction)
               for e in m.entries)
    assert all(type(e) is int for e in m.nums)
    assert m == ref.mat() and hash(m) == hash(ref.mat())


def test_operations_match_fraction_reference():
    rng = random.Random(29)
    for _ in range(300):
        r, k, c = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
        a, a2, b = _rand_ref(rng, r, k), _rand_ref(rng, r, k), _rand_ref(rng, k, c)
        ma, ma2, mb = a.mat(), a2.mat(), b.mat()
        _assert_canonical(ma, a)
        _assert_canonical(ma + ma2, a + a2)
        _assert_canonical(ma * mb, a * b)
        x = _rand_entries(rng, 1)[0]
        _assert_canonical(ma.scale(x), a.scale(x))
        _assert_canonical(x * ma, a.scale(x))
        _assert_canonical(ma.transpose(), a.transpose())
        assert ma.column_sums() == tuple(a.column_sums())
        assert ma.sum_entries() == sum(a.e)
        assert all(type(s) is int for s in ma.column_sums() if s.denominator == 1)
        assert ma.is_zero() == all(e == 0 for e in a.e)
        # the entrywise order across different denominators
        up = a + Ref(r, k, [abs(e) for e in _rand_entries(rng, r * k)])
        for x, y in ((up, a), (a, up), (a, a2)):
            want = (Cmp.INCOMPARABLE if any(p < q for p, q in zip(x.e, y.e)) else
                    Cmp.GT if x.e[0] > y.e[0] else Cmp.GE)
            assert cmp_entrywise(x.mat(), y.mat()) is want
        # a p x q block grid of blocks with their own denominators
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        heights = [rng.randint(1, 2) for _ in range(p)]
        widths = [rng.randint(1, 2) for _ in range(q)]
        grid = [[_rand_ref(rng, h, w) for w in widths] for h in heights]
        whole = Ref(sum(row[0].rows for row in grid), sum(blk.cols for blk in grid[0]),
                    [e for row in grid for i in range(row[0].rows)
                     for blk in row for e in blk.e[i * blk.cols:(i + 1) * blk.cols]])
        m = Mat.from_blocks([[blk.mat() for blk in row] for row in grid])
        _assert_canonical(m, whole)
        # equal-shaped blocks read back through block()
        if len(set(heights)) == 1 and len(set(widths)) == 1:
            for i in range(p):
                for j in range(q):
                    _assert_canonical(m.block(i, j, heights[0], widths[0]), grid[i][j])


def test_equal_values_are_equal_mats():
    assert Mat(1, 2, (Fraction(2, 2), 0)) == Mat(1, 2, (1, 0))
    assert hash(Mat(1, 2, (Fraction(2, 2), 0))) == hash(Mat(1, 2, (1, 0)))
    assert Mat(1, 2, (Fraction(2, 2), 0)).den == 1
    half = Mat(1, 2, (Fraction(1, 2), Fraction(1, 2)))
    assert half.den == 2 and half.nums == (1, 1)
    # sums and products that clear every denominator come back with den 1
    assert half + half == Mat(1, 2, (1, 1)) and (half + half).den == 1
    assert half.scale(2) == Mat.ones(1, 2) and half.scale(2).den == 1
    assert Mat(1, 1, (Fraction(2, 3),)) * Mat(1, 1, (Fraction(3, 2),)) == Mat.identity(1)
    third = Mat(1, 2, (Fraction(1, 3), Fraction(-1, 3)))
    assert (third + third.scale(-1)).den == 1 and (third + third.scale(-1)).is_zero()
    assert third.scale(-1) + third == Mat.zero(1, 2)
    assert len({half + half, Mat.ones(1, 2), Mat(1, 2, (Fraction(4, 4), 1))}) == 1
    assert half != Mat.ones(1, 2) and half != Mat(2, 1, (Fraction(1, 2),) * 2)
    assert "entries=(Fraction(1, 2), Fraction(1, 2))" in repr(half)


def test_mat_is_immutable():
    m = Mat(1, 2, (Fraction(1, 2), 3))
    for name, value in (("den", 1), ("nums", (1, 3)), ("rows", 2), ("entries", (1, 1)),
                        ("extra", 0)):
        with pytest.raises(AttributeError):
            setattr(m, name, value)
    with pytest.raises(AttributeError):
        del m.den
    assert m.entries == (Fraction(1, 2), 3) and m.den == 2 and m.nums == (1, 6)
    for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert twin == m and twin.entries == m.entries


def test_mat_rejects_inexact_entries():
    with pytest.raises(MatrixError):
        Mat(1, 1, (0.5,))
    with pytest.raises(MatrixError):
        Mat(1, 1, (True,))
    with pytest.raises(MatrixError):
        Mat(1, 2, (1, "2"))


def test_mul_and_add_make_no_fraction(monkeypatch):
    rng = random.Random(3)
    a = Mat(3, 3, tuple(_rand_entries(rng, 9)))
    b = Mat(3, 3, tuple(Fraction(rng.randint(-9, 9), rng.choice((2, 3, 5))) for _ in range(9)))

    def no_fraction(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(Fraction, "__new__", no_fraction)
    for x, y in ((a, b), (b, a), (b, b), (a, a)):
        x * y
        x + y

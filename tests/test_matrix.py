import copy
import inspect
import pickle
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import _reference as ref
import matint.matrix as matrix_module
from _reference import Cmp, cmp_entrywise, from_rows
from matint import (App, ArithConstraint, BlockShape, CheckReport, ConstraintCheck, Encoding,
                    EncodingReport, EvalResult, Interpretation, LinearForm, LinearFunc, Mat,
                    MatrixError, ParamInterpretation, RepParams, Rule, TransformTrace, Trs, Var,
                    Verdict, VerifyReport, format_matrix, jordan, parse_matrix, parse_rat)
from matint.matrix import Record, as_rat, strip_comment

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


def _ref_parse_matrix(text):
    """The literal parsed entry by entry with parse_rat, then from_rows."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise MatrixError(f"matrix literal must be bracketed: {text!r}")
    body = text[1:-1].strip()
    if not body:
        raise MatrixError("empty matrix literal")
    rows = []
    for part in body.split(";"):
        items = part.split()
        if not items:
            raise MatrixError(f"empty row in matrix literal: {text!r}")
        rows.append([parse_rat(item) for item in items])
    return from_rows(rows)


def _literal_outcome(parse, text):
    try:
        m = parse(text)
    except MatrixError as exc:
        return "error", str(exc)
    return m.shape, m.nums, m.den


def test_parse_matrix_matches_entrywise_reference():
    # int()'s signs, whitespace and underscores, signed denominators, zero
    # denominators, ragged and empty rows, bad entries in any row
    for text in ("[+1 -2 ; 0 1_000]", "[ -1/-2 3/-6 ; 4/2 0/5 ]", "[1/0 2]", "[1 2/0]",
                 "[1 2 ; 3]", "[1 ; ; 2]", "[x ; 1 2]", "[1 2 ; 3 y]", "[1/2/3]", "[/]",
                 "[1/ 2]", "[ ]", "1 2", "[1\t2 ;\t3 4]", "[1__0]", f"[{2 ** 70}/6 1/3]",
                 "[-0/-1 07]", "[1.5]", "[0x10]", "[0 ²]", "[1 ٣ ; 0 1]", "[１ 0]",
                 "[07 00 ; +0 1]", "[0 1 ; ² 0]", "[1 0 ; 0 1 ; 1]"):
        assert _literal_outcome(parse_matrix, text) == _literal_outcome(_ref_parse_matrix, text)
    rng = random.Random(31)
    # '²' is a digit to str.isdigit but not to int(); '٣' and '１' are
    # digits to both, but not ASCII
    tokens = ["0", "1", "-1", "+3", "2/3", "-1/-2", "4/0", "1_0", "x", "/", "1/", "/2",
              "6/4", "-0", "1/2/3", str(2 ** 70), f"{2 ** 70}/3", "3/-6", ";", " ; ", "\t",
              "²", "٣", "１", "07", "00", "+0"]
    kinds = set()
    for _ in range(3000):
        if rng.random() < 0.5:
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            body = " ; ".join(" ".join(rng.choice(tokens[:7] + ["5", "9/4"])
                                       for _ in range(cols + (rng.random() < 0.1)))
                              for _ in range(rows))
        else:
            body = " ".join(rng.choice(tokens) for _ in range(rng.randint(0, 10)))
        text = rng.choice(("[", "", " [")) + body + rng.choice(("]", "] ", ""))
        want = _literal_outcome(_ref_parse_matrix, text)
        assert _literal_outcome(parse_matrix, text) == want, text
        kinds.add(want[1].split(" ")[0] if want[0] == "error" else "ok")
    assert {"ok", "bad", "ragged", "empty", "matrix"} <= kinds
    # single-digit literals, which take the byte path, with a rare odd
    # token or ragged row
    kinds = set()
    for _ in range(300):
        n = rng.randint(8, 16)
        rows = [[rng.choice("0123456789") for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.2:
            rows[rng.randrange(n)][rng.randrange(n)] = rng.choice(tokens)
        if rng.random() < 0.1:
            rng.choice(rows).pop()
        text = "[" + " ; ".join(map(" ".join, rows)) + "]"
        want = _literal_outcome(_ref_parse_matrix, text)
        assert _literal_outcome(parse_matrix, text) == want, text
        kinds.add(want[1].split(" ")[0] if want[0] == "error" else "ok")
    assert {"ok", "bad", "ragged"} <= kinds
    # the layout format_matrix writes, read by slicing, and perturbations
    # of it, each of which that reader must leave to the token reader or
    # read to the same value
    kinds = set()
    for _ in range(3000):
        rows, cols = rng.choice(((1, 1), (1, rng.randint(2, 12)), (rng.randint(2, 12), 1),
                                 (rng.randint(2, 12), rng.randint(2, 12))))
        cells = [[rng.choice("0123456789") for _ in range(cols)] for _ in range(rows)]
        slots = list(" ; ".join(map(" ".join, cells)))
        for _ in range(rng.choice((0, 1, 1, 2))):
            _perturb_layout(rng, slots)
        text = "[" + "".join(slots) + "]"
        want = _literal_outcome(_ref_parse_matrix, text)
        assert _literal_outcome(parse_matrix, text) == want, text
        kinds.add(want[1].split(" ")[0] if want[0] == "error" else "ok")
    assert {"ok", "bad", "ragged", "empty"} <= kinds


def _perturb_layout(rng, slots):
    """One change to the characters ``slots`` of a literal body in the
    layout ``format_matrix`` writes."""
    kind = rng.randrange(7)
    seps = [i for i, ch in enumerate(slots) if ch == " "]
    digits = [i for i, ch in enumerate(slots) if ch.isdigit()]
    if kind == 0 and seps:  # another separator, two spaces or none
        i = rng.choice(seps)
        slots[i] = rng.choice(("\t", "\x1c", "\xa0", "  ", ""))
    elif kind == 1 and seps:  # every separator replaced alike
        sep = rng.choice(("\t", "\x1c", "\xa0", "  ", "\n"))
        for i in seps:
            slots[i] = sep
    elif kind == 2:  # a ';' glued to a digit, or doubled
        semis = [i for i, ch in enumerate(slots) if ch == ";"]
        if semis:
            i = rng.choice(semis)
            j = i + rng.choice((-1, 1))
            if rng.random() < 0.5:
                slots[j] = ""
            else:
                slots[i] = rng.choice((";;", "; ;"))
    elif kind == 3:  # whitespace just inside the brackets
        slots.insert(0, rng.choice((" ", "\t", "\xa0")))
        slots.append(rng.choice((" ", "\n", "\x1c")))
    elif kind == 4 and digits:  # a slot that holds no single ASCII digit
        i = rng.choice(digits)
        slots[i] = rng.choice(("/", "-", "²", "٣", "10", " ", "1/2", "-0"))
    elif kind == 5 and digits:  # a row with one entry removed
        i = rng.choice(digits)
        slots[i] = ""
        if i + 1 < len(slots) and slots[i + 1] == " ":
            slots[i + 1] = ""
    elif digits:  # an entry appended to one row
        slots.insert(rng.choice(digits) + 1, " " + rng.choice("0123456789"))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda rows: st.integers(1, 40).flatmap(
    lambda cols: st.tuples(st.just(rows), st.just(cols), st.lists(
        st.integers(0, 9), min_size=rows * cols, max_size=rows * cols)))))
def test_digit_matrix_literal_round_trip(shape_and_entries):
    rows, cols, entries = shape_and_entries
    m = Mat(rows, cols, entries)
    assert parse_matrix(format_matrix(m)) == m


def test_format_matrix_matches_entrywise_str():
    """The byte path for entries 0..9 and the str path for all others write
    what ``str`` of each entry, spaced and row-separated, writes."""
    def want(m):
        rows = [m.entries[i:i + m.cols] for i in range(0, len(m.entries), m.cols)]
        return "[" + " ; ".join(" ".join(map(str, row)) for row in rows) + "]"

    rng = random.Random(43)
    values = (0, 1, 9, -1, 10, 255, 256, Fraction(1, 2), Fraction(-7, 3))
    for _ in range(500):
        rows, cols = rng.choice(((1, rng.randint(1, 9)), (rng.randint(1, 9), 1),
                                 (rng.randint(1, 9), rng.randint(1, 9))))
        pool = values[:3] if rng.random() < 0.5 else rng.sample(values, rng.randint(1, 9))
        m = Mat(rows, cols, [rng.choice(pool) for _ in range(rows * cols)])
        assert format_matrix(m) == want(m), m
        assert parse_matrix(format_matrix(m)) == m


def test_bit_literal_is_read_without_int(monkeypatch):
    """A dim-64 bit literal makes no int() call: int is shadowed in the
    matrix module, where the reader looks it up."""
    rng = random.Random(47)
    m = Mat(64, 64, [rng.randint(0, 1) for _ in range(64 * 64)])
    text = format_matrix(m)
    calls = []

    def counting(*args):
        calls.append(args)
        return int(*args)
    monkeypatch.setattr(matrix_module, "int", counting, raising=False)
    assert parse_matrix(text) == m and calls == []
    # the shadow sees the calls of a literal with a two-digit entry
    assert parse_matrix("[10 1]").nums == (10, 1) and calls


def test_strip_comment_keeps_sharp_symbols():
    assert strip_comment("interp f# : 1") == "interp f# : 1"
    assert strip_comment("delta 1/2   # optional") == "delta 1/2   "
    assert strip_comment("# whole line") == ""


def test_strip_comment_agrees_with_reference_loop():
    """The regular expression cuts where the character loop of
    ``_reference`` cuts, on random lines of '#', letters and the kinds of
    whitespace ``str.isspace`` knows: ASCII, a separator control, NEL and
    Unicode spaces."""
    rng = random.Random(41)
    alphabet = "#ab \t\x1c\x85\xa0\u3000"
    for _ in range(20000):
        line = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        assert strip_comment(line) == ref.strip_comment(line)


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
    # the entrywise order of the reference check_entrywise
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
    assert sum(j42.nums) == 2
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

    def literal(self):
        return "[" + " ; ".join(" ".join(map(str, self.e[i * self.cols:(i + 1) * self.cols]))
                                for i in range(self.rows)) + "]"


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
        _assert_canonical(ma.transpose(), a.transpose())
        assert str(ma) == format_matrix(ma) == a.literal()
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
    assert (third + third.scale(-1)).den == 1 and not any((third + third.scale(-1)).nums)
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


_ONE, _ZERO = Mat(1, 1, (1,)), Mat(1, 1, (0,))
_RULE = Rule(App("f", (Var("x"),)), Var("x"))
_REPORT = CheckReport("value", 1, Fraction(1, 2), ())
_MATS = "mats=(Mat(rows=1, cols=1, entries=(1,)),), const=Mat(rows=1, cols=1, entries=(0,))"
_REPORT_TEXT = "CheckReport(backend='value', m=1, delta=Fraction(1, 2), checks=())"

# (class, required arguments, the defaults of the rest, repr of the record
# they build): the reprs are those the records had as frozen dataclasses
RECORDS = [
    (Rule, (App("f", (Var("x"),)), Var("x")), {}, "Rule(lhs=App('f(x)'), rhs=Var('x'))"),
    (Trs, (frozenset({"x"}), (_RULE,), {"f": 1}), {},
     "Trs(variables=frozenset({'x'}), rules=(Rule(lhs=App('f(x)'), rhs=Var('x')),), "
     "signature={'f': 1})"),
    (BlockShape, (2,), {"block": 1}, "BlockShape(dim=2, block=1)"),
    (LinearFunc, ((_ONE,), _ZERO), {}, f"LinearFunc({_MATS})"),
    (Interpretation, (BlockShape(1), "natural", {"f": LinearFunc((_ONE,), _ZERO)}),
     {"delta": None},
     "Interpretation(shape=BlockShape(dim=1, block=1), domain='natural', "
     f"table=mappingproxy({{'f': LinearFunc({_MATS})}}), delta=None)"),
    (LinearForm, (1, {"x": _ONE}, _ZERO), {},
     "LinearForm(dim=1, coeffs={'x': Mat(rows=1, cols=1, entries=(1,))}, "
     "const=Mat(rows=1, cols=1, entries=(0,)))"),
    (Verdict, (True,), {"detail": ""}, "Verdict(holds=True, detail='')"),
    (ConstraintCheck, ("rule 1", _RULE, "weak", Verdict(True, "x")), {"witness": None},
     "ConstraintCheck(label='rule 1', rule=Rule(lhs=App('f(x)'), rhs=Var('x')), rel='weak', "
     "verdict=Verdict(holds=True, detail='x'), witness=None)"),
    (CheckReport, ("value", 1, Fraction(1, 2), ()), {}, _REPORT_TEXT),
    (ArithConstraint, ((), (), "weak", "const"), {"source": "", "dropped": ()},
     "ArithConstraint(lhs=(), rhs=(), rel='weak', kind='const', source='', dropped=())"),
    (ParamInterpretation, ({"f": (("a",), "b")},), {},
     "ParamInterpretation(table=mappingproxy({'f': (('a',), 'b')}))"),
    (EvalResult, (True, 1, Fraction(1, 2)), {},
     "EvalResult(holds=True, lhs_value=1, rhs_value=Fraction(1, 2))"),
    (Encoding, (2,), {"table": {}}, "Encoding(dim=2, table=mappingproxy({}))"),
    (EncodingReport, ({}, {}, {}), {},
     "EncodingReport(value_valid={}, product_value_valid={}, product_closed={})"),
    (RepParams, (2, 1, 1), {}, "RepParams(m=2, p=1, q=1)"),
    (TransformTrace, (((2, 1, 2),),), {}, "TransformTrace(steps=((2, 1, 2),))"),
    (VerifyReport, (_REPORT, _REPORT, "forward"), {},
     f"VerifyReport(before={_REPORT_TEXT}, after={_REPORT_TEXT}, promise='forward')"),
]


@pytest.mark.parametrize("cls, args, defaults, text", RECORDS,
                         ids=[case[0].__name__ for case in RECORDS])
def test_records_keep_the_frozen_dataclass_contract(cls, args, defaults, text):
    """Each record builds from positional or keyword arguments with the
    same defaults, compares and hashes by class and fields in order,
    keeps its repr, refuses assignment and deletion, and is no tuple."""
    names = list(inspect.signature(cls).parameters)
    assert names[len(args):] == list(defaults)
    record = cls(*args)
    full = (*args, *defaults.values())
    for twin in (cls(*full), cls(**dict(zip(names, full))), copy.copy(record)):
        assert twin == record and twin is not record
    assert all(getattr(record, name) == value for name, value in defaults.items())
    fields = tuple(getattr(record, name) for name in names)
    try:
        want = hash(fields)
    except TypeError:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == want == hash(cls(*full))
    # a record of another class with equal fields is another value
    other_cls = type("Other", (Record,), {"__slots__": tuple(names)})
    other = object.__new__(other_cls)
    for name, value in zip(names, fields):
        other_cls.__dict__[name].__set__(other, value)
    assert record != other and other != record and record != fields
    assert repr(record) == text
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text and not isinstance(record, tuple)
    if cls is LinearFunc:
        # ``columns`` is a cache, no field: computed on first use, then reused
        columns = record.columns
        assert record.columns is columns and repr(record) == text and record == cls(*args)


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

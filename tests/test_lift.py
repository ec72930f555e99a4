"""The block-substitution kernel against the one-``Mat``-per-entry lifts,
expansion and collapses kept in ``_reference``."""

import io
import random
from contextlib import redirect_stdout
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

import _reference as ref
from matint import (BlockShape, EncodingError, Interpretation, InterpError,
                    LinearFunc, Mat, MatrixError, TransformTrace, catalog,
                    expand_rational, interp_to_bits, interp_to_blocks,
                    parse_interpretation, plan_expansion, rational_entries, rho_preserved,
                    to_bit_matrix, value_collapse)
from matint.cli import main
from matint.encoding import CATALOG_NAMES
from matint.interp import collapse_vector
from matint.represent import lift_blocks, lift_factors, substitute
from matint.transform import _substitute
from _helpers import rand_const_scalar_block_mat, read

F = Fraction
MAX_DIM = 150


def _relative(k, rng):
    """data/relative.interp with f's M2 = [1 k ; 0 k-1] and drawn 0/1
    constants: to-bits lifts by k, then by k-1."""
    text = read("relative.interp").replace("M2 = [1 2 ; 0 0]", f"M2 = [1 {k} ; 0 {k - 1}]")
    interp = parse_interpretation(text)
    table = {s: LinearFunc(f.mats, Mat.column(rng.randint(0, 1) for _ in range(2)))
             for s, f in interp.table.items()}
    return Interpretation(interp.shape, "natural", table)


def _random_interp(rng, hi=12):
    d = rng.randint(1, 3)
    table = {s: LinearFunc(tuple(Mat(d, d, tuple(rng.randint(0, hi) for _ in range(d * d)))
                                 for _ in range(arity)),
                           Mat.column(rng.randint(0, hi) for _ in range(d)))
             for s, arity in (("f", 1), ("g", 2), ("c", 0))}
    return Interpretation(BlockShape(d, 1), "natural", table)


def _predicted_dim(interp):
    scale = 1
    for factor in lift_factors({e for f in interp.table.values() for m in f.mats
                                for e in m.nums}):
        scale *= factor
    return interp.shape.dim * scale


def _expand(interp, enc):
    return expand_rational(interp, plan_expansion(enc, rational_entries(interp)))


def _raises(call, *args):
    """The exception type and message a call raises, or None."""
    try:
        call(*args)
    except (MatrixError, InterpError, EncodingError) as exc:
        return type(exc), str(exc)
    return None


def test_lift_int_matches_reference():
    rng = random.Random(61)
    for _ in range(300):
        n = rng.randint(2, 7)
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        pool = (0, 0, 1, n, 2 * n, -n, -1, -3, 10 ** 30, 7 * n, rng.randint(-50, 50))
        a = Mat(rows, cols, tuple(rng.choice(pool) for _ in range(rows * cols)))
        assert substitute(a, lift_blocks((n,)), n, n) == ref.lift_int(n, a)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 5), max_size=3),
       st.lists(st.integers(0, 40), min_size=1, max_size=4))
def test_lift_block_rows_sum_to_the_entry(factors, entries):
    """The fact the transforms' one vector rule rests on: every row of a lift
    block sums to its entry, so row sums of the block are nu's image."""
    block_of = lift_blocks(factors)
    scale = prod(factors)
    for e in entries:
        block = block_of(e)
        assert len(block) == scale and all(len(row) == scale for row in block)
        assert all(sum(row) == e for row in block)
        assert sum(map(sum, block)) == e * scale
    interp = Interpretation(BlockShape(len(entries), 1), "natural",
                            {"c": LinearFunc((), Mat.column(entries))})
    lifted = _substitute(interp, block_of, scale, scale)
    assert lifted.table["c"].const == Mat.column(e for e in entries for _ in range(scale))


def test_lift_factors_and_to_bit_matrix_match_iterated_lift():
    rng = random.Random(62)
    tried = 0
    while tried < 200:
        rows, cols = rng.randint(1, 3), rng.randint(1, 3)
        a = Mat(rows, cols, tuple(rng.randint(0, 12) for _ in range(rows * cols)))
        factors = lift_factors(a.nums)
        scale = 1
        for x in factors:
            scale *= x
        if max(rows, cols) * scale > MAX_DIM:
            continue
        tried += 1
        want, seen = a, []
        while want.max_entry() > 1:
            seen.append(want.max_entry())
            want = ref.lift_int(want.max_entry(), want)
        assert factors == tuple(seen)
        assert to_bit_matrix(a) == (want, scale)


def test_interp_to_blocks_matches_reference():
    rng = random.Random(63)
    for _ in range(60):
        interp = _random_interp(rng, hi=rng.choice((1, 3, 6)))
        assert _raises(interp_to_blocks, interp) is None
        assert interp_to_blocks(interp) == ref.interp_to_blocks(interp)
        for factor in (0, 1, 2, 3, 5):
            got = _raises(interp_to_blocks, interp, factor)
            assert got == _raises(ref.interp_to_blocks, interp, factor)
            if got is None:
                assert interp_to_blocks(interp, factor) == ref.interp_to_blocks(interp, factor)
    rational = parse_interpretation(read("fg-rational.interp"))
    assert _raises(interp_to_blocks, rational) == _raises(ref.interp_to_blocks, rational)


@pytest.mark.parametrize("k", range(3, 13))
def test_interp_to_bits_matches_iterated_lift_on_relative(k):
    interp = _relative(k, random.Random(k))
    bits, trace = interp_to_bits(interp)
    want, want_trace = ref.interp_to_bits(interp)
    assert trace == want_trace == TransformTrace(((k, 2, 2 * k), (k - 1, 2 * k, 2 * k * (k - 1))))
    assert bits == want


def test_interp_to_bits_matches_iterated_lift_on_random_inputs():
    rng = random.Random(64)
    tried = 0
    while tried < 60:
        interp = _random_interp(rng, hi=rng.choice((2, 4, 6, 12)))
        if _predicted_dim(interp) > MAX_DIM:
            continue
        tried += 1
        assert interp_to_bits(interp) == ref.interp_to_bits(interp)
    for text in ("fg-natural.interp", "relative.interp", "fg-rational.interp"):
        interp = parse_interpretation(read(text))
        got = _raises(interp_to_bits, interp)
        assert got == _raises(ref.interp_to_bits, interp)
        if got is None:
            assert interp_to_bits(interp) == ref.interp_to_bits(interp)


def _rational_interp(rng, values, dim):
    def entry():
        return rng.choice(values) if rng.random() < 0.6 else rng.randint(0, 5)
    table = {s: LinearFunc(tuple(Mat(dim, dim, tuple(entry() for _ in range(dim * dim)))
                                 for _ in range(arity)),
                           Mat.column(entry() for _ in range(dim)))
             for s, arity in (("f", 1), ("g", 2), ("c", 0))}
    return Interpretation(BlockShape(dim, 1), "rational", table)


@pytest.mark.parametrize("name", CATALOG_NAMES + ("unit:2", "unit:3", "unit:5"))
def test_expand_rational_matches_reference(name):
    enc = catalog(name)
    rng = random.Random(name)
    values = sorted(enc.table)
    for _ in range(20):
        interp = _rational_interp(rng, values, rng.randint(1, 3))
        expanded = _expand(interp, enc)
        assert expanded == ref.expand_rational(interp, enc)
        assert rho_preserved(interp, expanded, enc.dim)
        # a wrong entry anywhere is found, as the reference finds it
        bad = expanded.table["g"].mats[1]
        nums = list(bad.nums)
        nums[rng.randrange(len(nums))] += 1
        table = dict(expanded.table)
        table["g"] = LinearFunc((bad, Mat._derived(bad.rows, bad.cols, nums)),
                                expanded.table["g"].const)
        broken = Interpretation(expanded.shape, "natural", table)
        assert not rho_preserved(interp, broken, enc.dim)
        assert not ref.expansion_rho_preserved(interp, broken, enc.dim)
    # an entry the encoding lacks is reported, first one first
    odd = Interpretation(BlockShape(2, 1), "rational", {
        "f": LinearFunc((Mat(2, 2, (0, F(2, 7), F(3, 7), 1)),), Mat.column([F(4, 7), 0]))})
    plan = plan_expansion(enc, rational_entries(odd))
    assert _raises(ref.expand_rational, odd, enc) == (EncodingError, plan.faults[0])


def test_expansion_rho_preserved_reads_vector_segments():
    enc = catalog("quarters")
    interp = Interpretation(BlockShape(2, 1), "rational", {
        "f": LinearFunc((Mat(2, 2, (F(1, 2), 0, 1, F(1, 4))),), Mat.column([F(1, 4), 3]))})
    expanded = _expand(interp, enc)
    const = expanded.table["f"].const
    for i in range(const.rows):
        nums = list(const.nums)
        nums[i] += 1
        table = {"f": LinearFunc(expanded.table["f"].mats,
                                 Mat._derived(const.rows, 1, nums))}
        broken = Interpretation(expanded.shape, "natural", table)
        assert not rho_preserved(interp, broken, enc.dim)
        assert not ref.expansion_rho_preserved(interp, broken, enc.dim)


def test_collapse_matches_reference_accepting_and_rejecting():
    rng = random.Random(65)
    for _ in range(300):
        beta, b = rng.randint(1, 3), rng.randint(1, 4)
        a = rand_const_scalar_block_mat(rng, beta, b)
        if rng.random() < 0.5:
            a = a.scale(F(rng.randint(1, 5), rng.randint(1, 4)))
        if rng.random() < 0.6:
            # break one or more entries: the first broken block is reported
            nums = list(a.nums)
            for _ in range(rng.randint(1, 3)):
                nums[rng.randrange(len(nums))] += rng.randint(1, 3)
            a = Mat._derived(a.rows, a.cols, nums, a.den)
        for size in (b, 1, 2, 3):
            got = _raises(value_collapse, a, size)
            assert got == _raises(ref.value_collapse, a, size)
            if got is None:
                assert value_collapse(a, size) == ref.value_collapse(a, size)
        v = Mat.column(x for _ in range(beta) for x in [F(rng.randint(0, 6), 3)] * b)
        if rng.random() < 0.5:
            nums = list(v.nums)
            nums[rng.randrange(len(nums))] += 1
            v = Mat._derived(v.rows, 1, nums, v.den)
        for size in (b, 1, 2, 3):
            got = _raises(collapse_vector, v, size)
            assert got == _raises(ref.collapse_vector, v, size)
            if got is None:
                assert collapse_vector(v, size) == ref.collapse_vector(v, size)
    for a, size in ((Mat.zero(2, 3), 2), (Mat.zero(4, 2), 3)):
        assert _raises(value_collapse, a, size) == _raises(ref.value_collapse, a, size)
        assert _raises(collapse_vector, a, size) == _raises(ref.collapse_vector, a, size)


def test_collapse_reports_first_bad_block_in_row_major_order():
    ones, eye = Mat.ones(2), Mat.identity(2)
    bad = Mat(2, 2, (0, 1, 0, 0))
    a = Mat.from_blocks([[ones, bad], [bad, eye]])
    assert _raises(value_collapse, a, 2) == (
        MatrixError, "block (1,2) is not constant-plus-scalar")
    assert _raises(ref.value_collapse, a, 2) == _raises(value_collapse, a, 2)


def test_a_literal_shared_by_a_matrix_and_a_vector_gets_both_images():
    """At dim 1, equal literals make one Mat serve as M1 and as C; the lift
    gives it a block as a matrix and block row sums as a vector."""
    interp = parse_interpretation("domain natural\ndim 1\ninterp f : 1\n"
                                  "  M1 = [2]\n  C = [2]\n")
    f = interp.table["f"]
    assert f.mats[0] is f.const
    bits, _ = interp_to_bits(interp)
    assert bits.table["f"].mats[0].nums == (1, 1, 1, 1)
    assert bits.table["f"].const.nums == (2, 2)


def test_to_bits_builds_no_mat_per_entry(monkeypatch, tmp_path):
    """At k=8 (dim 112) to-bits assembles no block grid, and makes a number
    of matrices bounded by the matrices and distinct values, not entries:
    equal literals share one Mat, which is lifted once."""
    src = tmp_path / "k8.interp"
    src.write_text(read("relative.interp").replace("M2 = [1 2 ; 0 0]", "M2 = [1 8 ; 0 7]"),
                   encoding="utf-8")
    interp = parse_interpretation(src.read_text(encoding="utf-8"))
    # f's M1 = M3, and b's C = f's C
    matrices = len({id(m) for f in interp.table.values() for m in (*f.mats, f.const)})
    assert matrices == 6
    values = {e for f in interp.table.values() for m in (*f.mats, f.const) for e in m.nums}

    def refuse(*args):
        raise AssertionError("Mat.from_blocks called")
    monkeypatch.setattr(Mat, "from_blocks", classmethod(refuse))
    derived = Mat.__dict__["_derived"].__func__
    made = []

    def counting(cls, *args):
        made.append(args[:2])
        return derived(cls, *args)
    monkeypatch.setattr(Mat, "_derived", classmethod(counting))
    with redirect_stdout(io.StringIO()) as out:
        code = main(["to-bits", "--interp", str(src), "--out", str(tmp_path / "bits")])
    assert code == 0 and "dim 112" in out.getvalue()
    # each distinct matrix is parsed once and lifted once
    assert len(made) <= 2 * matrices + len(values)
    assert sum(1 for rows, _ in made if rows == 112) == matrices


def test_substitute_results_are_built_trusted_and_pass_every_check(monkeypatch):
    """to-blocks, to-bits and expand build their results without the
    checks of ``Interpretation.__init__``, and every result would pass
    them: rebuilt through the checked constructor, it raises nothing and is
    equal. Loaded and hand-built interpretations keep every check."""
    rng = random.Random(19)
    inputs = []
    while len(inputs) < 40:
        interp = _random_interp(rng, hi=rng.choice((2, 4, 6, 12)))
        if _predicted_dim(interp) <= MAX_DIM:
            inputs.append(interp)
    # block > 1 inputs: a to-blocks result lifted again
    inputs += [interp_to_blocks(interp, 2) for interp in inputs[:10]]
    rationals = [(_rational_interp(rng, sorted(catalog(name).table), rng.randint(1, 3)),
                  catalog(name)) for name in CATALOG_NAMES for _ in range(5)]
    checks = []
    original = Interpretation.__init__

    def counting(self, *args):
        checks.append(self)
        original(self, *args)
    monkeypatch.setattr(Interpretation, "__init__", counting)
    outputs = []
    for interp in inputs:
        outputs.append(interp_to_blocks(interp, rng.randint(2, 4)))
        bits, trace = interp_to_bits(interp)
        if trace.steps:
            outputs.append(bits)
    outputs += [_expand(interp, enc) for interp, enc in rationals]
    assert checks == []
    for out in outputs:
        rebuilt = Interpretation(out.shape, out.domain, out.table, out.delta)
        assert rebuilt == out and out.domain == "natural"
    assert len(checks) == len(outputs)

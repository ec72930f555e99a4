"""The int kernel of ``eval_term`` and ``check_value`` against the reference
on ``Mat`` and ``Fraction`` kept in ``_reference``."""

import random
from fractions import Fraction

import pytest

import _reference as ref
from matint import (App, BlockShape, Interpretation, InterpError, LinearFunc, Mat,
                    Var, check_value, eval_term, subterms)
from matint.matrix import MatrixError

F = Fraction
HUGE = 2 ** 70


def _interp(rng, domain=None, shape=None):
    """dim 1-6, block 1 or 2 (or the given shape), over c/0, h/1 and p/2. Rational matrices draw
    their entries in thirds and sixths or in halves and quarters, one family
    per matrix, so denominators mix within a term; about one entry in ten is
    up to 2**70 and about one matrix in five is all-zero."""
    if shape is None:
        block = rng.choice((1, 2))
        shape = BlockShape(block * rng.randint(1, 6 // block), block)
    n, block = shape.dim, shape.block
    domain = domain or rng.choice(("natural", "rational"))

    def family():
        return (1,) if domain == "natural" else rng.choice(((3, 6), (2, 4)))

    def entry(dens):
        r = rng.random()
        if r < 0.1:
            return F(rng.randint(0, HUGE), rng.choice(dens))
        if r < 0.35:
            return 0
        return F(rng.randint(0, 12), rng.choice(dens))

    def mat():
        if rng.random() < 0.2:
            return Mat.zero(n)
        dens = family()
        return Mat(n, n, tuple(entry(dens) for _ in range(n * n)))

    def const():
        dens = family()
        return Mat.column([v for _ in range(shape.beta) for v in [entry(dens)] * block])

    table = {s: LinearFunc(tuple(mat() for _ in range(arity)), const())
             for s, arity in (("c", 0), ("h", 1), ("p", 2))}
    return Interpretation(shape, domain, table)


def _term(rng, depth, names=("x", "y", "z")):
    if depth == 0 or rng.random() < 0.2:
        return Var(rng.choice(names)) if rng.random() < 0.8 else App("c")
    if rng.random() < 0.4:
        return App("h", (_term(rng, depth - 1, names),))
    # repeated variables: both arguments the same term now and then
    arg = _term(rng, depth - 1, names)
    other = arg if rng.random() < 0.25 else _term(rng, depth - 1, names)
    return App("p", (arg, other))


def _rules(rng):
    """Pairs of terms, the right side often a subterm or a context of a
    subterm of the left, so that all four kinds of verdict come up."""
    fixed = [App("p", (Var("x"), Var("x"))), App("h", (App("p", (Var("x"), App("h", (Var("x"),)))),)),
             App("p", (App("p", (Var("y"), Var("x"))), Var("x")))]
    for _ in range(6):
        lhs = rng.choice((_term(rng, 4), rng.choice(fixed)))
        part = rng.choice(list(subterms(lhs)))
        rhs = rng.choice((part, App("h", (part,)), _term(rng, 3), App("c")))
        yield lhs, rhs


def _row(rng, n):
    return Mat(1, n, tuple(F(rng.randint(0, 9), rng.choice((1, 2, 3, 4, 6)))
                           for _ in range(n)))


def _kind(verdict):
    if verdict.holds:
        return "holds"
    return verdict.detail.split(":")[0].split("(")[0] + (
        " margin" if "margin" in verdict.detail.split(";")[0] else "")


def _assert_verdicts_agree(rng, lhs, rhs, ref_lhs, ref_rhs, kinds):
    n = lhs.dim
    for m in (n, rng.randint(1, 7)):
        deltas = (F(1, n), F(rng.randint(1, 9), rng.randint(1, 9)), F(rng.randint(1, HUGE), 7))
        for rel, delta in [("weak", None)] + [("strict", d) for d in deltas]:
            want = ref.check_value(ref_lhs, ref_rhs, rel, m, delta)
            # the kernel on the reference forms and on its own forms
            assert check_value(ref_lhs, ref_rhs, rel, m, delta) == want
            assert check_value(lhs, rhs, rel, m, delta) == want
            kinds.add(_kind(want))


def test_kernel_forms_and_verdicts_agree_with_reference():
    rng = random.Random(91)
    kinds = set()
    for _ in range(120):
        interp = _interp(rng)
        n = interp.shape.dim
        ones = Mat.ones(1, n)
        memo, ref_memo, compiled = {}, {}, {}
        for lhs_t, rhs_t in _rules(rng):
            forms = []
            for t in (lhs_t, rhs_t):
                full = eval_term(interp, t, None, memo, compiled)
                ref_full = ref.eval_term(interp, t, None, ref_memo)
                assert full == ref_full
                projected = eval_term(interp, t, ones, None, compiled)
                ref_projected = ref.eval_term(interp, t, ones)
                assert projected == ref_projected
                # any single row, over any denominator
                row = _row(rng, n)
                assert eval_term(interp, t, row, None, compiled) == ref.eval_term(interp, t, row)
                forms.append((full, ref_full, projected, ref_projected))
            (lf, rlf, lp, rlp), (rf, rrf, rp, rrp) = forms
            _assert_verdicts_agree(rng, lf, rf, rlf, rrf, kinds)
            _assert_verdicts_agree(rng, lp, rp, rlp, rrp, kinds)
        assert memo == ref_memo
    assert kinds == {"holds", "coeff", "const", "const margin"}


def test_kernel_agrees_on_deep_chains():
    rng = random.Random(92)
    for domain, shape in (("natural", BlockShape(3, 1)), ("rational", BlockShape(2, 2))):
        interp = _interp(rng, domain, shape)
        # small entries, so that 2000 products stay a few thousand bits wide
        n = shape.dim
        dens = (1,) if domain == "natural" else (2, 3)
        small = {s: LinearFunc(tuple(Mat(n, n, tuple(F(rng.randint(0, 1), rng.choice(dens))
                                                     for _ in range(n * n))) for _ in f.mats),
                               f.const) for s, f in interp.table.items()}
        interp = Interpretation(shape, domain, small)
        ground, open_ = App("c"), Var("x")
        for i in range(2000):
            ground = App("h", (ground,))
            open_ = App("p", (open_, Var("x"))) if i % 2 else App("h", (open_,))
        ones = Mat.ones(1, n)
        for t in (ground, open_, App("p", (ground, open_))):
            assert eval_term(interp, t) == ref.eval_term(interp, t)
            assert eval_term(interp, t, ones) == ref.eval_term(interp, t, ones)


def test_value_walk_takes_one_row_only():
    interp = _interp(random.Random(93), "natural")
    n = interp.shape.dim
    for left in (Mat.ones(2, n), Mat.ones(1, n + 1)):
        with pytest.raises(InterpError, match="left factor"):
            eval_term(interp, App("h", (Var("x"),)), left)


def test_check_value_rejects_nonpositive_divisor():
    interp = _interp(random.Random(94), "natural")
    form = eval_term(interp, App("h", (Var("x"),)))
    with pytest.raises(MatrixError, match="divisor"):
        check_value(form, form, "weak", 0)


def test_kernel_makes_no_fraction(monkeypatch):
    """On a natural interpretation, evaluation and the value comparison run
    on ints alone: no Fraction is built, not even to render rho."""
    rng = random.Random(95)
    cases = []
    for _ in range(20):
        interp = _interp(rng, "natural")
        n = interp.shape.dim
        cases.append((interp, list(_rules(rng)), Mat.ones(1, n), F(1, n)))

    def no_fraction(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(Fraction, "__new__", no_fraction)
    seen = set()
    for interp, rules, ones, delta in cases:
        memo, compiled = {}, {}
        for left in (None, ones):
            for lhs_t, rhs_t in rules:
                lhs = eval_term(interp, lhs_t, left, memo, compiled)
                rhs = eval_term(interp, rhs_t, left, memo, compiled)
                for rel in ("weak", "strict"):
                    seen.add(_kind(check_value(lhs, rhs, rel, interp.shape.dim, delta)))
    assert seen == {"holds", "coeff", "const", "const margin"}

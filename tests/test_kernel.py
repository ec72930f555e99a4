"""The int kernel of ``eval_term``, ``check_value`` and ``check_entrywise``
against the reference on ``Mat`` and ``Fraction`` kept in ``_reference``."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import _reference as ref
from _helpers import block_rows_mat, read
import matint.interp as interp_module
from matint import (App, BlockShape, Interpretation, InterpError, LinearFunc, Mat,
                    Var, check_entrywise, check_problem, check_value, eval_term,
                    interp_to_bits, parse_interpretation, parse_trs, subterms)
from matint.matrix import MatrixError

F = Fraction
HUGE = 2 ** 70


def _interp(rng, domain=None, shape=None):
    """dim 1-6, block 1 or 2 (or the given shape), over c/0, h/1 and p/2. Rational matrices draw
    their entries in thirds and sixths or in halves and quarters, one family
    per matrix, so denominators mix within a term; about one entry in ten is
    up to 2**70 and about one matrix in five is all-zero. The rows of each
    block are shuffles of one row."""
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
        return block_rows_mat(rng, n, block, lambda: entry(dens))

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


def _entrywise_kind(verdict):
    if verdict.holds:
        return "holds"
    return verdict.detail.split(":")[0].split("(")[0] + (
        " first" if "first component" in verdict.detail else "")


def _assert_entrywise_agree(lhs, rhs, ref_lhs, ref_rhs, kinds):
    for rel in ("weak", "strict"):
        want = ref.check_entrywise(ref_lhs, ref_rhs, rel)
        assert check_entrywise(ref_lhs, ref_rhs, rel) == want
        assert check_entrywise(lhs, rhs, rel) == want
        kinds.add(_entrywise_kind(want))


def test_kernel_forms_and_verdicts_agree_with_reference():
    rng = random.Random(91)
    kinds, entrywise_kinds = set(), set()
    for _ in range(120):
        interp = _interp(rng)
        n = interp.shape.dim
        ones = Mat.ones(1, n)
        ref_memo = {}
        for lhs_t, rhs_t in _rules(rng):
            forms = []
            for t in (lhs_t, rhs_t):
                full = eval_term(interp, t)
                ref_full = ref.eval_term(interp, t, None, ref_memo)
                assert full == ref_full
                projected = eval_term(interp, t, ones)
                ref_projected = ref.eval_term(interp, t, ones)
                assert projected == ref_projected
                # any single row, over any denominator
                row = _row(rng, n)
                assert eval_term(interp, t, row) == ref.eval_term(interp, t, row)
                forms.append((full, ref_full, projected, ref_projected))
            (lf, rlf, lp, rlp), (rf, rrf, rp, rrp) = forms
            _assert_verdicts_agree(rng, lf, rf, rlf, rrf, kinds)
            _assert_verdicts_agree(rng, lp, rp, rlp, rrp, kinds)
            _assert_entrywise_agree(lf, rf, rlf, rrf, entrywise_kinds)
            _assert_entrywise_agree(lp, rp, rlp, rrp, entrywise_kinds)
        # every subterm the reference folded, in one call
        assert eval_term(interp, list(ref_memo)) == list(ref_memo.values())
    assert kinds == {"holds", "coeff", "const", "const margin"}
    assert entrywise_kinds == {"holds", "coeff", "const", "const first"}


def test_kernel_agrees_on_deep_chains():
    rng = random.Random(92)
    for domain, shape in (("natural", BlockShape(3, 1)), ("rational", BlockShape(2, 2))):
        interp = _interp(rng, domain, shape)
        # small entries, so that 2000 products stay a few thousand bits wide
        n = shape.dim
        dens = (1,) if domain == "natural" else (2, 3)
        small = {s: LinearFunc(tuple(block_rows_mat(rng, n, shape.block,
                                                    lambda: F(rng.randint(0, 1), rng.choice(dens)))
                                     for _ in f.mats),
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
    """On natural and rational interpretations alike, evaluation and both
    comparisons run on ints alone: no Fraction is built, not even to render
    rho or an entry."""
    rng = random.Random(95)
    cases = []
    for i in range(40):
        interp = _interp(rng, ("natural", "rational")[i % 2])
        n = interp.shape.dim
        cases.append((interp, list(_rules(rng)), Mat.ones(1, n), F(1, n)))

    def no_fraction(*args, **kwargs):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(Fraction, "__new__", no_fraction)
    seen, entrywise_seen = set(), set()
    for interp, rules, ones, delta in cases:
        for left in (None, ones):
            for lhs_t, rhs_t in rules:
                lhs = eval_term(interp, lhs_t, left)
                rhs = eval_term(interp, rhs_t, left)
                for rel in ("weak", "strict"):
                    seen.add(_kind(check_value(lhs, rhs, rel, interp.shape.dim, delta)))
                    entrywise_seen.add(_entrywise_kind(check_entrywise(lhs, rhs, rel)))
    assert seen == {"holds", "coeff", "const", "const margin"}
    assert entrywise_seen == {"holds", "coeff", "const", "const first"}


def _sparse_mat(rng, n, nonzeros, weighted, den):
    """An n x n matrix with exactly ``nonzeros`` nonzero entries over
    ``den``. From 2n - 2 nonzeros on, column 0 is all nonzero, column 1
    zero, every further column has one nonzero, and the rest are spread
    over the first half of the columns, so that the second half keeps
    single nonzeros; fewer nonzeros fall anywhere. Bit matrices hold ones
    (over ``den``); weighted ones hold 1-3, about one entry in ten up to
    2**70."""
    if nonzeros < 2 * n - 2:
        picked = set(rng.sample([(i, j) for i in range(n) for j in range(n)], nonzeros))
    else:
        picked = {(i, 0) for i in range(n)} | {(rng.randrange(n), j) for j in range(2, n)}
        free = [(i, j) for i in range(n) for j in range(max(3, n // 2)) if j != 1]
        picked |= set(rng.sample([p for p in free if p not in picked],
                                 nonzeros - len(picked)))

    def value():
        if not weighted:
            return 1
        return rng.randint(1, HUGE) if rng.random() < 0.1 else rng.randint(1, 3)

    entries = [F(value(), den) if (i, j) in picked else 0 for i in range(n) for j in range(n)]
    return Mat(n, n, tuple(entries))


def test_sparse_value_walk_agrees_with_reference():
    """At dims 7-64, bit and weighted matrices with a quarter of their
    entries nonzero, or one more, or with none or one, evaluate as the
    reference does. The value walk takes the sparse step exactly on the
    matrices of dimension at least 8 with at most a quarter nonzero; one
    interpretation's compiled views serve the full and the projected walks,
    interleaved."""
    rng = random.Random(96)
    kinds = set()
    for n in (7, 8, 9, 16, 64):
        quarter = n * n // 4
        for weighted in (False, True):
            for nonzeros in (0, 1, quarter, quarter + 1):
                dens = (1, 1, 2, 3)
                table = {s: LinearFunc(tuple(_sparse_mat(rng, n, nonzeros, weighted,
                                                         rng.choice(dens))
                                             for _ in range(arity)),
                                       Mat.column([F(rng.randint(0, 5), rng.choice(dens))
                                                   for _ in range(n)]))
                         for s, arity in (("c", 0), ("h", 1), ("p", 2))}
                interp = Interpretation(BlockShape(n), "rational", table)
                ones = Mat.ones(1, n)
                for lhs_t, rhs_t in list(_rules(rng))[:3]:
                    for t in (lhs_t, rhs_t):
                        if n <= 16:
                            assert eval_term(interp, t) == ref.eval_term(interp, t)
                        assert eval_term(interp, t, ones) == ref.eval_term(interp, t, ones)
                        row = _row(rng, n)
                        assert eval_term(interp, t, row) == ref.eval_term(interp, t, row)
                for _, _, sparse in interp.table["p"].columns:
                    kinds.add((n >= 8 and nonzeros <= quarter, sparse is not None,
                               sparse is not None and sparse[1] is None))
    # sparse exactly where the rule says, with and without weights
    assert kinds == {(False, False, False), (True, True, True), (True, True, False)}


def test_value_check_of_bit_interpretation_runs_at_the_source_dimension(monkeypatch):
    """A dim-24 to-bits output (of data/relative.interp with f's M2 =
    [1 4 ; 0 3]) is checked on its block-12 quotient: every u·M product
    is a dense one at dimension 2, and the verdicts are its dim-2
    source's."""
    trs = parse_trs(read("relative.trs"))
    source = parse_interpretation(read("relative.interp").replace("M2 = [1 2 ; 0 0]",
                                                                  "M2 = [1 4 ; 0 3]"))
    bits, _ = interp_to_bits(source)
    assert (bits.shape.dim, bits.shape.block) == (24, 12)
    calls = []
    product = interp_module._mat_vec

    def recording(lines, vec):
        calls.append((len(lines), len(vec)))
        return product(lines, vec)

    monkeypatch.setattr(interp_module, "_mat_vec", recording)
    report = check_problem(trs, [], bits, "value")
    assert calls and set(calls) == {(2, 2)}
    assert bits.quotient.table == source.table
    want = check_problem(trs, [], source, "value")
    assert [c.verdict.holds for c in report.checks] == [c.verdict.holds for c in want.checks]


def test_checks_of_one_interpretation_compile_each_matrix_once(monkeypatch):
    """Checks of one interpretation share what they compile: two value and
    two entrywise check_problem calls compile each distinct argument
    matrix's column view once in total. f's equal M1 and M3 are one Mat
    with one view."""
    trs = parse_trs(read("relative.trs"))
    interp = parse_interpretation(read("relative.interp"))
    f = interp.table["f"]
    assert f.mats[0] is f.mats[2] and f.mats[0] is not f.mats[1]
    counts = Counter()

    def counting(mat, original=interp_module._columns):
        counts[id(mat)] += 1
        return original(mat)

    monkeypatch.setattr(interp_module, "_columns", counting)
    reports = [check_problem(trs, [], interp, backend)
               for backend in ("value", "entrywise") * 2]
    assert reports[:2] == reports[2:]
    mats = {id(mat) for func in interp.table.values() for mat in func.mats}
    assert len(mats) == 3
    assert counts == Counter(dict.fromkeys(mats, 1))
    assert f.columns[0] is f.columns[2]


# --- one walk per problem ---

def _problem(rng, names=("x", "y")):
    """The sides of a problem whose terms share subterms as a TRS's rules
    and pairs do: sides that are subterms of other sides, contexts over
    them, and the same term twice. Now and then an earlier side recurs
    later in the list, as every pair of one rule repeats that rule's left
    side."""
    sides = []
    for _ in range(rng.randint(1, 5)):
        lhs = _term(rng, 4, names)
        part = rng.choice(list(subterms(lhs)))
        rhs = rng.choice((part, App("h", (part,)), App("p", (part, part)), _term(rng, 3, names)))
        sides += [lhs, rhs]
    for _ in range(rng.randint(0, 4)):
        sides.append(App("p", (rng.choice(sides), rng.choice(sides))))
    for _ in range(rng.choice((0, 0, 1, 3))):
        at = rng.randint(1, len(sides))
        sides.insert(at, rng.choice(sides[:at]))
    return sides


def _lifted(rng):
    """A to-bits lift of a random dim-2 natural interpretation with entries
    0-3: dims 2-12, with the sparse step on the big sparse matrices."""
    table = {s: LinearFunc(tuple(Mat(2, 2, tuple(rng.randint(0, 3) for _ in range(4)))
                                 for _ in range(arity)),
                           Mat.column([rng.randint(0, 3) for _ in range(2)]))
             for s, arity in (("c", 0), ("h", 1), ("p", 2))}
    bits, _ = interp_to_bits(Interpretation(BlockShape(2), "natural", table))
    return bits


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from(("natural", "rational", "lifted")))
def test_problem_walk_agrees_with_reference_per_side(seed, kind):
    """One call over all sides of a problem gives, for each side, the form
    that the reference gives for that side alone: projected (under ones
    and under any one row) and full."""
    rng = random.Random(seed)
    interp = _lifted(rng) if kind == "lifted" else _interp(rng, kind)
    n = interp.shape.dim
    sides = _problem(rng)
    for left in (Mat.ones(1, n), _row(rng, n)):
        assert eval_term(interp, sides, left) == [ref.eval_term(interp, t, left) for t in sides]
    if n <= 16:
        assert eval_term(interp, sides) == [ref.eval_term(interp, t) for t in sides]


def test_problem_sides_recur():
    """``_problem`` repeats an earlier side in many of its problems, not in
    all, so the walk above meets recurring sides under every left factor."""
    rng = random.Random(100)
    recurring = sum(len(set(sides)) < len(sides) for sides in (_problem(rng) for _ in range(200)))
    assert 60 <= recurring < 200


def test_recurring_sides_take_the_work_of_their_distinct_sides(monkeypatch):
    """A side list with repeats, in any order, takes exactly the table
    lookups and ``_mat_vec`` steps of its distinct sides, and every
    position of a side gets that side's one form."""

    class Counting(dict):
        gets = 0

        def __getitem__(self, key):
            Counting.gets += 1
            return super().__getitem__(key)

    steps = []
    product = interp_module._mat_vec

    def recording(lines, vec):
        steps.append(len(lines))
        return product(lines, vec)

    def work(interp, sides, left):
        Counting.gets = 0
        steps.clear()
        with monkeypatch.context() as patch:
            patch.setattr(interp_module, "_mat_vec", recording)
            forms = eval_term(interp, sides, left)
        return forms, Counting.gets, list(steps)

    rng = random.Random(101)
    for _ in range(40):
        interp = _interp(rng, rng.choice(("natural", "rational")))
        object.__setattr__(interp, "table", Counting(interp.table))
        distinct = list(dict.fromkeys(_problem(rng)))
        sides = distinct + [rng.choice(distinct) for _ in range(rng.randint(1, 6))]
        rng.shuffle(sides)
        for left in (Mat.ones(1, interp.shape.dim), _row(rng, interp.shape.dim)):
            forms, gets, taken = work(interp, sides, left)
            _, want_gets, want_taken = work(interp, list(dict.fromkeys(sides)), left)
            assert (gets, taken) == (want_gets, want_taken)
            assert forms == [ref.eval_term(interp, t, left) for t in sides]
            assert all(form is forms[sides.index(t)] for t, form in zip(sides, forms))


def _first_error(evaluate, sides):
    try:
        evaluate(sides)
    except InterpError as exc:
        return str(exc)
    return None


def test_problem_walk_reports_first_bad_symbol_in_pre_order():
    """Over random sides with an uninterpreted symbol u and h used with two
    arguments, the one reported is the first in pre-order over the sides,
    in order, as evaluating them one by one reports it, whichever later
    side shares the bad subterm."""
    rng = random.Random(97)
    seen = set()
    for _ in range(200):
        interp = _interp(rng, "natural")
        ones = Mat.ones(1, interp.shape.dim)

        def bad(depth):
            r = rng.random()
            if depth == 0 or r < 0.3:
                if rng.random() < 0.1:
                    return rng.choice((App("u"), App("u", (Var("x"),))))
                return rng.choice((Var("x"), App("c")))
            if r < 0.35:
                # h takes one argument
                return App("h", (bad(depth - 1), bad(depth - 1)))
            if r < 0.6:
                return App("h", (bad(depth - 1),))
            return App("p", (bad(depth - 1), bad(depth - 1)))

        sides = [bad(3) for _ in range(rng.randint(1, 4))]
        sides += [rng.choice(list(subterms(rng.choice(sides))))]
        for left in (None, ones):
            want = _first_error(lambda ts: [ref.eval_term(interp, t, left) for t in ts], sides)
            fresh = Interpretation(interp.shape, interp.domain, interp.table)
            assert _first_error(lambda ts: eval_term(fresh, ts, left), sides) == want
            seen.add(want and want.split()[0])
    assert seen == {None, "uninterpreted", "symbol"}


def test_problem_walk_takes_each_subterm_once(monkeypatch):
    """Each distinct application of a problem is looked up and stepped
    through once per call, with one row per side that reaches it: a side's
    rows arriving by two paths are summed first."""
    hx = App("h", (Var("x"),))
    t = App("p", (hx, hx))
    sides = [t, hx, App("p", (t, t))]

    class Counting(dict):
        gets = 0

        def __getitem__(self, key):
            Counting.gets += 1
            return super().__getitem__(key)

    interp = _interp(random.Random(98), "natural", BlockShape(2))
    # the constructor keeps a read-only copy, so the lookups are counted on
    # a table put in its place
    object.__setattr__(interp, "table", Counting(interp.table))
    steps = []
    product = interp_module._mat_vec

    def recording(lines, vec):
        steps.append(len(lines))
        return product(lines, vec)

    monkeypatch.setattr(interp_module, "_mat_vec", recording)
    forms = eval_term(interp, sides, Mat.ones(1, 2))
    monkeypatch.undo()
    # 3 distinct applications; p(t,t) is reached by side 2, t by sides 0
    # and 2, h(x) by sides 0, 1 and 2: 1·2 + 2·2 + 3·1 steps, where a step
    # per path would take 4 + 1 + 10
    assert Counting.gets == 3
    assert steps == [2] * 9
    assert forms == [ref.eval_term(interp, s, Mat.ones(1, 2)) for s in sides]
    # the full forms: each distinct application composed once, into one form
    Counting.gets = 0
    built = []

    def recording(*args, original=interp_module.LinearForm):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(interp_module, "LinearForm", recording)
    forms = eval_term(interp, sides)
    monkeypatch.undo()
    assert Counting.gets == 3 and len(built) == 3
    assert forms == [ref.eval_term(interp, s) for s in sides]

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from matint import (App, BlockShape, Interpretation, InterpError, LinearForm,
                    LinearFunc, Mat, Rule, Trs, Var, check_entrywise, check_problem,
                    check_value, collapse_interpretation, dependency_pairs, eval_term,
                    format_interpretation, jordan, parse_interpretation,
                    parse_matrix, parse_trs, rho, sample_falsify, subterms,
                    value_collapse)
import matint.interp as interp_module
from _reference import from_rows
from _helpers import (block_rows_mat, example_one, mixed_interp,
                      rand_const_scalar_block_mat, read, uniform_interp)

F = Fraction


@pytest.fixture(scope="module")
def ex2():
    return parse_interpretation(read("fg-natural.interp"))


@pytest.fixture(scope="module")
def ex62():
    """The natural dim-2 interpretation induced by the rational valuation."""
    return parse_interpretation("""
domain natural
dim 2
block 1
interp f : 1
  M1 = [1 1 ; 1 1]
  C = [2 ; 2]
interp g : 1
  M1 = [0 1 ; 0 0]
  C = [1 ; 0]
interp f# : 1
  M1 = [1 0 ; 0 1]
  C = [0 ; 0]
""")


def test_parse_example_two(ex2):
    assert ex2.domain == "natural"
    assert ex2.shape == BlockShape(2, 1)
    assert ex2.table["f"].mats[0] == Mat.ones(2)
    assert ex2.table["f#"].mats[0] == parse_matrix("[1 1 ; 0 1]")


def test_parse_relative_interp():
    interp = parse_interpretation(read("relative.interp"))
    assert len(interp.table["f"].mats) == 3 and len(interp.table["a"].mats) == 0
    assert interp.max_entry() == 2


def test_parse_block_constant_violation():
    with pytest.raises(InterpError, match="block-constant"):
        parse_interpretation(
            "domain natural\ndim 2\nblock 2\ninterp a : 0\n  C = [1 ; 2]")


def test_parse_block_divides_dim():
    with pytest.raises(InterpError, match="does not divide"):
        parse_interpretation("domain natural\ndim 3\nblock 2\n")


def test_parse_negative_and_nonnatural_entries():
    with pytest.raises(InterpError, match="negative"):
        parse_interpretation(
            "domain rational\ndim 1\nblock 1\ninterp a : 0\n  C = [-1]")
    with pytest.raises(InterpError, match="non-natural"):
        parse_interpretation(
            "domain natural\ndim 1\nblock 1\ninterp a : 0\n  C = [1/2]")


def test_parse_signature_mismatch(ex2):
    # parsing takes no signature; a TRS whose signature the interpretation
    # does not match is refused when the interpretation is checked against it
    for backend in ("entrywise", "value"):
        trs = parse_trs("(VAR x y) (RULES f(x,y) -> x)")
        with pytest.raises(InterpError, match="arity"):
            check_problem(trs, (), ex2, backend)
        trs = parse_trs("(VAR x) (RULES h(x) -> x)")
        with pytest.raises(InterpError, match="uninterpreted"):
            check_problem(trs, (), ex2, backend)


def test_parse_structural_errors():
    with pytest.raises(InterpError, match="needs M1"):
        parse_interpretation("domain natural\ndim 1\nblock 1\ninterp f : 1\n  C = [0]")
    with pytest.raises(InterpError, match="unexpected M2"):
        parse_interpretation(
            "domain natural\ndim 1\nblock 1\ninterp f : 1\n  M2 = [1]\n  C = [0]")
    with pytest.raises(InterpError, match="twice"):
        parse_interpretation(
            "domain natural\ndim 1\nblock 1\ninterp a : 0\n  C = [0]\n"
            "interp a : 0\n  C = [0]")
    with pytest.raises(InterpError, match="missing"):
        parse_interpretation("dim 1\nblock 1\n")


def test_interpretation_file_roundtrip(ex2):
    again = parse_interpretation(format_interpretation(ex2))
    assert again.table == ex2.table and again.shape == ex2.shape


def test_eval_term_variable(ex2):
    form = eval_term(ex2, Var("x"))
    assert form.coeffs == {"x": Mat.identity(2)}
    assert form.const == Mat.zero(2, 1)


def test_eval_term_example_two(ex2):
    form = eval_term(ex2, App("f#", (App("f", (Var("x"),)),)))
    assert form.coeffs["x"] == parse_matrix("[2 2 ; 1 1]")
    assert form.const == Mat.column([2, 1])


def test_eval_term_expanded(ex62):
    form = eval_term(ex62, App("f#", (App("g", (App("f", (Var("x"),)),)),)))
    assert form.coeffs["x"] == parse_matrix("[1 1 ; 0 0]")
    assert form.const == Mat.column([3, 0])


def test_eval_term_errors(ex2):
    with pytest.raises(InterpError, match="uninterpreted"):
        eval_term(ex2, App("h", (Var("x"),)))
    with pytest.raises(InterpError, match="arity"):
        eval_term(ex2, App("f", (Var("x"), Var("y"))))
    # inside ground subterms too, on full and projected forms; the first bad
    # symbol in pre-order is reported
    for left in (None, Mat.ones(1, 2)):
        with pytest.raises(InterpError, match="uninterpreted symbol 'c'"):
            eval_term(ex2, App("f", (App("g", (App("c"),)),)), left)
        with pytest.raises(InterpError, match="symbol 'g' has arity 1"):
            eval_term(ex2, App("f", (App("g", (App("c"), App("c"))),)), left)

def _rand_interp(rng, shape=None, domain=None):
    """Random natural or rational interpretation of dim 1-6, block 1 or 2 (or
    the given shape and domain), over c/0, h/1 and p/2; about one matrix in
    four is all-zero, and the rows of each block are shuffles of one row."""
    if shape is None:
        block = rng.choice((1, 2))
        shape = BlockShape(block * rng.randint(1, 6 // block), block)
    dim, block = shape.dim, shape.block
    domain = domain or rng.choice(("natural", "rational"))

    def entry():
        if domain == "natural":
            return rng.randint(0, 3)
        return F(rng.randint(0, 6), rng.randint(1, 3))

    def mat():
        if rng.random() < 0.25:
            return Mat.zero(dim)
        return block_rows_mat(rng, dim, block, entry)

    def const():
        return Mat.column([v for _ in range(dim // block) for v in [entry()] * block])

    table = {s: LinearFunc(tuple(mat() for _ in range(arity)), const())
             for s, arity in (("c", 0), ("h", 1), ("p", 2))}
    return Interpretation(shape, domain, table)


def _rand_term(rng, depth, names):
    if depth == 0 or rng.random() < 0.2:
        return Var(rng.choice(names)) if rng.random() < 0.8 else App("c")
    symbol = rng.choice(("h", "p"))
    arity = 1 if symbol == "h" else 2
    return App(symbol, tuple(_rand_term(rng, depth - 1, names) for _ in range(arity)))


def _reference_form(interp, t):
    """Bottom-up composition [[f(t1..tk)]] = C + sum M_i [[t_i]], the reference
    for the top-down walk; returns (coefficients without zeros, constant)."""
    n = interp.shape.dim
    if isinstance(t, Var):
        return {t.name: Mat.identity(n)}, Mat.zero(n, 1)
    func = interp.table[t.symbol]
    coeffs, const = {}, func.const
    for mat, arg in zip(func.mats, t.args):
        sub_coeffs, sub_const = _reference_form(interp, arg)
        for var, coeff in sub_coeffs.items():
            coeffs[var] = coeffs.get(var, Mat.zero(n)) + mat * coeff
        const = const + mat * sub_const
    return {v: c for v, c in coeffs.items() if any(c.nums)}, const


def _ground_term(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return App("c")
    if rng.random() < 0.5:
        return App("h", (_ground_term(rng, depth - 1),))
    return App("p", (_ground_term(rng, depth - 1), _ground_term(rng, depth - 1)))


def _ground_heavy_term(rng, depth, names):
    """A spine of h and p down to a variable (or c); every p has a ground
    argument, on either side."""
    if depth == 0:
        return Var(rng.choice(names)) if rng.random() < 0.8 else App("c")
    if rng.random() < 0.3:
        return App("h", (_ground_heavy_term(rng, depth - 1, names),))
    ground = _ground_term(rng, rng.randint(0, 3))
    rest = _ground_heavy_term(rng, depth - 1, names)
    return App("p", (ground, rest) if rng.random() < 0.5 else (rest, ground))


def _assert_forms_agree(rng, interp, lhs_t, rhs_t, outcomes):
    """Full forms equal the bottom-up reference, projected forms equal 1ᵀ·
    the reference, and check_value gives the same verdict on both."""
    n = interp.shape.dim
    ones = Mat.ones(1, n)
    forms = []
    for t in (lhs_t, rhs_t):
        ref_coeffs, ref_const = _reference_form(interp, t)
        full = eval_term(interp, t)
        assert (full.coeffs, full.const) == (ref_coeffs, ref_const)
        projected = eval_term(interp, t, ones)
        assert set(projected.coeffs) == set(ref_coeffs)
        for var, coeff in ref_coeffs.items():
            assert projected.coeffs[var] == ones * coeff
        assert projected.const == ones * ref_const
        forms.append((full, projected))
    (lf, lp), (rf, rp) = forms
    for rel, delta in (("weak", None), ("strict", F(1, n)),
                       ("strict", F(rng.randint(1, 4), rng.randint(1, 4)))):
        verdict = check_value(lf, rf, rel, n, delta)
        assert check_value(lp, rp, rel, n, delta) == verdict
        outcomes.add(verdict.holds)


def test_projected_form_agrees_with_full_form():
    rng = random.Random(35)
    outcomes = set()
    for _ in range(150):
        interp = _rand_interp(rng)
        # z occurs only on the right-hand side
        lhs_t = _rand_term(rng, 4, ("x", "y"))
        rhs_t = rng.choice((rng.choice(list(subterms(lhs_t))),
                            _rand_term(rng, 3, ("x", "y", "z"))))
        _assert_forms_agree(rng, interp, lhs_t, rhs_t, outcomes)
    assert outcomes == {True, False}
    # ground-heavy terms: ground arguments of p on either side, fully ground
    # sides, constants as arguments, and ground subterms shared by object
    rng = random.Random(36)
    outcomes = set()
    shared = App("p", (App("c"), App("h", (App("c"),))))
    fixed = [App("c"), App("p", (App("c"), Var("x"))), App("p", (Var("x"), App("c"))),
             App("p", (shared, App("h", (shared,)))), App("p", (shared, Var("x"))),
             App("p", (App("h", (Var("x"),)),) * 2)]
    for i in range(150):
        interp = _rand_interp(rng)
        lhs_t = _ground_heavy_term(rng, 5, ("x", "y"))
        rhs_t = rng.choice((_ground_term(rng, 4), fixed[i % len(fixed)],
                            _ground_heavy_term(rng, 4, ("x", "y", "z"))))
        _assert_forms_agree(rng, interp, lhs_t, rhs_t, outcomes)
        _assert_forms_agree(rng, interp, rhs_t, lhs_t, outcomes)
    assert outcomes == {True, False}


def test_eval_term_deep_ground_chain_without_recursion(monkeypatch):
    interp = parse_interpretation(
        "domain natural\ndim 2\nblock 1\n"
        "interp c : 0\n  C = [0 ; 1]\n"
        "interp h : 1\n  M1 = [1 1 ; 0 1]\n  C = [1 ; 0]\n"
        "interp p : 2\n  M1 = [1 0 ; 0 1]\n  M2 = [2 0 ; 0 1]\n  C = [0 ; 0]\n")
    t = App("c")
    for _ in range(2000):
        t = App("h", (t,))
    # h^k(c) = (2k, 1); the chain folds bottom-up by matrix-vector products,
    # each of the kernel's int rows against the argument's value vector
    shapes = []
    product = interp_module._mat_vec

    def recording(lines, vec):
        shapes.append((len(lines), len(vec)))
        return product(lines, vec)

    monkeypatch.setattr(interp_module, "_mat_vec", recording)
    assert eval_term(interp, t) == LinearForm(2, {}, Mat.column([4000, 1]))
    assert len(shapes) == 2000 and all(shape == (2, 2) for shape in shapes)
    monkeypatch.undo()
    assert eval_term(interp, t, Mat.ones(1, 2)) == LinearForm(2, {}, Mat(1, 1, (4001,)))
    form = eval_term(interp, App("p", (t, Var("x"))))
    assert form.coeffs == {"x": parse_matrix("[2 0 ; 0 1]")}
    assert form.const == Mat.column([4000, 1])


def test_eval_term_deep_chain_without_recursion():
    interp = parse_interpretation(
        "domain natural\ndim 2\nblock 1\n"
        "interp f : 1\n  M1 = [1 1 ; 0 1]\n  C = [1 ; 0]\n")
    t = Var("x")
    for _ in range(5000):
        t = App("f", (t,))
    full = eval_term(interp, t)
    assert full.coeffs == {"x": parse_matrix("[1 5000 ; 0 1]")}
    assert full.const == Mat.column([5000, 0])
    projected = eval_term(interp, t, Mat.ones(1, 2))
    assert projected.coeffs == {"x": from_rows([[1, 5001]])}
    assert projected.const == Mat(1, 1, (5000,))


def test_full_forms_agree_with_reference():
    """Full forms equal the bottom-up reference, across rules, auto pairs
    and a pairs file that repeats rule subterms; the files are parsed
    apart, so they share subterms only through interning. check_problem's
    entrywise verdicts equal those of the reference forms, under many
    interpretations of the same terms, each at the interpretation's block."""
    rng = random.Random(37)
    repeated = 0
    outcomes = set()
    for _ in range(30):
        interp = _rand_interp(rng)
        n = interp.shape.dim
        # the pairs' roots share the matrices of c, h and p
        table = dict(interp.table)
        table.update({s + "#": table[s] for s in ("c", "h", "p")})
        interp = Interpretation(interp.shape, interp.domain, table)
        rules = []
        for _ in range(rng.randint(1, 4)):
            lhs = App("p", (_rand_term(rng, 3, ("x", "y")), _rand_term(rng, 3, ("x", "y"))))
            part = rng.choice(list(subterms(lhs)))
            rhs = rng.choice((part, App("h", (part,)), App("p", (part, lhs.args[0]))))
            rules.append(f"{lhs} -> {rhs}")
        trs = parse_trs("(VAR x y) (RULES " + " ".join(rules) + ")")
        pair_lines = []
        for _ in range(rng.randint(1, 3)):
            rule = rng.choice(trs.rules)
            parts = [*subterms(rule.lhs), *subterms(rule.rhs)]
            rhs = rng.choice([App("c#")] + [App("h#", (t,)) for t in parts])
            pair_lines.append(f"p#{str(rule.lhs)[1:]} -> {rhs}")
        pairs = (parse_trs("(VAR x y) (RULES " + " ".join(pair_lines) + ")").rules
                 + dependency_pairs(trs))
        references = {}

        def reference(t):
            if t not in references:
                references[t] = LinearForm(n, *_reference_form(interp, t))
            return references[t]

        checks = [("weak", r) for r in trs.rules] + [("strict", p) for p in pairs]
        for rel, rule in checks:
            for t in (rule.lhs, rule.rhs):
                # sides met before, which one check evaluates once
                repeated += t in references
                assert eval_term(interp, t) == reference(t)
        expected = [interp_module.decide(reference(rule.lhs), reference(rule.rhs), rel,
                                         "entrywise", interp.shape.block)[0]
                    for rel, rule in checks]
        outcomes.update(v.holds for v in expected)
        report = check_problem(trs, pairs, interp, "entrywise")
        assert [c.verdict for c in report.checks] == expected
    assert repeated > 50 and outcomes == {True, False}


def test_checks_read_the_table_as_it_is_now():
    """A checked table cannot be edited, and a check keeps nothing of an
    interpretation between calls: one rebuilt with f replaced by zeros
    refutes, under both backends, what the entrywise check had proved."""
    trs = parse_trs(read("fg.trs"))
    pairs = dependency_pairs(trs)
    interp = parse_interpretation(read("fg-natural.interp"))
    assert check_problem(trs, pairs, interp, "entrywise").holds
    n, f = interp.shape.dim, interp.table["f"]
    zeros = LinearFunc(tuple(Mat.zero(n) for _ in f.mats), Mat.zero(n, 1))
    with pytest.raises(TypeError):
        interp.table["f"] = zeros
    rebuilt = Interpretation(interp.shape, interp.domain, {**interp.table, "f": zeros})
    for backend in ("entrywise", "value"):
        assert check_problem(trs, pairs, interp, backend).holds
        report = check_problem(trs, pairs, rebuilt, backend)
        assert [c.verdict.holds for c in report.checks] == [True, False, False, False]


def test_checked_tables_cannot_be_edited():
    """An entry the constructor would refuse cannot be put into a checked
    table afterwards, nor into the dict the table was built from."""
    interp = parse_interpretation(read("fg-natural.interp"))
    bad = LinearFunc((Mat(2, 2, (-5, 0, 0, 1)),), Mat(2, 1, (1, 1)))
    with pytest.raises(InterpError, match="f: negative entry"):
        Interpretation(interp.shape, interp.domain, {**interp.table, "f": bad})
    with pytest.raises(TypeError):
        interp.table["f"] = bad
    for build in (Interpretation, Interpretation._derived):
        table = dict(interp.table)
        built = build(interp.shape, interp.domain, table)
        table["f"] = bad
        assert built.table["f"] is interp.table["f"]
        with pytest.raises(TypeError):
            built.table["f"] = bad
    trs = parse_trs(read("fg.trs"))
    assert check_problem(trs, dependency_pairs(trs), interp, "value").holds


def test_check_entrywise_examples(ex2, ex62):
    lhs = eval_term(ex2, App("f#", (App("f", (Var("x"),)),)))
    rhs = eval_term(ex2, App("f#", (Var("x"),)))
    assert check_entrywise(lhs, rhs, "strict").holds
    assert check_entrywise(lhs, lhs, "weak").holds
    assert not check_entrywise(lhs, lhs, "strict").holds
    lhs = eval_term(ex62, App("f#", (App("f", (Var("x"),)),)))
    rhs = eval_term(ex62, App("f#", (App("g", (App("f", (Var("x"),)),)),)))
    verdict = check_entrywise(lhs, rhs, "strict")
    assert not verdict.holds and "(2,2)" in verdict.detail and "(3,0)" in verdict.detail


def test_check_value_examples(ex62):
    lhs = eval_term(ex62, App("f#", (App("f", (Var("x"),)),)))
    rhs = eval_term(ex62, App("f#", (App("g", (App("f", (Var("x"),)),)),)))
    verdict = check_value(lhs, rhs, "strict", 2, F(1, 2))
    assert verdict.holds
    assert not check_value(lhs, rhs, "strict", 2, F(2, 3)).holds
    assert check_value(lhs, lhs, "weak", 2).holds
    with pytest.raises(InterpError, match="delta"):
        check_value(lhs, rhs, "strict", 2)


def test_check_value_rhs_only_variable():
    zero = Mat.zero(2, 1)
    lhs = LinearForm(2, {}, Mat.column([5, 5]))
    rhs = LinearForm(2, {"x": Mat.ones(2)}, zero)
    assert not check_value(lhs, rhs, "weak", 2).holds
    assert not check_entrywise(lhs, rhs, "weak").holds


def test_check_problem_example_two(ex2):
    trs, pairs = example_one()
    report = check_problem(trs, pairs, ex2, "entrywise")
    assert report.holds and len(report.checks) == 4
    assert [c.rel for c in report.checks] == ["weak", "weak", "strict", "strict"]


def test_check_problem_empty():
    trs = parse_trs("(VAR x) (RULES )")
    interp = Interpretation(BlockShape(1, 1), "natural", {})
    assert check_problem(trs, (), interp, "value").holds


def test_check_problem_expanded_value(ex62):
    trs, pairs = example_one()
    report = check_problem(trs, pairs, ex62, "value", m=2, delta=F(1, 2))
    assert report.holds
    entrywise = check_problem(trs, pairs, ex62, "entrywise")
    assert not entrywise.holds
    failing = [c.label for c in entrywise.checks if not c.verdict.holds]
    assert failing == ["pair 1"]


def test_check_problem_defaults(ex2):
    trs, pairs = example_one()
    report = check_problem(trs, pairs, ex2, "value")
    assert report.m == 2 and report.delta == F(1, 2)
    rational = parse_interpretation(read("fg-rational.interp"))
    report = check_problem(trs, pairs, rational, "value")
    assert report.m == 1 and report.delta == F(1, 2)   # file delta wins
    assert report.holds


def test_closure_on_block_constant_tuples():
    # const+scalar-blocked matrix times block-constant tuple is block-constant
    rng = random.Random(31)
    for _ in range(100):
        beta, b = rng.randint(1, 3), rng.randint(1, 3)
        mat = rand_const_scalar_block_mat(rng, beta, b)
        tup = Mat.from_blocks([[Mat.constant(rng.randint(0, 9), b, 1)]
                               for _ in range(beta)])
        out = mat * tup
        for j in range(beta):
            seg = out.entries[j * b:(j + 1) * b]
            assert all(e == seg[0] for e in seg)


def test_value_collapse_homomorphism():
    rng = random.Random(32)
    for _ in range(150):
        beta, b = rng.randint(1, 3), rng.randint(1, 3)
        f = rand_const_scalar_block_mat(rng, beta, b)
        g = rand_const_scalar_block_mat(rng, beta, b)
        assert value_collapse(f * g, b) == value_collapse(f, b) * value_collapse(g, b)
        assert value_collapse(f + g, b) == value_collapse(f, b) + value_collapse(g, b)
        tup = Mat.from_blocks([[Mat.constant(rng.randint(0, 9), b, 1)]
                               for _ in range(beta)])
        from matint.interp import collapse_vector
        assert collapse_vector(f * tup, b) == value_collapse(f, b) * collapse_vector(tup, b)


def test_value_collapse_requires_const_scalar_blocks():
    with pytest.raises(Exception, match="constant-plus-scalar"):
        value_collapse(jordan(2), 2)
    assert value_collapse(jordan(2), 1) == jordan(2)


def test_collapse_interpretation_on_lifted():
    interp = parse_interpretation("""
domain natural
dim 4
block 2
interp f : 1
  M1 = [1 0 1 1 ; 0 1 1 1 ; 0 0 2 1 ; 0 0 1 2]
  C = [3 ; 3 ; 0 ; 0]
""")
    collapsed = collapse_interpretation(interp)
    assert collapsed.shape == BlockShape(2, 1)
    assert collapsed.table["f"].mats[0] == parse_matrix("[1 2 ; 0 3]")
    assert collapsed.table["f"].const == Mat.column([3, 0])


def test_delta_chain_length_bound():
    # over naturals with divisor m, a >_{rho,1/m}-decreasing chain from v has
    # at most m*rho(v)+1 elements; greedy unit decrements achieve the bound
    for m, start in ((1, 7), (3, 4), (4, 2)):
        v = Mat.column([start] + [0] * (m - 1)) if m > 1 else Mat.column([start])
        dim = v.rows
        bound = m * F(rho(m, v)) + 1
        chain = [v]
        while any(chain[-1].nums):
            entries = list(chain[-1].entries)
            i = max(range(dim), key=lambda k: entries[k])
            entries[i] -= 1
            chain.append(Mat.column(entries))
        assert len(chain) == bound
        for hi, lo in zip(chain, chain[1:]):
            assert F(rho(m, hi)) - F(rho(m, lo)) >= F(1, m)


def test_sample_falsify_agrees_with_symbolic(ex2):
    trs, pairs = example_one()
    lhs = eval_term(ex2, trs.rules[0].lhs)
    rhs = eval_term(ex2, trs.rules[0].rhs)
    assert sample_falsify(lhs, rhs, "weak", ex2.shape, "entrywise") is None
    assert sample_falsify(lhs, lhs, "weak", ex2.shape, "entrywise") is None
    assert sample_falsify(lhs, lhs, "weak", ex2.shape, "value") is None


def test_sample_falsify_finds_witness_on_broken_interp(ex2):
    # swapping the f and g coefficient matrices breaks pair 2 strictly
    broken = Interpretation(ex2.shape, "natural", {
        "f": LinearFunc((ex2.table["g"].mats[0],), ex2.table["f"].const),
        "g": LinearFunc((ex2.table["f"].mats[0],), ex2.table["g"].const),
        "f#": ex2.table["f#"],
    })
    trs, pairs = example_one()
    lhs = eval_term(broken, pairs[1].lhs)
    rhs = eval_term(broken, pairs[1].rhs)
    assert not check_entrywise(lhs, rhs, "strict").holds
    witness = sample_falsify(lhs, rhs, "strict", broken.shape, "entrywise")
    assert witness is not None
    x = Mat.column(witness["x"])
    lval = lhs.coeffs["x"] * x + lhs.const
    rval = rhs.coeffs["x"] * x + rhs.const
    assert not (all(a >= b for a, b in zip(lval.entries, rval.entries))
                and lval.entries[0] > rval.entries[0])


def test_sample_falsify_deterministic(ex2):
    trs, pairs = example_one()
    broken = Interpretation(ex2.shape, "natural", {
        "f": LinearFunc((ex2.table["g"].mats[0],), ex2.table["f"].const),
        "g": LinearFunc((ex2.table["f"].mats[0],), ex2.table["g"].const),
        "f#": ex2.table["f#"],
    })
    lhs = eval_term(broken, pairs[1].lhs)
    rhs = eval_term(broken, pairs[1].rhs)
    first = sample_falsify(lhs, rhs, "strict", broken.shape, "entrywise")
    second = sample_falsify(lhs, rhs, "strict", broken.shape, "entrywise")
    assert first == second is not None


def test_sample_falsify_block_constant_draws():
    shape = BlockShape(4, 2)
    lhs = LinearForm(4, {"x": Mat.identity(4)}, Mat.zero(4, 1))
    rhs = LinearForm(4, {"x": Mat.identity(4)}, Mat.zero(4, 1))
    assert sample_falsify(lhs, rhs, "weak", shape, "entrywise") is None
    # witnesses, when produced, must be block-constant: force one
    rhs_big = LinearForm(4, {"x": Mat.identity(4).scale(2)}, Mat.zero(4, 1))
    witness = sample_falsify(lhs, rhs_big, "weak", shape, "value")
    assert witness is not None
    wx = witness["x"]
    assert wx[0] == wx[1] and wx[2] == wx[3]


def test_sample_falsify_finds_a_witness_only_at_the_top_corner():
    # 59 >= x1 + ... + x6 fails where every block value is top = 59 // 6 + 1
    # = 10, and holds where every one is 9
    lhs = LinearForm(6, {}, Mat.column([59, 0, 0, 0, 0, 0]))
    rhs = LinearForm(6, {"x": Mat.identity(6)}, Mat.zero(6, 1))
    witness = sample_falsify(lhs, rhs, "weak", BlockShape(6, 1), "value")
    assert witness == {"x": (10, 10, 10, 10, 10, 10)}
    assert not _violates(lhs, rhs, "weak", "value", 6, None, {"x": (9,) * 6})


def test_sample_falsify_finds_a_witness_past_any_box():
    # 100 >= x fails first at x = 101: no fixed bound below 101 would
    # reach the witness
    lhs, rhs = _form(1, {}, [100]), _form(1, {"x": [[1]]}, [0])
    for backend in ("value", "entrywise"):
        assert sample_falsify(lhs, rhs, "weak", BlockShape(1, 1), backend) == {"x": (101,)}


def test_sample_falsify_top_of_a_strict_value_row():
    # projected forms of dim 2 and block 2, m = 2, delta = 1/3: with x the
    # block value, (x + 7/2 - (3/2 + 1)·x) / 2 >= 1/3 holds for x = 1 and
    # fails first at x = 2
    lhs = LinearForm(2, {"x": Mat(1, 2, (1, 0))}, Mat(1, 1, (F(7, 2),)))
    rhs = LinearForm(2, {"x": Mat(1, 2, (F(3, 2), 1))}, Mat(1, 1, (0,)))
    kw = dict(m=2, delta=F(1, 3))
    assert sample_falsify(lhs, rhs, "strict", BlockShape(2, 2), "value", **kw) == \
        {"x": (2, 2)}
    assert not _violates(lhs, rhs, "strict", "value", point={"x": (1, 1)}, **kw)
    assert _violates(lhs, rhs, "strict", "value", point={"x": (2, 2)}, **kw)


def test_backend_soundness_on_random_corpus():
    trs, pairs = example_one()
    rng = random.Random(34)
    examined = 0
    for _ in range(40):
        interp = mixed_interp(rng)
        for backend in ("entrywise", "value"):
            report = check_problem(trs, pairs, interp, backend)
            for check, rule, rel in zip(
                    report.checks,
                    list(trs.rules) + list(pairs),
                    ["weak"] * len(trs.rules) + ["strict"] * len(pairs)):
                if not check.verdict.holds:
                    continue
                lhs, rhs = eval_term(interp, rule.lhs), eval_term(interp, rule.rhs)
                assert sample_falsify(lhs, rhs, rel, interp.shape, backend,
                                      m=report.m, delta=report.delta) is None
                examined += 1
    assert examined > 100


def test_sample_falsify_rational_scaling_exact():
    # x + 1 >= 2x fails exactly for x > 1: the witness is the least natural
    # past 1 on both backends
    lhs = LinearForm(1, {"x": Mat(1, 1, (1,))}, Mat(1, 1, (1,)))
    rhs = LinearForm(1, {"x": Mat(1, 1, (2,))}, Mat(1, 1, (0,)))
    shape = BlockShape(1, 1)
    for backend in ("value", "entrywise"):
        assert _reference_witness(lhs, rhs, "weak", shape, backend, m=1,
                                  delta=None) == {"x": (2,)}


def test_sample_falsify_rational_domain_takes_natural_corners():
    # 2x >= x + 1 fails on [0, 1), halves included; the zero tuple is a
    # witness, and so the rational domain needs no half-valued tuple
    shape = BlockShape(1, 1)
    lhs = LinearForm(1, {"x": Mat(1, 1, (2,))}, Mat(1, 1, (0,)))
    rhs = LinearForm(1, {"x": Mat(1, 1, (1,))}, Mat(1, 1, (1,)))
    assert _reference_witness(lhs, rhs, "weak", shape, "value", m=1,
                              delta=None) == {"x": (0,)}


def _violates(lhs, rhs, rel, backend, m, delta, point):
    """Whether ``point`` (variable -> tuple) violates lhs REL rhs, by exact
    evaluation of the forms at it."""
    lval, rval = (sum((form.coeff(v) * Mat.column(point[v]) for v in point),
                      form.const).entries
                  for form in (lhs, rhs))
    if backend == "entrywise":
        return any(l < r for l, r in zip(lval, rval)) or (rel == "strict" and lval[0] <= rval[0])
    if rel == "strict":
        return F(sum(lval) - sum(rval), m) < delta
    return sum(lval) < sum(rval)


def _reference_witness(lhs, rhs, rel, shape, backend, m, delta, given=None):
    """``sample_falsify``'s witness on the forms ``given`` (default: lhs and
    rhs, which must be full forms), asserted equal to a probe reference's.

    The reference reads each compared row's gap (lhs − rhs, less m·delta on
    a strict value row) as an affine function of the block values, by exact
    evaluation of the full forms once at the zero tuple and once at each
    block's unit tuple. A row fails somewhere exactly when it fails at zero
    or a coefficient is negative; the first such row gives the witness: the
    zero tuple when it fails at zero, else the least natural top at which
    it fails, on each block whose coefficient is negative, 0 elsewhere. No
    such row means no block-constant tuple violates. A witness must also
    violate by ``_violates``."""
    got = sample_falsify(*(given or (lhs, rhs)), rel, shape, backend, m=m, delta=delta)
    b, beta = shape.block, shape.beta
    variables = sorted(set(lhs.coeffs) | set(rhs.coeffs))
    size = len(variables) * beta

    def point(values):
        return {v: tuple(values[k * beta + i] for i in range(beta) for _ in range(b))
                for k, v in enumerate(variables)}

    def gaps(values):
        lval, rval = (sum((form.coeff(v) * Mat.column(x) for v, x in point(values).items()),
                          form.const).entries
                      for form in (lhs, rhs))
        if backend == "entrywise":
            return [F(l) - r for l, r in zip(lval, rval)]
        return [F(sum(lval)) - sum(rval) - (m * delta if rel == "strict" else 0)]

    def fails(row, gap):
        return gap < 0 or (gap == 0 and rel == "strict" and backend == "entrywise" and row == 0)

    at_zero = gaps([0] * size)
    units = [gaps([int(i == j) for i in range(size)]) for j in range(size)]
    want = None
    for row, const in enumerate(at_zero):
        coeffs = [unit[row] - const for unit in units]
        down = -sum(c for c in coeffs if c < 0)
        if fails(row, const):
            want = point([0] * size)
        elif down:
            top = math.ceil(const / down)
            top += not fails(row, const - down * top)
            want = point([top if c < 0 else 0 for c in coeffs])
        else:
            continue
        break
    assert got == want, (got, want)
    if got is not None:
        assert _violates(lhs, rhs, rel, backend, m, delta, got), got
    return got


def _largest(witness):
    """The largest block value of a witness, 0 for None or no variable."""
    return max((max(x) for x in (witness or {}).values()), default=0)


def _near_forms(rng, n, domain):
    """Two full forms of dimension n whose gap lhs - rhs is near zero: the
    right side is the left one with some entries lowered, and in about half
    of the draws one entry raised, so that witnesses are as common as none.
    Each variable is on both sides, on one side only, or on neither."""
    dens = (1,) if domain == "natural" else (1, 2, 3)

    def entry():
        return F(rng.randint(0, 4), rng.choice(dens)) if rng.random() < 0.7 else 0

    def lowered(entries):
        return [max(0, e - rng.choice((1, 0, 0, 0))) for e in entries]

    lhs, rhs = {}, {}
    for v in ("x", "y", "z"):
        entries = [entry() for _ in range(n * n)]
        place = rng.choice(("both", "left", "right", "neither"))
        if place in ("both", "left"):
            lhs[v] = entries
        if place in ("both", "right"):
            rhs[v] = lowered(entries) if place == "both" else entries
    lconst = [entry() for _ in range(n)]
    rconst = lowered(lconst)
    if rng.random() < 0.5:
        raised = rng.choice((*rhs.values(), rconst))
        raised[rng.randrange(len(raised))] += F(rng.randint(1, 3), rng.choice(dens))
    return tuple(LinearForm(n, {v: Mat(n, n, tuple(c)) for v, c in coeffs.items() if any(c)},
                            Mat.column(const))
                 for coeffs, const in ((lhs, lconst), (rhs, rconst)))


def test_sample_falsify_property_agrees_with_reference():
    """sample_falsify agrees with the probe reference on near-zero gaps:
    block sizes 1-3, value forms with projected and with full rows,
    entrywise forms with full rows, variables absent on one side, natural
    and rational entries, both relations. Over the run, every kind of form
    gives both None and witnesses."""
    kinds = ("value projected", "value full", "entrywise full")
    outcomes, one_sided = set(), set()

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32), st.integers(1, 3), st.integers(1, 2),
           st.sampled_from(kinds), st.sampled_from(("natural", "rational")),
           st.sampled_from(("weak", "strict")))
    def agrees(draw_seed, block, beta, kind, domain, rel):
        rng = random.Random(draw_seed)
        shape = BlockShape(block * beta, block)
        n, backend = shape.dim, kind.split()[0]
        lhs, rhs = _near_forms(rng, n, domain)
        delta = F(rng.randint(1, 3), rng.randint(1, 3)) if rel == "strict" else None
        given = None
        if kind == "value projected":
            ones = Mat.ones(1, n)
            given = [LinearForm(n, {v: ones * c for v, c in f.coeffs.items()}, ones * f.const)
                     for f in (lhs, rhs)]
        want = _reference_witness(lhs, rhs, rel, shape, backend, m=rng.randint(1, n + 1),
                                  delta=delta, given=given)
        outcomes.add((kind, want is None))
        one_sided.add(set(lhs.coeffs) != set(rhs.coeffs))

    agrees()
    assert outcomes == {(kind, none) for kind in kinds for none in (True, False)}
    assert one_sided == {True, False}


def test_sample_falsify_same_witness_on_full_and_projected_forms():
    rng = random.Random(37)
    found, wide = set(), set()
    for _ in range(60):
        interp = _rand_interp(rng)
        shape, n = interp.shape, interp.shape.dim
        terms = (_rand_term(rng, 3, ("x", "y")), _rand_term(rng, 3, ("x", "y", "z")))
        full = [eval_term(interp, t) for t in terms]
        projected = [eval_term(interp, t, Mat.ones(1, n)) for t in terms]
        for rel, delta in (("weak", None), ("strict", F(1, n)),
                           ("strict", F(rng.randint(1, 4), rng.randint(1, 4)))):
            want = _reference_witness(*full, rel, shape, "value", m=n, delta=delta)
            assert _reference_witness(*full, rel, shape, "value", m=n, delta=delta,
                                      given=projected) == want
            found.add((rel, shape.block, want is None))
            # witnesses with a block value above 10
            if _largest(want) > 10:
                wide.add(interp.domain)
            _reference_witness(*full, rel, shape, "entrywise", m=n, delta=delta)
    assert {(rel, block, False) for rel in ("weak", "strict") for block in (1, 2)} <= found
    assert ("weak", 2, True) in found and ("strict", 2, True) in found
    assert wide == {"natural", "rational"}


def test_sample_falsify_big_values_stay_exact():
    # values past 2**63 must not wrap around in machine ints
    shape = BlockShape(2, 1)
    big = 2 ** 61
    lhs = LinearForm(2, {"x": from_rows([[big, 0], [0, big]])}, Mat.column([big, 0]))
    rhs = LinearForm(2, {"x": from_rows([[big, 1], [0, big - 1]]),
                         "y": from_rows([[1, 0], [0, 0]])}, Mat.column([0, 7]))
    ones = Mat.ones(1, 2)
    projected = [LinearForm(2, {v: ones * c for v, c in f.coeffs.items()}, ones * f.const)
                 for f in (lhs, rhs)]
    for rel, delta in (("weak", None), ("strict", F(1, 5)), ("strict", F(big, 3))):
        kw = dict(m=2, delta=delta)
        _reference_witness(lhs, rhs, rel, shape, "entrywise", **kw)
        want = _reference_witness(lhs, rhs, rel, shape, "value", **kw)
        assert _reference_witness(lhs, rhs, rel, shape, "value", given=projected,
                                  **kw) == want


def test_sample_falsify_mixed_denominators():
    # coefficients in thirds (and a sixth), constants in halves (and a
    # quarter): the falsifier's common denominator must scale each exactly.
    # ``rhs`` is above lhs in some entry of every coefficient, ``low`` below
    # it in every entry
    lhs = LinearForm(2, {"x": from_rows([[F(1, 3), F(2, 3)], [0, F(4, 3)]]),
                         "y": from_rows([[F(1, 6), 0], [F(2, 3), 0]])},
                     Mat.column([F(1, 2), F(3, 2)]))
    rhs = LinearForm(2, {"x": from_rows([[F(2, 3), 0], [F(1, 3), 1]]),
                         "z": from_rows([[0, F(1, 3)], [0, 0]])},
                     Mat.column([F(1, 4), F(1, 2)]))
    low = LinearForm(2, {"x": from_rows([[F(1, 6), F(1, 3)], [0, 1]]),
                         "y": from_rows([[F(1, 6), 0], [F(1, 3), 0]])},
                     Mat.column([F(1, 4), F(3, 2)]))
    ones = Mat.ones(1, 2)
    outcomes = set()
    for shape in (BlockShape(2, 1), BlockShape(2, 2)):
        for right in (rhs, low):
            projected = [LinearForm(2, {v: ones * c for v, c in f.coeffs.items()},
                                    ones * f.const) for f in (lhs, right)]
            for rel, delta in (("weak", None), ("strict", F(1, 3)), ("strict", F(5, 6))):
                kw = dict(m=2, delta=delta)
                wants = {backend: _reference_witness(lhs, right, rel, shape, backend, **kw)
                         for backend in ("entrywise", "value")}
                outcomes |= {(backend, want is None) for backend, want in wants.items()}
                assert _reference_witness(lhs, right, rel, shape, "value", given=projected,
                                          **kw) == wants["value"]
    assert outcomes == {(b, found) for b in ("entrywise", "value") for found in (True, False)}


def test_sample_falsify_rejects_bad_arguments(ex2):
    trs, pairs = example_one()
    full = [eval_term(ex2, t) for t in (trs.rules[0].lhs, trs.rules[0].rhs)]
    projected = [eval_term(ex2, t, Mat.ones(1, 2)) for t in (trs.rules[0].lhs,
                                                              trs.rules[0].rhs)]
    with pytest.raises(InterpError, match="full forms"):
        sample_falsify(*projected, "weak", ex2.shape, "entrywise")
    with pytest.raises(InterpError, match="rows"):
        sample_falsify(full[0], projected[1], "weak", ex2.shape, "value")
    assert sample_falsify(*projected, "weak", ex2.shape, "value") is None


def test_check_problem_samples_holds_verdicts(ex62):
    # one decision gives the verdict and the witness: a HOLDS has none
    trs, pairs = example_one()
    for backend in ("entrywise", "value"):
        report = check_problem(trs, pairs, ex62, backend)
        assert all((c.witness is None) == c.verdict.holds for c in report.checks)


def test_check_problem_gives_the_witnesses_of_separate_calls():
    # rules with 1, 3 and 1 variables under random interpretations: every
    # FAILS has the witness that sample_falsify finds on the same forms,
    # and no HOLDS has one
    trs = parse_trs("(VAR x y z) (RULES h(x) -> p(x,x) "
                    "p(p(x,y),z) -> p(x,p(y,h(z))) h(h(x)) -> h(c))")
    pairs = parse_trs("(VAR x y) (RULES p(x,c) -> h(x) p(x,y) -> p(y,x))").rules
    rng = random.Random(61)
    found = set()
    for shape in (BlockShape(2, 1), BlockShape(4, 2), BlockShape(3, 1)):
        for domain in ("natural", "rational"):
            for _ in range(3):
                interp = _rand_interp(rng, shape, domain)
                n = shape.dim
                for backend in ("entrywise", "value"):
                    report = check_problem(trs, pairs, interp, backend)
                    left = Mat.ones(1, n) if backend == "value" else None
                    sides = [(r, "weak") for r in trs.rules] + [(r, "strict") for r in pairs]
                    for check, (rule, rel) in zip(report.checks, sides):
                        lhs, rhs = (eval_term(interp, t, left) for t in (rule.lhs, rule.rhs))
                        want = sample_falsify(lhs, rhs, rel, shape, backend, m=n,
                                              delta=F(1, n))
                        assert check.witness == want
                        assert (want is None) == check.verdict.holds
                        found.add((shape.block, domain, backend, want is None))
    assert found == {(b, d, be, none) for b in (1, 2) for d in ("natural", "rational")
                     for be in ("entrywise", "value") for none in (True, False)}


def test_quotient_checks_agree_with_the_full_forms():
    # check_problem decides a block-2 or block-3 interpretation on its
    # quotient; each verdict (with its detail) and witness is decide's on
    # the full forms, under both backends, with m and delta given and
    # defaulted. The detail kinds met are counted, so that a full row
    # number, a full constant vector and a first component all show
    rng = random.Random(32)
    found, kinds = set(), set()
    # the FAILS details, each told by the first of these it contains
    detail_kinds = ("row", "block column", "const: (", "first component", "margin", "rho")
    for trial in range(120):
        block = 2 + trial % 2
        shape = BlockShape(block * rng.randint(1, 3), block)
        n = shape.dim
        domain = rng.choice(("natural", "rational"))
        interp = _rand_interp(rng, shape, domain)
        assert interp.quotient.shape == BlockShape(shape.beta)
        rules = []
        while len(rules) < 4:
            lhs = _rand_term(rng, 3, "xy")
            if lhs.__class__ is App:
                rules.append(Rule(lhs, _rand_term(rng, 3, "xy")))
        trs = Trs(frozenset("xy"), tuple(rules[:3]), {})
        pairs = (rules[0], Rule(rules[3].lhs, rules[3].lhs))
        sides = [(r, "weak") for r in trs.rules] + [(r, "strict") for r in pairs]
        full = {t: eval_term(interp, t) for rule, _ in sides for t in (rule.lhs, rule.rhs)}
        given = rng.randint(1, 2 * n), F(rng.randint(1, 3), rng.randint(1, 4))
        for backend in ("entrywise", "value"):
            for m, delta in ((None, None), given):
                report = check_problem(trs, pairs, interp, backend, m, delta)
                want_m = n if m is None else m
                want_delta = F(1, want_m) if delta is None else delta
                for check, (rule, rel) in zip(report.checks, sides):
                    lhs, rhs = full[rule.lhs], full[rule.rhs]
                    want = interp_module.decide(lhs, rhs, rel, backend, block,
                                                want_m, want_delta)
                    assert (check.verdict, check.witness) == want
                    assert check.witness == sample_falsify(lhs, rhs, rel, shape, backend,
                                                           want_m, want_delta)
                    if m is None:
                        # decide's own default m for quotient forms is n too
                        left = (Mat.constant(block, 1, shape.beta) if backend == "value"
                                else None)
                        ql, qr = eval_term(interp.quotient, (rule.lhs, rule.rhs), left)
                        assert interp_module.decide(ql, qr, rel, backend, block,
                                                    delta=want_delta, quotient=True) == want
                    found.add((block, backend, check.verdict.holds))
                    detail = check.verdict.detail
                    if not check.verdict.holds:
                        kinds.add(next(kind for kind in detail_kinds if kind in detail))
                    if backend == "entrywise" and "row" in detail:
                        # the first full row of its block
                        row = int(detail.split("row ")[1].split()[0])
                        assert row % block == 1
    assert found == {(b, be, h) for b in (2, 3) for be in ("entrywise", "value")
                     for h in (True, False)}
    assert kinds == set(detail_kinds)


def test_check_problem_decides_each_distinct_constraint_once(monkeypatch):
    # rule 2 repeats rule 1, and pair 2 pair 1; pair 1 is rule 1 again, but
    # strict. Each distinct (lhs, rhs, relation) is decided once, and each
    # of its labels gets its verdict and witness
    trs = parse_trs("(VAR x) (RULES f(g(x)) -> f(x) f(g(x)) -> f(x) g(x) -> x)")
    pairs = parse_trs("(VAR x) (RULES f(g(x)) -> f(x) f(g(x)) -> f(x))").rules
    interp = parse_interpretation("domain natural\ndim 2\nblock 1\n"
                                  "interp f : 1\n  M1 = [1 0 ; 0 1]\n  C = [0 ; 0]\n"
                                  "interp g : 1\n  M1 = [1 0 ; 0 1]\n  C = [2 ; 2]\n")
    calls = []
    original = interp_module.decide

    def counting(*args, **kwargs):
        calls.append(args[3])
        return original(*args, **kwargs)

    monkeypatch.setattr(interp_module, "decide", counting)
    for backend in ("entrywise", "value"):
        calls.clear()
        report = check_problem(trs, pairs, interp, backend)
        assert calls == [backend] * 3
        assert [c.label for c in report.checks] == \
            ["rule 1", "rule 2", "rule 3", "pair 1", "pair 2"]
        assert [c.rule for c in report.checks] == [*trs.rules, *pairs]
        checks = report.checks
        assert checks[0].verdict is checks[1].verdict and checks[3].verdict is checks[4].verdict
        assert all(c.verdict.holds and c.witness is None for c in checks)


def _form(dim, coeffs, const):
    """A linear form from rows of coefficients per variable and a constant."""
    return LinearForm(dim, {v: from_rows(rows) for v, rows in coeffs.items()},
                      Mat.column(const))


def test_sample_edge_cases_match_reference():
    # (backend, rel, m, delta, lhs, rhs, witness found)
    x1 = lambda c, k: _form(1, {"x": [[c]]} if c else {}, [k])
    big = 2 ** 70
    cases = [
        # a gap at the floor holds, one below it fails
        ("entrywise", "weak", 1, None, x1(2, 0), x1(1, 0), False),
        ("entrywise", "weak", 1, None, x1(2, 0), x1(1, 1), True),
        ("value", "weak", 1, None, x1(2, 0), x1(1, 0), False),
        ("value", "weak", 1, None, x1(2, 0), x1(1, 1), True),
        ("entrywise", "strict", 1, None, x1(2, 1), x1(1, 0), False),
        ("entrywise", "strict", 1, None, x1(2, 1), x1(1, 1), True),
        ("value", "strict", 1, F(1), x1(1, 1), x1(1, 0), False),
        ("value", "strict", 1, F(1), x1(1, 1), x1(2, 0), True),
        ("value", "strict", 3, F(1, 3), x1(1, 1), x1(1, 0), False),
        ("value", "strict", 3, F(1, 2), x1(1, 1), x1(1, 0), True),
        # large coefficients and constants
        ("entrywise", "weak", 1, None, x1(1, 0), x1(0, 0), False),
        ("value", "weak", 1, None, x1(1, 32), x1(0, 0), False),
        ("value", "weak", 1, None, x1(256, 0), x1(0, 0), False),
        ("entrywise", "weak", 1, None, x1(1, 0), x1(0, 1), True),
        # x >= 2x holds at the zero tuple only
        ("entrywise", "weak", 1, None, x1(1, 0), x1(2, 0), True),
        ("entrywise", "strict", 1, None, x1(1, 0), x1(1, 0), True),
        ("value", "weak", 1, None, x1(1, 0), x1(2, 0), True),
        ("value", "weak", 1, None, x1(3, 0), x1(2, 0), False),
        # ground rules
        ("entrywise", "weak", 1, None, x1(0, 1), x1(0, 2), True),
        ("value", "strict", 1, F(1), x1(0, 2), x1(0, 1), False),
        ("value", "strict", 1, F(3, 2), x1(0, 2), x1(0, 1), True),
        # negative gaps larger than any positive one
        ("entrywise", "weak", 1, None, _form(1, {"y": [[1]]}, [5]), x1(100, 0), True),
        ("value", "weak", 1, None, _form(1, {"y": [[1]]}, [0]),
         _form(1, {"y": [[1]], "x": [[300]]}, [0]), True),
        # entries up to 2**70
        ("entrywise", "weak", 1, None, x1(big, big), x1(big, big), False),
        ("entrywise", "strict", 1, None, x1(big, big), x1(big, big), True),
        ("value", "weak", 1, None, _form(1, {"x": [[big]]}, [big]),
         _form(1, {"x": [[big]], "y": [[1]]}, [big - 3]), True),
        ("value", "strict", 1, F(big), x1(big + 1, big), x1(1, 0), False),
        ("value", "strict", 1, F(big + 1), x1(big + 1, big), x1(1, 0), True),
    ]
    for backend, rel, m, delta, lhs, rhs, found in cases:
        want = _reference_witness(lhs, rhs, rel, BlockShape(1, 1), backend, m=m, delta=delta)
        assert (want is not None) == found, (backend, rel, lhs, rhs)


def test_sample_witness_is_the_corner_of_the_first_failing_row():
    # entrywise rows fail at different tuples, or only one row fails: the
    # witness is that of the first row that fails somewhere, the zero tuple
    # where that row fails at zero (on the strict first row, a zero gap
    # fails), else its top on its negative blocks
    shape = BlockShape(2, 1)
    eye = Mat.identity(2)
    cases = [
        (_form(2, {"x": [[1, 0], [0, 1]]}, [0, 0]), _form(2, {"x": [[2, 0], [0, 0]]}, [0, 0]),
         {"x": (1, 0)}, {"x": (0, 0)}),
        (_form(2, {"x": [[1, 0], [0, 1]]}, [0, 0]), _form(2, {"x": [[0, 0], [0, 2]]}, [0, 0]),
         {"x": (0, 1)}, {"x": (0, 0)}),
        (_form(2, {"x": [[1, 0], [0, 1]]}, [8, 8]), _form(2, {"x": [[2, 0], [0, 2]]}, [0, 0]),
         {"x": (9, 0)}, {"x": (8, 0)}),
        (LinearForm(2, {"x": eye, "y": eye}, Mat.column([0, 5])),
         LinearForm(2, {"x": eye.scale(2)}, Mat.column([3, 0])),
         {"x": (0, 0), "y": (0, 0)}, {"x": (0, 0), "y": (0, 0)}),
    ]
    for lhs, rhs, weak, strict in cases:
        for rel, corner in (("weak", weak), ("strict", strict)):
            assert _reference_witness(lhs, rhs, rel, shape, "entrywise", m=2,
                                      delta=F(1, 2)) == corner


def test_sampling_argument_errors_come_before_any_draw(ex62):
    # an unknown backend, or a strict value comparison without delta, is
    # refused before any gap row is built
    trs, pairs = example_one()
    with pytest.raises(InterpError, match="unknown backend"):
        check_problem(trs, pairs, ex62, "bits")
    full = [eval_term(ex62, t) for t in (trs.rules[0].lhs, trs.rules[0].rhs)]
    with pytest.raises(InterpError, match="unknown backend"):
        sample_falsify(*full, "weak", ex62.shape, "bits")
    with pytest.raises(InterpError, match="delta"):
        sample_falsify(*full, "strict", ex62.shape, "value")


def test_uniform_corpus_holds_checks_draw_nothing():
    # the 200-instance corpus of acceptance criterion 9, decided by
    # check_problem over all block-constant tuples: no HOLDS verdict has a
    # witness, and every FAILS has one
    trs = parse_trs(read("fg.trs"))
    pairs = dependency_pairs(trs)
    sampled = 0
    for i in range(200):
        interp = uniform_interp(random.Random(3000 + i))
        for backend in ("entrywise", "value"):
            report = check_problem(trs, pairs, interp, backend)
            assert all((c.witness is None) == c.verdict.holds for c in report.checks)
            sampled += sum(c.verdict.holds for c in report.checks)
    assert sampled >= 400


def test_top_edges_match_reference():
    # gap(x, y) = d + y - x fails somewhere for every d >= 0, first at
    # x = top, y = 0, where top is the least natural at which it fails: for
    # d in (0, 1/2, 1, 3, 7/2), the tops of each backend, relation and delta
    # (m = 1), with 0 for the zero tuple
    cases = [
        ("entrywise", "weak", None, (1, 1, 2, 4, 4)),
        ("value", "weak", None, (1, 1, 2, 4, 4)),
        ("entrywise", "strict", None, (0, 1, 1, 3, 4)),
        ("value", "strict", F(1), (0, 0, 1, 3, 3)),
        ("value", "strict", F(1, 2), (0, 1, 1, 3, 4)),
    ]
    shape = BlockShape(1, 1)
    for backend, rel, delta, tops in cases:
        for d, top in zip((0, F(1, 2), 1, 3, F(7, 2)), tops):
            lhs, rhs = _form(1, {"y": [[1]]}, [d]), _form(1, {"x": [[1]]}, [0])
            want = _reference_witness(lhs, rhs, rel, shape, backend, m=1, delta=delta)
            assert want == {"x": (top,), "y": (0,)}, (backend, rel, delta, d)

import random
from fractions import Fraction

import pytest

from matint import (App, BlockShape, Interpretation, InterpError, LinearForm,
                    LinearFunc, Mat, Var, check_entrywise, check_problem,
                    check_value, collapse_interpretation, dependency_pairs, eval_term,
                    format_interpretation, jordan, parse_interpretation,
                    parse_matrix, parse_trs, rho, sample_falsify, subterms,
                    value_collapse)
from matint.interp import _draws
from matint.matrix import as_rat
from _helpers import (example_one, mixed_interp, rand_const_scalar_block_mat,
                      read)

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
    trs = parse_trs("(VAR x y) (RULES f(x,y) -> x)")
    with pytest.raises(InterpError, match="arity"):
        parse_interpretation(read("fg-natural.interp"), trs.signature)
    with pytest.raises(InterpError, match="uninterpreted"):
        parse_interpretation(read("fg-natural.interp"),
                             parse_trs("(VAR x) (RULES h(x) -> x)").signature)


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
    four is all-zero."""
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
        return Mat(dim, dim, tuple(entry() for _ in range(dim * dim)))

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
    return {v: c for v, c in coeffs.items() if not c.is_zero()}, const


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
    # h^k(c) = (2k, 1); the chain folds bottom-up by matrix-vector products
    shapes = []
    product = Mat.__mul__

    def recording(a, b):
        shapes.append((a.shape, b.shape))
        return product(a, b)

    monkeypatch.setattr(Mat, "__mul__", recording)
    assert eval_term(interp, t) == LinearForm(2, {}, Mat.column([4000, 1]))
    assert len(shapes) == 2000 and all(b == (2, 1) for a, b in shapes)
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
    assert projected.coeffs == {"x": Mat.from_rows([[1, 5001]])}
    assert projected.const == Mat(1, 1, (5000,))


def test_memoised_full_forms_agree_with_reference():
    """Full forms read from and written to one memo equal the bottom-up
    reference, across rules, auto pairs and a pairs file that repeats rule
    subterms; the files are parsed apart, so they share subterms only
    through interning. check_problem's entrywise verdicts equal those of
    the reference forms, under many interpretations of the same terms."""
    rng = random.Random(37)
    reused = 0
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

        memo = {}
        checks = [("weak", r) for r in trs.rules] + [("strict", p) for p in pairs]
        for rel, rule in checks:
            for t in (rule.lhs, rule.rhs):
                reused += t in memo
                assert eval_term(interp, t, None, memo) == reference(t)
        assert all(form == reference(t) for t, form in memo.items())
        expected = [check_entrywise(reference(rule.lhs), reference(rule.rhs), rel)
                    for rel, rule in checks]
        outcomes.update(v.holds for v in expected)
        report = check_problem(trs, pairs, interp, "entrywise")
        assert [c.verdict for c in report.checks] == expected
    assert reused > 50 and outcomes == {True, False}


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
        while chain[-1].sum_entries() > 0:
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
    assert sample_falsify(lhs, rhs, "weak", ex2.shape, "entrywise",
                          trials=1000, seed=0) is None
    assert sample_falsify(lhs, lhs, "weak", ex2.shape, "entrywise",
                          trials=50, seed=1) is None
    assert sample_falsify(lhs, lhs, "weak", ex2.shape, "value",
                          trials=50, seed=1) is None


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
    witness = sample_falsify(lhs, rhs, "strict", broken.shape, "entrywise",
                             trials=1000, bound=10, seed=0)
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
    first = sample_falsify(lhs, rhs, "strict", broken.shape, "entrywise", seed=42)
    second = sample_falsify(lhs, rhs, "strict", broken.shape, "entrywise", seed=42)
    assert first == second is not None


def test_sample_falsify_block_constant_draws():
    shape = BlockShape(4, 2)
    lhs = LinearForm(4, {"x": Mat.identity(4)}, Mat.zero(4, 1))
    rhs = LinearForm(4, {"x": Mat.identity(4)}, Mat.zero(4, 1))
    assert sample_falsify(lhs, rhs, "weak", shape, "entrywise",
                          trials=20, seed=3) is None
    # witnesses, when produced, must be block-constant: force one
    rhs_big = LinearForm(4, {"x": Mat.identity(4).scale(2)}, Mat.zero(4, 1))
    witness = sample_falsify(lhs, rhs_big, "weak", shape, "value",
                             trials=200, seed=3)
    assert witness is not None
    wx = witness["x"]
    assert wx[0] == wx[1] and wx[2] == wx[3]


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
                for seed in (0, 1, 2):
                    assert sample_falsify(
                        lhs, rhs, rel, interp.shape, backend,
                        m=report.m, delta=report.delta,
                        trials=300, bound=10, seed=seed) is None
                examined += 1
    assert examined > 100


def test_sample_falsify_rational_scaling_exact():
    # x + 1 >= 2x fails exactly for x > 1; with draws capped at 1 there is no
    # witness, and any witness found at a larger bound must truly violate
    lhs = LinearForm(1, {"x": Mat(1, 1, (1,))}, Mat(1, 1, (1,)))
    rhs = LinearForm(1, {"x": Mat(1, 1, (2,))}, Mat(1, 1, (0,)))
    shape = BlockShape(1, 1)
    for backend in ("value", "entrywise"):
        assert sample_falsify(lhs, rhs, "weak", shape, backend, trials=500,
                              bound=1, seed=0, domain="rational") is None
        witness = sample_falsify(lhs, rhs, "weak", shape, backend, trials=500,
                                 bound=3, seed=0, domain="rational")
        assert witness is not None and witness["x"][0] > 1


def test_sample_falsify_rational_domain_draws_halves():
    shape = BlockShape(1, 1)
    lhs = LinearForm(1, {"x": Mat(1, 1, (2,))}, Mat(1, 1, (0,)))
    rhs = LinearForm(1, {"x": Mat(1, 1, (1,))}, Mat(1, 1, (1,)))
    witness = sample_falsify(lhs, rhs, "weak", shape, "value",
                             trials=400, bound=2, seed=5, domain="rational")
    assert witness is not None
    assert all(v * 2 == int(v * 2) for v in witness["x"])


def _reference_witness(lhs, rhs, rel, shape, backend, m, delta, trials, bound, seed,
                       domain):
    """The first violating tuple by exact evaluation of each trial on the
    full forms, drawing block values with randint in sample_falsify's order
    (variable by variable, block by block, trial by trial)."""
    b, beta = shape.block, shape.beta
    den = 1 if domain == "natural" else 2
    rng = random.Random(seed)
    variables = sorted(set(lhs.coeffs) | set(rhs.coeffs))
    draws = {v: [[rng.randint(0, bound * den) for _ in range(trials)] for _ in range(beta)]
             for v in variables}
    for t in range(trials):
        point = {v: tuple(as_rat(F(draws[v][i][t], den)) for i in range(beta)
                          for _ in range(b))
                 for v in variables}
        lval, rval = (sum((form.coeff(v) * Mat.column(point[v]) for v in variables),
                          form.const).entries
                      for form in (lhs, rhs))
        if backend == "entrywise":
            bad = any(l < r for l, r in zip(lval, rval))
            bad = bad or (rel == "strict" and lval[0] <= rval[0])
        elif rel == "strict":
            bad = F(sum(lval) - sum(rval), m) < delta
        else:
            bad = sum(lval) < sum(rval)
        if bad:
            return point
    return None


def test_sample_falsify_same_witness_on_full_and_projected_forms():
    rng = random.Random(37)
    found = set()
    for _ in range(60):
        interp = _rand_interp(rng)
        shape, n = interp.shape, interp.shape.dim
        terms = (_rand_term(rng, 3, ("x", "y")), _rand_term(rng, 3, ("x", "y", "z")))
        full = [eval_term(interp, t) for t in terms]
        projected = [eval_term(interp, t, Mat.ones(1, n)) for t in terms]
        seed = rng.choice((0, -5, 2 ** 70, rng.randrange(1000)))
        bound = rng.choice((0, 1, 3, 10))
        for rel, delta in (("weak", None), ("strict", F(1, n)),
                           ("strict", F(rng.randint(1, 4), rng.randint(1, 4)))):
            kw = dict(m=n, delta=delta, trials=30, bound=bound, seed=seed,
                      domain=interp.domain)
            want = _reference_witness(*full, rel, shape, "value", **kw)
            assert sample_falsify(*full, rel, shape, "value", **kw) == want
            assert sample_falsify(*projected, rel, shape, "value", **kw) == want
            found.add((rel, shape.block, want is None))
            want = _reference_witness(*full, rel, shape, "entrywise", **kw)
            assert sample_falsify(*full, rel, shape, "entrywise", **kw) == want
    assert {(rel, block, False) for rel in ("weak", "strict") for block in (1, 2)} <= found
    assert ("weak", 2, True) in found and ("strict", 2, True) in found


def test_sample_falsify_big_values_stay_exact():
    # values past 2**63 must not wrap around in machine ints
    shape = BlockShape(2, 1)
    big = 2 ** 61
    lhs = LinearForm(2, {"x": Mat.from_rows([[big, 0], [0, big]])}, Mat.column([big, 0]))
    rhs = LinearForm(2, {"x": Mat.from_rows([[big, 1], [0, big - 1]]),
                         "y": Mat.from_rows([[1, 0], [0, 0]])}, Mat.column([0, 7]))
    ones = Mat.ones(1, 2)
    for rel, delta in (("weak", None), ("strict", F(1, 5)), ("strict", F(big, 3))):
        for seed in (0, 1, 2):
            kw = dict(m=2, delta=delta, trials=50, bound=10, seed=seed, domain="rational")
            for backend in ("entrywise", "value"):
                want = _reference_witness(lhs, rhs, rel, shape, backend, **kw)
                assert sample_falsify(lhs, rhs, rel, shape, backend, **kw) == want
            projected = [LinearForm(2, {v: ones * c for v, c in f.coeffs.items()},
                                    ones * f.const) for f in (lhs, rhs)]
            assert sample_falsify(*projected, rel, shape, "value", **kw) == \
                _reference_witness(lhs, rhs, rel, shape, "value", **kw)


def test_sample_falsify_mixed_denominators():
    # coefficients in thirds (and a sixth), constants in halves (and a
    # quarter): the sampler's common denominator must scale each exactly
    lhs = LinearForm(2, {"x": Mat.from_rows([[F(1, 3), F(2, 3)], [0, F(4, 3)]]),
                         "y": Mat.from_rows([[F(1, 6), 0], [F(2, 3), 0]])},
                     Mat.column([F(1, 2), F(3, 2)]))
    rhs = LinearForm(2, {"x": Mat.from_rows([[F(2, 3), 0], [F(1, 3), 1]]),
                         "z": Mat.from_rows([[0, F(1, 3)], [0, 0]])},
                     Mat.column([F(1, 4), F(1, 2)]))
    ones = Mat.ones(1, 2)
    projected = [LinearForm(2, {v: ones * c for v, c in f.coeffs.items()}, ones * f.const)
                 for f in (lhs, rhs)]
    outcomes = set()
    for shape in (BlockShape(2, 1), BlockShape(2, 2)):
        for domain in ("natural", "rational"):
            for rel, delta in (("weak", None), ("strict", F(1, 3)), ("strict", F(5, 6))):
                for seed, bound in ((0, 1), (1, 3), (2, 10), (3, 2)):
                    kw = dict(m=2, delta=delta, trials=40, bound=bound, seed=seed,
                              domain=domain)
                    for backend in ("entrywise", "value"):
                        want = _reference_witness(lhs, rhs, rel, shape, backend, **kw)
                        assert sample_falsify(lhs, rhs, rel, shape, backend, **kw) == want
                        outcomes.add((backend, want is None))
                    assert sample_falsify(*projected, rel, shape, "value", **kw) == \
                        _reference_witness(lhs, rhs, rel, shape, "value", **kw)
    assert outcomes == {(b, found) for b in ("entrywise", "value") for found in (True, False)}


def test_sample_draws_follow_the_randint_stream():
    for seed in (0, -5, 2 ** 70):
        for top in (0, 1, 2, 20, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3):
            ours, theirs = random.Random(seed), random.Random(seed)
            assert _draws(ours, top, 300) == [theirs.randint(0, top) for _ in range(300)]
            assert ours.getstate() == theirs.getstate()


def test_sample_falsify_rejects_bad_arguments(ex2):
    trs, pairs = example_one()
    full = [eval_term(ex2, t) for t in (trs.rules[0].lhs, trs.rules[0].rhs)]
    projected = [eval_term(ex2, t, Mat.ones(1, 2)) for t in (trs.rules[0].lhs,
                                                              trs.rules[0].rhs)]
    with pytest.raises(InterpError, match="full forms"):
        sample_falsify(*projected, "weak", ex2.shape, "entrywise")
    with pytest.raises(InterpError, match="rows"):
        sample_falsify(full[0], projected[1], "weak", ex2.shape, "value")
    with pytest.raises(InterpError, match="bound"):
        sample_falsify(*full, "weak", ex2.shape, "value", bound=-1)
    with pytest.raises(InterpError, match="trials"):
        sample_falsify(*full, "weak", ex2.shape, "value", trials=0)
    assert sample_falsify(*projected, "weak", ex2.shape, "value", bound=0) is None


def test_check_problem_samples_holds_verdicts(ex62):
    trs, pairs = example_one()
    for backend in ("entrywise", "value"):
        plain = check_problem(trs, pairs, ex62, backend)
        sampled = check_problem(trs, pairs, ex62, backend, trials=200, bound=5, seed=9)
        assert [c.verdict for c in sampled.checks] == [c.verdict for c in plain.checks]
        assert sampled.consistent and all(c.witness is None for c in sampled.checks)
    with pytest.raises(InterpError, match="bound"):
        check_problem(trs, pairs, ex62, "value", trials=10, bound=-1)


def test_draws_are_prefix_consistent():
    # the rest of a stream continues from the same generator: two calls on
    # one generator give one call's values and leave the same state
    for seed in (0, -5, 2 ** 70):
        for top in (0, 1, 20, 2 ** 40 + 3):
            for a, b in ((0, 7), (1, 1), (40, 160), (300, 0)):
                ours, theirs = random.Random(seed), random.Random(seed)
                assert _draws(ours, top, a) + _draws(ours, top, b) == \
                    _draws(theirs, top, a + b)
                assert ours.getstate() == theirs.getstate()


def test_check_problem_pool_gives_the_witnesses_of_separate_calls(monkeypatch):
    # rules with 1, 3 and 1 variables, so the problem's draw pool grows in
    # the middle; every verdict is forced to HOLDS, so every check samples
    # and the random (hence broken) interpretations give witnesses
    import matint.interp as interp_module
    trs = parse_trs("(VAR x y z) (RULES h(x) -> p(x,x) "
                    "p(p(x,y),z) -> p(x,p(y,h(z))) h(h(x)) -> h(c))")
    pairs = parse_trs("(VAR x y) (RULES p(x,c) -> h(x) p(x,y) -> p(y,x))").rules
    holds = lambda *args: interp_module.Verdict(True)
    monkeypatch.setattr(interp_module, "check_entrywise", holds)
    monkeypatch.setattr(interp_module, "check_value", holds)
    rng = random.Random(61)
    found = set()
    for shape in (BlockShape(2, 1), BlockShape(4, 2), BlockShape(3, 1)):
        for domain in ("natural", "rational"):
            for seed, bound, trials in ((0, 3, 25), (-5, 10, 40), (2 ** 70, 1, 30)):
                interp = _rand_interp(rng, shape, domain)
                n = shape.dim
                for backend in ("entrywise", "value"):
                    report = check_problem(trs, pairs, interp, backend, trials=trials,
                                           bound=bound, seed=seed)
                    left = Mat.ones(1, n) if backend == "value" else None
                    sides = [(r, "weak") for r in trs.rules] + [(r, "strict") for r in pairs]
                    for check, (rule, rel) in zip(report.checks, sides):
                        lhs, rhs = (eval_term(interp, t, left) for t in (rule.lhs, rule.rhs))
                        want = sample_falsify(lhs, rhs, rel, shape, backend, m=n,
                                              delta=F(1, n), trials=trials, bound=bound,
                                              seed=seed, domain=domain)
                        assert check.witness == want
                        found.add((shape.block, domain, backend, want is None))
    assert found == {(b, d, be, none) for b in (1, 2) for d in ("natural", "rational")
                     for be in ("entrywise", "value") for none in (True, False)}


def test_sample_pool_is_keyed_by_seed_top_and_trials():
    # one pool across calls that differ in seed, bound, domain and trials
    # gives every call the witness it gets alone
    shape = BlockShape(2, 1)
    lhs = LinearForm(2, {"x": Mat.from_rows([[1, 0], [0, 1]]),
                         "y": Mat.from_rows([[0, 1], [1, 0]])}, Mat.column([2, 0]))
    rhs = LinearForm(2, {"x": Mat.from_rows([[1, 1], [0, 0]]),
                         "z": Mat.from_rows([[0, 0], [1, 1]])}, Mat.column([0, 3]))
    rng = random.Random(8)
    pool = {}
    outcomes = set()
    for _ in range(120):
        kw = dict(m=2, delta=F(1, 2), trials=rng.choice((1, 20, 35)),
                  bound=rng.choice((0, 3, 6)), seed=rng.choice((0, 1, -5, 2 ** 70)),
                  domain=rng.choice(("natural", "rational")))
        rel = rng.choice(("weak", "strict"))
        backend = rng.choice(("entrywise", "value"))
        want = sample_falsify(lhs, rhs, rel, shape, backend, **kw)
        assert sample_falsify(lhs, rhs, rel, shape, backend, pool=pool, **kw) == want
        outcomes.add(want is None)
    assert outcomes == {True, False}
    assert len(pool) > 10


def _form(dim, coeffs, const):
    """A linear form from rows of coefficients per variable and a constant."""
    return LinearForm(dim, {v: Mat.from_rows(rows) for v, rows in coeffs.items()},
                      Mat.column(const))


def test_sample_lane_edges_match_reference():
    # (backend, rel, m, delta, lhs, rhs, bound, trials, domain, witness found)
    x1 = lambda c, k: _form(1, {"x": [[c]]} if c else {}, [k])
    big = 2 ** 70
    cases = [
        # a gap at the floor holds, one below it fails
        ("entrywise", "weak", 1, None, x1(2, 0), x1(1, 0), 5, 50, "natural", False),
        ("entrywise", "weak", 1, None, x1(2, 0), x1(1, 1), 5, 50, "natural", True),
        ("value", "weak", 1, None, x1(2, 0), x1(1, 0), 5, 50, "rational", False),
        ("value", "weak", 1, None, x1(2, 0), x1(1, 1), 5, 50, "rational", True),
        ("entrywise", "strict", 1, None, x1(2, 1), x1(1, 0), 5, 50, "natural", False),
        ("entrywise", "strict", 1, None, x1(2, 1), x1(1, 1), 5, 50, "natural", True),
        ("value", "strict", 1, F(1), x1(1, 1), x1(1, 0), 5, 50, "natural", False),
        ("value", "strict", 1, F(1), x1(1, 1), x1(2, 0), 5, 50, "natural", True),
        ("value", "strict", 3, F(1, 3), x1(1, 1), x1(1, 0), 5, 50, "rational", False),
        ("value", "strict", 3, F(1, 2), x1(1, 1), x1(1, 0), 5, 50, "rational", True),
        # the reach is exactly a power of two, and draws reach it
        ("entrywise", "weak", 1, None, x1(1, 0), x1(0, 0), 128, 2000, "natural", False),
        ("value", "weak", 1, None, x1(1, 32), x1(0, 0), 32, 1000, "rational", False),
        ("value", "weak", 1, None, x1(256, 0), x1(0, 0), 128, 2000, "natural", False),
        ("entrywise", "weak", 1, None, x1(1, 0), x1(0, 1), 127, 2000, "natural", True),
        # bound 0: every draw is 0
        ("entrywise", "weak", 1, None, x1(1, 0), x1(2, 0), 0, 10, "natural", False),
        ("entrywise", "strict", 1, None, x1(1, 0), x1(1, 0), 0, 10, "rational", True),
        # one trial
        ("value", "weak", 1, None, x1(1, 0), x1(2, 0), 10, 1, "natural", True),
        ("value", "weak", 1, None, x1(3, 0), x1(2, 0), 10, 1, "natural", False),
        # ground rules
        ("entrywise", "weak", 1, None, x1(0, 1), x1(0, 2), 10, 5, "natural", True),
        ("value", "strict", 1, F(1), x1(0, 2), x1(0, 1), 10, 5, "rational", False),
        ("value", "strict", 1, F(3, 2), x1(0, 2), x1(0, 1), 10, 5, "rational", True),
        # negative gaps larger than any positive one
        ("entrywise", "weak", 1, None, _form(1, {"y": [[1]]}, [5]), x1(100, 0), 10, 60,
         "natural", True),
        ("value", "weak", 1, None, _form(1, {"y": [[1]]}, [0]),
         _form(1, {"y": [[1]], "x": [[300]]}, [0]), 1, 60, "natural", True),
        # entries up to 2**70
        ("entrywise", "weak", 1, None, x1(big, big), x1(big, big), 10, 40, "natural", False),
        ("entrywise", "strict", 1, None, x1(big, big), x1(big, big), 10, 40, "natural", True),
        ("value", "weak", 1, None, _form(1, {"x": [[big]]}, [big]),
         _form(1, {"x": [[big]], "y": [[1]]}, [big - 3]), 10, 40, "rational", True),
        ("value", "strict", 1, F(big), x1(big + 1, big), x1(1, 0), 10, 40, "natural", False),
        ("value", "strict", 1, F(big + 1), x1(big + 1, big), x1(1, 0), 10, 40, "natural", True),
    ]
    for backend, rel, m, delta, lhs, rhs, bound, trials, domain, found in cases:
        for seed in (0, -5, 2 ** 70):
            kw = dict(m=m, delta=delta, trials=trials, bound=bound, seed=seed, domain=domain)
            want = _reference_witness(lhs, rhs, rel, BlockShape(1, 1), backend, **kw)
            assert (want is not None) == found, (backend, rel, lhs, rhs, kw)
            assert sample_falsify(lhs, rhs, rel, BlockShape(1, 1), backend, **kw) == want


def test_sample_lanes_combine_rows_at_the_first_failing_trial():
    # entrywise rows fail at different trials, or only one row fails: the
    # witness is the first trial that fails on any row
    shape = BlockShape(2, 1)
    eye = Mat.identity(2)
    cases = [
        (_form(2, {"x": [[1, 0], [0, 1]]}, [0, 0]), _form(2, {"x": [[2, 0], [0, 0]]}, [0, 0])),
        (_form(2, {"x": [[1, 0], [0, 1]]}, [0, 0]), _form(2, {"x": [[0, 0], [0, 2]]}, [0, 0])),
        (_form(2, {"x": [[1, 0], [0, 1]]}, [8, 8]), _form(2, {"x": [[2, 0], [0, 2]]}, [0, 0])),
        (LinearForm(2, {"x": eye, "y": eye}, Mat.column([0, 5])),
         LinearForm(2, {"x": eye.scale(2)}, Mat.column([3, 0]))),
    ]
    for lhs, rhs in cases:
        for seed in (0, -5, 2 ** 70):
            for rel in ("weak", "strict"):
                kw = dict(m=2, delta=F(1, 2), trials=200, bound=10, seed=seed,
                          domain="natural")
                want = _reference_witness(lhs, rhs, rel, shape, "entrywise", **kw)
                assert want is not None
                assert sample_falsify(lhs, rhs, rel, shape, "entrywise", **kw) == want


def test_sampling_argument_errors_come_before_any_draw(ex62, monkeypatch):
    import matint.interp as interp_module

    def no_draws(*args):
        raise AssertionError("drew from the stream")

    monkeypatch.setattr(interp_module, "_draws", no_draws)
    trs, pairs = example_one()
    with pytest.raises(InterpError, match="bound"):
        check_problem(trs, pairs, ex62, "value", trials=10, bound=-1)
    full = [eval_term(ex62, t) for t in (trs.rules[0].lhs, trs.rules[0].rhs)]
    pool = {}
    with pytest.raises(InterpError, match="bound"):
        sample_falsify(*full, "weak", ex62.shape, "value", bound=-1, pool=pool)
    with pytest.raises(InterpError, match="trials"):
        sample_falsify(*full, "weak", ex62.shape, "value", trials=0, pool=pool)
    assert pool == {}

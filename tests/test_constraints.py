import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import _reference as ref
from matint import (App, ArithConstraint, ConstraintError, EncodingError, EvalResult,
                    ParamInterpretation, Rule, Trs, Var, dependency_pairs, eval_valuation,
                    generate_arith_constraints, parse_pinterp,
                    parse_trs, parse_valuation, required_products)
from matint.cli import _constraint_lines
from matint.constraints import eval_word_sum, format_word_sum
from _helpers import as_words, example_one, flat, read, valuation

EX14 = """
pinterp f : 1 = f1 | f0
pinterp g : 1 = g1 | g0
pinterp f# : 1 = F1 | F0
"""


def words(*ws):
    return tuple(tuple(w.split()) for w in ws)


def nodes(*ws):
    return as_words(words(*ws))


def test_parse_pinterp():
    pi = parse_pinterp(EX14)
    assert pi.table["f"] == (("f1",), "f0")
    assert pi.table["f#"] == (("F1",), "F0")
    params = {name for coeffs, const in pi.table.values() for name in (*coeffs, const)}
    assert params == {"f1", "f0", "g1", "g0", "F1", "F0"}


def test_parse_pinterp_errors():
    with pytest.raises(ConstraintError, match="arity"):
        parse_pinterp("pinterp f : 2 = f1 | f0")
    with pytest.raises(ConstraintError, match="reserved"):
        parse_pinterp("pinterp f : 1 = 1 | f0")
    with pytest.raises(ConstraintError, match="duplicate"):
        parse_pinterp("pinterp f : 1 = p | p")
    with pytest.raises(ConstraintError, match="twice"):
        parse_pinterp("pinterp f : 0 = | a\npinterp f : 0 = | b")
    with pytest.raises(ConstraintError, match="line 1"):
        parse_pinterp("interp f : 1 = f1 | f0")


def test_checked_pinterp_tables_cannot_be_edited():
    table = {"f": (("f1",), "f0")}
    pi = ParamInterpretation(table)
    table["f"] = (("1",), "f0")
    assert pi.table["f"] == (("f1",), "f0")
    for pi in (pi, parse_pinterp(EX14)):
        with pytest.raises(TypeError):
            pi.table["f"] = (("1",), "f0")


def test_parse_valuation():
    eta = parse_valuation(read("fg-rational.val"))
    assert eta["f1"] == 2 and eta["g1"] == Fraction(1, 2)
    assert eta["1"] == 1 and eta["0"] == 0


def test_valuation_validation():
    with pytest.raises(ConstraintError, match="negative"):
        valuation({"p": Fraction(-1, 2)})
    with pytest.raises(ConstraintError, match="reserved"):
        valuation({"1": 2})
    assert valuation({"1": 1})["1"] == 1
    with pytest.raises(ConstraintError, match="twice"):
        parse_valuation("param p = 1\nparam p = 2")


def test_generate_constraints_matches_published_list():
    trs, pairs = example_one()
    cs = generate_arith_constraints(trs, pairs, parse_pinterp(EX14))
    assert len(cs) == 8
    expected = [
        ("rule 1", "x", "weak", words("f1 f1"), words("f1 g1 f1")),
        ("rule 1", "const", "weak", words("f1 f0", "f0"),
         words("f1 g1 f0", "f1 g0", "f0")),
        ("rule 2", "x", "weak", words("f1 g1 f1"), words("1")),
        ("rule 2", "const", "weak", words("f1 g1 f0", "f1 g0", "f0"), words("0")),
        ("pair 1", "x", "weak", words("F1 f1"), words("F1 g1 f1")),
        ("pair 1", "const", "strict", words("F1 f0", "F0"),
         words("F1 g1 f0", "F1 g0", "F0")),
        ("pair 2", "x", "weak", words("F1 f1"), words("F1")),
        ("pair 2", "const", "strict", words("F1 f0", "F0"), words("0")),
    ]
    for c, (source, kind, rel, lhs, rhs) in zip(cs, expected):
        assert (c.source, c.kind, c.rel) == (source, kind, rel)
        assert sorted(flat(c.lhs)) == sorted(lhs)      # word sums match as multisets
        assert sorted(flat(c.rhs)) == sorted(rhs)


def test_generate_constraints_variable_free_rule():
    trs = parse_trs("(VAR x) (RULES a -> b)")
    pi = parse_pinterp("pinterp a : 0 = | a0\npinterp b : 0 = | b0")
    cs = generate_arith_constraints(trs, (), pi)
    assert len(cs) == 1
    assert cs[0].kind == "const"
    assert flat(cs[0].lhs) == words("a0") and flat(cs[0].rhs) == words("b0")


def test_generate_constraints_projection_rule():
    trs = parse_trs("(VAR x) (RULES f(g(f(x))) -> x)")
    pi = parse_pinterp("pinterp f : 1 = f1 | f0\npinterp g : 1 = g1 | g0")
    var_c, const_c = generate_arith_constraints(trs, (), pi)
    assert flat(var_c.lhs) == words("f1 g1 f1") and flat(var_c.rhs) == words("1")
    assert sorted(flat(const_c.lhs)) == sorted(words("f1 g1 f0", "f1 g0", "f0"))
    assert flat(const_c.rhs) == words("0")


def test_generate_constraints_word_order():
    # the rendered order: variables by first occurrence, each variable's
    # words left to right, constant words children first
    trs = parse_trs("(VAR x y) (RULES p(f(y), p(x, y)) -> x)")
    pi = parse_pinterp("pinterp p : 2 = p1 p2 | p0\npinterp f : 1 = f1 | f0")
    cs = generate_arith_constraints(trs, (), pi)
    assert [f"{c.kind}: {c.render()}" for c in cs] == [
        "y: p1 f1 + p2 p2 >= 0", "x: p2 p1 >= 1", "const: p1 f0 + p2 p0 + p0 >= 0"]


def test_generate_constraints_uninterpreted_symbol():
    trs, pairs = example_one()
    pi = parse_pinterp("pinterp f : 1 = f1 | f0")
    with pytest.raises(ConstraintError, match="uninterpreted"):
        generate_arith_constraints(trs, pairs, pi)


def test_generate_constraints_arity_mismatch():
    # zipping g's no parameters with its one argument would drop the x under g
    trs, pairs = example_one()
    pi = parse_pinterp("pinterp f : 1 = f1 | f0\npinterp g : 0 = | g0\n"
                       "pinterp f# : 1 = F1 | F0")
    with pytest.raises(ConstraintError) as exc:
        generate_arith_constraints(trs, pairs, pi)
    assert str(exc.value) == ("symbol 'g' has arity 0 in the parametric interpretation, "
                              "used with 1 argument(s)")


def test_self_pair_stays_unsatisfiable():
    # the rhs-to-0 presentation rule needs a PROPER sub-multiset: a self-pair
    # keeps its (unsatisfiable) strict constraint intact
    trs = parse_trs("(VAR x) (RULES f(x) -> g(x))")
    pair = parse_trs("(VAR x) (RULES f#(x) -> f#(x))").rules
    pi = parse_pinterp(
        "pinterp f : 1 = f1 | f0\npinterp g : 1 = g1 | g0\npinterp f# : 1 = F1 | F0")
    cs = generate_arith_constraints(trs, pair, pi)
    strict = [c for c in cs if c.rel == "strict"]
    # interned: the two sides hold one word object
    assert strict[0].lhs == strict[0].rhs and flat(strict[0].lhs) == words("F0")
    eta = valuation({"f1": 1, "f0": 1, "g1": 1, "g0": 0, "F1": 1, "F0": 1})
    assert not eval_valuation(strict[0], eta).holds


def test_eval_valuation_examples():
    trs, pairs = example_one()
    cs = generate_arith_constraints(trs, pairs, parse_pinterp(EX14))
    eta = parse_valuation(read("fg-rational.val"))
    pair1_const = next(c for c in cs if c.source == "pair 1" and c.kind == "const")
    res = eval_valuation(pair1_const, eta)
    assert res.holds and res.lhs_value == 2 and res.rhs_value == Fraction(3, 2)
    for c in cs:
        assert eval_valuation(c, eta).holds
    # with the delta margin the strict ones still hold at 1/2
    for c in cs:
        assert eval_valuation(c, eta, Fraction(1, 2)).holds


def test_eval_valuation_counts_the_dropped_rhs_words():
    """The pair f#(f(x)) -> f#(x) is written against 0, as criterion 8
    writes it, but its rhs value is that of the dropped word g0."""
    trs = parse_trs("(VAR x) (RULES f(f(x)) -> f(x))")
    pi = parse_pinterp("pinterp f : 1 = f1 | f0\npinterp f# : 1 = g1 | g0")
    const = generate_arith_constraints(trs, dependency_pairs(trs), pi)[-1]
    assert const.render() == "g1 f0 + g0 > 0" and flat(const.dropped) == words("g0")
    res = eval_valuation(const, valuation({"f1": 1, "f0": 0, "g1": 1, "g0": 1}))
    assert (res.holds, res.lhs_value, res.rhs_value) == (False, 1, 1)
    res = eval_valuation(const, valuation({"f1": 1, "f0": 1, "g1": 1, "g0": 1}))
    assert (res.holds, res.lhs_value, res.rhs_value) == (True, 2, 1)


def test_eval_valuation_weak_reflexive():
    c = ArithConstraint(nodes("p q"), nodes("p q"), "weak", "x")
    assert eval_valuation(c, valuation({"p": 3, "q": Fraction(1, 3)})).holds


def test_eval_valuation_strict_needs_gap():
    c = ArithConstraint(nodes("p"), nodes("q"), "strict", "const")
    eta = valuation({"p": 2, "q": 2})
    assert not eval_valuation(c, eta).holds
    eta = valuation({"p": Fraction(9, 4), "q": 2})
    assert eval_valuation(c, eta).holds
    assert not eval_valuation(c, eta, Fraction(1, 2)).holds
    # the self-loop p > p must not hold by a margin of 0 or less
    loop = ArithConstraint(nodes("p"), nodes("p"), "strict", "const")
    for delta in (0, -1):
        with pytest.raises(ConstraintError, match="delta must be positive"):
            eval_valuation(loop, eta, Fraction(delta))


def test_eval_valuation_unbound_parameter():
    c = ArithConstraint(nodes("p"), nodes("q"), "weak", "x")
    with pytest.raises(ConstraintError, match="unbound"):
        eval_valuation(c, valuation({"p": 1}))


def test_word_sums_agree_with_reference():
    """Word sums over random valuations (ints, Fractions, 0 and 1 among
    them) have the reference's value and type; an unbound parameter raises
    the reference's error, naming the first unbound name of the word."""
    rng = random.Random(41)
    names = [f"p{i}" for i in range(6)] + ["0", "1"]
    for _ in range(2000):
        eta = valuation({name: Fraction(rng.randint(0, 12), rng.choice((1, 1, 2, 3, 4)))
                         for name in names[:6] if rng.random() < 0.9})
        ws = tuple(tuple(rng.choice(names) for _ in range(rng.randint(1, 5)))
                   for _ in range(rng.randint(0, 4)))
        try:
            want = ref.eval_word_sum(ws, eta)
        except ConstraintError as exc:
            with pytest.raises(ConstraintError) as got:
                eval_word_sum(as_words(ws), eta, {})
            assert str(got.value) == str(exc)
            continue
        got = eval_word_sum(as_words(ws), eta, {})
        assert got == want and type(got) is type(want)


def test_word_product_is_order_sensitive_in_rendering():
    trs = parse_trs("(VAR x) (RULES f(g(x)) -> x)")
    pi = parse_pinterp("pinterp f : 1 = f1 | f0\npinterp g : 1 = g1 | g0")
    cs = generate_arith_constraints(trs, (), pi)
    assert format_word_sum(cs[0].lhs) == "f1 g1"


# random terms on symbols of arity 0-2 over the variables x and y
_ARITY = {"a": 0, "b": 0, "f": 1, "g": 1, "p": 2, "q": 2}


@st.composite
def _terms(draw, depth):
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        leaf = draw(st.sampled_from(("x", "y", "a", "b")))
        return Var(leaf) if leaf in ("x", "y") else App(leaf)
    symbol = draw(st.sampled_from(("f", "g", "p", "q", "f", "g")))
    return App(symbol, tuple(draw(_terms(depth - 1)) for _ in range(_ARITY[symbol])))


@st.composite
def _problems(draw):
    """Rules and pairs, their parametric interpretation and a valuation that
    mixes ints and fractions and sometimes leaves a parameter unbound."""
    rules = []
    for _ in range(draw(st.integers(1, 3))):
        lhs = draw(_terms(12))
        rules.append(Rule(App("f", (lhs,)) if isinstance(lhs, Var) else lhs,
                          draw(_terms(12))))
    pairs = dependency_pairs(Trs(frozenset("xy"), tuple(rules), {})) \
        if draw(st.booleans()) else ()
    table = {}
    for symbol, arity in _ARITY.items():
        for s in (symbol, symbol + "#"):
            name = s.replace("#", "S")
            table[s] = (tuple(f"{name}{k}" for k in range(1, arity + 1)), f"{name}0")
    values = st.one_of(st.integers(0, 3), st.fractions(0, 3, max_denominator=4))
    eta = {param: draw(values) for coeffs, const in table.values()
           for param in (*coeffs, const)}
    if draw(st.integers(0, 2)) == 0:
        del eta[draw(st.sampled_from(sorted(eta)))]
    return rules, pairs, ParamInterpretation(table), valuation(eta)


def _outcome(func, *args):
    try:
        return func(*args)
    except (ConstraintError, EncodingError) as exc:
        return type(exc).__name__, str(exc)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_problems(), st.sampled_from((None, Fraction(1, 2))))
def test_word_nodes_agree_with_flat_words(problem, delta):
    rules, pairs, pi, eta = problem
    cs = generate_arith_constraints(Trs(frozenset("xy"), tuple(rules), {}), pairs, pi)
    flat_cs = ref.generate_constraints(rules, pairs, pi)
    # the same text, alone and with the text memo the CLI shares
    want = [ref.format_constraint(c) for c in flat_cs]
    assert [f"{c.source} / {c.kind}: {c.render()}" for c in cs] == want
    assert list(_constraint_lines(cs)) == want
    # the same words, parameter by parameter
    for c, (source, kind, rel, lhs, rhs, full) in zip(cs, flat_cs):
        assert (c.source, c.kind, c.rel) == (source, kind, rel)
        assert flat(c.lhs) == lhs and flat(c.rhs) == rhs
        assert flat(c.dropped or c.rhs) == full
        assert [len(w) for w in (*c.lhs, *c.rhs)] == [len(w) for w in (*lhs, *rhs)]
    # the same values, verdicts and unbound-parameter errors, through one memo
    memo = {}
    for c, flat_c in zip(cs, flat_cs):
        got = _outcome(eval_valuation, c, eta, delta, memo)
        if isinstance(got, EvalResult):
            got = (got.holds, got.lhs_value, got.rhs_value)
        assert got == _outcome(ref.eval_constraint, flat_c, eta, delta)
    assert _outcome(required_products, cs, eta) == \
        _outcome(ref.required_products, flat_cs, eta)


def test_flat_words_are_refused():
    # a tuple of names is no word node; its "parent" would be a str whose
    # first character is itself, so the fold would never reach a root
    eta = valuation({"p": 2, "q": 3})
    for flat_word in (("p", "q"), ("p",)):
        with pytest.raises(TypeError, match="expected a word node"):
            eval_word_sum((flat_word,), eta, {})

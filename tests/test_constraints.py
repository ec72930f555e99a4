from fractions import Fraction

import pytest

from matint import (ArithConstraint, ConstraintError, eval_valuation,
                    generate_arith_constraints, make_valuation, parse_pinterp,
                    parse_trs, parse_valuation)
from matint.constraints import format_word_sum
from _helpers import example_one, read

EX14 = """
pinterp f : 1 = f1 | f0
pinterp g : 1 = g1 | g0
pinterp f# : 1 = F1 | F0
"""


def words(*ws):
    return tuple(tuple(w.split()) for w in ws)


def test_parse_pinterp():
    pi = parse_pinterp(EX14)
    assert pi.table["f"] == (("f1",), "f0")
    assert pi.table["f#"] == (("F1",), "F0")
    assert set(pi.parameters()) == {"f1", "f0", "g1", "g0", "F1", "F0"}


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


def test_parse_valuation():
    eta = parse_valuation(read("fg-rational.val"))
    assert eta["f1"] == 2 and eta["g1"] == Fraction(1, 2)
    assert eta["1"] == 1 and eta["0"] == 0


def test_valuation_validation():
    with pytest.raises(ConstraintError, match="negative"):
        make_valuation({"p": Fraction(-1, 2)})
    with pytest.raises(ConstraintError, match="reserved"):
        make_valuation({"1": 2})
    assert make_valuation({"1": 1})["1"] == 1
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
        assert sorted(c.lhs) == sorted(lhs)      # word sums match as multisets
        assert sorted(c.rhs) == sorted(rhs)


def test_generate_constraints_variable_free_rule():
    trs = parse_trs("(VAR x) (RULES a -> b)")
    pi = parse_pinterp("pinterp a : 0 = | a0\npinterp b : 0 = | b0")
    cs = generate_arith_constraints(trs, (), pi)
    assert len(cs) == 1
    assert cs[0].kind == "const"
    assert cs[0].lhs == words("a0") and cs[0].rhs == words("b0")


def test_generate_constraints_projection_rule():
    trs = parse_trs("(VAR x) (RULES f(g(f(x))) -> x)")
    pi = parse_pinterp("pinterp f : 1 = f1 | f0\npinterp g : 1 = g1 | g0")
    var_c, const_c = generate_arith_constraints(trs, (), pi)
    assert var_c.lhs == words("f1 g1 f1") and var_c.rhs == words("1")
    assert sorted(const_c.lhs) == sorted(words("f1 g1 f0", "f1 g0", "f0"))
    assert const_c.rhs == words("0")


def test_generate_constraints_word_order():
    # the rendered order: variables by first occurrence, each variable's
    # words left to right, constant words children first
    trs = parse_trs("(VAR x y) (RULES p(f(y), p(x, y)) -> x)")
    pi = parse_pinterp("pinterp p : 2 = p1 p2 | p0\npinterp f : 1 = f1 | f0")
    cs = generate_arith_constraints(trs, (), pi)
    assert [f"{c.kind}: {c}" for c in cs] == [
        "y: p1 f1 + p2 p2 >= 0", "x: p2 p1 >= 1", "const: p1 f0 + p2 p0 + p0 >= 0"]


def test_generate_constraints_uninterpreted_symbol():
    trs, pairs = example_one()
    pi = parse_pinterp("pinterp f : 1 = f1 | f0")
    with pytest.raises(ConstraintError, match="uninterpreted"):
        generate_arith_constraints(trs, pairs, pi)


def test_self_pair_stays_unsatisfiable():
    # the rhs-to-0 presentation rule needs a PROPER sub-multiset: a self-pair
    # keeps its (unsatisfiable) strict constraint intact
    trs = parse_trs("(VAR x) (RULES f(x) -> g(x))")
    pair = parse_trs("(VAR x) (RULES f#(x) -> f#(x))").rules
    pi = parse_pinterp(
        "pinterp f : 1 = f1 | f0\npinterp g : 1 = g1 | g0\npinterp f# : 1 = F1 | F0")
    cs = generate_arith_constraints(trs, pair, pi)
    strict = [c for c in cs if c.rel == "strict"]
    assert strict[0].lhs == strict[0].rhs == words("F0")
    eta = make_valuation({"f1": 1, "f0": 1, "g1": 1, "g0": 0, "F1": 1, "F0": 1})
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


def test_eval_valuation_weak_reflexive():
    c = ArithConstraint(words("p q"), words("p q"), "weak", "x")
    assert eval_valuation(c, make_valuation({"p": 3, "q": Fraction(1, 3)})).holds


def test_eval_valuation_strict_needs_gap():
    c = ArithConstraint(words("p"), words("q"), "strict", "const")
    eta = make_valuation({"p": 2, "q": 2})
    assert not eval_valuation(c, eta).holds
    eta = make_valuation({"p": Fraction(9, 4), "q": 2})
    assert eval_valuation(c, eta).holds
    assert not eval_valuation(c, eta, Fraction(1, 2)).holds


def test_eval_valuation_unbound_parameter():
    c = ArithConstraint(words("p"), words("q"), "weak", "x")
    with pytest.raises(ConstraintError, match="unbound"):
        eval_valuation(c, make_valuation({"p": 1}))


def test_word_product_is_order_sensitive_in_rendering():
    trs = parse_trs("(VAR x) (RULES f(g(x)) -> x)")
    pi = parse_pinterp("pinterp f : 1 = f1 | f0\npinterp g : 1 = g1 | g0")
    cs = generate_arith_constraints(trs, (), pi)
    assert format_word_sum(cs[0].lhs) == "f1 g1"

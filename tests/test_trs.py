import pytest

from matint import (App, Rule, TrsError, Var, dependency_pairs, format_trs,
                    parse_trs, sharp_name)
from _helpers import read


def test_parse_example_one():
    trs = parse_trs(read("fg.trs"))
    assert trs.variables == {"x"}
    assert trs.signature == {"f": 1, "g": 1}
    assert [str(r) for r in trs.rules] == ["f(f(x)) -> f(g(f(x)))", "f(g(f(x))) -> x"]


def test_parse_empty_rules():
    trs = parse_trs("(VAR x) (RULES )")
    assert trs.rules == ()
    assert trs.variables == {"x"}


def test_parse_constants_with_and_without_parens():
    trs = parse_trs("(VAR x) (RULES a -> b()  f(a,x) -> x)")
    assert trs.signature == {"a": 0, "b": 0, "f": 2}


def test_variable_lhs_rejected():
    with pytest.raises(TrsError, match="variable left-hand side"):
        parse_trs("(VAR x) (RULES x -> f(x))")


def test_fresh_rhs_variable_rejected():
    with pytest.raises(TrsError, match="fresh"):
        parse_trs("(VAR x y) (RULES f(x) -> g(y))")


def test_arity_clash_rejected():
    with pytest.raises(TrsError, match="arity"):
        parse_trs("(VAR x) (RULES f(x) -> f(x,x))")


def test_syntax_error_carries_position():
    with pytest.raises(TrsError, match=r"line 3, column 1"):
        parse_trs("(VAR x)\n(RULES f(x) ->\n)")
    with pytest.raises(TrsError, match="unknown section"):
        parse_trs("(FOO) (RULES )")
    with pytest.raises(TrsError, match="missing"):
        parse_trs("(VAR x)")


def test_comments_ignored():
    trs = parse_trs("; header comment\n(VAR x) ; vars\n(RULES f(x) -> x) ; done")
    assert len(trs.rules) == 1


def test_variable_with_arguments_rejected():
    with pytest.raises(TrsError, match="used with arguments"):
        parse_trs("(VAR x) (RULES f(x(x)) -> x)")


def test_roundtrip_parse_format():
    for name in ("fg.trs", "relative.trs", "fg-pairs.trs"):
        trs = parse_trs(read(name))
        assert parse_trs(format_trs(trs)) == trs


def test_dependency_pairs_example_one():
    trs = parse_trs(read("fg.trs"))
    pairs = dependency_pairs(trs)
    assert [str(p) for p in pairs] == [
        "f#(f(x)) -> f#(g(f(x)))",
        "f#(f(x)) -> f#(x)",
    ]


def test_dependency_pairs_none_when_rhs_has_no_defined_root():
    trs = parse_trs("(VAR x) (RULES f(x) -> g(x))")
    assert dependency_pairs(trs) == ()


def test_dependency_pairs_relative_example():
    # defined symbols of relative.trs are f and a; enumerate rhs subterms by hand
    trs = parse_trs(read("relative.trs"))
    pairs = dependency_pairs(trs)
    assert [str(p) for p in pairs] == [
        "f#(a,g(y),z) -> f#(a,y,g(y))",
        "f#(a,g(y),z) -> a#",
        "f#(b,g(y),z) -> f#(a,y,z)",
        "f#(b,g(y),z) -> a#",
        "f#(x,y,z) -> f#(x,y,g(z))",
    ]


def test_dependency_pairs_deduplicate():
    trs = parse_trs("(VAR x) (RULES f(x) -> g(f(x),f(x)))")
    pairs = dependency_pairs(trs)
    assert [str(p) for p in pairs] == ["f#(x) -> f#(x)"]
    # across rules too, keeping the first occurrence of each pair in input
    # order; pairs equal up to renaming are distinct
    trs = parse_trs("(VAR x y) (RULES f(x) -> g(f(x),h(f(x))) h(y) -> f(h(y)) "
                    "f(x) -> h(f(x)) h(x) -> f(x) f(y) -> f(y))")
    pairs = dependency_pairs(trs)
    assert [str(p) for p in pairs] == ["f#(x) -> f#(x)", "f#(x) -> h#(f(x))",
                                       "h#(y) -> f#(h(y))", "h#(y) -> h#(y)",
                                       "h#(x) -> f#(x)", "f#(y) -> f#(y)"]


def test_dependency_pairs_preserve_rule_invariants_and_arity():
    trs = parse_trs(read("relative.trs"))
    for pair in dependency_pairs(trs):
        Rule(pair.lhs, pair.rhs)   # revalidates both invariants
        assert pair.lhs.symbol.endswith("#")
        base = pair.lhs.symbol[:-1]
        assert len(pair.lhs.args) == trs.signature[base]


def test_sharp_name():
    assert sharp_name("f") == "f#"
    assert sharp_name("f") != sharp_name("g")


def test_term_str():
    t = App("f", (Var("x"), App("a")))
    assert str(t) == "f(x,a)"


def test_terms_are_interned():
    # two chains built apart are one object: equality, hashing and rules over
    # them take O(1) and never recurse, at any depth
    chains = []
    for _ in range(2):
        t = Var("x")
        for _ in range(5000):
            t = App("f", (t,))
        chains.append(t)
    a, b = chains
    assert a is b and a == b and hash(a) == hash(b)
    assert Rule(a, b) == Rule(b, a) and hash(Rule(a, b)) == hash(Rule(b, a))
    assert len({a, b, Rule(a, b), Rule(b, a)}) == 2
    assert App("f", (Var("x"),)) is parse_trs("(VAR x) (RULES f(x) -> x)").rules[0].lhs
    # a variable and a constant of the same name stay apart
    assert Var("a") is not App("a") and Var("a") != App("a")
    with pytest.raises(AttributeError):
        a.symbol = "g"

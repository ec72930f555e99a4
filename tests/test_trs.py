import random

import pytest
from hypothesis import given, settings, strategies as st

from matint import (App, Rule, Trs, TrsError, Var, dependency_pairs, format_trs,
                    parse_trs, sharp_name, subterms)
from matint.trs import _TOKEN, _render, _strip_comments, _tokenize, rule_texts
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


def test_signature_in_pre_order():
    # symbols enter the signature as a pre-order walk meets them: lhs before
    # rhs, rule by rule
    trs = parse_trs("(VAR x) (RULES f(g(x), h(a)) -> k(b(), x)  c -> g(f(a, c)))")
    assert list(trs.signature) == ["f", "g", "h", "a", "k", "b", "c"]


def test_variable_lhs_rejected():
    with pytest.raises(TrsError, match="variable left-hand side"):
        parse_trs("(VAR x) (RULES x -> f(x))")


def test_fresh_rhs_variable_rejected():
    with pytest.raises(TrsError, match="fresh"):
        parse_trs("(VAR x y) (RULES f(x) -> g(y))")
    # the parser collects each side's variables as it reads them, and names
    # the fresh ones at the start of their rule
    with pytest.raises(TrsError) as exc:
        parse_trs("(VAR x y z)\n(RULES\n  a -> a\n  f(x) -> g(z, x, y))")
    assert str(exc.value) == ("line 4, column 3: right-hand side of f(x) -> g(z,x,y) "
                              "introduces fresh variable(s) y, z")


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
        Rule(pair.lhs, pair.rhs)   # revalidates the variable-lhs invariant
        assert _variables(pair.rhs) <= _variables(pair.lhs)
        assert pair.lhs.symbol.endswith("#")
        base = pair.lhs.symbol[:-1]
        assert len(pair.lhs.args) == trs.signature[base]


def test_sharp_name():
    assert sharp_name("f") == "f#"
    assert sharp_name("f") != sharp_name("g")


def test_term_str():
    t = App("f", (Var("x"), App("a")))
    assert str(t) == "f(x,a)"


def _ref_str(t):
    if isinstance(t, Var):
        return t.name
    if not t.args:
        return t.symbol
    return t.symbol + "(" + ",".join(_ref_str(a) for a in t.args) + ")"


def test_term_str_matches_recursive_rendering():
    rng = random.Random(29)

    def term(depth):
        if depth == 0 or rng.random() < 0.25:
            return Var(rng.choice("xy")) if rng.random() < 0.6 else App(rng.choice(("a", "b#")))
        return App(rng.choice(("f", "g#")),
                   tuple(term(depth - 1) for _ in range(rng.randint(0, 4))))

    for _ in range(500):
        t = term(5)
        assert str(t) == _ref_str(t)
        assert str(Rule(App("h", (t,)), t)) == f"h({_ref_str(t)}) -> {_ref_str(t)}"
    # deep chains render without recursion, in one and in several arguments
    t = u = Var("x")
    for _ in range(5000):
        t, u = App("f", (t,)), App("g", (App("a"), u, Var("y")))
    assert str(t) == "f(" * 5000 + "x" + ")" * 5000
    assert str(u) == "g(a," * 5000 + "x" + ",y)" * 5000


def test_rule_texts_render_each_side_once():
    """Rules whose sides recur as sides and inside other sides print as
    str does; each side is rendered once, and recurring sides are copied."""
    rng = random.Random(30)

    def term(depth):
        if depth == 0 or rng.random() < 0.25:
            return Var(rng.choice("xy")) if rng.random() < 0.6 else App(rng.choice(("a", "b#")))
        return App(rng.choice(("f", "g#")),
                   tuple(term(depth - 1) for _ in range(rng.randint(0, 3))))

    for _ in range(200):
        sides = [term(4) for _ in range(3)]
        for _ in range(6):
            pick = rng.choice(sides)
            sides.append(rng.choice((App("f", (pick, rng.choice(sides))),
                                     rng.choice(list(subterms(pick))), pick)))
        rules = [Rule(lhs, rhs) for lhs, rhs in zip(sides[::2], sides[1::2])
                 if isinstance(lhs, App)]
        assert rule_texts(rules) == [f"{_ref_str(r.lhs)} -> {_ref_str(r.rhs)}" for r in rules]
    # each of 2000 nested sides is walked once: rendering one looks up the
    # side and its argument, the side before it, whose text is copied
    class Counting(dict):
        gets = 0

        def get(self, *args):
            Counting.gets += 1
            return super().get(*args)

    t = App("f", (App("a"),) * 3)
    chain = [t := App("f", (t, Var("x"))) for _ in range(2000)]
    texts = Counting.fromkeys(chain)
    rendered = [_render(side, texts) for side in chain]
    assert rendered[-1] == str(chain[-1]) and rendered[0] == "f(f(a,a,a),x)"
    # the first side also looks up f(a,a,a) and its three a's
    assert Counting.gets == 5 + 2 * 1999


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


def test_tokenize_positions():
    assert _tokenize("a->b") == [("a", 1, 1), ("->", 1, 2), ("b", 1, 4)]
    assert _tokenize("f#(x)") == [("f#", 1, 1), ("(", 1, 3), ("x", 1, 4), (")", 1, 5)]
    # a tab is one column
    assert _tokenize("\tf(x)\t->\tg( x )") == [
        ("f", 1, 2), ("(", 1, 3), ("x", 1, 4), (")", 1, 5), ("->", 1, 7),
        ("g", 1, 10), ("(", 1, 11), ("x", 1, 13), (")", 1, 15)]
    assert _tokenize("f(x) -> x ; comment (") == [
        ("f", 1, 1), ("(", 1, 2), ("x", 1, 3), (")", 1, 4), ("->", 1, 6), ("x", 1, 9)]
    assert _tokenize("a() -> b") == [
        ("a", 1, 1), ("(", 1, 2), (")", 1, 3), ("->", 1, 5), ("b", 1, 8)]
    # a '-' or '>' outside '->' is part of a name
    assert _tokenize("a-b -> c") == [("a-b", 1, 1), ("->", 1, 5), ("c", 1, 8)]
    assert _tokenize("x-->y") == [("x-", 1, 1), ("->", 1, 3), ("y", 1, 5)]
    assert _tokenize("- > ->-") == [("-", 1, 1), (">", 1, 3), ("->", 1, 5), ("-", 1, 7)]
    # lines as splitlines() counts them, blank and comment-only lines included
    assert _tokenize("(VAR x)\n; note\r\n  (RULES\tf(x)->x ; c\n)") == [
        ("(", 1, 1), ("VAR", 1, 2), ("x", 1, 6), (")", 1, 7), ("(", 3, 3),
        ("RULES", 3, 4), ("f", 3, 10), ("(", 3, 11), ("x", 3, 12), (")", 3, 13),
        ("->", 3, 14), ("x", 3, 16), (")", 4, 1)]


@pytest.mark.parametrize("text, message", [
    ("(VAR x) (RULES a->)", "line 1, column 19: expected a term, got ')'"),
    ("(VAR x) (RULES f(x) -> x ; )", "unexpected end of input"),
    ("(VAR x)\n(RULES\n\tf(x) -> -> x)", "line 3, column 10: expected a term, got '->'"),
    ("(VAR -> x) (RULES )", "line 1, column 6: bad variable name '->'"),
    ("(VAR x) (RULES f(x -> x)", "line 1, column 20: expected ')', got '->'"),
    ("(VAR x) (RULES f(,) -> x)", "line 1, column 18: expected a term, got ','"),
    ("(VAR x) (RULES x(y) -> x)", "line 1, column 16: variable 'x' used with arguments"),
    # arities are checked in pre-order, and reported at the rule's first token
    ("(VAR x) (RULES f(f(x,x)) -> x)",
     "line 1, column 16: symbol 'f' used with arity 2 after arity 1"),
    ("(VAR x) (RULES g(h(x), h) -> x h(a) -> a)",
     "line 1, column 16: symbol 'h' used with arity 0 after arity 1"),
])
def test_parse_error_messages(text, message):
    with pytest.raises(TrsError) as info:
        parse_trs(text)
    assert str(info.value) == message


def _tokenize_by_char(text):
    """Reference tokenizer stepping through each line one character at a time."""
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split(";", 1)[0]
        i = 0
        while i < len(line):
            if line[i].isspace():
                i += 1
            elif line[i] in "(),":
                out.append((line[i], lineno, i + 1))
                i += 1
            elif line.startswith("->", i):
                out.append(("->", lineno, i + 1))
                i += 2
            else:
                j = i
                while j < len(line) and not line[j].isspace() and line[j] not in "()," \
                        and not line.startswith("->", j):
                    j += 1
                out.append((line[i:j], lineno, i + 1))
                i = j
    return out


_ALPHABET = "ab#-->(),; \t\n\r\x0b\x0c\x1c\x85\xa0 　"


def test_tokenize_matches_char_scan():
    rng = random.Random(5)
    for _ in range(2000):
        text = "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 30)))
        want = _tokenize_by_char(text)
        assert _tokenize(text) == want, repr(text)
        # parse_trs's bare tokens over the whole text are the same tokens
        assert _TOKEN.findall(_strip_comments(text)) == [tok for tok, _, _ in want], repr(text)


class _RefParser:
    """Reference parser: one method call per token and recursion per
    argument, reporting errors in the order the grammar meets them."""

    def __init__(self, text):
        self.tokens, self.pos = _tokenize(text), 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self):
        if self.pos >= len(self.tokens):
            raise TrsError("unexpected end of input")
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, want):
        tok, line, col = self.next()
        if tok != want:
            raise TrsError(f"expected {want!r}, got {tok!r}", line, col)

    def term(self, varnames):
        tok, line, col = self.next()
        if tok in ("(", ")", ",", "->"):
            raise TrsError(f"expected a term, got {tok!r}", line, col)
        if self.peek() != "(":
            return Var(tok) if tok in varnames else App(tok)
        if tok in varnames:
            raise TrsError(f"variable {tok!r} used with arguments", line, col)
        self.expect("(")
        args = []
        if self.peek() != ")":
            args.append(self.term(varnames))
            while self.peek() == ",":
                self.expect(",")
                args.append(self.term(varnames))
        self.expect(")")
        return App(tok, tuple(args))

    def trs(self):
        varnames, rules, signature, saw_rules = set(), [], {}, False
        while self.peek() is not None:
            self.expect("(")
            tok, line, col = self.next()
            if tok == "VAR":
                while self.peek() != ")":
                    name, line, col = self.next()
                    if name in ("(", ")", ",", "->"):
                        raise TrsError(f"bad variable name {name!r}", line, col)
                    varnames.add(name)
                self.expect(")")
            elif tok == "RULES":
                saw_rules = True
                while self.peek() != ")":
                    line, col = self.tokens[self.pos][1:] if self.peek() else (None, None)
                    lhs = self.term(varnames)
                    self.expect("->")
                    rhs = self.term(varnames)
                    try:
                        rule = Rule(lhs, rhs)
                    except TrsError as exc:
                        raise TrsError(str(exc), line, col) from None
                    fresh = _variables(rhs) - _variables(lhs)
                    if fresh:
                        raise TrsError(f"right-hand side of {rule} introduces fresh "
                                       f"variable(s) {', '.join(sorted(fresh))}", line, col)
                    for s in (s for side in (lhs, rhs) for s in subterms(side)):
                        if isinstance(s, App):
                            seen = signature.setdefault(s.symbol, len(s.args))
                            if seen != len(s.args):
                                raise TrsError(f"symbol {s.symbol!r} used with arity "
                                               f"{len(s.args)} after arity {seen}", line, col)
                    rules.append(rule)
                self.expect(")")
            else:
                raise TrsError(f"unknown section {tok!r} (expected VAR or RULES)", line, col)
        if not saw_rules:
            raise TrsError("missing (RULES ...) section")
        return varnames, rules, signature


def _variables(t):
    return {s.name for s in subterms(t) if isinstance(s, Var)}


def _outcome(parse, text):
    try:
        result = parse(text)
    except TrsError as exc:
        return "error", str(exc)
    if not isinstance(result, tuple):
        result = (set(result.variables), list(result.rules), result.signature)
    return result


def test_parse_matches_reference_parser_on_damaged_inputs():
    # well-formed systems with a few tokens deleted, inserted or replaced:
    # the same TRS, or the same first error at the same position
    rng = random.Random(23)
    words = ["(", ")", ",", "->", "VAR", "RULES", "x", "y", "f", "g", "a", ";", "\r", "\x85"]

    def term(depth):
        if depth == 0 or rng.random() < 0.3:
            return [rng.choice(("x", "y", "a"))]
        symbol, out = rng.choice(("f", "g")), []
        for k in range(rng.randint(0, 3)):
            out += ([","] if k else []) + term(depth - 1)
        return [symbol, "("] + out + [")"]

    kinds = set()
    for _ in range(3000):
        tokens = ["(", "VAR", "x", "y", ")", "(", "RULES"]
        for _ in range(rng.randint(0, 3)):
            tokens += term(3) + ["->"] + term(3)
        tokens.append(")")
        for _ in range(rng.choice((0, 0, 1, 1, 2))):
            k = rng.randrange(len(tokens) + 1)
            edit = rng.choice(("delete", "insert", "replace"))
            if edit == "insert":
                tokens.insert(k, rng.choice(words))
            elif k < len(tokens):
                tokens[k:k + 1] = [] if edit == "delete" else [rng.choice(words)]
        text = "".join(tok + rng.choice((" ", " ", "\n", "")) for tok in tokens)
        want = _outcome(lambda s: _RefParser(s).trs(), text)
        assert _outcome(parse_trs, text) == want, text
        kinds.add(want[1].split(": ")[-1].split()[0] if want[0] == "error" else "ok")
    assert {"ok", "expected", "unexpected", "symbol", "right-hand", "variable",
            "unknown"} <= kinds


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.sampled_from(["", "(VAR a)", "(RULES ", "(VAR a b)\n(RULES "]),
       st.lists(st.sampled_from([*_ALPHABET, "VAR", "RULES", "a(b)->b ", "b(a,a)->a "]),
                max_size=30),
       st.sampled_from(["", ")"]))
def test_parse_fuzzed_text_matches_reference_parser(head, pieces, tail):
    # the alphabet's characters, among section heads and whole rules so that
    # some texts parse
    text = head + "".join(pieces) + tail
    # only a Trs or a TrsError comes out ...
    try:
        result = parse_trs(text)
    except TrsError:
        pass
    else:
        assert isinstance(result, Trs)
    # ... and it is the reference parser's outcome
    assert _outcome(parse_trs, text) == _outcome(lambda s: _RefParser(s).trs(), text)

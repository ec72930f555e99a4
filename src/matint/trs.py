"""Terms, rewrite rules, TRS parsing (old TPDB dialect), dependency pairs."""

from __future__ import annotations

import re
from contextlib import contextmanager

from .matrix import Record


class TrsError(ValueError):
    """Parse or well-formedness error, carrying source position when known."""

    def __init__(self, message: str, line: int = None, col: int = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, column {col}: {message}"
        super().__init__(message)


# Terms are hash-consed: building a term returns the one interned term with
# the same structure, so equality and hashing are by identity, O(1) and free
# of recursion, and a subterm shared by several rules is one object that a
# memo can key on.
_INTERNED: dict = {}


@contextmanager
def interning_scope():
    """On exit, forget the terms interned in the block: the table's last
    entries, since nothing else deletes one. Newest first, each outer term
    goes before its subterms, so no deep chain is freed at once."""
    size = len(_INTERNED)
    try:
        yield
    finally:
        while len(_INTERNED) > size:
            _INTERNED.popitem()


class _Term(Record):
    __slots__ = ()
    __hash__ = object.__hash__
    __eq__ = object.__eq__


class Var(_Term):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        term = _INTERNED.get(name)
        if term is None:
            term = object.__new__(cls)
            cls._set_name(term, name)
            _INTERNED[name] = term
        return term

    def __repr__(self) -> str:
        return f"Var({self.name!r})"

    def __str__(self) -> str:
        return self.name


class App(_Term):
    __slots__ = ("symbol", "args")

    def __new__(cls, symbol: str, args: tuple = ()):
        # the arguments are interned already, so the key hashes in O(arity)
        key = (symbol, tuple(args))
        term = _INTERNED.get(key)
        if term is None:
            term = object.__new__(cls)
            cls._set_symbol(term, symbol)
            cls._set_args(term, key[1])
            _INTERNED[key] = term
        return term

    def __repr__(self) -> str:
        return f"App({str(self)!r})"

    def __str__(self) -> str:
        return _render(self, {})


def _render(term, texts: dict) -> str:
    """``str(term)``, by one explicit-stack walk. Each application that is
    a key of ``texts`` is rendered once: mapped to None, it gets its text
    when first rendered, which is then copied wherever it recurs."""
    # the stack holds terms still to render, the punctuation between and
    # after their arguments, and (term, start) to record a term's text,
    # which starts at parts[start]
    parts = []
    stack = [term]
    while stack:
        t = stack.pop()
        cls = t.__class__
        if cls is str:
            parts.append(t)
        elif cls is Var:
            parts.append(t.name)
        elif cls is tuple:
            t, start = t
            text = texts[t] = "".join(parts[start:])
            parts[start:] = [text]
        elif (text := texts.get(t, False)):
            parts.append(text)
        else:
            if text is None:
                stack.append((t, len(parts)))
            if t.args:
                parts.append(t.symbol + "(")
                stack.append(")")
                args = t.args
                for arg in args[:0:-1]:
                    stack.append(arg)
                    stack.append(",")
                stack.append(args[0])
            else:
                parts.append(t.symbol)
    return "".join(parts)


def rule_texts(rules) -> list[str]:
    """``str(rule)`` for each rule. Each side is rendered once, and its
    text is copied wherever it recurs, as a side or a subterm; only the
    sides' texts are kept, so they take no more room than the output."""
    texts = dict.fromkeys(side for rule in rules for side in (rule.lhs, rule.rhs)
                          if side.__class__ is App)
    return [f"{_render(rule.lhs, texts)} -> {_render(rule.rhs, texts)}" for rule in rules]


Term = Var | App


def subterms(t: Term):
    """All subterms in pre-order (the term itself first), without recursion."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, App):
            stack.extend(reversed(t.args))


class Rule(Record):
    __slots__ = ("lhs", "rhs")

    def __init__(self, lhs: Term, rhs: Term):
        # parse_trs checks for fresh variables as it reads the rule; a
        # dependency pair's rhs is a subterm of its rule's rhs
        if isinstance(lhs, Var):
            raise TrsError(f"variable left-hand side in rule {lhs} -> {rhs}")
        __class__._set_lhs(self, lhs)
        __class__._set_rhs(self, rhs)

    def __str__(self) -> str:
        return f"{self.lhs} -> {self.rhs}"


class Trs(Record):
    __slots__ = ("variables", "rules", "signature")

    def __init__(self, variables: frozenset[str], rules: tuple[Rule, ...],
                 signature: dict[str, int]):
        __class__._set_variables(self, variables)
        __class__._set_rules(self, rules)
        __class__._set_signature(self, signature)


# what can never be a name: punctuation, and None, which ends the token list
_NOT_A_NAME = {"(", ")", ",", "->", None}


# a token is '->' or one of '(),', or else a maximal run of characters that
# are neither whitespace nor punctuation and do not start a '->' (a '-' is
# looked ahead of only where one occurs, not at every character)
_TOKEN = re.compile(r"->|[(),]|(?:[^\s(),-]+|-(?!>))+")

# ';' starts a comment, which runs to the end of its line as str.splitlines()
# ends lines. Every line break is whitespace, so no token spans two lines, and
# tokens found over the whole text are the tokens found line by line.
_COMMENT = re.compile(r";[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*")


def _strip_comments(text: str) -> str:
    """``text`` with each comment replaced by a space (removing it would join
    a carriage return before it and a line feed after it into one break)."""
    return _COMMENT.sub(" ", text) if ";" in text else text


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    """(token, line, col) with 1-based lines and columns. ``parse_trs`` reads
    the bare tokens and asks here for a position only to report an error."""
    return [(m[0], lineno, m.start() + 1)
            for lineno, line in enumerate(_strip_comments(text).splitlines(), start=1)
            for m in _TOKEN.finditer(line)]


def _error(text: str, i: int, message: str) -> TrsError:
    """The error ``message`` at token i of ``text``, or the end-of-input error
    when i is past the last token."""
    tokens = _tokenize(text)
    if i == len(tokens):
        return TrsError("unexpected end of input")
    _, line, col = tokens[i]
    return TrsError(message, line, col)


def _expect(text: str, tokens: list, i: int, want: str) -> int:
    """The index after token i, which must be ``want``."""
    if tokens[i] != want:
        raise _error(text, i, f"expected {want!r}, got {tokens[i]!r}")
    return i + 1


def _parse_term(text: str, tokens: list, i: int, varnames: set[str],
                apps: list, seen: set[str]) -> tuple[Term, int]:
    """Parse one term from token i on; returns it and the index after it.
    Each application's symbol is appended to ``apps`` in pre-order, with the
    list its arguments are collected in, so its arity is known once the term
    is parsed; each variable's name is added to ``seen``. Open applications
    wait on an explicit stack, so terms of any depth parse without
    recursion."""
    open_apps: list[tuple[str, list]] = []
    while True:
        tok = tokens[i]
        if tok in _NOT_A_NAME:
            raise _error(text, i, f"expected a term, got {tok!r}")
        i += 1
        if tokens[i] == "(":
            if tok in varnames:
                raise _error(text, i - 1, f"variable {tok!r} used with arguments")
            i += 1
            if tokens[i] != ")":
                args: list = []
                apps.append((tok, args))
                open_apps.append((tok, args))
                continue
            i += 1
            apps.append((tok, ()))
            term = App(tok)
        elif tok in varnames:
            seen.add(tok)
            term = Var(tok)
        else:
            apps.append((tok, ()))
            term = App(tok)
        # hand the finished term to its parent, closing every application
        # whose last argument it is
        while True:
            if not open_apps:
                return term, i
            symbol, args = open_apps[-1]
            args.append(term)
            tok = tokens[i]
            i += 1
            if tok == ",":
                break
            if tok != ")":
                raise _error(text, i - 1, f"expected ')', got {tok!r}")
            open_apps.pop()
            term = App(symbol, tuple(args))


def parse_trs(text: str) -> Trs:
    """Parse ``(VAR x y) (RULES l -> r ...)``; infers the signature."""
    # the bare tokens, ended by None, which no parse step accepts, so the
    # list is never read past it and needs no bounds check
    tokens = _TOKEN.findall(_strip_comments(text))
    tokens.append(None)
    i = 0
    varnames: set[str] = set()
    rules: list[Rule] = []
    signature: dict[str, int] = {}
    saw_rules = False
    while tokens[i] is not None:
        i = _expect(text, tokens, i, "(")
        tok = tokens[i]
        i += 1
        if tok == "VAR":
            while tokens[i] != ")":
                name = tokens[i]
                if name in _NOT_A_NAME:
                    raise _error(text, i, f"bad variable name {name!r}")
                varnames.add(name)
                i += 1
            i += 1
        elif tok == "RULES":
            saw_rules = True
            while tokens[i] != ")":
                start, apps, lhs_vars, rhs_vars = i, [], set(), set()
                lhs, i = _parse_term(text, tokens, i, varnames, apps, lhs_vars)
                i = _expect(text, tokens, i, "->")
                rhs, i = _parse_term(text, tokens, i, varnames, apps, rhs_vars)
                try:
                    rule = Rule(lhs, rhs)
                except TrsError as exc:
                    raise _error(text, start, str(exc)) from None
                fresh = rhs_vars - lhs_vars
                if fresh:
                    raise _error(text, start, f"right-hand side of {rule} introduces "
                                              f"fresh variable(s) {', '.join(sorted(fresh))}")
                # each symbol's arity, in pre-order; a second arity is an error
                for symbol, args in apps:
                    seen = signature.setdefault(symbol, len(args))
                    if seen != len(args):
                        raise _error(text, start, f"symbol {symbol!r} used with arity "
                                                  f"{len(args)} after arity {seen}")
                rules.append(rule)
            i += 1
        else:
            raise _error(text, i - 1, f"unknown section {tok!r} (expected VAR or RULES)")
    if not saw_rules:
        raise TrsError("missing (RULES ...) section")
    return Trs(frozenset(varnames), tuple(rules), signature)


def format_trs(trs: Trs) -> str:
    lines = []
    if trs.variables:
        lines.append(f"(VAR {' '.join(sorted(trs.variables))})")
    lines.append("(RULES")
    lines += (f"  {text}" for text in rule_texts(trs.rules))
    lines.append(")")
    return "\n".join(lines) + "\n"


def sharp_name(symbol: str) -> str:
    return symbol + "#"


def _sharp_root(t: App) -> App:
    return App(sharp_name(t.symbol), t.args)


def dependency_pairs(trs: Trs) -> tuple[Rule, ...]:
    """Pairs sharp(l) -> sharp(t) for each rhs subterm t with a defined root.

    Defined symbols are the roots of left-hand sides; only the root symbol is
    renamed (f to f#). Duplicates are removed, input order is preserved.
    """
    defined = {r.lhs.symbol for r in trs.rules}
    # interned terms make (lhs, rhs) an identity key
    pairs: dict[tuple[App, App], Rule] = {}
    for rule in trs.rules:
        lhs = _sharp_root(rule.lhs)
        for t in subterms(rule.rhs):
            if isinstance(t, App) and t.symbol in defined:
                rhs = _sharp_root(t)
                if (lhs, rhs) not in pairs:
                    pairs[lhs, rhs] = Rule(lhs, rhs)
    return tuple(pairs.values())

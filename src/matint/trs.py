"""Terms, rewrite rules, TRS parsing (old TPDB dialect), dependency pairs."""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass


class TrsError(ValueError):
    """Parse or well-formedness error, carrying source position when known."""

    def __init__(self, message: str, line: int = None, col: int = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, column {col}: {message}"
        super().__init__(message)


# Terms are hash-consed: building a term returns the one live term with the
# same structure, so equality and hashing are by identity, O(1) and free of
# recursion, and a subterm shared by several rules is one object that a memo
# can key on. The table holds its terms weakly, so it keeps no term that
# nothing else uses. (A WeakValueDictionary would do the same, but its
# lookups raise and catch KeyError on every miss, and parsing misses on
# every new node: building a term took about twice as long with it.)
_INTERNED: dict = {}


class _Ref(weakref.ref):
    __slots__ = ("key",)


def _forget(ref: _Ref, table=_INTERNED):
    """Drop a dead term's entry, unless a new term has taken its key. The
    table is bound here, since terms may die while the module is torn down."""
    if table.get(ref.key) is ref:
        del table[ref.key]


def _intern(key, term):
    ref = _Ref(term, _forget)
    ref.key = key
    _INTERNED[key] = ref


class _Term:
    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__


class Var(_Term):
    __slots__ = ("name",)

    def __new__(cls, name: str):
        ref = _INTERNED.get(name)
        term = None if ref is None else ref()
        if term is None:
            term = object.__new__(cls)
            object.__setattr__(term, "name", name)
            _intern(name, term)
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
        ref = _INTERNED.get(key)
        term = None if ref is None else ref()
        if term is None:
            term = object.__new__(cls)
            object.__setattr__(term, "symbol", symbol)
            object.__setattr__(term, "args", key[1])
            _intern(key, term)
        return term

    def __repr__(self) -> str:
        return f"App({str(self)!r})"

    def __str__(self) -> str:
        # a pre-order walk without recursion; open_args counts the arguments
        # each open application still has to render
        parts = []
        open_args = []
        for t in subterms(self):
            if isinstance(t, Var):
                parts.append(t.name)
            elif t.args:
                parts.append(t.symbol + "(")
                open_args.append(len(t.args))
                continue
            else:
                parts.append(t.symbol)
            while open_args:
                open_args[-1] -= 1
                if open_args[-1]:
                    parts.append(",")
                    break
                open_args.pop()
                parts.append(")")
        return "".join(parts)


Term = Var | App


def variables(t: Term) -> set[str]:
    out = set()
    stack = [t]
    while stack:
        t = stack.pop()
        if isinstance(t, Var):
            out.add(t.name)
        else:
            stack.extend(t.args)
    return out


def subterms(t: Term):
    """All subterms in pre-order (the term itself first), without recursion."""
    stack = [t]
    while stack:
        t = stack.pop()
        yield t
        if isinstance(t, App):
            stack.extend(reversed(t.args))


@dataclass(frozen=True)
class Rule:
    lhs: Term
    rhs: Term

    def __post_init__(self):
        if isinstance(self.lhs, Var):
            raise TrsError(f"variable left-hand side in rule {self.lhs} -> {self.rhs}")
        fresh = variables(self.rhs) - variables(self.lhs)
        if fresh:
            raise TrsError(
                f"right-hand side of {self.lhs} -> {self.rhs} introduces fresh "
                f"variable(s) {', '.join(sorted(fresh))}")

    def __str__(self) -> str:
        return f"{self.lhs} -> {self.rhs}"


@dataclass(frozen=True)
class Trs:
    variables: frozenset[str]
    rules: tuple[Rule, ...]
    signature: dict[str, int]

    def __str__(self) -> str:
        return format_trs(self)


_PUNCT = {"(", ")", ","}


# a token is '->' or one of '(),', or else a maximal run of characters that
# are neither whitespace nor punctuation and do not start a '->' (a '-' is
# looked ahead of only where one occurs, not at every character)
_TOKEN = re.compile(r"->|[(),]|(?:[^\s(),-]+|-(?!>))+")


def _tokenize(text: str) -> list[tuple[str, int, int]]:
    """(token, line, col) with 1-based lines and columns; ';' starts a
    comment to end of line."""
    return [(m[0], lineno, m.start() + 1)
            for lineno, line in enumerate(text.splitlines(), start=1)
            for m in _TOKEN.finditer(line.partition(";")[0])]


# end of input: a token no parse step accepts, so the token list is never
# read past it and needs no bounds check
_END = (None, None, None)


def _end_or(message: str, line: int, col: int) -> TrsError:
    """The error for an unexpected token, or for the end of input."""
    if line is None:
        return TrsError("unexpected end of input")
    return TrsError(message, line, col)


def _expect(tokens: list, i: int, want: str) -> int:
    """The index after token i, which must be ``want``."""
    tok, line, col = tokens[i]
    if tok != want:
        raise _end_or(f"expected {want!r}, got {tok!r}", line, col)
    return i + 1


def _parse_term(tokens: list, i: int, varnames: set[str]) -> tuple[Term, int]:
    """Parse one term from token i on; returns it and the index after it.
    Open applications wait on an explicit stack, so terms of any depth parse
    without recursion."""
    open_apps: list[tuple[str, list]] = []
    while True:
        tok, line, col = tokens[i]
        if tok is None or tok in _PUNCT or tok == "->":
            raise _end_or(f"expected a term, got {tok!r}", line, col)
        i += 1
        if tokens[i][0] == "(":
            if tok in varnames:
                raise TrsError(f"variable {tok!r} used with arguments", line, col)
            i += 1
            if tokens[i][0] != ")":
                open_apps.append((tok, []))
                continue
            i += 1
            term = App(tok)
        elif tok in varnames:
            term = Var(tok)
        else:
            term = App(tok)
        # hand the finished term to its parent, closing every application
        # whose last argument it is
        while True:
            if not open_apps:
                return term, i
            symbol, args = open_apps[-1]
            args.append(term)
            tok, line, col = tokens[i]
            i += 1
            if tok == ",":
                break
            if tok != ")":
                raise _end_or(f"expected ')', got {tok!r}", line, col)
            open_apps.pop()
            term = App(symbol, tuple(args))


def _check_arities(t: Term, signature: dict[str, int], line: int, col: int):
    """Record each symbol's arity in pre-order; a second arity is an error."""
    stack = [t]
    while stack:
        s = stack.pop()
        if isinstance(s, Var):
            continue
        seen = signature.get(s.symbol)
        if seen is None:
            signature[s.symbol] = len(s.args)
        elif seen != len(s.args):
            raise TrsError(
                f"symbol {s.symbol!r} used with arity {len(s.args)} after arity {seen}",
                line, col)
        stack.extend(reversed(s.args))


def parse_trs(text: str) -> Trs:
    """Parse ``(VAR x y) (RULES l -> r ...)``; infers the signature."""
    tokens = _tokenize(text)
    tokens.append(_END)
    i = 0
    varnames: set[str] = set()
    rules: list[Rule] = []
    signature: dict[str, int] = {}
    saw_rules = False
    while tokens[i] is not _END:
        i = _expect(tokens, i, "(")
        tok, line, col = tokens[i]
        i += 1
        if tok == "VAR":
            while tokens[i][0] != ")":
                name, line, col = tokens[i]
                if name is None or name in _PUNCT or name == "->":
                    raise _end_or(f"bad variable name {name!r}", line, col)
                varnames.add(name)
                i += 1
            i += 1
        elif tok == "RULES":
            saw_rules = True
            while tokens[i][0] != ")":
                _, line, col = tokens[i]
                lhs, i = _parse_term(tokens, i, varnames)
                i = _expect(tokens, i, "->")
                rhs, i = _parse_term(tokens, i, varnames)
                try:
                    rule = Rule(lhs, rhs)
                except TrsError as exc:
                    raise TrsError(str(exc), line, col) from None
                _check_arities(lhs, signature, line, col)
                _check_arities(rhs, signature, line, col)
                rules.append(rule)
            i += 1
        else:
            raise _end_or(f"unknown section {tok!r} (expected VAR or RULES)", line, col)
    if not saw_rules:
        raise TrsError("missing (RULES ...) section")
    return Trs(frozenset(varnames), tuple(rules), signature)


def format_trs(trs: Trs) -> str:
    lines = []
    if trs.variables:
        lines.append(f"(VAR {' '.join(sorted(trs.variables))})")
    lines.append("(RULES")
    for rule in trs.rules:
        lines.append(f"  {rule}")
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

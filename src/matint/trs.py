"""Terms, rewrite rules, TRS parsing (old TPDB dialect), dependency pairs."""

from __future__ import annotations

from dataclasses import dataclass


class TrsError(ValueError):
    """Parse or well-formedness error, carrying source position when known."""

    def __init__(self, message: str, line: int = None, col: int = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, column {col}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class App:
    symbol: str
    args: tuple = ()

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


def _tokenize(text: str):
    """Yield (token, line, col); ';' starts a comment to end of line."""
    for lineno, line in enumerate(text.splitlines(), start=1):
        if ";" in line:
            line = line[:line.index(";")]
        i, n = 0, len(line)
        while i < n:
            ch = line[i]
            if ch.isspace():
                i += 1
                continue
            if ch in _PUNCT:
                yield ch, lineno, i + 1
                i += 1
                continue
            if line.startswith("->", i):
                yield "->", lineno, i + 1
                i += 2
                continue
            j = i
            while j < n and not line[j].isspace() and line[j] not in _PUNCT \
                    and not line.startswith("->", j):
                j += 1
            yield line[i:j], lineno, i + 1
            i = j


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def next(self):
        if self.pos >= len(self.tokens):
            raise TrsError("unexpected end of input")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, want: str):
        tok, line, col = self.next()
        if tok != want:
            raise TrsError(f"expected {want!r}, got {tok!r}", line, col)
        return tok

    def here(self):
        if self.pos < len(self.tokens):
            _, line, col = self.tokens[self.pos]
            return line, col
        return None, None


def _parse_term(p: _Parser, varnames: set[str]) -> Term:
    """Parse one term; open applications wait on an explicit stack, so terms
    of any depth parse without recursion."""
    open_apps: list[tuple[str, list]] = []
    while True:
        tok, line, col = p.next()
        if tok in _PUNCT or tok == "->":
            raise TrsError(f"expected a term, got {tok!r}", line, col)
        if p.peek() == "(":
            if tok in varnames:
                raise TrsError(f"variable {tok!r} used with arguments", line, col)
            p.expect("(")
            if p.peek() != ")":
                open_apps.append((tok, []))
                continue
            p.expect(")")
            term = App(tok)
        elif tok in varnames:
            term = Var(tok)
        else:
            term = App(tok)
        # hand the finished term to its parent, closing every application
        # whose last argument it is
        while True:
            if not open_apps:
                return term
            symbol, args = open_apps[-1]
            args.append(term)
            if p.peek() == ",":
                p.expect(",")
                break
            p.expect(")")
            open_apps.pop()
            term = App(symbol, tuple(args))


def _check_arities(t: Term, signature: dict[str, int], line: int, col: int):
    for s in subterms(t):
        if isinstance(s, Var):
            continue
        seen = signature.get(s.symbol)
        if seen is None:
            signature[s.symbol] = len(s.args)
        elif seen != len(s.args):
            raise TrsError(
                f"symbol {s.symbol!r} used with arity {len(s.args)} after arity {seen}",
                line, col)


def parse_trs(text: str) -> Trs:
    """Parse ``(VAR x y) (RULES l -> r ...)``; infers the signature."""
    p = _Parser(text)
    varnames: set[str] = set()
    rules: list[Rule] = []
    signature: dict[str, int] = {}
    saw_rules = False
    while p.peek() is not None:
        p.expect("(")
        tok, line, col = p.next()
        if tok == "VAR":
            while p.peek() != ")":
                name, line, col = p.next()
                if name in _PUNCT or name == "->":
                    raise TrsError(f"bad variable name {name!r}", line, col)
                varnames.add(name)
            p.expect(")")
        elif tok == "RULES":
            saw_rules = True
            while p.peek() != ")":
                line, col = p.here()
                lhs = _parse_term(p, varnames)
                p.expect("->")
                rhs = _parse_term(p, varnames)
                try:
                    rule = Rule(lhs, rhs)
                except TrsError as exc:
                    raise TrsError(str(exc), line, col) from None
                _check_arities(lhs, signature, line, col)
                _check_arities(rhs, signature, line, col)
                rules.append(rule)
            p.expect(")")
        else:
            raise TrsError(f"unknown section {tok!r} (expected VAR or RULES)", line, col)
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
    pairs: list[Rule] = []
    # pairs are told apart by their rendering, which is injective within one
    # TRS and built without recursion; hashing a nested term recurses per level
    seen: set[str] = set()
    for rule in trs.rules:
        for t in subterms(rule.rhs):
            if isinstance(t, App) and t.symbol in defined:
                pair = Rule(_sharp_root(rule.lhs), _sharp_root(t))
                key = str(pair)
                if key not in seen:
                    seen.add(key)
                    pairs.append(pair)
    return tuple(pairs)

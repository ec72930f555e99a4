"""Parametric (symbolic) interpretations and their arithmetic constraints.

A dim-1 parametric interpretation maps each symbol to coefficient/constant
parameter names. Interpreting a rewrite constraint symbolically produces
word sums: noncommutative products of parameters, one VarCoeff constraint
per variable and one ConstPart constraint per rule or pair. The reserved
parameters ``1`` and ``0`` stand for the multiplicative unit and zero.

A word is its parent word times one parameter, so the words of a term share
their prefixes as its paths do, and a term of n nodes has O(n) words however
deep it is. What is computed of a word (its value, its count vector, its
text) is computed once per word node, from its parent's.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from types import MappingProxyType

from .matrix import Rat, Record, as_rat, line_kinds, parse_rat, read_lines
from .trs import Term, Trs, Var


class Word(tuple):
    """The word node ``(parent, param, length)``: the word ``parent`` (None
    for the empty word) times the parameter ``param``. ``len`` gives the
    parameter count and iteration yields the parameters from the root.

    Words hash and compare by identity, never by structure: a parent chain
    may be 10^5 nodes deep. The words of one ``generate_arith_constraints``
    call are interned, so equal words there are one object."""

    __slots__ = ()
    __hash__ = object.__hash__
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __lt__ = object.__lt__
    __le__ = object.__le__
    __gt__ = object.__gt__
    __ge__ = object.__ge__

    def __len__(self) -> int:
        return self[2]

    def __iter__(self):
        params = []
        word = self
        while word is not None:
            params.append(word[1])
            word = word[0]
        return reversed(params)

    def __repr__(self) -> str:
        return f"Word({' '.join(self)!r})"


WordSum = tuple[Word, ...]

UNIT_WORD = Word((None, "1", 1))
ZERO_WORD = Word((None, "0", 1))
RESERVED = {"0", "1"}
_UNITS = {"1": 1, "0": 0}  # what every valuation maps the reserved names to


class ConstraintError(ValueError):
    pass


def fold_words(words, memo: dict, step, empty) -> list:
    """Each word's value, where a word's value is ``step(its parent's value,
    its param)`` and the empty word's (None's) is ``empty``. ``memo`` is a
    dict from word nodes to values: each node above a word that it lacks is
    stored there, root first, so a memo shared by a constraint set folds
    each inner node once. The words themselves are not stored, since most
    are leaves: a word met again costs one step again."""
    out = []
    for word in words:
        parent = word[0]
        value = memo.get(parent)
        if value is None:
            value = empty if parent is None else _fold_path(parent, memo, step, empty)
        out.append(step(value, word[1]))
    return out


def _fold_path(node: Word, memo: dict, step, empty):
    """``node``'s value, storing it and each ancestor ``memo`` lacks."""
    path = []
    while node not in memo:
        if node is None:
            value = empty
            break
        if node.__class__ is not Word:
            raise TypeError(f"expected a word node, got {node!r}")
        path.append(node)
        node = node[0]
    else:
        value = memo[node]
    for node in reversed(path):
        value = memo[node] = step(value, node[1])
    return value


def _extend_text(text: str, param: str) -> str:
    return f"{text} {param}" if text else param


def format_word_sum(ws: WordSum, texts: dict = None) -> str:
    """The text of a word sum; ``texts`` holds the text of each word already
    written and may be shared by the sums of one constraint set."""
    return " + ".join(fold_words(ws, {} if texts is None else texts, _extend_text, ""))


class ArithConstraint(Record):
    """lhs REL rhs between word sums; kind is a variable name or "const"."""

    __slots__ = ("lhs", "rhs", "rel", "kind", "source", "dropped")

    def __init__(self, lhs: WordSum, rhs: WordSum, rel: str, kind: str, source: str = "",
                 dropped: WordSum = ()):
        __class__._set_lhs(self, lhs)
        __class__._set_rhs(self, rhs)
        __class__._set_rel(self, rel)          # "weak" | "strict"
        __class__._set_kind(self, kind)        # variable name, or "const"
        __class__._set_source(self, source)    # e.g. "rule 1", "pair 2"
        __class__._set_dropped(self, dropped)  # rhs words a rendering against 0 left out

    def render(self, texts: dict = None) -> str:
        """The constraint's text; ``texts`` is as for ``format_word_sum``."""
        if texts is None:
            texts = {}
        op = ">=" if self.rel == "weak" else ">"
        return f"{format_word_sum(self.lhs, texts)} {op} {format_word_sum(self.rhs, texts)}"


class ParamInterpretation(Record):
    """symbol -> (coefficient parameter per argument, constant parameter)."""

    __slots__ = ("table",)

    def __init__(self, table: Mapping[str, tuple[tuple[str, ...], str]]):
        seen: set[str] = set()
        for symbol, (coeffs, const) in table.items():
            _check_names(symbol, (*coeffs, const), seen)
        __class__._set_table(self, MappingProxyType(dict(table)))  # checked, read-only


def _check_names(symbol: str, names, seen: set[str]):
    """The one check of a symbol's parameter names, for the constructor and
    for the parser at the symbol's line; ``seen`` holds the earlier names."""
    for name in names:
        if name in RESERVED:
            raise ConstraintError(f"parameter name {name!r} is reserved (symbol {symbol!r})")
        if name in seen:
            raise ConstraintError(f"duplicate parameter name {name!r}")
        seen.add(name)


_PINTERP_LINES = line_kinds((("pinterp", "pinterp <symbol> : <arity> = <p1> ... <pk> | <p0>",
                              r"pinterp\s+([^\s:=]+)\s*:\s*([0-9]+)\s*=([^|]*)\|\s*(\S+)"),))


def parse_pinterp(text: str) -> ParamInterpretation:
    """Parse ``pinterp <symbol> : <arity> = <p1> ... <pk> | <p0>`` lines."""
    table, seen = {}, set()

    def handle(_lineno, _keyword, symbol, arity, coeffs, const):
        coeffs, arity = tuple(coeffs.split()), int(arity)
        if len(coeffs) != arity:
            raise ValueError(f"{len(coeffs)} coefficient parameter(s) for arity {arity}")
        if symbol in table:
            raise ValueError(f"symbol {symbol!r} interpreted twice")
        _check_names(symbol, (*coeffs, const), seen)
        table[symbol] = (coeffs, const)

    read_lines(text, _PINTERP_LINES, handle, ConstraintError)
    return ParamInterpretation(table)


def _sym_eval(t: Term, specs: dict) -> tuple[dict[str, list[Word]], list[Word]]:
    """Word sums of ``t``: each variable's coefficient words and the constant words.

    One iterative walk hands every node its prefix word (the coefficient
    parameters on its path), and each child word is its prefix times one
    parameter, so a term of n nodes builds O(n) words. ``specs`` gives each
    symbol's parameters in the order the walk pushes their words: the
    constant (argument index -1), then the coefficients last to first, each
    with the table that interns its words by their parent. Variables are
    met in left-to-right order and constants in post-order: children first,
    then the node's own constant parameter.
    """
    coeffs: dict[str, list[Word]] = {}
    consts: list[Word] = []
    # a None node stands for a finished constant word, popped after the
    # node's children; a None prefix is the empty word
    stack: list[tuple[Term | None, Word | None]] = [(t, None)]
    pop, push = stack.pop, stack.append
    while stack:
        node, prefix = pop()
        if node is None:
            consts.append(prefix)
        elif node.__class__ is Var:
            coeffs.setdefault(node.name, []).append(UNIT_WORD if prefix is None else prefix)
        else:
            spec = specs.get(node.symbol)
            args = node.args
            if spec is None:
                raise ConstraintError(f"uninterpreted symbol {node.symbol!r}")
            if len(spec) != len(args) + 1:
                raise ConstraintError(
                    f"symbol {node.symbol!r} has arity {len(spec) - 1} in the "
                    f"parametric interpretation, used with {len(args)} argument(s)")
            length = 1 if prefix is None else prefix[2] + 1
            for param, words, i in spec:
                word = words.get(prefix)
                if word is None:
                    word = words[prefix] = Word((prefix, param, length))
                push((None if i < 0 else args[i], word))
    return coeffs, consts


def _as_sum(words: list[Word]) -> WordSum:
    return tuple(words) if words else (ZERO_WORD,)


def _is_proper_submultiset(small: list[Word], big: list[Word]) -> bool:
    """Whether the multiset ``small`` lies strictly inside ``big``; interned
    words count by identity."""
    if len(small) >= len(big):
        return False
    pool: dict[Word, int] = {}
    for w in big:
        pool[w] = pool.get(w, 0) + 1
    for w in small:
        n = pool.get(w)
        if not n:
            return False
        pool[w] = n - 1
    return True


def generate_arith_constraints(trs: Trs, pairs, pi: ParamInterpretation
                               ) -> tuple[ArithConstraint, ...]:
    """Symbolic constraints: per variable and per constant part of every rule/pair.

    Rules yield weak constraints throughout; pairs yield weak coefficient
    constraints and a strict constant constraint. A bare-variable side shows
    up as the reserved words ``1`` (coefficient) and ``0`` (constant).
    """
    out: list[ArithConstraint] = []
    # per symbol, as _sym_eval reads it: each parameter with the words it
    # ends, by parent, so equal words of this call are one object
    specs = {symbol: ((const, {}, -1),
                      *((coeffs[i], {}, i) for i in reversed(range(len(coeffs)))))
             for symbol, (coeffs, const) in pi.table.items()}
    groups = [("rule", trs.rules, "weak"), ("pair", tuple(pairs), "strict")]
    for label, rules, const_rel in groups:
        for idx, rule in enumerate(rules, start=1):
            lc, lconst = _sym_eval(rule.lhs, specs)
            rc, rconst = _sym_eval(rule.rhs, specs)
            source = f"{label} {idx}"
            # variables by first occurrence, lhs then rhs
            for var in {**lc, **rc}:
                out.append(ArithConstraint(
                    _as_sum(lc.get(var, [])), _as_sum(rc.get(var, [])),
                    "weak", var, source))
            # strict constant parts whose rhs words all reoccur on the lhs are
            # rendered against 0, matching the published constraint shape
            dropped = ()
            if const_rel == "strict" and _is_proper_submultiset(rconst, lconst):
                rconst, dropped = [], tuple(rconst)
            out.append(ArithConstraint(
                _as_sum(lconst), _as_sum(rconst), const_rel, "const", source, dropped))
    return tuple(out)


def _valued(name: str, value: Rat) -> Rat:
    """The one check of a parameter's value, made by the parser at the
    value's line."""
    value = as_rat(value)
    if value < 0:
        raise ConstraintError(f"valuation of {name!r} is negative: {value}")
    if name in RESERVED and value != int(name):
        raise ConstraintError(f"reserved parameter {name!r} must map to {name}")
    return value


_VALUATION_LINES = line_kinds((("param", "param <name> = <value>",
                                 r"param\s+([^\s=]+)\s*=(.*)"),))


def parse_valuation(text: str) -> dict[str, Rat]:
    """Parse ``param <name> = <value>`` lines."""
    values: dict[str, Rat] = {}

    def handle(_lineno, _keyword, name, value):
        if name in values:
            raise ValueError(f"parameter {name!r} valued twice")
        values[name] = _valued(name, parse_rat(value))

    read_lines(text, _VALUATION_LINES, handle, ConstraintError)
    return {**values, **_UNITS}


def eval_word_sum(ws: WordSum, eta: dict[str, Rat], memo: dict) -> Rat:
    """The sum of the words' values under ``eta``. A word's value is its
    parent's times its parameter's, an int or a Fraction; ``memo`` holds
    the values of words under this ``eta`` and may be shared by the sums of
    one constraint set."""

    def step(value, param):
        return value * eta[param]

    try:
        return as_rat(sum(fold_words(ws, memo, step, 1)))
    except KeyError as exc:
        raise ConstraintError(f"unbound parameter {exc.args[0]!r}") from None


class EvalResult(Record):
    __slots__ = ("holds", "lhs_value", "rhs_value")

    def __init__(self, holds: bool, lhs_value: Rat, rhs_value: Rat):
        __class__._set_holds(self, holds)
        __class__._set_lhs_value(self, lhs_value)
        __class__._set_rhs_value(self, rhs_value)


def eval_valuation(c: ArithConstraint, eta: dict[str, Rat],
                   delta: Fraction = None, memo: dict = None) -> EvalResult:
    """Evaluate a constraint numerically; strict means > (or margin >= delta).
    The rhs value counts any ``dropped`` words. ``memo`` is as for
    ``eval_word_sum``."""
    if delta is not None and delta <= 0:
        raise ConstraintError(f"delta must be positive, got {delta}")
    if memo is None:
        memo = {}
    lhs = eval_word_sum(c.lhs, eta, memo)
    rhs = eval_word_sum(c.dropped or c.rhs, eta, memo)
    if c.rel == "weak":
        holds = lhs >= rhs
    elif delta is None:
        holds = lhs > rhs
    else:
        holds = lhs - rhs >= delta
    return EvalResult(holds, lhs, rhs)

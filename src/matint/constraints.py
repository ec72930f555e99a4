"""Parametric (symbolic) interpretations and their arithmetic constraints.

A dim-1 parametric interpretation maps each symbol to coefficient/constant
parameter names. Interpreting a rewrite constraint symbolically produces
word sums: noncommutative products of parameters, one VarCoeff constraint
per variable and one ConstPart constraint per rule or pair. The reserved
parameters ``1`` and ``0`` stand for the multiplicative unit and zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matrix import MatrixError, Rat, as_rat, parse_rat, strip_comment
from .trs import Rule, Term, Trs, Var, subterms

Word = tuple[str, ...]
WordSum = tuple[Word, ...]

UNIT_WORD: Word = ("1",)
ZERO_WORD: Word = ("0",)
RESERVED = {"0", "1"}


class ConstraintError(ValueError):
    pass


def format_word(word: Word) -> str:
    return " ".join(word)


def format_word_sum(ws: WordSum) -> str:
    return " + ".join(format_word(w) for w in ws)


@dataclass(frozen=True)
class ArithConstraint:
    """lhs REL rhs between word sums; kind is a variable name or "const"."""

    lhs: WordSum
    rhs: WordSum
    rel: str            # "weak" | "strict"
    kind: str           # variable name, or "const"
    source: str = ""    # e.g. "rule 1", "pair 2"

    def __str__(self) -> str:
        op = ">=" if self.rel == "weak" else ">"
        return f"{format_word_sum(self.lhs)} {op} {format_word_sum(self.rhs)}"


@dataclass(frozen=True)
class ParamInterpretation:
    """symbol -> (coefficient parameter per argument, constant parameter)."""

    table: dict[str, tuple[tuple[str, ...], str]]

    def __post_init__(self):
        seen: set[str] = set()
        for symbol, (coeffs, const) in self.table.items():
            for name in (*coeffs, const):
                if name in RESERVED:
                    raise ConstraintError(
                        f"parameter name {name!r} is reserved (symbol {symbol!r})")
                if name in seen:
                    raise ConstraintError(f"duplicate parameter name {name!r}")
                seen.add(name)

    def parameters(self) -> tuple[str, ...]:
        out = []
        for coeffs, const in self.table.values():
            out.extend(coeffs)
            out.append(const)
        return tuple(out)


def parse_pinterp(text: str) -> ParamInterpretation:
    """Parse ``pinterp <symbol> : <arity> = <p1> ... <pk> | <p0>`` lines."""
    table: dict[str, tuple[tuple[str, ...], str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw).strip()
        if not line:
            continue
        try:
            head, rhs = line.split("=", 1)
            kw, sym_arity = head.split(None, 1)
            if kw != "pinterp":
                raise ValueError(f"expected 'pinterp', got {kw!r}")
            symbol, arity_s = (s.strip() for s in sym_arity.split(":", 1))
            arity = int(arity_s)
            coeff_part, const_part = rhs.split("|", 1)
            coeffs = tuple(coeff_part.split())
            const = const_part.strip()
            if not symbol or not const:
                raise ValueError("missing symbol or constant parameter")
            if len(coeffs) != arity:
                raise ValueError(
                    f"{len(coeffs)} coefficient parameter(s) for arity {arity}")
            if symbol in table:
                raise ValueError(f"symbol {symbol!r} interpreted twice")
        except ValueError as exc:
            raise ConstraintError(f"line {lineno}: {exc}") from None
        table[symbol] = (coeffs, const)
    return ParamInterpretation(table)


def format_pinterp(pi: ParamInterpretation) -> str:
    lines = []
    for symbol, (coeffs, const) in pi.table.items():
        coeff_s = " ".join(coeffs)
        sep = " " if coeff_s else ""
        lines.append(f"pinterp {symbol} : {len(coeffs)} = {coeff_s}{sep}| {const}")
    return "\n".join(lines) + "\n"


def _sym_eval(t: Term, pi: ParamInterpretation) -> tuple[dict[str, list[Word]], list[Word]]:
    """Word sums of ``t``: each variable's coefficient words and the constant words.

    One iterative walk hands every node its prefix word (the coefficient
    parameters on its path), so each word is built once. Variables are met in
    left-to-right order and constants in post-order: children first, then the
    node's own constant parameter.
    """
    coeffs: dict[str, list[Word]] = {}
    consts: list[Word] = []
    # a None node stands for a finished constant word, popped after the
    # node's children
    stack: list[tuple[Term | None, Word]] = [(t, ())]
    while stack:
        node, prefix = stack.pop()
        if node is None:
            consts.append(prefix)
        elif isinstance(node, Var):
            coeffs.setdefault(node.name, []).append(prefix or UNIT_WORD)
        elif node.symbol not in pi.table:
            raise ConstraintError(f"uninterpreted symbol {node.symbol!r}")
        else:
            coeff_params, const_param = pi.table[node.symbol]
            stack.append((None, prefix + (const_param,)))
            for param, arg in reversed(list(zip(coeff_params, node.args))):
                stack.append((arg, prefix + (param,)))
    return coeffs, consts


def _ordered_vars(rule: Rule) -> list[str]:
    order: dict[str, None] = {}
    for side in (rule.lhs, rule.rhs):
        for t in subterms(side):
            if isinstance(t, Var):
                order.setdefault(t.name)
    return list(order)


def _as_sum(words: list[Word]) -> WordSum:
    return tuple(words) if words else (ZERO_WORD,)


def _is_proper_submultiset(small: list[Word], big: list[Word]) -> bool:
    pool = list(big)
    for w in small:
        if w not in pool:
            return False
        pool.remove(w)
    return bool(pool)


def generate_arith_constraints(trs: Trs, pairs, pi: ParamInterpretation
                               ) -> tuple[ArithConstraint, ...]:
    """Symbolic constraints: per variable and per constant part of every rule/pair.

    Rules yield weak constraints throughout; pairs yield weak coefficient
    constraints and a strict constant constraint. A bare-variable side shows
    up as the reserved words ``1`` (coefficient) and ``0`` (constant).
    """
    out: list[ArithConstraint] = []
    groups = [("rule", trs.rules, "weak"), ("pair", tuple(pairs), "strict")]
    for label, rules, const_rel in groups:
        for idx, rule in enumerate(rules, start=1):
            lc, lconst = _sym_eval(rule.lhs, pi)
            rc, rconst = _sym_eval(rule.rhs, pi)
            source = f"{label} {idx}"
            for var in _ordered_vars(rule):
                out.append(ArithConstraint(
                    _as_sum(lc.get(var, [])), _as_sum(rc.get(var, [])),
                    "weak", var, source))
            # strict constant parts whose rhs words all reoccur on the lhs are
            # rendered against 0, matching the published constraint shape
            if const_rel == "strict" and _is_proper_submultiset(rconst, lconst):
                rconst = []
            out.append(ArithConstraint(
                _as_sum(lconst), _as_sum(rconst), const_rel, "const", source))
    return tuple(out)


def make_valuation(values: dict[str, Rat]) -> dict[str, Rat]:
    """Validate and complete a valuation: nonnegative, with 1 and 0 forced."""
    out: dict[str, Rat] = {}
    for name, value in values.items():
        value = as_rat(value)
        if value < 0:
            raise ConstraintError(f"valuation of {name!r} is negative: {value}")
        if name in RESERVED and value != int(name):
            raise ConstraintError(f"reserved parameter {name!r} must map to {name}")
        out[name] = value
    out["1"] = 1
    out["0"] = 0
    return out


def parse_valuation(text: str) -> dict[str, Rat]:
    """Parse ``param <name> = <value>`` lines."""
    values: dict[str, Rat] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw).strip()
        if not line:
            continue
        try:
            head, value_s = line.split("=", 1)
            kw, name = head.split(None, 1)
            if kw != "param":
                raise ValueError(f"expected 'param', got {kw!r}")
            name = name.strip()
            if name in values:
                raise ValueError(f"parameter {name!r} valued twice")
            values[name] = parse_rat(value_s)
        except (ValueError, MatrixError) as exc:
            raise ConstraintError(f"line {lineno}: {exc}") from None
    return make_valuation(values)


def format_valuation(eta: dict[str, Rat]) -> str:
    lines = [f"param {name} = {value}"
             for name, value in eta.items() if name not in RESERVED]
    return "\n".join(lines) + "\n"


def eval_word(word: Word, eta: dict[str, Rat]) -> Rat:
    value = Fraction(1)
    for param in word:
        if param not in eta:
            raise ConstraintError(f"unbound parameter {param!r}")
        value *= eta[param]
    return as_rat(value)


def eval_word_sum(ws: WordSum, eta: dict[str, Rat]) -> Rat:
    return as_rat(Fraction(sum(Fraction(eval_word(w, eta)) for w in ws)))


@dataclass(frozen=True)
class EvalResult:
    holds: bool
    lhs_value: Rat
    rhs_value: Rat


def eval_valuation(c: ArithConstraint, eta: dict[str, Rat],
                   delta: Fraction = None) -> EvalResult:
    """Evaluate a constraint numerically; strict means > (or margin >= delta)."""
    lhs = eval_word_sum(c.lhs, eta)
    rhs = eval_word_sum(c.rhs, eta)
    if c.rel == "weak":
        holds = lhs >= rhs
    elif delta is None:
        holds = lhs > rhs
    else:
        holds = lhs - rhs >= delta
    return EvalResult(holds, lhs, rhs)

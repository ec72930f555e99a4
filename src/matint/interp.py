"""Block-based matrix interpretations, term evaluation, and constraint checking.

Interpreting a term under a linear matrix interpretation gives a linear form
(a coefficient matrix per variable plus a constant vector). Two backends
decide universally quantified orderings between forms:

- entrywise: coefficientwise/entrywise matrix order, strict on the first
  constant component;
- value: the rho ordering (entry sums over a divisor m), strict by a margin
  delta. Weak domination holds for all nonnegative tuples iff the per-column
  sums of each coefficient dominate, so this backend evaluates only the
  projected forms ``1ᵀ·[[t]]``.

A seeded random falsifier cross-checks the symbolic verdicts on concrete
tuples.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .matrix import (Cmp, Mat, MatrixError, Rat, as_rat, cmp_entrywise,
                     const_scalar_parts, format_matrix, parse_matrix, parse_rat,
                     strip_comment)
from .represent import rho
from .trs import Rule, Term, Trs, Var


class InterpError(ValueError):
    pass


@dataclass(frozen=True)
class BlockShape:
    """Dimension n split into beta = n/b blocks of size b."""

    dim: int
    block: int = 1

    def __post_init__(self):
        if self.dim < 1 or self.block < 1:
            raise InterpError(f"dimension and block size must be positive: {self}")
        if self.dim % self.block:
            raise InterpError(f"block size {self.block} does not divide dimension {self.dim}")

    @property
    def beta(self) -> int:
        return self.dim // self.block


@dataclass(frozen=True)
class LinearFunc:
    """One symbol's function: argument matrices and a constant column vector."""

    mats: tuple[Mat, ...]
    const: Mat


@dataclass
class Interpretation:
    shape: BlockShape
    domain: str                  # "natural" | "rational"
    table: dict[str, LinearFunc]
    delta: Fraction | None = None

    def __post_init__(self):
        n, b = self.shape.dim, self.shape.block
        if self.domain not in ("natural", "rational"):
            raise InterpError(f"domain must be natural or rational, got {self.domain!r}")
        if self.delta is not None and self.delta <= 0:
            raise InterpError(f"delta must be positive, got {self.delta}")
        for symbol, func in self.table.items():
            for k, mat in enumerate(func.mats, start=1):
                if mat.shape != (n, n):
                    raise InterpError(
                        f"{symbol}: M{k} is {mat.rows}x{mat.cols}, need {n}x{n}")
            if func.const.shape != (n, 1):
                raise InterpError(
                    f"{symbol}: constant vector is {func.const.rows}x{func.const.cols}, "
                    f"need {n}x1")
            for mat in (*func.mats, func.const):
                if any(e < 0 for e in mat.entries):
                    raise InterpError(f"{symbol}: negative entry")
                if self.domain == "natural" and not mat.is_natural():
                    raise InterpError(f"{symbol}: non-natural entry in natural domain")
            for j in range(self.shape.beta):
                segment = func.const.entries[j * b:(j + 1) * b]
                if any(e != segment[0] for e in segment):
                    raise InterpError(
                        f"{symbol}: constant vector is not block-constant "
                        f"(block {j + 1} of size {b})")

    def arity(self, symbol: str) -> int:
        return len(self.table[symbol].mats)

    def max_entry(self, matrices_only: bool = False) -> Rat:
        """Largest entry over all coefficient matrices (and constant vectors)."""
        best = 0
        for func in self.table.values():
            mats = func.mats if matrices_only else (*func.mats, func.const)
            for mat in mats:
                best = max(best, mat.max_entry())
        return best


@dataclass(frozen=True)
class LinearForm:
    """Interpreted term ``left·[[t]]``: coefficient per variable plus constant.

    The full form (``left = I``) has n x n coefficients and an n x 1 constant;
    the value backend's projected form (``left = 1ᵀ``) has 1 x n coefficients
    (the column sums) and a 1 x 1 constant (the entry sum). Variables with
    zero coefficient are absent from ``coeffs``.
    """

    dim: int
    coeffs: dict[str, Mat]
    const: Mat

    def variables(self) -> tuple[str, ...]:
        return tuple(sorted(self.coeffs))

    def coeff(self, var: str) -> Mat:
        return self.coeffs.get(var, Mat.zero(self.const.rows, self.dim))


def eval_term(interp: Interpretation, t: Term, left: Mat = None) -> LinearForm:
    """The linear form ``left·[[t]]`` by one iterative top-down walk.

    Each node receives ``u = left·(the argument matrices on its path)``: a
    variable adds ``u`` to its coefficient, a symbol adds ``u·C`` to the
    constant and hands ``u·M_i`` to its i-th argument. ``left`` (r x n)
    defaults to the identity, which gives the full form that the entrywise
    backend and the sampler need. The value backend passes ``Mat.ones(1, n)``,
    so every product is a row times a matrix and a term costs O(|t|·n²).
    Terms of any depth evaluate without recursion.
    """
    n = interp.shape.dim
    if left is None:
        left = Mat.identity(n)
    coeffs: dict[str, Mat] = {}
    const = Mat.zero(left.rows, 1)
    stack = [(t, left)]
    while stack:
        node, u = stack.pop()
        if isinstance(node, Var):
            coeffs[node.name] = coeffs[node.name] + u if node.name in coeffs else u
            continue
        func = interp.table.get(node.symbol)
        if func is None:
            raise InterpError(f"uninterpreted symbol {node.symbol!r}")
        if len(func.mats) != len(node.args):
            raise InterpError(
                f"symbol {node.symbol!r} has arity {len(func.mats)} in the interpretation, "
                f"used with {len(node.args)} argument(s)")
        const = const + u * func.const
        # pushed in reverse, so arguments are visited left to right
        for mat, arg in reversed(tuple(zip(func.mats, node.args))):
            stack.append((arg, u * mat))
    coeffs = {v: m for v, m in coeffs.items() if not m.is_zero()}
    return LinearForm(n, coeffs, const)


@dataclass(frozen=True)
class Verdict:
    holds: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.holds


def _vec(mat: Mat) -> str:
    return "(" + ",".join(str(e) for e in mat.entries) + ")"


def check_entrywise(lhs: LinearForm, rhs: LinearForm, rel: str) -> Verdict:
    """Entrywise order on forms: all coefficients >= and constant >= ;
    strict additionally needs the first constant component strictly greater."""
    if lhs.dim != rhs.dim:
        raise InterpError(f"dimension mismatch: {lhs.dim} vs {rhs.dim}")
    for var in sorted(set(lhs.coeffs) | set(rhs.coeffs)):
        if cmp_entrywise(lhs.coeff(var), rhs.coeff(var)) is Cmp.INCOMPARABLE:
            return Verdict(False, f"coeff({var}): {lhs.coeff(var)} !>= {rhs.coeff(var)}")
    if cmp_entrywise(lhs.const, rhs.const) is Cmp.INCOMPARABLE:
        return Verdict(False, f"const: {_vec(lhs.const)} !>= {_vec(rhs.const)}")
    detail = f"const {_vec(lhs.const)} >= {_vec(rhs.const)}"
    if rel == "strict":
        if lhs.const.entries[0] <= rhs.const.entries[0]:
            return Verdict(False,
                           f"const: first component {lhs.const.entries[0]} not > "
                           f"{rhs.const.entries[0]}")
        detail = f"const {_vec(lhs.const)} > {_vec(rhs.const)}"
    return Verdict(True, detail)


def check_value(lhs: LinearForm, rhs: LinearForm, rel: str, m: int,
                delta: Fraction = None) -> Verdict:
    """rho ordering on forms, universally over nonnegative tuples.

    Weak holds iff every coefficient's column sums dominate the right-hand
    side's and the constant entry sums compare; strict needs the constant
    rho gap to reach delta. Only the coefficients' column sums and the
    constant's entry sum are read, so the projected forms ``1ᵀ·[[t]]`` give
    the same verdict and detail as the full forms.
    """
    if lhs.dim != rhs.dim:
        raise InterpError(f"dimension mismatch: {lhs.dim} vs {rhs.dim}")
    if rel == "strict":
        if delta is None or delta <= 0:
            raise InterpError("strict value comparison needs delta > 0")
    parts = []
    for var in sorted(set(lhs.coeffs) | set(rhs.coeffs)):
        lsums, rsums = lhs.coeff(var).column_sums(), rhs.coeff(var).column_sums()
        for j, (ls, rs) in enumerate(zip(lsums, rsums)):
            if ls < rs:
                return Verdict(False,
                               f"coeff({var}): column {j + 1} sum {ls} < {rs}")
        parts.append(f"rho coeff({var}) {rho(m, lhs.coeff(var))} vs {rho(m, rhs.coeff(var))}")
    lsum, rsum = lhs.const.sum_entries(), rhs.const.sum_entries()
    margin = as_rat(Fraction(lsum - rsum, m))
    parts.append(f"rho const {rho(m, lhs.const)} vs {rho(m, rhs.const)}")
    if lsum < rsum:
        return Verdict(False, f"const: rho {rho(m, lhs.const)} < {rho(m, rhs.const)}")
    if rel == "strict":
        if margin < delta:
            return Verdict(False,
                           f"const: margin {margin} < delta {delta}; " + "; ".join(parts))
        parts.append(f"margin {margin} >= delta {delta}")
    return Verdict(True, "; ".join(parts))


@dataclass(frozen=True)
class ConstraintCheck:
    label: str
    rule: Rule
    rel: str
    verdict: Verdict


@dataclass(frozen=True)
class CheckReport:
    backend: str
    m: int | None
    delta: Fraction | None
    checks: tuple[ConstraintCheck, ...]

    @property
    def holds(self) -> bool:
        return all(c.verdict.holds for c in self.checks)


def resolve_check_params(interp: Interpretation, m: int = None,
                         delta: Fraction = None) -> tuple[int, Fraction]:
    """Fill in value-backend defaults: m is the dimension, delta is 1/m."""
    m = interp.shape.dim if m is None else m
    if delta is None:
        delta = interp.delta if interp.delta is not None else Fraction(1, m)
    return m, Fraction(delta)


def check_problem(trs: Trs, pairs, interp: Interpretation, backend: str = "value",
                  m: int = None, delta: Fraction = None) -> CheckReport:
    """Weak check for every rule, strict check for every pair; all must hold."""
    if backend not in ("entrywise", "value"):
        raise InterpError(f"unknown backend {backend!r}")
    m, delta = resolve_check_params(interp, m, delta)
    # the value backend reads only 1ᵀ·[[t]]; entrywise needs the full form
    left = Mat.ones(1, interp.shape.dim) if backend == "value" else None
    checks: list[ConstraintCheck] = []
    for label, rules, rel in (("rule", trs.rules, "weak"), ("pair", tuple(pairs), "strict")):
        for idx, rule in enumerate(rules, start=1):
            lhs = eval_term(interp, rule.lhs, left)
            rhs = eval_term(interp, rule.rhs, left)
            if backend == "entrywise":
                verdict = check_entrywise(lhs, rhs, rel)
            else:
                verdict = check_value(lhs, rhs, rel, m, delta)
            checks.append(ConstraintCheck(f"{label} {idx}", rule, rel, verdict))
    if backend == "entrywise":
        m = delta = None
    return CheckReport(backend, m, delta, tuple(checks))


# --- sampling falsifier ---

def _int_matrix(mat: Mat, scale: int) -> np.ndarray:
    return np.array([[int(e * scale) for e in mat.row(i)] for i in range(mat.rows)],
                    dtype=object)

def _denominator_lcm(forms) -> int:
    d = 1
    for form in forms:
        for mat in (*form.coeffs.values(), form.const):
            for e in mat.entries:
                if isinstance(e, Fraction):
                    d = lcm(d, e.denominator)
    return d


def sample_falsify(lhs: LinearForm, rhs: LinearForm, rel: str, shape: BlockShape,
                   backend: str = "value", m: int = None, delta: Fraction = None,
                   trials: int = 1000, bound: int = 10, seed: int = 0,
                   domain: str = "natural") -> dict[str, tuple] | None:
    """Search for a concrete block-constant tuple violating lhs REL rhs.

    Block values are naturals in [0, bound] (halves as well for the rational
    domain). Returns the first violating assignment, or None. Arithmetic is
    exact: denominators are cleared and the comparison scaled accordingly.
    """
    if trials < 1:
        raise InterpError(f"trials must be positive, got {trials}")
    n, b, beta = shape.dim, shape.block, shape.beta
    if lhs.dim != n or rhs.dim != n:
        raise InterpError("forms do not match the sampling shape")
    if backend == "value":
        m = n if m is None else m
        if rel == "strict" and (delta is None or delta <= 0):
            raise InterpError("strict value sampling needs delta > 0")
    # denominator 2 admits non-integer rational samples in the rational domain
    sample_den = 1 if domain == "natural" else 2
    den = _denominator_lcm((lhs, rhs))
    # draws carry a factor sample_den, so coefficients scale by den only and
    # constants by the full den*sample_den: every value ends up scaled equally
    scale = den * sample_den
    variables = sorted(set(lhs.coeffs) | set(rhs.coeffs))
    lmats = {v: _int_matrix(lhs.coeff(v), den) for v in variables}
    rmats = {v: _int_matrix(rhs.coeff(v), den) for v in variables}
    lconst = _int_matrix(lhs.const, scale).reshape(n)
    rconst = _int_matrix(rhs.const, scale).reshape(n)

    rng = random.Random(seed)
    draws = {
        v: np.array([[rng.randint(0, bound * sample_den) for _ in range(trials)]
                     for _ in range(beta)], dtype=object)
        for v in variables
    }
    # switch to machine ints when a conservative magnitude bound allows it
    mats = list(lmats.values()) + list(rmats.values())
    coeff_bound = max((int(abs(a).max()) for a in mats), default=0)
    const_bound = max(int(abs(lconst).max()), int(abs(rconst).max()))
    peak = (coeff_bound * bound * sample_den * n * max(1, len(variables))
            + const_bound) * n
    if backend == "value" and rel == "strict":
        peak = peak * delta.denominator + abs(delta.numerator) * m * scale
    if peak < 2 ** 62:
        lmats = {v: a.astype(np.int64) for v, a in lmats.items()}
        rmats = {v: a.astype(np.int64) for v, a in rmats.items()}
        lconst, rconst = lconst.astype(np.int64), rconst.astype(np.int64)
        draws = {v: a.astype(np.int64) for v, a in draws.items()}

    lvals = np.repeat(lconst[:, None], trials, axis=1)
    rvals = np.repeat(rconst[:, None], trials, axis=1)
    for v in variables:
        x = np.repeat(draws[v], b, axis=0)
        lvals = lvals + lmats[v].dot(x)
        rvals = rvals + rmats[v].dot(x)

    if backend == "entrywise":
        bad = (lvals < rvals).any(axis=0)
        if rel == "strict":
            bad |= lvals[0] <= rvals[0]
    elif backend == "value":
        lsum, rsum = lvals.sum(axis=0), rvals.sum(axis=0)
        if rel == "strict":
            # rho gap >= delta, with values scaled by `scale`
            bad = (lsum - rsum) * delta.denominator < delta.numerator * m * scale
        else:
            bad = lsum < rsum
    else:
        raise InterpError(f"unknown backend {backend!r}")

    hits = np.flatnonzero(bad)
    if hits.size == 0:
        return None
    t = int(hits[0])
    return {
        v: tuple(as_rat(Fraction(int(draws[v][i, t]), sample_den))
                 for i in range(beta) for _ in range(b))
        for v in variables
    }


# --- block structure: value collapse and block orderings ---

def value_collapse(a: Mat, b: int) -> Mat:
    """Collapse const+scalar b-blocks to their rho_b values (beta x beta matrix)."""
    if a.rows % b or a.cols % b:
        raise MatrixError(f"{a.rows}x{a.cols} matrix has no {b}x{b} block grid")
    rows = []
    for i in range(a.rows // b):
        row = []
        for j in range(a.cols // b):
            parts = const_scalar_parts(a.block(i, j, b, b))
            if parts is None:
                raise MatrixError(f"block ({i + 1},{j + 1}) is not constant-plus-scalar")
            c, s = parts
            row.append(as_rat(b * Fraction(c) + s))
        rows.append(row)
    return Mat.from_rows(rows)


def collapse_vector(v: Mat, b: int) -> Mat:
    """Collapse block-constant b-segments of a column vector to their values."""
    if v.cols != 1 or v.rows % b:
        raise MatrixError(f"{v.rows}x{v.cols} is not a b-blocked column vector")
    out = []
    for j in range(v.rows // b):
        segment = v.entries[j * b:(j + 1) * b]
        if any(e != segment[0] for e in segment):
            raise MatrixError(f"vector segment {j + 1} is not constant")
        out.append(segment[0])
    return Mat.column(out)


def collapse_interpretation(interp: Interpretation, b: int = None) -> Interpretation:
    """Collapse every matrix/vector of a b-blocked interpretation to dimension beta."""
    b = interp.shape.block if b is None else b
    if interp.shape.dim % b:
        raise InterpError(f"block size {b} does not divide dimension {interp.shape.dim}")
    table = {}
    for symbol, func in interp.table.items():
        try:
            mats = tuple(value_collapse(mat, b) for mat in func.mats)
            const = collapse_vector(func.const, b)
        except MatrixError as exc:
            raise InterpError(f"{symbol}: {exc}") from None
        table[symbol] = LinearFunc(mats, const)
    flat = [e for f in table.values() for m in (*f.mats, f.const) for e in m.entries]
    domain = "natural" if all(isinstance(e, int) and e >= 0 for e in flat) else "rational"
    return Interpretation(BlockShape(interp.shape.dim // b, 1), domain, table, interp.delta)


def cmp_value_blocks(a: Mat, b: Mat, block: int, delta: Fraction = None) -> Cmp:
    """Blockwise rho comparison: GE iff every block's rho_b dominates; GT
    additionally needs the leading block to exceed (by delta, when given)."""
    if a.shape != b.shape:
        raise MatrixError(f"shape mismatch in block comparison: {a.shape} vs {b.shape}")
    if a.rows % block or a.cols % block:
        raise MatrixError(f"{a.rows}x{a.cols} matrix has no {block}x{block} block grid")
    strict_first = False
    for i in range(a.rows // block):
        for j in range(a.cols // block):
            x = rho(block, a.block(i, j, block, block))
            y = rho(block, b.block(i, j, block, block))
            if x < y:
                return Cmp.INCOMPARABLE
            if i == 0 and j == 0:
                strict_first = x - y >= delta if delta is not None else x > y
    return Cmp.GT if strict_first else Cmp.GE


# --- file format ---

def parse_interpretation(text: str, signature: dict[str, int] = None) -> Interpretation:
    """Parse the line-oriented interpretation format (see the file docs)."""
    domain = None
    dim = None
    block = 1
    delta = None
    table: dict[str, LinearFunc] = {}
    current: str | None = None
    mats: list[Mat] = []
    const: Mat | None = None
    arity = 0

    def close_symbol(lineno):
        if current is None:
            return
        if len(mats) != arity or const is None:
            raise InterpError(
                f"line {lineno}: symbol {current!r} needs M1..M{arity} and C")
        table[current] = LinearFunc(tuple(mats), const)

    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        line = strip_comment(raw).strip()
        if not line:
            continue
        try:
            key = line.split(None, 1)[0]
            if key == "domain":
                domain = line.split(None, 1)[1].strip()
            elif key == "dim":
                dim = int(line.split(None, 1)[1])
            elif key == "block":
                block = int(line.split(None, 1)[1])
            elif key == "delta":
                delta = Fraction(parse_rat(line.split(None, 1)[1]))
            elif key == "interp":
                close_symbol(lineno)
                head = line.split(None, 1)[1]
                symbol, arity_s = (s.strip() for s in head.split(":", 1))
                if symbol in table:
                    raise ValueError(f"symbol {symbol!r} interpreted twice")
                current, arity = symbol, int(arity_s)
                mats, const = [], None
            elif key.startswith("M"):
                idx = int(key[1:])
                if current is None or idx != len(mats) + 1 or idx > arity:
                    raise ValueError(f"unexpected {key} (arity {arity})")
                mats.append(parse_matrix(line.split("=", 1)[1]))
            elif key == "C":
                if current is None or const is not None:
                    raise ValueError("unexpected C line")
                const = parse_matrix(line.split("=", 1)[1])
            else:
                raise ValueError(f"unrecognized line {line!r}")
        except (ValueError, IndexError, MatrixError) as exc:
            raise InterpError(f"line {lineno}: {exc}") from None
    close_symbol(len(lines))
    if domain is None or dim is None:
        raise InterpError("missing 'domain' or 'dim' header")
    interp = Interpretation(BlockShape(dim, block), domain, table, delta)
    if signature is not None:
        for symbol, want in signature.items():
            if symbol not in table:
                raise InterpError(f"symbol {symbol!r} of the TRS is uninterpreted")
            if len(table[symbol].mats) != want:
                raise InterpError(
                    f"symbol {symbol!r} has arity {want} in the TRS but "
                    f"{len(table[symbol].mats)} argument matrices")
    return interp


def format_interpretation(interp: Interpretation) -> str:
    lines = [f"domain {interp.domain}", f"dim {interp.shape.dim}",
             f"block {interp.shape.block}"]
    if interp.delta is not None:
        lines.append(f"delta {interp.delta}")
    for symbol, func in interp.table.items():
        lines.append(f"interp {symbol} : {len(func.mats)}")
        for k, mat in enumerate(func.mats, start=1):
            lines.append(f"  M{k} = {format_matrix(mat)}")
        lines.append(f"  C = {format_matrix(func.const)}")
    return "\n".join(lines) + "\n"

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


def _ground_values(interp: Interpretation, t: Term) -> dict[int, Mat]:
    """The value vector of every ground subterm of t, keyed by id(node):
    hashing a frozen-dataclass term recurses, so the term itself cannot be
    the key. A node whose symbol is uninterpreted or used with another arity
    is left out, for the top-down walk to report."""
    nodes = []
    stack = [t]
    while stack:
        node = stack.pop()
        if not isinstance(node, Var):
            nodes.append(node)
            stack.extend(node.args)
    values: dict[int, Mat] = {}
    # in reversed pre-order, every node comes after its arguments
    for node in reversed(nodes):
        func = interp.table.get(node.symbol)
        if (func is not None and len(func.mats) == len(node.args)
                and all(map(values.__contains__, map(id, node.args)))):
            w = func.const
            for mat, arg in zip(func.mats, node.args):
                w = w + mat * values[id(arg)]
            values[id(node)] = w
    return values


def eval_term(interp: Interpretation, t: Term, left: Mat = None) -> LinearForm:
    """The linear form ``left·[[t]]`` by one iterative top-down walk.

    Each node receives ``u = left·(the argument matrices on its path)``: a
    variable adds ``u`` to its coefficient, a symbol adds ``u·C`` to the
    constant and hands ``u·M_i`` to its i-th argument. ``left`` (r x n)
    defaults to the identity, which gives the full form that the entrywise
    backend needs. The value backend passes ``Mat.ones(1, n)``, so every
    product is a row times a matrix and a term costs O(|t|·n²). With more
    than one row, ground subterms are first folded bottom-up to their value
    vectors and the walk stops at them: a symbol adds ``u·(C + M_i·[[t_i]])``
    over its ground arguments ``t_i``, so an edge into a ground subterm costs
    a matrix-vector product rather than an r x n by n x n product. Terms of
    any depth evaluate without recursion.
    """
    n = interp.shape.dim
    if left is None:
        left = Mat.identity(n)
    ground = _ground_values(interp, t) if left.rows > 1 else {}
    if id(t) in ground:
        return LinearForm(n, {}, left * ground[id(t)])
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
        w = func.const
        # pushed in reverse, so arguments are visited left to right
        for mat, arg in reversed(tuple(zip(func.mats, node.args))):
            vec = ground.get(id(arg))
            if vec is None:
                stack.append((arg, u * mat))
            else:
                w = w + mat * vec
        const = const + u * w
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
    # a sampled tuple that contradicts a HOLDS verdict, if sampling found one
    witness: dict[str, tuple] | None = None


@dataclass(frozen=True)
class CheckReport:
    backend: str
    m: int | None
    delta: Fraction | None
    checks: tuple[ConstraintCheck, ...]

    @property
    def holds(self) -> bool:
        return all(c.verdict.holds for c in self.checks)

    @property
    def consistent(self) -> bool:
        """No sampled tuple contradicts a symbolic verdict."""
        return all(c.witness is None for c in self.checks)


def check_problem(trs: Trs, pairs, interp: Interpretation, backend: str = "value",
                  m: int = None, delta: Fraction = None, trials: int = 0,
                  bound: int = 10, seed: int = 0) -> CheckReport:
    """Weak check for every rule, strict check for every pair; all must hold.

    Value-backend defaults: m is the dimension; delta is the file's delta,
    else 1/m. With ``trials`` > 0, ``sample_falsify`` cross-checks every HOLDS
    verdict on the forms the check just computed, and the check keeps the
    witness it finds (or None).
    """
    if backend not in ("entrywise", "value"):
        raise InterpError(f"unknown backend {backend!r}")
    m = interp.shape.dim if m is None else m
    if delta is None:
        delta = interp.delta if interp.delta is not None else Fraction(1, m)
    delta = Fraction(delta)
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
            witness = None
            if trials and verdict.holds:
                witness = sample_falsify(lhs, rhs, rel, interp.shape, backend,
                                         m=m, delta=delta, trials=trials, bound=bound,
                                         seed=seed, domain=interp.domain)
            checks.append(ConstraintCheck(f"{label} {idx}", rule, rel, verdict, witness))
    if backend == "entrywise":
        m = delta = None
    return CheckReport(backend, m, delta, tuple(checks))


# --- sampling falsifier ---

def _denominator_lcm(forms) -> int:
    d = 1
    for form in forms:
        for mat in (*form.coeffs.values(), form.const):
            for e in mat.entries:
                if isinstance(e, Fraction):
                    d = lcm(d, e.denominator)
    return d


def _draws(rng: random.Random, top: int, count: int) -> list[int]:
    """``[rng.randint(0, top) for _ in range(count)]`` without randint's three
    Python frames per draw.

    randint(0, top) draws k = (top + 1).bit_length() random bits until the
    value is at most top. So the values it returns are the k-bit draws that
    pass, in order. Each round below draws only as many k-bit values as are
    still missing, so the last value drawn is also the last one kept: the
    stream, and the generator's state after it, are those of randint.
    """
    k = (top + 1).bit_length()
    getrandbits = rng.getrandbits
    out: list[int] = []
    while len(out) < count:
        out += [r for r in [getrandbits(k) for _ in range(count - len(out))] if r <= top]
    return out


def sample_falsify(lhs: LinearForm, rhs: LinearForm, rel: str, shape: BlockShape,
                   backend: str = "value", m: int = None, delta: Fraction = None,
                   trials: int = 1000, bound: int = 10, seed: int = 0,
                   domain: str = "natural") -> dict[str, tuple] | None:
    """Search for a concrete block-constant tuple violating lhs REL rhs.

    Block values are naturals in [0, bound] (halves as well for the rational
    domain), drawn from ``random.Random(seed)`` exactly as ``randint`` would
    draw them, variable by variable (in name order), block by block, trial
    by trial. Returns the first violating assignment, or None. Arithmetic is
    exact: denominators are cleared and the comparison scaled accordingly.

    The value backend compares only the entry sums of the two values, so it
    takes the full forms or the projected forms ``1ᵀ·[[t]]`` (one row): both
    give the same sums, hence the same witness. The entrywise backend needs
    the full forms (n rows).
    """
    if trials < 1:
        raise InterpError(f"trials must be positive, got {trials}")
    if bound < 0:
        raise InterpError(f"bound must be nonnegative, got {bound}")
    if backend not in ("entrywise", "value"):
        raise InterpError(f"unknown backend {backend!r}")
    n, b, beta = shape.dim, shape.block, shape.beta
    if lhs.dim != n or rhs.dim != n:
        raise InterpError("forms do not match the sampling shape")
    rows = lhs.const.rows
    if rhs.const.rows != rows:
        raise InterpError(f"forms have {rows} and {rhs.const.rows} rows")
    if backend == "entrywise" and rows != n:
        raise InterpError(f"entrywise sampling needs full forms ({n} rows), got {rows}")
    if backend == "value":
        if rows not in (1, n):
            raise InterpError(f"value sampling needs full or projected forms, got {rows} rows")
        m = n if m is None else m
        if rel == "strict" and (delta is None or delta <= 0):
            raise InterpError("strict value sampling needs delta > 0")
    # denominator 2 admits non-integer rational samples in the rational domain
    sample_den = 1 if domain == "natural" else 2
    top = bound * sample_den
    den = _denominator_lcm((lhs, rhs))
    # draws carry a factor sample_den, so coefficients scale by den only and
    # constants by the full den*sample_den: every value ends up scaled equally
    scale = den * sample_den
    variables = sorted(set(lhs.coeffs) | set(rhs.coeffs))

    def int_rows(form):
        """Scaled integer coefficient rows over the variables' blocks (a
        block-constant draw meets only a block's column sum) and constant;
        the value backend sums the rows first."""
        coeff_rows = [[] for _ in range(rows)]
        for v in variables:
            entries = form.coeff(v).entries
            for i, row in enumerate(coeff_rows):
                base = i * n
                row.extend(int(den * sum(entries[base + j * b:base + (j + 1) * b]))
                           for j in range(beta))
        const = [int(scale * e) for e in form.const.entries]
        if backend == "value":
            coeff_rows = [[sum(col) for col in zip(*coeff_rows)]]
            const = [sum(const)]
        return coeff_rows, const

    sides = (int_rows(lhs), int_rows(rhs))
    # the draws and every partial sum of a value (of a row sum, for the value
    # backend) are at most peak in magnitude; a strict value comparison also
    # forms (lsum - rsum) * den(delta) and num(delta) * m * scale
    peak = max(top, *(sum(map(abs, row)) * top + abs(c)
                      for coeff_rows, const in sides for row, c in zip(coeff_rows, const)))
    if backend == "value" and rel == "strict":
        peak = max(2 * peak * delta.denominator, abs(delta.numerator) * m * scale)
    dtype = np.int64 if peak < 2 ** 63 else object

    draws = np.array(_draws(random.Random(seed), top, len(variables) * beta * trials),
                     dtype=dtype).reshape(len(variables) * beta, trials)
    lvals, rvals = (np.array(coeff_rows, dtype=dtype).dot(draws)
                    + np.array(const, dtype=dtype)[:, None]
                    for coeff_rows, const in sides)

    if backend == "entrywise":
        bad = (lvals < rvals).any(axis=0)
        if rel == "strict":
            bad |= lvals[0] <= rvals[0]
    elif rel == "strict":
        # rho gap >= delta, with values scaled by `scale`
        bad = (lvals[0] - rvals[0]) * delta.denominator < delta.numerator * m * scale
    else:
        bad = lvals[0] < rvals[0]

    hits = np.flatnonzero(bad)
    if hits.size == 0:
        return None
    t = int(hits[0])
    return {
        v: tuple(as_rat(Fraction(int(draws[k * beta + i, t]), sample_den))
                 for i in range(beta) for _ in range(b))
        for k, v in enumerate(variables)
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

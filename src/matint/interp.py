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

import operator
import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm

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
                if any(e < 0 for e in mat.nums):
                    raise InterpError(f"{symbol}: negative entry")
                if self.domain == "natural" and not mat.is_natural():
                    raise InterpError(f"{symbol}: non-natural entry in natural domain")
            for j in range(self.shape.beta):
                segment = func.const.nums[j * b:(j + 1) * b]
                if any(e != segment[0] for e in segment):
                    raise InterpError(
                        f"{symbol}: constant vector is not block-constant "
                        f"(block {j + 1} of size {b})")

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

    def coeff(self, var: str) -> Mat:
        c = self.coeffs.get(var)
        return Mat.zero(self.const.rows, self.dim) if c is None else c


def _func(interp: Interpretation, node) -> LinearFunc:
    """The function interpreting an application, checked against its arity."""
    func = interp.table.get(node.symbol)
    if func is None:
        raise InterpError(f"uninterpreted symbol {node.symbol!r}")
    if len(func.mats) != len(node.args):
        raise InterpError(
            f"symbol {node.symbol!r} has arity {len(func.mats)} in the interpretation, "
            f"used with {len(node.args)} argument(s)")
    return func


def eval_term(interp: Interpretation, t: Term, left: Mat = None,
              memo: dict = None) -> LinearForm:
    """The linear form ``left·[[t]]``; terms of any depth evaluate without
    recursion.

    Without ``left``, the full form ``[[t]]`` that the entrywise backend
    needs is composed bottom-up, ``[[f(t1..tk)]] = C + sum M_i·[[t_i]]``,
    once per distinct subterm: a node costs ``M_i·coeff`` per variable of
    each argument plus one matrix-vector product for each argument's
    constant, so a ground subterm costs no more than its value vector.
    ``memo`` maps terms to the full forms already built under this
    interpretation; it is read and filled, so callers evaluating many terms
    under one interpretation share it.

    With ``left`` (r x n), one top-down walk hands each node ``u = left·(the
    argument matrices on its path)``: a variable adds ``u`` to its
    coefficient, a symbol adds ``u·C`` to the constant and ``u·M_i`` goes to
    its i-th argument. The value backend passes ``Mat.ones(1, n)``, so every
    product is a row times a matrix and a term costs O(|t|·n²); ``memo`` is
    not used.

    Either way the first uninterpreted or misused symbol in pre-order is
    reported.
    """
    n = interp.shape.dim
    if left is None:
        return _full_form(interp, t, {} if memo is None else memo)
    coeffs: dict[str, Mat] = {}
    const = Mat.zero(left.rows, 1)
    stack = [(t, left)]
    while stack:
        node, u = stack.pop()
        if isinstance(node, Var):
            coeffs[node.name] = coeffs[node.name] + u if node.name in coeffs else u
            continue
        func = _func(interp, node)
        # pushed in reverse, so arguments are visited left to right
        for mat, arg in reversed(tuple(zip(func.mats, node.args))):
            stack.append((arg, u * mat))
        const = const + u * func.const
    coeffs = {v: m for v, m in coeffs.items() if not m.is_zero()}
    return LinearForm(n, coeffs, const)


def _full_form(interp: Interpretation, t: Term, memo: dict) -> LinearForm:
    """``[[t]]`` bottom-up over the subterms of t that ``memo`` lacks."""
    n = interp.shape.dim
    if isinstance(t, Var):
        return LinearForm(n, {t.name: Mat.identity(n)}, Mat.zero(n, 1))
    # a depth-first walk: a node is checked when first reached (so in
    # pre-order) and composed when popped again, after all its arguments
    stack = [(t, False)]
    while stack:
        node, composed = stack.pop()
        if not composed:
            if node not in memo and not isinstance(node, Var):
                _func(interp, node)
                stack.append((node, True))
                stack.extend((arg, False) for arg in reversed(node.args))
            continue
        func = interp.table[node.symbol]
        coeffs: dict[str, Mat] = {}
        const = func.const
        for mat, arg in zip(func.mats, node.args):
            if isinstance(arg, Var):
                # M·I = M
                parts = ((arg.name, mat),)
            else:
                form = memo[arg]
                const = const + mat * form.const
                parts = ((v, mat * c) for v, c in form.coeffs.items())
            for v, c in parts:
                coeffs[v] = coeffs[v] + c if v in coeffs else c
        # a zero coefficient contributes nothing further up, so it is dropped here
        memo[node] = LinearForm(n, {v: c for v, c in coeffs.items() if not c.is_zero()},
                                const)
    return memo[t]


@dataclass(frozen=True)
class Verdict:
    holds: bool
    detail: str = ""


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
    witness it finds (or None). The checks share one draw pool, so each row
    of the stream is drawn once per problem.
    """
    if backend not in ("entrywise", "value"):
        raise InterpError(f"unknown backend {backend!r}")
    m = interp.shape.dim if m is None else m
    if delta is None:
        delta = interp.delta if interp.delta is not None else Fraction(1, m)
    delta = Fraction(delta)
    # the value backend reads only 1ᵀ·[[t]]; entrywise needs the full forms,
    # which rules and pairs share through their common subterms
    left, memo = (Mat.ones(1, interp.shape.dim), None) if backend == "value" else (None, {})
    # every check samples the same stream, so they share one draw pool
    pool: dict = {}
    checks: list[ConstraintCheck] = []
    for label, rules, rel in (("rule", trs.rules, "weak"), ("pair", tuple(pairs), "strict")):
        for idx, rule in enumerate(rules, start=1):
            lhs = eval_term(interp, rule.lhs, left, memo)
            rhs = eval_term(interp, rule.rhs, left, memo)
            if backend == "entrywise":
                verdict = check_entrywise(lhs, rhs, rel)
            else:
                verdict = check_value(lhs, rhs, rel, m, delta)
            witness = None
            if trials and verdict.holds:
                witness = sample_falsify(lhs, rhs, rel, interp.shape, backend,
                                         m=m, delta=delta, trials=trials, bound=bound,
                                         seed=seed, domain=interp.domain, pool=pool)
            checks.append(ConstraintCheck(f"{label} {idx}", rule, rel, verdict, witness))
    if backend == "entrywise":
        m = delta = None
    return CheckReport(backend, m, delta, tuple(checks))


# --- sampling falsifier ---

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


class _DrawPool:
    """The stream ``_draws(random.Random(seed), top, ·)`` cut into rows of
    ``trials`` values: row r holds draws r·trials .. (r+1)·trials − 1.

    Rows are drawn only when a check first needs them. The stream is
    prefix-consistent, so row r is the same whichever check asks for it
    first, and equal to row r of a fresh stream. Each row is packed at most
    once per lane width into one int, lane t holding draw t.
    """

    __slots__ = ("rng", "top", "trials", "rows", "packed")

    def __init__(self, seed: int, top: int, trials: int):
        self.rng = random.Random(seed)
        self.top, self.trials = top, trials
        self.rows: list[list[int]] = []
        self.packed: dict[tuple[int, int], int] = {}

    def need(self, count: int):
        """Draw rows until there are ``count``."""
        t, missing = self.trials, count - len(self.rows)
        if missing > 0:
            flat = _draws(self.rng, self.top, missing * t)
            self.rows += [flat[r * t:(r + 1) * t] for r in range(missing)]

    def lanes(self, r: int, w: int) -> int:
        """Row r packed into lanes of w bits (w a multiple of 8)."""
        packed = self.packed.get((r, w))
        if packed is None:
            nbytes = w // 8
            packed = self.packed[r, w] = int.from_bytes(
                b"".join([x.to_bytes(nbytes, "little") for x in self.rows[r]]), "little")
        return packed


def sample_falsify(lhs: LinearForm, rhs: LinearForm, rel: str, shape: BlockShape,
                   backend: str = "value", m: int = None, delta: Fraction = None,
                   trials: int = 1000, bound: int = 10, seed: int = 0,
                   domain: str = "natural", pool: dict = None) -> dict[str, tuple] | None:
    """Search for a concrete block-constant tuple violating lhs REL rhs.

    Block values are naturals in [0, bound] (halves as well for the rational
    domain), drawn from ``random.Random(seed)`` exactly as ``randint`` would
    draw them, variable by variable (in name order), block by block, trial
    by trial. Returns the first violating assignment, or None. Arithmetic is
    exact, in Python ints: the forms' numerators are brought over one common
    denominator and the comparison scaled accordingly, so no magnitude bound
    applies.

    The value backend compares only the entry sums of the two values, so it
    takes the full forms or the projected forms ``1ᵀ·[[t]]`` (one row): both
    give the same sums, hence the same witness. The entrywise backend needs
    the full forms (n rows).

    All trials are tested at once. The draws of one variable block, over
    the trials, are packed into one int, trial t in lane t of w bits. A
    row's gap lhs − rhs − floor, offset by 2^(w−1), is then one sum of
    coefficient times packed draws. w is chosen so that 2^(w−1) exceeds
    every gap's magnitude: each lane stays in [0, 2^w), no lane borrows
    from another, and a trial fails exactly where a lane's top bit is
    clear.

    ``pool`` maps ``(seed, top, trials)`` to the draws already made for that
    stream (``top`` is the largest scaled draw); it is read and filled, so
    calls with the same seed, bound, domain and trials, like the checks of
    one problem, draw and pack each row once. The witnesses are those of
    separate calls.
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
    den = lcm(*(mat.den for form in (lhs, rhs)
                for mat in (*form.coeffs.values(), form.const)))
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
            mat = form.coeff(v)
            nums, k = mat.nums, den // mat.den
            for i, row in enumerate(coeff_rows):
                base = i * n
                row.extend(k * sum(nums[base + j * b:base + (j + 1) * b])
                           for j in range(beta))
        k = scale // form.const.den
        const = [k * e for e in form.const.nums]
        if backend == "value":
            coeff_rows = [[sum(col) for col in zip(*coeff_rows)]]
            const = [sum(const)]
        return coeff_rows, const

    (lrows, lconst), (rrows, rconst) = int_rows(lhs), int_rows(rhs)
    # a trial fails where some row's gap lhs - rhs falls below that row's floor
    floors = [0] * len(lconst)
    if rel == "strict":
        # entrywise: the first component must exceed; value: the rho gap
        # (l - r)/(m·scale) must reach delta
        floors[0] = 1 if backend == "entrywise" else ceil(delta * m * scale)
    # per row: the coefficient of each draw row (variable by variable, block
    # by block) and the constant part of the gap minus the floor
    gaps = [(list(map(operator.sub, lrow, rrow)), lc - rc - floor)
            for lrow, rrow, lc, rc, floor in zip(lrows, rrows, lconst, rconst, floors)]
    reach = max(sum(map(abs, coeffs)) * top + abs(g) for coeffs, g in gaps)
    # the narrowest multiple of 8 with 2^(w-1) > reach
    w = (reach.bit_length() + 8) // 8 * 8
    pool = {} if pool is None else pool
    draws = pool.get((seed, top, trials))
    if draws is None:
        draws = pool[seed, top, trials] = _DrawPool(seed, top, trials)
    draws.need(len(variables) * beta)
    # 1, and the top bit, in every lane
    ones = int.from_bytes((b"\x01" + bytes(w // 8 - 1)) * trials, "little")
    high = ones << (w - 1)
    fails = 0
    for coeffs, g in gaps:
        # every lane holds 2^(w-1) + that trial's gap
        acc = g * ones + high
        for r, coeff in enumerate(coeffs):
            if coeff:
                acc += coeff * draws.lanes(r, w)
        fails |= high & ~acc
    if not fails:
        return None
    # the lowest failing lane is the first failing trial over all rows
    first = ((fails & -fails).bit_length() - 1) // w
    return {
        v: tuple(as_rat(Fraction(draws.rows[k * beta + i][first], sample_den))
                 for i in range(beta) for _ in range(b))
        for k, v in enumerate(variables)
    }


# --- block structure: value collapse ---

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
    natural = all(m.is_natural() for f in table.values() for m in (*f.mats, f.const))
    domain = "natural" if natural else "rational"
    return Interpretation(BlockShape(interp.shape.dim // b, 1), domain, table, interp.delta)


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

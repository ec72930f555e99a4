"""Block-based matrix interpretations, term evaluation, and constraint checking.

The domain: an interpretation of block size b gives every variable the
block-constant tuples of naturals (or rationals), b equal entries per block.
Its constant vectors are block-constant and, within each b x b block of a
matrix, every row has the same sum, so every symbol maps the domain into
itself; the loader refuses anything else (at block 1 there is nothing to
check).

Interpreting a term under a linear matrix interpretation gives a linear form
(a coefficient matrix per variable plus a constant vector). Two backends
decide universally quantified orderings between forms over the domain:

- entrywise: in every row, each block column's entry sum (the entry itself
  at block 1) and the constant component dominate; strict on the first
  constant component;
- value: the rho ordering (entry sums over a divisor m), strict by a margin
  delta. Weak domination holds iff the block-column sums of each
  coefficient dominate, so this backend evaluates only the projected forms
  ``1ᵀ·[[t]]``.

``decide`` reads both forms once into gap rows, lhs − rhs less a floor, and
gives the verdict, its detail and, for FAILS, a witness: the tuple at which
the first negative gap row is negative.

At block b > 1, ``check_problem`` decides on the beta x beta quotient, which
acts on the domain as the interpretation does; m stays n and the report is
the full forms' (see ``decide``).
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from itertools import compress
from math import gcd, lcm
from types import MappingProxyType

from .matrix import (LineError, Mat, MatrixError, Rat, Record, _rat_str, entry_strs,
                     format_matrix, line_kinds, parse_matrix, parse_rat, read_lines)
from .trs import App, Rule, Term, Trs, Var


class InterpError(ValueError):
    """``where`` is the header or ``(symbol, 'M<k>'|'C')`` at fault, whose line a parser names."""

    def __init__(self, message: str, where=None):
        super().__init__(message)
        self.where = where


class BlockShape(Record):
    """Dimension n split into beta = n/b blocks of size b."""

    __slots__ = ("dim", "block")

    def __init__(self, dim: int, block: int = 1):
        for name, value in (("dim", dim), ("block", block)):
            if value < 1:
                raise InterpError(f"{name} must be positive, got {value}", name)
        if dim % block:
            raise InterpError(f"block size {block} does not divide dimension {dim}", "block")
        __class__._set_dim(self, dim)
        __class__._set_block(self, block)

    @property
    def beta(self) -> int:
        return self.dim // self.block


class LinearFunc(Record):
    """One symbol's function: argument matrices and a constant column vector.

    ``columns``, what the value walk reads (``_columns`` of each argument
    matrix), is compiled on first use, once per distinct matrix object (equal
    literals share one Mat), and kept: a LinearFunc and its Mats are immutable.
    """

    __slots__ = ("mats", "const", "columns")
    _fields = ("mats", "const")

    def __init__(self, mats: tuple[Mat, ...], const: Mat):
        __class__._set_mats(self, mats)
        __class__._set_const(self, const)

    def __getattr__(self, name):
        # reached only while the ``columns`` slot is empty, or for a missing name
        if name != "columns":
            raise AttributeError(f"'LinearFunc' object has no attribute {name!r}")
        __class__._set_columns(self, _map_once(_columns, self.mats))
        return self.columns


def _map_once(func, objs, done: dict = None) -> tuple:
    """``tuple(map(func, objs))`` with one call per distinct object, also
    over calls that pass the same ``done`` (object id to result; it must
    not outlive the objects). Identity is the key, since hashing a big Mat
    reads every entry."""
    done = {} if done is None else done
    for obj in objs:
        if id(obj) not in done:
            done[id(obj)] = func(obj)
    return tuple(done[id(obj)] for obj in objs)


def _quotient(mat: Mat, shape: BlockShape, where: tuple[str, str]) -> Mat:
    """Each b x b block's common row sum (a vector: each segment's value),
    from one read; uneven rows or segments leave the domain and raise."""
    b, beta, nums = shape.block, shape.beta, mat.nums
    if where[1] == "C":
        for j in range(beta):
            segment = nums[j * b:(j + 1) * b]
            if segment.count(segment[0]) != b:
                raise InterpError(f"{where[0]}: constant vector is not block-constant "
                                  f"(block {j + 1} of size {b})", where)
        return Mat._derived(beta, 1, nums[::b], mat.den)
    # the sum of each run of b entries, beta runs per row, row by row
    sums = [sum(nums[k:k + b]) for k in range(0, len(nums), b)]
    out = []
    for i in range(beta):
        rows = sums[i * b * beta:(i + 1) * b * beta]
        if rows != rows[:beta] * b:
            j = next(j for j in range(beta) if len(set(rows[j::beta])) > 1)
            raise InterpError(f"{where[0]}: {where[1]} block ({i + 1},{j + 1}) of size {b} "
                              f"has rows with different sums", where)
        out += rows[:beta]
    return Mat._derived(beta, beta, out, mat.den)


def _block_quotient(interp: Interpretation, done: dict) -> Interpretation:
    """The quotient at dimension beta, block 1; ``done`` maps the id of each
    matrix already taken to its quotient, so shared matrices share one."""
    shape = interp.shape
    table = {}
    for symbol, func in interp.table.items():
        parts = (*func.mats, func.const)
        for k, mat in enumerate(parts, start=1):
            if id(mat) not in done:
                where = (symbol, f"M{k}" if k < len(parts) else "C")
                done[id(mat)] = _quotient(mat, shape, where)
        *mats, const = (done[id(mat)] for mat in parts)
        table[symbol] = LinearFunc(tuple(mats), const)
    return Interpretation._derived(BlockShape(shape.beta), interp.domain, table, interp.delta)


class Interpretation(Record):
    """At block > 1, ``quotient`` is taken at load, or on first use after ``_derived``."""

    __slots__ = ("shape", "domain", "table", "delta", "quotient")
    _fields = ("shape", "domain", "table", "delta")

    def __init__(self, shape: BlockShape, domain: str, table: Mapping[str, LinearFunc],
                 delta: Fraction | None = None):
        n, b = shape.dim, shape.block
        if domain not in ("natural", "rational"):
            raise InterpError(f"domain must be natural or rational, got {domain!r}")
        if delta is not None and delta <= 0:
            raise InterpError(f"delta must be positive, got {delta}", "delta")
        checked = {}  # the id of each matrix whose entries passed, to its quotient
        for symbol, func in table.items():
            for k, mat in enumerate((*func.mats, func.const), start=1):
                where = (symbol, f"M{k}" if k <= len(func.mats) else "C")
                what, cols = (where[1], n) if where[1] != "C" else ("constant vector", 1)
                if mat.shape != (n, cols):
                    raise InterpError(
                        f"{symbol}: {what} is {mat.rows}x{mat.cols}, need {n}x{cols}", where)
                if id(mat) not in checked:
                    if min(mat.nums) < 0:
                        raise InterpError(f"{symbol}: negative entry", where)
                    # the entries are nonnegative here, so natural means integral
                    if domain == "natural" and mat.den != 1:
                        raise InterpError(f"{symbol}: non-natural entry in natural domain", where)
                    checked[id(mat)] = _quotient(mat, shape, where) if b > 1 else None
        __class__._set_shape(self, shape)
        __class__._set_domain(self, domain)  # "natural" | "rational"
        __class__._set_table(self, MappingProxyType(dict(table)))  # checked, read-only
        __class__._set_delta(self, delta)
        if b > 1:
            __class__._set_quotient(self, _block_quotient(self, checked))

    def __getattr__(self, name):
        # reached only while the ``quotient`` slot is empty, or for a missing name
        if name != "quotient":
            raise AttributeError(f"'Interpretation' object has no attribute {name!r}")
        __class__._set_quotient(self, _block_quotient(self, {}))
        return self.quotient

    @classmethod
    def _derived(cls, shape: BlockShape, domain: str, table: dict[str, LinearFunc],
                 delta: Fraction | None = None) -> Interpretation:
        """The trusted constructor for interpretations that a transform has
        built from valid ones: shapes, signs, domain and block-constant
        vectors hold by construction, so no entry is read again; the table
        is copied read-only all the same."""
        interp = object.__new__(cls)
        cls._set_shape(interp, shape)
        cls._set_domain(interp, domain)
        cls._set_table(interp, MappingProxyType(dict(table)))
        cls._set_delta(interp, delta)
        return interp

    def max_entry(self, matrices_only: bool = False) -> Rat:
        """Largest entry over all coefficient matrices (and constant vectors)."""
        best = 0
        for func in self.table.values():
            mats = func.mats if matrices_only else (*func.mats, func.const)
            for mat in mats:
                best = max(best, mat.max_entry())
        return best


class LinearForm(Record):
    """Interpreted term ``left·[[t]]``: coefficient per variable plus constant.

    The full form (``left = I``) has n x n coefficients and an n x 1 constant;
    the value backend's projected form (``left = 1ᵀ``) has 1 x n coefficients
    (the column sums) and a 1 x 1 constant (the entry sum). Variables with
    zero coefficient are absent from ``coeffs``.
    """

    __slots__ = ("dim", "coeffs", "const")

    def __init__(self, dim: int, coeffs: dict[str, Mat], const: Mat):
        __class__._set_dim(self, dim)
        __class__._set_coeffs(self, coeffs)
        __class__._set_const(self, const)

    def coeff(self, var: str) -> Mat:
        c = self.coeffs.get(var)
        return Mat.zero(self.const.rows, self.dim) if c is None else c


def _columns(mat: Mat) -> tuple:
    """What the value walk reads of an argument matrix, to take ``u·M``:
    ``(den, cols, sparse)`` with one of ``cols`` and ``sparse`` None.

    A matrix of dimension at least 8 with at most a quarter of its entries
    nonzero, like a big bit matrix at block 1, gives ``sparse =
    (pick, weights, spans)``: ``pick`` is one ``itemgetter`` of u's entries
    at the rows of every nonzero, column by column, ``weights`` the
    nonzeros in the same order (None when they are all 1, as in a bit
    matrix) and ``spans`` the slice of each column's picks, so that ``u·M``
    is the sum of each span of the weighted picks, in O(n + nonzeros). Any
    other matrix gives ``cols``, its columns as int tuples over ``den`` for
    ``_mat_vec``; at dims 2-5 these dense dot products cost up to 40% less
    than the sparse step. ``LinearFunc.columns`` keeps the result.
    """
    n, nums = mat.cols, mat.nums
    # 4·nonzeros <= n², with the zeros counted at C speed
    if n < 8 or 4 * nums.count(0) < 3 * n * n:
        return mat.den, tuple(nums[j::n] for j in range(n)), None
    # a tuple, since a range makes a new int for each index above 256
    every = tuple(range(n))
    rows: list[int] = []
    weights: list[int] = []
    spans = []
    for j in range(n):
        col = nums[j::n]
        start = len(rows)
        rows += compress(every, col)
        # the weights are read at the nonzeros' rows only, not over the column
        weights += map(col.__getitem__, rows[start:])
        spans.append(slice(start, len(rows)))
    # two trailing picks that no span covers, so that ``pick`` returns a
    # tuple even for a matrix with fewer than two nonzeros
    pick = operator.itemgetter(*rows, 0, 0)
    weights = None if set(weights) <= {1} else tuple(weights)
    return mat.den, None, (pick, weights, tuple(spans))


def _mat_vec(lines, vec) -> list[int]:
    """The dot product of each line with ``vec``: ``M·v`` for the rows of M,
    ``u·M`` for its columns."""
    return [sum(map(operator.mul, line, vec)) for line in lines]


def _sum(a, da: int, b, db: int) -> tuple[list[int], int]:
    """The entrywise sum of ``a/da`` and ``b/db`` over ``lcm(da, db)``."""
    if da == db:
        return list(map(operator.add, a, b)), da
    d = lcm(da, db)
    sa, sb = d // da, d // db
    return [x * sa + y * sb for x, y in zip(a, b)], d


def eval_term(interp: Interpretation, terms, left: Mat = None):
    """The linear form ``left·[[t]]`` of a term t, or the list of the forms
    of a sequence of terms, such as the sides of one problem. Both walks
    visit each distinct subterm once (see ``_dag``), so a recurring side is
    walked once and each of its positions gets its one form; they run on
    int numerators over one denominator per vector or matrix, read each
    symbol's matrices as its ``LinearFunc`` compiled them, and build a
    ``Mat`` only for the forms they return.

    Without ``left``, the full form ``[[t]]`` that the entrywise backend
    needs is composed bottom-up, ``[[f(t1..tk)]] = C + sum M_i·[[t_i]]``
    (see ``_full_forms``). Nothing is kept between calls: each call reads
    the table as it is then.

    With ``left`` (one row of n), the walk goes top-down, each node after
    all its parents. A node holds a row ``u = left·(the argument matrices
    on the paths from t)`` for each distinct side t that reaches it, the
    sum of its paths' rows, which is exact by linearity. A variable's row
    is its coefficient in t; a symbol adds ``u·C`` to t's constant and
    ``u·M_i`` to the row of its i-th argument. The value backend passes
    ``Mat.ones(1, n)``, so a term costs at most O(|t|·n²), or less for big
    sparse matrices (see ``_columns``). A ``left`` of more than one row
    raises InterpError.
    """
    single = terms.__class__ in (Var, App)
    terms = (terms,) if single else tuple(terms)
    n = interp.shape.dim
    if left is None:
        forms = _full_forms(interp, terms)
        return forms[0] if single else forms
    if left.shape != (1, n):
        raise InterpError(f"left factor must be 1x{n}, got {left.rows}x{left.cols}")
    sides = tuple(dict.fromkeys(terms))
    order = _dag(interp, sides)
    # the rows of each distinct subterm: distinct side index -> row, over a denominator
    rows: dict[Term, dict[int, tuple[list[int], int]]] = {node: {} for node, _ in order}
    for s, t in enumerate(sides):
        rows[t][s] = left.nums, left.den
    coeffs: list[dict[str, Mat]] = [{} for _ in sides]
    consts = [(0, 1)] * len(sides)
    for node, func in reversed(order):
        if func is None:
            for s, (nums, d) in rows.pop(node).items():
                if any(nums):
                    coeffs[s][node.name] = Mat._derived(1, n, nums, d)
            continue
        cnums, cden = func.const.nums, func.const.den
        steps = [(*view, rows[arg]) for view, arg in zip(func.columns, node.args)]
        for s, (u, du) in rows.pop(node).items():
            const, const_den = consts[s]
            c, dc = sum(map(operator.mul, u, cnums)), du * cden
            if dc == const_den:
                consts[s] = const + c, dc
            else:
                d = lcm(dc, const_den)
                consts[s] = const * (d // const_den) + c * (d // dc), d
            for den, cols, sparse, into in steps:
                if sparse is None:
                    v = _mat_vec(cols, u)
                else:
                    pick, weights, spans = sparse
                    picked = pick(u)
                    if weights is not None:
                        picked = list(map(operator.mul, picked, weights))
                    v = list(map(sum, map(picked.__getitem__, spans)))
                dv = du * den
                if dv != 1:
                    g = gcd(dv, *v)
                    if g != 1:
                        v, dv = [x // g for x in v], dv // g
                old = into.get(s)
                into[s] = (v, dv) if old is None else _sum(*old, v, dv)
    forms = {t: LinearForm(n, form, Mat._derived(1, 1, (const,), const_den))
             for t, form, (const, const_den) in zip(sides, coeffs, consts)}
    return forms[terms[0]] if single else [forms[t] for t in terms]


def _dag(interp: Interpretation, terms: tuple) -> list[tuple[Term, LinearFunc | None]]:
    """The distinct subterms of ``terms``, each listed after all its
    arguments, with the function of each application (None for a
    variable). An application is checked when first reached, so the first
    uninterpreted or misused symbol in pre-order over the terms, in order,
    is reported."""
    order, seen, table = [], set(), interp.table
    stack = list(reversed(terms))
    while stack:
        node = stack.pop()
        if node.__class__ is tuple:
            order.append(node)
        elif node not in seen:
            seen.add(node)
            if node.__class__ is Var:
                order.append((node, None))
                continue
            # a read-only table's ``get`` costs three times its ``[]``
            try:
                func = table[node.symbol]
            except KeyError:
                raise InterpError(f"uninterpreted symbol {node.symbol!r}") from None
            if len(func.mats) != len(node.args):
                raise InterpError(
                    f"symbol {node.symbol!r} has arity {len(func.mats)} in the interpretation, "
                    f"used with {len(node.args)} argument(s)")
            # popped, and listed, once all its arguments are
            stack.append((node, func))
            stack.extend(reversed(node.args))
    return order


def _full_forms(interp: Interpretation, terms: tuple) -> list[LinearForm]:
    """``[[t]]`` of each term, bottom-up over the distinct subterms, into a
    map of this call only: a node sums, for each variable, ``M_i·coeff``
    over all its arguments in one int list, and takes one matrix-vector
    product for each argument's constant (``M_i`` sliced into rows there),
    so a ground subterm costs no more than its value vector."""
    n = interp.shape.dim
    forms: dict[Term, LinearForm] = {}
    for node, func in _dag(interp, terms):
        if func is None:
            continue
        const, const_den = func.const.nums, func.const.den
        coeffs: dict[str, tuple[list[int], int]] = {}
        for mat, arg in zip(func.mats, node.args):
            if arg.__class__ is Var:
                # M·I = M
                parts = ((arg.name, mat.nums, mat.den),)
            else:
                form = forms[arg]
                rows = [mat.nums[i:i + n] for i in range(0, n * n, n)]
                const, const_den = _sum(const, const_den, _mat_vec(rows, form.const.nums),
                                        mat.den * form.const.den)
                parts = []
                for v, c in form.coeffs.items():
                    cols = [c.nums[j::n] for j in range(n)]
                    parts.append((v, [sum(map(operator.mul, row, col))
                                      for row in rows for col in cols],
                                  mat.den * c.den))
            for v, nums, den in parts:
                old = coeffs.get(v)
                coeffs[v] = (nums, den) if old is None else _sum(*old, nums, den)
        # a zero coefficient contributes nothing further up, so it is dropped here
        forms[node] = LinearForm(n, {v: Mat._derived(n, n, nums, d)
                                     for v, (nums, d) in coeffs.items() if any(nums)},
                                 Mat._derived(n, 1, const, const_den))
    return [LinearForm(n, {t.name: Mat.identity(n)}, Mat.zero(n, 1)) if t.__class__ is Var
            else forms[t] for t in terms]


class Verdict(Record):
    __slots__ = ("holds", "detail")

    def __init__(self, holds: bool, detail: str = ""):
        __class__._set_holds(self, holds)
        __class__._set_detail(self, detail)


def _vec(mat: Mat, repeat: int = 1) -> str:
    """The vector's entries, each ``repeat`` times, as ``(a,b,...)``."""
    strs = entry_strs(mat)
    if repeat > 1:
        strs = [x for x in strs for _ in range(repeat)]
    return "(" + ",".join(strs) + ")"


def decide(lhs: LinearForm, rhs: LinearForm, rel: str, backend: str = "value", block: int = 1,
           m: int = None, delta: Fraction = None,
           quotient: bool = False) -> tuple[Verdict, dict[str, tuple] | None]:
    """The verdict of lhs REL rhs over the block-constant tuples of
    ``block``, its detail and, for FAILS, a witness.

    With ``quotient``, the forms are a block-``block`` interpretation's
    quotient forms (value: projected by ``block·1ᵀ``); gap row i stands for
    the full rows from i·block, so the report reads at the full dimension.

    Both forms' int numerators, scaled to their common denominator ``den``,
    are read once into gap rows lhs − rhs: one of column sums (of full or
    projected forms alike) and constant entry sums for the value backend,
    one per row of the forms for the entrywise one. A row's coefficient of
    a variable's block value sums the row over the block's columns; its
    constant g is the constant gap less the row's floor: 0 on a weak row, 1
    on the first row of a strict entrywise comparison, ``ceil(delta·m·den)``
    on a strict value one (m defaults to the full dimension). A gap row is
    affine in the block values, so FAILS exactly when some g or coefficient
    is negative. The detail names the first failing comparison: variables
    in order, then the constant, then the margin or first component. The
    witness is the first such row's corner: the zero tuple when g < 0, else
    ``top = g // |sum of its negative coefficients| + 1``, the least value
    at which the row is negative, on each block whose coefficient is
    negative and 0 elsewhere. No Fraction is made.
    """
    if backend not in ("entrywise", "value"):
        raise InterpError(f"unknown backend {backend!r}")
    n, rows = lhs.dim, lhs.const.rows
    if rhs.dim != n:
        raise InterpError(f"dimension mismatch: {n} vs {rhs.dim}")
    if rhs.const.rows != rows:
        raise InterpError(f"forms have {rows} and {rhs.const.rows} rows")
    value = backend == "value"
    # the full forms' rows that each row of these forms stands for
    step = block if quotient else 1
    beta = n if quotient else n // block
    if value:
        if rows != 1 and (quotient or rows != n):
            raise InterpError(f"value comparison needs full or projected forms, got {rows} rows")
        m = n * step if m is None else m
        if m < 1:
            raise MatrixError(f"valuation divisor must be positive, got {m}")
        if rel == "strict" and (delta is None or delta <= 0):
            raise InterpError("strict value comparison needs delta > 0")
    den = lcm(*(mat.den for form in (lhs, rhs) for mat in (*form.coeffs.values(), form.const)))
    lines = 1 if value else rows

    def sums(mat):
        """mat's block sums row by row, of its column sums for the value
        backend, over ``den``; zeros if absent."""
        if mat is None:
            return [0] * (lines * beta)
        nums = mat.nums
        if value and mat.rows > 1:
            nums = [sum(nums[j::n]) for j in range(n)]
        if beta < n:
            nums = [sum(nums[k:k + block]) for k in range(0, len(nums), block)]
        scale = den // mat.den
        return nums if scale == 1 else [x * scale for x in nums]

    variables = sorted(set(lhs.coeffs) | set(rhs.coeffs))
    gaps, parts, detail = [], [], None
    for v in variables:
        ls, rs = sums(lhs.coeffs.get(v)), sums(rhs.coeffs.get(v))
        gap = list(map(operator.sub, ls, rs))
        gaps.append(gap)
        if detail is None and min(gap) < 0:
            if not value and block == 1:
                detail = f"coeff({v}): {lhs.coeff(v)} !>= {rhs.coeff(v)}"
            else:
                k = next(k for k, g in enumerate(gap) if g < 0)
                row = "" if value else f"row {k // beta * step + 1} "
                column = "column" if block == 1 else "block column"
                detail = (f"coeff({v}): {row}{column} {k % beta + 1} sum "
                          f"{_rat_str(ls[k], den)} < {_rat_str(rs[k], den)}")
        if value:
            parts.append(f"rho coeff({v}) {_rat_str(sum(ls), den * m)} "
                         f"vs {_rat_str(sum(rs), den * m)}")
    lc, rc = lhs.const, rhs.const
    kl, kr = den // lc.den, den // rc.den
    if value:
        lsum, rsum = sum(lc.nums) * kl, sum(rc.nums) * kr
        consts = [lsum - rsum]
        lrho, rrho = _rat_str(lsum, den * m), _rat_str(rsum, den * m)
        parts.append(f"rho const {lrho} vs {rrho}")
        if detail is None and consts[0] < 0:
            detail = f"const: rho {lrho} < {rrho}"
        if rel == "strict":
            margin = _rat_str(consts[0], den * m)
            consts[0] += -delta.numerator * m * den // delta.denominator
            if detail is None and consts[0] < 0:
                detail = f"const: margin {margin} < delta {delta}; " + "; ".join(parts)
            parts.append(f"margin {margin} >= delta {delta}")
        holding = "; ".join(parts)
    else:
        consts = [x * kl - y * kr for x, y in zip(lc.nums, rc.nums)]
        if detail is None and min(consts) < 0:
            detail = f"const: {_vec(lc, step)} !>= {_vec(rc, step)}"
        if rel == "strict":
            consts[0] -= 1
            if detail is None and consts[0] < 0:
                detail = (f"const: first component {_rat_str(lc.nums[0], lc.den)} not > "
                          f"{_rat_str(rc.nums[0], rc.den)}")
        holding = f"const {_vec(lc, step)} {'>' if rel == 'strict' else '>='} {_vec(rc, step)}"
    if detail is None:
        return Verdict(True, holding), None
    for i, g in enumerate(consts):
        row = [gap[i * beta:(i + 1) * beta] for gap in gaps]
        down = -sum(c for part in row for c in part if c < 0)
        if g < 0 or down:
            top = 0 if g < 0 else g // down + 1
            return Verdict(False, detail), {
                v: tuple(top if c < 0 else 0 for c in part for _ in range(block))
                for v, part in zip(variables, row)}


def check_value(lhs: LinearForm, rhs: LinearForm, rel: str, m: int,
                delta: Fraction = None) -> Verdict:
    """The rho ordering (divisor m, strict by delta) at block 1: ``decide``'s verdict."""
    return decide(lhs, rhs, rel, "value", 1, m, delta)[0]


def check_entrywise(lhs: LinearForm, rhs: LinearForm, rel: str) -> Verdict:
    """The entrywise order at block 1: ``decide``'s verdict."""
    return decide(lhs, rhs, rel, "entrywise")[0]


def sample_falsify(lhs: LinearForm, rhs: LinearForm, rel: str, shape: BlockShape,
                   backend: str = "value", m: int = None,
                   delta: Fraction = None) -> dict[str, tuple] | None:
    """``decide``'s witness at the shape's block: a block-constant tuple of
    naturals that violates lhs REL rhs, or None if none does. The value
    backend takes full or projected forms, with the same witness; the
    entrywise backend needs the full forms."""
    n = shape.dim
    if lhs.dim != n or rhs.dim != n:
        raise InterpError("forms do not match the sampling shape")
    if backend == "entrywise" and lhs.const.rows != n:
        raise InterpError(f"entrywise sampling needs full forms ({n} rows), "
                          f"got {lhs.const.rows}")
    return decide(lhs, rhs, rel, backend, shape.block, m, delta)[1]


class ConstraintCheck(Record):
    __slots__ = ("label", "rule", "rel", "verdict", "witness")

    def __init__(self, label: str, rule: Rule, rel: str, verdict: Verdict,
                 witness: dict[str, tuple] | None = None):
        __class__._set_label(self, label)
        __class__._set_rule(self, rule)
        __class__._set_rel(self, rel)
        __class__._set_verdict(self, verdict)
        # the block-constant tuple per variable that violates a FAILS verdict; None for HOLDS
        __class__._set_witness(self, witness)


class CheckReport(Record):
    __slots__ = ("backend", "m", "delta", "checks")

    def __init__(self, backend: str, m: int | None, delta: Fraction | None,
                 checks: tuple[ConstraintCheck, ...]):
        __class__._set_backend(self, backend)
        __class__._set_m(self, m)
        __class__._set_delta(self, delta)
        __class__._set_checks(self, checks)

    @property
    def holds(self) -> bool:
        return all(c.verdict.holds for c in self.checks)


def check_problem(trs: Trs, pairs, interp: Interpretation, backend: str = "value",
                  m: int = None, delta: Fraction = None) -> CheckReport:
    """Weak check for every rule, strict check for every pair; all must hold.

    Value-backend defaults: m is the dimension; delta is the file's delta,
    else 1/m. ``decide`` decides each distinct constraint (lhs, rhs and
    relation) once, on the quotient's forms at block > 1, for all of its labels.
    """
    if backend not in ("entrywise", "value"):
        raise InterpError(f"unknown backend {backend!r}")
    shape = interp.shape
    m = shape.dim if m is None else m
    if delta is None:
        delta = interp.delta if interp.delta is not None else Fraction(1, m)
    delta = Fraction(delta)
    walked = interp if shape.block == 1 else interp.quotient
    # the value backend reads only b·1ᵀ·[[t]], the full forms' block-column
    # sums; entrywise needs whole forms. Either way all sides are evaluated
    # at once, sharing their subterms
    left = Mat.constant(shape.block, 1, shape.beta) if backend == "value" else None
    problem = [("rule", trs.rules, "weak"), ("pair", tuple(pairs), "strict")]
    forms = iter(eval_term(walked, [t for _, rules, _ in problem for rule in rules
                                    for t in (rule.lhs, rule.rhs)], left))
    checks: list[ConstraintCheck] = []
    decided = {}  # (lhs, rhs, rel) -> (verdict, witness)
    for label, rules, rel in problem:
        for idx, rule in enumerate(rules, start=1):
            lhs, rhs = next(forms), next(forms)
            key = rule.lhs, rule.rhs, rel
            if key not in decided:
                decided[key] = decide(lhs, rhs, rel, backend, shape.block, m, delta, True)
            checks.append(ConstraintCheck(f"{label} {idx}", rule, rel, *decided[key]))
    if backend == "entrywise":
        m = delta = None
    return CheckReport(backend, m, delta, tuple(checks))


# --- block structure: value collapse ---

def value_collapse(a: Mat, b: int) -> Mat:
    """Collapse const+scalar b-blocks to their rho_b values (beta x beta matrix).

    A block c·J + s·I reads as int slices of ``a.nums``: every row is c
    off the diagonal and c + s on it, and its value is b·c + s."""
    if a.rows % b or a.cols % b:
        raise MatrixError(f"{a.rows}x{a.cols} matrix has no {b}x{b} block grid")
    nums, width = a.nums, a.cols
    out = []
    for i in range(a.rows // b):
        for j in range(a.cols // b):
            start = i * b * width + j * b
            rows = [nums[r:r + b] for r in range(start, start + b * width, width)]
            # off the diagonal, except for b = 1, where (b - 1)·c drops out
            c, d = rows[-1][0], rows[0][0]
            if any(row != (c,) * r + (d,) + (c,) * (b - 1 - r) for r, row in enumerate(rows)):
                raise MatrixError(f"block ({i + 1},{j + 1}) is not constant-plus-scalar")
            out.append((b - 1) * c + d)
    return Mat._derived(a.rows // b, a.cols // b, out, a.den)


def collapse_vector(v: Mat, b: int) -> Mat:
    """Collapse block-constant b-segments of a column vector to their values."""
    if v.cols != 1 or v.rows % b:
        raise MatrixError(f"{v.rows}x{v.cols} is not a b-blocked column vector")
    nums = v.nums
    for j in range(0, v.rows, b):
        segment = nums[j:j + b]
        if segment.count(segment[0]) != b:
            raise MatrixError(f"vector segment {j // b + 1} is not constant")
    return Mat._derived(v.rows // b, 1, nums[::b], v.den)


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

_LINES = line_kinds((
    ("domain", "domain natural|rational", r"domain\s+(natural|rational)"),
    ("dim", "dim <n>", r"dim\s+([0-9]+)"),
    ("block", "block <b>", r"block\s+([0-9]+)"),
    ("delta", "delta <p>/<q>", r"delta\s+(.*)"),
    ("interp", "interp <symbol> : <arity>", r"interp\s+([^\s:]+)\s*:\s*([0-9]+)"),
    ("M", "M<k> = <literal>", r"M([0-9]+)\s*=\s*(.*)"),
    ("C", "C = <literal>", r"C\s*=\s*(.*)"),
))
_HEADERS = {"domain": str, "dim": int, "block": int,
            "delta": lambda text: Fraction(parse_rat(text))}


def parse_interpretation(text: str) -> Interpretation:
    """Parse the line-oriented interpretation format (see the file docs). The
    constructor checks it after the last line; a fault names its own line."""
    headers, lines = {}, {}  # each header's value; each header's and matrix's line
    table: dict[str, LinearFunc] = {}
    current: tuple[str, int, int] | None = None  # symbol, arity, line
    mats, const = [], None  # the current symbol's M<k> and C
    # each distinct literal text is parsed once, into one shared Mat
    literal = cache(parse_matrix)

    def close_symbol():
        if current is not None:
            symbol, arity, lineno = current
            if len(mats) != arity or const is None:
                raise LineError(lineno, f"symbol {symbol!r} needs M1..M{arity} and C")
            table[symbol] = LinearFunc(tuple(mats), const)

    def handle(lineno, keyword, *groups):
        nonlocal current, mats, const
        if keyword == "M":
            k, text = groups
            arity = current[1] if current else 0
            if int(k) != len(mats) + 1 or int(k) > arity:
                raise ValueError(f"unexpected M{k} (arity {arity})")
            mats.append(literal(text))
            lines[current[0], f"M{len(mats)}"] = lineno
        elif keyword == "C":
            if current is None or const is not None:
                raise ValueError("unexpected C line")
            const = literal(groups[0])
            lines[current[0], "C"] = lineno
        elif keyword == "interp":
            close_symbol()
            symbol, arity = groups
            if symbol in table:
                raise ValueError(f"symbol {symbol!r} interpreted twice")
            current, mats, const = (symbol, int(arity), lineno), [], None
        elif keyword in headers:
            raise ValueError(f"repeated header {keyword!r}")
        else:
            headers[keyword] = _HEADERS[keyword](groups[0])
            lines[keyword] = lineno

    def end():
        close_symbol()
        if "domain" in headers and "dim" in headers:
            try:
                return Interpretation(BlockShape(headers["dim"], headers.get("block", 1)),
                                      headers["domain"], table, headers.get("delta"))
            except InterpError as exc:
                raise LineError(lines[exc.where], str(exc)) from None

    interp = read_lines(text, _LINES, handle, InterpError, end)
    if interp is None:
        raise InterpError("missing 'domain' or 'dim' header")
    return interp


def format_interpretation(interp: Interpretation) -> str:
    # one join over short pieces and the literals themselves, so a big
    # literal is copied once, into the text, and not first into its line
    pieces = [f"domain {interp.domain}\n", f"dim {interp.shape.dim}\n",
              f"block {interp.shape.block}\n"]
    if interp.delta is not None:
        pieces.append(f"delta {interp.delta}\n")
    rendered: dict = {}  # each distinct matrix object is rendered once
    for symbol, func in interp.table.items():
        pieces.append(f"interp {symbol} : {len(func.mats)}\n")
        *mats, const = _map_once(format_matrix, (*func.mats, func.const), rendered)
        for k, mat in enumerate(mats, start=1):
            pieces += (f"  M{k} = ", mat, "\n")
        pieces += ("  C = ", const, "\n")
    return "".join(pieces)

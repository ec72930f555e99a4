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

A falsifier cross-checks the symbolic verdicts over all block-constant
tuples: the first gap row that is negative somewhere gives a witness.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from itertools import compress, repeat
from math import ceil, gcd, lcm
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


class Interpretation(Record):
    __slots__ = ("shape", "domain", "table", "delta")

    def __init__(self, shape: BlockShape, domain: str, table: Mapping[str, LinearFunc],
                 delta: Fraction | None = None):
        n, b = shape.dim, shape.block
        if domain not in ("natural", "rational"):
            raise InterpError(f"domain must be natural or rational, got {domain!r}")
        if delta is not None and delta <= 0:
            raise InterpError(f"delta must be positive, got {delta}", "delta")
        checked = set()  # ids of the matrices whose entries passed
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
                    checked.add(id(mat))
            for j in range(shape.beta):
                segment = func.const.nums[j * b:(j + 1) * b]
                if segment.count(segment[0]) != b:
                    raise InterpError(f"{symbol}: constant vector is not block-constant "
                                      f"(block {j + 1} of size {b})", (symbol, "C"))
        __class__._set_shape(self, shape)
        __class__._set_domain(self, domain)  # "natural" | "rational"
        __class__._set_table(self, MappingProxyType(dict(table)))  # checked, read-only
        __class__._set_delta(self, delta)

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
    nonzero, like the lifts of ``to-blocks``/``to-bits``, gives ``sparse =
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


def _vec(mat: Mat) -> str:
    return "(" + ",".join(entry_strs(mat)) + ")"


def _below(xs, xd: int, ys, yd: int) -> bool:
    """Whether some entry of ``xs/xd`` is below that of ``ys/yd``."""
    if xd != yd:
        xs, ys = map(operator.mul, xs, repeat(yd)), map(operator.mul, ys, repeat(xd))
    return any(map(operator.lt, xs, ys))


def check_entrywise(lhs: LinearForm, rhs: LinearForm, rel: str) -> Verdict:
    """Entrywise order on forms: all coefficients >= and constant >= ;
    strict additionally needs the first constant component strictly greater.
    Entries are compared on the int numerators by cross-multiplying with the
    denominators; a variable absent on one side counts as a zero
    coefficient, with no zero ``Mat`` built unless a failing detail prints
    it. The detail is rendered from the ints, so no Fraction is made."""
    if lhs.dim != rhs.dim:
        raise InterpError(f"dimension mismatch: {lhs.dim} vs {rhs.dim}")
    lc, rc = lhs.const, rhs.const
    if lc.shape != rc.shape:
        raise MatrixError(f"shape mismatch in comparison: {lc.shape} vs {rc.shape}")
    for var in sorted(set(lhs.coeffs) | set(rhs.coeffs)):
        a, b = lhs.coeffs.get(var), rhs.coeffs.get(var)
        if a is None:
            below = max(b.nums) > 0
        elif b is None:
            below = min(a.nums) < 0
        else:
            below = _below(a.nums, a.den, b.nums, b.den)
        if below:
            return Verdict(False, f"coeff({var}): {lhs.coeff(var)} !>= {rhs.coeff(var)}")
    if _below(lc.nums, lc.den, rc.nums, rc.den):
        return Verdict(False, f"const: {_vec(lc)} !>= {_vec(rc)}")
    if rel == "strict":
        if lc.nums[0] * rc.den <= rc.nums[0] * lc.den:
            return Verdict(False,
                           f"const: first component {_rat_str(lc.nums[0], lc.den)} not > "
                           f"{_rat_str(rc.nums[0], rc.den)}")
        return Verdict(True, f"const {_vec(lc)} > {_vec(rc)}")
    return Verdict(True, f"const {_vec(lc)} >= {_vec(rc)}")


def _column_sums(mat: Mat | None, n: int) -> tuple[list[int], int]:
    """The column sums of a coefficient (zero if absent) as nums over den."""
    if mat is None:
        return [0] * n, 1
    nums = mat.nums
    return (nums if mat.rows == 1 else [sum(nums[j::n]) for j in range(n)]), mat.den


def check_value(lhs: LinearForm, rhs: LinearForm, rel: str, m: int,
                delta: Fraction = None) -> Verdict:
    """rho ordering on forms, universally over nonnegative tuples.

    Weak holds iff every coefficient's column sums dominate the right-hand
    side's and the constant entry sums compare; strict needs the constant
    rho gap to reach delta. Only the coefficients' column sums and the
    constant's entry sum are read, so the projected forms ``1ᵀ·[[t]]`` give
    the same verdict and detail as the full forms. Sums are compared on the
    int numerators by cross-multiplying with the denominators, and the
    detail's rationals are rendered from them; no Fraction is made.
    """
    if lhs.dim != rhs.dim:
        raise InterpError(f"dimension mismatch: {lhs.dim} vs {rhs.dim}")
    if rel == "strict":
        if delta is None or delta <= 0:
            raise InterpError("strict value comparison needs delta > 0")
    if m < 1:
        raise MatrixError(f"valuation divisor must be positive, got {m}")
    n = lhs.dim
    parts = []
    for var in sorted(set(lhs.coeffs) | set(rhs.coeffs)):
        (lsums, ld), (rsums, rd) = (_column_sums(lhs.coeffs.get(var), n),
                                    _column_sums(rhs.coeffs.get(var), n))
        for j, (ls, rs) in enumerate(zip(lsums, rsums)):
            if ls * rd < rs * ld:
                return Verdict(False, f"coeff({var}): column {j + 1} sum "
                                      f"{_rat_str(ls, ld)} < {_rat_str(rs, rd)}")
        parts.append(f"rho coeff({var}) {_rat_str(sum(lsums), ld * m)} "
                     f"vs {_rat_str(sum(rsums), rd * m)}")
    (lsum, ld), (rsum, rd) = ((sum(lhs.const.nums), lhs.const.den),
                              (sum(rhs.const.nums), rhs.const.den))
    lrho, rrho = _rat_str(lsum, ld * m), _rat_str(rsum, rd * m)
    parts.append(f"rho const {lrho} vs {rrho}")
    # the margin (lsum/ld - rsum/rd)/m is gap/scale
    gap, scale = lsum * rd - rsum * ld, ld * rd * m
    if gap < 0:
        return Verdict(False, f"const: rho {lrho} < {rrho}")
    if rel == "strict":
        margin = _rat_str(gap, scale)
        if gap * delta.denominator < delta.numerator * scale:
            return Verdict(False,
                           f"const: margin {margin} < delta {delta}; " + "; ".join(parts))
        parts.append(f"margin {margin} >= delta {delta}")
    return Verdict(True, "; ".join(parts))


class ConstraintCheck(Record):
    __slots__ = ("label", "rule", "rel", "verdict", "witness")

    def __init__(self, label: str, rule: Rule, rel: str, verdict: Verdict,
                 witness: dict[str, tuple] | None = None):
        __class__._set_label(self, label)
        __class__._set_rule(self, rule)
        __class__._set_rel(self, rel)
        __class__._set_verdict(self, verdict)
        __class__._set_witness(self, witness)  # a tuple that refutes HOLDS, if found


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

    @property
    def consistent(self) -> bool:
        """No witness contradicts a symbolic verdict."""
        return all(c.witness is None for c in self.checks)


def check_problem(trs: Trs, pairs, interp: Interpretation, backend: str = "value",
                  m: int = None, delta: Fraction = None, falsify: bool = False) -> CheckReport:
    """Weak check for every rule, strict check for every pair; all must hold.

    Value-backend defaults: m is the dimension; delta is the file's delta,
    else 1/m. With ``falsify``, ``sample_falsify`` cross-checks every HOLDS
    verdict on the forms the check just computed. Each distinct constraint
    (lhs, rhs and relation) is decided once, for all of its labels.
    """
    if backend not in ("entrywise", "value"):
        raise InterpError(f"unknown backend {backend!r}")
    m = interp.shape.dim if m is None else m
    if delta is None:
        delta = interp.delta if interp.delta is not None else Fraction(1, m)
    delta = Fraction(delta)
    # the value backend reads only 1ᵀ·[[t]]; entrywise needs the full forms.
    # Either way all sides are evaluated at once, sharing their subterms
    left = Mat.ones(1, interp.shape.dim) if backend == "value" else None
    problem = [("rule", trs.rules, "weak"), ("pair", tuple(pairs), "strict")]
    forms = iter(eval_term(interp, [t for _, rules, _ in problem for rule in rules
                                    for t in (rule.lhs, rule.rhs)], left))
    checks: list[ConstraintCheck] = []
    decided = {}  # (lhs, rhs, rel) -> (verdict, witness)
    for label, rules, rel in problem:
        for idx, rule in enumerate(rules, start=1):
            lhs, rhs = next(forms), next(forms)
            key = rule.lhs, rule.rhs, rel
            if key not in decided:
                if backend == "entrywise":
                    verdict = check_entrywise(lhs, rhs, rel)
                else:
                    verdict = check_value(lhs, rhs, rel, m, delta)
                witness = None
                if falsify and verdict.holds:
                    witness = sample_falsify(lhs, rhs, rel, interp.shape, backend,
                                             m=m, delta=delta)
                decided[key] = verdict, witness
            checks.append(ConstraintCheck(f"{label} {idx}", rule, rel, *decided[key]))
    if backend == "entrywise":
        m = delta = None
    return CheckReport(backend, m, delta, tuple(checks))


# --- falsifier ---

def sample_falsify(lhs: LinearForm, rhs: LinearForm, rel: str, shape: BlockShape,
                   backend: str = "value", m: int = None,
                   delta: Fraction = None) -> dict[str, tuple] | None:
    """A block-constant tuple of naturals that violates lhs REL rhs, or
    None if no block-constant tuple does.

    The value backend compares only entry sums, so it takes the full forms
    or the projected forms ``1ᵀ·[[t]]`` (one row) alike, with the same
    witness; the entrywise backend needs the full forms (n rows).

    Each compared row is one gap row, built in one pass over both forms'
    int numerators over their common denominator: lhs − rhs, scaled to ints,
    minus the row's floor, as an int constant g and an int coefficient per
    variable and block (the value backend sums a full form's rows into one).
    A gap row is affine in the block values, so it is negative somewhere
    exactly when g or a coefficient is negative. The first such row gives
    the witness: the zero tuple when g < 0, else ``top = g // |sum of its
    negative coefficients| + 1``, the least value at which the row is
    negative, on each block whose coefficient is negative and 0 elsewhere.
    """
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
    den = lcm(*(mat.den for form in (lhs, rhs)
                for mat in (*form.coeffs.values(), form.const)))
    variables = sorted(set(lhs.coeffs) | set(rhs.coeffs))

    def scaled(mat):
        """``den // mat.den`` and mat's block sums row by row (a tuple is
        block-constant; stride b from offset s < b meets entry s of every
        block), of its column sums for the value backend; (0, zeros) if absent."""
        if mat is None:
            return 0, repeat(0)
        nums = _column_sums(mat, n)[0] if backend == "value" else mat.nums
        return den // mat.den, (nums if b == 1 else map(sum, zip(*[nums[s::b] for s in range(b)])))

    # the coefficient of each block value in each row (variable by variable, block by block)
    coeff_rows = [[] for _ in range(1 if backend == "value" else rows)]
    for v in variables:
        (kl, ls), (kr, rs) = scaled(lhs.coeffs.get(v)), scaled(rhs.coeffs.get(v))
        gap = [kl * x - kr * y for x, y in zip(ls, rs)]
        for i, row in enumerate(coeff_rows):
            row += gap[i * beta:(i + 1) * beta]
    # the constant of each row, less its floor
    lc, rc = lhs.const, rhs.const
    pairs = [(sum(lc.nums), sum(rc.nums))] if backend == "value" else zip(lc.nums, rc.nums)
    consts = [den // lc.den * x - den // rc.den * y for x, y in pairs]
    if rel == "strict":
        # entrywise: the first component must exceed; value: the rho gap
        # (l - r)/(m·den) must reach delta
        consts[0] -= 1 if backend == "entrywise" else ceil(delta * m * den)
    for coeffs, g in zip(coeff_rows, consts):
        down = -sum(c for c in coeffs if c < 0)
        if g < 0 or down:
            top = 0 if g < 0 else g // down + 1
            corner = [top if c < 0 else 0 for c in coeffs]
            return {v: tuple(x for x in corner[k * beta:(k + 1) * beta] for _ in range(b))
                    for k, v in enumerate(variables)}
    return None


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

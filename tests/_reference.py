"""Reference term evaluation, comparisons and comment stripping on ``Mat``,
``Fraction`` and plain Python loops.

These are the evaluator, ``check_value`` and ``check_entrywise`` as they
were before they moved to int rows: every product is a ``Mat.__mul__``,
every sum a ``Mat.__add__``, every rho a ``Fraction``, and an absent
coefficient a zero ``Mat``. The kernel in ``matint.interp`` must agree with
them on forms (by ``==``) and on verdicts (``holds`` and the detail text).
``strip_comment`` is the character loop that ``matint.matrix`` replaced by
one regular expression.
"""

from __future__ import annotations

from fractions import Fraction

from matint import Cmp, InterpError, LinearForm, Mat, Var, Verdict, cmp_entrywise, rho
from matint.matrix import as_rat


def _func(interp, node):
    func = interp.table.get(node.symbol)
    if func is None:
        raise InterpError(f"uninterpreted symbol {node.symbol!r}")
    if len(func.mats) != len(node.args):
        raise InterpError(
            f"symbol {node.symbol!r} has arity {len(func.mats)} in the interpretation, "
            f"used with {len(node.args)} argument(s)")
    return func


def eval_term(interp, t, left=None, memo=None):
    """``left·[[t]]``: bottom-up full forms without ``left``, else one
    top-down walk handing each node ``u = left·(matrices on its path)``;
    ``left`` may have any number of rows."""
    n = interp.shape.dim
    if left is None:
        return _full_form(interp, t, {} if memo is None else memo)
    coeffs = {}
    const = Mat.zero(left.rows, 1)
    stack = [(t, left)]
    while stack:
        node, u = stack.pop()
        if isinstance(node, Var):
            coeffs[node.name] = coeffs[node.name] + u if node.name in coeffs else u
            continue
        func = _func(interp, node)
        for mat, arg in reversed(tuple(zip(func.mats, node.args))):
            stack.append((arg, u * mat))
        const = const + u * func.const
    coeffs = {v: m for v, m in coeffs.items() if not m.is_zero()}
    return LinearForm(n, coeffs, const)


def _full_form(interp, t, memo):
    n = interp.shape.dim
    if isinstance(t, Var):
        return LinearForm(n, {t.name: Mat.identity(n)}, Mat.zero(n, 1))
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
        coeffs = {}
        const = func.const
        for mat, arg in zip(func.mats, node.args):
            if isinstance(arg, Var):
                parts = ((arg.name, mat),)
            else:
                form = memo[arg]
                const = const + mat * form.const
                parts = ((v, mat * c) for v, c in form.coeffs.items())
            for v, c in parts:
                coeffs[v] = coeffs[v] + c if v in coeffs else c
        memo[node] = LinearForm(n, {v: c for v, c in coeffs.items() if not c.is_zero()},
                                const)
    return memo[t]


def check_value(lhs, rhs, rel, m, delta=None):
    """rho ordering on forms, with every sum, rho and margin a Fraction."""
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


def _vec(mat):
    return "(" + ",".join(str(e) for e in mat.entries) + ")"


def _literal(mat):
    rows = (mat.entries[i * mat.cols:(i + 1) * mat.cols] for i in range(mat.rows))
    return "[" + " ; ".join(" ".join(str(e) for e in row) for row in rows) + "]"


def check_entrywise(lhs, rhs, rel):
    """Entrywise order on forms through ``cmp_entrywise``, with every entry
    printed from ``Mat.entries``."""
    if lhs.dim != rhs.dim:
        raise InterpError(f"dimension mismatch: {lhs.dim} vs {rhs.dim}")
    for var in sorted(set(lhs.coeffs) | set(rhs.coeffs)):
        if cmp_entrywise(lhs.coeff(var), rhs.coeff(var)) is Cmp.INCOMPARABLE:
            return Verdict(False, f"coeff({var}): {_literal(lhs.coeff(var))} !>= "
                                  f"{_literal(rhs.coeff(var))}")
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


def strip_comment(line):
    """Drop a '#' comment that starts the line or follows whitespace."""
    if line.startswith("#"):
        return ""
    for i in range(1, len(line)):
        if line[i] == "#" and line[i - 1].isspace():
            return line[:i]
    return line

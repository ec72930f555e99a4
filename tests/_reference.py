"""Reference term evaluation, comparisons, lifts, collapses and comment
stripping on ``Mat``, ``Fraction`` and plain Python loops.

These are the evaluator, ``check_value`` and ``check_entrywise`` as they
were before they moved to int rows: every product is a ``Mat.__mul__``,
every sum a ``Mat.__add__``, every rho a ``Fraction``, and an absent
coefficient a zero ``Mat``. The kernel in ``matint.interp`` must agree with
them on forms (by ``==``) and on verdicts (``holds`` and the detail text).
The lifts, the expansion and the collapses are the ones that built one
``Mat`` per entry and glued them with ``Mat.from_blocks`` (or took them
apart with ``Mat.block``); ``interp_to_bits`` lifts one step at a time.
``matint.represent.substitute`` must build the same matrices.
``strip_comment`` is the character loop that ``matint.matrix`` replaced by
one regular expression. The flat-word section is ``matint.constraints``
and ``encoding.required_products`` as they were before words became nodes:
a word is a tuple of parameter names, written out in full, and every word
is valued, counted and written on its own. ``from_rows``,
``column_sums`` and ``sum_entries`` are the ``Mat`` helpers that only these
references used. The four file parsers at the end are the ones that each
ran their own line loop, before ``matint.matrix.read_lines``: on a valid
file, the parsers in ``matint`` must return what these return.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from fractions import Fraction
from math import prod

from matint import (BlockShape, ConstraintError, Encoding, EncodingError, Interpretation,
                    InterpError, LinearForm, LinearFunc, Mat, MatrixError, ParamInterpretation,
                    TransformTrace, Var, Verdict, rho, subterms, validate)
from matint.matrix import as_rat, parse_matrix, parse_rat
from _helpers import valuation


def from_rows(rows):
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        raise MatrixError("matrix needs at least one row and one column")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise MatrixError("ragged rows in matrix literal")
    return Mat(len(rows), width, tuple(e for r in rows for e in r))


def column_sums(a):
    return tuple(as_rat(sum(a.entries[j::a.cols])) for j in range(a.cols))


def sum_entries(a):
    return as_rat(sum(a.entries))


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
    coeffs = {v: m for v, m in coeffs.items() if any(m.nums)}
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
        memo[node] = LinearForm(n, {v: c for v, c in coeffs.items() if any(c.nums)},
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
        lsums, rsums = column_sums(lhs.coeff(var)), column_sums(rhs.coeff(var))
        for j, (ls, rs) in enumerate(zip(lsums, rsums)):
            if ls < rs:
                return Verdict(False,
                               f"coeff({var}): column {j + 1} sum {ls} < {rs}")
        parts.append(f"rho coeff({var}) {rho(m, lhs.coeff(var))} vs {rho(m, rhs.coeff(var))}")
    lsum, rsum = sum_entries(lhs.const), sum_entries(rhs.const)
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


class Cmp(Enum):
    """Entrywise comparison outcome of A against B."""
    GT = "GT"
    GE = "GE"
    INCOMPARABLE = "INCOMPARABLE"


def cmp_entrywise(a, b):
    """Entrywise order: GE iff A >= B everywhere; GT additionally needs A11 > B11."""
    if a.shape != b.shape:
        raise MatrixError(f"shape mismatch in comparison: {a.shape} vs {b.shape}")
    xs, ys = a.nums, b.nums
    if a.den != b.den:
        # compare over the common denominator a.den * b.den
        xs, ys = [x * b.den for x in xs], [y * a.den for y in ys]
    if any(x < y for x, y in zip(xs, ys)):
        return Cmp.INCOMPARABLE
    return Cmp.GT if xs[0] > ys[0] else Cmp.GE


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


# --- lifts, expansion and collapse, one Mat per entry ---

def mu_int(n, x):
    """Integer as an n x n matrix: (x/n)*ones when n divides x, else x*I."""
    if x % n == 0:
        return Mat.constant(x // n, n, n)
    return Mat.identity(n).scale(x)


def nu(n, x):
    """Number as the constant n-vector x*ones."""
    return Mat.constant(as_rat(x), n, 1)


def lift_int(n, a):
    """Every integer entry replaced by its mu_int image."""
    if a.den != 1:
        raise MatrixError("entrywise integer lift needs integer entries")
    return Mat.from_blocks(
        [[mu_int(n, a.at(i, j)) for j in range(a.cols)] for i in range(a.rows)])


def _lift_vector(n, vec):
    return Mat.from_blocks([[nu(n, e)] for e in vec.entries])


def interp_to_blocks(interp, factor=None):
    if interp.domain != "natural":
        raise InterpError("blockwise lift is defined for natural interpretations")
    if factor is None:
        factor = interp.max_entry()
    if factor <= 1:
        largest = interp.max_entry()
        if largest > 1:
            raise InterpError(f"factor {factor} leaves entries up to {largest}; "
                              f"a lift needs a factor above 1")
        return interp
    table = {
        symbol: LinearFunc(tuple(lift_int(factor, mat) for mat in func.mats),
                           _lift_vector(factor, func.const))
        for symbol, func in interp.table.items()
    }
    shape = BlockShape(factor * interp.shape.dim, factor * interp.shape.block)
    return Interpretation(shape, "natural", table, interp.delta)


def interp_to_bits(interp):
    """interp_to_blocks with the max matrix entry, one step at a time."""
    if interp.domain != "natural":
        raise InterpError("blockwise lift is defined for natural interpretations")
    steps = []
    while True:
        factor = interp.max_entry(matrices_only=True)
        if factor <= 1:
            return interp, TransformTrace(tuple(steps))
        before = interp.shape.dim
        interp = interp_to_blocks(interp, factor)
        steps.append((factor, before, interp.shape.dim))


def _expand_entry(x, enc):
    if isinstance(x, int) and x >= 0:
        return mu_int(enc.dim, x)
    if isinstance(x, Fraction) and x in enc.table:
        return enc.table[x]
    raise EncodingError(f"entry {x} is neither natural nor encoded")


def expand_rational(interp, enc):
    if enc.table and not validate(enc).valid:
        raise EncodingError("encoding fails validation")
    b = enc.dim
    if b == 1:
        table = {s: f for s, f in interp.table.items()}
        return Interpretation(BlockShape(interp.shape.dim, 1), "natural",
                              table, interp.delta)
    ones = Mat.ones(b, 1)
    table = {}
    for symbol, func in interp.table.items():
        try:
            mats = tuple(
                Mat.from_blocks([[_expand_entry(mat.at(i, j), enc)
                                  for j in range(mat.cols)] for i in range(mat.rows)])
                for mat in func.mats)
            const = Mat.from_blocks([[_expand_entry(e, enc) * ones]
                                     for e in func.const.entries])
        except EncodingError as exc:
            raise EncodingError(f"{symbol}: {exc}") from None
        table[symbol] = LinearFunc(mats, const)
    return Interpretation(BlockShape(b * interp.shape.dim, 1), "natural",
                          table, interp.delta)


def const_scalar_parts(a):
    """Decompose a square matrix as c*ones + s*I, or None (c = 0 at 1x1)."""
    if a.rows != a.cols:
        return None
    n = a.rows
    if n == 1:
        return (0, a.entries[0])
    off = [a.at(i, j) for i in range(n) for j in range(n) if i != j]
    diag = [a.at(i, i) for i in range(n)]
    if any(x != off[0] for x in off) or any(x != diag[0] for x in diag):
        return None
    return (off[0], diag[0] - off[0])


def value_collapse(a, b):
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
    return from_rows(rows)


def collapse_vector(v, b):
    if v.cols != 1 or v.rows % b:
        raise MatrixError(f"{v.rows}x{v.cols} is not a b-blocked column vector")
    out = []
    for j in range(v.rows // b):
        segment = v.entries[j * b:(j + 1) * b]
        if any(e != segment[0] for e in segment):
            raise MatrixError(f"vector segment {j + 1} is not constant")
        out.append(segment[0])
    return Mat.column(out)


def expansion_rho_preserved(before, after, b):
    if b == 1:
        return before.table == after.table
    for symbol, func in before.table.items():
        expanded = after.table[symbol]
        for mat, big in zip(func.mats, expanded.mats):
            for i in range(mat.rows):
                for j in range(mat.cols):
                    if rho(b, big.block(i, j, b, b)) != mat.at(i, j):
                        return False
        for i, entry in enumerate(func.const.entries):
            segment = Mat.column(expanded.const.entries[i * b:(i + 1) * b])
            if rho(b, segment) != entry:
                return False
    return True


# --- flat words --------------------------------------------------------------

FLAT_UNIT, FLAT_ZERO = ("1",), ("0",)


def sym_eval(t, pi):
    """Each variable's coefficient words and the constant words of ``t``."""
    coeffs, consts = {}, []
    stack = [(t, ())]
    while stack:
        node, prefix = stack.pop()
        if node is None:
            consts.append(prefix)
        elif isinstance(node, Var):
            coeffs.setdefault(node.name, []).append(prefix or FLAT_UNIT)
        elif node.symbol not in pi.table:
            raise ConstraintError(f"uninterpreted symbol {node.symbol!r}")
        else:
            coeff_params, const_param = pi.table[node.symbol]
            if len(coeff_params) != len(node.args):
                raise ConstraintError(
                    f"symbol {node.symbol!r} has arity {len(coeff_params)} in the "
                    f"parametric interpretation, used with {len(node.args)} argument(s)")
            stack.append((None, prefix + (const_param,)))
            for param, arg in reversed(list(zip(coeff_params, node.args))):
                stack.append((arg, prefix + (param,)))
    return coeffs, consts


def _ordered_vars(rule):
    order = {}
    for side in (rule.lhs, rule.rhs):
        for t in subterms(side):
            if isinstance(t, Var):
                order.setdefault(t.name)
    return list(order)


def _is_proper_submultiset(small, big):
    pool = list(big)
    for w in small:
        if w not in pool:
            return False
        pool.remove(w)
    return bool(pool)


def generate_constraints(rules, pairs, pi):
    """(source, kind, rel, lhs, rhs, full rhs) per constraint, with flat word
    sums; a constraint's value is taken against its full rhs, whatever its
    rendered rhs drops."""
    out = []
    for label, group, const_rel in (("rule", rules, "weak"), ("pair", pairs, "strict")):
        for idx, rule in enumerate(group, start=1):
            lc, lconst = sym_eval(rule.lhs, pi)
            rc, rconst = sym_eval(rule.rhs, pi)
            source = f"{label} {idx}"
            for var in _ordered_vars(rule):
                rhs = tuple(rc.get(var, [])) or (FLAT_ZERO,)
                out.append((source, var, "weak", tuple(lc.get(var, [])) or (FLAT_ZERO,),
                            rhs, rhs))
            full = tuple(rconst) or (FLAT_ZERO,)
            if const_rel == "strict" and _is_proper_submultiset(rconst, lconst):
                rconst = []
            out.append((source, "const", const_rel, tuple(lconst) or (FLAT_ZERO,),
                        tuple(rconst) or (FLAT_ZERO,), full))
    return out


def format_constraint(c):
    """The report line of ``gen-constraints`` for a flat constraint."""
    source, kind, rel, lhs, rhs, _ = c
    side = lambda ws: " + ".join(" ".join(w) for w in ws)
    return f"{source} / {kind}: {side(lhs)} {'>=' if rel == 'weak' else '>'} {side(rhs)}"


def eval_word_sum(ws, eta):
    try:
        return as_rat(sum([prod([eta[param] for param in word]) for word in ws]))
    except KeyError as exc:
        raise ConstraintError(f"unbound parameter {exc.args[0]!r}") from None


def eval_constraint(c, eta, delta=None):
    """(holds, lhs value, rhs value) of a flat constraint."""
    _, _, rel, lhs_ws, _, rhs_ws = c
    lhs, rhs = eval_word_sum(lhs_ws, eta), eval_word_sum(rhs_ws, eta)
    if rel == "weak":
        return lhs >= rhs, lhs, rhs
    return (lhs > rhs if delta is None else lhs - rhs >= delta), lhs, rhs


def required_products(constraints, eta):
    """The required products of flat constraints: every word's count
    vector, undominated vectors expanded once."""
    vectors = set()
    for _, _, _, lhs, rhs, _ in constraints:
        for word in (*lhs, *rhs):
            counts = {}
            for param, n in Counter(word).items():
                if param not in eta:
                    raise EncodingError(f"unbound parameter {param!r}")
                value = eta[param]
                if isinstance(value, Fraction):
                    counts[value] = counts.get(value, 0) + n
            vectors.add(frozenset(counts.items()))
    kept = []
    for vector in sorted(vectors, key=lambda v: sum(n for _, n in v), reverse=True):
        if not any(all(big.get(value, 0) >= n for value, n in vector) for big in kept):
            kept.append(dict(vector))
    out = set()
    for counts in kept:
        products = set()
        for value, n in counts.items():
            powers = [value ** e for e in range(1, n + 1)]
            products |= {p * q for p in products for q in powers}
            products.update(powers)
        out |= products
    return frozenset(out)


# --- the line formats, one line loop per parser ---

def _one_token(name):
    if len(name.split()) != 1:
        raise ValueError(f"name {name!r} is not a single token")
    return name


def parse_interpretation(text):
    domain = None
    dim = None
    block = 1
    delta = None
    table = {}
    current = None
    mats = []
    const = None
    arity = 0
    literals = {}

    def literal(line):
        text = line.split("=", 1)[1].strip()
        mat = literals.get(text)
        if mat is None:
            mat = literals[text] = parse_matrix(text)
        return mat

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
                mats.append(literal(line))
            elif key == "C":
                if current is None or const is not None:
                    raise ValueError("unexpected C line")
                const = literal(line)
            else:
                raise ValueError(f"unrecognized line {line!r}")
        except (ValueError, IndexError, MatrixError) as exc:
            raise InterpError(f"line {lineno}: {exc}") from None
    close_symbol(len(lines))
    if domain is None or dim is None:
        raise InterpError("missing 'domain' or 'dim' header")
    return Interpretation(BlockShape(dim, block), domain, table, delta)


def parse_pinterp(text):
    table = {}
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
            for name in (symbol, const):
                _one_token(name)
            if len(coeffs) != arity:
                raise ValueError(
                    f"{len(coeffs)} coefficient parameter(s) for arity {arity}")
            if symbol in table:
                raise ValueError(f"symbol {symbol!r} interpreted twice")
        except ValueError as exc:
            raise ConstraintError(f"line {lineno}: {exc}") from None
        table[symbol] = (coeffs, const)
    return ParamInterpretation(table)


def parse_valuation(text):
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw).strip()
        if not line:
            continue
        try:
            head, eq, value_s = line.partition("=")
            parts = head.split(None, 1)
            if parts and parts[0] != "param":
                raise ValueError(f"expected 'param', got {parts[0]!r}")
            if len(parts) != 2 or not eq:
                raise ValueError("expected 'param <name> = <value>'")
            name = _one_token(parts[1].strip())
            if name in values:
                raise ValueError(f"parameter {name!r} valued twice")
            values[name] = parse_rat(value_s)
        except (ValueError, MatrixError) as exc:
            raise ConstraintError(f"line {lineno}: {exc}") from None
    return valuation(values)


def parse_encoding(text):
    dim = None
    table = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw).strip()
        if not line:
            continue
        try:
            if line.startswith("encoding"):
                parts = line.split()
                if len(parts) != 3 or parts[1] != "dim":
                    raise ValueError(f"bad header {line!r}")
                dim = int(parts[2])
            elif line.startswith("value"):
                if dim is None:
                    raise ValueError("value line before 'encoding dim' header")
                head, mat_s = line.split("=", 1)
                parts = head.split(None, 1)
                if len(parts) != 2:
                    raise ValueError(
                        f"expected 'value <p>/<q> = <matrix literal>', got {line!r}")
                value = parse_rat(parts[1])
                if value in table:
                    raise ValueError(f"value {value} encoded twice")
                table[Fraction(value)] = parse_matrix(mat_s)
            else:
                raise ValueError(f"unrecognized line {line!r}")
        except (ValueError, EncodingError) as exc:
            raise EncodingError(f"line {lineno}: {exc}") from None
    if dim is None:
        raise EncodingError("missing 'encoding dim <n>' header")
    return Encoding(dim, table)

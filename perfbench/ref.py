"""Reference semantics the benchmark checks matint's answers against.

Deliberately independent of matint: plain nested lists of ints/Fractions,
terms as ``str`` (variable) or ``(symbol, args)`` tuples. Small dimensions
only; it decides the expected verdict of every generated call.
"""

from __future__ import annotations

from fractions import Fraction


# --- terms ---

def is_var(t) -> bool:
    return isinstance(t, str)


def fmt_term(t) -> str:
    if is_var(t):
        return t
    sym, args = t
    if not args:
        return sym
    return f"{sym}({','.join(fmt_term(a) for a in args)})"


def term_vars(t, out=None) -> list[str]:
    """Variables in first-occurrence order."""
    out = [] if out is None else out
    if is_var(t):
        if t not in out:
            out.append(t)
    else:
        for a in t[1]:
            term_vars(a, out)
    return out


def subterms(t):
    yield t
    if not is_var(t):
        for a in t[1]:
            yield from subterms(a)


def sharp(t):
    return (t[0] + "#", t[1])


def dependency_pairs(rules) -> list[tuple]:
    defined = {lhs[0] for lhs, _ in rules}
    pairs = []
    for lhs, rhs in rules:
        for t in subterms(rhs):
            if not is_var(t) and t[0] in defined:
                pair = (sharp(lhs), sharp(t))
                if pair not in pairs:
                    pairs.append(pair)
    return pairs


def fmt_rules(rules, variables=("x", "y", "z")) -> str:
    lines = [f"(VAR {' '.join(variables)})", "(RULES"]
    lines += [f"  {fmt_term(l)} -> {fmt_term(r)}" for l, r in rules]
    lines.append(")")
    return "\n".join(lines) + "\n"


# --- linear matrix interpretations: {symbol: (mats, const)} with n x n lists ---

def fmt_num(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fmt_matrix(rows) -> str:
    return "[" + " ; ".join(" ".join(fmt_num(e) for e in r) for r in rows) + "]"


def fmt_interp(domain: str, dim: int, table: dict) -> str:
    lines = [f"domain {domain}", f"dim {dim}", "block 1"]
    for sym, (mats, const) in table.items():
        lines.append(f"interp {sym} : {len(mats)}")
        for k, m in enumerate(mats, start=1):
            lines.append(f"  M{k} = {fmt_matrix(m)}")
        lines.append(f"  C = {fmt_matrix([[c] for c in const])}")
    return "\n".join(lines) + "\n"


def read_interp(text: str) -> tuple[int, dict]:
    """Read back an interpretation file: (dim, {symbol: [matrix rows...]}),
    listing M1..Mk then C per symbol, entries as Fractions."""
    dim, table, current = None, {}, None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("dim "):
            dim = int(line.split()[1])
        elif line.startswith("interp "):
            current = table.setdefault(line.split()[1], [])
        elif line[:1] in ("M", "C") and "=" in line:
            body = line.split("=", 1)[1].strip()[1:-1]
            current.append([[Fraction(e) for e in row.split()] for row in body.split(";")])
    return dim, table


def _mm(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _mv(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def _add(a, b):
    return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]


def evaluate(table: dict, dim: int, t, memo: dict = None):
    """Linear form of a term: ({var: coefficient matrix}, constant vector).
    ``memo`` maps already evaluated subterms to their (shared, unmodified) forms."""
    memo = {} if memo is None else memo
    if t in memo:
        return memo[t]
    if is_var(t):
        ident = [[int(i == j) for j in range(dim)] for i in range(dim)]
        return {t: ident}, [0] * dim
    mats, const = table[t[0]]
    coeffs: dict = {}
    out = list(const)
    for mat, arg in zip(mats, t[1]):
        sub_coeffs, sub_const = evaluate(table, dim, arg, memo)
        for var, c in sub_coeffs.items():
            prod = _mm(mat, c)
            coeffs[var] = _add(coeffs[var], prod) if var in coeffs else prod
        out = [x + y for x, y in zip(out, _mv(mat, sub_const))]
    memo[t] = coeffs, out
    return memo[t]


def _coeff(form, var, dim):
    return form[0].get(var) or [[0] * dim for _ in range(dim)]


def holds_entrywise(lhs, rhs, strict: bool, dim: int) -> bool:
    for var in set(lhs[0]) | set(rhs[0]):
        a, b = _coeff(lhs, var, dim), _coeff(rhs, var, dim)
        if any(x < y for r, s in zip(a, b) for x, y in zip(r, s)):
            return False
    if any(x < y for x, y in zip(lhs[1], rhs[1])):
        return False
    return not strict or lhs[1][0] > rhs[1][0]


def holds_value(lhs, rhs, strict: bool, dim: int, m: int, delta: Fraction) -> bool:
    for var in set(lhs[0]) | set(rhs[0]):
        a, b = _coeff(lhs, var, dim), _coeff(rhs, var, dim)
        if any(sum(c) < sum(d) for c, d in zip(zip(*a), zip(*b))):
            return False
    gap = sum(lhs[1]) - sum(rhs[1])
    if gap < 0:
        return False
    return not strict or Fraction(gap, m) >= delta


def problem_holds(table: dict, dim: int, rules, pairs, backend: str) -> bool:
    """Weak rules and strict pairs, with matint's value defaults m = dim and
    delta = 1/m (the generated files carry no delta line)."""
    m, delta = dim, Fraction(1, dim)
    memo: dict = {}
    for group, strict in ((rules, False), (pairs, True)):
        for l, r in group:
            lhs, rhs = evaluate(table, dim, l, memo), evaluate(table, dim, r, memo)
            if backend == "entrywise":
                ok = holds_entrywise(lhs, rhs, strict, dim)
            else:
                ok = holds_value(lhs, rhs, strict, dim, m, delta)
            if not ok:
                return False
    return True


# --- parametric (dim-1) interpretations: {symbol: (coeff params, const param)} ---

def words(pinterp: dict, t):
    """Parameter words of a term: ({var: [word]}, [word]); a word is a tuple."""
    if is_var(t):
        return {t: [()]}, []
    coeff_params, const_param = pinterp[t[0]]
    coeffs: dict = {}
    consts = []
    for param, arg in zip(coeff_params, t[1]):
        sub_coeffs, sub_consts = words(pinterp, arg)
        for var, ws in sub_coeffs.items():
            coeffs.setdefault(var, []).extend((param,) + w for w in ws)
        consts.extend((param,) + w for w in sub_consts)
    consts.append((const_param,))
    return coeffs, consts


def required_products(pinterp: dict, rules, eta: dict) -> set:
    """Products of every nonempty sub-multiset of non-integer values in a word,
    grown incrementally so long words stay cheap."""
    out = set()
    for l, r in rules:
        for t in (l, r):
            coeffs, consts = words(pinterp, t)
            for w in [w for ws in coeffs.values() for w in ws] + consts:
                prods: set = set()
                for p in w:
                    v = Fraction(eta[p])
                    if v.denominator != 1:
                        prods |= {v} | {q * v for q in prods}
                out |= prods
    return out


def constraint_count(rules) -> int:
    return sum(len(term_vars(r, term_vars(l))) + 1 for l, r in rules)

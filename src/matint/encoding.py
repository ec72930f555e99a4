"""Jordan-block encodings of finite rational sets as natural matrices.

An encoding maps rationals in (0,1) to natural square matrices of one fixed
dimension so that rho recovers each value and, whenever a product of two
encoded values is itself encoded, the matrix product has exactly that value.
The catalog ships the known-good encodings built from Jordan block powers.
Whether an encoding can expand an interpretation is decided here alone, by
one ``plan_expansion`` per call, which ``compat`` and ``expand`` render and
``transform.expand_rational`` builds from.
"""

from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from types import MappingProxyType

from .constraints import ArithConstraint, fold_words
from .matrix import (Mat, Rat, Record, as_rat, jordan, line_kinds, parse_matrix, parse_rat,
                     read_lines)
from .represent import rho


class EncodingError(ValueError):
    pass


class Encoding(Record):
    """Fixed-dimension table of natural square matrices for rationals in (0, 1)."""

    __slots__ = ("dim", "table")

    def __init__(self, dim: int, table: Mapping[Fraction, Mat] = MappingProxyType({})):
        _check_dim(dim)
        checked = {}
        for value, mat in table.items():
            _add(checked, dim, value, mat)
        __class__._set_dim(self, dim)
        __class__._set_table(self, MappingProxyType(checked))  # checked, read-only


def _check_dim(dim: int):
    """The one check of the dimension, for the constructor and the parser."""
    if dim < 1:
        raise EncodingError(f"encoding dimension must be positive, got {dim}")


def _add(table: dict, dim: int, value: Rat, mat: Mat):
    """Encode ``value`` by ``mat`` in ``table`` after the one check of an
    entry, for the constructor and for the parser at the entry's line."""
    value = as_rat(value)
    if not isinstance(value, Fraction) or not 0 < value < 1:
        raise EncodingError(f"encoded value must lie strictly in (0,1): {value}")
    if mat.shape != (dim, dim):
        raise EncodingError(f"matrix for {value} is {mat.rows}x{mat.cols}, need {dim}x{dim}")
    if not mat.is_natural():
        raise EncodingError(f"matrix for {value} has non-natural entries")
    table[value] = mat


def _upper_block(dim: int, top_left: Mat, top_right: Mat) -> Mat:
    half = dim // 2
    return Mat.from_blocks([
        [top_left, top_right],
        [Mat.zero(half), Mat.zero(half)],
    ])


# the unit encoding of size n, spelled unit:n or unit(n)
_UNIT = re.compile(r"unit(?::(\d+)|\((\d+)\))")


def catalog(name: str) -> Encoding:
    """Known-good encodings: half, quarters, eighths, sixths, unit(n). The
    named ones are immutable, so each is built once per process; unit(n) is
    built per call, so that no n x n matrix outlives its use."""
    unit = _UNIT.fullmatch(name)
    if unit:
        n = int(unit[1] or unit[2])
        if n < 2:
            raise EncodingError(f"unit({n}) has no value in (0,1)")
        return Encoding(n, {Fraction(1, n): jordan(n, n - 1)})
    return _named(name)


@cache
def _named(name: str) -> Encoding:
    if name == "half":
        return Encoding(2, {Fraction(1, 2): jordan(2)})
    if name == "quarters":
        j2 = jordan(2)
        return Encoding(4, {
            Fraction(1, 2): _upper_block(4, j2, j2.transpose()),
            Fraction(1, 4): _upper_block(4, Mat.zero(2), j2 * j2.transpose()),
        })
    if name == "eighths":
        return Encoding(8, {
            Fraction(1, 2): _upper_block(8, jordan(4, 1), jordan(4, 3)),
            Fraction(1, 4): _upper_block(8, jordan(4, 2), Mat.zero(4)),
            Fraction(1, 8): _upper_block(8, jordan(4, 3), Mat.zero(4)),
        })
    if name == "sixths":
        j31, j32 = jordan(3, 1), jordan(3, 2)
        return Encoding(6, {
            Fraction(1, 2): _upper_block(6, j31, j32.transpose()),
            Fraction(1, 3): _upper_block(6, j32, j31 * j32.transpose()),
            Fraction(1, 6): _upper_block(6, Mat.zero(3), j32 * j32.transpose()),
        })
    raise EncodingError(f"unknown encoding {name!r}")


CATALOG_NAMES = ("half", "quarters", "eighths", "sixths")


class EncodingReport(Record):
    """Validation flags: per-value rho check, per-ordered-pair product checks."""

    __slots__ = ("value_valid", "product_value_valid", "product_closed")

    def __init__(self, value_valid: dict[Fraction, bool],
                 product_value_valid: dict[tuple[Fraction, Fraction], bool],
                 product_closed: dict[tuple[Fraction, Fraction], bool]):
        __class__._set_value_valid(self, value_valid)
        __class__._set_product_value_valid(self, product_value_valid)
        __class__._set_product_closed(self, product_closed)

    @property
    def valid(self) -> bool:
        return all(self.value_valid.values()) and all(self.product_value_valid.values())


def validate(enc: Encoding, keys=None) -> EncodingReport:
    """Check rho values and, for every ordered pair whose product is encoded,
    that the matrix product has the right value (and whether it is closed)."""
    keys = sorted(enc.table.keys() if keys is None else keys, reverse=True)
    keyset = set(keys)
    value_valid = {q: rho(enc.dim, enc.table[q]) == q for q in keys}
    product_value_valid: dict[tuple[Fraction, Fraction], bool] = {}
    product_closed: dict[tuple[Fraction, Fraction], bool] = {}
    for x in keys:
        for y in keys:
            product = x * y
            if product not in keyset:
                continue
            prod_mat = enc.table[x] * enc.table[y]
            product_value_valid[(x, y)] = rho(enc.dim, prod_mat) == product
            product_closed[(x, y)] = prod_mat == enc.table[product]
    return EncodingReport(value_valid, product_value_valid, product_closed)


def required_products(constraints, eta: dict[str, Rat]) -> frozenset[Fraction]:
    """All nonempty subset-products of non-integer parameter values inside any
    multiplicative word of the constraints (the compatibility obligation).

    A word's subset products depend only on how often each value occurs in
    it, so each word becomes a count vector, indexed by the valuation's
    distinct rational values. A word's vector is its parent's plus its
    parameter, folded once per word node, so no Fraction is hashed per
    parameter. A vector that another dominates pointwise adds no product,
    and each remaining vector is expanded once. Expanding a vector of total
    count L costs at most L times the size of its product set, so the whole
    is polynomial in word length and linear in the size of the returned
    set, not 2^(word length).
    """
    # each parameter's index among the distinct rational values, None for
    # an integral value
    index: dict[Fraction, int] = {}
    slots = {param: index.setdefault(value, len(index))
             if isinstance(value, Fraction) else None
             for param, value in eta.items()}

    def step(vector, param):
        i = slots[param]
        if i is None:
            return vector
        vector = list(vector)
        vector[i] += 1
        return tuple(vector)

    zero = (0,) * len(index)
    memo: dict = {}
    vectors: set[tuple[int, ...]] = set()
    for c in constraints:
        if not isinstance(c, ArithConstraint):
            raise EncodingError(f"expected an arithmetic constraint, got {c!r}")
        try:
            for side in (c.lhs, c.rhs):
                vectors.update(fold_words(side, memo, step, zero))
        except KeyError as exc:
            raise EncodingError(f"unbound parameter {exc.args[0]!r}") from None
    # a vector can only be dominated by one of at least its total count
    kept: list[tuple[int, ...]] = []
    for vector in sorted(vectors, key=sum, reverse=True):
        if not any(all(b >= n for b, n in zip(big, vector)) for big in kept):
            kept.append(vector)
    out: set[Fraction] = set()
    for counts in kept:
        # products of nonempty sub-multisets; the empty one is never formed,
        # so 1 appears only as a real product such as 3/2 * 2/3
        products: set[Fraction] = set()
        for value, n in zip(index, counts):
            if n:
                powers = [value ** e for e in range(1, n + 1)]
                products |= {p * q for p in products for q in powers}
                products.update(powers)
        out |= products
    return frozenset(out)


class ExpansionPlan(Record):
    """An encoding, the required products it lacks, and its other faults."""

    __slots__ = ("encoding", "missing", "faults")

    def __init__(self, encoding: Encoding, missing: frozenset[Fraction], faults: tuple[str, ...]):
        __class__._set_encoding(self, encoding)
        __class__._set_missing(self, missing)
        __class__._set_faults(self, faults)

    @property
    def compatible(self) -> bool:
        return not (self.missing or self.faults)


def plan_expansion(enc: Encoding, values=(),
                   req: frozenset[Fraction] = frozenset()) -> ExpansionPlan:
    """The plan of expanding the (symbol, entry) pairs ``values`` through
    ``enc`` under required products ``req``: an entry the encoding lacks is
    a fault naming its first symbol. Then one ``validate`` of ``req`` checks
    values and closure, which makes each required word's product E(value).
    An entry outside ``req`` is in no word of the constraints, so only its
    own value is checked; without constraints (``req`` empty, as for
    ``expand --interp``) no product of entries is checked at all."""
    entries: dict[Fraction, str] = {}
    for symbol, x in values:
        if x.__class__ is Fraction:
            entries.setdefault(x, symbol)
    missing = req - enc.table.keys()
    faults = [f"{symbol}: entry {x} is neither natural nor encoded"
              for x, symbol in entries.items() if x not in enc.table and x not in req]
    if not (missing or faults):
        report = validate(enc, keys=req)
        wrong = {q for q, ok in report.value_valid.items() if not ok}
        wrong |= {x for x in entries.keys() - req if rho(enc.dim, enc.table[x]) != x}
        if wrong:
            faults.append(f"wrong values: {', '.join(map(str, sorted(wrong)))}")
        faults += [f"non-closed product: {x} * {y}"
                   for (x, y), closed in report.product_closed.items() if not closed][:1]
    return ExpansionPlan(enc, missing, tuple(faults))


def is_compatible(enc: Encoding, req: frozenset[Fraction]) -> bool:
    """True iff every required product is encoded, right-valued and closed:
    E(x)·E(y) = E(xy) whenever x, y and xy are required.

    Closure is what carries the check from pairs to words: by induction on
    prefixes, every required word's matrix product is then E(its value).
    A pair product's value alone does not compose."""
    return plan_expansion(enc, req=req).compatible


_LINES = line_kinds((
    ("encoding", "encoding dim <n>", r"encoding\s+dim\s+([0-9]+)"),
    ("value", "value <p>/<q> = <matrix literal>", r"value\s+([^\s=][^=]*)=(.*)"),
))


def parse_encoding(text: str) -> Encoding:
    """Parse ``encoding dim <n>`` then ``value <p>/<q> = <matrix literal>`` lines."""
    dim, table = None, {}

    def handle(_lineno, keyword, *groups):
        nonlocal dim
        if keyword == "encoding":
            if dim is not None:
                raise ValueError("repeated header 'encoding dim'")
            dim = int(groups[0])
            _check_dim(dim)
            return
        if dim is None:
            raise ValueError("value line before 'encoding dim' header")
        value = parse_rat(groups[0])
        if value in table:
            raise ValueError(f"value {value} encoded twice")
        _add(table, dim, value, parse_matrix(groups[1]))

    read_lines(text, _LINES, handle, EncodingError)
    if dim is None:
        raise EncodingError("missing 'encoding dim <n>' header")
    return Encoding(dim, table)


def load_encoding(spec: str) -> Encoding:
    """Resolve a catalog name (half, quarters, eighths, sixths, unit:n) or file path."""
    if spec in CATALOG_NAMES or _UNIT.fullmatch(spec):
        return catalog(spec)
    try:
        with open(spec, encoding="utf-8") as fh:
            return parse_encoding(fh.read())
    except FileNotFoundError:
        raise EncodingError(
            f"{spec!r} is neither a catalog encoding nor a readable file") from None

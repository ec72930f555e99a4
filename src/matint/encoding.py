"""Jordan-block encodings of finite rational sets as natural matrices.

An encoding maps rationals in (0,1) to natural square matrices of one fixed
dimension so that rho recovers each value and, whenever a product of two
encoded values is itself encoded, the matrix product has exactly that value.
The catalog ships the known-good encodings built from Jordan block powers.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .constraints import ArithConstraint
from .matrix import (Mat, Rat, as_rat, format_matrix, jordan, parse_matrix,
                     parse_rat, strip_comment)
from .represent import rho


class EncodingError(ValueError):
    pass


def rho_jordan(m: int, n: int, p: int) -> Rat:
    """Closed form of rho(m, jordan(n, p)): (n-p)/m for p < n, else 0."""
    if p >= n:
        return 0
    return as_rat(Fraction(n - p, m))


@dataclass
class Encoding:
    """Fixed-dimension table of natural square matrices for rationals in (0, 1)."""

    dim: int
    table: dict[Fraction, Mat] = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise EncodingError(f"encoding dimension must be positive, got {self.dim}")
        normalized = {}
        for value, mat in self.table.items():
            value = as_rat(value)
            if not isinstance(value, Fraction) or not 0 < value < 1:
                raise EncodingError(f"encoded value must lie strictly in (0,1): {value}")
            if mat.shape != (self.dim, self.dim):
                raise EncodingError(
                    f"matrix for {value} is {mat.rows}x{mat.cols}, need {self.dim}x{self.dim}")
            if not mat.is_natural():
                raise EncodingError(f"matrix for {value} has non-natural entries")
            normalized[value] = mat
        self.table = normalized

    def keys(self):
        return self.table.keys()


def _upper_block(dim: int, top_left: Mat, top_right: Mat) -> Mat:
    half = dim // 2
    return Mat.from_blocks([
        [top_left, top_right],
        [Mat.zero(half), Mat.zero(half)],
    ])


def catalog(name: str) -> Encoding:
    """Known-good encodings: half, quarters, eighths, sixths, unit(n)."""
    unit = re.fullmatch(r"unit[:(](\d+)\)?", name)
    if unit:
        n = int(unit.group(1))
        if n < 2:
            raise EncodingError(f"unit({n}) has no value in (0,1)")
        return Encoding(n, {Fraction(1, n): jordan(n, n - 1)})
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


@dataclass(frozen=True)
class EncodingReport:
    """Validation flags: per-value rho check, per-ordered-pair product checks."""

    value_valid: dict[Fraction, bool]
    product_value_valid: dict[tuple[Fraction, Fraction], bool]
    product_closed: dict[tuple[Fraction, Fraction], bool]

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
    it, so each word becomes a count vector {value: count}. A vector that
    another dominates pointwise adds no product, and each remaining vector
    is expanded once. Expanding a vector of total count L costs at most L
    times the size of its product set, so the whole is polynomial in word
    length and linear in the size of the returned set, not 2^(word length).
    """
    vectors: set[frozenset[tuple[Fraction, int]]] = set()
    for c in constraints:
        if not isinstance(c, ArithConstraint):
            raise EncodingError(f"expected an arithmetic constraint, got {c!r}")
        for side in (c.lhs, c.rhs):
            for word in side:
                # count names first: a str hash is cached, a Fraction's is not
                counts: dict[Fraction, int] = {}
                for param, n in Counter(word).items():
                    if param not in eta:
                        raise EncodingError(f"unbound parameter {param!r}")
                    value = eta[param]
                    if isinstance(value, Fraction):
                        counts[value] = counts.get(value, 0) + n
                vectors.add(frozenset(counts.items()))
    # a vector can only be dominated by one of at least its total count
    kept: list[dict[Fraction, int]] = []
    for vector in sorted(vectors, key=lambda v: sum(n for _, n in v), reverse=True):
        if not any(all(big.get(value, 0) >= n for value, n in vector) for big in kept):
            kept.append(dict(vector))
    out: set[Fraction] = set()
    for counts in kept:
        # products of nonempty sub-multisets; the empty one is never formed,
        # so 1 appears only as a real product such as 3/2 * 2/3
        products: set[Fraction] = set()
        for value, n in counts.items():
            powers = [value ** e for e in range(1, n + 1)]
            products |= {p * q for p in products for q in powers}
            products.update(powers)
        out |= products
    return frozenset(out)


def is_compatible(enc: Encoding, req: frozenset[Fraction]) -> bool:
    """True iff every required product is encoded and validates on those keys."""
    if not req <= set(enc.table.keys()):
        return False
    return validate(enc, keys=req).valid


def parse_encoding(text: str) -> Encoding:
    """Parse ``encoding dim <n>`` then ``value <p>/<q> = <matrix literal>`` lines."""
    dim = None
    table: dict[Fraction, Mat] = {}
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
                value = parse_rat(head.split(None, 1)[1])
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


def format_encoding(enc: Encoding) -> str:
    lines = [f"encoding dim {enc.dim}"]
    for value in sorted(enc.table, reverse=True):
        lines.append(f"value {value} = {format_matrix(enc.table[value])}")
    return "\n".join(lines) + "\n"


def load_encoding(spec: str) -> Encoding:
    """Resolve a catalog name (half, quarters, eighths, sixths, unit:n) or file path."""
    if spec in CATALOG_NAMES or re.fullmatch(r"unit[:(](\d+)\)?", spec):
        return catalog(spec)
    try:
        with open(spec, encoding="utf-8") as fh:
            return parse_encoding(fh.read())
    except FileNotFoundError:
        raise EncodingError(
            f"{spec!r} is neither a catalog encoding nor a readable file") from None

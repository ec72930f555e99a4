"""Exact rational scalars and dense matrices.

All arithmetic is exact: entries are Python ints or ``fractions.Fraction``
values (integral fractions are normalized to int), never floats. Matrices
are immutable values and safe to share.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

Rat = int | Fraction


class MatrixError(ValueError):
    pass


def as_rat(x) -> Rat:
    """Normalize a scalar to canonical exact form (int when integral)."""
    if isinstance(x, bool) or isinstance(x, float):
        raise MatrixError(f"exact rational required, got {type(x).__name__} {x!r}")
    if isinstance(x, int):
        return x
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else x
    raise MatrixError(f"exact rational required, got {type(x).__name__} {x!r}")


def parse_rat(text: str) -> Rat:
    """Parse an integer or ``p/q`` fraction."""
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return as_rat(Fraction(int(num), int(den)))
        return int(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise MatrixError(f"bad rational literal {text!r}: {exc}") from None


def is_natural_value(x: Rat) -> bool:
    return isinstance(x, int) and x >= 0


@dataclass(frozen=True)
class Mat:
    """Dense rows x cols matrix in row-major order; vectors are n x 1."""

    rows: int
    cols: int
    entries: tuple[Rat, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise MatrixError(f"matrix shape must be positive, got {self.rows}x{self.cols}")
        if len(self.entries) != self.rows * self.cols:
            raise MatrixError(
                f"{self.rows}x{self.cols} matrix needs {self.rows * self.cols} entries, "
                f"got {len(self.entries)}"
            )
        object.__setattr__(self, "entries", tuple(as_rat(e) for e in self.entries))

    @classmethod
    def _derived(cls, rows: int, cols: int, entries) -> Mat:
        """A result of arithmetic on valid matrices: its shape and entry types
        need no check, and only integral Fractions turn back into ints."""
        mat = object.__new__(cls)
        object.__setattr__(mat, "rows", rows)
        object.__setattr__(mat, "cols", cols)
        object.__setattr__(mat, "entries", tuple(
            e.numerator if e.__class__ is Fraction and e.denominator == 1 else e
            for e in entries))
        return mat

    # --- constructors ---

    @classmethod
    def from_rows(cls, rows) -> Mat:
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise MatrixError("matrix needs at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise MatrixError("ragged rows in matrix literal")
        return cls(len(rows), width, tuple(e for r in rows for e in r))

    @classmethod
    def zero(cls, rows: int, cols: int = None) -> Mat:
        cols = rows if cols is None else cols
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> Mat:
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def ones(cls, rows: int, cols: int = None) -> Mat:
        return cls.constant(1, rows, cols)

    @classmethod
    def constant(cls, c: Rat, rows: int, cols: int = None) -> Mat:
        cols = rows if cols is None else cols
        return cls(rows, cols, (as_rat(c),) * (rows * cols))

    @classmethod
    def column(cls, values) -> Mat:
        values = tuple(values)
        return cls(len(values), 1, values)

    @classmethod
    def from_blocks(cls, grid) -> Mat:
        """Assemble a block matrix from a grid (list of lists) of matrices."""
        grid = [list(row) for row in grid]
        if not grid or not grid[0]:
            raise MatrixError("empty block grid")
        for row in grid:
            if len(row) != len(grid[0]):
                raise MatrixError("ragged block grid")
            if any(b.rows != row[0].rows for b in row):
                raise MatrixError("inconsistent block heights in a grid row")
        for j in range(len(grid[0])):
            if any(grid[i][j].cols != grid[0][j].cols for i in range(len(grid))):
                raise MatrixError("inconsistent block widths in a grid column")
        out = []
        for row in grid:
            for r in range(row[0].rows):
                for block in row:
                    out.extend(block.row(r))
        rows = sum(row[0].rows for row in grid)
        cols = sum(b.cols for b in grid[0])
        return cls(rows, cols, tuple(out))

    # --- access ---

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def at(self, i: int, j: int) -> Rat:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Rat, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple[Rat, ...]:
        return self.entries[j::self.cols]

    def block(self, i: int, j: int, p: int, q: int) -> Mat:
        """The p x q block at block position (i, j) of a p/q-blocked grid."""
        if self.rows % p or self.cols % q:
            raise MatrixError(f"{self.rows}x{self.cols} matrix has no {p}x{q} block grid")
        out = []
        for r in range(p):
            base = (i * p + r) * self.cols + j * q
            out.extend(self.entries[base:base + q])
        return Mat(p, q, tuple(out))

    # --- arithmetic (exact) ---

    def __add__(self, other: Mat) -> Mat:
        if not isinstance(other, Mat):
            return NotImplemented
        if self.shape != other.shape:
            raise MatrixError(f"shape mismatch in sum: {self.shape} + {other.shape}")
        return Mat._derived(self.rows, self.cols, map(operator.add, self.entries, other.entries))

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise MatrixError(
                    f"inner dimensions differ in product: {self.shape} * {other.shape}")
            cols = [other.col(j) for j in range(other.cols)]
            out = []
            for i in range(self.rows):
                r = self.row(i)
                out.extend(sum(map(operator.mul, r, c)) for c in cols)
            return Mat._derived(self.rows, other.cols, out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, k: int) -> Mat:
        if self.rows != self.cols:
            raise MatrixError("power of a non-square matrix")
        if k < 0:
            raise MatrixError("negative matrix power")
        acc = Mat.identity(self.rows)
        for _ in range(k):
            acc = acc * self
        return acc

    def scale(self, x: Rat) -> Mat:
        x = as_rat(x)
        return Mat(self.rows, self.cols, tuple(e * x for e in self.entries))

    def transpose(self) -> Mat:
        return Mat(self.cols, self.rows,
                   tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)))

    # --- predicates and summaries ---

    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def is_natural(self) -> bool:
        return all(is_natural_value(e) for e in self.entries)

    def is_bit(self) -> bool:
        return all(e == 0 or e == 1 for e in self.entries)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def sum_entries(self) -> Rat:
        return as_rat(Fraction(sum(self.entries)))

    def max_entry(self) -> Rat:
        return max(self.entries)

    def column_sums(self) -> tuple[Rat, ...]:
        return tuple(as_rat(Fraction(sum(self.col(j)))) for j in range(self.cols))

    def __str__(self) -> str:
        return format_matrix(self)


class Cmp(Enum):
    """Entrywise comparison outcome of A against B."""
    GT = "GT"
    GE = "GE"
    INCOMPARABLE = "INCOMPARABLE"


def cmp_entrywise(a: Mat, b: Mat) -> Cmp:
    """Entrywise order: GE iff A >= B everywhere; GT additionally needs A11 > B11."""
    if a.shape != b.shape:
        raise MatrixError(f"shape mismatch in comparison: {a.shape} vs {b.shape}")
    if any(x < y for x, y in zip(a.entries, b.entries)):
        return Cmp.INCOMPARABLE
    return Cmp.GT if a.entries[0] > b.entries[0] else Cmp.GE


def jordan(n: int, p: int = 1) -> Mat:
    """The p-th power of the n x n Jordan block: ones at (i, i+p), zero for p >= n."""
    if n < 1:
        raise MatrixError(f"Jordan block dimension must be positive, got {n}")
    if p < 0:
        raise MatrixError(f"Jordan power must be nonnegative, got {p}")
    return Mat(n, n, tuple(1 if j == i + p else 0 for i in range(n) for j in range(n)))


def const_scalar_parts(a: Mat) -> tuple[Rat, Rat] | None:
    """Decompose a square matrix as c*ones + s*I, or None.

    The 1x1 case takes c = 0 (decomposition is ambiguous there).
    """
    if not a.is_square():
        return None
    n = a.rows
    if n == 1:
        return (0, a.entries[0])
    off = [a.at(i, j) for i in range(n) for j in range(n) if i != j]
    diag = [a.at(i, i) for i in range(n)]
    if any(x != off[0] for x in off) or any(x != diag[0] for x in diag):
        return None
    return (off[0], diag[0] - off[0])


def strip_comment(line: str) -> str:
    """Drop a '#' comment; sharp symbols like f# keep a glued '#', so only a
    '#' at line start or after whitespace opens a comment."""
    if line.startswith("#"):
        return ""
    for i in range(1, len(line)):
        if line[i] == "#" and line[i - 1].isspace():
            return line[:i]
    return line


def parse_matrix(text: str) -> Mat:
    """Parse the shared matrix literal ``[a b ; c d]`` (entries int or p/q)."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise MatrixError(f"matrix literal must be bracketed: {text!r}")
    body = text[1:-1].strip()
    if not body:
        raise MatrixError("empty matrix literal")
    rows = []
    for part in body.split(";"):
        items = part.split()
        if not items:
            raise MatrixError(f"empty row in matrix literal: {text!r}")
        rows.append([parse_rat(item) for item in items])
    return Mat.from_rows(rows)


def format_matrix(a: Mat) -> str:
    return "[" + " ; ".join(" ".join(str(e) for e in a.row(i)) for i in range(a.rows)) + "]"

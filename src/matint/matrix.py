"""Exact rational scalars and dense matrices.

All arithmetic is exact and never uses floats. A matrix stores its entries
as Python int numerators over one common denominator, so products and sums
run on ints; read back, an entry is an int or a ``fractions.Fraction``
(integral fractions are normalized to int). Matrices are immutable values
and safe to share.
"""

from __future__ import annotations

import operator
from enum import Enum
from fractions import Fraction
from math import gcd, lcm

Rat = int | Fraction


class MatrixError(ValueError):
    pass


def as_rat(x) -> Rat:
    """Normalize a scalar to canonical exact form (int when integral)."""
    if x.__class__ is int:
        return x
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


def _check_shape(rows: int, cols: int):
    if rows < 1 or cols < 1:
        raise MatrixError(f"matrix shape must be positive, got {rows}x{cols}")


class Mat:
    """Dense rows x cols matrix in row-major order; vectors are n x 1.

    Entries are stored as int numerators ``nums`` over one common denominator
    ``den`` >= 1, kept canonical (``gcd(den, *nums) == 1``), so arithmetic
    runs on Python ints and equal values have equal fields. Immutable.
    """

    __slots__ = ("rows", "cols", "nums", "den", "_entries")

    def __init__(self, rows: int, cols: int, entries):
        _check_shape(rows, cols)
        if len(entries) != rows * cols:
            raise MatrixError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}")
        entries = tuple(entries)
        den = 1
        # plain ints need neither normalizing nor a denominator (the type
        # test runs at C speed, which matters for bit matrices of dim 100+)
        if set(map(type, entries)) != {int}:
            entries = tuple(map(as_rat, entries))
            den = lcm(*[e.denominator for e in entries])
            # lcm of reduced denominators: the form is canonical already, and
            # with den 1 every entry is an int
            if den != 1:
                entries = tuple(e.numerator * (den // e.denominator) for e in entries)
        _init(self, rows, cols, entries, den)

    @classmethod
    def _derived(cls, rows: int, cols: int, nums, den: int = 1) -> Mat:
        """The trusted constructor for results of arithmetic on valid matrices:
        shape and entry types need no check, only one gcd brings ``nums/den``
        to canonical form."""
        nums = tuple(nums)
        if den != 1:
            g = gcd(den, *nums)
            if g != 1:
                nums = tuple(x // g for x in nums)
                den //= g
        mat = object.__new__(cls)
        _init(mat, rows, cols, nums, den)
        return mat

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: Mat is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: Mat is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the trusted constructor, since
        # setting the slots one by one is refused
        return (Mat._derived, (self.rows, self.cols, self.nums, self.den))

    def __eq__(self, other):
        if other.__class__ is not Mat:
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.den, self.nums))

    def __repr__(self) -> str:
        return f"Mat(rows={self.rows!r}, cols={self.cols!r}, entries={self.entries!r})"

    @property
    def entries(self) -> tuple[Rat, ...]:
        """The entries in canonical exact form (int when integral), built once."""
        if self._entries is None:
            _set_entries(self, tuple(map(self._rat, self.nums)))
        return self._entries

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
        return cls.constant(0, rows, cols)

    @classmethod
    def identity(cls, n: int) -> Mat:
        _check_shape(n, n)
        return cls._derived(n, n, (1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def ones(cls, rows: int, cols: int = None) -> Mat:
        return cls.constant(1, rows, cols)

    @classmethod
    def constant(cls, c: Rat, rows: int, cols: int = None) -> Mat:
        cols = rows if cols is None else cols
        _check_shape(rows, cols)
        c = as_rat(c)
        return cls._derived(rows, cols, (c.numerator,) * (rows * cols), c.denominator)

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
        # every block over the grid's common denominator
        den = lcm(*(b.den for row in grid for b in row))
        out = []
        for row in grid:
            scaled = [(b.cols, b.nums if b.den == den else
                       tuple(x * (den // b.den) for x in b.nums)) for b in row]
            for r in range(row[0].rows):
                for cols, nums in scaled:
                    out.extend(nums[r * cols:(r + 1) * cols])
        rows = sum(row[0].rows for row in grid)
        cols = sum(b.cols for b in grid[0])
        return cls._derived(rows, cols, out, den)

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
            out.extend(self.nums[base:base + q])
        return Mat._derived(p, q, out, self.den)

    # --- arithmetic (exact, on the int numerators) ---

    def __add__(self, other: Mat) -> Mat:
        if not isinstance(other, Mat):
            return NotImplemented
        if self.shape != other.shape:
            raise MatrixError(f"shape mismatch in sum: {self.shape} + {other.shape}")
        a, b = self.den, other.den
        if a == b:
            return Mat._derived(self.rows, self.cols, map(operator.add, self.nums, other.nums), a)
        den = lcm(a, b)
        sa, sb = den // a, den // b
        return Mat._derived(self.rows, self.cols,
                            [x * sa + y * sb for x, y in zip(self.nums, other.nums)], den)

    def __mul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise MatrixError(
                    f"inner dimensions differ in product: {self.shape} * {other.shape}")
            n, k, nums = self.cols, other.cols, self.nums
            cols = [other.nums[j::k] for j in range(k)]
            out = []
            for i in range(0, self.rows * n, n):
                r = nums[i:i + n]
                out.extend(sum(map(operator.mul, r, c)) for c in cols)
            return Mat._derived(self.rows, k, out, self.den * other.den)
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
        p = x.numerator
        return Mat._derived(self.rows, self.cols, (e * p for e in self.nums),
                            self.den * x.denominator)

    def transpose(self) -> Mat:
        r, c, nums = self.rows, self.cols, self.nums
        return Mat._derived(c, r, (nums[i * c + j] for j in range(c) for i in range(r)),
                            self.den)

    # --- predicates and summaries ---

    def _rat(self, num: int) -> Rat:
        """The value num/den in canonical exact form."""
        return num // self.den if num % self.den == 0 else Fraction(num, self.den)

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_natural(self) -> bool:
        return self.den == 1 and all(e >= 0 for e in self.nums)

    def is_bit(self) -> bool:
        return self.den == 1 and all(e == 0 or e == 1 for e in self.nums)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def sum_entries(self) -> Rat:
        return self._rat(sum(self.nums))

    def max_entry(self) -> Rat:
        return self._rat(max(self.nums))

    def column_sums(self) -> tuple[Rat, ...]:
        nums, c = self.nums, self.cols
        return tuple(self._rat(sum(nums[j::c])) for j in range(c))

    def __str__(self) -> str:
        return format_matrix(self)


# The slots' own setters write past Mat.__setattr__ (and cost less than
# object.__setattr__, which looks each name up again).
_set_rows, _set_cols, _set_nums, _set_den, _set_entries = (
    Mat.__dict__[name].__set__ for name in Mat.__slots__)


def _init(mat: Mat, rows: int, cols: int, nums: tuple[int, ...], den: int):
    """Set the fields of a new Mat."""
    _set_rows(mat, rows)
    _set_cols(mat, cols)
    _set_nums(mat, nums)
    _set_den(mat, den)
    _set_entries(mat, nums if den == 1 else None)


class Cmp(Enum):
    """Entrywise comparison outcome of A against B."""
    GT = "GT"
    GE = "GE"
    INCOMPARABLE = "INCOMPARABLE"


def cmp_entrywise(a: Mat, b: Mat) -> Cmp:
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

"""Exact rational scalars and dense matrices.

All arithmetic is exact and never uses floats. A matrix stores its entries
as Python int numerators over one common denominator, so products and sums
run on ints; read back, an entry is an int or a ``fractions.Fraction``
(integral fractions are normalized to int). Matrices are immutable values
and safe to share.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from itertools import chain
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
    except (ValueError, ZeroDivisionError):
        raise MatrixError(f"bad rational literal {text!r}: "
                          f"expected '<int>' or '<p>/<q>' with q nonzero") from None


def _check_shape(rows: int, cols: int):
    if rows < 1 or cols < 1:
        raise MatrixError(f"matrix shape must be positive, got {rows}x{cols}")


class Record:
    """Immutable value that compares and hashes by class and fields (its
    ``__slots__``, or ``_fields`` if a slot is a cache) and whose repr names
    them. ``__init__`` sets each slot by its own setter, ``_set_<slot>`` of
    ``__class__`` (the defining class, which a rebound global cannot hide)."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        for name in cls.__slots__:
            setattr(cls, f"_set_{name}", cls.__dict__[name].__set__)
        if len(cls._fields) > 1:    # over one name, attrgetter gives the bare value
            cls._values = property(operator.attrgetter(*cls._fields))

    _values = property(lambda self: tuple(getattr(self, name) for name in self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set field {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}: {type(self).__name__} is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, as no slot can be set
        return self.__class__, self._values


class Mat(Record):
    """Dense rows x cols matrix in row-major order; vectors are n x 1.

    Entries are stored as int numerators ``nums`` over one common denominator
    ``den`` >= 1, kept canonical (``gcd(den, *nums) == 1``), so arithmetic
    runs on Python ints and equal values have equal fields. Immutable.
    """

    __slots__ = ("rows", "cols", "nums", "den")

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

    def __reduce__(self):
        # copy and pickle rebuild through the trusted constructor, since
        # setting the slots one by one is refused
        return (Mat._derived, (self.rows, self.cols, self.nums, self.den))

    def __repr__(self) -> str:
        return f"Mat(rows={self.rows!r}, cols={self.cols!r}, entries={self.entries!r})"

    @property
    def entries(self) -> tuple[Rat, ...]:
        """The entries in canonical exact form (int when integral)."""
        return self.nums if self.den == 1 else tuple(map(self._rat, self.nums))

    # --- constructors ---

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
        return self._rat(self.nums[i * self.cols + j])

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

    def __mul__(self, other: Mat) -> Mat:
        if not isinstance(other, Mat):
            return NotImplemented
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

    def is_natural(self) -> bool:
        return self.den == 1 and min(self.nums) >= 0

    def is_bit(self) -> bool:
        return self.den == 1 and set(self.nums) <= {0, 1}

    def max_entry(self) -> Rat:
        return self._rat(max(self.nums))

    def __str__(self) -> str:
        return format_matrix(self)


def _init(mat: Mat, rows: int, cols: int, nums: tuple[int, ...], den: int):
    """Set the fields of a new Mat."""
    Mat._set_rows(mat, rows)
    Mat._set_cols(mat, cols)
    Mat._set_nums(mat, nums)
    Mat._set_den(mat, den)


def jordan(n: int, p: int = 1) -> Mat:
    """The p-th power of the n x n Jordan block: ones at (i, i+p), zero for p >= n."""
    if n < 1:
        raise MatrixError(f"Jordan block dimension must be positive, got {n}")
    if p < 0:
        raise MatrixError(f"Jordan power must be nonnegative, got {p}")
    return Mat(n, n, tuple(1 if j == i + p else 0 for i in range(n) for j in range(n)))


# a '#' at line start or after whitespace (``\s`` is ``str.isspace``); the
# '#' comes first, so a search skips straight from one '#' to the next
_COMMENT = re.compile(r"#(?<!\S#)")


def strip_comment(line: str) -> str:
    """Drop a '#' comment; sharp symbols like f# keep a glued '#', so only a
    '#' at line start or after whitespace opens a comment."""
    found = _COMMENT.search(line)
    return line if found is None else line[:found.start()]


class LineError(ValueError):
    """A fault of the earlier line ``lineno``, seen at a later line or the end."""

    def __init__(self, lineno: int, message: str):
        super().__init__(message)
        self.lineno = lineno


_KEYWORD = re.compile(r"[A-Za-z]*")


def line_kinds(grammar) -> dict[str, tuple[str, re.Pattern]]:
    """A line format's ``(keyword, form, pattern)`` kinds, compiled once for
    ``read_lines``. Patterns must run in linear time; with re.DOTALL (no
    line holds a newline) a trailing ``(.*)`` takes a long literal at once."""
    return {keyword: (form, re.compile(pattern, re.S)) for keyword, form, pattern in grammar}


def read_lines(text: str, kinds: dict, handle, error: type[ValueError], end=None):
    """Read a line format; the one place that strips comments, skips blank
    lines and numbers lines. A line's keyword is its leading ASCII letters;
    its kind (see ``line_kinds``) must match the whole line, else the error
    names the form, and ``handle(lineno, keyword, *groups)`` reads it. A
    ValueError raised meanwhile, or by ``end()`` after the last line,
    becomes ``error`` with one ``line N:`` prefix, N the current line or a
    LineError's. Returns what ``end()`` returns."""
    lineno = 0
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = strip_comment(raw).strip()
            if not line:
                continue
            keyword = _KEYWORD.match(line)[0]
            kind = kinds.get(keyword)
            found = kind and kind[1].fullmatch(line)
            if not found:
                forms = [kind[0]] if kind else [form for form, _ in kinds.values()]
                raise ValueError("expected " + " or ".join(map(repr, forms)))
            handle(lineno, keyword, *found.groups())
        if end:
            return end()
    except ValueError as exc:
        at = exc.lineno if isinstance(exc, LineError) else lineno
        raise error(f"line {at}: {exc}") from None


# the byte of each ASCII digit mapped to its value, and back
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))
_DIGIT_CHARS = bytes.maketrans(bytes(range(10)), b"0123456789")
_NOT_DIGITS = bytes(range(10, 256))


def _parse_row(items: list[str], fractions: bool) -> tuple[list[int], int]:
    """Tokens as int numerators over one (not necessarily lowest) positive
    denominator; ``fractions`` tells whether some token has a '/'. A bad
    token raises ValueError or ZeroDivisionError."""
    if not fractions:
        return list(map(int, items)), 1
    pairs = []
    for item in items:
        num, slash, den = item.partition("/")
        p, q = int(num), int(den) if slash else 1
        if q == 0:
            raise ZeroDivisionError
        pairs.append((p, q))
    # lcm is positive, and den // q carries the sign of a negative q
    den = lcm(*[q for _, q in pairs])
    return [p * (den // q) for p, q in pairs], den


def _parse_layout(body: str) -> Mat | None:
    """The literal body that ``format_matrix`` writes for entries 0..9,
    read by slicing, or None for any other text.

    In that layout each entry is one ASCII digit, the entries and the row
    separators ';' sit at the even places, and each odd place holds one
    whitespace character. So the even places are the rows of digits joined
    by ';', and the digits' bytes, translated, are the values: no token per
    entry and no ``int()`` call."""
    if len(body) > 1 and not body[1::2].isspace():
        return None
    cells = body[::2]
    width = cells.find(";")
    if width < 0:
        width = len(cells)
    rows, extra = divmod(len(cells) + 1, width + 1)
    digits = cells.replace(";", "")
    # the ';' count and places are right iff the digits fill rows x width
    # and every (width+1)-th cell is a ';'
    if (extra or not width or len(digits) != rows * width
            or cells[width::width + 1] != ";" * (rows - 1)):
        return None
    # isdigit alone would admit '²', which int() refuses, and digits
    # like '٣', which int() reads but which are more than one byte
    if not (digits.isascii() and digits.isdigit()):
        return None
    return Mat._derived(rows, width, digits.encode().translate(_DIGIT_VALUES))


def _raise_literal_error(text: str, rows: list[list[str]]):
    """Raise the error of a literal that a bulk read refused, as a row by
    row reader meets it: the first empty row or bad entry, else ragged rows."""
    for items in rows:
        if not items:
            raise MatrixError(f"empty row in matrix literal: {text!r}")
        for item in items:
            parse_rat(item)
    raise MatrixError("ragged rows in matrix literal")


def parse_matrix(text: str) -> Mat:
    """Parse the shared matrix literal ``[a b ; c d]`` (entries int or p/q).

    Accepts and rejects exactly what ``parse_rat`` per entry and a check
    for equal-length rows would, with the same messages, but makes no
    Fraction. The layout ``format_matrix`` writes for entries 0..9 is read
    by slicing (``_parse_layout``); any other text is split into tokens,
    all read in one ``_parse_row`` call as ints over one denominator, and
    the rows are only walked to name an error."""
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise MatrixError(f"matrix literal must be bracketed: {text!r}")
    body = text[1:-1].strip()
    if not body:
        raise MatrixError("empty matrix literal")
    mat = _parse_layout(body)
    if mat is not None:
        return mat
    rows = list(map(str.split, body.split(";")))
    width = len(rows[0])
    if width and set(map(len, rows)) == {width}:
        try:
            nums, den = _parse_row(list(chain.from_iterable(rows)), "/" in body)
        except (ValueError, ZeroDivisionError):
            pass
        else:
            return Mat._derived(len(rows), width, nums, den)
    _raise_literal_error(text, rows)


def _rat_str(p: int, q: int) -> str:
    """``str(as_rat(Fraction(p, q)))`` for q > 0, without the Fraction."""
    g = gcd(p, q)
    return str(p // g) if g == q else f"{p // g}/{q // g}"


def entry_strs(a: Mat) -> list[str]:
    """The entries as ``str`` prints them, rendered from the int numerators
    (so without a Fraction)."""
    if a.den == 1:
        return list(map(str, a.nums))
    return [_rat_str(x, a.den) for x in a.nums]


def format_matrix(a: Mat) -> str:
    """The literal ``[a b ; c d]``. A matrix whose entries are all digits
    0..9, like a bit matrix, is written from its bytes: each entry's byte
    translated to its digit, a ';' between rows, and one strided copy into
    a buffer of spaces putting one space between any two of these."""
    nums, c, n = a.nums, a.cols, len(a.nums)
    if a.den == 1:
        try:
            # the entries 10..255 are deleted, so a shorter result has one
            digits = bytes(nums).translate(_DIGIT_CHARS, _NOT_DIGITS)
        except ValueError:  # an entry outside 0..255
            digits = b""
        if len(digits) == n:
            rows = map(digits.__getitem__, map(slice, range(0, n, c), range(c, n + c, c)))
            cells = b";".join(rows)
            out = bytearray(b" ") * (2 * len(cells) + 1)
            out[1::2] = cells
            out[0], out[-1] = 91, 93  # '[' and ']'
            return out.decode()
    strs = entry_strs(a)
    return "[" + " ; ".join(" ".join(strs[i:i + c]) for i in range(0, len(strs), c)) + "]"

"""Shared generators and fixtures data for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from matint import (BlockShape, Interpretation, LinearFunc, Mat, dependency_pairs,
                    parse_matrix, parse_trs, parse_valuation)
from matint.constraints import Word

DATA = Path(__file__).resolve().parent.parent / "data"


def read(name: str) -> str:
    return (DATA / name).read_text(encoding="utf-8")


def example_one():
    trs = parse_trs(read("fg.trs"))
    return trs, dependency_pairs(trs)


def valuation(values: dict) -> dict:
    """The valuation that a file of ``param <name> = <value>`` lines gives."""
    return parse_valuation("".join(f"param {name} = {value}\n" for name, value in values.items()))


def as_words(flat_words, nodes=None) -> tuple:
    """The word nodes of flat words (sequences of parameter names), with the
    empty word as None; words built with one ``nodes`` dict are interned."""
    nodes = {} if nodes is None else nodes
    out = []
    for params in flat_words:
        word = None
        for length, param in enumerate(params, start=1):
            key = (word, param)
            if key not in nodes:
                nodes[key] = Word((word, param, length))
            word = nodes[key]
        out.append(word)
    return tuple(out)


def flat(ws) -> tuple:
    """A word sum as flat words (tuples of parameter names), to compare with
    tuples: word nodes compare by identity."""
    return tuple(map(tuple, ws))


def rand_nat_mat(rng: random.Random, rows: int, cols: int, hi: int = 9) -> Mat:
    return Mat(rows, cols, tuple(rng.randint(0, hi) for _ in range(rows * cols)))


def rand_rat(rng: random.Random, hi: int = 9, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-hi, hi), rng.randint(1, den))


def rand_rat_mat(rng: random.Random, rows: int, cols: int,
                 hi: int = 9, den: int = 4) -> Mat:
    return Mat(rows, cols,
               tuple(rand_rat(rng, hi, den) for _ in range(rows * cols)))


def block_rows_mat(rng: random.Random, n: int, b: int, entry) -> Mat:
    """An n x n matrix of ``entry()`` draws whose rows in each b x b block
    are shuffles of one drawn row: their sums agree, as an interpretation of
    block b needs, while its columns stay uneven. At b = 1 it draws the
    entries row by row and shuffles nothing."""
    rows = [[] for _ in range(n)]
    for i in range(0, n, b):
        for _ in range(0, n, b):
            drawn = [entry() for _ in range(b)]
            for row in rows[i:i + b]:
                rng.shuffle(drawn)
                row += drawn
    return Mat(n, n, tuple(e for row in rows for e in row))


def rand_const_scalar_block_mat(rng: random.Random, beta: int, b: int,
                                hi: int = 4) -> Mat:
    """beta x beta grid of b-square blocks c*ones + s*I with c, s natural."""
    grid = []
    for _ in range(beta):
        row = []
        for _ in range(beta):
            c, s = rng.randint(0, hi), rng.randint(0, hi)
            row.append(Mat.constant(c, b) + Mat.identity(b).scale(s))
        grid.append(row)
    return Mat.from_blocks(grid)


def uniform_interp(rng: random.Random, max_dim: int = 3, hi: int = 4) -> Interpretation:
    """The acceptance corpus: one unary matrix per symbol of the f/g system."""
    d = rng.randint(1, max_dim)
    table = {
        s: LinearFunc((rand_nat_mat(rng, d, d, hi),), rand_nat_mat(rng, d, 1, hi))
        for s in ("f", "g", "f#")
    }
    return Interpretation(BlockShape(d, 1), "natural", table)


def mixed_interp(rng: random.Random) -> Interpretation:
    """Corpus biased to include satisfying instances of all three kinds."""
    kind = rng.randrange(3)
    if kind == 0:
        return uniform_interp(rng)
    if kind == 1:
        d = rng.randint(1, 3)
        g = Mat(d, d, tuple(rng.randint(0, 1) if j > i else 0
                            for i in range(d) for j in range(d)))
        f = Mat(d, d, tuple(1 + rng.randint(0, 2) for _ in range(d * d)))
        sharp = Mat(d, d, tuple(1 if i <= j else 0
                                for i in range(d) for j in range(d)))
        table = {"f": LinearFunc((f,), Mat.constant(rng.randint(1, 3), d, 1)),
                 "g": LinearFunc((g,), Mat.zero(d, 1)),
                 "f#": LinearFunc((sharp,), Mat.zero(d, 1))}
        return Interpretation(BlockShape(d, 1), "natural", table)
    f = parse_matrix("[1 1 ; 1 1]") + Mat(2, 2, tuple(rng.randint(0, 1) for _ in range(4)))
    table = {"f": LinearFunc((f,), Mat.column([1 + rng.randint(0, 2)] * 2)),
             "g": LinearFunc((parse_matrix("[0 1 ; 0 0]"),), Mat.zero(2, 1)),
             "f#": LinearFunc((parse_matrix("[1 1 ; 0 1]"),), Mat.zero(2, 1))}
    return Interpretation(BlockShape(2, 1), "natural", table)

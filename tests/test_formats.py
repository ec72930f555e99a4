"""The line formats read by ``matrix.read_lines``: interpretations,
parametric interpretations, valuations and encodings.

Valid files of all four formats, drawn with varied spacing, tabs, glued
``=`` and ``:``, comments, blank lines and sharp names, parse to what the
reference parsers (one line loop each) return. Malformed lines name their
line once and the form they should have."""

import pytest
from hypothesis import given, settings, strategies as st

import _reference as ref
from matint import (ConstraintError, EncodingError, InterpError, parse_encoding,
                    parse_interpretation, parse_pinterp, parse_valuation)
from matint.matrix import LineError, line_kinds, read_lines

GAP = st.sampled_from([" ", "\t", "  ", " \t "])           # whitespace the format needs
PAD = st.sampled_from(["", "", " ", "\t", "  "])            # whitespace it allows
NAMES = st.from_regex(r"[a-zA-Z_][a-zA-Z0-9_'#]{0,3}", fullmatch=True)


@st.composite
def _line(draw, body):
    """``body`` indented, maybe with a trailing comment, maybe after
    comment and blank lines."""
    before = draw(st.lists(st.sampled_from(["", "   ", "\t", "# note", "  #: = | #"]),
                           max_size=2))
    comment = draw(st.sampled_from(["", "", " # a comment", "\t#", "  # f# : = [ ]"]))
    return [*before, draw(PAD) + body + draw(PAD) + comment]


def _file(draw, lines):
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


def _entry(draw, rational):
    if rational and draw(st.booleans()):
        return f"{draw(st.integers(0, 9))}/{draw(st.integers(1, 9))}"
    return str(draw(st.integers(0, 12)))


def _literal(draw, rows, cols, rational=False, pool=None):
    """A matrix literal with varied spacing; from ``pool`` (texts drawn
    before) now and then, so that equal texts occur."""
    if pool and draw(st.booleans()):
        return draw(st.sampled_from(pool))
    body = (draw(PAD) + ";" + draw(PAD)).join(
        draw(GAP).join(_entry(draw, rational) for _ in range(cols)) for _ in range(rows))
    return "[" + draw(PAD) + body + draw(PAD) + "]"


@st.composite
def _interpretation_files(draw):
    dim = draw(st.integers(1, 3))
    domain = draw(st.sampled_from(["natural", "rational"]))
    rational = domain == "rational"
    headers = [f"domain{draw(GAP)}{domain}", f"dim{draw(GAP)}{dim}"]
    if draw(st.booleans()):
        headers.append(f"block{draw(GAP)}1")
    if draw(st.booleans()):
        headers.append(f"delta{draw(GAP)}{draw(st.integers(1, 5))}/{draw(st.integers(1, 5))}")
    lines = []
    for header in draw(st.permutations(headers)):
        lines += draw(_line(header))
    pool = {1: [], dim: []}
    for symbol in draw(st.lists(NAMES, max_size=4, unique=True)):
        arity = draw(st.integers(0, 3))
        lines += draw(_line(f"interp{draw(GAP)}{symbol}{draw(PAD)}:{draw(PAD)}{arity}"))
        # the format takes C anywhere among the M lines, which come in order
        body = [("M" + str(k), dim) for k in range(1, arity + 1)]
        body.insert(draw(st.integers(0, arity)), ("C", 1))
        for key, cols in body:
            text = _literal(draw, dim, cols, rational, pool[cols])
            pool[cols].append(text)
            lines += draw(_line(f"{key}{draw(GAP)}={draw(PAD)}{text}"))
    return _file(draw, lines)


@st.composite
def _pinterp_files(draw):
    symbols = draw(st.lists(NAMES, max_size=4, unique=True))
    params = iter(draw(st.lists(NAMES.filter(lambda n: n not in ("0", "1")),
                                min_size=4 * len(symbols), max_size=4 * len(symbols),
                                unique=True)))
    lines = []
    for symbol in symbols:
        arity = draw(st.integers(0, 3))
        coeffs = draw(GAP).join(next(params) for _ in range(arity))
        lines += draw(_line(f"pinterp{draw(GAP)}{symbol}{draw(PAD)}:{draw(PAD)}{arity}"
                            f"{draw(PAD)}={draw(PAD)}{coeffs}{draw(PAD)}|{draw(PAD)}"
                            f"{next(params)}"))
    return _file(draw, lines)


@st.composite
def _valuation_files(draw):
    lines = []
    for name in draw(st.lists(NAMES, max_size=6, unique=True)):
        value = draw(st.sampled_from(["3", "0", "1/2", "4/6", "12"]))
        lines += draw(_line(f"param{draw(GAP)}{name}{draw(PAD)}={draw(PAD)}{value}"))
    return _file(draw, lines)


@st.composite
def _encoding_files(draw):
    dim = draw(st.integers(1, 3))
    lines = draw(_line(f"encoding{draw(GAP)}dim{draw(GAP)}{dim}"))
    values = draw(st.lists(st.fractions(0, 1, max_denominator=12).filter(lambda v: 0 < v < 1),
                           max_size=4, unique=True))
    for value in values:
        text = f"{value.numerator}/{value.denominator}"
        lines += draw(_line(f"value{draw(GAP)}{text}{draw(PAD)}={draw(PAD)}"
                            f"{_literal(draw, dim, dim)}"))
    return _file(draw, lines)


def _shared(interp):
    """Which matrices of the table are one object: each matrix's index of
    the first matrix that is it."""
    mats = [m for f in interp.table.values() for m in (*f.mats, f.const)]
    return [next(i for i, first in enumerate(mats) if first is m) for m in mats]


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_interpretation_files())
def test_interpretation_files_parse_as_the_reference_parses(text):
    new, old = parse_interpretation(text), ref.parse_interpretation(text)
    assert new == old and list(new.table) == list(old.table)
    assert _shared(new) == _shared(old)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_pinterp_files())
def test_pinterp_files_parse_as_the_reference_parses(text):
    assert parse_pinterp(text) == ref.parse_pinterp(text)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_valuation_files())
def test_valuation_files_parse_as_the_reference_parses(text):
    assert parse_valuation(text) == ref.parse_valuation(text)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_encoding_files())
def test_encoding_files_parse_as_the_reference_parses(text):
    new, old = parse_encoding(text), ref.parse_encoding(text)
    assert (new.dim, new.table) == (old.dim, old.table)


# the malformed lines that tests/test_cli.py does not already run through main
@pytest.mark.parametrize("parse, error, text, message", [
    # a header's bad value keeps its line
    (parse_interpretation, InterpError, "domain natural\ndim 1\n\ndelta 1/0\n",
     "line 4: bad rational literal '1/0': expected '<int>' or '<p>/<q>' with q nonzero"),
    # lines that fit no form name the form, or every form of the format
    (parse_interpretation, InterpError, "delta\n", "line 1: expected 'delta <p>/<q>'"),
    (parse_valuation, ConstraintError, "x = 1\n", "line 1: expected 'param <name> = <value>'"),
    (parse_encoding, EncodingError, "encoding dim 1\nvalue 1/2\n",
     "line 2: expected 'value <p>/<q> = <matrix literal>'"),
    (parse_encoding, EncodingError, "encoding dim 1\nvalues\n",
     "line 2: expected 'encoding dim <n>' or 'value <p>/<q> = <matrix literal>'"),
], ids=["bad-delta", "delta-without-value", "no-keyword", "value-without-=",
        "unknown-keyword"])
def test_malformed_lines_name_their_line_once(parse, error, text, message):
    with pytest.raises(error) as caught:
        parse(text)
    assert str(caught.value) == message


def test_read_lines_reads_each_kind_and_prefixes_each_error_once():
    grammar = line_kinds((("key", "key <n>", r"key\s+([0-9]+)"), ("end", "end", r"end")))
    seen = []

    def handle(lineno, keyword, *groups):
        seen.append((lineno, keyword, groups))
        if groups == ("0",):
            raise ValueError("zero")

    read_lines("key 1 # one\n\n  end\n#\nkey\t2", grammar, handle, InterpError)
    assert seen == [(1, "key", ("1",)), (3, "end", ()), (5, "key", ("2",))]
    with pytest.raises(InterpError, match=r"^line 2: zero$"):
        read_lines("key 1\nkey 0\n", grammar, handle, InterpError)

    def end():
        raise LineError(1, "late")

    with pytest.raises(InterpError, match=r"^line 1: late$"):
        read_lines("key 1\n\n", grammar, handle, InterpError, end)


@pytest.mark.parametrize("parse, text", [
    (parse_interpretation, "interp " + "a" * 10**6),
    (parse_interpretation, "M1 " + " 1" * 10**6),
    (parse_pinterp, "pinterp f : 1 = " + "a " * 10**6),
    (parse_valuation, "param " + "p" * 10**6),
    (parse_encoding, "encoding dim 1\nvalue" + " " * 10**6 + "1"),
], ids=["interp", "M", "pinterp", "param", "value"])
def test_long_malformed_lines_are_refused_in_linear_time(parse, text):
    # a backtracking pattern would take some 10^12 steps on these lines
    with pytest.raises(ValueError, match="expected"):
        parse(text)

import argparse
import ast
import importlib
import importlib.util
import io
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from matint import (BlockShape, Interpretation, LinearFunc, Mat, format_interpretation,
                    interp_to_bits, parse_interpretation, parse_pinterp, parse_trs)
from matint.cli import main
from matint.encoding import CATALOG_NAMES
from matint.represent import lift_factors
import matint.interp as interp_module
from _helpers import DATA, example_one, read

EX1 = str(DATA / "fg.trs")
EX2 = str(DATA / "fg-natural.interp")
EX1R = str(DATA / "fg-rational.interp")
PI = str(DATA / "fg-params.pi")
ETA = str(DATA / "fg-rational.val")
ENDR_TRS = str(DATA / "relative.trs")
ENDR_INT = str(DATA / "relative.interp")
PAIRS = str(DATA / "fg-pairs.trs")
SRC = DATA.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_example_two_entrywise(capsys):
    code, out, _ = run(capsys, "check", "--trs", EX1, "--pairs", "auto",
                       "--interp", EX2, "--backend", "entrywise")
    assert code == 0
    assert out.strip().endswith("RESULT: SATISFIED")
    assert out.count("HOLDS") == 4


def test_check_value_backend_with_flags(capsys):
    code, out, _ = run(capsys, "check", "--trs", EX1, "--pairs", "auto",
                       "--interp", EX1R, "--backend", "value", "--delta", "1/2")
    assert code == 0
    assert "m 1, delta 1/2" in out


def test_check_explicit_pairs_file(capsys):
    code, out, _ = run(capsys, "check", "--trs", EX1, "--pairs", PAIRS,
                       "--interp", EX2, "--backend", "entrywise")
    assert code == 0 and "2 pair(s)" in out


def test_check_violated_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.interp"
    bad.write_text(
        "domain natural\ndim 1\nblock 1\n"
        "interp f : 1\n  M1 = [1]\n  C = [0]\n"
        "interp g : 1\n  M1 = [1]\n  C = [1]\n"
        "interp f# : 1\n  M1 = [1]\n  C = [0]\n", encoding="utf-8")
    code, out, _ = run(capsys, "check", "--trs", EX1, "--pairs", "auto",
                       "--interp", str(bad))
    assert code == 1
    assert "RESULT: VIOLATED" in out
    assert "FAILS" in out


def test_check_missing_interp_usage_error(capsys):
    code, _, err = run(capsys, "check", "--trs", EX1)
    assert code == 2


def test_check_parse_error_names_file_and_line(capsys, tmp_path):
    bad = tmp_path / "broken.trs"
    bad.write_text("(VAR x)\n(RULES x -> f(x))\n", encoding="utf-8")
    code, _, err = run(capsys, "check", "--trs", str(bad), "--interp", EX2)
    assert code == 2
    assert "broken.trs" in err and "line 2" in err


FILE_OPTIONS = (("check", "--trs", EX1, "--pairs", PAIRS, "--interp", EX2),
                ("eval-valuation", "--trs", EX1, "--pinterp", PI, "--valuation", ETA),
                ("validate-encoding", "--encoding", "half"))


@pytest.mark.parametrize("option", ["--trs", "--pairs", "--interp", "--pinterp",
                                    "--valuation", "--encoding"])
def test_non_utf8_input_is_a_usage_error(capsys, tmp_path, option):
    """A file that is not UTF-8, given to any file option, exits 2 with an
    error that names the file, and no traceback."""
    bad = tmp_path / "bad.in"
    bad.write_bytes(b"\xff\xfe")
    argv = list(next(argv for argv in FILE_OPTIONS if option in argv))
    argv[argv.index(option) + 1] = str(bad)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {option[2:]} {bad}: 'utf-8' codec can't decode")


def test_check_arity_mismatch_with_trs(capsys):
    # one check against the TRS and its pairs, for interp and pinterp alike
    code, out, err = run(capsys, "check", "--trs", ENDR_TRS, "--interp", EX2)
    assert (code, out, err) == (2, "", f"error: interp {EX2}: symbol 'f' has arity 3 "
                                       "in the TRS but 1 argument matrices\n")
    code, out, err = run(capsys, "gen-constraints", "--trs", ENDR_TRS, "--pinterp", PI)
    assert (code, out, err) == (2, "", f"error: pinterp {PI}: symbol 'f' has arity 3 "
                                       "in the TRS but 1 coefficient parameters\n")


def test_check_uninterpreted_symbol(capsys, tmp_path):
    partial = tmp_path / "partial.interp"
    partial.write_text("domain natural\ndim 1\nblock 1\n"
                       "interp f : 1\n  M1 = [1]\n  C = [0]\n", encoding="utf-8")
    code, out, err = run(capsys, "check", "--trs", EX1, "--pairs", "auto",
                         "--interp", str(partial))
    assert (code, out, err) == (2, "", f"error: interp {partial}: symbol 'g' of the TRS "
                                       "is uninterpreted\n")


@pytest.mark.parametrize("tail", [
    ("gen-constraints",),
    ("eval-valuation", "--valuation", ETA),
    ("compat", "--valuation", ETA, "--encoding", "half"),
    ("expand", "--valuation", ETA, "--encoding", "half"),
])
def test_pinterp_arity_mismatch_is_an_input_error(capsys, tmp_path, tail):
    # g : 0 under g(f(x)) once gave constraints that had lost the x under g
    bad = tmp_path / "bad.pi"
    bad.write_text("pinterp f : 1 = f1 | f0\npinterp g : 0 = | g0\n"
                   "pinterp f# : 1 = F1 | F0\n", encoding="utf-8")
    code, out, err = run(capsys, tail[0], "--trs", EX1, "--pairs", "auto",
                         "--pinterp", str(bad), *tail[1:])
    assert (code, out) == (2, "")
    assert err == (f"error: pinterp {bad}: symbol 'g' has arity 1 in the TRS but "
                   "0 coefficient parameters\n")


_PAIRS_REPROS = {
    # TRS f(x) -> x; interp and pinterp cover f and F only
    "check-unknown": ("F(h(x))", ("check", "--interp", "i"), "interp i",
                      "symbol 'h' of the pairs is uninterpreted"),
    "gen-constraints-unknown": ("F(h(x))", ("gen-constraints", "--pinterp", "p"),
                                "pinterp p", "symbol 'h' of the pairs is uninterpreted"),
    "to-blocks-unknown": ("F(h(x))", ("to-blocks", "--factor", "2", "--interp", "i"),
                          "interp i", "symbol 'h' of the pairs is uninterpreted"),
    "check-arity": ("F(f(x,x))", ("check", "--interp", "i"), "pairs pairs",
                    "symbol 'f' has arity 1 in the TRS but is used with 2 argument(s)"),
    "gen-constraints-arity": ("F(f(x,x))", ("gen-constraints", "--pinterp", "p"),
                              "pairs pairs", "symbol 'f' has arity 1 in the TRS but is "
                                             "used with 2 argument(s)"),
}


@pytest.mark.parametrize("rhs, argv, source, problem", _PAIRS_REPROS.values(),
                         ids=_PAIRS_REPROS)
def test_pairs_file_symbols_are_checked_at_load(capsys, tmp_path, rhs, argv, source, problem):
    """A pairs file's own symbols join the signature that --interp and
    --pinterp must cover, so a fault exits 2 before any report line,
    naming the file at fault."""
    files = {"trs": "(VAR x)\n(RULES f(x) -> x)\n",
             "pairs": f"(VAR x)\n(RULES F(x) -> {rhs})\n",
             "i": "domain natural\ndim 1\ninterp f : 1\n  M1 = [1]\n  C = [1]\n"
                  "interp F : 1\n  M1 = [1]\n  C = [1]\n",
             "p": "pinterp f : 1 = f1 | f0\npinterp F : 1 = F1 | F0\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    path = lambda arg: str(tmp_path / arg) if arg in files else arg
    code, out, err = run(capsys, *map(path, argv), "--trs", path("trs"),
                         "--pairs", path("pairs"))
    what, name = source.split()
    assert (code, out, err) == (2, "", f"error: {what} {path(name)}: {problem}\n")


def test_auto_pairs_at_another_arity_name_the_pairs(capsys, tmp_path):
    """--pairs auto adds its root symbols to the signature as a pairs file
    does, so a clash with the TRS exits 2 before any report line, naming
    the pairs, whatever the interpretation says."""
    trs, interp = tmp_path / "sharp.trs", tmp_path / "sharp.interp"
    trs.write_text("(VAR x y)\n(RULES f(x) -> x  f#(x,y) -> f(x))\n", encoding="utf-8")
    interp.write_text("domain natural\ndim 1\ninterp f : 1\n  M1 = [1]\n  C = [1]\n"
                      "interp f# : 2\n  M1 = [1]\n  M2 = [1]\n  C = [1]\n"
                      "interp f## : 2\n  M1 = [1]\n  M2 = [1]\n  C = [1]\n",
                      encoding="utf-8")
    code, out, err = run(capsys, "check", "--trs", str(trs), "--pairs", "auto",
                         "--interp", str(interp))
    assert (code, out) == (2, "")
    assert err == ("error: pairs auto: symbol 'f#' has arity 2 in the TRS but is used "
                   "with 1 argument(s)\n")


@pytest.mark.parametrize("command", [("to-blocks",), ("to-bits",),
                                     ("expand", "--encoding", "half")])
def test_transforms_check_the_signature_before_any_report_line(capsys, command):
    code, out, err = run(capsys, *command, "--interp", EX2, "--trs", ENDR_TRS)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: interp {EX2}: symbol 'f' has arity 3 in the TRS")


def test_dps_output(capsys):
    code, out, _ = run(capsys, "dps", "--trs", EX1)
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "f#(f(x)) -> f#(g(f(x)))"
    assert lines[2] == "f#(f(x)) -> f#(x)"
    assert lines[-1] == "RESULT: OK"


def test_dps_legacy_names(capsys):
    code, out, _ = run(capsys, "dps", "--trs", EX1, "--legacy-names")
    assert code == 0
    assert "F(f(x)) -> F(g(f(x)))" in out
    assert "f#" not in out


def test_gen_constraints_lists_eight(capsys):
    code, out, _ = run(capsys, "gen-constraints", "--trs", EX1, "--pairs", "auto",
                       "--pinterp", PI)
    assert code == 0
    assert "# 8 arithmetic constraint(s)" in out
    assert "rule 2 / x: f1 g1 f1 >= 1" in out
    assert "pair 2 / const: F1 f0 + F0 > 0" in out


def test_eval_valuation_all_hold(capsys):
    code, out, _ = run(capsys, "eval-valuation", "--trs", EX1, "--pairs", "auto",
                       "--pinterp", PI, "--valuation", ETA, "--delta", "1/2")
    assert code == 0
    assert out.count("HOLDS") == 8
    assert "RESULT: SATISFIED" in out


def test_eval_valuation_violation(capsys, tmp_path):
    eta = tmp_path / "bad.val"
    eta.write_text("param f1 = 1\nparam f0 = 0\nparam g1 = 2\nparam g0 = 0\n"
                   "param F1 = 1\nparam F0 = 0\n", encoding="utf-8")
    code, out, _ = run(capsys, "eval-valuation", "--trs", EX1, "--pairs", "auto",
                       "--pinterp", PI, "--valuation", str(eta))
    assert code == 1
    assert "FAILS" in out


def test_eval_valuation_counts_the_rhs_words_rendered_against_0(capsys, tmp_path):
    """A strict constant part whose rhs words all recur on the lhs is
    written against 0, but its value is compared with those words' value:
    here [[f#(f(x))]] = x + 1 = [[f#(x)]], so the pair is not strict."""
    files = {"trs": "(VAR x)\n(RULES f(f(x)) -> f(x))\n",
             "pi": "pinterp f : 1 = f1 | f0\npinterp f# : 1 = g1 | g0\n",
             "val": "param f1 = 1\nparam f0 = 0\nparam g1 = 1\nparam g0 = 1\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "eval-valuation", "--trs", str(tmp_path / "trs"),
                       "--pairs", "auto", "--pinterp", str(tmp_path / "pi"),
                       "--valuation", str(tmp_path / "val"))
    assert code == 1
    assert "pair 1 / const: g1 f0 + g0 > 0 : 1 vs 1 : FAILS" in out.splitlines()
    assert out.endswith("RESULT: VIOLATED\n")


def test_to_blocks_writes_and_verifies(capsys, tmp_path):
    out_path = tmp_path / "lifted.interp"
    code, out, _ = run(capsys, "to-blocks", "--interp", ENDR_INT,
                       "--trs", ENDR_TRS, "--out", str(out_path))
    assert code == 0
    assert "# factor 2: dim 2 -> 4, block 1 -> 2" in out
    assert "# rho preserved: yes" in out
    assert "# agreement (equivalence): yes" in out
    assert "RESULT: VERIFIED" in out
    text = out_path.read_text(encoding="utf-8")
    assert "dim 4" in text and "block 2" in text


def test_to_blocks_already_bit(capsys):
    code, out, _ = run(capsys, "to-blocks", "--interp", EX2)
    assert code == 0
    assert "already bit-valued" in out


def test_lifts_refuse_what_they_cannot_make_bit(capsys, tmp_path):
    # a rational interpretation is no input of to-bits, even when it takes no
    # lift step; it exits as to-blocks does on it
    half = tmp_path / "half.interp"
    half.write_text("domain rational\ndim 1\nblock 1\n"
                    "interp f : 1\n  M1 = [1/2]\n  C = [0]\n", encoding="utf-8")
    code, out, err = run(capsys, "to-bits", "--interp", str(half))
    assert (code, out) == (2, "")
    assert err == "error: blockwise lift is defined for natural interpretations\n"
    assert run(capsys, "to-blocks", "--interp", str(half)) == (code, out, err)
    # factor 1 would leave relative.interp's entry 2 in place
    code, out, err = run(capsys, "to-blocks", "--interp", ENDR_INT, "--factor", "1")
    assert (code, out) == (2, "")
    assert "factor 1 leaves entries up to 2" in err


def test_to_bits_reports_trace(capsys, tmp_path):
    src = tmp_path / "wide.interp"
    src.write_text("domain natural\ndim 2\nblock 1\n"
                   "interp f : 1\n  M1 = [2 3 ; 0 1]\n  C = [0 ; 0]\n",
                   encoding="utf-8")
    code, out, _ = run(capsys, "to-bits", "--interp", str(src),
                       "--out", str(tmp_path / "bits.interp"))
    assert code == 0
    assert "# step: factor 3, dim 2 -> 6" in out
    assert "# step: factor 2, dim 6 -> 12" in out
    assert "# final scale 6" in out


def test_to_bits_at_dim_264_verifies_and_checks(capsys, tmp_path):
    """data/relative.interp with f's M2 = [1 12 ; 0 11] lifts to a dim-264
    bit interpretation; to-bits re-verifies it, and check reads it back with
    the verdicts, and the rho values, of the dim-2 source (a lift by 132
    scales m by 132 too)."""
    src, bits = tmp_path / "k12.interp", tmp_path / "k12.bits.interp"
    src.write_text(read("relative.interp").replace("M2 = [1 2 ; 0 0]",
                                                         "M2 = [1 12 ; 0 11]"),
                   encoding="utf-8")
    code, out, _ = run(capsys, "to-bits", "--interp", str(src), "--trs", ENDR_TRS,
                       "--out", str(bits))
    assert code == 0
    assert "# final scale 132, dim 264, max matrix entry 1" in out
    assert out.endswith("RESULT: VERIFIED\n")
    want = run(capsys, "check", "--trs", ENDR_TRS, "--interp", str(src))
    got = run(capsys, "check", "--trs", ENDR_TRS, "--interp", str(bits))
    assert got[0] == want[0] == 0 and got[2] == want[2] == ""
    assert "# check: backend value, dim 264, block 132" in got[1]
    verdicts = [[line for line in out.splitlines() if not line.startswith("#")]
                for _, out, _ in (want, got)]
    assert verdicts[0] == verdicts[1] and verdicts[0][-1] == "RESULT: SATISFIED"


def test_to_bits_at_dim_480_checks_at_the_source_dimension(capsys, tmp_path, monkeypatch):
    """data/relative.interp with f's M2 = [1 16 ; 0 15] lifts to a dim-480
    bit interpretation of block 240. to-bits re-verifies it, and check
    reads it back under both backends with the dim-2 source's verdicts
    (and, for the value backend, its rho values). Every form and every
    compiled matrix is at most 2 wide: the checks run on the quotient."""
    src, bits = tmp_path / "k16.interp", tmp_path / "k16.bits.interp"
    src.write_text(read("relative.interp").replace("M2 = [1 2 ; 0 0]",
                                                         "M2 = [1 16 ; 0 15]"),
                   encoding="utf-8")
    form, columns = interp_module.LinearForm, interp_module._columns

    def narrow_form(dim, coeffs, const):
        assert dim <= 2, f"a form of dimension {dim}"
        return form(dim, coeffs, const)

    def narrow_columns(mat):
        assert mat.cols <= 2, f"a {mat.rows}x{mat.cols} matrix compiled"
        return columns(mat)

    monkeypatch.setattr(interp_module, "LinearForm", narrow_form)
    monkeypatch.setattr(interp_module, "_columns", narrow_columns)
    code, out, _ = run(capsys, "to-bits", "--interp", str(src), "--trs", ENDR_TRS,
                       "--out", str(bits))
    assert code == 0
    assert "# final scale 240, dim 480, max matrix entry 1" in out
    assert out.endswith("RESULT: VERIFIED\n")
    for backend in ("value", "entrywise"):
        want = run(capsys, "check", "--trs", ENDR_TRS, "--interp", str(src),
                   "--backend", backend)
        got = run(capsys, "check", "--trs", ENDR_TRS, "--interp", str(bits),
                  "--backend", backend)
        assert got[0] == want[0] == 0 and got[2] == want[2] == ""
        assert f"# check: backend {backend}, dim 480, block 240" in got[1]
        lines = [[line for line in out.splitlines() if not line.startswith("#")]
                 for _, out, _ in (want, got)]
        if backend == "value":
            assert lines[0] == lines[1]
        # entrywise constants print at the file's dimension
        assert [line.split(" | ")[0] for line in lines[0]] == \
            [line.split(" | ")[0] for line in lines[1]]
        assert lines[1][-1] == "RESULT: SATISFIED"


def test_expand_pipeline_end_to_end(capsys, tmp_path):
    nat = tmp_path / "nat.interp"
    code, out, _ = run(capsys, "expand", "--valuation", ETA, "--pinterp", PI,
                       "--trs", EX1, "--pairs", "auto", "--encoding", "half",
                       "--out", str(nat), "--delta", "1/2")
    assert code == 0
    assert "# required products: 1/2" in out
    assert "# encoding compatible: yes" in out
    assert "RESULT: VERIFIED" in out
    code, out, _ = run(capsys, "check", "--trs", EX1, "--pairs", "auto",
                       "--interp", str(nat), "--backend", "value", "--delta", "1/2")
    assert code == 0
    assert "RESULT: SATISFIED" in out
    # the expanded interpretation fails pair 1 under the entrywise backend
    code, out, _ = run(capsys, "check", "--trs", EX1, "--pairs", "auto",
                       "--interp", str(nat), "--backend", "entrywise")
    assert code == 1


def test_expand_parses_each_input_once(capsys, tmp_path, monkeypatch):
    import matint.cli as cli
    parsed = []
    for name in ("parse_trs", "parse_pinterp", "parse_valuation"):
        def counting(text, _parse=getattr(cli, name), _name=name):
            parsed.append(_name)
            return _parse(text)
        monkeypatch.setattr(cli, name, counting)
    code, out, _ = run(capsys, "expand", "--valuation", ETA, "--pinterp", PI,
                       "--trs", EX1, "--pairs", "auto", "--encoding", "half",
                       "--out", str(tmp_path / "nat.interp"), "--delta", "1/2")
    assert code == 0 and "RESULT: VERIFIED" in out
    assert sorted(parsed) == ["parse_pinterp", "parse_trs", "parse_valuation"]


def test_expand_incompatible_constraint_set(capsys, tmp_path):
    trs = tmp_path / "cprime.trs"
    # an extra rule whose word f1 g1 f1 g1 demands the product 1/4
    trs.write_text("(VAR x)\n(RULES\n  f(f(x)) -> f(g(f(x)))\n"
                   "  f(g(f(x))) -> x\n  f(g(f(x))) -> f(g(f(g(f(x)))))\n)\n",
                   encoding="utf-8")
    code, out, _ = run(capsys, "expand", "--valuation", ETA, "--pinterp", PI,
                       "--trs", str(trs), "--encoding", "half",
                       "--out", str(tmp_path / "nope.interp"))
    assert code == 1
    assert "# encoding compatible: NO" in out
    assert "# missing products: 1/4" in out
    assert "RESULT: INCOMPATIBLE" in out
    assert not (tmp_path / "nope.interp").exists()


def test_expand_without_context_warns(capsys, tmp_path):
    code, out, _ = run(capsys, "expand", "--interp", EX1R, "--encoding", "half",
                       "--out", str(tmp_path / "nat.interp"))
    assert code == 0
    assert "compatibility not checked" in out


@pytest.mark.parametrize("values, message", [
    ("", "g: entry 1/2 is neither natural nor encoded"),
    ("value 1/2 = [1 1 ; 0 1]\n", "wrong values: 1/2"),
], ids=["not-encoded", "invalid"])
def test_expand_without_context_names_a_bad_encoding(capsys, tmp_path, values, message):
    # the plan's first fault is an input error, before the first report line
    enc = tmp_path / "bad.enc"
    enc.write_text("encoding dim 2\n" + values, encoding="utf-8")
    code, out, err = run(capsys, "expand", "--interp", EX1R, "--encoding", str(enc))
    assert (code, out) == (2, "")
    assert err == f"error: encoding {enc}: {message}\n"


def test_expand_without_context_checks_no_product_of_entries(capsys, tmp_path):
    # E(1/2) and E(1/4) have the right values, but E(1/2)·E(1/2) has value 0;
    # without a constraint context no product is required, so expand builds
    # the expansion and says that compatibility was not checked
    enc = tmp_path / "bad.enc"
    enc.write_text("encoding dim 4\n"
                   "value 1/2 = [0 1 0 0 ; 0 0 0 0 ; 0 0 0 1 ; 0 0 0 0]\n"
                   "value 1/4 = [0 1 0 0 ; 0 0 0 0 ; 0 0 0 0 ; 0 0 0 0]\n", encoding="utf-8")
    code, out, err = run(capsys, "expand", "--interp", EX1R, "--encoding", str(enc))
    assert (code, err) == (0, "")
    assert out.startswith("# no constraint context given; compatibility not checked\n")
    code, out, _ = run(capsys, "validate-encoding", "--encoding", str(enc))
    assert code == 1 and "product 1/2 * 1/2: value WRONG, closed no" in out


def test_expand_ignores_a_wrong_value_nothing_uses(capsys, tmp_path):
    # 1/2, the one required product and the one rational entry, is right;
    # 1/3 is wrong, but nothing uses it, so only validate-encoding names it
    enc = tmp_path / "bad.enc"
    enc.write_text("encoding dim 2\nvalue 1/2 = [0 1 ; 0 0]\nvalue 1/3 = [1 1 ; 0 1]\n",
                   encoding="utf-8")
    code, out, err = run(capsys, "expand", "--trs", EX1, "--pinterp", PI,
                         "--valuation", ETA, "--encoding", str(enc))
    assert (code, err) == (0, "")
    assert out.startswith("# required products: 1/2\n# encoding compatible: yes\n")
    assert out.endswith("RESULT: VERIFIED\n")
    code, out, _ = run(capsys, "validate-encoding", "--encoding", str(enc))
    assert code == 1 and "value 1/3: rho 3/2 WRONG" in out


@pytest.mark.parametrize("case", ["unused-symbol", "wrong-value", "unbound-parameter"])
def test_compat_and_expand_print_the_same_incompatible_report(capsys, tmp_path, case):
    """A fault of the plan is the same INCOMPATIBLE report in compat and
    expand, which writes no --out: an entry of a symbol no rule uses that
    the encoding lacks, or a used key whose value is wrong. An unbound
    parameter of a symbol no rule uses is the same input error in both."""
    pi, val, enc = PI, ETA, "half"
    if case != "wrong-value":
        pi, val = tmp_path / "h.pi", tmp_path / "h.val"
        pi.write_text(read("fg-params.pi") + "pinterp h : 1 = h1 | h0\n", encoding="utf-8")
        bound = "param h1 = 1/3\n" if case == "unused-symbol" else ""
        val.write_text(read("fg-rational.val") + bound + "param h0 = 0\n", encoding="utf-8")
        fault = "# h: entry 1/3 is neither natural nor encoded\n"
    else:
        enc = tmp_path / "bad.enc"
        enc.write_text("encoding dim 2\nvalue 1/2 = [1 1 ; 0 1]\n", encoding="utf-8")
        fault = "# wrong values: 1/2\n"
    context = ("--trs", EX1, "--pairs", "auto", "--pinterp", str(pi), "--valuation", str(val),
               "--encoding", str(enc))
    nat = tmp_path / "nat.interp"
    if case == "unbound-parameter":
        for cmd in ("compat", "expand"):
            assert run(capsys, cmd, *context) == (2, "", "error: unbound parameter 'h1'\n")
        return
    code, out, err = run(capsys, "compat", *context)
    assert (code, err) == (1, "")
    assert out.endswith("product 1/2: encoded\n" + fault + "RESULT: INCOMPATIBLE\n")
    code, out, err = run(capsys, "expand", *context, "--out", str(nat))
    assert (code, err) == (1, "")
    assert out == ("# required products: 1/2\n# encoding compatible: NO\n" + fault
                   + "RESULT: INCOMPATIBLE\n")
    assert not nat.exists()


def test_compat_and_expand_validate_once(capsys, tmp_path, monkeypatch):
    """Each call validates the encoding once, in its expansion plan, also
    when it names a non-closed pair."""
    import matint.encoding as encoding
    calls = []

    def counting(*args, _validate=encoding.validate, **kwargs):
        calls.append(args)
        return _validate(*args, **kwargs)
    monkeypatch.setattr(encoding, "validate", counting)
    enc, pi, val, trs = (tmp_path / name for name in ("nc.enc", "nc.pi", "nc.val", "nc.trs"))
    _non_closed_files(enc, pi, val, trs)
    non_closed = ("--trs", str(trs), "--pinterp", str(pi), "--valuation", str(val),
                  "--encoding", str(enc))
    context = ("--trs", EX1, "--pairs", "auto", "--pinterp", PI, "--valuation", ETA,
               "--encoding", "half")
    for argv, code in [(("compat", *context), 0), (("expand", *context), 0),
                       (("compat", *non_closed), 1), (("expand", *non_closed), 1),
                       (("expand", "--interp", EX1R, "--encoding", "half"), 0)]:
        calls.clear()
        assert run(capsys, *argv)[0] == code, argv
        assert len(calls) == 1, argv


@pytest.mark.parametrize("pairs", ["auto", "/nonexistent"])
@pytest.mark.parametrize("argv", [("to-blocks", "--interp", ENDR_INT),
                                  ("to-bits", "--interp", ENDR_INT),
                                  ("expand", "--interp", EX1R, "--encoding", "half")],
                         ids=["to-blocks", "to-bits", "expand"])
def test_pairs_without_trs_is_an_input_error(capsys, argv, pairs):
    # without --trs nothing would read the pairs
    assert run(capsys, *argv, "--pairs", pairs) == (2, "", "error: --pairs needs --trs\n")


_RULES = ("f(f(x)) -> f(g(f(x)))", "f(g(f(x))) -> x", "g(x) -> f(x)", "g(g(x)) -> x",
          "f(h(x)) -> h(x)")
# naturals weigh three to one, so that some required sets fit an encoding
_VALUES = (0, 1, 2) * 5 + ("1/2", "1/3", "1/4", "1/6", "1/8")


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(_RULES), min_size=1, max_size=2, unique=True),
       st.lists(st.sampled_from(_VALUES), min_size=6, max_size=6),
       st.sampled_from(CATALOG_NAMES))
def test_compat_and_expand_agree(rules, values, enc):
    """compat and expand render one plan: on dim-1 valuations over f, g and
    h, which some rules leave unused, they print the same required
    products, say compatible alike, and an INCOMPATIBLE compat is an
    INCOMPATIBLE expand that writes nothing. VERIFIED is not asserted:
    a compatible encoding can still give DISAGREEMENT."""
    with tempfile.TemporaryDirectory() as work:
        files = {"r.trs": "(VAR x)\n(RULES\n" + "\n".join(rules) + "\n)\n",
                 "p.pi": "".join(f"pinterp {s} : 1 = {s}1 | {s}0\n" for s in "fgh"),
                 "v.val": "".join(f"param {s}{k} = {values[2 * i + k]}\n"
                                  for i, s in enumerate("fgh") for k in (0, 1))}
        for name, text in files.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        context = ["--trs", os.path.join(work, "r.trs"), "--pinterp", os.path.join(work, "p.pi"),
                   "--valuation", os.path.join(work, "v.val"), "--encoding", enc]
        out_file = os.path.join(work, "nat.interp")
        outs = []
        for argv in (["compat", *context], ["expand", *context, "--out", out_file]):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                outs.append((main(argv), out.getvalue().splitlines(), err.getvalue()))
        (compat, c_lines, c_err), (expand, e_lines, e_err) = outs
        assert compat in (0, 1) and c_err == "" and e_err == ""
        assert e_lines[0] == c_lines[0] and e_lines[0].startswith("# required products:")
        assert e_lines[1] == f"# encoding compatible: {'yes' if compat == 0 else 'NO'}"
        if compat == 0:
            assert expand != 2
        else:
            assert (expand, e_lines[-1]) == (1, "RESULT: INCOMPATIBLE")
            assert not os.path.exists(out_file)
            # the same faults, apart from the missing products each lists its own way
            faults = [line for line in c_lines[2:] if line.startswith("# ")
                      and not line.startswith("# encoding keys")]
            assert faults == [line for line in e_lines[2:-1]
                              if not line.startswith("# missing products")]


@pytest.mark.parametrize("sources", [
    ("--interp", EX1R, "--trs", EX1, "--pairs", "auto", "--pinterp", PI, "--valuation", "V"),
    ("--interp", EX1R, "--pinterp", PI, "--valuation", "V"),
    ("--interp", EX1R, "--valuation", "V"),
    ("--pinterp", PI),
    (),
], ids=["interp-and-context", "interp-and-parametric", "interp-and-valuation",
        "pinterp-alone", "none"])
def test_expand_reads_one_rational_source(capsys, tmp_path, sources):
    """expand expands --interp, or the valuation of --pinterp; given both,
    or neither, it exits 2 before any report line. V values g at 1/3,
    which half does not encode, so a verdict about V would be INCOMPATIBLE."""
    val = tmp_path / "V"
    val.write_text(read("fg-rational.val").replace("= 1/2", "= 1/3"), encoding="utf-8")
    argv = [str(val) if arg == "V" else arg for arg in sources]
    code, out, err = run(capsys, "expand", *argv, "--encoding", "half")
    assert (code, out) == (2, "")
    assert err == ("error: expand needs --interp, or --pinterp with --valuation, "
                   "not both\n")


def test_validate_encoding_catalog(capsys):
    code, out, _ = run(capsys, "validate-encoding", "--encoding", "sixths")
    assert code == 0
    assert "RESULT: VALID" in out
    assert "product 1/2 * 1/3: value ok, closed yes" in out


def test_validate_encoding_unit_spellings(capsys, tmp_path, monkeypatch):
    # unit:n and unit(n) name the catalog's unit encoding; an unbalanced
    # spelling is no catalog name, and no file of that name exists here
    monkeypatch.chdir(tmp_path)
    for spec in ("unit:3", "unit(3)"):
        code, out, _ = run(capsys, "validate-encoding", "--encoding", spec)
        assert code == 0 and "RESULT: VALID" in out, spec
    for spec in ("unit(3", "unit:3)"):
        code, out, err = run(capsys, "validate-encoding", "--encoding", spec)
        assert code == 2 and out == "", spec
        assert f"{spec!r} is neither a catalog encoding nor a readable file" in err


def test_validate_encoding_invalid(capsys, tmp_path):
    enc = tmp_path / "bad.enc"
    enc.write_text("encoding dim 2\nvalue 1/2 = [1 1 ; 0 0]\n", encoding="utf-8")
    code, out, _ = run(capsys, "validate-encoding", "--encoding", str(enc))
    assert code == 1
    assert "RESULT: INVALID" in out


def test_encoding_value_line_without_a_value_exits_2(capsys, tmp_path):
    """A value line with nothing before its '=' names the line and the form
    it expects, and exits 2 with no traceback."""
    for line in ("value = [0 1 ; 0 0]", "value=[0 1 ; 0 0]"):
        enc = tmp_path / "novalue.enc"
        enc.write_text(f"encoding dim 2\n{line}\n", encoding="utf-8")
        code, out, err = run(capsys, "validate-encoding", "--encoding", str(enc))
        assert code == 2 and out == "", line
        assert err == (f"error: encoding {enc}: line 2: expected "
                       f"'value <p>/<q> = <matrix literal>'\n")


def test_compat_reports(capsys):
    code, out, _ = run(capsys, "compat", "--trs", EX1, "--pairs", "auto",
                       "--pinterp", PI, "--valuation", ETA, "--encoding", "half")
    assert code == 0
    assert "product 1/2: encoded" in out
    assert "RESULT: COMPATIBLE" in out
    code, out, _ = run(capsys, "compat", "--trs", EX1, "--pairs", "auto",
                       "--pinterp", PI, "--valuation", ETA, "--encoding", "unit:3")
    assert code == 1
    assert "RESULT: INCOMPATIBLE" in out


def _non_closed_files(enc, pi, val, trs):
    """A dim-8 encoding whose pair products have the right values but are not
    closed: E(1/2)·E(1/2) != E(1/4), and rho(E(1/2)^3) = 0, not 1/8; and a
    context whose required products are 1/8, 1/4 and 1/2."""
    ones = {"1/2": [(2, 1), (2, 8), (3, 2), (5, 1)], "1/4": [(7, 1), (8, 5)],
            "1/8": [(1, 8)]}
    lines = ["encoding dim 8"]
    for value, cells in ones.items():
        rows = [" ".join("1" if (i, j) in cells else "0" for j in range(1, 9))
                for i in range(1, 9)]
        lines.append(f"value {value} = [" + " ; ".join(rows) + "]")
    enc.write_text("\n".join(lines) + "\n", encoding="utf-8")
    pi.write_text("pinterp f : 1 = a | c0\npinterp g : 1 = b | d0\n", encoding="utf-8")
    val.write_text("param a = 1/2\nparam b = 1/8\nparam c0 = 1\nparam d0 = 0\n",
                   encoding="utf-8")
    trs.write_text("(VAR x)\n(RULES\n  f(f(f(x))) -> g(x)\n)\n", encoding="utf-8")


def test_compat_and_expand_refuse_a_non_closed_encoding(capsys, tmp_path):
    enc, pi, val, trs = (tmp_path / name for name in ("nc.enc", "nc.pi", "nc.val", "nc.trs"))
    _non_closed_files(enc, pi, val, trs)
    # every value and pair product checks out, but E(1/2)·E(1/2) != E(1/4)
    code, out, _ = run(capsys, "validate-encoding", "--encoding", str(enc))
    assert code == 0 and "product 1/2 * 1/2: value ok, closed no" in out
    context = ("--trs", str(trs), "--pinterp", str(pi), "--valuation", str(val),
               "--encoding", str(enc))
    # both name the first non-closed pair, as validate-encoding finds it
    code, out, _ = run(capsys, "compat", *context)
    assert code == 1
    assert out.endswith("product 1/2: encoded\n# non-closed product: 1/2 * 1/2\n"
                        "RESULT: INCOMPATIBLE\n")
    code, out, _ = run(capsys, "expand", *context, "--out", str(tmp_path / "nat.interp"))
    assert code == 1
    assert out == ("# required products: 1/8, 1/4, 1/2\n# encoding compatible: NO\n"
                   "# non-closed product: 1/2 * 1/2\nRESULT: INCOMPATIBLE\n")
    assert not (tmp_path / "nat.interp").exists()
    # a missing product is the fault named then, and no pair is
    code, out, _ = run(capsys, "expand", *context[:-1], "quarters")
    assert code == 1 and "# missing products: 1/8" in out and "non-closed" not in out
    code, out, _ = run(capsys, "compat", *context[:-1], "quarters")
    assert code == 1 and "product 1/8: MISSING" in out and "non-closed" not in out


def test_to_bits_max_entry_line_matches_a_scan(capsys, tmp_path):
    """to-bits reports the bit interpretation's largest matrix entry from the
    source: 0 when every matrix is zero or there is none, else 1."""
    rng = random.Random(71)
    src = tmp_path / "in.interp"
    inputs = [{"c": ((), [3])}, {"c": ((), [0]), "d": ((), [5])},
              {"f": (([0],), [4]), "c": ((), [2])}]
    while len(inputs) < 40:
        d, hi = rng.randint(1, 3), rng.choice((0, 1, 2, 4, 6))
        table = {s: (tuple([rng.randint(0, hi) for _ in range(d * d)]
                           for _ in range(arity)),
                     [rng.randint(0, 6) for _ in range(d)])
                 for s, arity in (("f", 1), ("g", 2), ("c", 0))}
        scale = prod(lift_factors({e for mats, _ in table.values() for m in mats for e in m}))
        if d * scale <= 60:
            inputs.append(table)
    for table in inputs:
        d = len(next(iter(table.values()))[1])
        interp = Interpretation(BlockShape(d, 1), "natural", {
            s: LinearFunc(tuple(Mat(d, d, tuple(m)) for m in mats), Mat.column(const))
            for s, (mats, const) in table.items()})
        src.write_text(format_interpretation(interp), encoding="utf-8")
        code, out, _ = run(capsys, "to-bits", "--interp", str(src))
        scanned = interp_to_bits(interp)[0].max_entry(matrices_only=True)
        assert code == 0 and f"max matrix entry {scanned}\n" in out


def test_to_blocks_then_collapse_round_trip_at_k12(capsys, tmp_path):
    src, lifted, back = (tmp_path / name for name in ("k12.interp", "k12.blocks", "k12.back"))
    src.write_text(read("relative.interp").replace("M2 = [1 2 ; 0 0]",
                                                   "M2 = [1 12 ; 0 11]"),
                   encoding="utf-8")
    code, out, _ = run(capsys, "to-blocks", "--interp", str(src), "--out", str(lifted))
    assert code == 0 and "# factor 12: dim 2 -> 24, block 1 -> 12" in out
    code, out, _ = run(capsys, "collapse", "--interp", str(lifted), "--out", str(back))
    assert code == 0 and "# collapsed: dim 24 -> 2 (block 12), domain natural" in out
    want = parse_interpretation(src.read_text(encoding="utf-8"))
    assert parse_interpretation(back.read_text(encoding="utf-8")) == want


def test_collapse_lifted_interpretation(capsys, tmp_path):
    lifted = tmp_path / "lifted.interp"
    run(capsys, "to-blocks", "--interp", ENDR_INT, "--out", str(lifted))
    out_path = tmp_path / "collapsed.interp"
    code, out, _ = run(capsys, "collapse", "--interp", str(lifted),
                       "--out", str(out_path))
    assert code == 0
    assert "RESULT: COLLAPSED" in out
    assert "dim 4 -> 2" in out
    # collapse undoes the lift exactly here
    assert out_path.read_text(encoding="utf-8").count("[1 2 ; 0 0]") == 1


def test_collapse_rejects_jordan_blocks(capsys, tmp_path):
    nat = tmp_path / "nat.interp"
    run(capsys, "expand", "--valuation", ETA, "--pinterp", PI,
        "--encoding", "half", "--out", str(nat))
    code, out, _ = run(capsys, "collapse", "--interp", str(nat), "--block", "2")
    assert code == 1
    assert "RESULT: NOT-COLLAPSIBLE" in out


def test_check_with_sampling_cross_check(capsys):
    code, out, _ = run(capsys, "check", "--trs", EX1, "--pairs", "auto",
                       "--interp", EX2, "--backend", "entrywise",
                       "--trials", "200", "--seed", "7")
    assert code == 0
    assert out.count("no witness (block values >= 0)") == 4
    assert "RESULT: SATISFIED" in out


def test_check_value_backend_with_sampling(capsys, tmp_path):
    code, out, _ = run(capsys, "check", "--trs", EX1, "--pairs", "auto",
                       "--interp", EX1R, "--backend", "value",
                       "--trials", "300", "--seed", "4")
    assert code == 0
    assert out.count("no witness (block values >= 0)") == 4
    assert out.splitlines()[-1] == "RESULT: SATISFIED"
    # only HOLDS verdicts are sampled; a FAILS verdict stays VIOLATED
    bad = tmp_path / "bad.interp"
    bad.write_text(
        "domain natural\ndim 1\nblock 1\n"
        "interp f : 1\n  M1 = [1]\n  C = [0]\n"
        "interp g : 1\n  M1 = [1]\n  C = [1]\n"
        "interp f# : 1\n  M1 = [1]\n  C = [0]\n", encoding="utf-8")
    code, out, _ = run(capsys, "check", "--trs", EX1, "--pairs", "auto",
                       "--interp", str(bad), "--backend", "value", "--trials", "50")
    assert code == 1
    assert out.count("# sampled") == out.count("HOLDS") < 4
    assert out.splitlines()[-1] == "RESULT: VIOLATED"


def _block_problem(tmp_path, f, g):
    """``f(x) -> g(x)`` at dim 2, block 2, with the given matrices for f and g."""
    trs, interp = tmp_path / "fg.trs", tmp_path / "fg.interp"
    trs.write_text("(VAR x)\n(RULES f(x) -> g(x))\n", encoding="utf-8")
    interp.write_text(f"domain natural\ndim 2\nblock 2\ninterp f : 1\n  M1 = {f}\n"
                      f"  C = [0 ; 0]\ninterp g : 1\n  M1 = {g}\n  C = [0 ; 0]\n",
                      encoding="utf-8")
    return "check", "--trs", str(trs), "--interp", str(interp)


@pytest.mark.parametrize("backend", ["entrywise", "value"])
def test_check_refuses_a_matrix_that_leaves_the_block_domain(capsys, tmp_path, backend):
    # f's block has rows that sum to 2 and 0, so f maps a block-constant
    # tuple out of the domain: the load refuses it and names the symbol,
    # the matrix and the block. Compared column by column, check said
    # FAILS, though no block-constant tuple violates the rule
    argv = _block_problem(tmp_path, "[2 0 ; 0 0]", "[0 1 ; 0 1]")
    assert run(capsys, *argv, "--backend", backend) == \
        (2, "", f"error: interp {argv[-1]}: line 5: f: M1 block (1,1) of size 2 "
                f"has rows with different sums\n")


@pytest.mark.parametrize("backend", ["entrywise", "value"])
def test_check_of_permuted_block_rows_holds(capsys, tmp_path, backend):
    # f's rows [1 0] and [1 0] sum alike, so f(x) = x = g(x) on every
    # block-constant x. Compared column by column (column 2: 0 < 1), check
    # said FAILS, with no witness
    code, out, err = run(capsys, *_block_problem(tmp_path, "[1 0 ; 1 0]", "[1 0 ; 0 1]"),
                         "--backend", backend, "--trials", "1")
    assert (code, err) == (0, "")
    assert "rule 1: f(x) -> g(x) [weak]: HOLDS | " in out
    assert out.endswith("# sampled rule 1: no witness (block values >= 0)\n"
                        "RESULT: SATISFIED\n")


@pytest.mark.parametrize("backend, detail", [
    ("entrywise", "coeff(x): row 1 block column 1 sum 1 < 2"),
    ("value", "coeff(x): block column 1 sum 2 < 4")])
def test_block_fails_name_a_block_column_and_a_witness(capsys, tmp_path, backend, detail):
    # at block 2, f(x) = (a,a) is below g(x) = (2a,2a) from a = 1 on
    code, out, _ = run(capsys, *_block_problem(tmp_path, "[1 0 ; 1 0]", "[2 0 ; 0 2]"),
                       "--backend", backend)
    assert code == 1
    assert f"rule 1: f(x) -> g(x) [weak]: FAILS | {detail} | witness x=(1,1)" in out


def test_a_failing_ground_rule_has_a_witness_without_variables(capsys, tmp_path):
    trs, interp = tmp_path / "ab.trs", tmp_path / "ab.interp"
    trs.write_text("(VAR x)\n(RULES a -> b)\n", encoding="utf-8")
    interp.write_text("domain natural\ndim 1\nblock 1\ninterp a : 0\n  C = [0]\n"
                      "interp b : 0\n  C = [1]\n", encoding="utf-8")
    code, out, _ = run(capsys, "check", "--trs", str(trs), "--interp", str(interp))
    assert code == 1
    assert "rule 1: a -> b [weak]: FAILS | const: rho 0 < 1 | witness (ground)" in out


def test_expand_disagreement_names_the_after_witness(capsys, tmp_path):
    # f(x) -> g(x,x) at f1 = f0 = 1, g1 = g2 = 1/2, g0 = 0 is compatible
    # with half, but E(1/2) has column sums (0, 1): at x = (0,3) the
    # expansion's lhs sums to 5 and its rhs to 6
    files = {"r.trs": "(VAR x)\n(RULES f(x) -> g(x,x))\n",
             "p.pi": "pinterp f : 1 = f1 | f0\npinterp g : 2 = g1 g2 | g0\n",
             "v.val": "param f1 = 1\nparam f0 = 1\nparam g1 = 1/2\nparam g2 = 1/2\n"
                      "param g0 = 0\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "expand", "--trs", str(tmp_path / "r.trs"),
                       "--pinterp", str(tmp_path / "p.pi"), "--valuation",
                       str(tmp_path / "v.val"), "--encoding", "half")
    assert code == 1
    assert out.splitlines()[-4:] == ["# after  [value, m 2, delta 1/2]: VIOLATED",
                                     "# agreement (forward): NO",
                                     "# after witness, rule 1: x=(0,3)",
                                     "RESULT: DISAGREEMENT"]


def test_holds_checks_draw_nothing(capsys):
    """A right HOLDS verdict leaves no witness, and no module
    draws at random: sampling it adds only its no-witness line."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "matint":
            assert not any(hasattr(module, attr) for attr in ("random", "Random", "randint")), \
                name
    for interp in (EX2, EX1R):
        for backend in ("entrywise", "value"):
            argv = ("check", "--trs", EX1, "--pairs", "auto", "--interp", interp,
                    "--backend", backend)
            plain = run(capsys, *argv)
            code, out, err = run(capsys, *argv, "--trials", "1000")
            lines = out.splitlines()
            sampled = [line for line in lines if line.startswith("# sampled")]
            assert (code, [line for line in lines if line not in sampled], err) == \
                (plain[0], plain[1].splitlines(), plain[2])
            assert len(sampled) == plain[1].count("HOLDS") > 0
            assert all(line.endswith("no witness (block values >= 0)")
                       for line in sampled)


@pytest.mark.parametrize("backend", ["entrywise", "value"])
def test_check_trials_evaluates_each_side_once(capsys, monkeypatch, backend):
    import matint.interp
    original = matint.interp.eval_term
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "matint" and getattr(module, "eval_term", None) is original:
            monkeypatch.setattr(module, "eval_term", counting)
    # built before the call, which then parses these same interned terms
    trs, pairs = example_one()
    sides = [t for rule in (*trs.rules, *pairs) for t in (rule.lhs, rule.rhs)]
    code, out, _ = run(capsys, "check", "--trs", EX1, "--pairs", "auto",
                       "--interp", EX2, "--backend", backend, "--trials", "100")
    assert code == 0 and out.count("no witness (block values >= 0)") == 4
    # one evaluation for the problem, of its 2 rules and 2 pairs, receiving
    # each of the 8 sides once: sampling reuses the forms
    assert calls == [sides]


def test_check_and_dps_of_a_depth_5000_chain(capsys, tmp_path):
    """A rule over a depth-5000 chain and its dependency pairs evaluate,
    under both backends, and print without recursion."""
    chain = "g(" * 4999 + "x" + ")" * 4999
    trs = tmp_path / "deep.trs"
    trs.write_text(f"(VAR x)\n(RULES f(g({chain})) -> f(f({chain})))\n", encoding="utf-8")
    interp = tmp_path / "deep.interp"
    interp.write_text("domain natural\ndim 1\nblock 1\ninterp f : 1\n  M1 = [1]\n  C = [0]\n"
                      "interp g : 1\n  M1 = [1]\n  C = [1]\n"
                      "interp f# : 1\n  M1 = [1]\n  C = [0]\n", encoding="utf-8")
    rule = f"f(g({chain})) -> f(f({chain}))"
    pairs = [f"f#(g({chain})) -> f#(f({chain}))", f"f#(g({chain})) -> f#({chain})"]
    for backend in ("entrywise", "value"):
        code, out, _ = run(capsys, "check", "--trs", str(trs), "--pairs", "auto",
                           "--interp", str(interp), "--backend", backend)
        lines = out.splitlines()
        assert code == 0 and lines[-1] == "RESULT: SATISFIED"
        assert [line.split(" [")[0] for line in lines if not line.startswith(("#", "R"))] == \
            [f"rule 1: {rule}", f"pair 1: {pairs[0]}", f"pair 2: {pairs[1]}"]
    out_file = tmp_path / "deep.pairs"
    code, out, _ = run(capsys, "dps", "--trs", str(trs), "--out", str(out_file))
    assert code == 0 and out.splitlines()[1:3] == pairs
    assert out_file.read_text(encoding="utf-8") == \
        "(VAR x)\n(RULES\n" + "".join(f"  {p}\n" for p in pairs) + ")\n"


CHECK = ("check", "--trs", EX1, "--pairs", "auto", "--interp", EX2)
EVAL = ("eval-valuation", "--trs", EX1, "--pairs", "auto", "--pinterp", PI,
        "--valuation", ETA)


@pytest.mark.parametrize("flags", [
    (*CHECK, "--trials", "50", "--m", "0"), (*CHECK, "--trials", "-3"),
    (*CHECK, "--m", "two"), (*CHECK, "--trials", "many"),
    (*CHECK, "--m", "0"), (*CHECK, "--m", "-2"),
    ("collapse", "--interp", ENDR_INT, "--block", "0"),
    ("collapse", "--interp", ENDR_INT, "--block", "-1"),
    ("to-blocks", "--interp", ENDR_INT, "--factor", "0"),
    (*EVAL, "--delta", "0"), (*EVAL, "--delta", "-1"), (*CHECK, "--delta", "0")])
def test_check_rejects_bad_sampling_arguments(capsys, flags):
    code, out, err = run(capsys, *flags)
    assert code == 2 and out == ""
    assert re.search(r"expected a (nonnegative|positive) (integer|rational)", err)


@pytest.mark.parametrize("flag", [("--m", "3"), ("--delta", "1/2")], ids=["m", "delta"])
def test_value_only_options_are_refused_by_the_entrywise_backend(capsys, flag):
    # the entrywise order has no divisor and no margin, so the option would
    # be ignored; it is an input error, named before any report line
    assert run(capsys, *CHECK, "--backend", "entrywise", *flag) == \
        (2, "", f"error: {flag[0]} applies to the value backend only\n")
    code, out, _ = run(capsys, *CHECK, "--backend", "value", *flag)
    assert code in (0, 1) and f"# value params: m {3 if flag[0] == '--m' else 2}" in out


def test_bound_is_an_unknown_option(capsys):
    # the falsifier ranges over all block-constant tuples, so there is no
    # box to bound: --bound is refused like any unknown option, before any
    # report line
    for trials in ((), ("--trials", "1")):
        code, out, err = run(capsys, *CHECK, *trials, "--bound", "3")
        assert (code, out) == (2, "") and "unrecognized arguments: --bound 3" in err


def test_trials_and_seed_do_not_change_the_report(capsys):
    # the falsifier is exact: --trials only switches it on, --seed is ignored
    for interp, backend in ((EX2, "entrywise"), (EX1R, "value")):
        argv = ("check", "--trs", EX1, "--pairs", "auto", "--interp", interp,
                "--backend", backend)
        first = run(capsys, *argv, "--trials", "1")
        assert first[0] == 0 and first[1].count("# sampled") == 4
        for trials in ("1", "1000"):
            for seed in ("0", "-5", str(2 ** 70)):
                assert run(capsys, *argv, "--trials", trials, "--seed", seed) == first


def test_check_trials_leaves_numpy_random_unloaded():
    # sampling is exact Python-int arithmetic: numpy, whose import costs
    # about half of the CLI's start-up and 13 MB per process, stays unloaded
    script = ("import sys\n"
              "import matint.cli\n"
              f"code = matint.cli.main(['check', '--trs', {EX1!r}, '--pairs', 'auto', "
              f"'--interp', {EX2!r}, '--trials', '50'])\n"
              "print('exit', code, 'numpy' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "exit 0 False"


def test_start_up_imports_no_dataclasses_or_typing():
    # every matint process pays for its imports: records are plain __slots__
    # classes, since dataclasses loads inspect, ast and dis as well, and
    # typing is never needed (-S keeps site's own imports out)
    script = ("import sys\n"
              "import matint.cli\n"
              "matint.cli.build_parser()\n"
              "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'typing'} "
              "& set(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_dps_out_feeds_pairs_flag(capsys, tmp_path):
    pairs_file = tmp_path / "pairs.trs"
    code, out, _ = run(capsys, "dps", "--trs", EX1, "--out", str(pairs_file))
    assert code == 0
    code, out, _ = run(capsys, "check", "--trs", EX1, "--pairs", str(pairs_file),
                       "--interp", EX2, "--backend", "entrywise")
    assert code == 0 and "2 pair(s)" in out


def test_to_bits_reports_rho_preserved(capsys, tmp_path):
    src = tmp_path / "wide.interp"
    src.write_text("domain natural\ndim 1\nblock 1\n"
                   "interp f : 1\n  M1 = [3]\n  C = [9]\n", encoding="utf-8")
    code, out, _ = run(capsys, "to-bits", "--interp", str(src))
    assert code == 0
    assert "# rho preserved: yes" in out


def test_expand_reports_rho_preserved(capsys, tmp_path):
    code, out, _ = run(capsys, "expand", "--interp", EX1R, "--encoding", "half",
                       "--out", str(tmp_path / "nat.interp"))
    assert code == 0
    assert "# rho preserved: yes" in out


def test_reports_are_deterministic(capsys):
    first = run(capsys, "check", "--trs", EX1, "--pairs", "auto",
                "--interp", EX2, "--backend", "entrywise")
    second = run(capsys, "check", "--trs", EX1, "--pairs", "auto",
                 "--interp", EX2, "--backend", "entrywise")
    assert first == second
    first = run(capsys, "validate-encoding", "--encoding", "eighths")
    second = run(capsys, "validate-encoding", "--encoding", "eighths")
    assert first == second


def test_console_entry_point():
    import subprocess, sys
    proc = subprocess.run([sys.executable, "-m", "matint.cli", "check",
                           "--trs", EX1, "--pairs", "auto", "--interp", EX2,
                           "--backend", "entrywise"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("RESULT: SATISFIED")


def test_main_calls_share_one_parser_without_leaking_state(capsys, tmp_path):
    from matint.cli import build_parser
    pairs_file = str(tmp_path / "pairs.trs")
    calls = [
        ("dps", "--trs", EX1, "--out", pairs_file, "--legacy-names"),
        ("check", "--trs", EX1, "--pairs", "auto", "--interp", EX2,
         "--backend", "entrywise", "--trials", "20", "--seed", "3"),
        ("check", "--trs", EX1, "--interp", EX2),
        ("dps", "--trs", EX1),
        ("check", "--trs", EX1, "--pairs", pairs_file, "--interp", EX2,
         "--delta", "1/2"),
        ("compat", "--trs", EX1, "--pairs", "auto", "--pinterp", PI,
         "--valuation", ETA, "--encoding", "half"),
        ("gen-constraints", "--trs", EX1, "--pinterp", PI),
        ("check", "--trs", EX1, "--interp", EX2),
        ("check", "--trs", EX1),
    ]
    alone = []
    for argv in calls:
        build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    assert build_parser() is build_parser()
    shared = [run(capsys, *argv) for argv in calls]
    assert shared == alone
    assert "0 pair(s)" in alone[2][1] and alone[-1][0] == 2


def test_depth_2000_chain_exits_cleanly(capsys, tmp_path):
    depth = 2000
    chain = "x"
    for _ in range(depth - 1):
        chain = f"g({chain})"
    # one deep rule side in each direction and one deep dependency pair
    trs = tmp_path / "chain.trs"
    trs.write_text(f"(VAR x)\n(RULES\n  f({chain}) -> x\n  f(x) -> f(g({chain}))\n)\n",
                   encoding="utf-8")
    pi = tmp_path / "chain.pi"
    pi.write_text("pinterp f : 1 = f1 | f0\npinterp g : 1 = g1 | g0\n"
                  "pinterp f# : 1 = F1 | F0\n", encoding="utf-8")
    eta = tmp_path / "chain.val"
    eta.write_text("".join(f"param {p} = {v}\n" for p, v in
                           [("f1", 1), ("f0", 1), ("g1", 1), ("g0", 0),
                            ("F1", 1), ("F0", 0)]), encoding="utf-8")
    interp = tmp_path / "chain.interp"
    interp.write_text("domain natural\ndim 1\nblock 1\n"
                      "interp f : 1\n  M1 = [1]\n  C = [1]\n"
                      "interp g : 1\n  M1 = [1]\n  C = [0]\n"
                      "interp f# : 1\n  M1 = [1]\n  C = [0]\n", encoding="utf-8")
    base = ("--trs", str(trs), "--pairs", "auto")
    code, out, _ = run(capsys, "gen-constraints", *base, "--pinterp", str(pi))
    assert code == 0 and "# 6 arithmetic constraint(s)" in out
    assert f"pair 1 / x: F1 >= F1 {' '.join(['g1'] * depth)}" in out
    code, out, _ = run(capsys, "compat", *base, "--pinterp", str(pi),
                       "--valuation", str(eta), "--encoding", "half")
    assert (code, out.splitlines()[-1]) == (0, "RESULT: COMPATIBLE")
    code, out, _ = run(capsys, "check", *base, "--interp", str(interp))
    assert code == 1 and "1 pair(s)" in out
    assert out.splitlines()[-1] == "RESULT: VIOLATED"
    code, out, _ = run(capsys, "dps", "--trs", str(trs))
    assert code == 0 and f"f#(x) -> f#(g({chain}))" in out


@pytest.mark.parametrize("command, result", [("compat", "COMPATIBLE"),
                                             ("expand", "VERIFIED")])
def test_depth_20000_chain_stays_linear(tmp_path, command, result):
    # a word is its parent word times one parameter, so the 20000 nested
    # coefficient words of f^20000(x) take 20000 nodes; written out in full
    # they took 1.49 GB already at depth 16000. The cap binds only the child.
    depth = 20000
    trs = tmp_path / "chain.trs"
    trs.write_text(f"(VAR x)\n(RULES\n  {'f(' * depth}x{')' * depth} -> x\n)\n",
                   encoding="utf-8")
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
              "import matint.cli\n"
              "sys.exit(matint.cli.main(sys.argv[1:]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", script, command, "--trs", str(trs),
                           "--pinterp", PI, "--valuation", ETA, "--encoding", "half"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[-1] == f"RESULT: {result}"


@pytest.mark.parametrize("text, option, message", [
    ("pinterp f : 1 = f1 | f0 extra\npinterp g : 1 = g1 | g0\n", "--pinterp",
     "line 1: expected 'pinterp <symbol> : <arity> = <p1> ... <pk> | <p0>'"),
    ("param f1 = 2\nparam f0 extra = 1/2\n", "--valuation",
     "line 2: expected 'param <name> = <value>'"),
    ("param = 3\n", "--valuation", "line 1: expected 'param <name> = <value>'"),
])
def test_parameter_names_are_single_tokens(capsys, tmp_path, text, option, message):
    # "f1 f0 extra" would read as a word of three parameters
    bad = tmp_path / "bad.in"
    bad.write_text(text, encoding="utf-8")
    files = {"--pinterp": PI, "--valuation": ETA, option: str(bad)}
    code, out, err = run(capsys, "eval-valuation", "--trs", EX1,
                         *[arg for item in files.items() for arg in item])
    assert (code, out) == (2, "")
    assert err == f"error: {option[2:]} {bad}: {message}\n"


_RELATIVE = read("relative.interp")
_CHECK = ["check", "--trs", ENDR_TRS, "--interp"]
_TO_BITS = ["to-bits", "--out", "OUT", "--interp"]
_EVAL = ["eval-valuation", "--trs", EX1, "--valuation", ETA, "--pinterp"]
_VALUATION = ["eval-valuation", "--trs", EX1, "--pinterp", PI, "--valuation"]
_ENCODING = ["validate-encoding", "--encoding"]


@pytest.mark.parametrize("argv, text, message", [
    # the incomplete symbol's own interp line, once, mid-file and at the end
    (_CHECK, _RELATIVE.replace("interp a : 0", "interp a : 1"),
     "line 5: symbol 'a' needs M1..M1 and C"),
    (_CHECK, _RELATIVE.replace("interp g : 1", "interp g : 2") + "# end\n",
     "line 14: symbol 'g' needs M1..M2 and C"),
    # names are single tokens, arities natural numbers
    (_TO_BITS, _RELATIVE.replace("interp a : 0", "interp a b : 0"),
     "line 5: expected 'interp <symbol> : <arity>'"),
    (_TO_BITS, _RELATIVE.replace("interp a : 0", "interp : 0"),
     "line 5: expected 'interp <symbol> : <arity>'"),
    (_CHECK, _RELATIVE.replace("interp a : 0", "interp a : -1"),
     "line 5: expected 'interp <symbol> : <arity>'"),
    (_EVAL, "pinterp f : -1 = | f0\npinterp g : 1 = g1 | g0\n",
     "line 1: expected 'pinterp <symbol> : <arity> = <p1> ... <pk> | <p0>'"),
    # each header at most once
    (_CHECK, _RELATIVE.replace("block 1", "block 1\ndelta 1/2\ndelta 1/3"),
     "line 6: repeated header 'delta'"),
    (_ENCODING, "encoding dim 3\nencoding dim 2\n",
     "line 2: repeated header 'encoding dim'"),
    # lines that fit no form name the form
    (_EVAL, "pinterp f : 1 = f1 f0\npinterp g : 1 = g1 | g0\n",
     "line 1: expected 'pinterp <symbol> : <arity> = <p1> ... <pk> | <p0>'"),
    (_CHECK, _RELATIVE.replace("  C = [1 ; 0]", "  C [1 ; 0]"),
     "line 6: expected 'C = <literal>'"),
    (_CHECK, _RELATIVE.replace("  C = [1 ; 0]", "  M = [1 ; 0]"),
     "line 6: expected 'M<k> = <literal>'"),
    # a rational names the forms it may take
    (_VALUATION, "param f1 = x\n",
     "line 1: bad rational literal 'x': expected '<int>' or '<p>/<q>' with q nonzero"),
    (_CHECK, _RELATIVE.replace("block 1", "block 1\ndelta 1/0"),
     "line 5: bad rational literal '1/0': expected '<int>' or '<p>/<q>' with q nonzero"),
    # header values out of range, at their own line
    (_CHECK, _RELATIVE.replace("dim 2", "dim 0"), "line 3: dim must be positive, got 0"),
    (_CHECK, _RELATIVE.replace("block 1", "block 3"),
     "line 4: block size 3 does not divide dimension 2"),
    (_CHECK, _RELATIVE.replace("dim 2\nblock 1", "block 3\ndim 2"),
     "line 3: block size 3 does not divide dimension 2"),
    (_CHECK, _RELATIVE.replace("block 1", "block 1\ndelta 0"),
     "line 5: delta must be positive, got 0"),
    # content faults, at the line that holds them
    (_ENCODING, "encoding dim 0\n", "line 1: encoding dimension must be positive, got 0"),
    (_ENCODING, "encoding dim 2\nvalue 1/4 = [0 0 ; 0 1]\nvalue 1/2 = [1 0 ; 0 1 ; 1 1]\n",
     "line 3: matrix for 1/2 is 3x2, need 2x2"),
    (_ENCODING, "encoding dim 2\nvalue 1/2 = [0 1 ; 0 0]\nvalue 1 = [1 0 ; 0 1]\n",
     "line 3: encoded value must lie strictly in (0,1): 1"),
    (_ENCODING, "encoding dim 2\n\nvalue 1/2 = [1/2 0 ; 0 1]\n",
     "line 3: matrix for 1/2 has non-natural entries"),
    (_CHECK, _RELATIVE.replace("[1 0 ; 1 1]", "[1 2 3]"), "line 15: g: M1 is 1x3, need 2x2"),
    (_CHECK, _RELATIVE.replace("[1 0 ; 1 1]", "[1 0 ; 0 1/2]"),
     "line 15: g: non-natural entry in natural domain"),
    (_CHECK, _RELATIVE.replace("[0 ; 1]", "[1 ; -1]"), "line 16: g: negative entry"),
    (_TO_BITS, "domain natural\ndim 2\nblock 2\ninterp a : 0\n  C = [1 ; 1]\n"
               "interp f : 1\n  M1 = [1 0 ; 0 1]\n  C = [1 ; 2]\n",
     "line 8: f: constant vector is not block-constant (block 1 of size 2)"),
    (_TO_BITS, "interp f : 1\n  C = [1 ; 1]\n  M1 = [1 2 3]\ndomain natural\ndim 2\n",
     "line 3: f: M1 is 1x3, need 2x2"),
    (_EVAL, "pinterp f : 1 = 1 | f0\npinterp g : 1 = g1 | g0\n",
     "line 1: parameter name '1' is reserved (symbol 'f')"),
    (_EVAL, "pinterp f : 1 = f1 | f0\npinterp g : 1 = g1 | f1\n",
     "line 2: duplicate parameter name 'f1'"),
    (_VALUATION, "param f1 = 2\nparam a = -1\n", "line 2: valuation of 'a' is negative: -1"),
    (_VALUATION, "param 1 = 2\n", "line 1: reserved parameter '1' must map to 1"),
], ids=["incomplete", "incomplete-at-end", "two-names", "no-name", "negative-arity",
        "negative-pinterp-arity", "repeated-delta", "repeated-encoding-dim", "no-bar",
        "C-without-=", "M-without-k", "not-a-rational", "zero-denominator", "dim-0",
        "block-not-dividing", "block-before-dim", "delta-0", "encoding-dim-0",
        "encoding-shape", "encoding-value-1", "encoding-non-natural", "M-shape",
        "M-non-natural", "C-negative", "C-not-block-constant", "headers-last",
        "reserved-parameter", "duplicate-parameter", "negative-value", "reserved-value"])
def test_malformed_lines_exit_2_naming_their_line(capsys, tmp_path, argv, text, message):
    bad, out = tmp_path / "bad.in", tmp_path / "out.interp"
    bad.write_text(text, encoding="utf-8")
    argv = [str(out) if arg == "OUT" else arg for arg in argv]
    code, stdout, err = run(capsys, *argv, str(bad))
    assert (code, stdout) == (2, "")
    assert err == f"error: {argv[-1][2:]} {bad}: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("backend", ["entrywise", "value"])
def test_check_leaves_no_interned_term(capsys, tmp_path, backend):
    from matint.trs import _INTERNED
    trs = tmp_path / "leak.trs"
    trs.write_text("(VAR leak_x)\n(RULES leak_f(leak_f(leak_x)) -> leak_f(leak_g))\n",
                   encoding="utf-8")
    interp = tmp_path / "leak.interp"
    interp.write_text("domain natural\ndim 2\nblock 1\n"
                      "interp leak_f : 1\n  M1 = [1 1 ; 0 1]\n  C = [1 ; 0]\n"
                      "interp leak_g : 0\n  C = [0 ; 0]\n"
                      "interp leak_f# : 1\n  M1 = [1 0 ; 0 1]\n  C = [1 ; 1]\n",
                      encoding="utf-8")

    def leaked():
        return [t for t in _INTERNED.values()
                if getattr(t, "symbol", getattr(t, "name", "")).startswith("leak_")]

    code, out, _ = run(capsys, "check", "--trs", str(trs), "--pairs", "auto",
                       "--interp", str(interp), "--backend", backend, "--trials", "20")
    assert code == 0 and "1 pair(s)" in out
    assert leaked() == []


def _raise(*args, **kwargs):
    raise RuntimeError("handler failed")


@pytest.mark.parametrize("f, rule, patch, want", [
    ("scope_0", "f(f(x)) -> f(x))", None, 0),
    ("scope_1", "f(x) -> f(f(x)))", None, 1),
    ("scope_2", "f(f(x)) -> f(x) g(", None, 2),
    ("scope_3", "f(f(x)) -> f(x))", "check_problem", RuntimeError),
], ids=["exit-0", "exit-1", "exit-2", "raises"])
def test_main_leaves_the_interned_table_as_it_found_it(capsys, tmp_path, monkeypatch,
                                                       f, rule, patch, want):
    """Whether main returns 0, 1 or 2 or an exception escapes it, the table
    afterwards binds the same keys, in the same order, to the same terms;
    a term built before the call, which the call builds again, is kept.
    Each case has its own symbol, so its call interns terms of its own."""
    from matint import cli
    from matint.trs import _INTERNED, App, Var
    before_term = App(f, (Var("x"),))
    before = dict(_INTERNED)
    trs, interp = tmp_path / "scope.trs", tmp_path / "scope.interp"
    trs.write_text(f"(VAR x) (RULES {rule.replace('f', f)}\n", encoding="utf-8")
    interp.write_text(f"domain natural\ndim 1\ninterp {f} : 1\n  M1 = [1]\n  C = [1]\n",
                      encoding="utf-8")
    argv = ["check", "--trs", str(trs), "--interp", str(interp)]
    if patch:
        monkeypatch.setattr(cli, patch, _raise)
        with pytest.raises(want):
            main(argv)
    else:
        assert run(capsys, *argv)[0] == want
    assert list(_INTERNED) == list(before)
    assert all(_INTERNED[key] is term for key, term in before.items())
    assert App(f, (Var("x"),)) is before_term


def test_repeated_calls_keep_the_interned_table_and_memory(tmp_path):
    # tracemalloc counts only what this test allocates, unlike the process
    # peak, which earlier tests set. It also counts the tuples that a call
    # leaves on CPython's free lists (up to 2000 per size, 96 KB of 1-tuples
    # here) until a full collection empties them, so each size is read
    # after one.
    import gc
    import tracemalloc
    from matint.trs import _INTERNED
    trs, pi = tmp_path / "deep.trs", tmp_path / "deep.pi"
    trs.write_text("(VAR x) (RULES " + "f(" * 2000 + "x" + ")" * 2000 + " -> x)\n",
                   encoding="utf-8")
    pi.write_text("pinterp f : 1 = f1 | f0\n", encoding="utf-8")
    argv = ["gen-constraints", "--trs", str(trs), "--pinterp", str(pi)]
    size = len(_INTERNED)
    tracemalloc.start()
    try:
        with open(os.devnull, "w", encoding="utf-8") as null, redirect_stdout(null):
            for call in range(1, 201):
                assert main(argv) == 0
                if call == 10:
                    gc.collect()
                    after_10 = tracemalloc.get_traced_memory()[0]
        gc.collect()
        after_200 = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(_INTERNED) == size
    assert abs(after_200 - after_10) < 64 * 1024, (after_10, after_200)


@pytest.mark.parametrize("backend", ["entrywise", "value"])
def test_huge_values_are_reported_and_the_int_limit_restored(capsys, tmp_path, backend):
    """A 4000-digit entry squares to 8000 digits, past the interpreter's
    default limit of 4300 on int/str conversions; a 5000-digit literal
    parses. main lifts that limit for the call and restores the caller's."""
    nines = "9" * 4000
    interp = tmp_path / "huge.interp"
    interp.write_text(f"domain natural\ndim 1\ninterp f : 1\n  M1 = [{nines}]\n  C = [0]\n"
                      "interp g : 1\n  M1 = [1]\n  C = [0]\n", encoding="utf-8")
    trs = tmp_path / "huge.trs"
    trs.write_text("(VAR x) (RULES g(x) -> f(f(x)))\n", encoding="utf-8")
    big = tmp_path / "big.interp"
    big.write_text("domain natural\ndim 1\ninterp f : 1\n  M1 = [1]\n  C = [0]\n"
                   f"interp g : 1\n  M1 = [1]\n  C = [{'7' * 5000}]\n", encoding="utf-8")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, "check", "--trs", str(trs), "--interp", str(interp),
                             "--backend", backend)
        assert (code, err) == (1, "")
        assert out.splitlines()[-1] == "RESULT: VIOLATED"
        # (10^4000 - 1)^2, written out without a conversion the limit refuses
        assert "9" * 3999 + "8" + "0" * 3999 + "1" in out
        assert sys.get_int_max_str_digits() == 4300
        code, out, err = run(capsys, "check", "--trs", str(trs), "--interp", str(big),
                             "--backend", backend)
        assert (code, err) == (0, "") and out.splitlines()[-1] == "RESULT: SATISFIED"
        assert "7" * 5000 in out
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)


_FUZZ_MATRICES = ("[1 0 ; 0 1]", "[0 0 ; 0 0]", "[1 2 ; 0 1]", "[1 0 ; 1 1]", "[2 1 ; 0 0]",
                  "[1/2 0 ; 0 1]", f"[{'9' * 5000} 0 ; 0 1]")
_FUZZ_VECTORS = ("[1 ; 1]", "[0 ; 0]", "[1 ; 0]", "[1/3 ; 1/3]", f"[{'9' * 5000} ; 0]")
_FUZZ_DAMAGED = ("dim 0", "dim x", "dim 1", "domain real", "domain rational", "block 2",
                 "block 3", "delta 1/2", "delta 0", "interp g : 2", "interp h : 1",
                 "interp f", "M1 =", "C", "bogus line", "# comment",
                 "  M4 = [1 0 ; 0 1]", "  C = [1 2 ; 3]",
                 "  M1 = [x 1 ; 0 0]", "  C = [1/0 ; 0]", "  M1 = [1 0", "  M1 = []",
                 "  M1 = [1 0 ;]", "  M2 = [-1 0 ; 0 0]", "  M1 = [² 0 ; 0 1]",
                 "  C = [٣ ; 1]", "  C = 1 ; 1")


@st.composite
def _interpretation_files(draw):
    """data/relative.interp with up to four lines changed: a literal
    replaced by a good or bad one, or a line replaced by, or joined by, a
    damaged one."""
    lines = read("relative.interp").splitlines()
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(lines) - 1))
        key, eq, _ = lines[at].partition("=")
        if eq and draw(st.integers(0, 3)):
            pool = _FUZZ_VECTORS if key.strip() == "C" else _FUZZ_MATRICES
            lines[at] = f"{key}= {draw(st.sampled_from(pool))}"
        else:
            lines[at:at + draw(st.integers(0, 1))] = [draw(st.sampled_from(_FUZZ_DAMAGED))]
    return "\n".join(lines) + "\n"


def _fuzzed_main(argv, option, text):
    """``main(argv)`` with ``text`` as the file of ``option``: the exit code
    must be 0, 1 or 2, no exception may escape, and an input error names
    at most one line."""
    with tempfile.TemporaryDirectory() as work:
        path = os.path.join(work, "fuzz.in")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([*argv, option, path])
    assert code in (0, 1, 2)
    if code == 2:
        assert len(re.findall(r"line \d+:", err.getvalue())) <= 1, err.getvalue()


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_interpretation_files(), st.sampled_from(["entrywise", "value"]))
def test_fuzzed_interpretation_files_exit_cleanly(text, backend):
    """``check`` of data/relative.trs against an interpretation file with
    changed header, interp, M/C and literal lines exits with 0, 1 or 2,
    lets no exception escape, and names at most one line."""
    _fuzzed_main(["check", "--trs", ENDR_TRS, "--backend", backend], "--interp", text)


# per format: the subcommand, the file option, a valid file, and damaged lines
_FUZZ_FORMATS = {
    "pinterp": (["eval-valuation", "--trs", EX1, "--pairs", "auto", "--valuation", ETA],
                read("fg-params.pi"),
                ("pinterp f : 1 = f1 f0", "pinterp f : -1 = | f0", "pinterp : 1 = a | b",
                 "pinterp f : 1 = f1 | f0 extra", "pinterp f g : 1 = a | b", "pinterp",
                 "pinterp h : 0 = | h0", "pinterp f : 2 = a b | c", "pinterp g : 1 = g1 | 1",
                 "pinterp f# : 1 = F1 | F0", "interp f : 1", "pinterp f:1=f1|f0", "# f# :",
                 "pinterp f : 1 = f0 | f1", "pinterp f : ١ = f1 | f0")),
    "valuation": (["eval-valuation", "--trs", EX1, "--pairs", "auto", "--pinterp", PI],
                  read("fg-rational.val"),
                  ("param f1 = -1", "param f1 = 1/0", "param = 3", "param f1 extra = 2",
                   "param f1 =", "param 1 = 2", "param g1 = 1/3", "param f1 = x", "param",
                   "value 1/2 = [1]", "param f1 = 2", "param F0=1/2", "param f1 = 1 2",
                   "param q = 5", "param f1 = ²")),
    "encoding": (["compat", "--trs", EX1, "--pairs", "auto", "--pinterp", PI,
                  "--valuation", ETA],
                 "# the catalog's half\nencoding dim 2\nvalue 1/2 = [0 1 ; 0 0]\n",
                 ("encoding dim 3", "encoding dim 0", "encoding dim -1", "encoding 2",
                  "value 1/2 = [0 1 ; 0 0]", "value 1/2", "value = [0 1 ; 0 0]",
                  "value 1/4 = [0 0 ; 0 0]", "value 3/2 = [0 1 ; 0 0]", "value 1/2 = [1]",
                  "value 1/0 = [0 1 ; 0 0]", "value 1/2 = [0 1 ; 0 x]", "values",
                  "value 1/3 = [0 1 ; 1 0]", "value 1/2 = [0 2 ; 0 0]")),
}


@st.composite
def _format_files(draw, name):
    """A format's valid file with up to four lines replaced by, or joined
    by, damaged ones."""
    _, text, damaged = _FUZZ_FORMATS[name]
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(lines)))
        lines[at:at + draw(st.integers(0, 1))] = [draw(st.sampled_from(damaged))]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name", sorted(_FUZZ_FORMATS))
def test_fuzzed_input_files_exit_cleanly(name):
    """The parametric interpretation, valuation and encoding formats,
    fuzzed like the interpretation format above."""
    argv = _FUZZ_FORMATS[name][0]

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(_format_files(name))
    def fuzz(text):
        _fuzzed_main(argv, f"--{name}", text)

    fuzz()


def _bench_tracer():
    spec = importlib.util.spec_from_file_location(
        "_bench_tracer", DATA.parent / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_bench_tracer_names_resolve():
    # perfbench wraps these names; deleting or renaming one breaks its traced run
    bench = DATA.parent / "perfbench"
    tracer = _bench_tracer()
    for module, func in tracer.FUNCTIONS:
        assert callable(getattr(importlib.import_module(module), func, None)), (module, func)
    assert callable(importlib.import_module("matint.matrix").Mat.__mul__)
    # run.py is read as text: importing it would need perfbench on sys.path
    tree = ast.parse((bench / "run.py").read_text(encoding="utf-8"))
    setup = next(node.value.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["SETUP_CODE"])
    assert "matint.cli.build_parser" in setup
    exec(compile(setup, "SETUP_CODE", "exec"), {})


def test_bench_tracer_counts_the_longest_word():
    # the traced run reads constraints.max_word_len from len() of each word
    import matint.constraints
    depth = 300
    trs = parse_trs(f"(VAR x) (RULES g({'f(' * depth}x{')' * depth}) -> x)")
    pi = parse_pinterp(read("fg-params.pi"))
    with _bench_tracer().Tracer(time.process_time) as tracer:
        cs = matint.constraints.generate_arith_constraints(trs, (), pi)
    longest = max(len(tuple(w)) for c in cs for w in (*c.lhs, *c.rhs))
    assert longest == depth + 1      # g1 f1^depth, the coefficient word of x
    assert tracer.metrics()["constraints.max_word_len"] == longest


README_VERDICTS = {"check": "SATISFIED", "dps": "OK", "gen-constraints": "OK",
                   "eval-valuation": "SATISFIED", "to-blocks": "VERIFIED",
                   "to-bits": "VERIFIED", "expand": "VERIFIED",
                   "validate-encoding": "VALID", "compat": "COMPATIBLE",
                   "collapse": "COLLAPSED"}


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    readme = (DATA.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split()[1:] for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("matint ")]
    # every subcommand is shown, in a directory that holds only data/
    assert {argv[0] for argv in commands} == set(README_VERDICTS)
    shutil.copytree(DATA, tmp_path / "data")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out.splitlines()[-1] == f"RESULT: {README_VERDICTS[argv[0]]}", argv


def test_every_option_has_one_help_text():
    from matint.cli import build_parser
    commands = next(action for action in build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction)).choices
    assert set(commands) == set(README_VERDICTS)
    helps = {}
    for name, parser in commands.items():
        for action in parser._actions:
            assert action.help, (name, action.option_strings)
            assert helps.setdefault(action.dest, action.help) == action.help, (name, action.dest)

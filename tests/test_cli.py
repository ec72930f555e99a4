import os
import subprocess
import sys

import pytest

from matint.cli import main
from _helpers import DATA

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


def test_check_arity_mismatch_with_trs(capsys):
    code, _, err = run(capsys, "check", "--trs", ENDR_TRS, "--interp", EX2)
    assert code == 2
    assert "arity 3" in err


def test_check_uninterpreted_symbol(capsys, tmp_path):
    partial = tmp_path / "partial.interp"
    partial.write_text("domain natural\ndim 1\nblock 1\n"
                       "interp f : 1\n  M1 = [1]\n  C = [0]\n", encoding="utf-8")
    code, _, err = run(capsys, "check", "--trs", EX1, "--pairs", "auto",
                       "--interp", str(partial))
    assert code == 2
    assert "uninterpreted" in err


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


def test_validate_encoding_catalog(capsys):
    code, out, _ = run(capsys, "validate-encoding", "--encoding", "sixths")
    assert code == 0
    assert "RESULT: VALID" in out
    assert "product 1/2 * 1/3: value ok, closed yes" in out


def test_validate_encoding_invalid(capsys, tmp_path):
    enc = tmp_path / "bad.enc"
    enc.write_text("encoding dim 2\nvalue 1/2 = [1 1 ; 0 0]\n", encoding="utf-8")
    code, out, _ = run(capsys, "validate-encoding", "--encoding", str(enc))
    assert code == 1
    assert "RESULT: INVALID" in out


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
    assert out.count("no witness (200 trials, seed 7)") == 4
    assert "RESULT: SATISFIED" in out


def test_check_value_backend_with_sampling(capsys, tmp_path):
    code, out, _ = run(capsys, "check", "--trs", EX1, "--pairs", "auto",
                       "--interp", EX1R, "--backend", "value",
                       "--trials", "300", "--seed", "4")
    assert code == 0
    assert out.count("no witness (300 trials, seed 4)") == 4
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
    code, out, _ = run(capsys, "check", "--trs", EX1, "--pairs", "auto",
                       "--interp", EX2, "--backend", backend, "--trials", "100")
    assert code == 0 and out.count("no witness (100 trials, seed 0)") == 4
    # 2 rules and 2 pairs, each side evaluated once: sampling reuses the forms
    assert len(calls) == 8


@pytest.mark.parametrize("flags", [("--trials", "50", "--bound", "-1"),
                                   ("--trials", "-3"), ("--bound", "-1"),
                                   ("--trials", "many")])
def test_check_rejects_bad_sampling_arguments(capsys, flags):
    code, out, err = run(capsys, "check", "--trs", EX1, "--pairs", "auto",
                         "--interp", EX2, *flags)
    assert code == 2 and out == ""
    assert "expected a nonnegative integer" in err


def test_check_trials_leaves_numpy_random_unloaded():
    # importing numpy.random costs several MB of resident memory per process
    script = ("import sys\n"
              "from matint.cli import main\n"
              f"code = main(['check', '--trs', {EX1!r}, '--pairs', 'auto', "
              f"'--interp', {EX2!r}, '--trials', '50'])\n"
              "print('exit', code, 'numpy.random' in sys.modules)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "exit 0 False"


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

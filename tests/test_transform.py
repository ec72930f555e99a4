import random
from fractions import Fraction

import pytest

from matint import (BlockShape, EncodingError, Interpretation, InterpError,
                    LinearFunc, Mat, catalog, check_problem,
                    collapse_interpretation, expand_rational, interp_to_bits,
                    interp_to_blocks, parse_interpretation, parse_pinterp,
                    parse_trs, parse_valuation, plan_expansion, rational_entries, rho,
                    rho_preserved, valuation_entries, valuation_interpretation,
                    verify_transform)
from _helpers import example_one, mixed_interp, read, uniform_interp

F = Fraction


def _expand(interp, enc):
    return expand_rational(interp, plan_expansion(enc, rational_entries(interp)))


@pytest.fixture(scope="module")
def relative():
    return (parse_trs(read("relative.trs")),
            parse_interpretation(read("relative.interp")))


def test_to_blocks_relative_exact(relative):
    _, interp = relative
    lifted = interp_to_blocks(interp)
    assert lifted.shape == BlockShape(4, 2)
    i2, z2, o2 = Mat.identity(2), Mat.zero(2), Mat.ones(2)
    f = lifted.table["f"]
    assert f.mats[0] == Mat.from_blocks([[i2, z2], [z2, z2]])
    assert f.mats[1] == Mat.from_blocks([[i2, o2], [z2, z2]])
    assert f.mats[2] == Mat.from_blocks([[i2, z2], [z2, z2]])
    assert f.const == Mat.zero(4, 1)
    g = lifted.table["g"]
    assert g.mats[0] == Mat.from_blocks([[i2, z2], [i2, i2]])
    assert g.const == Mat.column([0, 0, 1, 1])
    assert lifted.table["a"].const == Mat.column([1, 1, 0, 0])
    assert lifted.table["b"].const == Mat.zero(4, 1)
    assert all(m.is_bit() for func in lifted.table.values() for m in func.mats)


def test_to_blocks_trivial_cases():
    ex2 = parse_interpretation(read("fg-natural.interp"))
    assert interp_to_blocks(ex2) is ex2            # max entry 1: unchanged
    rational = parse_interpretation(read("fg-rational.interp"))
    with pytest.raises(InterpError, match="natural"):
        interp_to_blocks(rational)


def test_to_blocks_rho_preservation(relative):
    _, interp = relative
    lifted = interp_to_blocks(interp)
    assert rho_preserved(interp, lifted, 2)
    rng = random.Random(41)
    for _ in range(50):
        interp = uniform_interp(rng)
        factor = interp.max_entry()
        if factor <= 1:
            continue
        lifted = interp_to_blocks(interp)
        assert rho_preserved(interp, lifted, factor)
        for symbol, func in interp.table.items():
            for a, b in zip(func.mats, lifted.table[symbol].mats):
                for m in (1, 3):
                    assert rho(m * factor, b) == rho(m, a)


def test_rho_check_reads_each_block_not_the_whole_matrix():
    # dim 2 -> 4: move block (1,1)'s content into the empty block (1,2)
    interp = Interpretation(BlockShape(2, 1), "natural", {
        "f": LinearFunc((Mat(2, 2, (2, 0, 1, 2)),), Mat.column([1, 0]))})
    lifted = interp_to_blocks(interp, 2)
    assert rho_preserved(interp, lifted, 2)
    mat = lifted.table["f"].mats[0]
    nums = list(mat.nums)
    for r in range(2):
        row = 4 * r
        nums[row:row + 4] = nums[row + 2:row + 4] + nums[row:row + 2]
    moved = Mat(4, 4, tuple(nums))
    assert sum(moved.nums) == sum(mat.nums)
    broken = Interpretation(lifted.shape, "natural",
                            {"f": LinearFunc((moved,), lifted.table["f"].const)})
    assert not rho_preserved(interp, broken, 2)


def test_to_bits_single_coefficient():
    interp = Interpretation(BlockShape(1, 1), "natural",
                            {"f": LinearFunc((Mat(1, 1, (3,)),), Mat(1, 1, (0,)))})
    bits, trace = interp_to_bits(interp)
    assert trace.steps == ((3, 1, 3),) and trace.final_scale == 3
    assert bits.table["f"].mats[0] == Mat.ones(3)


def test_to_bits_identity_on_bit_interp():
    ex2 = parse_interpretation(read("fg-natural.interp"))
    bits, trace = interp_to_bits(ex2)
    assert trace.steps == () and trace.final_scale == 1
    assert bits is ex2


def test_to_bits_two_steps():
    # factors 3 then 2: coefficient dimension 2 -> 12, matrices end up bit
    interp = Interpretation(
        BlockShape(2, 1), "natural",
        {"f": LinearFunc((parse_interp_mat := Mat(2, 2, (2, 3, 0, 1)),),
                         Mat.zero(2, 1))})
    bits, trace = interp_to_bits(interp)
    assert [s[0] for s in trace.steps] == [3, 2]
    assert trace.final_scale == 6
    assert bits.shape.dim == 12
    assert bits.table["f"].mats[0].is_bit()
    assert rho(6, bits.table["f"].mats[0]) == rho(1, parse_interp_mat)


def test_to_bits_vectors_ride_along():
    interp = Interpretation(BlockShape(1, 1), "natural",
                            {"f": LinearFunc((Mat(1, 1, (2,)),), Mat(1, 1, (9,)))})
    bits, trace = interp_to_bits(interp)
    assert trace.final_scale == 2
    assert bits.table["f"].mats[0].is_bit()
    assert bits.table["f"].const == Mat.column([9, 9])   # value 9 preserved, not bit


def test_expand_rational_paper_interpretation():
    pi = parse_pinterp(read("fg-params.pi"))
    eta = parse_valuation(read("fg-rational.val"))
    rational = valuation_interpretation(pi, eta, F(1, 2))
    assert rational.domain == "rational" and rational.shape.dim == 1
    nat = _expand(rational, catalog("half"))
    assert nat.shape == BlockShape(2, 1) and nat.domain == "natural"
    assert nat.table["f"].mats[0] == Mat.ones(2)
    assert nat.table["f"].const == Mat.column([2, 2])
    assert nat.table["g"].mats[0] == parse_interpretation(read("fg-natural.interp")).table["g"].mats[0]
    assert nat.table["g"].const == Mat.column([1, 0])
    assert nat.table["f#"].mats[0] == Mat.identity(2)
    assert nat.table["f#"].const == Mat.zero(2, 1)
    assert nat.delta == F(1, 2)


def test_expand_rational_natural_degenerate():
    interp = parse_interpretation(
        "domain rational\ndim 1\nblock 1\ninterp f : 1\n  M1 = [2]\n  C = [3]")
    from matint import Encoding
    out = _expand(interp, Encoding(1, {}))
    assert out.domain == "natural"
    assert out.table["f"].mats[0] == Mat(1, 1, (2,))
    out2 = _expand(interp, catalog("half"))
    assert out2.table["f"].mats[0] == Mat.ones(2)       # mu_int(2, 2)
    assert out2.table["f"].const == Mat.column([3, 3])  # nu(2, 3)
    # a dim-1 encoding has no value to encode a rational entry by
    half = parse_interpretation(
        "domain rational\ndim 1\nblock 1\ninterp f : 1\n  M1 = [2]\n  C = [1/2]")
    plan = plan_expansion(Encoding(1, {}), rational_entries(half))
    assert plan.faults == ("f: entry 1/2 is neither natural nor encoded",)
    assert not plan.compatible


def test_expand_rational_unencodable_entry():
    # the plan of the expansion names each entry the encoding lacks, and no
    # value is validated then
    interp = parse_interpretation(
        "domain rational\ndim 1\nblock 1\ninterp f : 1\n  M1 = [1/3]\n  C = [1/5]")
    plan = plan_expansion(catalog("half"), rational_entries(interp))
    assert plan.faults == ("f: entry 1/3 is neither natural nor encoded",
                           "f: entry 1/5 is neither natural nor encoded")
    assert not plan.missing and not plan.compatible


def test_expansion_plan_names_a_wrong_value():
    from matint import Encoding
    bad = Encoding(2, {F(1, 2): Mat.ones(2), F(1, 3): Mat.ones(2)})   # rho = 2 for both
    interp = parse_interpretation(
        "domain rational\ndim 1\nblock 1\ninterp f : 1\n  M1 = [1/2]\n  C = [0]")
    # 1/3 is wrong as well, but nothing uses it
    assert plan_expansion(bad, rational_entries(interp)).faults == ("wrong values: 1/2",)
    # a required product is checked as a used key is
    assert plan_expansion(bad, req=frozenset({F(1, 3)})).faults == ("wrong values: 1/3",)


def test_valuation_entries_are_the_entries_of_the_valuation_interpretation():
    # compat and expand plan from valuation_entries; expand substitutes the
    # entries of valuation_interpretation, so the two must agree
    pi = parse_pinterp(read("fg-params.pi") + "pinterp h : 2 = h2 h1 | h0\n")
    eta = {**parse_valuation(read("fg-rational.val")), "h2": F(1, 3), "h1": 4, "h0": F(1, 4)}
    interp = valuation_interpretation(pi, eta)
    assert [(s, x) for s, x in valuation_entries(pi, eta) if isinstance(x, F)] \
        == list(rational_entries(interp))
    del eta["h1"]
    with pytest.raises(InterpError, match="unbound parameter 'h1'"):
        list(valuation_entries(pi, eta))
    with pytest.raises(InterpError, match="unbound parameter 'h1'"):
        valuation_interpretation(pi, eta)


def test_expand_rational_refuses_a_plan_with_a_fault():
    # the expansion checks no entry itself, but a plan with a fault raises
    # its first one
    from matint import Encoding
    interp = parse_interpretation(
        "domain rational\ndim 1\nblock 1\ninterp f : 1\n  M1 = [1/2]\n  C = [1/3]")
    bad = Encoding(2, {F(1, 2): Mat.ones(2)})    # rho = 2
    for plan, message in [
        (plan_expansion(catalog("half"), rational_entries(interp)),
         "f: entry 1/3 is neither natural nor encoded"),
        (plan_expansion(bad, [("f", F(1, 2))]), "wrong values: 1/2"),
        (plan_expansion(catalog("half"), req=frozenset({F(1, 4), F(1, 8)})),
         "missing products: 1/8, 1/4"),
    ]:
        with pytest.raises(EncodingError) as exc:
            expand_rational(interp, plan)
        assert str(exc.value) == message


def test_verify_transform_relative(relative):
    trs, interp = relative
    lifted = interp_to_blocks(interp)
    report = verify_transform(trs, (), interp, lifted, "equivalence")
    assert report.before.holds and report.after.holds and report.agree
    assert len(report.before.checks) == 4      # |R u S| rules, all weak


def test_verify_transform_identity():
    trs, pairs = example_one()
    ex2 = parse_interpretation(read("fg-natural.interp"))
    report = verify_transform(trs, pairs, ex2, ex2, "equivalence")
    assert report.agree


def test_verify_transform_expansion_forward():
    trs, pairs = example_one()
    rational = parse_interpretation(read("fg-rational.interp"))
    nat = _expand(rational, catalog("half"))
    report = verify_transform(trs, pairs, rational, nat, "forward", delta=F(1, 2))
    assert report.before.holds and report.after.holds and report.agree


def test_equivalence_on_corpus_value_backend():
    trs, pairs = example_one()
    rng = random.Random(42)
    holds = fails = 0
    for _ in range(120):
        interp = mixed_interp(rng)
        before = check_problem(trs, pairs, interp, "value")
        after = check_problem(trs, pairs, interp_to_blocks(interp), "value")
        assert before.holds == after.holds
        for b, a in zip(before.checks, after.checks):
            assert b.verdict.holds == a.verdict.holds
        holds += before.holds
        fails += not before.holds
    assert holds > 20 and fails > 20     # the equivalence was exercised both ways


def test_entrywise_holds_direction_on_uniform_corpus():
    # on a uniform corpus (dim<=3, entries<=4) the entrywise Holds verdicts
    # survive the lift, and so do the FAILS ones: over block-constant tuples
    # each row of a lifted form repeats its source row's block-column sums.
    # A FAILS witness repeats its source's values block by block
    trs, pairs = example_one()
    holds = 0
    for i in range(200):
        interp = uniform_interp(random.Random(3000 + i))
        lifted = interp_to_blocks(interp)
        b = lifted.shape.block
        before = check_problem(trs, pairs, interp, "entrywise")
        after = check_problem(trs, pairs, lifted, "entrywise")
        assert after.holds == before.holds
        for check, image in zip(before.checks, after.checks):
            assert image.verdict.holds == check.verdict.holds
            holds += check.verdict.holds
            if check.witness is not None:
                assert image.witness == {v: tuple(x for x in xs for _ in range(b))
                                         for v, xs in check.witness.items()}
    assert 0 < holds < 200 * 4


def test_entrywise_verdicts_survive_the_lift():
    # compared entry by entry, this lift lost off-diagonal domination where
    # scalar*scalar products met a divisible entry; over block-constant
    # tuples, the order compares each row's block-column sums, which the
    # lift keeps, so both orderings keep every verdict
    interp = parse_interpretation("""
domain natural
dim 3
block 1
interp f : 1
  M1 = [3 2 3 ; 2 3 1 ; 2 2 1]
  C = [2 ; 2 ; 2]
interp g : 1
  M1 = [0 1 1 ; 0 0 0 ; 0 0 0]
  C = [0 ; 0 ; 0]
interp f# : 1
  M1 = [1 1 1 ; 0 1 1 ; 0 0 1]
  C = [0 ; 0 ; 0]
""")
    trs, pairs = example_one()
    lifted = interp_to_blocks(interp)
    assert lifted.shape.block > 1
    for backend in ("entrywise", "value"):
        assert check_problem(trs, pairs, interp, backend).holds
        assert check_problem(trs, pairs, lifted, backend).holds


def test_partial_roundtrip_collapse_recovers_naturals():
    # expansion followed by collapse recovers natural entries wherever the
    # expanded blocks are const+scalar (Jordan-encoded blocks are not)
    interp = parse_interpretation(
        "domain rational\ndim 2\nblock 1\n"
        "interp f : 1\n  M1 = [2 1 ; 0 3]\n  C = [4 ; 0]")
    expanded = _expand(interp, catalog("half"))
    collapsed = collapse_interpretation(expanded, 2)
    assert collapsed.table["f"].mats[0] == interp.table["f"].mats[0]
    assert collapsed.table["f"].const == interp.table["f"].const

"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is exact rational equality unless a delta margin is
part of the statement itself.
"""

import itertools
import random
from contextlib import contextmanager
from fractions import Fraction

from matint import (BlockShape, Encoding, LinearFunc, Mat,
                    RepParams, catalog, check_problem, dependency_pairs,
                    eval_term, eval_valuation, expand_rational, plan_expansion, rational_entries,
                    generate_arith_constraints, interp_to_blocks, is_compatible,
                    jordan, lift, mu_const, parse_interpretation, parse_matrix,
                    parse_pinterp, parse_trs, parse_valuation, required_products,
                    rho, sample_falsify, to_bit_matrix, validate,
                    valuation_interpretation, verify_transform)
import _reference as ref
from _helpers import read, uniform_interp

F = Fraction


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{title}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{title}]: PASS")


def test_criterion_1_example_one_pipeline():
    with criterion(1, "rational dim-1 proof of the f/g system"):
        trs = parse_trs(read("fg.trs"))
        pairs = dependency_pairs(trs)
        assert [str(p) for p in pairs] == [
            "f#(f(x)) -> f#(g(f(x)))",
            "f#(f(x)) -> f#(x)",
        ]
        interp = parse_interpretation(read("fg-rational.interp"))
        report = check_problem(trs, pairs, interp, "value", delta=F(1, 2))
        assert [c.rel for c in report.checks] == ["weak", "weak", "strict", "strict"]
        assert all(c.verdict.holds for c in report.checks)


def test_criterion_2_example_two_entrywise():
    with criterion(2, "dim-2 natural proof, entrywise backend"):
        trs = parse_trs(read("fg.trs"))
        pairs = dependency_pairs(trs)
        interp = parse_interpretation(read("fg-natural.interp"))
        report = check_problem(trs, pairs, interp, "entrywise")
        assert len(report.checks) == 4 and report.holds


def test_criterion_3_representation_identities():
    with criterion(3, "10^4 random representation identities, exact"):
        rng = random.Random(1003)
        cases = 0
        # value identity rho(mu(x)) = x
        for _ in range(2500):
            params = RepParams(rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6))
            x = F(rng.randint(-9, 9), rng.randint(1, 4))
            assert rho(params.m, mu_const(params, x)) == x
            cases += 1
        # additivity and scaling
        for _ in range(2500):
            r, c, m = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
            a = Mat(r, c, tuple(rng.randint(0, 9) for _ in range(r * c)))
            b = Mat(r, c, tuple(rng.randint(0, 9) for _ in range(r * c)))
            assert rho(m, a + b) == rho(m, a) + rho(m, b)
            alpha = F(rng.randint(-9, 9), rng.randint(1, 4))
            assert rho(m, a.scale(alpha)) == alpha * rho(m, a)
            cases += 1
        # product preservation for scalar/constant/Jordan chains
        for _ in range(2000):
            n = rng.randint(1, 6)
            chain = []
            while len(chain) < rng.randint(1, 5):
                kind = rng.choice(("scalar", "const", "jordan") if n > 1
                                  else ("scalar", "const"))
                if kind == "jordan" and not (not chain or chain[-1][1] == "const"):
                    continue
                if kind == "scalar":
                    chain.append((Mat.identity(n).scale(rng.randint(0, 9)), kind))
                elif kind == "const":
                    chain.append((Mat.constant(rng.randint(0, 9), n), kind))
                else:
                    chain.append((jordan(n, rng.randint(0, n)), kind))
            if chain[-1][1] == "jordan" and len(chain) > 1:
                chain.append((Mat.constant(rng.randint(0, 9), n), "const"))
            product, expected = Mat.identity(n), F(1)
            for mat, _ in chain:
                product = product * mat
                expected *= F(rho(n, mat))
            assert rho(n, product) == expected
            cases += 1
        # value-preserving transformation: rho_{mn}(lift_m(A)) = rho_n(A)
        for _ in range(1500):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            a = Mat(r, c, tuple(rng.randint(0, 9) for _ in range(r * c)))
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            params = RepParams(m, rng.randint(1, 3), rng.randint(1, 3))
            assert rho(m * n, lift(params, a)) == rho(n, a)
            cases += 1
        # sums and products of lifted matrices (inner block dim = divisor)
        for _ in range(1500):
            s, t, u = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            n, p, r = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
            m = rng.randint(1, 4)
            a = Mat(s, t, tuple(rng.randint(0, 9) for _ in range(s * t)))
            b = Mat(t, u, tuple(rng.randint(0, 9) for _ in range(t * u)))
            la, lb = lift(RepParams(n, p, n), a), lift(RepParams(n, n, r), b)
            assert rho(m * n, la * lb) == rho(m, a * b)
            a2 = Mat(s, t, tuple(rng.randint(0, 9) for _ in range(s * t)))
            la2 = lift(RepParams(n, p, n), a2)
            assert rho(m * n, la + la2) == rho(m, a) + rho(m, a2)
            cases += 1
        assert cases == 10_000


def test_criterion_4_bit_reduction():
    with criterion(4, "bit reduction reproduces the 6x6 layout; rho preserved"):
        bit, scale = to_bit_matrix(parse_matrix("[3 0 ; 0 3]"))
        assert scale == 3 and bit.shape == (6, 6)
        for i in range(2):
            for j in range(2):
                expected = Mat.ones(3) if i == j else Mat.zero(3)
                assert bit.block(i, j, 3, 3) == expected
        # entries <= 9 on single-row/column shapes and <= 4 on 2x2 keep the
        # iterated dimension growth bounded
        rng = random.Random(1004)
        for k in range(1000):
            if k < 700:
                r, c = (1, rng.randint(1, 2)) if k % 2 else (rng.randint(1, 2), 1)
                a = Mat(r, c, tuple(rng.randint(0, 9) for _ in range(r * c)))
            else:
                a = Mat(2, 2, tuple(rng.randint(0, 4) for _ in range(4)))
            bit, scale = to_bit_matrix(a)
            assert bit.is_bit()
            for m in (1, 2, 3):
                assert rho(m * scale, bit) == rho(m, a)


def test_criterion_5_encoding_catalog():
    with criterion(5, "catalog encodings validate; products match the identities"):
        for name in ("half", "quarters", "eighths", "sixths"):
            report = validate(catalog(name))
            assert report.valid
            assert all(report.value_valid.values())
            assert all(report.product_value_valid.values())
            assert all(report.product_closed.values())
        quarters = catalog("quarters")
        assert quarters.table[F(1, 2)] ** 2 == quarters.table[F(1, 4)]
        eighths = catalog("eighths")
        h, q, e = (eighths.table[F(1, k)] for k in (2, 4, 8))
        assert h * h == q and h * q == e and q * h == e
        sixths = catalog("sixths")
        h, t, s6 = (sixths.table[F(1, k)] for k in (2, 3, 6))
        assert h * t == s6 and t * h == s6
        # requesting 1/4 from the sixths package fails: rho_6(Q_half^2) = 1/3
        extended = dict(sixths.table)
        extended[F(1, 4)] = h * h
        report = validate(Encoding(6, extended))
        assert report.product_value_valid[(F(1, 2), F(1, 2))] is False
        assert rho(6, h * h) == F(1, 3)
        assert not report.valid


def test_criterion_6_relative_termination_lift():
    with criterion(6, "dim-2 to dim-4 bit lift, matrix-exact, verdicts agree"):
        trs = parse_trs(read("relative.trs"))
        interp = parse_interpretation(read("relative.interp"))
        lifted = interp_to_blocks(interp)
        i2, z2, o2 = Mat.identity(2), Mat.zero(2), Mat.ones(2)
        expected = {
            "a": LinearFunc((), Mat.column([1, 1, 0, 0])),
            "b": LinearFunc((), Mat.zero(4, 1)),
            "f": LinearFunc((Mat.from_blocks([[i2, z2], [z2, z2]]),
                             Mat.from_blocks([[i2, o2], [z2, z2]]),
                             Mat.from_blocks([[i2, z2], [z2, z2]])),
                            Mat.zero(4, 1)),
            "g": LinearFunc((Mat.from_blocks([[i2, z2], [i2, i2]]),),
                            Mat.column([0, 0, 1, 1])),
        }
        assert lifted.shape == BlockShape(4, 2)
        assert lifted.table == expected
        # the relative-termination constraints: every rule of R u S weakly
        report = verify_transform(trs, (), interp, lifted, "equivalence")
        assert len(report.before.checks) == len(trs.rules) == 4
        assert report.before.holds and report.after.holds and report.agree


def test_criterion_7_rational_expansion():
    with criterion(7, "valuation expands to the published natural interpretation"):
        trs = parse_trs(read("fg.trs"))
        pairs = dependency_pairs(trs)
        eta = parse_valuation(read("fg-rational.val"))
        pi = parse_pinterp(read("fg-params.pi"))
        rational = valuation_interpretation(pi, eta)
        plan = plan_expansion(catalog("half"), rational_entries(rational))
        nat = expand_rational(rational, plan)
        assert nat.table == {
            "f": LinearFunc((Mat.ones(2),), Mat.column([2, 2])),
            "g": LinearFunc((jordan(2),), Mat.column([1, 0])),
            "f#": LinearFunc((Mat.identity(2),), Mat.zero(2, 1)),
        }
        value_report = check_problem(trs, pairs, nat, "value", m=2, delta=F(1, 2))
        assert value_report.holds
        entry_report = check_problem(trs, pairs, nat, "entrywise")
        assert not entry_report.holds
        failing = [c.label for c in entry_report.checks if not c.verdict.holds]
        assert failing == ["pair 1"]       # the rho ordering is genuinely needed


def test_criterion_8_constraint_generation():
    with criterion(8, "eight published constraints; compatibility flips on C'"):
        trs = parse_trs(read("fg.trs"))
        pairs = dependency_pairs(trs)
        pi = parse_pinterp(read("fg-params.pi"))
        eta = parse_valuation(read("fg-rational.val"))
        cs = generate_arith_constraints(trs, pairs, pi)
        words = lambda *ws: sorted(tuple(w.split()) for w in ws)
        published = [
            ("weak", words("f1 f1"), words("f1 g1 f1")),
            ("weak", words("f1 f0", "f0"), words("f1 g1 f0", "f1 g0", "f0")),
            ("weak", words("f1 g1 f1"), words("1")),
            ("weak", words("f1 g1 f0", "f1 g0", "f0"), words("0")),
            ("weak", words("F1 f1"), words("F1 g1 f1")),
            ("strict", words("F1 f0", "F0"), words("F1 g1 f0", "F1 g0", "F0")),
            ("weak", words("F1 f1"), words("F1")),
            ("strict", words("F1 f0", "F0"), words("0")),
        ]
        assert len(cs) == 8
        for c, (rel, lhs, rhs) in zip(cs, published):
            assert c.rel == rel
            assert sorted(map(tuple, c.lhs)) == lhs and sorted(map(tuple, c.rhs)) == rhs
        for c in cs:
            assert eval_valuation(c, eta).holds
        req = required_products(cs, eta)
        assert req == {F(1, 2)}
        assert is_compatible(catalog("half"), req)
        extra = parse_trs("(VAR x) (RULES f(g(f(x))) -> f(g(f(g(f(x))))))")
        cs_prime = cs + generate_arith_constraints(extra, (), pi)
        req_prime = required_products(cs_prime, eta)
        assert req_prime == {F(1, 2), F(1, 4)}
        assert not is_compatible(catalog("half"), req_prime)
        assert F(1, 4) not in catalog("half").table


def _violated(interp, rule, rel, backend, m, delta, point):
    """Whether ``point`` (variable -> tuple) violates the rule, by the
    reference evaluator's full forms evaluated at it."""
    lval, rval = (sum((form.coeff(v) * Mat.column(point[v]) for v in point),
                      form.const).entries
                  for form in (ref.eval_term(interp, t) for t in (rule.lhs, rule.rhs)))
    if backend == "entrywise":
        return any(l < r for l, r in zip(lval, rval)) or (rel == "strict" and lval[0] <= rval[0])
    if rel == "strict":
        return F(sum(lval) - sum(rval), m) < delta
    return sum(lval) < sum(rval)


def test_criterion_9_backend_oracle_consistency():
    with criterion(9, "200-instance corpus: sampling agrees; FAILS witnesses violate; "
                      "lift preserves verdicts"):
        trs = parse_trs(read("fg.trs"))
        pairs = dependency_pairs(trs)
        rules = list(trs.rules) + list(pairs)
        rels = ["weak"] * len(trs.rules) + ["strict"] * len(pairs)
        examined = refuted = 0
        for i in range(200):
            interp = uniform_interp(random.Random(3000 + i))
            for backend in ("entrywise", "value"):
                report = check_problem(trs, pairs, interp, backend)
                m, delta = report.m, report.delta
                for check, rule, rel in zip(report.checks, rules, rels):
                    if not check.verdict.holds:
                        # a FAILS verdict is a tuple that violates the rule
                        assert _violated(interp, rule, rel, backend, m, delta, check.witness)
                        refuted += 1
                        continue
                    lhs = eval_term(interp, rule.lhs)
                    rhs = eval_term(interp, rule.rhs)
                    assert sample_falsify(lhs, rhs, rel, interp.shape, backend,
                                          m=m, delta=delta) is None
                    examined += 1
            before = check_problem(trs, pairs, interp, "value")
            after = check_problem(trs, pairs, interp_to_blocks(interp), "value")
            assert before.holds == after.holds
            for b, a in zip(before.checks, after.checks):
                assert b.verdict.holds == a.verdict.holds
        assert examined >= 400     # plenty of Holds verdicts were cross-checked
        assert refuted >= 400      # and plenty of FAILS verdicts were re-evaluated


def test_criterion_10_impossibility_witness():
    with criterion(10, "no dim<=3 bit encoding of {1/2, 1/3, 1/4} exists"):
        targets = (F(1, 2), F(1, 3), F(1, 4))
        for dim in (1, 2, 3):
            all_bits = list(itertools.product((0, 1), repeat=dim * dim))
            candidates = {
                q: [Mat(dim, dim, bits) for bits in all_bits
                    if rho(dim, Mat(dim, dim, bits)) == q]
                for q in targets
            }
            solutions = [
                (h, t, qr)
                for h in candidates[F(1, 2)]
                for t in candidates[F(1, 3)]
                for qr in candidates[F(1, 4)]
                if rho(dim, h * h) == F(1, 4)      # the only in-set product pair
            ]
            assert solutions == []

import itertools
import random
from fractions import Fraction

import pytest

from matint import (ArithConstraint, Encoding, EncodingError, Mat, catalog,
                    format_encoding, is_compatible, jordan, load_encoding,
                    make_valuation, parse_encoding, required_products, rho,
                    rho_jordan, validate)
from _helpers import rand_rat_mat

F = Fraction


def rc(lhs, rhs, rel="weak", kind="x"):
    mk = lambda s: tuple(tuple(w.split()) for w in s.split("+"))
    return ArithConstraint(mk(lhs), mk(rhs), rel, kind)


def test_rho_jordan_closed_form():
    assert rho_jordan(2, 2, 1) == F(1, 2)
    assert rho_jordan(5, 3, 3) == 0
    assert rho_jordan(8, 4, 3) == F(1, 8)
    for m in (1, 2, 7):
        for n in range(1, 7):
            for p in range(n + 2):
                assert rho_jordan(m, n, p) == rho(m, jordan(n, p))


def test_catalog_half():
    enc = catalog("half")
    assert enc.dim == 2 and enc.table[F(1, 2)] == jordan(2)


def test_catalog_quarters_layout():
    enc = catalog("quarters")
    q_half = enc.table[F(1, 2)]
    assert q_half == Mat.from_blocks([[jordan(2), jordan(2).transpose()],
                                      [Mat.zero(2), Mat.zero(2)]])
    assert enc.table[F(1, 4)].block(0, 1, 2, 2) == jordan(2) * jordan(2).transpose()


def test_catalog_unit():
    assert catalog("unit:2").table == catalog("half").table
    assert catalog("unit(5)").table[F(1, 5)] == jordan(5, 4)
    with pytest.raises(EncodingError):
        catalog("unit:1")
    with pytest.raises(EncodingError):
        catalog("nonesuch")


def test_catalog_sixths_layout():
    enc = catalog("sixths")
    q_sixth = enc.table[F(1, 6)]
    assert q_sixth.block(0, 1, 3, 3) == jordan(3, 2) * jordan(3, 2).transpose()
    assert q_sixth.block(0, 0, 3, 3) == Mat.zero(3)
    assert q_sixth.block(1, 0, 3, 3) == Mat.zero(3)
    assert q_sixth.block(1, 1, 3, 3) == Mat.zero(3)


def test_catalog_rho_values():
    for name, values in (("half", {F(1, 2)}),
                         ("quarters", {F(1, 2), F(1, 4)}),
                         ("eighths", {F(1, 2), F(1, 4), F(1, 8)}),
                         ("sixths", {F(1, 2), F(1, 3), F(1, 6)})):
        enc = catalog(name)
        assert set(enc.table) == values
        for q, mat in enc.table.items():
            assert rho(enc.dim, mat) == q


def test_catalog_product_identities_exact():
    quarters = catalog("quarters")
    assert quarters.table[F(1, 2)] * quarters.table[F(1, 2)] == quarters.table[F(1, 4)]
    eighths = catalog("eighths")
    h, q, e = (eighths.table[F(1, k)] for k in (2, 4, 8))
    assert h * h == q and h * q == e and q * h == e
    sixths = catalog("sixths")
    h, t, s = (sixths.table[F(1, k)] for k in (2, 3, 6))
    assert h * t == s and t * h == s
    assert h * h == t                      # the documented quirk: Q_half^2 = Q_third


def test_validate_catalog_all_flags():
    for name in ("half", "quarters", "eighths", "sixths"):
        report = validate(catalog(name))
        assert report.valid
        assert all(report.value_valid.values())
        assert all(report.product_value_valid.values())
        assert all(report.product_closed.values())
    assert validate(catalog("unit:7")).product_value_valid == {}


def test_validate_empty_encoding_vacuous():
    assert validate(Encoding(1, {})).valid


def test_validate_extended_sixths_fails_quarter():
    sixths = catalog("sixths")
    table = dict(sixths.table)
    table[F(1, 4)] = table[F(1, 2)] * table[F(1, 2)]   # best attempt: equals Q_third
    report = validate(Encoding(6, table))
    assert report.product_value_valid[(F(1, 2), F(1, 2))] is False
    assert rho(6, table[F(1, 2)] * table[F(1, 2)]) == F(1, 3)
    assert not report.valid


def test_required_products_example():
    eta = make_valuation({"f1": 2, "f0": 2, "g1": F(1, 2), "g0": F(1, 2),
                          "F1": 1, "F0": 0})
    base = [rc("f1 f1", "f1 g1 f1"), rc("f1 f0 + f0", "f1 g1 f0 + f1 g0 + f0")]
    assert required_products(base, eta) == {F(1, 2)}
    extra = base + [rc("f1 g1 f1", "f1 g1 f1 g1")]
    assert required_products(extra, eta) == {F(1, 2), F(1, 4)}


def test_required_products_all_natural():
    eta = make_valuation({"p": 2, "q": 3})
    assert required_products([rc("p q", "q")], eta) == frozenset()


def test_required_products_unbound():
    with pytest.raises(EncodingError, match="unbound"):
        required_products([rc("p", "q")], make_valuation({"p": 1}))


def _subset_products(constraints, eta):
    """Reference: every nonempty subset of every word's rational values."""
    out = set()
    for c in constraints:
        for word in (*c.lhs, *c.rhs):
            rationals = [eta[p] for p in word if isinstance(eta[p], F)]
            for size in range(1, len(rationals) + 1):
                for subset in itertools.combinations(rationals, size):
                    product = F(1)
                    for value in subset:
                        product *= value
                    out.add(product)
    return out


def test_required_products_matches_subset_enumeration():
    rng = random.Random(3)
    # 3/2 * 2/3 = 1 is a nonempty product; c and d share the value 1/2;
    # n and m are integral, and "0"/"1" are the reserved parameters
    eta = make_valuation({"a": F(3, 2), "b": F(2, 3), "c": F(1, 2), "d": F(1, 2),
                          "e": F(1, 3), "n": 2, "m": 5})
    names = sorted(eta)

    def word_sum():
        return tuple(tuple(rng.choice(names) for _ in range(rng.randint(1, 10)))
                     for _ in range(rng.randint(1, 3)))

    saw_one = False
    for _ in range(300):
        cs = [ArithConstraint(word_sum(), word_sum(), "weak", "x")
              for _ in range(rng.randint(1, 4))]
        req = required_products(cs, eta)
        assert req == _subset_products(cs, eta)
        saw_one |= 1 in req
    assert saw_one


def test_required_products_long_word():
    eta = make_valuation({"h": F(1, 2)})
    assert required_products([rc(" ".join(["h"] * 64), "h")], eta) == \
        {F(1, 2 ** k) for k in range(1, 65)}


def test_required_products_unbound_in_dominated_word():
    eta = make_valuation({"c": F(1, 2)})
    with pytest.raises(EncodingError, match="unbound parameter 'zz'"):
        required_products([rc("c c c", "c zz")], eta)


def test_is_compatible():
    assert is_compatible(catalog("half"), frozenset({F(1, 2)}))
    assert is_compatible(catalog("half"), frozenset())
    assert not is_compatible(catalog("half"), frozenset({F(1, 2), F(1, 4)}))
    assert is_compatible(catalog("quarters"), frozenset({F(1, 2), F(1, 4)}))


def test_jordan_power_ordering():
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(1, 6)
        p = rng.randint(0, n - 1) if n > 1 else 0
        q = rng.randint(p + 1, n)
        m = rng.randint(1, 8)
        jp, jq = jordan(n, p), jordan(n, q)
        assert rho(m, jp) == rho(m, jp.transpose())
        assert rho(m, jp) > rho(m, jq) == rho(m, jq.transpose())
        r = rng.randint(1, 4)
        a = Mat(n, r, tuple(abs(x) for x in rand_rat_mat(rng, n, r).entries))
        assert rho(m, jp * a) >= rho(m, jq * a)
        b = Mat(r, n, tuple(abs(x) for x in rand_rat_mat(rng, r, n).entries))
        assert rho(m, b * jp) >= rho(m, b * jq)


def test_chain_products():
    # chains of scalars/constants with Jordan powers flanked by constants
    rng = random.Random(22)
    for _ in range(300):
        n = rng.randint(1, 6)
        length = rng.randint(1, 5)
        chain = []
        for i in range(length):
            prev_const = chain and chain[-1][1] == "const"
            choices = ["scalar", "const"]
            if (not chain or prev_const) and n > 1:
                choices.append("jordan")
            kind = rng.choice(choices)
            if kind == "jordan" and i + 1 < length:
                # commit the right flank to a constant
                pass
            if kind == "scalar":
                chain.append((Mat.identity(n).scale(F(rng.randint(0, 6),
                                                      rng.randint(1, 3))), "scalar"))
            elif kind == "const":
                chain.append((Mat.constant(F(rng.randint(0, 6), rng.randint(1, 3)), n),
                              "const"))
            else:
                chain.append((jordan(n, rng.randint(0, n)), "jordan"))
                if i + 1 < length:
                    chain.append((Mat.constant(F(rng.randint(0, 6), rng.randint(1, 3)),
                                               n), "const"))
        chain = chain[:5]
        if chain and chain[-1][1] == "jordan" and len(chain) > 1 \
                and chain[-2][1] != "const":
            chain.pop()
        product = Mat.identity(n)
        expected = F(1)
        for mat, _ in chain:
            product = product * mat
            expected *= F(rho(n, mat))
        if chain:
            assert rho(n, product) == expected


def test_no_small_encoding_of_half_third_quarter():
    # exhaustive search: no dim <= 3 bit-matrix encoding satisfies the value
    # conditions for {1/2, 1/3, 1/4} together with product-value for 1/2*1/2
    targets = [F(1, 2), F(1, 3), F(1, 4)]
    for dim in (1, 2, 3):
        candidates = {}
        total = list(itertools.product((0, 1), repeat=dim * dim))
        for q in targets:
            candidates[q] = [Mat(dim, dim, bits) for bits in total
                             if rho(dim, Mat(dim, dim, bits)) == q]
        found = []
        for h in candidates[F(1, 2)]:
            for t in candidates[F(1, 3)]:
                for qr in candidates[F(1, 4)]:
                    if rho(dim, h * h) == F(1, 4):
                        found.append((h, t, qr))
        assert not found
    # the same search succeeds for the known dim-2 encoding of {1/2}
    hits = [Mat(2, 2, bits) for bits in itertools.product((0, 1), repeat=4)
            if rho(2, Mat(2, 2, bits)) == F(1, 2)]
    assert jordan(2) in hits


def test_encoding_file_roundtrip():
    for name in ("half", "quarters", "eighths", "sixths"):
        enc = catalog(name)
        parsed = parse_encoding(format_encoding(enc))
        assert parsed.dim == enc.dim and parsed.table == enc.table


def test_parse_encoding_errors():
    with pytest.raises(EncodingError, match="header"):
        parse_encoding("value 1/2 = [0 1 ; 0 0]")
    with pytest.raises(EncodingError, match=r"strictly in \(0,1\)"):
        parse_encoding("encoding dim 2\nvalue 3/2 = [0 1 ; 0 0]")
    with pytest.raises(EncodingError, match="line 2"):
        parse_encoding("encoding dim 2\nvalue 1/2 [0 1 ; 0 0]")
    with pytest.raises(EncodingError, match="twice"):
        parse_encoding("encoding dim 2\nvalue 1/2 = [0 1 ; 0 0]\n"
                       "value 1/2 = [0 0 ; 1 0]")
    with pytest.raises(EncodingError, match="non-natural"):
        Encoding(1, {F(1, 2): Mat(1, 1, (F(1, 2),))})


def test_load_encoding(tmp_path):
    assert load_encoding("half").table == catalog("half").table
    path = tmp_path / "enc.txt"
    path.write_text(format_encoding(catalog("sixths")), encoding="utf-8")
    assert load_encoding(str(path)).table == catalog("sixths").table
    with pytest.raises(EncodingError, match="neither"):
        load_encoding("no-such-thing")

"""Seeded workload generators.

Each generator returns a ``Batch``: the input files to write and the list of
CLI calls, each with the exit code and ``RESULT:`` line it must produce.
Expected answers come from ``ref`` (an evaluator that shares no code with
matint) or from the construction itself (transforms must verify).

The structure of a batch (how many instances, their dimensions, depths,
rule counts and word lengths) is fixed by the workload and size; the seed
only draws the contents. That keeps the cost of a batch nearly the same
from seed to seed, so runs with different seeds are comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import ref

VARS = ("x", "y", "z")


@dataclass
class Call:
    argv: list[str]
    exit: int
    result: str
    lines: tuple[str, ...] = ()          # lines stdout must contain
    out: str | None = None               # --out file, counted in out_bytes
    check_out: Callable[[str], str | None] | None = None  # file text -> error


@dataclass
class Batch:
    files: dict[str, str] = field(default_factory=dict)
    calls: list[Call] = field(default_factory=list)


def _verdict(ok: bool, good: str, bad: str) -> tuple[int, str]:
    return (0, good) if ok else (1, bad)


# --- check-corpus -----------------------------------------------------------

# Everyday proof attempts. The grid covers every combination of dim 2-5,
# natural/rational domain, entrywise/value backend, pairs none/auto/file and
# sampling off/on once per batch; rule count 5-20 and term depth 3-8 cycle
# through their full ranges, the sizes of hand-written termination problems.
# Term shapes follow a fixed pattern and the seed draws symbols of the same
# arity and kind, matrix entries and constants, so a batch costs the same
# for every seed.
CHECK_TRIALS = 200
SIGNATURE = {"c0": 0, "c1": 0, "u0": 1, "u1": 1, "u2": 1, "b0": 2, "b1": 2}
# Contexts are rooted in a defined symbol and the spine below has a defined
# symbol every fourth level, so --pairs auto yields a pair or two per rule,
# as in constructor systems, rather than one per subterm.
DEFINED = {1: ("u0",), 2: ("b0",)}
CONSTRUCTORS = {1: ("u1", "u2"), 2: ("b1",)}


def _entry(rng, domain, kind, lo, hi=3):
    """A nonzero value in [lo, hi]; in the rational domain, ``kind`` 1 draws a
    half-integer and 0 an integer. Which entries are zero, integral or
    half-integral follows a fixed pattern, since Fraction arithmetic costs
    far more than int arithmetic and the cost should not depend on the seed."""
    if domain == "natural" or kind == 0:
        return rng.randint(max(lo, 1), hi)
    return Fraction(rng.randrange(2 * lo + 1, 2 * hi, 2), 2)


def _check_interp(rng, dim, domain):
    """Every matrix is >= I and every constant has first entry >= 1, and
    every sharp symbol sums its arguments plus e1. Then C[r] -> r holds on
    both backends, so do its dependency pairs and u0#(C[r]) -> u0#(r), and
    the reversed rule r -> C[r] with a ground context fails."""
    table = {}
    ident = [[int(i == j) for j in range(dim)] for i in range(dim)]
    e1 = [1] + [0] * (dim - 1)
    t = 0
    for sym, arity in SIGNATURE.items():
        mats = []
        for _ in range(arity):
            t += 1
            mats.append([[(1 + _entry(rng, domain, (i + t) % 2, 0, 2) * ((i + t) % 3 == 0))
                          if i == j else
                          _entry(rng, domain, (i + j + t) % 2, 1) * ((i * dim + j + t) % 4 == 0)
                          for j in range(dim)] for i in range(dim)])
        t += 1
        const = [_entry(rng, domain, (i + t) % 2, 1) * (i == 0 or (i + t) % 3 == 0)
                 for i in range(dim)]
        table[sym] = (mats, const)
        table[sym + "#"] = ([ident] * arity, e1)
    return table


def _node(rng, height, ground, leaf):
    """Spine node at this height above the bottom leaf: binary every third
    level (its side argument a variable or a constant, alternating), with a
    defined symbol every fourth level."""
    arity = 2 if height % 3 == 0 else 1
    sym = rng.choice((DEFINED if height % 4 == 2 else CONSTRUCTORS)[arity])
    if arity == 1:
        return (sym, (leaf,))
    side = (rng.choice(("c0", "c1")), ()) if ground or height % 2 else "y"
    return (sym, (leaf, side))


def _term(rng, depth, ground=False):
    t = (rng.choice(("c0", "c1")), ()) if ground else "x"
    for height in range(1, depth + 1):
        t = _node(rng, height, ground, t)
    return t


def _context(rng, depth, hole, ground):
    """A context of this depth over hole, rooted in a defined symbol."""
    t = hole
    for height in range(1, depth):
        t = _node(rng, height + 1, ground, t)
    arity = 1 + depth % 2
    side = ((rng.choice(("c0", "c1")), ()) if ground else "z",)
    return (rng.choice(DEFINED[arity]), (t,) + side * (arity - 1))


def _planted_rule(rng, depth, index, holds):
    cdepth = 1 + index % min(3, depth - 1)
    r = _term(rng, depth - cdepth)
    if holds:
        return (_context(rng, cdepth, r, ground=False), r)
    return (r, _context(rng, cdepth, r, ground=True))


def _pair_of(rule):
    lhs, rhs = rule
    return (("u0#", (lhs,)), ("u0#", (rhs,)))


def check_corpus(rng, size: str) -> Batch:
    batch = Batch()
    count = 96 if size == "full" else 6
    for i in range(count):
        dim = 2 + i % 4
        domain = ("natural", "rational")[(i // 4) % 2]
        backend = ("entrywise", "value")[(i // 8) % 2]
        pairs_mode = ("none", "auto", "file")[(i // 16) % 3]
        trials = (0, CHECK_TRIALS)[(i // 48) % 2]
        if size != "full":
            backend, pairs_mode = ("entrywise", "value")[i % 2], ("none", "auto", "file")[i % 3]
            trials = CHECK_TRIALS * (i % 2)
        n_rules = 5 + (i * 11) % 16
        depth = 3 + (i * 5) % 6
        bad = i % n_rules if i % 5 in (1, 3) else -1
        rules = [_planted_rule(rng, depth, k, holds=(k != bad)) for k in range(n_rules)]
        table = _check_interp(rng, dim, domain)
        name = f"cc{i}"
        batch.files[f"{name}.trs"] = ref.fmt_rules(rules)
        batch.files[f"{name}.interp"] = ref.fmt_interp(domain, dim, table)
        argv = ["check", "--trs", f"{name}.trs", "--interp", f"{name}.interp",
                "--backend", backend]
        if pairs_mode == "auto":
            pairs = ref.dependency_pairs(rules)
            argv += ["--pairs", "auto"]
        elif pairs_mode == "file":
            n_pairs = max(2, n_rules // 3)
            bad_pair = i % n_pairs if i % 4 == 1 else -1
            pairs = [_pair_of(_planted_rule(rng, depth, k, holds=(k != bad_pair)))
                     for k in range(n_pairs)]
            batch.files[f"{name}.pairs"] = ref.fmt_rules(pairs)
            argv += ["--pairs", f"{name}.pairs"]
        else:
            pairs = []
        if trials:
            argv += ["--trials", str(trials), "--seed", str(i)]
        holds = ref.problem_holds(table, dim, rules, pairs, backend)
        batch.calls.append(Call(argv, *_verdict(holds, "SATISFIED", "VIOLATED")))
        if i % 3 == 0:
            argv = ["dps", "--trs", f"{name}.trs"]
            out = None
            if i % 2 == 0:
                out = f"{name}.dps.trs"
                argv += ["--out", out]
            if i % 9 == 0:
                argv.append("--legacy-names")
            lines = (f"# {len(ref.dependency_pairs(rules))} dependency pair(s)",)
            batch.calls.append(Call(argv, 0, "OK", lines, out))
    return batch


# --- lift-verify ------------------------------------------------------------

# data/relative.* shaped instances with f's M2 = [1 k ; 0 k-1]: to-bits lifts
# by k, then by k-1, so dim 2 becomes 2k(k-1), 24 at k=4 up to 112 at k=8.
# k=12/16 (dims 264/480, 13.7 s/93 s per check today) are left out for run
# length; lift_verify(..., ks=(12,)) reaches them for a one-off measurement.
LIFT_KS = (4, 5, 6, 7, 8)


def _relative_rules(rng):
    """The four rule shapes of data/relative.trs (same matrix-product count
    for every seed), with the constants and variables permuted."""
    a, b = rng.sample(("a", "b"), 2)
    x, y, z = rng.sample(VARS, 3)
    A, B = (a, ()), (b, ())
    return [
        (("f", (A, ("g", (y,)), z)), ("f", (A, y, ("g", (y,))))),
        (("f", (B, ("g", (y,)), z)), ("f", (A, y, z))),
        (A, B),
        (("f", (x, y, z)), ("f", (x, y, ("g", (z,))))),
    ]


def _collapse_check(source: str):
    expected = ref.read_interp(source)

    def check(text):
        if ref.read_interp(text) != expected:
            return "collapsed interpretation differs from the input"
        return None
    return check


def _bits_check(dim: int):
    def check(text):
        got, table = ref.read_interp(text)
        if got != dim:
            return f"bit interpretation has dim {got}, expected {dim}"
        for sym, mats in table.items():
            if any(e not in (0, 1) for m in mats[:-1] for row in m for e in row):
                return f"{sym}: matrix entry outside {{0, 1}}"
        return None
    return check


def lift_verify(rng, size: str, ks=None) -> Batch:
    batch = Batch()
    ks = ks or (LIFT_KS if size == "full" else (4,))
    for k in ks:
        # data/relative.interp's matrices: every (1,1) entry is 1, so no
        # product vanishes and every seed costs the same products; the
        # seed draws the 0/1 constants, which decide the verdicts
        table = {
            "a": ([], [rng.randint(0, 1) for _ in range(2)]),
            "b": ([], [rng.randint(0, 1) for _ in range(2)]),
            "f": ([[[1, 0], [0, 0]], [[1, k], [0, k - 1]], [[1, 0], [0, 0]]],
                  [rng.randint(0, 1) for _ in range(2)]),
            "g": ([[[1, 0], [1, 1]]], [rng.randint(0, 1) for _ in range(2)]),
        }
        rules = _relative_rules(rng)
        name = f"lv{k}"
        source = ref.fmt_interp("natural", 2, table)
        batch.files[f"{name}.interp"] = source
        batch.files[f"{name}.trs"] = ref.fmt_rules(rules)
        blocks, bits = f"{name}.blocks.interp", f"{name}.bits.interp"
        dim = 2 * k * (k - 1)
        # lifts preserve value verdicts: the dim-2 reference decides both checks
        verdict = _verdict(ref.problem_holds(table, 2, rules, [], "value"),
                           "SATISFIED", "VIOLATED")
        batch.calls += [
            Call(["to-blocks", "--interp", f"{name}.interp", "--trs", f"{name}.trs",
                  "--out", blocks], 0, "VERIFIED",
                 (f"# factor {k}: dim 2 -> {2 * k}, block 1 -> {k}",), blocks),
            Call(["to-bits", "--interp", f"{name}.interp", "--trs", f"{name}.trs",
                  "--out", bits], 0, "VERIFIED",
                 (f"# final scale {k * (k - 1)}, dim {dim}, max matrix entry 1",),
                 bits, _bits_check(dim)),
            Call(["check", "--trs", f"{name}.trs", "--interp", blocks, "--backend", "value"],
                 *verdict),
            Call(["check", "--trs", f"{name}.trs", "--interp", bits, "--backend", "value"],
                 *verdict),
            Call(["collapse", "--interp", blocks, "--out", f"{name}.collapsed.interp"],
                 0, "COLLAPSED", (), f"{name}.collapsed.interp", _collapse_check(source)),
        ]
    return batch


# --- expand-compat ----------------------------------------------------------

# Symbolic path. Word length L (parameters in the longest word) cycles
# through 8-15. required_products enumerates all 2^r subsets of the r
# rational parameters of a word, so an all-rational chain of L=15 takes
# seconds there. Compatible instances keep coefficients integral (one
# rational constant per word) so that expand succeeds and verifies;
# incompatible ones value the chain coefficient 1/2 and are asked of two
# encodings, so a fifth of the calls take the exponential path.
ENCODINGS = {
    "half": (Fraction(1, 2),),
    "quarters": (Fraction(1, 2), Fraction(1, 4)),
    "eighths": (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)),
    "sixths": (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
}
ENC_DIM = {"half": 2, "quarters": 4, "eighths": 8, "sixths": 6}
PSIG = {"c": 0, "f": 1, "g": 1, "h": 1, "p": 2}


def _chain(rng, length, bottom, symbols=("f", "g", "h")):
    t = bottom
    for _ in range(length):
        t = (rng.choice(symbols), (t,))
    return t


def _expand_check(eta, pinterp, dim):
    """Each expanded entry's block has the value it replaces as its rho
    value: entry sum over the encoding dimension."""
    def check(text):
        _, table = ref.read_interp(text)
        for sym, mats in table.items():
            coeffs, const = pinterp[sym]
            for param, m in zip((*coeffs, const), mats):
                value = Fraction(sum(e for row in m for e in row), dim)
                if value != eta[param]:
                    return f"{sym}: block of {param} has value {value}, not {eta[param]}"
        return None
    return check


def expand_compat(rng, size: str) -> Batch:
    batch = Batch()
    count = 24 if size == "full" else 2
    names = tuple(ENCODINGS)
    for i in range(count):
        compatible = i % 2 == 0
        # the last four incompatible instances all take L=12 (about 0.25 s per
        # compat call), so the p90 call falls inside that group, not on its edge
        length = 12 if i > 16 and not compatible else 8 + (i // 2) % 8
        enc = names[(i // 2) % 4]
        keys = ENCODINGS[enc]
        with_pairs = compatible and (i // 2) % 2 == 0
        pinterp, eta = {}, {}
        for sym, arity in PSIG.items():
            for s in (sym, sym + "#"):
                coeffs = tuple(f"{s.replace('#', 'S')}{k}" for k in range(1, arity + 1))
                const = f"{s.replace('#', 'S')}0"
                pinterp[s] = (coeffs, const)
                for p in coeffs:
                    if compatible or sym not in ("f", "g", "h"):
                        eta[p] = rng.randint(1, 3)
                    elif sym == "f":
                        eta[p] = Fraction(1, 2)
                    else:
                        eta[p] = rng.choice(keys)
                eta[const] = rng.choice(keys) if compatible and rng.random() < 0.5 \
                    else rng.randint(1, 3)
        x, y = rng.sample(VARS, 2)
        if compatible:
            rules = [(_chain(rng, length, x), _chain(rng, length - 1, x))]
        else:
            # all-rational lhs chain of L, rhs chain of L-2 under an integral p
            rules = [(_chain(rng, length, x, ("f",)),
                      ("p", (_chain(rng, length - 2, x, ("f",)), ("c", ()))))]
        rules += [
            (("p", (_chain(rng, length - 3, x, ("g", "h")), y)),
             ("p", (y, _chain(rng, length - 4, x, ("g", "h"))))),
            ((rng.choice("fgh"), (("c", ()),)), ("c", ())),
        ]
        pairs = ref.dependency_pairs(rules) if with_pairs else []
        name = f"ec{i}"
        batch.files[f"{name}.trs"] = ref.fmt_rules(rules)
        batch.files[f"{name}.pi"] = "".join(
            f"pinterp {s} : {len(c)} = {' '.join(c)}{' ' if c else ''}| {c0}\n"
            for s, (c, c0) in pinterp.items())
        batch.files[f"{name}.val"] = "".join(f"param {p} = {ref.fmt_num(v)}\n"
                                             for p, v in eta.items())
        context = ["--trs", f"{name}.trs", "--pinterp", f"{name}.pi"]
        if with_pairs:
            context += ["--pairs", "auto"]
        valuation = ["--valuation", f"{name}.val"]
        all_rules = rules + pairs
        dim1 = {s: ([[[eta[p]]] for p in c], [eta[c0]]) for s, (c, c0) in pinterp.items()}
        satisfied = ref.problem_holds(dim1, 1, rules, pairs, "entrywise")
        req = ref.required_products(pinterp, all_rules, eta)
        batch.calls += [
            Call(["gen-constraints", *context], 0, "OK",
                 (f"# {ref.constraint_count(all_rules)} arithmetic constraint(s)",)),
            Call(["eval-valuation", *context, *valuation],
                 *_verdict(satisfied, "SATISFIED", "VIOLATED")),
        ]
        if compatible:
            if not req <= set(keys):
                raise RuntimeError(f"{name}: planted compatible, but needs {sorted(req)}")
            out = f"{name}.nat.interp"
            batch.calls += [
                Call(["compat", *context, *valuation, "--encoding", enc], 0, "COMPATIBLE"),
                Call(["expand", *context, *valuation, "--encoding", enc, "--out", out],
                     0, "VERIFIED", ("# encoding compatible: yes",), out,
                     _expand_check(eta, pinterp, ENC_DIM[enc])),
                Call(["validate-encoding", "--encoding", enc], 0, "VALID"),
            ]
        else:
            for e in (enc, names[(i // 2 + 1) % 4]):
                batch.calls.append(Call(
                    ["compat", *context, *valuation, "--encoding", e],
                    *_verdict(req <= set(ENCODINGS[e]), "COMPATIBLE", "INCOMPATIBLE")))
    return batch


WORKLOADS = {
    "check-corpus": check_corpus,
    "lift-verify": lift_verify,
    "expand-compat": expand_compat,
}


def build(workload: str, seed: int, size: str = "full") -> Batch:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"), size)

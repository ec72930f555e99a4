"""Batch command-line front end.

Every subcommand prints a deterministic report ending in a machine-readable
``RESULT: <verdict>`` line. Exit codes: 0 satisfied/valid, 1 violated or
invalid or transform disagreement, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction

from .constraints import (ConstraintError, eval_valuation,
                          generate_arith_constraints, parse_pinterp,
                          parse_valuation)
from .encoding import EncodingError, load_encoding, plan_expansion, required_products, validate
from .interp import (InterpError, check_problem, collapse_interpretation,
                     format_interpretation, parse_interpretation)
from .matrix import MatrixError, parse_rat
from .represent import rho
from .trs import (Rule, Trs, TrsError, dependency_pairs, format_trs, interning_scope,
                  parse_trs, rule_texts)
from .transform import (expand_rational, interp_to_bits, interp_to_blocks, rational_entries,
                        rho_preserved, valuation_entries, valuation_interpretation,
                        verify_transform)

INPUT_ERRORS = (TrsError, InterpError, MatrixError, EncodingError,
                ConstraintError, OSError, UnicodeDecodeError)


class _Sources:
    """Loads input files so errors carry the file name. Each input is parsed
    once per path, however often a subcommand asks for it. With --trs given,
    an interpretation or parametric interpretation is checked against the
    signature of the TRS and its pairs as it is loaded."""

    def __init__(self, args):
        self.args = args
        self._loaded = {}
        if getattr(args, "pairs", "none") != "none" and args.trs is None:
            raise SystemExit(_usage_error("--pairs needs --trs"))

    def _load(self, path, load, what):
        """``load(path)``, once per path; an input error names the file."""
        key = (what, path)
        if key not in self._loaded:
            try:
                self._loaded[key] = load(path)
            except INPUT_ERRORS as exc:
                raise SystemExit(_usage_error(f"{what} {path}: {exc}"))
        return self._loaded[key]

    def _parse(self, path, parser, what):
        return self._load(path, lambda p: parser(_read(p)), what)

    def trs(self):
        return self._parse(self.args.trs, parse_trs, "trs")

    def pairs(self):
        spec = getattr(self.args, "pairs", "none")
        if spec == "none":
            return ()
        if spec == "auto":
            return self._load(spec, lambda _: dependency_pairs(self.trs()), "pairs")
        return self._parse(spec, parse_trs, "pairs").rules

    def interp(self):
        interp = self._parse(self.args.interp, parse_interpretation, "interp")
        self._check_signature({s: len(f.mats) for s, f in interp.table.items()},
                              "interp", self.args.interp)
        return interp

    def pinterp(self):
        pi = self._parse(self.args.pinterp, parse_pinterp, "pinterp")
        self._check_signature({s: len(coeffs) for s, (coeffs, _) in pi.table.items()},
                              "pinterp", self.args.pinterp)
        return pi

    def valuation(self):
        return self._parse(self.args.valuation, parse_valuation, "valuation")

    def encoding(self):
        return self._load(self.args.encoding, load_encoding, "encoding")

    def required(self):
        trs, pairs, eta = self.trs(), self.pairs(), self.valuation()
        return required_products(generate_arith_constraints(trs, pairs, self.pinterp()), eta)

    def signature(self) -> dict[str, int]:
        """The signature of the TRS and its pairs: a pairs file adds the
        signature its parser inferred, ``--pairs auto`` its pairs' root
        symbols, since their arguments are TRS terms. A TRS symbol at
        another arity is an input error that names the pairs."""
        signature = dict(self.trs().signature)
        spec = getattr(self.args, "pairs", "none")
        if spec in ("none", "auto"):
            own = ((term.symbol, len(term.args))
                   for pair in self.pairs() for term in (pair.lhs, pair.rhs))
        else:
            own = self._parse(spec, parse_trs, "pairs").signature.items()
        for symbol, arity in own:
            if signature.setdefault(symbol, arity) != arity:
                raise SystemExit(_usage_error(
                    f"pairs {spec}: symbol {symbol!r} has arity {signature[symbol]} in the "
                    f"TRS but is used with {arity} argument(s)"))
        return signature

    def _check_signature(self, arities, what, path):
        """With --trs given, every symbol of the TRS and its pairs must be
        interpreted at its arity; else an input error names the file."""
        if getattr(self.args, "trs", None) is None:
            return
        trs = self.trs().signature
        for symbol, want in self.signature().items():
            # what only a pairs file adds is named as its own
            source = "TRS" if symbol in trs or self.args.pairs == "auto" else "pairs"
            if symbol not in arities:
                problem = f"symbol {symbol!r} of the {source} is uninterpreted"
            elif arities[symbol] != want:
                problem = (f"symbol {symbol!r} has arity {want} in the {source} but "
                           f"{arities[symbol]} " + ("argument matrices" if what == "interp"
                                                    else "coefficient parameters"))
            else:
                continue
            raise SystemExit(_usage_error(f"{what} {path}: {problem}"))


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _write_out(args, text: str):
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"# wrote {args.out}")


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _witness(check) -> str:
    """A FAILS check's witness, ``x=(0,3), y=(1,1)``, or ``(ground)`` with no variable."""
    return ", ".join(f"{v}=({','.join(map(str, xs))})" for v, xs in check.witness.items()) \
        or "(ground)"


def _print_report(report, header=()):
    for line in header:
        print(line)
    texts = rule_texts([check.rule for check in report.checks])
    for check, text in zip(report.checks, texts):
        print(f"{check.label}: {text} [{check.rel}]: "
              f"{'HOLDS' if check.verdict.holds else 'FAILS'}"
              + (f" | {check.verdict.detail}" if check.verdict.detail else "")
              + ("" if check.verdict.holds else f" | witness {_witness(check)}"))


def _result(ok: bool, good: str, bad: str) -> int:
    print(f"RESULT: {good if ok else bad}")
    return 0 if ok else 1


def cmd_check(args) -> int:
    for name in ("m", "delta"):
        if args.backend == "entrywise" and getattr(args, name) is not None:
            raise SystemExit(_usage_error(f"--{name} applies to the value backend only"))
    src = _Sources(args)
    trs = src.trs()
    pairs = src.pairs()
    interp = src.interp()
    report = check_problem(trs, pairs, interp, args.backend, m=args.m, delta=args.delta)
    header = [f"# check: backend {args.backend}, dim {interp.shape.dim}, "
              f"block {interp.shape.block}, {len(trs.rules)} rule(s), "
              f"{len(pairs)} pair(s)"]
    if report.backend == "value":
        header.append(f"# value params: m {report.m}, delta {report.delta}")
    _print_report(report, header)
    # a HOLDS verdict has no witness by construction; --trials only says so
    for check in report.checks:
        if args.trials and check.verdict.holds:
            print(f"# sampled {check.label}: no witness (block values >= 0)")
    return _result(report.holds, "SATISFIED", "VIOLATED")


def _rename_root(term, names):
    if term.symbol in names:
        return type(term)(names[term.symbol], term.args)
    return term


def cmd_dps(args) -> int:
    src = _Sources(args)
    trs = src.trs()
    pairs = dependency_pairs(trs)
    names = {}
    if args.legacy_names:
        existing = set(trs.signature)
        for pair in pairs:
            for term in (pair.lhs, pair.rhs):
                base = term.symbol[:-1]
                legacy = base[:1].upper() + base[1:]
                if base[:1].islower() and legacy not in existing:
                    names[term.symbol] = legacy
    print(f"# {len(pairs)} dependency pair(s)")
    for text in rule_texts([Rule(_rename_root(pair.lhs, names), _rename_root(pair.rhs, names))
                            for pair in pairs]):
        print(text)
    if args.out:
        _write_out(args, format_trs(Trs(trs.variables, pairs, trs.signature)))
    print("RESULT: OK")
    return 0


def _constraint_lines(constraints):
    """Each constraint's report line; each word's text is written once, from
    its parent's."""
    texts = {}
    for c in constraints:
        yield f"{c.source} / {c.kind}: {c.render(texts)}"


def cmd_gen_constraints(args) -> int:
    src = _Sources(args)
    trs = src.trs()
    pairs = src.pairs()
    constraints = generate_arith_constraints(trs, pairs, src.pinterp())
    print(f"# {len(constraints)} arithmetic constraint(s)")
    for line in _constraint_lines(constraints):
        print(line)
    print("RESULT: OK")
    return 0


def cmd_eval_valuation(args) -> int:
    src = _Sources(args)
    trs = src.trs()
    pairs = src.pairs()
    eta = src.valuation()
    constraints = generate_arith_constraints(trs, pairs, src.pinterp())
    memo = {}   # each word's value, shared by all constraints
    results = [eval_valuation(c, eta, args.delta, memo) for c in constraints]
    ok = True
    for line, res in zip(_constraint_lines(constraints), results):
        ok &= res.holds
        print(f"{line} : {res.lhs_value} vs {res.rhs_value} : "
              f"{'HOLDS' if res.holds else 'FAILS'}")
    return _result(ok, "SATISFIED", "VIOLATED")


def _finish_transform(args, src, before, after, b, promise) -> int:
    """The tail of to-blocks, to-bits and expand: the blockwise rho check at
    factor ``b`` (None when nothing was transformed); when rho is preserved
    and a TRS is supplied, compare the before/after verdicts; then write
    --out."""
    agree = True
    if b is not None:
        agree = rho_preserved(before, after, b)
        print(f"# rho preserved: {'yes' if agree else 'NO'}")
    if agree and args.trs:
        report = verify_transform(src.trs(), src.pairs(), before, after, promise,
                                  delta=args.delta)
        print(f"# before [value, m {report.before.m}, delta {report.before.delta}]: "
              f"{'SATISFIED' if report.before.holds else 'VIOLATED'}")
        print(f"# after  [value, m {report.after.m}, delta {report.after.delta}]: "
              f"{'SATISFIED' if report.after.holds else 'VIOLATED'}")
        print(f"# agreement ({promise}): {'yes' if report.agree else 'NO'}")
        agree = report.agree
        if not agree:
            side, failed = (("after", report.after) if report.before.holds
                            else ("before", report.before))
            check = next(c for c in failed.checks if not c.verdict.holds)
            print(f"# {side} witness, {check.label}: {_witness(check)}")
    if args.out:
        _write_out(args, format_interpretation(after))
    return _result(agree, "VERIFIED", "DISAGREEMENT")


def cmd_to_blocks(args) -> int:
    src = _Sources(args)
    interp = src.interp()
    lifted = interp_to_blocks(interp, args.factor)
    factor = lifted.shape.dim // interp.shape.dim
    if factor == 1:
        print("# already bit-valued; interpretation unchanged")
    else:
        print(f"# factor {factor}: dim {interp.shape.dim} -> {lifted.shape.dim}, "
              f"block {interp.shape.block} -> {lifted.shape.block}")
    return _finish_transform(args, src, interp, lifted, factor if factor > 1 else None,
                             "equivalence")


def cmd_to_bits(args) -> int:
    src = _Sources(args)
    interp = src.interp()
    bits, trace = interp_to_bits(interp)
    for factor, dim_before, dim_after in trace.steps:
        print(f"# step: factor {factor}, dim {dim_before} -> {dim_after}")
    # a lift keeps every nonzero entry >= 1 and stops once none is above 1
    print(f"# final scale {trace.final_scale}, dim {bits.shape.dim}, "
          f"max matrix entry {min(interp.max_entry(matrices_only=True), 1)}")
    return _finish_transform(args, src, interp, bits, trace.final_scale, "equivalence")


def cmd_expand(args) -> int:
    src = _Sources(args)
    enc = src.encoding()
    if not (args.pinterp is None) == (args.valuation is None) != (args.interp is None):
        raise SystemExit(_usage_error(
            "expand needs --interp, or --pinterp with --valuation, not both"))
    if args.interp is not None:
        rational = src.interp()
    else:
        rational = valuation_interpretation(src.pinterp(), src.valuation(), args.delta)
    context = args.trs and args.pinterp is not None
    req = src.required() if context else frozenset()
    plan = plan_expansion(enc, rational_entries(rational), req)
    if context:
        print(f"# required products: {_values(req)}")
        print(f"# encoding compatible: {'yes' if plan.compatible else 'NO'}")
        if not plan.compatible:
            if plan.missing:
                print(f"# missing products: {_values(plan.missing)}")
            for line in plan.faults:
                print(f"# {line}")
            return _result(False, "", "INCOMPATIBLE")
    elif plan.faults:   # an input error, before any report line
        raise SystemExit(_usage_error(f"encoding {args.encoding}: {plan.faults[0]}"))
    expanded = expand_rational(rational, plan)
    if not context:
        print("# no constraint context given; compatibility not checked")
    print(f"# expanded: dim {rational.shape.dim} -> {expanded.shape.dim} "
          f"(encoding dim {enc.dim})")
    return _finish_transform(args, src, rational, expanded, enc.dim, "forward")


def cmd_validate_encoding(args) -> int:
    src = _Sources(args)
    enc = src.encoding()
    report = validate(enc)
    print(f"# encoding dim {enc.dim}, {len(enc.table)} value(s)")
    for q in sorted(enc.table, reverse=True):
        print(f"value {q}: rho {rho(enc.dim, enc.table[q])} "
              f"{'ok' if report.value_valid[q] else 'WRONG'}")
    for (x, y) in sorted(report.product_value_valid):
        ok = report.product_value_valid[(x, y)]
        closed = report.product_closed[(x, y)]
        print(f"product {x} * {y}: value {'ok' if ok else 'WRONG'}, "
              f"closed {'yes' if closed else 'no'}")
    return _result(report.valid, "VALID", "INVALID")


def _values(values) -> str:
    return ", ".join(map(str, sorted(values))) or "none"


def cmd_compat(args) -> int:
    src = _Sources(args)
    req = src.required()
    enc = src.encoding()
    plan = plan_expansion(enc, valuation_entries(src.pinterp(), src.valuation()), req)
    products = sorted(req)
    print(f"# required products: {_values(products)}")
    print(f"# encoding keys: {_values(enc.table)}")
    for q in products:
        print(f"product {q}: {'encoded' if q in enc.table else 'MISSING'}")
    for line in plan.faults:
        print(f"# {line}")
    return _result(plan.compatible, "COMPATIBLE", "INCOMPATIBLE")


def cmd_collapse(args) -> int:
    src = _Sources(args)
    interp = src.interp()
    block = args.block or interp.shape.block
    try:
        collapsed = collapse_interpretation(interp, block)
    except InterpError as exc:
        print(f"# not collapsible at block {block}: {exc}")
        return _result(False, "", "NOT-COLLAPSIBLE")
    print(f"# collapsed: dim {interp.shape.dim} -> {collapsed.shape.dim} "
          f"(block {block}), domain {collapsed.domain}")
    if args.out:
        _write_out(args, format_interpretation(collapsed))
    return _result(True, "COLLAPSED", "")


def _integer_from(low: int, what: str):
    """An argparse type for integers of at least ``low``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"expected a {what} integer, got {text!r}")
        return value
    return parse


_positive = _integer_from(1, "positive")


def _delta(text: str) -> Fraction:
    try:
        value = Fraction(parse_rat(text))
    except MatrixError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive rational, got {text!r}")
    return value


# Every option once, with the argparse keywords it has in every subcommand
# that takes it.
_OPTIONS = {
    "trs": dict(help="rules file; the transforms verify their output against it"),
    "pairs": dict(default="none",
                  help="'auto' for dependency pairs, 'none', or a pairs file"),
    "interp": dict(help="interpretation file"),
    "pinterp": dict(help="parametric interpretation file"),
    "valuation": dict(help="valuation of the parametric interpretation's parameters"),
    "encoding": dict(help="catalog name (half, quarters, eighths, sixths, unit:n) or file"),
    "backend": dict(choices=("entrywise", "value"), default="value",
                    help="matrix ordering to check under"),
    "m": dict(type=_positive, help="value-backend divisor (default: dimension)"),
    "delta": dict(type=_delta,
                  help="strictness margin (default: file delta, else 1/m; "
                       "eval-valuation: any positive gap)"),
    "trials": dict(type=_integer_from(0, "nonnegative"), default=0,
                   help="any N >= 1 notes that each Holds verdict has no witness; "
                        "kept for existing command lines"),
    "seed": dict(type=int, default=0, help="ignored; kept for existing command lines"),
    "legacy-names": dict(action="store_true", help="render f# as F when unambiguous"),
    "factor": dict(type=_positive, help="lift factor (default: max entry)"),
    "block": dict(type=_positive, help="block size to collapse (default: the file's block)"),
    "out": dict(help="also write the resulting pairs or interpretation to this file"),
}

# Each subcommand: its handler, its help and the options it takes, in --help
# order; a trailing "!" marks a required option.
_COMMANDS = {
    "check": (cmd_check, "check rules weakly and pairs strictly",
              "trs! pairs interp! backend m delta trials seed"),
    "dps": (cmd_dps, "print dependency pairs", "trs! legacy-names out"),
    "gen-constraints": (cmd_gen_constraints, "generate symbolic arithmetic constraints",
                        "trs! pairs pinterp!"),
    "eval-valuation": (cmd_eval_valuation,
                       "evaluate generated constraints under a valuation",
                       "trs! pairs pinterp! valuation! delta"),
    "to-blocks": (cmd_to_blocks, "lift a natural interpretation blockwise",
                  "interp! factor out trs pairs delta"),
    "to-bits": (cmd_to_bits, "iterate lifts until matrices are bit",
                "interp! out trs pairs delta"),
    "expand": (cmd_expand, "expand rational entries through an encoding",
               "interp pinterp valuation encoding! trs pairs delta out"),
    "validate-encoding": (cmd_validate_encoding,
                          "check an encoding's value and product conditions", "encoding!"),
    "compat": (cmd_compat,
               "check an encoding against the required products of a constraint set",
               "trs! pairs pinterp! valuation! encoding!"),
    "collapse": (cmd_collapse, "collapse const+scalar blocks to their rho values",
                 "interp! block out"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it
    unchanged, so every call of main may share it."""
    parser = argparse.ArgumentParser(
        prog="matint",
        description="Matrix interpretations over exact rationals: constraint "
                    "checking, bit-matrix lifts, rational-to-natural expansion.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (func, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.set_defaults(func=func)
        for option in options.split():
            name = option.rstrip("!")
            p.add_argument(f"--{name}", required=option.endswith("!"), **_OPTIONS[name])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    # Literals and reports may hold ints of any length. Pythons that limit
    # int/str conversions (3.10.7 on) have that limit lifted for the call;
    # the caller's own setting is restored after it.
    limited = hasattr(sys, "set_int_max_str_digits")
    if limited:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
    try:
        with interning_scope():
            args = parser.parse_args(argv)
            return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except INPUT_ERRORS as exc:
        return _usage_error(str(exc))
    finally:
        if limited:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())

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
from .encoding import (EncodingError, is_compatible, load_encoding,
                       required_products, validate)
from .interp import (InterpError, check_problem, collapse_interpretation,
                     format_interpretation, parse_interpretation)
from .matrix import MatrixError, parse_rat
from .represent import rho
from .trs import Trs, TrsError, dependency_pairs, format_trs, parse_trs
from .transform import (expand_rational, expansion_rho_preserved,
                        interp_to_bits, interp_to_blocks, rho_preserved,
                        valuation_interpretation, verify_transform)

INPUT_ERRORS = (TrsError, InterpError, MatrixError, EncodingError,
                ConstraintError, OSError)


class _Sources:
    """Loads input files so errors carry the file name. Each input is parsed
    once per path, however often a subcommand asks for it."""

    def __init__(self, args):
        self.args = args
        self._loaded = {}

    @staticmethod
    def _read(path: str) -> str:
        with open(path, encoding="utf-8") as fh:
            return fh.read()

    def _load(self, path, parser, what):
        key = (what, path)
        if key not in self._loaded:
            try:
                self._loaded[key] = parser(self._read(path))
            except INPUT_ERRORS as exc:
                raise SystemExit(_usage_error(f"{what} {path}: {exc}"))
        return self._loaded[key]

    def trs(self):
        return self._load(self.args.trs, parse_trs, "trs")

    def pairs(self):
        spec = getattr(self.args, "pairs", "none")
        if spec == "none":
            return ()
        if spec == "auto":
            return dependency_pairs(self.trs())
        return self._load(spec, parse_trs, "pairs").rules

    def interp(self, path=None, signature=None):
        path = path or self.args.interp
        try:
            return parse_interpretation(self._read(path), signature)
        except INPUT_ERRORS as exc:
            raise SystemExit(_usage_error(f"interp {path}: {exc}"))

    def pinterp(self):
        return self._load(self.args.pinterp, parse_pinterp, "pinterp")

    def valuation(self):
        return self._load(self.args.valuation, parse_valuation, "valuation")

    def encoding(self):
        try:
            return load_encoding(self.args.encoding)
        except INPUT_ERRORS as exc:
            raise SystemExit(_usage_error(f"encoding {self.args.encoding}: {exc}"))


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _print_report(report, header=()):
    for line in header:
        print(line)
    for check in report.checks:
        print(f"{check.label}: {check.rule} [{check.rel}]: "
              f"{'HOLDS' if check.verdict.holds else 'FAILS'}"
              + (f" | {check.verdict.detail}" if check.verdict.detail else ""))


def _result(ok: bool, good: str, bad: str) -> int:
    print(f"RESULT: {good if ok else bad}")
    return 0 if ok else 1


def cmd_check(args) -> int:
    src = _Sources(args)
    trs = src.trs()
    pairs = src.pairs()
    signature = dict(trs.signature)
    for pair in pairs:
        for term in (pair.lhs, pair.rhs):
            if hasattr(term, "symbol"):
                signature.setdefault(term.symbol, len(term.args))
    interp = src.interp(signature=signature)
    try:
        report = check_problem(trs, pairs, interp, args.backend,
                               m=args.m, delta=args.delta, trials=args.trials,
                               bound=args.bound, seed=args.seed)
    except InterpError as exc:
        raise SystemExit(_usage_error(str(exc)))
    header = [f"# check: backend {args.backend}, dim {interp.shape.dim}, "
              f"block {interp.shape.block}, {len(trs.rules)} rule(s), "
              f"{len(pairs)} pair(s)"]
    if report.backend == "value":
        header.append(f"# value params: m {report.m}, delta {report.delta}")
    _print_report(report, header)
    if args.trials:
        for check in report.checks:
            if not check.verdict.holds:
                continue
            if check.witness is None:
                print(f"# sampled {check.label}: no witness "
                      f"({args.trials} trials, seed {args.seed})")
            else:
                print(f"# sampled {check.label}: WITNESS {check.witness} "
                      f"contradicts the symbolic verdict")
    return _result(report.holds and report.consistent, "SATISFIED",
                   "VIOLATED" if report.consistent else "DISAGREEMENT")


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
    for pair in pairs:
        print(f"{_rename_root(pair.lhs, names)} -> {_rename_root(pair.rhs, names)}")
    if args.out:
        signature = dict(trs.signature)
        for pair in pairs:
            for term in (pair.lhs, pair.rhs):
                signature.setdefault(term.symbol, len(term.args))
        _write(args.out, format_trs(Trs(trs.variables, pairs, signature)))
        print(f"# wrote {args.out}")
    print("RESULT: OK")
    return 0


def _constraint_lines(constraints):
    for c in constraints:
        yield f"{c.source} / {c.kind}: {c}"


def cmd_gen_constraints(args) -> int:
    src = _Sources(args)
    trs = src.trs()
    pairs = src.pairs()
    try:
        constraints = generate_arith_constraints(trs, pairs, src.pinterp())
    except ConstraintError as exc:
        raise SystemExit(_usage_error(str(exc)))
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
    try:
        constraints = generate_arith_constraints(trs, pairs, src.pinterp())
        results = [(c, eval_valuation(c, eta, args.delta)) for c in constraints]
    except ConstraintError as exc:
        raise SystemExit(_usage_error(str(exc)))
    ok = True
    for c, res in results:
        ok &= res.holds
        print(f"{c.source} / {c.kind}: {c} : {res.lhs_value} vs {res.rhs_value} : "
              f"{'HOLDS' if res.holds else 'FAILS'}")
    return _result(ok, "SATISFIED", "VIOLATED")


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _verify_and_report(args, src, before, after, promise) -> bool:
    """Optional before/after constraint verification when a TRS is supplied."""
    if not getattr(args, "trs", None):
        return True
    trs = src.trs()
    pairs = src.pairs()
    report = verify_transform(trs, pairs, before, after, promise, delta=args.delta)
    print(f"# before [value, m {report.before.m}, delta {report.before.delta}]: "
          f"{'SATISFIED' if report.before.holds else 'VIOLATED'}")
    print(f"# after  [value, m {report.after.m}, delta {report.after.delta}]: "
          f"{'SATISFIED' if report.after.holds else 'VIOLATED'}")
    print(f"# agreement ({promise}): {'yes' if report.agree else 'NO'}")
    return report.agree


def cmd_to_blocks(args) -> int:
    src = _Sources(args)
    interp = src.interp()
    try:
        lifted = interp_to_blocks(interp, args.factor)
    except InterpError as exc:
        raise SystemExit(_usage_error(str(exc)))
    factor = lifted.shape.dim // interp.shape.dim
    if factor == 1:
        print("# already bit-valued; interpretation unchanged")
        preserved = True
    else:
        preserved = rho_preserved(interp, lifted, factor)
        print(f"# factor {factor}: dim {interp.shape.dim} -> {lifted.shape.dim}, "
              f"block {interp.shape.block} -> {lifted.shape.block}")
        print(f"# rho preserved: {'yes' if preserved else 'NO'}")
    agree = _verify_and_report(args, src, interp, lifted, "equivalence")
    if args.out:
        _write(args.out, format_interpretation(lifted))
        print(f"# wrote {args.out}")
    return _result(preserved and agree, "VERIFIED", "DISAGREEMENT")


def cmd_to_bits(args) -> int:
    src = _Sources(args)
    interp = src.interp()
    bits, trace = interp_to_bits(interp)
    for factor, dim_before, dim_after in trace.steps:
        print(f"# step: factor {factor}, dim {dim_before} -> {dim_after}")
    print(f"# final scale {trace.final_scale}, dim {bits.shape.dim}, "
          f"max matrix entry {bits.max_entry(matrices_only=True)}")
    preserved = rho_preserved(interp, bits, trace.final_scale)
    print(f"# rho preserved: {'yes' if preserved else 'NO'}")
    agree = preserved and _verify_and_report(args, src, interp, bits, "equivalence")
    if args.out:
        _write(args.out, format_interpretation(bits))
        print(f"# wrote {args.out}")
    return _result(agree, "VERIFIED", "DISAGREEMENT")


def cmd_expand(args) -> int:
    src = _Sources(args)
    enc = src.encoding()
    if args.interp:
        rational = src.interp(args.interp)
    else:
        if not (args.pinterp and args.valuation):
            raise SystemExit(_usage_error(
                "expand needs --interp, or --pinterp with --valuation"))
        rational = valuation_interpretation(src.pinterp(), src.valuation(), args.delta)
    compatible = True
    if args.trs and args.pinterp and args.valuation:
        trs = src.trs()
        pairs = src.pairs()
        constraints = generate_arith_constraints(trs, pairs, src.pinterp())
        req = required_products(constraints, src.valuation())
        compatible = is_compatible(enc, req)
        req_s = ", ".join(str(q) for q in sorted(req)) or "none"
        print(f"# required products: {req_s}")
        print(f"# encoding compatible: {'yes' if compatible else 'NO'}")
        if not compatible:
            missing = sorted(set(req) - set(enc.table.keys()))
            if missing:
                print(f"# missing products: {', '.join(str(q) for q in missing)}")
            return _result(False, "", "INCOMPATIBLE")
    else:
        print("# no constraint context given; compatibility not checked")
    try:
        expanded = expand_rational(rational, enc)
    except EncodingError as exc:
        raise SystemExit(_usage_error(str(exc)))
    print(f"# expanded: dim {rational.shape.dim} -> {expanded.shape.dim} "
          f"(encoding dim {enc.dim})")
    preserved = expansion_rho_preserved(rational, expanded, enc.dim)
    print(f"# rho preserved: {'yes' if preserved else 'NO'}")
    agree = preserved and _verify_and_report(args, src, rational, expanded, "forward")
    if args.out:
        _write(args.out, format_interpretation(expanded))
        print(f"# wrote {args.out}")
    return _result(agree, "VERIFIED", "DISAGREEMENT")


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


def cmd_compat(args) -> int:
    src = _Sources(args)
    trs = src.trs()
    pairs = src.pairs()
    eta = src.valuation()
    enc = src.encoding()
    try:
        constraints = generate_arith_constraints(trs, pairs, src.pinterp())
        req = required_products(constraints, eta)
    except (ConstraintError, EncodingError) as exc:
        raise SystemExit(_usage_error(str(exc)))
    print(f"# required products: {', '.join(str(q) for q in sorted(req)) or 'none'}")
    print(f"# encoding keys: {', '.join(str(q) for q in sorted(enc.table)) or 'none'}")
    for q in sorted(req):
        print(f"product {q}: {'encoded' if q in enc.table else 'MISSING'}")
    return _result(is_compatible(enc, req), "COMPATIBLE", "INCOMPATIBLE")


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
        _write(args.out, format_interpretation(collapsed))
        print(f"# wrote {args.out}")
    return _result(True, "COLLAPSED", "")


def _natural(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(parse_rat(text))
    except MatrixError as exc:
        raise argparse.ArgumentTypeError(str(exc))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parse_args leaves it
    unchanged, so every call of main may share it."""
    parser = argparse.ArgumentParser(
        prog="matint",
        description="Matrix interpretations over exact rationals: constraint "
                    "checking, bit-matrix lifts, rational-to-natural expansion.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        return p

    p = add("check", cmd_check, "check rules weakly and pairs strictly")
    p.add_argument("--trs", required=True)
    p.add_argument("--pairs", default="none",
                   help="'auto' for dependency pairs, 'none', or a pairs file")
    p.add_argument("--interp", required=True)
    p.add_argument("--backend", choices=("entrywise", "value"), default="value")
    p.add_argument("--m", type=int, default=None,
                   help="value-backend divisor (default: dimension)")
    p.add_argument("--delta", type=_fraction, default=None,
                   help="strictness margin (default: file delta, else 1/m)")
    p.add_argument("--trials", type=_natural, default=0,
                   help="cross-check Holds verdicts on this many sampled tuples")
    p.add_argument("--bound", type=_natural, default=10,
                   help="sampled block values range over [0, bound]")
    p.add_argument("--seed", type=int, default=0, help="sampling seed")

    p = add("dps", cmd_dps, "print dependency pairs")
    p.add_argument("--trs", required=True)
    p.add_argument("--legacy-names", action="store_true",
                   help="render f# as F when unambiguous")
    p.add_argument("--out", default=None,
                   help="also write the pairs as a loadable rules file")

    p = add("gen-constraints", cmd_gen_constraints,
            "generate symbolic arithmetic constraints")
    p.add_argument("--trs", required=True)
    p.add_argument("--pairs", default="none")
    p.add_argument("--pinterp", required=True)

    p = add("eval-valuation", cmd_eval_valuation,
            "evaluate generated constraints under a valuation")
    p.add_argument("--trs", required=True)
    p.add_argument("--pairs", default="none")
    p.add_argument("--pinterp", required=True)
    p.add_argument("--valuation", required=True)
    p.add_argument("--delta", type=_fraction, default=None)

    p = add("to-blocks", cmd_to_blocks, "lift a natural interpretation blockwise")
    p.add_argument("--interp", required=True)
    p.add_argument("--factor", type=int, default=None,
                   help="lift factor (default: max entry)")
    p.add_argument("--out", default=None)
    p.add_argument("--trs", default=None)
    p.add_argument("--pairs", default="none")
    p.add_argument("--delta", type=_fraction, default=None)

    p = add("to-bits", cmd_to_bits, "iterate lifts until matrices are bit")
    p.add_argument("--interp", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--trs", default=None)
    p.add_argument("--pairs", default="none")
    p.add_argument("--delta", type=_fraction, default=None)

    p = add("expand", cmd_expand, "expand rational entries through an encoding")
    p.add_argument("--interp", default=None, help="rational interpretation file")
    p.add_argument("--pinterp", default=None)
    p.add_argument("--valuation", default=None)
    p.add_argument("--encoding", required=True,
                   help="catalog name (half, quarters, eighths, sixths, unit:n) or file")
    p.add_argument("--trs", default=None)
    p.add_argument("--pairs", default="none")
    p.add_argument("--delta", type=_fraction, default=None)
    p.add_argument("--out", default=None)

    p = add("validate-encoding", cmd_validate_encoding,
            "check an encoding's value and product conditions")
    p.add_argument("--encoding", required=True)

    p = add("compat", cmd_compat,
            "check an encoding against the required products of a constraint set")
    p.add_argument("--trs", required=True)
    p.add_argument("--pairs", default="none")
    p.add_argument("--pinterp", required=True)
    p.add_argument("--valuation", required=True)
    p.add_argument("--encoding", required=True)

    p = add("collapse", cmd_collapse,
            "collapse const+scalar blocks to their rho values")
    p.add_argument("--interp", required=True)
    p.add_argument("--block", type=int, default=None)
    p.add_argument("--out", default=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except INPUT_ERRORS as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())

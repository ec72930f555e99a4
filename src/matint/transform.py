"""Interpretation-level transformations and their verification harness.

Natural interpretations lift to bigger block interpretations with smaller
entries (down to bit matrices); rational interpretations and valuations
expand to natural interpretations through an encoding of their rational
values. Every transformation can be re-verified: rho values are preserved
structurally, and constraint verdicts are compared before/after.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .constraints import ParamInterpretation
from .encoding import Encoding, EncodingError, validate
from .interp import (BlockShape, CheckReport, Interpretation, InterpError,
                     LinearFunc, check_problem)
from .matrix import Mat, Rat
from .represent import lift_int, mu_int, nu, rho
from .trs import Trs


@dataclass(frozen=True)
class TransformTrace:
    """Audit trail of iterated lifts: (factor, dim before, dim after) per step."""

    steps: tuple[tuple[int, int, int], ...]

    @property
    def final_scale(self) -> int:
        scale = 1
        for factor, _, _ in self.steps:
            scale *= factor
        return scale


def _lift_vector(n: int, vec: Mat) -> Mat:
    return Mat.from_blocks([[nu(n, e)] for e in vec.entries])


def _require_natural(interp: Interpretation):
    if interp.domain != "natural":
        raise InterpError("blockwise lift is defined for natural interpretations")


def interp_to_blocks(interp: Interpretation, factor: int = None) -> Interpretation:
    """Lift every matrix entrywise by mu_int and every vector by nu.

    The factor defaults to the maximum entry over all matrices and vectors.
    When that entry is at most 1 the interpretation is already bit-valued and
    a factor <= 1 returns it unchanged; while larger entries remain, a factor
    <= 1 is an error.
    """
    _require_natural(interp)
    if factor is None:
        factor = interp.max_entry()
    if factor <= 1:
        largest = interp.max_entry()
        if largest > 1:
            raise InterpError(f"factor {factor} leaves entries up to {largest}; "
                              f"a lift needs a factor above 1")
        return interp
    table = {
        symbol: LinearFunc(tuple(lift_int(factor, mat) for mat in func.mats),
                           _lift_vector(factor, func.const))
        for symbol, func in interp.table.items()
    }
    shape = BlockShape(factor * interp.shape.dim, factor * interp.shape.block)
    return Interpretation(shape, "natural", table, interp.delta)


def interp_to_bits(interp: Interpretation) -> tuple[Interpretation, TransformTrace]:
    """Iterate interp_to_blocks with the max matrix entry until matrices are bit.

    Vector entries ride along unchanged in value (nu preserves them), so the
    bit guarantee covers coefficient matrices only. The domain is checked
    first, since a rational interpretation with entries <= 1 takes no step.
    """
    _require_natural(interp)
    steps: list[tuple[int, int, int]] = []
    while True:
        factor = interp.max_entry(matrices_only=True)
        if factor <= 1:
            return interp, TransformTrace(tuple(steps))
        before = interp.shape.dim
        interp = interp_to_blocks(interp, factor)
        steps.append((factor, before, interp.shape.dim))


def _expand_entry(x: Rat, enc: Encoding) -> Mat:
    if isinstance(x, int) and x >= 0:
        return mu_int(enc.dim, x)
    if isinstance(x, Fraction) and x in enc.table:
        return enc.table[x]
    raise EncodingError(f"entry {x} is neither natural nor encoded")


def expand_rational(interp: Interpretation, enc: Encoding) -> Interpretation:
    """Replace rational entries by their encodings and naturals by mu_int/nu.

    Vector entries map to (matrix image of the entry) * ones. The result is a
    general natural interpretation (block 1): encoded blocks need not be
    constant-plus-scalar, so the value backend is its checking semantics.
    """
    if enc.table and not validate(enc).valid:
        raise EncodingError("encoding fails validation")
    b = enc.dim
    if b == 1:
        # empty dim-1 encoding: entries must already be natural, copy through
        table = {s: f for s, f in interp.table.items()}
        return Interpretation(BlockShape(interp.shape.dim, 1), "natural",
                              table, interp.delta)
    ones = Mat.ones(b, 1)
    table = {}
    for symbol, func in interp.table.items():
        try:
            mats = tuple(
                Mat.from_blocks([[_expand_entry(mat.at(i, j), enc)
                                  for j in range(mat.cols)] for i in range(mat.rows)])
                for mat in func.mats)
            const = Mat.from_blocks([[_expand_entry(e, enc) * ones]
                                     for e in func.const.entries])
        except EncodingError as exc:
            raise EncodingError(f"{symbol}: {exc}") from None
        table[symbol] = LinearFunc(mats, const)
    return Interpretation(BlockShape(b * interp.shape.dim, 1), "natural",
                          table, interp.delta)


def valuation_interpretation(pi: ParamInterpretation, eta: dict[str, Rat],
                             delta: Fraction = None) -> Interpretation:
    """The dim-1 interpretation a valuation induces on a parametric one."""
    table = {}
    naturals = True
    for symbol, (coeff_params, const_param) in pi.table.items():
        for name in (*coeff_params, const_param):
            if name not in eta:
                raise InterpError(f"unbound parameter {name!r}")
        mats = tuple(Mat(1, 1, (eta[p],)) for p in coeff_params)
        const = Mat(1, 1, (eta[const_param],))
        naturals = naturals and all(m.den == 1 for m in (*mats, const))
        table[symbol] = LinearFunc(mats, const)
    domain = "natural" if naturals else "rational"
    return Interpretation(BlockShape(1, 1), domain, table, delta)


def rho_preserved(before: Interpretation, after: Interpretation, factor: int) -> bool:
    """Structural check: every lifted matrix/vector keeps its rho value at the
    scaled divisor (divisor 1 before, factor after)."""
    for symbol, func in before.table.items():
        lifted = after.table[symbol]
        for a, b in zip((*func.mats, func.const), (*lifted.mats, lifted.const)):
            if rho(1, a) != rho(factor, b):
                return False
    return True


def expansion_rho_preserved(before: Interpretation, after: Interpretation,
                            b: int) -> bool:
    """Structural check for rational expansion: each entry's image block (and
    each vector entry's image segment) has the entry as its rho value."""
    if b == 1:
        return before.table == after.table
    for symbol, func in before.table.items():
        expanded = after.table[symbol]
        for mat, big in zip(func.mats, expanded.mats):
            for i in range(mat.rows):
                for j in range(mat.cols):
                    if rho(b, big.block(i, j, b, b)) != mat.at(i, j):
                        return False
        for i, entry in enumerate(func.const.entries):
            segment = Mat.column(expanded.const.entries[i * b:(i + 1) * b])
            if rho(b, segment) != entry:
                return False
    return True


@dataclass(frozen=True)
class VerifyReport:
    """Paired before/after check with the agreement the transformation promises."""

    before: CheckReport
    after: CheckReport
    promise: str  # "equivalence" | "forward"

    @property
    def agree(self) -> bool:
        if self.promise == "equivalence":
            return self.before.holds == self.after.holds
        return (not self.before.holds) or self.after.holds


def verify_transform(trs: Trs, pairs, before: Interpretation, after: Interpretation,
                     promise: str = "equivalence", delta: Fraction = None) -> VerifyReport:
    """Run the value-backend check on both sides and compare verdicts.

    The blockwise lift promises equivalence; rational expansion promises the
    forward direction only (rational holds implies natural holds).
    """
    before_report = check_problem(trs, pairs, before, "value", delta=delta)
    after_report = check_problem(trs, pairs, after, "value", delta=delta)
    return VerifyReport(before_report, after_report, promise)

"""Interpretation-level transformations and their verification harness.

Natural interpretations lift to bigger block interpretations with smaller
entries (down to bit matrices); rational interpretations and valuations
expand to natural interpretations through an encoding of their rational
values. Every transformation can be re-verified: rho values are preserved
structurally, and constraint verdicts are compared before/after.

Each transformation substitutes one block per entry through
``represent.substitute``. A bit reduction first takes its whole factor
sequence from ``represent.lift_factors`` (repeatedly divide by the largest
entry where it divides), then builds the bit interpretation in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .constraints import ParamInterpretation
from .encoding import Encoding, EncodingError, validate
from .interp import (BlockShape, CheckReport, Interpretation, InterpError,
                     LinearFunc, check_problem)
from .matrix import Mat, Rat
from .represent import lift_blocks, lift_factors, mu_int, rho, substitute
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


def _require_natural(interp: Interpretation):
    if interp.domain != "natural":
        raise InterpError("blockwise lift is defined for natural interpretations")


def _lift(interp: Interpretation, factors: tuple[int, ...]) -> Interpretation:
    """The interpretation after lifting by each of ``factors`` in turn, built
    in one pass from each value's composed block."""
    scale = prod(factors)
    block_of = lift_blocks(factors)

    def vector_of(e):
        # nu's image: the entry repeated
        return [(e,)] * scale

    table = {
        symbol: LinearFunc(tuple(substitute(mat, block_of, scale, scale)
                                 for mat in func.mats),
                           substitute(func.const, vector_of, scale, 1))
        for symbol, func in interp.table.items()
    }
    shape = BlockShape(scale * interp.shape.dim, scale * interp.shape.block)
    return Interpretation(shape, "natural", table, interp.delta)


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
    return _lift(interp, (factor,))


def interp_to_bits(interp: Interpretation) -> tuple[Interpretation, TransformTrace]:
    """Lift by the max matrix entry, again and again, until matrices are bit.

    ``lift_factors`` gives the whole factor sequence from the matrices'
    entry set first, so the trace is arithmetic on it and the bit
    interpretation is built in one pass, with no interpretation in between.
    Vector entries ride along unchanged in value (nu preserves them), so the
    bit guarantee covers coefficient matrices only. The domain is checked
    first, since a rational interpretation with entries <= 1 takes no step.
    """
    _require_natural(interp)
    factors = lift_factors({e for func in interp.table.values()
                            for mat in func.mats for e in mat.nums})
    if not factors:
        return interp, TransformTrace(())
    steps, dim = [], interp.shape.dim
    for factor in factors:
        steps.append((factor, dim, dim * factor))
        dim *= factor
    return _lift(interp, factors), TransformTrace(tuple(steps))


def _expand_entry(x: Rat, enc: Encoding) -> Mat:
    if isinstance(x, int) and x >= 0:
        return mu_int(enc.dim, x)
    if isinstance(x, Fraction) and x in enc.table:
        return enc.table[x]
    raise EncodingError(f"entry {x} is neither natural nor encoded")


def expand_rational(interp: Interpretation, enc: Encoding) -> Interpretation:
    """Replace rational entries by their encodings and naturals by mu_int/nu.

    Vector entries map to (matrix image of the entry) * ones, the image's
    row sums. The result is a general natural interpretation (block 1):
    encoded blocks need not be constant-plus-scalar, so the value backend is
    its checking semantics.
    """
    if enc.table and not validate(enc).valid:
        raise EncodingError("encoding fails validation")
    b = enc.dim
    if b == 1:
        # empty dim-1 encoding: entries must already be natural, copy through
        table = {s: f for s, f in interp.table.items()}
        return Interpretation(BlockShape(interp.shape.dim, 1), "natural",
                              table, interp.delta)

    def block_of(x):
        nums = _expand_entry(x, enc).nums
        return [nums[i:i + b] for i in range(0, b * b, b)]

    def vector_of(x):
        return [(sum(row),) for row in block_of(x)]

    table = {}
    for symbol, func in interp.table.items():
        try:
            mats = tuple(substitute(mat, block_of, b, b) for mat in func.mats)
            const = substitute(func.const, vector_of, b, 1)
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
    each vector entry's image segment) has the entry as its rho value.

    Blocks are read as int slices of the expanded numerators, and rho_b of
    a block equals an entry p/q iff block sum · q = p · den · b."""
    if b == 1:
        return before.table == after.table
    for symbol, func in before.table.items():
        expanded = after.table[symbol]
        for mat, big in zip((*func.mats, func.const), (*expanded.mats, expanded.const)):
            # b x b blocks of a matrix, b x 1 segments of a vector
            nums, width, scale = big.nums, big.cols, big.den * b
            q = width // mat.cols
            for i in range(mat.rows):
                for j in range(mat.cols):
                    start = i * b * width + j * q
                    total = sum(sum(nums[r:r + q])
                                for r in range(start, start + b * width, width))
                    if total * mat.den != mat.nums[i * mat.cols + j] * scale:
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

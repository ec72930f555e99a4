"""Interpretation-level transformations and their verification harness.

Natural interpretations lift to bigger block interpretations with smaller
entries (down to bit matrices); rational interpretations and valuations
expand to natural interpretations through an encoding of their rational
values. Every transformation can be re-verified: rho values are preserved
structurally, and constraint verdicts are compared before/after. An
expansion builds from an ``encoding.plan_expansion``, which has checked its
entries, and refuses a plan with a fault.

All three transforms are one construction: ``_substitute`` replaces every
matrix entry by a b x b natural block with the same rho value and every
vector entry by that block's row sums. A lift passes the blocks of
``represent.lift_blocks`` (a bit reduction first takes its whole factor
sequence from ``represent.lift_factors``); an expansion passes its
encoding's matrices, and lift blocks for natural entries. One blockwise
check, ``rho_preserved``, verifies the result of each.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import prod

from .constraints import ParamInterpretation
from .encoding import EncodingError, ExpansionPlan
from .interp import (BlockShape, CheckReport, Interpretation, InterpError,
                     LinearFunc, _map_once, check_problem)
from .matrix import Mat, Rat, Record
from .represent import lift_blocks, lift_factors, substitute
from .trs import Trs


class TransformTrace(Record):
    """Audit trail of iterated lifts: (factor, dim before, dim after) per step."""

    __slots__ = ("steps",)

    def __init__(self, steps: tuple[tuple[int, int, int], ...]):
        __class__._set_steps(self, steps)

    @property
    def final_scale(self) -> int:
        scale = 1
        for factor, _, _ in self.steps:
            scale *= factor
        return scale


def _require_natural(interp: Interpretation):
    if interp.domain != "natural":
        raise InterpError("blockwise lift is defined for natural interpretations")


def _substitute(interp: Interpretation, block_of, b: int, block: int) -> Interpretation:
    """The natural interpretation with every matrix entry e replaced by the
    b x b int block ``block_of(e)`` and every vector entry by that block's
    row sums; ``block`` is the new block size.

    This is the one builder behind every transform. Each row of a lift
    block sums to e (J_x ⊗ B(e/x) and I_x ⊗ B(e) both do), so a lifted
    vector repeats each entry b times, which is nu. An encoding block's row
    sums are E(x)·1. One vector rule serves both. A matrix object that
    several positions share gets one image, which they share in turn.
    The result is natural, of the right shapes and block-constant by
    construction, so it is built by the trusted constructor and no entry
    is checked again.
    """
    @cache  # shared by every vector: a lift block has b² entries
    def vector_of(e):
        return [(sum(row),) for row in block_of(e)]

    # apart, since a dim-1 file may share one Mat between a matrix and a vector
    mat_images, vector_images = {}, {}
    table = {}
    for symbol, func in interp.table.items():
        mats = _map_once(lambda mat: substitute(mat, block_of, b, b), func.mats, mat_images)
        const, = _map_once(lambda vec: substitute(vec, vector_of, b, 1), (func.const,),
                           vector_images)
        table[symbol] = LinearFunc(mats, const)
    return Interpretation._derived(BlockShape(b * interp.shape.dim, block), "natural",
                                   table, interp.delta)


def interp_to_blocks(interp: Interpretation, factor: int = None) -> Interpretation:
    """Lift every entry e to its block at ``factor``: (e/factor)·J when
    factor divides e, else e·I.

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
    return _substitute(interp, lift_blocks((factor,)), factor,
                       factor * interp.shape.block)


def interp_to_bits(interp: Interpretation) -> tuple[Interpretation, TransformTrace]:
    """Lift by the max matrix entry, again and again, until matrices are bit.

    ``lift_factors`` gives the whole factor sequence from the matrices'
    entry set first, so the trace is arithmetic on it and the bit
    interpretation is built in one pass from each entry's composed block.
    Vector entries ride along unchanged in value, so the bit guarantee
    covers coefficient matrices only. The domain is checked first, since a
    rational interpretation with entries <= 1 takes no step.
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
    scale = prod(factors)
    bits = _substitute(interp, lift_blocks(factors), scale, scale * interp.shape.block)
    return bits, TransformTrace(tuple(steps))


def expand_rational(interp: Interpretation, plan: ExpansionPlan) -> Interpretation:
    """Replace each rational entry x by E(x) of the plan's encoding, each
    natural one by its lift block, each vector entry by its block's row
    sums. ``plan`` must be built for ``interp``: it is trusted to have
    decided every entry, and a plan with a fault raises its first one.
    The result is natural with block 1 and is checked under the value
    backend: encoded blocks need not be constant-plus-scalar."""
    if not plan.compatible:
        raise EncodingError(plan.faults[0] if plan.faults else
                            f"missing products: {', '.join(map(str, sorted(plan.missing)))}")
    enc = plan.encoding
    b = enc.dim
    natural = lift_blocks((b,))

    def block_of(x):
        if x.__class__ is int:
            return natural(x)
        nums = enc.table[x].nums
        return [nums[i:i + b] for i in range(0, b * b, b)]

    return _substitute(interp, block_of, b, 1)


def rational_entries(interp: Interpretation):
    """The (symbol, entry) pairs of ``interp``'s non-integral matrices, for the plan."""
    return ((symbol, x) for symbol, func in interp.table.items()
            for mat in (*func.mats, func.const) if mat.den != 1 for x in mat.entries)


def valuation_entries(pi: ParamInterpretation, eta: dict[str, Rat]):
    """The (symbol, value) pairs of ``pi``'s parameters under ``eta``, which
    are the entries of ``valuation_interpretation(pi, eta)``, for the plan;
    an unbound parameter raises as there."""
    for symbol, (coeff_params, const_param) in pi.table.items():
        for name in (*coeff_params, const_param):
            if name not in eta:
                raise InterpError(f"unbound parameter {name!r}")
            yield symbol, eta[name]


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


def rho_preserved(before: Interpretation, after: Interpretation, b: int) -> bool:
    """Structural check for every transform: each entry's image block (and
    each vector entry's image segment) has the entry as its rho value at
    divisor ``b``, the side of the blocks.

    Blocks are read as int slices of the image's numerators, and rho_b of
    a block equals an entry p/q iff block sum · q = p · den · b."""
    for symbol, func in before.table.items():
        image = after.table[symbol]
        for mat, big in zip((*func.mats, func.const), (*image.mats, image.const)):
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


# The same check under its former name, which perfbench's tracer wraps.
expansion_rho_preserved = rho_preserved


class VerifyReport(Record):
    """Paired before/after check with the agreement the transformation promises."""

    __slots__ = ("before", "after", "promise")

    def __init__(self, before: CheckReport, after: CheckReport, promise: str):
        __class__._set_before(self, before)
        __class__._set_after(self, after)
        __class__._set_promise(self, promise)  # "equivalence" | "forward"

    @property
    def agree(self) -> bool:
        if self.promise == "equivalence":
            return self.before.holds == self.after.holds
        return (not self.before.holds) or self.after.holds


def verify_transform(trs: Trs, pairs, before: Interpretation, after: Interpretation,
                     promise: str = "equivalence", delta: Fraction = None) -> VerifyReport:
    """Run the value-backend check on both sides and compare verdicts.

    The blockwise lift promises equivalence; rational expansion promises the
    forward direction only (rational holds implies natural holds). A lifted
    side (block > 1) is checked on its quotient, at the source's dimension;
    ``check_problem`` takes that quotient from the lifted entries, not from
    the source, so the after-check stays an independent re-verification.
    An expansion (block 1) is checked at its own dimension.
    """
    before_report = check_problem(trs, pairs, before, "value", delta=delta)
    after_report = check_problem(trs, pairs, after, "value", delta=delta)
    return VerifyReport(before_report, after_report, promise)

"""Exact-rational matrix interpretations for term-rewriting termination constraints."""

from .matrix import (Mat, MatrixError, Rat, as_rat, format_matrix, jordan,
                     parse_matrix, parse_rat)
from .represent import RepParams, lift, mu_const, rho, to_bit_matrix
from .trs import (App, Rule, Term, Trs, TrsError, Var, dependency_pairs, format_trs,
                  parse_trs, sharp_name, subterms)
from .constraints import (ArithConstraint, ConstraintError, EvalResult,
                          ParamInterpretation, eval_valuation,
                          generate_arith_constraints, parse_pinterp,
                          parse_valuation)
from .encoding import (Encoding, EncodingError, EncodingReport, catalog,
                       is_compatible, load_encoding, parse_encoding,
                       plan_expansion, required_products, validate)
from .interp import (BlockShape, CheckReport, ConstraintCheck, Interpretation,
                     InterpError, LinearForm, LinearFunc, Verdict, check_entrywise,
                     check_problem, check_value, collapse_interpretation, eval_term,
                     format_interpretation, parse_interpretation, sample_falsify,
                     value_collapse)
from .transform import (TransformTrace, VerifyReport, expand_rational,
                        interp_to_bits, interp_to_blocks, rational_entries, rho_preserved,
                        valuation_entries, valuation_interpretation, verify_transform)

__version__ = "0.1.0"

"""Numerical toolkit for the quaternionic S, Q, P2 and F functional calculi."""

from .calculus import (CalculusResult, Evaluator, calc,
                       derivative_combination_residual, hinf,
                       power_recurrence_residuals, power_reference,
                       product_rule_residuals, resolvent_identity_residuals)
from .contour import OperatorKernel, SectorContour, integrate
from .errors import (ClassMismatch, NoDecayMetadata, NotInjective, NotIntrinsic,
                     QCalcError, SpectrumHit, ToleranceNotMet, UnsupportedKind)
from .operators import (CommutingOperator, QuatMatrix, TypeProfile, ab_decompose,
                        conj_op, estimate_type_profile, f_spectrum_check, kernel,
                        load_operator, modulus_sq, operator_from_text,
                        operator_to_text)
from .quaternion import (E1, E2, E3, ONE, Quaternion, SlicePoint, in_sector,
                         to_slice)
from .slicefun import (Power, Product, Regularizer, Scale, StemFunction, Sum,
                       choose_regularizer, parse, pointwise_fine)
from .suites import (GeneratedOperator, OperatorSpec, SuiteContext,
                     SuiteReport, generate_operator, run_suite, write_report)

__version__ = "0.1.0"

"""Generalized information, inaccuracy and certainty measures.

One engine evaluates every measure: a quasi-linear mean of elementary
exponents tau*log2(p_k) under simplex weights, pushed through an
invertible generator. The registry maps classical named measures onto
that engine; the duality module converts certainty values into
information values; the CLI exposes all of it.
"""
from .backends import active_kernels, available_backends, set_backend
from .composition import (
    CompositionOp,
    GeneratorH,
    apply_h,
    compose,
    invert_h,
    mult_compose,
    op_for_generator,
    pseudo_add,
)
from .core import (
    Distribution,
    UtilityVector,
    WeightVector,
    direct_product,
    escort_weights,
    make_distribution,
    resolve_weight_rule,
    tilted_weights,
    utility_weights,
    weight_product,
)
from .duality import DualityMap, certainty_to_inaccuracy, dual_check
from .engine import (
    MeasureParams,
    PolyParams,
    VerificationReport,
    certainty,
    entropy,
    inaccuracy,
    inforcer_content,
    inforcer_measure,
    quasi_mean_exponent,
    verify_composability,
)
from .errors import (
    ConstraintViolation,
    DegenerateWeights,
    DomainError,
    InforcerError,
    LengthMismatch,
    NegativeMass,
    NotNormalized,
    OutOfRange,
    Overflow,
    ParseError,
    TooShort,
    UnknownMeasure,
    UsageError,
    ZeroScale,
)
from .registry import (
    MeasureSpec,
    dual_counterpart,
    dual_verify,
    evaluate_named,
    list_measures,
    lookup,
    reference_evaluate,
)

__version__ = "0.1.0"

__all__ = [
    "CompositionOp",
    "ConstraintViolation",
    "DegenerateWeights",
    "Distribution",
    "DomainError",
    "DualityMap",
    "GeneratorH",
    "InforcerError",
    "LengthMismatch",
    "MeasureParams",
    "MeasureSpec",
    "NegativeMass",
    "NotNormalized",
    "OutOfRange",
    "Overflow",
    "ParseError",
    "PolyParams",
    "TooShort",
    "UnknownMeasure",
    "UsageError",
    "UtilityVector",
    "VerificationReport",
    "WeightVector",
    "ZeroScale",
    "active_kernels",
    "apply_h",
    "available_backends",
    "certainty",
    "certainty_to_inaccuracy",
    "compose",
    "direct_product",
    "dual_check",
    "dual_counterpart",
    "dual_verify",
    "entropy",
    "escort_weights",
    "evaluate_named",
    "inaccuracy",
    "inforcer_content",
    "inforcer_measure",
    "invert_h",
    "list_measures",
    "lookup",
    "make_distribution",
    "mult_compose",
    "op_for_generator",
    "pseudo_add",
    "quasi_mean_exponent",
    "reference_evaluate",
    "resolve_weight_rule",
    "set_backend",
    "tilted_weights",
    "utility_weights",
    "verify_composability",
    "weight_product",
]

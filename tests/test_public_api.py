"""The package's public names, pinned: adding or removing one is an
explicit edit here."""
import inforcer

PUBLIC = [
    "CompositionOp",
    "ConstraintViolation",
    "DegenerateWeights",
    "Distribution",
    "DomainError",
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
    "apply_h",
    "certainty",
    "compose",
    "direct_product",
    "dual_check",
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
    "op_for_generator",
    "quasi_mean_exponent",
    "reference_evaluate",
    "resolve_weight_rule",
    "tilted_weights",
    "utility_weights",
    "verify_composability",
    "weight_product",
]


def test_all_is_the_pinned_list():
    assert len(PUBLIC) == 47
    assert sorted(inforcer.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in PUBLIC:
        assert getattr(inforcer, name) is not None, name

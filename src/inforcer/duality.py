"""Bridge from certainty values to information values.

When a certainty measure and an information measure share the same
weights and inner mean X, the information value is a deterministic
transform of the certainty value:

    I = h_I( h_C^{-1}(C) )

with h_C the (decreasing) certainty generator and h_I the (increasing)
information generator. The transform is strictly decreasing, matching
the intuition that more certainty means less information.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import engine
from .composition import GeneratorH, apply_h, invert_h
from .engine import DEFAULT_SELECTOR, BranchSelector, PolyParams, VerificationReport
from .errors import ConstraintViolation


@dataclass(frozen=True)
class DualityMap:
    """Pair of generators defining y -> h_I(h_C^{-1}(y))."""

    certainty_generator: GeneratorH
    information_generator: GeneratorH

    def __post_init__(self) -> None:
        if self.certainty_generator.kind != "exp_cert":
            raise ConstraintViolation("certainty side of a duality map must be an exp_cert generator")
        if self.information_generator.kind == "exp_cert":
            raise ConstraintViolation("information side of a duality map must be linear or exp_info")


def certainty_to_inaccuracy(mapping: DualityMap, y: float) -> float:
    """Map a certainty value to the paired information value."""
    return apply_h(mapping.information_generator, invert_h(mapping.certainty_generator, y))


def dual_check(
    certainty_params: PolyParams,
    information_params: PolyParams,
    weights,
    dist,
    tolerance: float = 1e-9,
    selector: BranchSelector = DEFAULT_SELECTOR,
) -> VerificationReport:
    """Verify I(U;P) == h_I(h_C^{-1}(C(U;P))) on shared weights.

    The identity needs both sides to see the same inner mean, so the
    two parameter bundles must agree on (tau, lambda); that mean is
    computed once and both generators are applied to it.
    """
    if (certainty_params.tau, certainty_params.lam) != (information_params.tau, information_params.lam):
        raise ConstraintViolation(
            "duality check needs matching (tau, lambda); got "
            f"({certainty_params.tau!r}, {certainty_params.lam!r}) vs "
            f"({information_params.tau!r}, {information_params.lam!r})"
        )
    h_c = GeneratorH.exp_cert(certainty_params.c, certainty_params.e)
    if information_params.e == 0.0:
        h_i = GeneratorH.linear(1.0)
    else:
        h_i = GeneratorH.exp_info(information_params.c, information_params.e)
    mapping = DualityMap(h_c, h_i)
    engine._check_tau(certainty_params.tau)
    x = engine.quasi_mean_exponent(weights, dist, certainty_params.tau, certainty_params.lam, selector)
    c_val = apply_h(h_c, x)
    i_val = apply_h(h_i, x)
    mapped = certainty_to_inaccuracy(mapping, c_val)
    return VerificationReport.from_comparison(mapped, i_val, tolerance)

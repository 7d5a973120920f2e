"""Generators h and the composition laws they induce.

Three generator shapes, all invertible on the relevant domain:

    linear    h(x) = a*x                 a > 0
    exp_info  h(x) = (2^(c*x) - 1) / e   c*e > 0   (increasing, h(0)=0)
    exp_cert  h(x) = 2^(-c*x) / e        c > 0, e > 0   (decreasing, positive)

exp_info is increasing and positive on x > 0 precisely when c*e > 0,
which is why both sign pairs are admitted. exp_cert must stay positive,
forcing e > 0 (and then c > 0 for it to decrease).

Values combine under the law matching their generator: plain addition
for linear, x + y + e*x*y for exp_info, e*x*y for exp_cert.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConstraintViolation, OutOfRange, Overflow, ZeroScale

_KINDS = ("linear", "exp_info", "exp_cert")

# 2^x overflows double just above this exponent.
_MAX_EXP2 = 1024.0


@dataclass(frozen=True)
class GeneratorH:
    """Invertible generator; parameters beyond its kind are ignored."""

    kind: str
    a: float = 1.0
    c: float = 1.0
    e: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConstraintViolation(f"generator kind must be one of {_KINDS}, got {self.kind!r}")
        if self.kind == "linear":
            if not (math.isfinite(self.a) and self.a > 0.0):
                raise ConstraintViolation(f"linear generator needs slope a > 0, got a={self.a!r}")
        else:
            if not (math.isfinite(self.c) and math.isfinite(self.e)):
                raise ConstraintViolation("exponential generator needs finite c and e")
            if self.kind == "exp_info" and self.c * self.e <= 0.0:
                raise ConstraintViolation(f"exp_info needs c*e > 0, got c={self.c!r}, e={self.e!r}")
            if self.kind == "exp_cert" and (self.c <= 0.0 or self.e <= 0.0):
                raise ConstraintViolation(f"exp_cert needs c > 0 and e > 0, got c={self.c!r}, e={self.e!r}")

    @classmethod
    def linear(cls, a: float = 1.0) -> "GeneratorH":
        return cls("linear", a=a)

    @classmethod
    def exp_info(cls, c: float, e: float) -> "GeneratorH":
        return cls("exp_info", c=c, e=e)

    @classmethod
    def exp_cert(cls, c: float, e: float) -> "GeneratorH":
        return cls("exp_cert", c=c, e=e)


def _exp2(z: float) -> float:
    if z >= _MAX_EXP2:
        raise Overflow(f"2^{z!r} exceeds double range")
    return 2.0 ** z  # underflow toward 0 is allowed


def apply_h(h: GeneratorH, x: float) -> float:
    """Evaluate h at x; raises Overflow rather than returning inf."""
    x = float(x)
    if not math.isfinite(x):
        raise OutOfRange(f"generator argument must be finite, got {x!r}")
    if h.kind == "linear":
        return h.a * x
    if h.kind == "exp_info":
        return (_exp2(h.c * x) - 1.0) / h.e
    return _exp2(-h.c * x) / h.e


def invert_h(h: GeneratorH, y: float) -> float:
    """Inverse of apply_h on the generator's range."""
    y = float(y)
    if not math.isfinite(y):
        raise OutOfRange(f"generator value must be finite, got {y!r}")
    if h.kind == "linear":
        return y / h.a
    if h.kind == "exp_info":
        arg = h.e * y + 1.0
        if arg <= 0.0:
            raise OutOfRange(f"{y!r} is outside the range of an exp_info generator with e={h.e!r}")
        return math.log2(arg) / h.c
    arg = h.e * y
    if arg <= 0.0:
        raise OutOfRange(f"{y!r} is outside the range of an exp_cert generator with e={h.e!r}")
    return -math.log2(arg) / h.c


@dataclass(frozen=True)
class CompositionOp:
    """One of the supported two-argument composition laws."""

    kind: str
    e: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("additive", "pseudo_additive", "multiplicative"):
            raise ConstraintViolation(f"unknown composition kind {self.kind!r}")
        if self.kind == "multiplicative" and self.e == 0.0:
            raise ZeroScale("multiplicative composition needs a nonzero scale e")

    @classmethod
    def additive(cls) -> "CompositionOp":
        return cls("additive")

    @classmethod
    def pseudo_additive(cls, e: float) -> "CompositionOp":
        return cls("pseudo_additive", e=e)

    @classmethod
    def multiplicative(cls, e: float) -> "CompositionOp":
        return cls("multiplicative", e=e)


def compose(op: CompositionOp, x: float, y: float) -> float:
    if op.kind == "additive":
        return x + y
    if op.kind == "pseudo_additive":
        return x + y + op.e * x * y
    return op.e * x * y


def op_for_generator(h: GeneratorH) -> CompositionOp:
    """Closed-form law equal to conjugating addition through h."""
    if h.kind == "linear":
        return CompositionOp.additive()
    if h.kind == "exp_info":
        return CompositionOp.pseudo_additive(h.e)
    return CompositionOp.multiplicative(h.e)

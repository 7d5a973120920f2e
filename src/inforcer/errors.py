"""Exception hierarchy shared by every module.

All domain failures derive from InforcerError so callers can catch one
type; most also derive from ValueError because they signal bad values.
"""


class InforcerError(Exception):
    """Base class for every error raised by this package."""


class NegativeMass(InforcerError, ValueError):
    """A probability or weight entry is negative, non-finite, or zero
    where strict positivity was requested."""


class NotNormalized(InforcerError, ValueError):
    """Vector entries do not sum to 1 within tolerance."""


class TooShort(InforcerError, ValueError):
    """Vector has fewer than two entries or is not one-dimensional."""


class LengthMismatch(InforcerError, ValueError):
    """Two paired vectors have different lengths."""


class DegenerateWeights(InforcerError, ValueError):
    """A derived weight vector cannot be formed: its exponent is not
    finite, a term's exponent left the representable range upward, or
    its terms carry no mass."""


class ZeroScale(InforcerError, ValueError):
    """The scaled product was requested with scale e = 0."""


class Overflow(InforcerError, ArithmeticError):
    """A generator evaluation, or an exponent such as tau*lambda*log2(p)
    or beta*log2(p), left double range; raised instead of returning inf."""


class OutOfRange(InforcerError, ValueError):
    """Argument lies outside a generator's invertible range."""


class DomainError(InforcerError, ValueError):
    """Probability outside the admissible domain (p <= 0 where a
    positive weight looks at it, or p > 1 for elementary content)."""


class ConstraintViolation(InforcerError, ValueError):
    """Parameter combination violates a measure's constraints."""


class UnknownMeasure(InforcerError, LookupError):
    """Requested catalog row does not exist."""


class ParseError(InforcerError, ValueError):
    """Input text or file could not be parsed into a vector."""


class UsageError(InforcerError):
    """Command line invocation is malformed."""

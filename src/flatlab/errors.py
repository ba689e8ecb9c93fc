"""Exception types shared across the package."""


class FlatlabError(Exception):
    """Base class for all flatlab errors."""


class NotPrime(FlatlabError):
    """A composite number was passed where a prime is required."""


class DivisionByZero(FlatlabError, ZeroDivisionError):
    """Division by a zero field element, polynomial, or rational function."""


class FieldMismatch(FlatlabError):
    """Operands belong to different fields (no implicit coercion)."""


class ParseError(FlatlabError):
    """Expression syntax error; carries the 0-based input position."""

    def __init__(self, message, pos):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class ZeroPolynomial(FlatlabError):
    """The zero polynomial was passed where a nonzero one is required."""


class BadPrime(FlatlabError):
    """The map does not reduce well at this prime; carries the reason."""

    def __init__(self, p, reason):
        super().__init__(f"p={p}: {reason}")
        self.p = p
        self.reason = reason


class NotMobius(FlatlabError):
    """Conjugation requires a degree-1 rational map."""


class Inseparable(FlatlabError):
    """The map has identically vanishing derivative."""


class WildRamification(FlatlabError):
    """A ramification index divisible by the characteristic was met."""


class OrbitBoundExceeded(FlatlabError):
    """A critical orbit over Q passed a walk bound; the message says which."""


class IrrationalCriticalPoints(FlatlabError):
    """A map over Q has critical points outside P^1(Q)."""


class BadCharacteristic(FlatlabError):
    """The characteristic is too small for the requested operation."""


class NotSemiInvariant(FlatlabError):
    """A claimed semi-invariance certificate failed re-verification."""


class BadWeight(FlatlabError):
    """The requested weight is invalid here (e.g. divisible by p)."""


class WeightDivisibleByP(BadWeight):
    """Cyclic-cover construction needs a weight not divisible by p."""


class SingularCurve(FlatlabError):
    """The Weierstrass equation is singular (4a^3 + 27b^2 = 0)."""


class DegreeTooSmall(FlatlabError):
    """Classification needs a map of degree at least 2."""


class IdentityCheckFailed(FlatlabError):
    """An internal closed-form identity failed; indicates a bug."""

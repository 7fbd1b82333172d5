"""Exception types shared by all detsums modules."""


class DetsumsError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(DetsumsError, ValueError):
    """Bad input from a caller or the command line; the CLI exits 2."""


class NotPrime(DetsumsError):
    """The modulus failed the primality test (or is not an odd prime)."""


class TooLarge(DetsumsError):
    """Input exceeds a size bound: the table cap on a dense table, the hard cap 2^31 for an array, or psi_13."""


class ZeroInverse(DetsumsError):
    """Attempted to invert 0 mod p."""


class BadOrder(DetsumsError):
    """Character order does not divide p-1, or is below 2."""


class WeightOutOfRange(DetsumsError):
    """A weight exceeds the sup-norm bound 1."""


class Overflow(DetsumsError):
    """A float64 tally would lose exactness: the N^4 < 2^53 guard."""


class DomainTooLarge(DetsumsError):
    """Index box too large for the requested sum (needs A*B*C < p)."""


class BadWindow(DetsumsError):
    """Sift window violates N >= y >= x >= 2."""


class InternalInvariantViolation(DetsumsError):
    """A self-check that must never fail did fail; build-stopping bug."""

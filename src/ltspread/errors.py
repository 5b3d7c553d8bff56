"""Exception types raised across the package.

Everything inherits from LtsError so callers can catch one base class.
Validation failures on user-supplied data additionally derive from
ValueError, resource guards from RuntimeError.
"""


class LtsError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(LtsError, ValueError):
    """A supplied value violates a documented precondition."""


class VertexOutOfRange(ValidationError):
    """A vertex label is negative or not below the declared order n."""


class DegenerateTriple(ValidationError):
    """A triple repeats a vertex or does not have exactly three entries."""


class DuplicatePairCoverage(ValidationError):
    """Two triples cover the same unordered pair, breaking linearity."""

    def __init__(self, pair: tuple[int, int], message: str | None = None):
        self.pair = pair
        super().__init__(message or f"pair {pair} is covered by more than one triple")


class SameVertex(ValidationError):
    """A pair query named the same vertex twice."""


class ModeTooLarge(ValidationError):
    """Brute-force checking was requested beyond its supported order."""


class BudgetExceeded(LtsError, RuntimeError):
    """An enumeration hit its configured node or subset budget."""


class EvenModulus(ValidationError):
    """The Steiner construction needs an odd modulus."""


class ModulusTooSmall(ValidationError):
    """The Steiner construction needs a modulus of at least 3."""


class NotOddPrime(ValidationError):
    """A construction parameter must be an odd prime."""


class KeepIndexOutOfRange(ValidationError):
    """A crowning keep-index does not name an uncovered edge."""


class OrderTooSmall(ValidationError):
    """The star expansion needs a base of at least 3 vertices."""


class OrderOutOfRange(ValidationError):
    """The extremal search only supports orders 5 through 12."""


class ModulusMismatch(ValidationError):
    """Sumset operands live in different cyclic groups."""


class EmptyOperand(ValidationError):
    """Sumset operands must be non-empty."""


class OutOfRange(ValidationError):
    """A numeric argument lies outside its documented interval."""


class ParseError(LtsError, ValueError):
    """A system file violates the text format grammar."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)

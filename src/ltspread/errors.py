"""Exception types raised across the package.

Everything inherits from LtsError so callers can catch one base class.
Validation failures on user-supplied data additionally derive from
ValueError, resource guards from RuntimeError.  A class exists only where
callers tell it apart: the three errors that make a triple system invalid,
OutOfRange for every other bad argument, BudgetExceeded and ParseError.
"""


class LtsError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(LtsError, ValueError):
    """A supplied value violates a documented precondition."""


class OutOfRange(ValidationError):
    """An argument lies outside its documented domain."""


class VertexOutOfRange(ValidationError):
    """A vertex label is negative or not below the declared order n.

    ``triple`` is the offending triple when a triple caused the error.
    """

    def __init__(self, message: str, triple: tuple[int, int, int] | None = None):
        self.triple = triple
        super().__init__(message)


class DegenerateTriple(ValidationError):
    """A triple repeats a vertex or does not have exactly three entries."""


class DuplicatePairCoverage(ValidationError):
    """Two triples cover the same unordered pair, breaking linearity.

    ``pair`` is the pair and ``triples`` the two triples covering it,
    lexicographically earlier first.
    """

    def __init__(
        self,
        pair: tuple[int, int],
        triples: tuple[tuple[int, int, int], tuple[int, int, int]],
        message: str | None = None,
    ):
        self.pair = pair
        self.triples = triples
        super().__init__(
            message or f"pair {pair} is covered by both {triples[0]} and {triples[1]}"
        )


class BudgetExceeded(LtsError, RuntimeError):
    """An enumeration hit its configured node or subset budget."""


class ParseError(LtsError, ValueError):
    """A system file violates the text format grammar."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)

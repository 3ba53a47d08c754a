"""Exception hierarchy.

Everything raised on bad user input (malformed files, unknown identifiers,
violated preconditions) derives from LeavittError so the CLI can map it to
a structured error report and exit code 2; anything else is a genuine bug.
"""


class LeavittError(Exception):
    """Base class for all user-facing errors."""


class GraphSyntaxError(LeavittError):
    """Malformed graph DSL source."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)


class ExpressionSyntaxError(LeavittError):
    """Malformed element expression."""


class DuplicateIdentifier(LeavittError):
    """Identifier declared twice in one graph."""


class UnknownIdentifier(LeavittError):
    """Reference to an undeclared vertex or edge."""


class GraphMismatch(LeavittError):
    """Operands attached to different graphs (or different fields)."""


class PreconditionError(LeavittError):
    """Operation called outside its stated domain."""


class NotGroupInvertible(LeavittError):
    """Matrix has no group inverse: rank(m^2) < rank(m)."""


class NotSquareCancellable(LeavittError):
    """Witness element b is not square-cancellable."""


class NotFoundWithinBounds(LeavittError):
    """Bounded exhaustive search exhausted without a witness."""


class LimitExceeded(LeavittError):
    """A count past its size bound, raised by charge; the cycle listing raises mid-search."""


def charge(count, bound, message, **fields):
    """The one refusal path of every size bound: LimitExceeded when count > bound,
    with message formatted (count, bound and the fields) only then."""
    if count > bound:
        raise LimitExceeded(message.format(count=count, bound=bound, **fields))


def size(value, least, message):
    """The one check of a size argument: PreconditionError naming the value when
    it is no int (a bool is one), or with message when it is below least."""
    if not isinstance(value, int):
        raise PreconditionError(f"a size must be an integer, not {value!r}")
    if value < least:
        raise PreconditionError(message)


def string(value, what):
    """The one check of a text argument: PreconditionError naming the value when it is no str."""
    if not isinstance(value, str):
        raise PreconditionError(f"{what} must be a string, not {value!r}")

"""Exception types shared across the package, and the integer check that raises one."""

from numbers import Integral


class RQSimError(Exception):
    """Base class for all rqsim errors."""


class InvalidParameterError(RQSimError, ValueError):
    """A numeric or configuration parameter is outside its valid domain."""


def check_int(name: str, value, low: int | None = None) -> None:
    """Raise InvalidParameterError unless ``value`` is an integer (an
    Integral, numpy's included, that is not a bool) of at least ``low``,
    if one is given."""
    if not (isinstance(value, Integral) and not isinstance(value, bool) and (low is None or value >= low)):
        bound = "" if low is None else f" >= {low}"
        raise InvalidParameterError(f"{name} must be an integer{bound}, got {value!r}")


class InvalidInputError(RQSimError, ValueError):
    """A structural input (graph, snapshot, stream) violates a precondition."""


class GenerationFailureError(RQSimError, RuntimeError):
    """A random generator could not produce a valid instance."""


class ParseError(RQSimError, ValueError):
    """An input file could not be parsed.

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class InfeasibleTargetError(RQSimError, ValueError):
    """The requested infection size exceeds the reachable component."""


class TrialError(RQSimError, RuntimeError):
    """A sweep trial raised an unexpected exception; the message names the trial.

    ``traceback`` is the cause's formatted traceback as plain text, which
    default pickling carries out of a forked sweep worker, so the log shows
    the same text at every worker count.  A worker that dies is a
    TrialError too, naming its exit status, with no traceback.
    """

    def __init__(self, message: str, traceback: str = ""):
        super().__init__(message)
        self.traceback = traceback

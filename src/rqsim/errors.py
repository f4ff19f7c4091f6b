"""Exception types shared across the package."""

import traceback


class RQSimError(Exception):
    """Base class for all rqsim errors."""


class InvalidParameterError(RQSimError, ValueError):
    """A numeric or configuration parameter is outside its valid domain."""


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

    A pool worker hands a row's error back by pickle, which drops the
    cause; the cause's traceback crosses as text, so the log still shows it.
    """

    def __reduce__(self):
        cause = self.__cause__
        text = "" if cause is None else "".join(
            traceback.format_exception(type(cause), cause, cause.__traceback__)
        )
        return _rebuild_trial_error, (self.args, text)


class _CauseText(Exception):
    """A cause that crossed a process boundary as its formatted traceback."""

    def __str__(self) -> str:
        return f'\n"""\n{self.args[0]}"""'


def _rebuild_trial_error(args: tuple, text: str) -> TrialError:
    err = TrialError(*args)
    if text:
        err.__cause__ = _CauseText(text)
    return err

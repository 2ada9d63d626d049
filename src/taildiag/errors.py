"""Shared exception types for the diagnostics toolkit."""


class ToolkitError(ValueError):
    """Base class for all toolkit-raised errors."""


class EmptyTraceError(ToolkitError):
    """A log or trace produced zero usable records."""


class MissingColumnError(ToolkitError):
    """A mapped column is absent from the input header."""


class MalformedRecordError(ToolkitError):
    """A record of a canonical file breaks its format or a value
    domain; names the file and the 1-based line."""

    def __init__(self, path, line: int, reason: str):
        super().__init__(f"{path}:{line}: {reason}")
        self.path = str(path)
        self.line = line


class NonFiniteError(ToolkitError):
    """A statistic was requested on input holding NaN or an infinity."""


class EmptySequenceError(ToolkitError):
    """A statistic was requested on an empty sequence."""


class LengthMismatchError(ToolkitError):
    """Paired sequences have different lengths."""


class TooFewPointsError(ToolkitError):
    """Not enough points for the requested statistic."""


class RunTooShortError(ToolkitError):
    """Run duration is shorter than one window."""


class SplitOutOfRangeError(ToolkitError):
    """Phase split point falls outside the run."""


class EmptyPhaseError(ToolkitError):
    """A phase has no latency samples."""


class InvalidSpecError(ToolkitError):
    """A scenario, window, policy, or config declaration violates its
    constraints."""

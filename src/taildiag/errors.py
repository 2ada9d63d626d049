"""Shared exception types for the diagnostics toolkit, its one warning
sink (`warn`), the declared-type check every spec runs on its fields,
and the text decode that names the line of a byte that is not UTF-8
(lines counted by `count_line_ends`).

Each fault is reported once: a skipped record or questionable input as
one `WARNING: <message>` line on stderr from `warn` (so no command
imports the standard library's log package), and an error as one
ToolkitError, which the CLI prints as one `error: <message>` line (an
empty phase names its run)."""

import math
import numbers
import sys
from dataclasses import fields
from pathlib import Path


class ToolkitError(ValueError):
    """Base class for all toolkit-raised errors."""


class EmptyTraceError(ToolkitError):
    """A log or trace produced zero usable records."""


class MissingColumnError(ToolkitError):
    """A mapped column is absent from the input header."""


class MalformedRecordError(ToolkitError):
    """A record of a canonical file breaks its format or a value
    domain, or a line of a fullstats file is not CSV; names the file
    and the 1-based line."""

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


def warn(message: str) -> None:
    """Write `WARNING: message` and a newline to sys.stderr, looked up
    at call time. Every warning of the toolkit comes through here: one
    per malformed ping line and per skipped fullstats row, among others.
    They are uncapped: perfbench's raw_ingest check reads those line and
    row numbers from stderr, so a cap (and a quiet flag) waits for the
    diagnostics sidecar (ROADMAP item 4)."""
    print(f"WARNING: {message}", file=sys.stderr)


# Declared field types a value is checked against: the type it must
# have (a float field takes an int too) and the words of the error.
_DECLARED = {
    "float": (numbers.Real, "a finite number"),
    "int": (numbers.Integral, "an integer"),
    "str": (str, "a string"),
    "dict": (dict, "an object"),
}


def check_value(name: str, value, declared: str) -> None:
    """Raise InvalidSpecError naming `name` unless `value` has the
    declared type ("float", "int", "str" or "dict"). A bool is no
    number, and a number must be finite."""
    kind, words = _DECLARED[declared]
    ok = isinstance(value, kind) and not isinstance(value, bool)
    if ok and declared in ("float", "int"):
        try:
            ok = math.isfinite(value)
        except OverflowError:   # an int too large for a float
            ok = False
    if not ok:
        raise InvalidSpecError(f"{name} must be {words}, got {value!r}")


def check_fields(spec) -> None:
    """check_value on every field of the dataclass instance `spec`
    declared as one of those types, or as one of them `| None` while
    it holds a value. Other fields are left to the spec's own checks."""
    for f in fields(spec):
        declared, _, optional = f.type.partition(" | ")
        value = getattr(spec, f.name)
        if declared in _DECLARED and not (optional == "None" and value is None):
            check_value(f.name, value, declared)


def count_line_ends(data: bytes) -> int:
    """The line ends in data, each LF, CR and CRLF counted once."""
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")


def decode_text(path: str | Path, data: bytes, line: int = 1) -> str:
    """data, bytes of the file at path whose first line is line `line`,
    as UTF-8 text with universal newlines (CRLF and CR read as LF). A
    byte that is not UTF-8 raises MalformedRecordError naming its line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line += count_line_ends(data[:exc.start])
        raise MalformedRecordError(
            path, line, f"not UTF-8 text: byte {data[exc.start]:#04x}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text

"""The package's error types. This module imports no other module of the
package, so the CLI catches each error without loading the layer raising it."""

from __future__ import annotations


class MalformedLogError(Exception):
    """An event log violates the stream invariants (code MALFORMED_LOG)."""

    code = "MALFORMED_LOG"

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"{message} (line {line})")
        self.line = line


class ScenarioFormatError(ValueError):
    """The scenario document is structurally unusable (CLI exit 2)."""


class LevelError(ValueError):
    """Consistency-level domain error with a machine-readable code."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code

"""Domain errors with machine-parsable codes.

Every failure the library can report carries a short kebab-case code so the
CLI can print a single parsable line (``error: <code>: <message>``) and exit
with status 1.  Usage errors (bad flags, unknown subcommands) are argparse's
business and exit 2.
"""

from __future__ import annotations


class GapError(Exception):
    """Base domain error.  ``code`` is a short stable identifier."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class GuardExceeded(GapError):
    """An enumeration would exceed the configured subset-count guard."""

    def __init__(self, message: str):
        super().__init__("guard-exceeded", message)


class CertificationError(GapError):
    """An exhaustive certification sweep found a counterexample."""

    def __init__(self, message: str):
        super().__init__("certification-failed", message)

"""Exception types shared across the package.

Each error class carries the process exit code the CLI maps it to, so
library users and the command line agree on failure semantics.
"""


class SelfsimError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class UsageError(SelfsimError):
    """Bad command-line invocation: unknown flags, missing arguments."""

    exit_code = 1


class SpecError(SelfsimError):
    """Invalid parameters, malformed input documents, or domain violations."""

    exit_code = 2


class BudgetError(SelfsimError):
    """An enumeration would exceed the configured word or node budget."""

    exit_code = 3


class PrecisionError(SelfsimError):
    """Requested resolution is finer than float64 can represent reliably."""

    exit_code = 4

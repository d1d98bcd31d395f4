"""Exception taxonomy shared across the package.

All contract failures derive from ValueError so callers can catch one family;
the CLI maps them to exit code 2 (data/contract error) versus 1 (usage).
"""


class ShapeError(ValueError):
    """Tensor rank or extent does not match an operation's contract."""


class ConfigError(ValueError):
    """Model or dataset configuration is internally inconsistent."""


class ContractError(ValueError):
    """A value-level precondition was violated (e.g. a malformed manifest field)."""


class CountOverflowError(OverflowError):
    """An operation counter would exceed the 64-bit signed range."""

"""Shared exception types.

Every guardable failure mode gets its own class so the CLI can map them to
exit codes and tests can assert on the precise refusal.
"""


class GapsieveError(Exception):
    """Base class for all errors raised by this package."""


class SieveRangeError(GapsieveError, ValueError):
    """Range is malformed or exceeds the declared sieving bound."""


class BudgetError(GapsieveError, RuntimeError):
    """A configured budget (enumeration, modulus, table, block, exact counts) would be exceeded."""


class ToleranceError(GapsieveError, RuntimeError):
    """Requested certified tolerance is unachievable under the configured caps."""


class RegimeError(GapsieveError, ValueError):
    """Parameter set violates a required asymptotic regime (overridable with force)."""


class TrendError(GapsieveError, ValueError):
    """Trend/report aggregation over incompatible or insufficient inputs."""

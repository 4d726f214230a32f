"""Exception types shared across the package.

The CLI maps these onto process exit codes: SolverError -> 2,
InvariantError -> 3, ConfigError -> 4.
"""


class GeorobustError(Exception):
    """Base class for package-specific failures."""


class SolverError(GeorobustError):
    """The gate lies outside the family's reachable class, or its phase law
    failed the certificate."""


class InvariantError(GeorobustError):
    """A numerical invariant (unitarity, trace, positivity, ...) was violated."""


class ConfigError(GeorobustError):
    """Bad CLI arguments or configuration file contents."""


class SerializationError(GeorobustError):
    """Malformed schedule text."""

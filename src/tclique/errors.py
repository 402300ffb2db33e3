"""Exception types shared across the package.

The CLI maps these onto exit codes: usage problems exit 1, data problems
(parse/partition/state) exit 2, verification or certification failures 3.
"""


class TcliqueError(Exception):
    """Base class for all package errors."""


class ParseError(TcliqueError):
    """Malformed input line or unusable link file."""


class PartitionError(TcliqueError):
    """Invalid partition plan for the given stream."""


class StateError(TcliqueError):
    """Unreadable, truncated, or corrupted persisted state."""


class ConfigError(TcliqueError):
    """Parameters disagree with a loaded state or with each other."""


class OracleBoundsError(TcliqueError):
    """Instance too large for the brute-force reference enumerator."""


class VerificationError(TcliqueError):
    """A result fails certification or disagrees with exhaustive search."""

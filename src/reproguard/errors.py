"""Exception hierarchy shared across the package.

Stream-parsing problems all derive from MalformedStreamError so callers can
catch one type; the concrete subclasses exist because tests and the CLI need
to tell the failure classes apart: no stream fault raises the base itself.
"""


class ReproGuardError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(ReproGuardError):
    """Invalid grid, guard, or codec configuration."""


class InvalidInputError(ReproGuardError):
    """Caller passed a value outside the documented domain (NaN, inf, ...)."""


class MalformedStreamError(ReproGuardError):
    """Container or payload bytes violate the format."""


class BadMagicError(MalformedStreamError):
    """First four bytes are not the container magic."""


class UnsupportedVersionError(MalformedStreamError):
    """Container version byte is not one we can parse."""


class TruncatedStreamError(MalformedStreamError):
    """Buffer ended before a declared field or section."""


class FieldValueError(MalformedStreamError):
    """A header field holds a value outside its legal range, or a payload
    section disagrees with its header or with itself."""


class TrailingDataError(MalformedStreamError):
    """Bytes remain after the declared end of the container."""


class PlyParseError(ReproGuardError):
    """ASCII PLY input could not be parsed."""

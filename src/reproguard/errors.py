"""Exception hierarchy shared across the package, and the scalar input rules.

Stream-parsing problems all derive from MalformedStreamError so callers can
catch one type; the concrete subclasses exist because tests and the CLI need
to tell the failure classes apart: no stream fault raises the base itself.

Every public entry checks a scalar with :func:`_real` or :func:`_whole`
and keeps the Python ``float`` or ``int`` it returns, so a numpy
``float32`` epsilon computes in double precision like any other.
"""

import math
from numbers import Integral, Real


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


def _real(name: str, x, error: type[Exception] = InvalidInputError) -> float:
    """``x`` as a float when it is a finite ``float``, ``int`` or other
    ``numbers.Real``; a string, bytes, None or a complex number raises
    ``error``.  Both rules test the concrete types before the ABCs, whose
    checks are most of their cost: a perturbation runs them every perturb."""
    if isinstance(x, (float, int, Real)):
        try:
            f = float(x)
        except OverflowError:  # an int beyond the doubles
            f = math.inf
        if math.isfinite(f):
            return f
    raise error(f"{name} must be a finite real number, got {x!r}")


def _whole(name: str, x, lo: int | None = None, hi: int | None = None,
           error: type[Exception] = InvalidInputError) -> int:
    """``x`` as an int when it is an ``int`` or a ``numbers.Integral`` in
    ``[lo, hi]`` (an open end where a bound is None); a float, even a whole
    one, raises ``error``, as does anything outside the range."""
    if isinstance(x, (int, Integral)):
        x = int(x)
        if (lo is None or x >= lo) and (hi is None or x <= hi):
            return x
    if hi is not None:
        raise error(f"{name} {x!r} outside [{lo}, {hi}]")
    kind = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}
    raise error(f"{name} must be {kind.get(lo, f'an integer >= {lo}')}")

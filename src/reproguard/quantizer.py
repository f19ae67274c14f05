"""Scalar quantization grids and boundary operators.

A grid is either uniform (step ``q``, offset ``s``) or an explicit sorted
boundary table.  Bins are half-open ``[b_i, b_{i+1})``; a value exactly on
the last boundary belongs to the top bin.  All arithmetic is IEEE-754
double precision.  Operators work on whole arrays.  Boundary tables that
stream headers name by id are fixed: table 1 is the hyperprior scale ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .errors import ConfigError, FieldValueError, GuardError, InvalidInputError

__all__ = [
    "QuantGrid",
    "quantize_array",
    "dequantize_array",
    "round_index_array",
    "boundary_value_array",
    "gap_below_array",
    "gap_above_array",
    "validate",
    "SCALE_TABLE_ID",
    "default_scale_table",
    "get_table",
]

# Relative tolerance when checking that a domain edge sits on a grid
# boundary; domain edges are user input and cannot be trusted to be exact.
_EDGE_REL_TOL = 1e-9


def _check_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise InvalidInputError(f"{name} must be finite, got {x!r}")
    return x


@dataclass(frozen=True)
class QuantGrid:
    """Uniform or boundary-table quantization grid.

    Use :meth:`uniform` or :meth:`from_boundaries` instead of the raw
    constructor; a boundary grid built without a domain rejects values
    outside its table instead of clamping them.
    """

    q: float | None = None
    s: float = 0.0
    boundaries: tuple[float, ...] | None = None
    domain: tuple[float, float] | None = None
    _b: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.q is None) == (self.boundaries is None):
            raise ConfigError("grid needs exactly one of step q or boundaries")
        if self.q is not None:
            q = _check_finite("q", self.q)
            s = _check_finite("s", self.s)
            if q <= 0.0:
                raise ConfigError(f"step q must be > 0, got {q!r}")
            if not 0.0 <= s < 1.0:
                raise ConfigError(f"offset s must be in [0, 1), got {s!r}")
            if self.domain is not None:
                lo, hi = self.domain
                lo = _check_finite("domain lo", lo)
                hi = _check_finite("domain hi", hi)
                if lo >= hi:
                    raise ConfigError("domain lo must be < hi")
                for name, edge in (("lo", lo), ("hi", hi)):
                    t = edge / q + s
                    if abs(t - round(t)) > _EDGE_REL_TOL * max(1.0, abs(t)):
                        raise ConfigError(
                            f"domain {name}={edge!r} does not lie on a grid boundary"
                        )
        else:
            b = np.asarray(self.boundaries, dtype=np.float64)
            if b.ndim != 1 or b.size < 2:
                raise ConfigError("boundary table needs at least two boundaries")
            if not np.all(np.isfinite(b)):
                raise InvalidInputError("boundaries must be finite")
            if not np.all(np.diff(b) > 0.0):
                raise ConfigError("boundaries must be strictly increasing")
            object.__setattr__(self, "boundaries", tuple(float(x) for x in b))
            object.__setattr__(self, "_b", b)
            if self.domain is not None:
                lo, hi = self.domain
                if lo != b[0] or hi != b[-1]:
                    raise ConfigError(
                        "boundary-grid domain must coincide with the outer boundaries"
                    )

    @classmethod
    def uniform(
        cls, q: float, s: float = 0.0, domain: tuple[float, float] | None = None
    ) -> "QuantGrid":
        return cls(q=float(q), s=float(s), domain=domain)

    @classmethod
    def from_boundaries(cls, boundaries) -> "QuantGrid":
        """A boundary-table grid whose domain is the outer boundary pair, so
        out-of-range values clamp onto it."""
        b = tuple(float(x) for x in boundaries)
        return cls(boundaries=b, domain=(b[0], b[-1]))

    @property
    def is_uniform(self) -> bool:
        return self.q is not None

    @property
    def min_gap(self) -> float:
        if self.is_uniform:
            return float(self.q)
        return float(np.min(np.diff(self._b)))

    def domain_bin_range(self) -> tuple[int, int]:
        """(first bin index, one past last) for grids with a domain."""
        if self.domain is None:
            raise ConfigError("grid has no domain")
        if self.is_uniform:
            lo, hi = self.domain
            n_lo = int(round(lo / self.q + self.s))
            n_hi = int(round(hi / self.q + self.s))
            return n_lo, n_hi
        return 0, len(self.boundaries) - 1


def validate(grid: QuantGrid, epsilon: float) -> None:
    """Check the reproduction margin; raises ConfigError when too tight.

    Safeguarding is only sound when every bin is wider than four times the
    worst-case cross-platform error.
    """
    epsilon = _check_finite("epsilon", epsilon)
    if epsilon <= 0.0:
        raise ConfigError(f"epsilon must be > 0, got {epsilon!r}")
    if not grid.min_gap > 4.0 * epsilon:
        raise ConfigError(
            f"grid min gap {grid.min_gap!r} must exceed 4*epsilon = {4.0 * epsilon!r}"
        )


# ---------------------------------------------------------------------------
# quantize / dequantize


def _clamp_domain_array(grid: QuantGrid, v: np.ndarray) -> np.ndarray:
    if grid.domain is None:
        return v
    lo, hi = grid.domain
    return np.minimum(np.maximum(v, lo), hi)


def quantize_array(grid: QuantGrid, v) -> np.ndarray:
    """Bin index of each value (int64 array)."""
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("values must be finite")
    if grid.is_uniform:
        n = np.floor(v / grid.q + grid.s).astype(np.int64)
        if grid.domain is not None:
            n_lo, n_hi = grid.domain_bin_range()
            n = np.clip(n, n_lo, n_hi - 1)
        return n
    b = grid._b
    if grid.domain is not None:
        v = _clamp_domain_array(grid, v)
    elif np.any(v < b[0]) or np.any(v > b[-1]):
        raise InvalidInputError("value outside boundary table and grid has no domain")
    n = np.searchsorted(b, v, side="right").astype(np.int64) - 1
    # v exactly on the last boundary belongs to the top bin
    return np.clip(n, 0, len(b) - 2)


def dequantize_array(grid: QuantGrid, n) -> np.ndarray:
    """Bin center of each index (float64 array)."""
    n = np.asarray(n, dtype=np.int64)
    if grid.is_uniform:
        return (n.astype(np.float64) + (0.5 - grid.s)) * grid.q
    b = grid._b
    if np.any(n < 0) or np.any(n >= len(b) - 1):
        raise InvalidInputError("bin index outside boundary table")
    return (b[n] + b[n + 1]) * 0.5


# ---------------------------------------------------------------------------
# boundary operators
#
# Boundary index m names the boundary below bin m, so bin n spans boundary
# indices [n, n+1].  On uniform grids the lattice extends beyond any domain;
# on boundary grids indices are confined to the table.


def _floor_index_uniform_array(grid: QuantGrid, v: np.ndarray) -> np.ndarray:
    q, s = grid.q, grid.s
    n = np.floor(v / q + s).astype(np.int64)
    # one-ulp repair: division may round across the boundary
    bl = (n.astype(np.float64) - s) * q
    n = np.where(bl > v, n - 1, n)
    bu = (n.astype(np.float64) + (1.0 - s)) * q
    n = np.where(bu <= v, n + 1, n)
    return n


def _floor_index_table_array(grid: QuantGrid, v: np.ndarray) -> np.ndarray:
    b = grid._b
    if np.any(v < b[0]) or np.any(v > b[-1]):
        raise InvalidInputError("value outside boundary table")
    i = np.searchsorted(b, v, side="right").astype(np.int64) - 1
    return np.minimum(i, len(b) - 1)


def boundary_value_array(grid: QuantGrid, m) -> np.ndarray:
    m = np.asarray(m, dtype=np.int64)
    if grid.is_uniform:
        return (m.astype(np.float64) - grid.s) * grid.q
    b = grid._b
    if np.any(m < 0) or np.any(m >= len(b)):
        raise GuardError("boundary index outside table")
    return b[m]


def round_index_array(grid: QuantGrid, v) -> tuple[np.ndarray, np.ndarray]:
    """(boundary index, boundary value) of the nearest boundary; ties go down.

    The index form is what decoders rely on: a perturbed value on the other
    side of the boundary still maps to the same index.
    """
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("values must be finite")
    v = _clamp_domain_array(grid, v)
    if grid.is_uniform:
        fi = _floor_index_uniform_array(grid, v)
        bl = boundary_value_array(grid, fi)
        bu = boundary_value_array(grid, fi + 1)
        m = np.where((v - bl) > (bu - v), fi + 1, fi)
    else:
        b = grid._b
        fi = _floor_index_table_array(grid, v)
        top = fi >= len(b) - 1  # exactly on the last boundary: distance 0
        fi_safe = np.minimum(fi, len(b) - 2)
        bl = b[fi_safe]
        bu = b[fi_safe + 1]
        m = np.where((v - bl) > (bu - v), fi_safe + 1, fi_safe)
        m = np.where(top, fi, m)
    return m, boundary_value_array(grid, m)


def gap_below_array(grid: QuantGrid, m) -> np.ndarray:
    """Width of the bin just below boundary ``m``."""
    m = np.asarray(m, dtype=np.int64)
    if grid.is_uniform:
        return np.full(m.shape, grid.q, dtype=np.float64)
    b = grid._b
    if np.any(m < 1) or np.any(m >= len(b)):
        raise GuardError("no bin below this boundary")
    return b[m] - b[m - 1]


def gap_above_array(grid: QuantGrid, m) -> np.ndarray:
    """Width of the bin just above boundary ``m``."""
    m = np.asarray(m, dtype=np.int64)
    if grid.is_uniform:
        return np.full(m.shape, grid.q, dtype=np.float64)
    b = grid._b
    if np.any(m < 0) or np.any(m >= len(b) - 1):
        raise GuardError("no bin above this boundary")
    return b[m + 1] - b[m]


# ---------------------------------------------------------------------------
# boundary tables named in stream headers by a 16-bit id

SCALE_TABLE_ID = 1
_SCALE_LO = 0.11
_SCALE_HI = 256.0
_SCALE_STEPS = 64


def default_scale_table() -> QuantGrid:
    """Geometric boundary ladder standing in for learned scale boundaries."""
    k = np.arange(_SCALE_STEPS, dtype=np.float64)
    b = np.exp(
        math.log(_SCALE_LO)
        + k * (math.log(_SCALE_HI) - math.log(_SCALE_LO)) / (_SCALE_STEPS - 1)
    )
    b[0] = _SCALE_LO
    b[-1] = _SCALE_HI
    return QuantGrid.from_boundaries(tuple(b.tolist()))


_TABLES = MappingProxyType({SCALE_TABLE_ID: default_scale_table()})


def get_table(table_id: int) -> QuantGrid:
    try:
        return _TABLES[table_id]
    except KeyError:
        raise FieldValueError(f"unknown boundary table id {table_id}") from None

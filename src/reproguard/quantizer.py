"""Scalar quantization grids and boundary operators.

A grid is either uniform (step ``q``, offset ``s``) or an explicit sorted
boundary table.  Bins are half-open ``[b_i, b_{i+1})``; a value exactly on
the last boundary belongs to the top bin.  Values beyond a grid's domain
clamp onto it, and a table's domain is its outer boundary pair.  All
arithmetic is IEEE-754 double precision.  Operators work on whole arrays.
Boundary tables that stream headers name by id are fixed: table 1 is the
hyperprior scale ladder.
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

    Build a uniform grid with :meth:`uniform`; its optional domain must
    hold at least one whole bin, with both edges on grid boundaries.  Build
    a table with ``QuantGrid(boundaries=b)``; its domain is always
    ``(b[0], b[-1])``, and naming any other domain is a ConfigError.
    """

    q: float | None = None
    s: float = 0.0
    boundaries: tuple[float, ...] | None = None
    domain: tuple[float, float] | None = None
    _b: np.ndarray | None = field(default=None, repr=False, compare=False)
    # boundary indices of the domain's edges, None without a domain
    _edges: tuple[int, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

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
                edges = []
                for name, edge in (("lo", lo), ("hi", hi)):
                    t = edge / q + s
                    if abs(t - round(t)) > _EDGE_REL_TOL * max(1.0, abs(t)):
                        raise ConfigError(
                            f"domain {name}={edge!r} does not lie on a grid boundary"
                        )
                    edges.append(round(t))
                if edges[0] == edges[1]:
                    raise ConfigError(
                        f"domain {self.domain!r} holds no whole bin of step {q!r}"
                    )
                object.__setattr__(self, "_edges", tuple(edges))
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
            if self.domain is None:
                object.__setattr__(self, "domain", (float(b[0]), float(b[-1])))
            elif tuple(self.domain) != (b[0], b[-1]):
                raise ConfigError(
                    "boundary-grid domain must coincide with the outer boundaries"
                )
            object.__setattr__(self, "_edges", (0, b.size - 1))

    @classmethod
    def uniform(
        cls, q: float, s: float = 0.0, domain: tuple[float, float] | None = None
    ) -> "QuantGrid":
        return cls(q=float(q), s=float(s), domain=domain)

    @property
    def is_uniform(self) -> bool:
        return self.q is not None

    @property
    def min_gap(self) -> float:
        if self.is_uniform:
            return float(self.q)
        return float(np.min(np.diff(self._b)))


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
    else:
        n = np.searchsorted(grid._b, v, side="right").astype(np.int64) - 1
    if grid._edges is not None:
        # values beyond the domain, and on its top edge, land in end bins
        n = np.clip(n, grid._edges[0], grid._edges[1] - 1)
    return n


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
        # the bin each value falls in; the top boundary is nearest to itself
        b = grid._b
        fi = quantize_array(grid, v)
        bl = b[fi]
        bu = b[fi + 1]
        m = np.where((v - bl) > (bu - v), fi + 1, fi)
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
    return QuantGrid(boundaries=tuple(b.tolist()))


_TABLES = MappingProxyType({SCALE_TABLE_ID: default_scale_table()})


def get_table(table_id: int) -> QuantGrid:
    try:
        return _TABLES[table_id]
    except KeyError:
        raise FieldValueError(f"unknown boundary table id {table_id}") from None

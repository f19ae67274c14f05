"""Scalar quantization grids and boundary operators.

A grid is either uniform, of step ``q``, or an explicit sorted boundary
table.  Bins are half-open ``[b_i, b_{i+1})``, and a uniform grid's boundary
``i`` is ``i*q``; a value exactly on the last boundary belongs to the top
bin.  Values beyond a grid's domain clamp onto it, and a table's domain is
its outer boundary pair.  All arithmetic is IEEE-754 double precision.
Operators work on whole arrays.  The one fixed boundary table is the
hyperprior's scale ladder, :func:`default_scale_table`.

Each value array is checked once, where it enters: one min/max pair finds
non-finite values and, on a uniform grid, bin indices of magnitude 2**53 or
more, which are refused (a uniform domain's edges are held to the same
bound).  Below that bound float64 holds every index exactly, so one
uniform-grid kernel works on indices as floats: from a few in-place passes
over three work arrays it gives each value's bin, its nearest boundary and
that boundary's distance, with the same bits as integer indices would.
Table grids find bins with ``searchsorted``.  No other module reads a
grid's boundaries or edges: the guard gets boundary values, half-bins and
the domain-edge rule from private helpers here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidInputError

__all__ = [
    "QuantGrid",
    "quantize_array",
    "dequantize_array",
    "round_index_array",
    "validate",
    "default_scale_table",
]

# Relative tolerance when checking that a domain edge sits on a grid
# boundary; domain edges are user input and cannot be trusted to be exact.
_EDGE_REL_TOL = 1e-9

# Bound on the magnitude of a bin index.  Below it float64 holds every
# integer exactly, so the uniform-grid kernel keeps indices as floats; an
# index beyond it would name some other bin.
_MAX_INDEX = 2.0**53

# Values per block of the uniform-grid kernel: a block's work arrays stay
# in a core's cache across the kernel's passes.
_BLOCK = 1 << 15


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
    boundaries: tuple[float, ...] | None = None
    domain: tuple[float, float] | None = None
    _b: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    # boundary indices of the domain's edges, None without a domain
    _edges: tuple[int, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if (self.q is None) == (self.boundaries is None):
            raise ConfigError("grid needs exactly one of step q or boundaries")
        if self.q is not None:
            q = _check_finite("q", self.q)
            if q <= 0.0:
                raise ConfigError(f"step q must be > 0, got {q!r}")
            if self.domain is not None:
                lo, hi = self.domain
                lo = _check_finite("domain lo", lo)
                hi = _check_finite("domain hi", hi)
                if lo >= hi:
                    raise ConfigError("domain lo must be < hi")
                edges = []
                for name, edge in (("lo", lo), ("hi", hi)):
                    t = edge / q
                    if not abs(t) < _MAX_INDEX:
                        raise ConfigError(
                            f"domain {name}={edge!r} lies at bin index {t!r} of "
                            f"step {q!r}, beyond 2**53"
                        )
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
        cls, q: float, *, domain: tuple[float, float] | None = None
    ) -> "QuantGrid":
        return cls(q=float(q), domain=domain)

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
# value entry, bins and boundaries
#
# Boundary index m names the boundary below bin m, so bin n spans boundary
# indices [n, n+1].  On uniform grids the lattice extends beyond any domain;
# on boundary grids indices are confined to the table.


def _checked(grid: QuantGrid, v, range_error=InvalidInputError) -> np.ndarray:
    """``v`` as float64 and clamped to the grid's domain: the one check a
    value array gets, where it enters an operator.

    One min/max pair finds non-finite values (NaN and inf propagate through
    it) and, on a uniform grid without a domain, values whose bin index
    reaches 2**53, which raise ``range_error``.  ``v`` itself is never
    written to.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        return v
    lo, hi = v.min(), v.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidInputError("values must be finite")
    if grid.domain is not None:  # every table grid has one
        d_lo, d_hi = grid.domain
        if lo < d_lo or hi > d_hi:
            v = np.maximum(v, d_lo, out=np.empty_like(v))
            np.minimum(v, d_hi, out=v)
    else:
        with np.errstate(over="ignore"):
            ends = np.floor(np.array([lo, hi]) / grid.q)
        if not np.all(np.abs(ends) < _MAX_INDEX):
            raise range_error(
                f"values in [{lo!r}, {hi!r}] reach bin index "
                f"{float(np.max(np.abs(ends)))!r} of step {grid.q!r}, beyond 2**53"
            )
    return v


def _uniform_bins(grid: QuantGrid, v: np.ndarray, nearest: bool):
    """The uniform-grid kernel over clamped values ``v``.

    Returns ``(n, m, d)``: the bin index of each value, clamped to the
    domain's bins; with ``nearest``, the index of its nearest boundary
    (ties go down) and that boundary's distance ``|b_m - v|``, else None
    twice.  Indices are float64, exact below 2**53.  Every operation writes
    in place into the three returned arrays, one block of values at a time.
    """
    q = grid.q
    flat = v.reshape(-1)
    n = np.empty(flat.size)
    m = np.empty(flat.size) if nearest else None
    d = np.empty(flat.size) if nearest else None
    for i in range(0, flat.size, _BLOCK):
        part = slice(i, i + _BLOCK)
        vb, nb = flat[part], n[part]
        np.divide(vb, q, out=nb)
        np.floor(nb, out=nb)
        if not nearest:
            continue
        mb, db = m[part], d[part]
        # one-ulp repair of n into fi: the division may round across the
        # boundary, and b_fi <= v need not hold after it either
        np.multiply(nb, q, out=db)
        down = np.greater(db, vb)  # nq > v
        np.subtract(nb, down, out=mb)
        np.add(mb, 1.0, out=db)
        db *= q
        up1 = np.less_equal(db, vb)  # (fi + 1)q <= v
        mb += up1
        # nearest boundary m = fi + up, ties going down: v - b_fi against
        # b_{fi+1} - v, the latter written over fi, then m rebuilt from n
        np.multiply(mb, q, out=db)
        np.subtract(vb, db, out=db)
        mb += 1.0
        mb *= q
        mb -= vb
        up = np.greater(db, mb)
        np.subtract(nb, down, out=mb)
        mb += up1
        mb += up
        # |b_m - v|, with b_m written as for any boundary index
        np.multiply(mb, q, out=db)
        db -= vb
        np.abs(db, out=db)
    if grid._edges is not None:
        np.maximum(n, grid._edges[0], out=n)
        np.minimum(n, grid._edges[1] - 1, out=n)
    return tuple(None if a is None else a.reshape(v.shape) for a in (n, m, d))


def _bins(grid: QuantGrid, v: np.ndarray, nearest: bool = False):
    """``(n, m, d)`` as :func:`_uniform_bins` gives them, for either grid;
    a table's indices are int64 and come from one ``searchsorted``."""
    if grid.is_uniform:
        return _uniform_bins(grid, v, nearest)
    b = grid._b
    # values beyond the domain, and on its top edge, land in end bins
    n = np.minimum(np.maximum(np.searchsorted(b, v, side="right") - 1, 0), b.size - 2)
    if not nearest:
        return n, None, None
    bl = b[n]
    bu = b[n + 1]
    up = (v - bl) > (bu - v)
    return n, n + up, np.abs(np.where(up, bu, bl) - v)


def _center(grid: QuantGrid, n: np.ndarray) -> np.ndarray:
    """Center of each bin ``n``, an array of ``n``'s shape; a uniform
    grid's float ``n`` becomes it."""
    if grid.is_uniform:
        n += 0.5
        n *= grid.q
        return n
    b = grid._b
    c = np.add(b[n], b[n + 1], out=np.empty(np.shape(n)))
    c *= 0.5
    return c


def _nearest(grid: QuantGrid, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(int64 index, value) of the nearest boundary of each clamped value."""
    m = np.asarray(_bins(grid, v, nearest=True)[1], dtype=np.int64)
    return m, _boundary(grid, m)


def _boundary(grid: QuantGrid, m: np.ndarray) -> np.ndarray:
    """Value of each int64 boundary index ``m``."""
    if grid.is_uniform:
        return m.astype(np.float64) * grid.q
    return grid._b[m]


def _inside(grid: QuantGrid, m: np.ndarray) -> np.ndarray:
    """Whether boundary ``m`` has a bin of the domain on both sides, which
    is where :func:`_half_bins` is defined.

    Only such a boundary can be risky: values beyond a domain edge clamp
    onto it, so no drift carries a value across the edge.  Without a domain
    every boundary is inside.
    """
    if grid._edges is None:
        return np.True_
    lo, hi = grid._edges
    return (m > lo) & (m < hi)


def _half_bins(grid: QuantGrid, m: np.ndarray) -> tuple:
    """Half the width of the bin below and of the bin above each boundary
    ``m`` that is :func:`_inside`."""
    if grid.is_uniform:
        return grid.q * 0.5, grid.q * 0.5
    b = grid._b
    return (b[m] - b[m - 1]) * 0.5, (b[m + 1] - b[m]) * 0.5


def quantize_array(grid: QuantGrid, v) -> np.ndarray:
    """Bin index of each value (int64 array)."""
    return _bins(grid, _checked(grid, v))[0].astype(np.int64, copy=False)


def dequantize_array(grid: QuantGrid, n) -> np.ndarray:
    """Bin center of each index (float64 array)."""
    n = np.asarray(n, dtype=np.int64)
    if grid.is_uniform:
        return _center(grid, n.astype(np.float64))
    if np.any(n < 0) or np.any(n >= len(grid._b) - 1):
        raise InvalidInputError("bin index outside boundary table")
    return _center(grid, n)


def round_index_array(grid: QuantGrid, v) -> tuple[np.ndarray, np.ndarray]:
    """(boundary index, boundary value) of the nearest boundary; ties go down.

    The index form is what decoders rely on: a perturbed value on the other
    side of the boundary still maps to the same index.
    """
    return _nearest(grid, _checked(grid, v))


# ---------------------------------------------------------------------------
# the hyperprior's scale table, the grid of every hyperprior stream

_SCALE_LO = 0.11
_SCALE_HI = 256.0
_SCALE_STEPS = 64


@functools.cache
def default_scale_table() -> QuantGrid:
    """Geometric boundary ladder standing in for learned scale boundaries,
    built once."""
    k = np.arange(_SCALE_STEPS, dtype=np.float64)
    b = np.exp(
        math.log(_SCALE_LO)
        + k * (math.log(_SCALE_HI) - math.log(_SCALE_LO)) / (_SCALE_STEPS - 1)
    )
    b[0] = _SCALE_LO
    b[-1] = _SCALE_HI
    return QuantGrid(boundaries=tuple(b.tolist()))

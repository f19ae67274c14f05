"""Scalar quantization grids and boundary operators.

Every grid is uniform, of step ``q``: boundary ``i`` is ``i*q``, and bins
are half-open ``[i*q, (i+1)*q)``.  A grid's domain is optional; values
beyond it clamp onto it, and a value exactly on its top edge belongs to the
top bin.  All arithmetic is IEEE-754 double precision.  Operators work on
whole arrays.  The one fixed grid is the hyperprior's scale table,
:func:`default_scale_table`, a grid on log sigma.

Each value array is checked once, where it enters: one min/max pair finds
non-finite values and, on a grid without a domain, bin indices of
magnitude 2**53 or more, which are refused (a domain's edges are held to
the same bound).  Below that bound float64 holds every index exactly, so
one kernel works on indices as floats: from a few in-place passes over
three work arrays it gives each value's bin, its nearest boundary and that
boundary's distance, with the same bits as integer indices would.  No other
module reads a grid's domain edges: the guard gets boundary values and the
domain-edge rule from private helpers here, and the hyperprior its first
bin.
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
    try:
        x = float(x)
    except (TypeError, ValueError):
        raise InvalidInputError(f"{name} must be a number, got {x!r}") from None
    if not math.isfinite(x):
        raise InvalidInputError(f"{name} must be finite, got {x!r}")
    return x


@dataclass(frozen=True)
class QuantGrid:
    """Uniform quantization grid of step ``q``: bin ``n`` is ``[n*q, (n+1)*q)``.

    Build one with :meth:`uniform`.  Its optional domain must hold at least
    one whole bin, with each edge on a grid boundary.
    """

    q: float
    domain: tuple[float, float] | None = None
    # boundary indices of the domain's edges, None without a domain
    _edges: tuple[int, int] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        q = _check_finite("q", self.q)
        if q <= 0.0:
            raise ConfigError(f"step q must be > 0, got {q!r}")
        object.__setattr__(self, "q", q)
        if self.domain is None:
            return
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

    @classmethod
    def uniform(
        cls, q: float, *, domain: tuple[float, float] | None = None
    ) -> "QuantGrid":
        return cls(q, domain=domain)

    @property
    def is_uniform(self) -> bool:
        """Always True: every grid is uniform.  ``perfbench/tracer.py``'s
        ``_bin_widths`` still reads it, and ROADMAP item 5 deletes that
        reader."""
        return True


def validate(grid: QuantGrid, epsilon: float) -> None:
    """Check the reproduction margin; raises ConfigError when too tight.

    Safeguarding is only sound when every bin is wider than four times the
    worst-case cross-platform error.
    """
    epsilon = _check_finite("epsilon", epsilon)
    if epsilon <= 0.0:
        raise ConfigError(f"epsilon must be > 0, got {epsilon!r}")
    if not grid.q > 4.0 * epsilon:
        raise ConfigError(
            f"grid step {grid.q!r} must exceed 4*epsilon = {4.0 * epsilon!r}"
        )


# ---------------------------------------------------------------------------
# value entry, bins and boundary values
#
# Boundary index m names the boundary below bin m, so bin n spans boundary
# indices [n, n+1].  The lattice extends beyond any domain.


def _checked(grid: QuantGrid, v, range_error=InvalidInputError) -> np.ndarray:
    """``v`` as float64 and clamped to the grid's domain: the one check a
    value array gets, where it enters an operator.

    One min/max pair finds non-finite values (NaN and inf propagate through
    it) and, on a grid without a domain, values whose bin index reaches
    2**53, which raise ``range_error``.  ``v`` itself is never
    written to.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        return v
    lo, hi = v.min(), v.max()
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidInputError("values must be finite")
    if grid.domain is not None:
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


def _bins(grid: QuantGrid, v: np.ndarray, nearest: bool = False):
    """The grid kernel over clamped values ``v``.

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


def _center(grid: QuantGrid, n: np.ndarray) -> np.ndarray:
    """Center of each bin ``n``: the float array ``n`` becomes it."""
    n += 0.5
    n *= grid.q
    return n


def _nearest(grid: QuantGrid, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(int64 index, value) of the nearest boundary of each clamped value."""
    m = _bins(grid, v, nearest=True)[1].astype(np.int64)
    return m, _boundary(grid, m)


def _boundary(grid: QuantGrid, m: np.ndarray) -> np.ndarray:
    """Value of each int64 boundary index ``m``."""
    return m.astype(np.float64) * grid.q


def _inside(grid: QuantGrid, m: np.ndarray) -> np.ndarray:
    """Whether boundary ``m`` has a bin of the domain on both sides.

    Only such a boundary can be risky: values beyond a domain edge clamp
    onto it, so no drift carries a value across the edge.  Without a domain
    every boundary is inside.
    """
    if grid._edges is None:
        return np.True_
    lo, hi = grid._edges
    return (m > lo) & (m < hi)


def _first_bin(grid: QuantGrid) -> int:
    """Index of the lowest bin of a grid with a domain: bin ``n`` has place
    ``n - _first_bin(grid)`` among the domain's bins, counting from 0."""
    return grid._edges[0]


def quantize_array(grid: QuantGrid, v) -> np.ndarray:
    """Bin index of each value (int64 array)."""
    return _bins(grid, _checked(grid, v))[0].astype(np.int64, copy=False)


def dequantize_array(grid: QuantGrid, n) -> np.ndarray:
    """Bin center of each index (float64 array)."""
    return _center(grid, np.asarray(n, dtype=np.int64).astype(np.float64))


def round_index_array(grid: QuantGrid, v) -> tuple[np.ndarray, np.ndarray]:
    """(boundary index, boundary value) of the nearest boundary; ties go down.

    The index form is what decoders rely on: a perturbed value on the other
    side of the boundary still maps to the same index.
    """
    return _nearest(grid, _checked(grid, v))


# ---------------------------------------------------------------------------
# the hyperprior's scale table, the grid of every hyperprior stream
#
# It quantizes log sigma with the step of a geometric ladder of 64 scales
# from 0.11 to 256 (CompressAI's default scale table): 64 bins from
# boundary -18 to 46, sigma ~ 0.109 to 287.

_SCALE_STEP = (math.log(256.0) - math.log(0.11)) / 63


@functools.cache
def default_scale_table() -> QuantGrid:
    """The uniform grid on log sigma standing in for learned scale bins,
    built once."""
    return QuantGrid.uniform(
        _SCALE_STEP, domain=(-18 * _SCALE_STEP, 46 * _SCALE_STEP)
    )

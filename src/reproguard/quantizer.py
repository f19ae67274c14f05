"""Scalar quantization grids and boundary operators.

Every grid is uniform, of step ``q``: boundary ``i`` is ``i*q``, and bins
are half-open ``[i*q, (i+1)*q)``.  A grid's domain is optional; values
beyond it clamp onto it, and a value exactly on its top edge belongs to the
top bin.  All arithmetic is IEEE-754 double precision.  Operators work on
whole arrays.  The one fixed grid is the hyperprior's scale table,
:func:`default_scale_table`, a grid on log sigma.

Values are checked where they enter, by one blocked pass that works
through them a block at a time while the block is in cache.  Per block, a
min/max pair taken before any clamp finds non-finite values and, on a
grid without a domain, bin indices of magnitude 2**53 or more, which are
refused (a domain's edges are held to the same bound).  Below that bound
float64 holds every index exactly, so the operators work on indices as
floats, with the same bits as integer indices would give.  The same pass
clamps the block to the domain and gives each value's bin or bin center
and, given a margin epsilon, the candidates: the values whose v/q lies
within epsilon/q and a few ulps of an integer, the ulps of the block's
largest magnitude.
One function, :func:`_nearest`, gives the exact nearest boundary of a
batch of values: its index, its value, its signed distance and whether a
drift can carry a value across it (the domain-edge rule).  The guard's
encoder calls it on the candidates alone, its decoder on the flagged
values, and ``round_index_array`` on every value it is given.  Only
``Perturbation.perturb_array`` reads the domain edges elsewhere (it clamps
to them), and only ``_bins`` and ``_nearest`` are taken from here privately.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidInputError, _real

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
# integer exactly, so the operators keep indices as floats; an index beyond
# it would name some other bin.
_MAX_INDEX = 2.0**53

# Values per block of the one pass over the values in _bins: a block's work
# arrays stay in a core's cache across the pass's steps.
_BLOCK = 1 << 15


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
        q = _real("q", self.q)
        if q <= 0.0:
            raise ConfigError(f"step q must be > 0, got {q!r}")
        object.__setattr__(self, "q", q)
        if self.domain is None:
            return
        try:
            lo, hi = self.domain
        except (TypeError, ValueError):
            raise ConfigError(
                f"domain must be a (lo, hi) pair, got {self.domain!r}"
            ) from None
        lo, hi = _real("domain lo", lo), _real("domain hi", hi)
        object.__setattr__(self, "domain", (lo, hi))
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
        ``_bin_widths`` still reads it, and ROADMAP item 23 deletes that
        reader."""
        return True


def validate(grid: QuantGrid, epsilon: float) -> float:
    """The checked epsilon, as a float; raises ConfigError when too tight.

    Safeguarding is only sound when every bin is wider than four times the
    worst-case cross-platform error.
    """
    epsilon = _real("epsilon", epsilon)
    if epsilon <= 0.0:
        raise ConfigError(f"epsilon must be > 0, got {epsilon!r}")
    if not grid.q > 4.0 * epsilon:
        raise ConfigError(
            f"grid step {grid.q!r} must exceed 4*epsilon = {4.0 * epsilon!r}"
        )
    return epsilon


# ---------------------------------------------------------------------------
# value entry, bins and boundary values
#
# Boundary index m names the boundary below bin m, so bin n spans boundary
# indices [n, n+1].  The lattice extends beyond any domain.


def _checked(
    grid: QuantGrid, v, range_error=InvalidInputError, out=None
) -> tuple[np.ndarray, float]:
    """``v`` as float64 and clamped to the grid's domain, with the largest
    magnitude among the clamped values (0 when there are none): the check
    values get where they enter an operator, a block at a time in _bins
    and once over the batch in _nearest.

    One min/max pair, taken before any clamp, finds non-finite values (NaN
    and inf propagate through it) and, on a grid without a domain, values
    whose bin index reaches 2**53, which raise ``range_error``.  ``v``
    itself is never written to: clamped values go to ``out``, or to a new
    array.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        return v, 0.0
    lo, hi = float(v.min()), float(v.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidInputError("values must be finite")
    if grid.domain is not None:
        d_lo, d_hi = grid.domain
        if lo < d_lo or hi > d_hi:
            v = np.maximum(v, d_lo, out=np.empty_like(v) if out is None else out)
            np.minimum(v, d_hi, out=v)
        lo, hi = min(max(lo, d_lo), d_hi), min(max(hi, d_lo), d_hi)
    # floor(t) stays within 2**53 exactly when t does: from 2**52 on every
    # double is an integer
    elif not (-_MAX_INDEX < lo / grid.q and hi / grid.q < _MAX_INDEX):
        raise range_error(
            f"values in [{lo!r}, {hi!r}] reach a bin index of step "
            f"{grid.q!r} beyond 2**53"
        )
    return v, max(-lo, hi)


def _bins(
    grid: QuantGrid,
    v,
    near: float | None = None,
    range_error=InvalidInputError,
    center: bool = False,
):
    """The bin of each value ``v``, clamped to the domain's bins: its index
    as float64 (exact below 2**53), or with ``center`` its center.

    Returns ``(n, cand)``.  With a margin ``near`` (epsilon), ``cand`` holds
    the flat positions, ascending, of the *candidates*: a superset of the
    values whose nearest boundary by :func:`_nearest` lies closer than
    ``epsilon``.  Without it ``cand`` is None.  One pass over the values, a
    block at a time while it is in cache, checks and clamps them as
    :func:`_checked` does and gives both.
    """
    q = grid.q
    v = np.asarray(v, dtype=np.float64)
    flat = v.reshape(-1)
    n = np.empty(flat.size)
    cand = None
    if near is not None:
        r = np.empty(min(flat.size, _BLOCK))
        low, high = np.empty(r.size, dtype=bool), np.empty(r.size, dtype=bool)
        cand = [np.empty(0, dtype=np.intp)]
    for i in range(0, flat.size, _BLOCK):
        nb = n[i : i + _BLOCK]
        vb, top = _checked(grid, flat[i : i + _BLOCK], range_error, out=nb)
        if near is None:
            np.divide(vb, q, out=nb)
            np.floor(nb, out=nb)
        else:
            # A candidate has t = v/q within thr of an integer: r = t -
            # floor(t), exact in floating point, has r < thr or r > 1 - thr.
            # Forward error, with u = 2**-53 and T = max(top/q, 1) >= |t|
            # over the block (the division is monotone): _nearest's |s| =
            # |fl(fl(m*q) - v)| < epsilon gives |m*q - v| < epsilon/(1-u) +
            # |m*q|*u, and with |m*q| <= |v| + |m*q - v|, |m - v/q| <
            # (epsilon/q)*(1+3u) + |v/q|*u*(1+2u).  As |t - v/q| <= |v/q|*u,
            # |v/q| <= T*(1+2u) and epsilon/q < 1/4 (see validate), the
            # distance of t to the integer m is below epsilon/q + 3*T*u.
            # The slack 16*T*u, less the roundings of epsilon/q and of the
            # sum (under u/4 + u/4 + 16*T*u*u) and of 1 - thr (under u/2),
            # keeps both tests more than 10*T*u wide of that, so every value
            # with |s| < epsilon is a candidate.  From T = 2**48 thr passes
            # 1/2 and every value of the block is a candidate.
            thr = near / q + 8.0 * 2.0**-52 * max(top / q, 1.0)
            k = nb.size
            rb, lb, hb = r[:k], low[:k], high[:k]
            np.divide(vb, q, out=rb)
            np.floor(rb, out=nb)
            rb -= nb
            np.less(rb, thr, out=lb)
            np.greater(rb, 1.0 - thr, out=hb)
            lb |= hb
            at = np.flatnonzero(lb)
            if at.size:
                at += i
                cand.append(at)
        if grid._edges is not None:
            np.maximum(nb, grid._edges[0], out=nb)
            np.minimum(nb, grid._edges[1] - 1, out=nb)
        if center:
            nb += 0.5
            nb *= q
    if cand is not None:
        cand = np.concatenate(cand)
    return n.reshape(v.shape), cand


def _nearest(grid: QuantGrid, v):
    """The exact nearest boundary of each value ``v``, checked and clamped
    as by :func:`_checked`.

    Returns ``(m, bv, s, inside)``, each of ``v``'s shape: the int64 index
    of the nearest boundary (ties go down), its value ``bv``, the signed
    distance ``s = bv - v`` of the clamped value, and the domain-edge rule,
    whether the boundary has a bin of the domain on both sides.  Only such
    a boundary can be risky: values beyond a domain edge clamp onto it, so
    no drift carries a value across the edge.  Without a domain, or
    without values, ``inside`` is ``np.True_``.  Boundary values and
    distances have the same bits as integer indices would give.  The steps
    work on a flat view of the values and write in place.
    """
    q = grid.q
    v = np.asarray(v, dtype=np.float64)
    if not v.size:
        return np.empty(v.shape, dtype=np.int64), v, v, np.True_
    vc = _checked(grid, v.reshape(-1))[0]
    # floor index n with a one-ulp repair: the division may round across
    # the boundary, and b_n <= v need not hold after it either
    n = np.divide(vc, q)
    np.floor(n, out=n)
    bv = np.multiply(n, q)
    n -= bv > vc  # nq > v
    np.add(n, 1.0, out=bv)
    bv *= q
    n += bv <= vc  # (n + 1)q <= v
    # nearest boundary, ties going down: v - b_n against b_{n+1} - v
    s = np.add(n, 1.0)
    s *= q
    s -= vc
    np.multiply(n, q, out=bv)
    np.subtract(vc, bv, out=bv)
    n += bv > s
    # b_m, written as for any boundary index, and its signed distance
    np.multiply(n, q, out=bv)
    np.subtract(bv, vc, out=s)
    m = n.astype(np.int64).reshape(v.shape)
    inside = np.True_
    if grid._edges is not None:
        lo, hi = grid._edges
        inside = (m > lo) & (m < hi)
    return m, bv.reshape(v.shape), s.reshape(v.shape), inside


def quantize_array(grid: QuantGrid, v) -> np.ndarray:
    """Bin index of each value (int64 array)."""
    return _bins(grid, v)[0].astype(np.int64, copy=False)


def dequantize_array(grid: QuantGrid, n) -> np.ndarray:
    """Bin center of each index (float64 array)."""
    c = np.asarray(n, dtype=np.int64).astype(np.float64)
    c += 0.5
    c *= grid.q
    return c


def round_index_array(grid: QuantGrid, v) -> tuple[np.ndarray, np.ndarray]:
    """(boundary index, boundary value) of the nearest boundary; ties go down.

    The index form is what decoders rely on: a perturbed value on the other
    side of the boundary still maps to the same index.
    """
    return _nearest(grid, v)[:2]


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

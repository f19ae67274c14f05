"""Deterministic simulation of cross-platform numerical mismatch.

Perturbations are counter-based: draw ``i`` depends only on (seed,
counter+i), so a sequence is reproducible no matter how calls are batched.
A perturbation therefore draws its stream a block ahead and serves small
calls from that block, and its output is the same for any batching.
The adversarial distribution shifts every value straight toward its nearest
grid boundary, crossing it whenever the error budget allows, which is the
worst case for an unprotected codec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import ConfigError, InvalidInputError
from .quantizer import QuantGrid, round_index_array

__all__ = [
    "splitmix64_array",
    "unit_from_u64",
    "unit_hash_inplace",
    "unit_draws",
    "Perturbation",
    "PRESETS",
    "preset",
]

_M64 = 0xFFFFFFFFFFFFFFFF
_SPAN = 1 << 64  # draws per stream: a draw's index is a 64-bit word
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = (np.uint64(s) for s in (11, 27, 30, 31))
_UNIT = 2.0 ** -53

# Array operations wrap mod 2**64 without a warning (only numpy's scalar
# operators warn), so each step below writes into an array, 0-d ones too.


def _splitmix64(z: np.ndarray, t: np.ndarray) -> None:
    """splitmix64's finalization of each state in ``z``, in place, with
    ``t`` (same shape and dtype) as scratch."""
    z += _GOLDEN
    np.right_shift(z, _S30, out=t)
    z ^= t
    z *= _MIX1
    np.right_shift(z, _S27, out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, _S31, out=t)
    z ^= t


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """One splitmix64 finalization of each 64-bit state; ``x`` is not
    written."""
    z = np.array(x, dtype=np.uint64)  # a copy, and an array even when 0-d
    _splitmix64(z, np.empty_like(z))
    return z if z.ndim else z[()]  # a scalar for 0-d input, as numpy gives


def unit_from_u64(z: np.ndarray) -> np.ndarray:
    """Map 64-bit words to doubles in [0, 1) using the top 53 bits."""
    return (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def unit_hash_inplace(z: np.ndarray) -> np.ndarray:
    """``unit_from_u64(splitmix64_array(z))`` for a uint64 array ``z`` the
    caller owns: ``z`` is the workspace and is overwritten, and the draws
    land in the mix's scratch array."""
    t = np.empty_like(z)
    _splitmix64(z, t)
    z >>= _S11
    return np.multiply(z, _UNIT, out=t.view(np.float64))


def unit_draws(base: int, start: int, n: int) -> np.ndarray:
    """Draws ``start`` to ``start + n - 1`` of the stream at ``base``: draw
    ``i`` is ``splitmix64(base + i * golden)`` mod 2**64, mapped to [0, 1).
    A stream has 2**64 draws, so the range must lie in [0, 2**64)."""
    if not (isinstance(start, Integral) and isinstance(n, Integral)):
        raise InvalidInputError(f"draw positions must be integers, got {start!r}, {n!r}")
    start, n = int(start), int(n)
    if start < 0 or n < 0 or start + n > _SPAN:
        raise InvalidInputError(
            f"draws {start} to {start + n - 1} lie outside the stream's [0, 2**64)"
        )
    z = np.arange(start, start + n, dtype=np.uint64)
    z *= _GOLDEN
    z += np.uint64(base & _M64)
    return unit_hash_inplace(z)


_DISTS = ("none", "uniform", "adversarial")

# worst observed reconstruction errors for the supported platform pairs
PRESETS = {
    "pcc-gpu": 5e-7,
    "image-gpu": 8e-6,
}


# Draws a perturbation holds ahead.  The octree decoder perturbs once per
# octant pass, and most passes hold a few hundred values or fewer, so one
# hash call over a block serves many of them.  2048 draws are 16 KiB, and a
# redraw's mix scratch as much again, so a small call stays under 64 KiB;
# 4096 and 8192 timed the same on small-streams' decode.  A call of at least
# a block draws exactly its own size.
_BLOCK = 2048


@dataclass
class Perturbation:
    """Stateful injector; ``counter`` advances once per perturbed value."""

    e_max: float
    dist: str = "uniform"
    seed: int = 0
    counter: int = field(default=0)
    # (seed, first counter, draws): the block ``_draws`` serves calls from
    _ahead: tuple = field(
        default=(None, 0, np.empty(0)), init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not (math.isfinite(self.e_max) and self.e_max >= 0.0):
            raise ConfigError(f"e_max must be finite and >= 0, got {self.e_max!r}")
        if self.dist not in _DISTS:
            raise ConfigError(f"dist must be one of {_DISTS}, got {self.dist!r}")
        if not isinstance(self.seed, Integral):
            raise ConfigError(f"seed must be an integer, got {self.seed!r}")
        if not (isinstance(self.counter, Integral) and self.counter >= 0):
            raise ConfigError(
                f"counter must be a non-negative integer, got {self.counter!r}"
            )
        self.seed = int(self.seed) & _M64
        self.counter = int(self.counter)

    def _draws(self, n: int) -> np.ndarray:
        """Draws ``counter`` to ``counter + n - 1`` of the stream at ``seed``,
        as a view of the look-ahead block, which the caller must not write.
        A block that does not cover them is replaced by ``max(n, _BLOCK)``
        draws from ``counter``, never past the stream's last draw; a draw
        depends on (seed, index) alone, so which block serves a call changes
        no value."""
        seed, start, block = self._ahead
        at = self.counter - start
        if seed != self.seed or at < 0 or at + n > block.shape[0]:
            size = max(n, min(_BLOCK, _SPAN - self.counter))
            block = unit_draws(self.seed, self.counter, size)
            self._ahead = (self.seed, self.counter, block)
            at = 0
        return block[at : at + n]

    def perturb_array(self, v, grid: QuantGrid) -> np.ndarray:
        """``v`` perturbed, in any shape: value ``i`` of its flat order
        takes draw ``counter + i``, as in a 1-D call."""
        v = np.asarray(v, dtype=np.float64)
        if not np.isfinite(v).all():  # the method skips np.all's Python wrapper
            raise InvalidInputError("values must be finite")
        if self.dist == "none" or self.e_max == 0.0:
            out = v.copy()
        elif self.dist == "uniform":
            # v + (2u - 1) * e_max, its one array made by the first step
            out = np.multiply(self._draws(v.size), 2.0).reshape(v.shape)
            out -= 1.0
            out *= self.e_max
            out += v
        else:  # adversarial: full-budget shift toward the nearest boundary
            _, bv = round_index_array(grid, v)
            shift = np.where(bv >= v, self.e_max, -self.e_max)
            out = np.add(v, shift, out=np.empty_like(v))
        self.counter += v.size
        if grid.domain is not None:
            lo, hi = grid.domain
            np.maximum(out, lo, out=out)
            np.minimum(out, hi, out=out)
        return out


def preset(name: str, dist: str = "uniform", seed: int = 0) -> Perturbation:
    try:
        e_max = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None
    return Perturbation(e_max=e_max, dist=dist, seed=seed)

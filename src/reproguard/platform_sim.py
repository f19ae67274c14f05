"""Deterministic simulation of cross-platform numerical mismatch.

Perturbations are counter-based: draw ``i`` depends only on (seed,
counter+i), so a sequence is reproducible no matter how calls are batched.
The adversarial distribution shifts every value straight toward its nearest
grid boundary, crossing it whenever the error budget allows, which is the
worst case for an unprotected codec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidInputError
from .quantizer import QuantGrid, round_index_array

__all__ = [
    "splitmix64_array",
    "unit_from_u64",
    "Perturbation",
    "PRESETS",
    "preset",
]

_M64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64_array(x: np.ndarray) -> np.ndarray:
    """One splitmix64 finalization of each 64-bit state."""
    with np.errstate(over="ignore"):
        z = np.add(x, np.uint64(_GOLDEN), dtype=np.uint64)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        return z


def unit_from_u64(z: np.ndarray) -> np.ndarray:
    """Map 64-bit words to doubles in [0, 1) using the top 53 bits."""
    return (z >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


_DISTS = ("none", "uniform", "adversarial")

# worst observed reconstruction errors for the supported platform pairs
PRESETS = {
    "pcc-gpu": 5e-7,
    "image-gpu": 8e-6,
}


@dataclass
class Perturbation:
    """Stateful injector; ``counter`` advances once per perturbed value."""

    e_max: float
    dist: str = "uniform"
    seed: int = 0
    counter: int = field(default=0)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.e_max) and self.e_max >= 0.0):
            raise ConfigError(f"e_max must be finite and >= 0, got {self.e_max!r}")
        if self.dist not in _DISTS:
            raise ConfigError(f"dist must be one of {_DISTS}, got {self.dist!r}")
        self.seed = int(self.seed) & _M64
        self.counter = int(self.counter)

    def _draw_units(self, n: int) -> np.ndarray:
        with np.errstate(over="ignore"):
            idx = np.arange(self.counter, self.counter + n, dtype=np.uint64)
            state = np.uint64(self.seed) + idx * np.uint64(_GOLDEN)
        return unit_from_u64(splitmix64_array(state))

    def perturb_array(self, v, grid: QuantGrid) -> np.ndarray:
        """``v`` perturbed, in any shape: value ``i`` of its flat order
        takes draw ``counter + i``, as in a 1-D call."""
        v = np.asarray(v, dtype=np.float64)
        if not np.all(np.isfinite(v)):
            raise InvalidInputError("values must be finite")
        if self.dist == "none" or self.e_max == 0.0:
            out = v.copy()
        elif self.dist == "uniform":
            u = self._draw_units(v.size).reshape(v.shape)
            out = v + (2.0 * u - 1.0) * self.e_max
        else:  # adversarial: full-budget shift toward the nearest boundary
            _, bv = round_index_array(grid, v)
            out = v + np.where(bv >= v, self.e_max, -self.e_max)
        self.counter += v.size
        if grid.domain is not None:
            lo, hi = grid.domain
            out = np.minimum(np.maximum(out, lo), hi)
        return np.asarray(out)  # numpy gives 0-d results as scalars


def preset(name: str, dist: str = "uniform", seed: int = 0) -> Perturbation:
    try:
        e_max = PRESETS[name]
    except KeyError:
        raise ConfigError(
            f"unknown preset {name!r}; available: {sorted(PRESETS)}"
        ) from None
    return Perturbation(e_max=e_max, dist=dist, seed=seed)

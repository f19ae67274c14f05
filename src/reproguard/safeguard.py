"""Safeguarded quantization of coder-critical values.

A value that lands within ``epsilon`` of a bin boundary is *risky*: an
error-bounded recomputation on another platform may fall on the other side
and derail entropy decoding.  The encoder emits a risky flag per value (plus
a direction flag in FULL mode) so the decoder reproduces the encoder's
protected value bit-exactly from its own perturbed copy, provided the
perturbation stays under ``epsilon`` and every bin is wider than
``4 * epsilon``.

Encoder and decoder derive the protected value through the same shared
helpers, so equality of the chosen boundary index implies equality of the
output doubles.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InvalidInputError
from .quantizer import (
    QuantGrid,
    _clamp_domain_array,
    boundary_value_array,
    dequantize_array,
    gap_above_array,
    gap_below_array,
    quantize_array,
    round_index_array,
    validate,
)

__all__ = [
    "GuardMode",
    "GuardConfig",
    "FlagStream",
    "guard_encode_array",
    "guard_decode_array",
]


class GuardMode(enum.IntEnum):
    """Wire values; FULL carries a direction flag, the rest are one-sided."""

    FULL = 0
    LEFT = 1
    RIGHT = 2
    CENTER = 3


_MODE_NAMES = {
    "full": GuardMode.FULL,
    "left": GuardMode.LEFT,
    "right": GuardMode.RIGHT,
    "center": GuardMode.CENTER,
}


def parse_mode(name: str | int | GuardMode) -> GuardMode:
    if isinstance(name, GuardMode):
        return name
    if isinstance(name, int):
        try:
            return GuardMode(name)
        except ValueError:
            raise ConfigError(f"unknown guard mode {name!r}") from None
    try:
        return _MODE_NAMES[name.lower()]
    except (KeyError, AttributeError):
        raise ConfigError(f"unknown guard mode {name!r}") from None


@dataclass(frozen=True)
class GuardConfig:
    """Grid, margin and mode; values are clipped to the grid's domain."""

    grid: QuantGrid
    epsilon: float
    mode: GuardMode = GuardMode.FULL

    def __post_init__(self) -> None:
        validate(self.grid, self.epsilon)
        object.__setattr__(self, "mode", parse_mode(self.mode))

    @property
    def edge_clip(self) -> tuple[float, float] | None:
        """The range values are clipped to: the grid's domain, if any."""
        return self.grid.domain


def _edge_zone(cfg: GuardConfig, v: np.ndarray) -> np.ndarray:
    """Values within epsilon of a domain edge are forced onto the safe path."""
    if cfg.grid.domain is None:
        return np.zeros(v.shape, dtype=bool)
    lo, hi = cfg.grid.domain
    return (v <= lo + cfg.epsilon) | (v >= hi - cfg.epsilon)


def _shift_vout(grid: QuantGrid, m: np.ndarray, go_left: np.ndarray) -> np.ndarray:
    """Center of the bin on the chosen side of boundary ``m``.

    Shared by encoder and decoder: identical expressions keep the outputs
    bit-identical once the boundary indices agree.
    """
    bv = boundary_value_array(grid, m)
    out = np.empty_like(bv)
    if np.any(go_left):
        out[go_left] = bv[go_left] - gap_below_array(grid, m[go_left]) * 0.5
    keep_right = ~go_left
    if np.any(keep_right):
        out[keep_right] = bv[keep_right] + gap_above_array(grid, m[keep_right]) * 0.5
    return out


def guard_encode_array(
    cfg: GuardConfig, v
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Protect a batch of values.

    Returns ``(v_out, f_r, f_d)`` where ``f_d`` is int8 and -1 wherever no
    direction flag applies (non-FULL modes, or safe values).
    """
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("values must be finite")
    v = _clamp_domain_array(cfg.grid, v)

    m, bv = round_index_array(cfg.grid, v)
    dist = np.abs(bv - v)
    risky = (dist < cfg.epsilon) & ~_edge_zone(cfg, v)

    v_out = dequantize_array(cfg.grid, quantize_array(cfg.grid, v))
    f_r = risky.astype(np.uint8)
    f_d = np.full(v.shape, -1, dtype=np.int8)

    if np.any(risky):
        mr = m[risky]
        if cfg.mode == GuardMode.FULL:
            # risky value strictly below its boundary means the boundary is
            # its ceiling, i.e. the nearer bin center lies to the left
            go_left = bv[risky] > v[risky]
            f_d[risky] = np.where(go_left, 0, 1).astype(np.int8)
            v_out[risky] = _shift_vout(cfg.grid, mr, go_left)
        elif cfg.mode == GuardMode.LEFT:
            v_out[risky] = _shift_vout(cfg.grid, mr, np.ones(mr.shape, dtype=bool))
        elif cfg.mode == GuardMode.RIGHT:
            v_out[risky] = _shift_vout(cfg.grid, mr, np.zeros(mr.shape, dtype=bool))
        else:  # CENTER: the boundary itself
            v_out[risky] = bv[risky]
    return v_out, f_r, f_d


def guard_decode_array(cfg: GuardConfig, v_prime, f_r, f_d=None) -> np.ndarray:
    """Reproduce the encoder's protected values from perturbed copies."""
    vp = np.asarray(v_prime, dtype=np.float64)
    if not np.all(np.isfinite(vp)):
        raise InvalidInputError("values must be finite")
    f_r = np.asarray(f_r)
    if f_r.shape != vp.shape:
        raise InvalidInputError("flag array shape mismatch")
    vp = _clamp_domain_array(cfg.grid, vp)

    v_out = dequantize_array(cfg.grid, quantize_array(cfg.grid, vp))
    risky = f_r != 0
    if not np.any(risky):
        return v_out

    m, bv = round_index_array(cfg.grid, vp[risky])
    if cfg.mode == GuardMode.FULL:
        if f_d is None:
            raise InvalidInputError("FULL mode needs direction flags")
        fd = np.asarray(f_d)[risky]
        if np.any(fd < 0):
            raise InvalidInputError("missing direction flag on a risky value")
        v_out[risky] = _shift_vout(cfg.grid, m, fd == 0)
    elif cfg.mode == GuardMode.LEFT:
        v_out[risky] = _shift_vout(cfg.grid, m, np.ones(m.shape, dtype=bool))
    elif cfg.mode == GuardMode.RIGHT:
        v_out[risky] = _shift_vout(cfg.grid, m, np.zeros(m.shape, dtype=bool))
    else:
        v_out[risky] = bv
    return v_out


# ---------------------------------------------------------------------------
# flag bookkeeping


@dataclass(frozen=True)
class FlagStream:
    """Ordered risky/direction flags plus the zero-rate used to code them.

    ``f_d`` holds -1 wherever no direction flag exists.  ``p0_q16`` is the
    only probability either side of the wire ever sees.
    """

    f_r: np.ndarray
    f_d: np.ndarray
    p0: float
    p0_q16: int

    def __len__(self) -> int:
        return int(self.f_r.shape[0])

    @classmethod
    def from_arrays(cls, f_r, f_d=None) -> "FlagStream":
        fr = np.asarray(f_r, dtype=np.uint8)
        if f_d is None:
            fd = np.full(fr.shape, -1, dtype=np.int8)
        else:
            fd = np.asarray(f_d, dtype=np.int8)
            if fd.shape != fr.shape:
                raise InvalidInputError("flag array shape mismatch")
        n = int(fr.shape[0])
        if n == 0:
            return cls(fr, fd, 0.5, 32768)
        p0 = float(np.count_nonzero(fr == 0)) / n
        p0_q16 = int(min(max(math.floor(p0 * 65536.0 + 0.5), 1), 65535))
        return cls(fr, fd, p0, p0_q16)


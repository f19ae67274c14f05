"""Safeguarded quantization of coder-critical values.

A value that lands within ``epsilon`` of a bin boundary is *risky*: an
error-bounded recomputation on another platform may fall on the other side
and derail entropy decoding.  The encoder emits a risky flag per value, and
in FULL mode one direction bit per risky value, so the decoder reproduces
the encoder's protected value bit-exactly from its own perturbed copy,
provided the perturbation stays under ``epsilon`` and every bin is wider
than ``4 * epsilon``.  CENTER protects a risky value to its boundary, FULL
to the nearer bin center, which its direction bit names.  The flag and
direction arrays go to ``entropy.encode_flags`` as they are.

Encoder and decoder derive the protected value through one shared rule,
so equality of the chosen boundary index implies equality of the output
doubles.  Two private ``quantizer`` functions carry the grid's side of it.
``_bins`` is one blocked pass over the values that checks them and gives
every bin center; the encoder's pass also picks the candidates, the values
near a boundary, a small share of them (about 2*epsilon/q).  ``_nearest``
gives the exact nearest boundary, its value, its signed distance and the
domain-edge rule, in one call on the encoder's candidates or on the
decoder's flagged values.  The decoder takes the flat positions of the
risky flags, strictly ascending, as ``FlagReader.take`` hands them out:
past the one pass it touches the flagged values alone, and builds no
per-value flag mask.  Protected values are built for the risky values
alone.  A boundary on a domain edge is never risky, since values beyond it
clamp onto it; a stream with a risky flag there is malformed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FieldValueError, InvalidInputError
from .quantizer import QuantGrid, _bins, _nearest, validate

__all__ = [
    "GuardMode",
    "GuardConfig",
    "guard_encode_array",
    "guard_decode_array",
]


class GuardMode(enum.IntEnum):
    """Wire values; FULL carries a direction bit per risky value, CENTER none."""

    FULL = 0
    CENTER = 3


@dataclass(frozen=True)
class GuardConfig:
    """Grid, margin and mode; values are clipped to the grid's domain."""

    grid: QuantGrid
    epsilon: float
    mode: GuardMode = GuardMode.CENTER

    def __post_init__(self) -> None:
        validate(self.grid, self.epsilon)
        if not isinstance(self.mode, GuardMode):
            raise ConfigError(f"guard mode {self.mode!r} is not a GuardMode")


def _protected(
    cfg: GuardConfig, bv: np.ndarray, left: np.ndarray | None
) -> np.ndarray:
    """The protected value of risky values nearest the boundaries at ``bv``.

    CENTER gives the boundary; FULL gives the center of the bin below it
    where ``left`` holds, and of the bin above it elsewhere.  Encoder and
    decoder both call this, so once the boundary indices agree the outputs
    are bit-identical.
    """
    if cfg.mode == GuardMode.CENTER:
        return bv
    half = cfg.grid.q * 0.5
    return np.where(left, bv - half, bv + half)


def guard_encode_array(
    cfg: GuardConfig, v
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Protect a batch of values.

    Returns ``(v_out, f_r, f_d)``: ``f_r`` is the uint8 risky flag of each
    value, and ``f_d`` the uint8 direction bit of each risky value in flag
    order (1 where it went right), empty in CENTER mode.  One pass over the
    values gives every bin center and the candidates, the values near a
    boundary; one ``_nearest`` call then gives the nearest boundary and its
    signed distance of the candidates alone, and protected values are built
    for the risky values only.
    """
    grid = cfg.grid
    v = np.asarray(v, dtype=np.float64)
    v_out, cand = _bins(grid, v, near=cfg.epsilon, center=True)
    f_r = np.zeros(v.shape, dtype=np.uint8)
    f_d = np.empty(0, dtype=np.uint8)

    _, bv, s, inside = _nearest(grid, v.reshape(-1)[cand])
    risky = np.abs(s) < cfg.epsilon
    risky &= inside
    if np.any(risky):
        at = cand[risky]
        # a risky value strictly below its boundary, s > 0, has the nearer
        # bin center on its left
        go_left = s[risky] > 0
        if cfg.mode == GuardMode.FULL:
            f_d = (~go_left).view(np.uint8)
        v_out.reshape(-1)[at] = _protected(cfg, bv[risky], go_left)
        f_r.reshape(-1)[at] = 1
    return v_out, f_r, f_d


def guard_decode_array(cfg: GuardConfig, v_prime, at, f_d=()) -> np.ndarray:
    """Reproduce the encoder's protected values from perturbed copies.

    ``at`` holds the flat positions of the risky flags, strictly ascending,
    as ``FlagReader.take`` hands them out; anything else, such as the
    encoder's dense flag array, raises InvalidInputError.  In FULL mode
    ``f_d`` holds one direction bit per risky flag, in flag order; a length
    other than the risky count raises InvalidInputError.  A risky flag on a
    domain edge, or a value whose bin index reaches 2**53, raises
    FieldValueError.  Past the one pass that gives every bin center, work
    touches the flagged values alone.
    """
    grid = cfg.grid
    v = np.asarray(v_prime, dtype=np.float64)
    if not (isinstance(at, np.ndarray) and at.ndim == 1 and at.dtype.kind == "i"):
        raise InvalidInputError("risky positions must be a 1-d signed-integer array")
    if at.size and not (0 <= at[0] and at[-1] < v.size and np.all(at[1:] > at[:-1])):
        raise InvalidInputError("risky positions must ascend strictly in [0, v.size)")
    v_out = _bins(grid, v, range_error=FieldValueError, center=True)[0]
    if not at.size:
        return v_out

    _, bv, _, inside = _nearest(grid, v.reshape(-1)[at])
    if not np.all(inside):
        raise FieldValueError("risky flag on a domain edge, where no encoder sets one")
    left = None
    if cfg.mode == GuardMode.FULL:
        fd = np.asarray(f_d)
        if fd.shape != at.shape:
            raise InvalidInputError("FULL mode needs one direction bit per risky flag")
        left = fd == 0
    v_out.reshape(-1)[at] = _protected(cfg, bv, left)
    return v_out

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
doubles.  Both sides get bin centers from one blocked pass over the values
in ``quantizer``, which also checks them; the encoder's pass also picks the
candidates, the values near a boundary, and the grid's exact kernel gives
nearest boundaries and their distances of those alone, a small share of
them (about 2*epsilon/q).  The decoder works from the positions of the
risky flags, as ``FlagReader.take`` hands them out: past the one pass it
touches the flagged values alone, and builds no per-value flag mask.
Boundary indices, boundary values and protected values are built for the
risky values alone.  A boundary on a domain edge is never risky, since
values beyond it clamp onto it; a stream with a risky flag there is
malformed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FieldValueError, InvalidInputError
from .quantizer import (
    QuantGrid,
    _bins,
    _boundary,
    _checked,
    _inside,
    _kernel,
    _nearest,
    validate,
)

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


def parse_mode(name: str | GuardMode) -> GuardMode:
    if isinstance(name, GuardMode):
        return name
    try:
        return GuardMode[name.upper()]
    except (KeyError, AttributeError):
        raise ConfigError(f"unknown guard mode {name!r}") from None


@dataclass(frozen=True)
class GuardConfig:
    """Grid, margin and mode; values are clipped to the grid's domain."""

    grid: QuantGrid
    epsilon: float
    mode: GuardMode = GuardMode.CENTER

    def __post_init__(self) -> None:
        validate(self.grid, self.epsilon)
        object.__setattr__(self, "mode", parse_mode(self.mode))


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
    boundary; the grid's exact kernel then gives the nearest boundary and
    its distance of the candidates alone, and boundary values and
    protected values are built for the risky values only.
    """
    grid = cfg.grid
    v = np.asarray(v, dtype=np.float64)
    v_out, cand = _bins(grid, v, near=cfg.epsilon, center=True)
    f_r = np.zeros(v.shape, dtype=np.uint8)
    f_d = np.empty(0, dtype=np.uint8)

    vc = _checked(grid, v.reshape(-1)[cand])[0]
    m, d = _kernel(grid, vc)
    risky = d < cfg.epsilon
    risky &= _inside(grid, m)
    if np.any(risky):
        at = cand[risky]
        m = m[risky].astype(np.int64)
        bv = _boundary(grid, m)
        # a risky value strictly below its boundary has the nearer bin
        # center on its left
        go_left = bv > vc[risky]
        if cfg.mode == GuardMode.FULL:
            f_d = (~go_left).view(np.uint8)
        v_out.reshape(-1)[at] = _protected(cfg, bv, go_left)
        f_r.reshape(-1)[at] = 1
    return v_out, f_r, f_d


def guard_decode_array(cfg: GuardConfig, v_prime, f_r, f_d=()) -> np.ndarray:
    """Reproduce the encoder's protected values from perturbed copies.

    In FULL mode ``f_d`` holds one direction bit per risky flag, in flag
    order; a length other than the risky count raises InvalidInputError.  A
    risky flag on a domain edge, or a value whose bin index reaches 2**53,
    raises FieldValueError."""
    v = np.asarray(v_prime, dtype=np.float64)
    f_r = np.asarray(f_r)
    if f_r.shape != v.shape:
        raise InvalidInputError("flag array shape mismatch")
    return _guard_decode(cfg, v, np.flatnonzero(f_r), f_d)


def _guard_decode(cfg: GuardConfig, v_prime, at: np.ndarray, f_d=()) -> np.ndarray:
    """:func:`guard_decode_array` given ``at``, the flat positions, ascending,
    of the risky flags, as ``FlagReader.take`` hands them out.

    Past the one pass that gives every bin center, work touches the flagged
    values alone.  The payload decoders bind this as ``guard_decode_array``,
    the name under which a per-layer trace times the guard's decode.
    """
    grid = cfg.grid
    v = np.asarray(v_prime, dtype=np.float64)
    v_out = _bins(grid, v, range_error=FieldValueError, center=True)[0]
    if not at.size:
        return v_out

    m, bv = _nearest(grid, _checked(grid, v.reshape(-1)[at], FieldValueError)[0])
    if not np.all(_inside(grid, m)):
        raise FieldValueError("risky flag on a domain edge, where no encoder sets one")
    left = None
    if cfg.mode == GuardMode.FULL:
        fd = np.asarray(f_d)
        if fd.shape != at.shape:
            raise InvalidInputError("FULL mode needs one direction bit per risky flag")
        left = fd == 0
    v_out.reshape(-1)[at] = _protected(cfg, bv, left)
    return v_out

"""Generic guarded-value payload.

The other payloads protect values that feed their own entropy coders.  This
one protects an arbitrary vector of critical values and ships the protected
copies verbatim: the main stream is the encoder's v_out as big-endian
doubles.  A decoder recomputes its own (possibly perturbed) copies, applies
the flags, and must land on the identical doubles.
"""

from __future__ import annotations

import sys

import numpy as np

from .container import (
    GuardedStream,
    PayloadKind,
    RawHeader,
    check_grid,
    guarded_stream,
    open_stream,
)
from .entropy import encode_flags
from .errors import FieldValueError, InvalidInputError
from .safeguard import GuardConfig, guard_encode_array
from .safeguard import _guard_decode as guard_decode_array

__all__ = ["encode_values", "decode_values", "reference_values"]


def encode_values(values: np.ndarray, cfg: GuardConfig) -> GuardedStream:
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    header = RawHeader(value_count=v.shape[0], q=cfg.grid.q)
    check_grid(cfg.grid, header)
    v_out, fr, fd = guard_encode_array(cfg, v)
    # v_out is this encoder's own array: put it in big-endian order in
    # place, so that the bytes object is the only copy of it
    if sys.byteorder == "little":
        v_out.byteswap(inplace=True)
    safeguard = encode_flags(fr, fd, cfg.mode)
    return guarded_stream(cfg, len(fr), safeguard, header, v_out.tobytes())


def reference_values(stream: GuardedStream) -> np.ndarray:
    """The encoder's protected doubles, exactly as shipped."""
    if stream.payload_kind != PayloadKind.RAW:
        raise FieldValueError("not a raw-values stream")
    if len(stream.main) != 8 * stream.payload.value_count:
        raise FieldValueError("main stream length does not match the value count")
    return np.frombuffer(stream.main, dtype=">f8").astype(np.float64)


def decode_values(stream: GuardedStream, observed: np.ndarray) -> np.ndarray:
    """Apply the stream's flags to the decoder's recomputed values."""
    cfg, flags = open_stream(stream, PayloadKind.RAW)
    header: RawHeader = stream.payload
    if stream.flag_count != header.value_count:
        raise FieldValueError("flag count does not match the value count")
    v = np.asarray(observed, dtype=np.float64).reshape(-1)
    if v.shape[0] != header.value_count:
        raise InvalidInputError(
            f"expected {header.value_count} values, got {v.shape[0]}"
        )
    fr, fd = flags.take(v.shape[0])
    return guard_decode_array(cfg, v, fr, fd)

"""Generic guarded-value payload.

The other payloads protect values that feed their own entropy coders.  This
one protects an arbitrary vector of critical values and ships the protected
copies verbatim: the main stream is the encoder's v_out as big-endian
doubles.  A decoder recomputes its own (possibly perturbed) copies, applies
the flags, and must land on the identical doubles.
"""

from __future__ import annotations

import numpy as np

from .container import (
    GuardedStream,
    PayloadKind,
    RawHeader,
    config_for_stream,
    grid_desc_for,
)
from .entropy import FlagReader, encode_flags
from .errors import FieldValueError, InvalidInputError
from .safeguard import (
    FlagStream,
    GuardConfig,
    guard_decode_array,
    guard_encode_array,
)

__all__ = ["encode_values", "decode_values", "reference_values"]


def encode_values(
    values: np.ndarray, cfg: GuardConfig, table_id: int | None = None
) -> GuardedStream:
    v = np.asarray(values, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("values must be finite")
    grid_desc = grid_desc_for(cfg.grid, table_id)
    v_out, fr, fd = guard_encode_array(cfg, v)
    flags = FlagStream.from_arrays(fr, fd)
    return GuardedStream(
        mode=cfg.mode,
        payload_kind=PayloadKind.RAW,
        epsilon=cfg.epsilon,
        grid_desc=grid_desc,
        p0_q16=flags.p0_q16,
        flag_count=len(flags),
        payload=RawHeader(value_count=v.shape[0]),
        safeguard=encode_flags(flags, cfg.mode),
        main=v_out.astype(">f8").tobytes(),
    )


def reference_values(stream: GuardedStream) -> np.ndarray:
    """The encoder's protected doubles, exactly as shipped."""
    if stream.payload_kind != PayloadKind.RAW:
        raise FieldValueError("not a raw-values stream")
    if len(stream.main) != 8 * stream.payload.value_count:
        raise FieldValueError("main stream length does not match the value count")
    return np.frombuffer(stream.main, dtype=">f8").astype(np.float64)


def decode_values(stream: GuardedStream, observed: np.ndarray) -> np.ndarray:
    """Apply the stream's flags to the decoder's recomputed values."""
    if stream.payload_kind != PayloadKind.RAW:
        raise FieldValueError("not a raw-values stream")
    header: RawHeader = stream.payload
    v = np.asarray(observed, dtype=np.float64).reshape(-1)
    if v.shape[0] != header.value_count:
        raise InvalidInputError(
            f"expected {header.value_count} values, got {v.shape[0]}"
        )
    if stream.flag_count != header.value_count:
        raise FieldValueError("flag count does not match the value count")
    cfg = config_for_stream(stream)
    reader = FlagReader(stream.safeguard, stream.flag_count, stream.p0_q16, stream.mode)
    fr, fd = reader.take(v.shape[0])
    if not reader.exhausted:
        raise FieldValueError("flag stream longer than the value count")
    return guard_decode_array(cfg, v, fr, fd)

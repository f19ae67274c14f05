"""Serialized ``.rgd`` container: header, safeguard stream, main stream.

Everything is big-endian.  Each header layout is declared once, in the wire
table below, and ``write``, ``read`` and the field checks all work from it.
Each fact is stated once on the wire: the payload kind byte is the type of
the payload header, the payload kind fixes the grid (the octree and raw
headers carry its step, and the hyperprior's grid is the scale table on
log sigma), and the flag section's coding rate follows from the flag
count and the section itself.  Every payload header is one fixed-size
struct: the hyperprior's side information travels coded in its main
section, not in the header.
The parser is hardened: any byte buffer either parses or raises a subclass
of MalformedStreamError, it never reads past declared lengths, and accepted
buffers round-trip byte-identically through ``read`` then ``write``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import (
    BadMagicError,
    ConfigError,
    FieldValueError,
    InvalidInputError,
    TrailingDataError,
    TruncatedStreamError,
    UnsupportedVersionError,
    _real,
    _whole,
)
from .entropy import FlagReader
from .quantizer import QuantGrid, default_scale_table
from .safeguard import GuardConfig, GuardMode

__all__ = [
    "MAGIC",
    "VERSION",
    "PayloadKind",
    "OctreeHeader",
    "HyperpriorHeader",
    "RawHeader",
    "GuardedStream",
    "write",
    "read",
    "write_file",
    "read_file",
    "check_grid",
    "open_stream",
]

MAGIC = b"RGRD"
VERSION = 8


class PayloadKind:
    OCTREE = 0
    HYPERPRIOR = 1
    RAW = 2


@dataclass(frozen=True)
class OctreeHeader:
    bit_depth: int
    point_count: int
    q: float  # the step of the probability grid on [0, 1]


@dataclass(frozen=True)
class HyperpriorHeader:
    height: int
    width: int
    channels: int


@dataclass(frozen=True)
class RawHeader:
    value_count: int
    q: float  # the step of the values' grid, which has no domain


@dataclass(frozen=True)
class GuardedStream:
    mode: GuardMode
    epsilon: float
    flag_count: int
    payload: OctreeHeader | HyperpriorHeader | RawHeader
    safeguard: bytes
    main: bytes | memoryview  # ``read`` gives a read-only view of its input

    @property
    def payload_kind(self) -> int | None:
        """The payload kind byte: the one the payload header's type has."""
        return _KINDS.get(type(self.payload))


_MAX_DEPTH = 21  # an octree's bit depth is in [1, _MAX_DEPTH]
_POOL = 4  # a latent grid's height and width per z value


def _check_depth(bit_depth: int, error: type[Exception] = ConfigError) -> int:
    """The one bit-depth rule; run it before any ``1 << bit_depth``."""
    return _whole("bit depth", bit_depth, 1, _MAX_DEPTH, error=error)


def _check_latent_dims(h: int, w: int, c: int, error: type[Exception]) -> None:
    """The one latent-grid rule: the dims that size y (and z, pooled) are
    whole numbers >= 1, with height and width multiples of the pool."""
    for name, d in (("height", h), ("width", w), ("channels", c)):
        _whole(f"latent {name}", d, 1, error=error)
    if h % _POOL or w % _POOL:
        raise error(f"latent height and width must be multiples of {_POOL}")


# The wire table.  A stream is _HEAD (magic, version, mode, payload kind,
# epsilon), _COUNTS (flag_count, safeguard and main lengths), the payload
# header of the kind's frame, then the safeguard and main sections.
_HEAD = ">4sBBBd"
_COUNTS = ">III"
_MODES = frozenset(GuardMode)  # the mode byte's values

_UNIT = (0.0, 1.0)  # the probability domain every octree grid clips to


class _Frame(NamedTuple):
    header: type  # the payload header type; its fields in order are ...
    layout: str  # ... this struct format's
    grid: Callable[..., QuantGrid]  # the guard's grid, from the header alone


_FRAMES = {
    PayloadKind.OCTREE: _Frame(
        OctreeHeader, ">BQd", lambda h: QuantGrid.uniform(h.q, domain=_UNIT)
    ),
    PayloadKind.HYPERPRIOR: _Frame(
        HyperpriorHeader, ">III", lambda h: default_scale_table()
    ),
    PayloadKind.RAW: _Frame(RawHeader, ">Qd", lambda h: QuantGrid.uniform(h.q)),
}
_KINDS = {frame.header: kind for kind, frame in _FRAMES.items()}


def check_grid(
    grid: QuantGrid, header: OctreeHeader | HyperpriorHeader | RawHeader
) -> None:
    """Raise ConfigError unless ``header`` rebuilds exactly ``grid``, as a
    decoder does from the stream alone."""
    rebuild = _FRAMES[_KINDS[type(header)]].grid
    if rebuild(header) != grid:
        raise ConfigError(f"a {type(header).__name__} cannot carry the guard grid")


def open_stream(stream: GuardedStream, kind: int) -> tuple[GuardConfig, FlagReader]:
    """What every decoder starts from, and the one way from a stream to its
    guard configuration: the configuration of a payload ``kind`` stream, as
    its header describes it, and the reader of its safeguard section.  It
    runs the header checks ``read`` and ``write`` run, which an in-memory
    stream has not been through.  A header the configuration rejects (such
    as an epsilon that breaks the 4*epsilon margin, an octree step with no
    whole bin on [0, 1], or a non-finite epsilon or step) is a malformed
    stream."""
    if stream.payload_kind != kind:
        raise FieldValueError(f"payload kind {stream.payload_kind!r}, expected {kind}")
    _check_stream(stream)
    try:
        grid = _FRAMES[kind].grid(stream.payload)
        cfg = GuardConfig(grid=grid, epsilon=stream.epsilon, mode=stream.mode)
    except (ConfigError, InvalidInputError) as exc:
        raise FieldValueError(f"stream header unusable: {exc}") from None
    return cfg, FlagReader(stream.safeguard, stream.flag_count, stream.mode)


def _check_stream(stream: GuardedStream) -> None:
    """What the field widths of the wire table do not already check."""
    if not isinstance(stream.mode, GuardMode):
        raise FieldValueError(f"bad mode {stream.mode!r}")
    if not _real("epsilon", stream.epsilon, FieldValueError) > 0.0:
        raise FieldValueError(f"epsilon must be finite and > 0, got {stream.epsilon!r}")

    p = stream.payload
    if stream.payload_kind is None:
        raise FieldValueError(f"bad payload header {type(p)}")
    if isinstance(p, (OctreeHeader, RawHeader)):
        if not _real("grid step", p.q, FieldValueError) > 0.0:
            raise FieldValueError("grid step must be finite and > 0")
    if isinstance(p, OctreeHeader):
        depth = _check_depth(p.bit_depth, FieldValueError)
        n = _whole("point count", p.point_count, error=FieldValueError)
        if not 1 <= n <= 1 << (3 * depth):
            raise FieldValueError("point count impossible for this bit depth")
    elif isinstance(p, HyperpriorHeader):
        _check_latent_dims(p.height, p.width, p.channels, FieldValueError)


def write(stream: GuardedStream) -> bytes:
    _check_stream(stream)
    kind = stream.payload_kind
    try:
        head = (
            struct.pack(_HEAD, MAGIC, VERSION, stream.mode, kind, stream.epsilon),
            struct.pack(_COUNTS, stream.flag_count, len(stream.safeguard),
                        len(stream.main)),
            # vars(), not dataclasses.astuple: the header's fields in order
            struct.pack(_FRAMES[kind].layout, *vars(stream.payload).values()),
        )
    except struct.error as exc:
        raise FieldValueError(f"a header field does not fit its width: {exc}") from None
    # one join, so that each section is copied once
    return b"".join((*head, stream.safeguard, stream.main))


class _Reader:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise TruncatedStreamError(f"buffer ended inside {what}")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))


def read(data: bytes) -> GuardedStream:
    r = _Reader(bytes(data))
    # each head field is checked once the buffer holds it (the mode with the
    # kind after it), so a short buffer with a bad magic is a BadMagicError
    size = struct.calcsize(_HEAD)
    have, head = len(r.data), r.data[:size].ljust(size, b"\0")
    magic, version, mode_b, kind, epsilon = struct.unpack(_HEAD, head)
    if have >= 4 and magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if have >= 5 and version != VERSION:
        raise UnsupportedVersionError(f"unsupported container version {version}")
    if have >= 7 and mode_b not in _MODES:
        raise FieldValueError(f"bad mode byte {mode_b}")
    r.take(size, "header")
    flag_count, guard_len, main_len = r.unpack(_COUNTS, "stream lengths")
    if kind not in _FRAMES:
        raise FieldValueError(f"bad payload kind {kind}")
    frame = _FRAMES[kind]
    fields = r.unpack(frame.layout, frame.header.__name__)

    extra = len(r.data) - r.pos - guard_len - main_len
    if extra < 0:
        raise TruncatedStreamError("declared section lengths exceed the buffer")
    if extra:
        raise TrailingDataError(f"{extra} bytes after the container end")
    safeguard = r.take(guard_len, "safeguard stream")
    # a read-only view of the input, not a copy: main can be megabytes
    main = memoryview(r.data)[r.pos :]
    # the stream's fields are in wire order
    stream = GuardedStream(GuardMode(mode_b), epsilon, flag_count,
                           frame.header(*fields), safeguard, main)
    _check_stream(stream)
    return stream


def write_file(path: str | Path, stream: GuardedStream) -> None:
    Path(path).write_bytes(write(stream))


def read_file(path: str | Path) -> GuardedStream:
    return read(Path(path).read_bytes())

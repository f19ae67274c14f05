"""Serialized ``.rgd`` container: header, safeguard stream, main stream.

Everything is big-endian.  Each header layout is declared once, in the wire
table below, and ``write``, ``read`` and the field checks all work from it.
The parser is hardened: any byte buffer either parses or raises a subclass
of MalformedStreamError, it never reads past declared lengths, and accepted
buffers round-trip byte-identically through ``read`` then ``write``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

from .errors import (
    BadMagicError,
    ConfigError,
    FieldValueError,
    InvalidInputError,
    LengthOverflowError,
    TrailingDataError,
    TruncatedStreamError,
    UnsupportedVersionError,
)
from .entropy import FlagReader
from .quantizer import _TABLES, QuantGrid, get_table
from .safeguard import FlagStream, GuardConfig, GuardMode

__all__ = [
    "MAGIC",
    "VERSION",
    "PayloadKind",
    "UniformDesc",
    "TableDesc",
    "OctreeHeader",
    "HyperpriorHeader",
    "RawHeader",
    "GuardedStream",
    "write",
    "read",
    "write_file",
    "read_file",
    "grid_desc_for",
    "guarded_stream",
    "config_for_stream",
    "open_stream",
]

MAGIC = b"RGRD"
VERSION = 2


class PayloadKind:
    OCTREE = 0
    HYPERPRIOR = 1
    RAW = 2


@dataclass(frozen=True)
class UniformDesc:
    q: float
    s: float


@dataclass(frozen=True)
class TableDesc:
    table_id: int


@dataclass(frozen=True)
class OctreeHeader:
    bit_depth: int
    point_count: int


@dataclass(frozen=True)
class HyperpriorHeader:
    height: int
    width: int
    channels: int
    scale_table_id: int
    z_blob: bytes  # raw big-endian doubles, kept opaque for byte fidelity

    @property
    def z_count(self) -> int:
        return _z_len(self.height, self.width, self.channels) // 8


@dataclass(frozen=True)
class RawHeader:
    value_count: int


@dataclass(frozen=True)
class GuardedStream:
    mode: GuardMode
    payload_kind: int
    epsilon: float
    grid_desc: UniformDesc | TableDesc
    p0_q16: int
    flag_count: int
    payload: OctreeHeader | HyperpriorHeader | RawHeader
    safeguard: bytes
    main: bytes | memoryview  # ``read`` gives a read-only view of its input


def _z_len(height: int, width: int, channels: int, *_) -> int:
    """Bytes of a hyperprior header's z blob: a double per pooled value."""
    return (height // 4) * (width // 4) * channels * 8


# The wire table.  A stream is _HEAD (magic, version, mode, payload kind,
# epsilon, grid kind), the grid descriptor the grid-kind byte names in
# _GRIDS, _COUNTS (p0_q16, flag_count, safeguard and main lengths), the
# payload header of the kind's frame, then the safeguard and main sections.
_HEAD = ">4sBBBdB"
_COUNTS = ">HIII"
_GRIDS = {0: (UniformDesc, ">dd"), 1: (TableDesc, ">H")}
_MODES = frozenset(GuardMode)  # the mode byte's values

_UNIT = (0.0, 1.0)  # the probability domain every octree grid clips to


class _Frame(NamedTuple):
    header: type  # the payload header type; its fields in order are ...
    layout: str  # ... this struct format's, then the blob if there is one
    blob: Callable[..., int] | None  # the blob's length, from the layout's fields
    descs: tuple  # the descriptor kinds the header may name the grid by
    domain: tuple | None = None  # a uniform grid's domain (a table has its own)


_FRAMES = {
    PayloadKind.OCTREE: _Frame(OctreeHeader, ">BQ", None, (UniformDesc,), _UNIT),
    PayloadKind.HYPERPRIOR: _Frame(HyperpriorHeader, ">IIIH", _z_len, (TableDesc,)),
    PayloadKind.RAW: _Frame(RawHeader, ">Q", None, (UniformDesc, TableDesc)),
}


def _kind_of(value: object, table: dict) -> int | None:
    """The key of the ``table`` row whose type ``value`` is, or None."""
    for key, row in table.items():
        if type(value) is row[0]:
            return key
    return None


def _grid(desc: UniformDesc | TableDesc, kind: int) -> QuantGrid:
    """The grid ``desc`` names in the header of a payload ``kind`` stream."""
    frame = _FRAMES.get(kind)
    if frame is None or not isinstance(desc, frame.descs):
        raise ConfigError(f"a payload kind {kind!r} header cannot carry {desc!r}")
    if isinstance(desc, UniformDesc):
        return QuantGrid.uniform(desc.q, desc.s, domain=frame.domain)
    return get_table(desc.table_id)


def grid_desc_for(grid: QuantGrid, kind: int) -> UniformDesc | TableDesc:
    """The header descriptor of ``grid`` in a stream of payload ``kind``:
    the uniform step and offset, or the grid's id in the table registry.
    A decoder rebuilds the grid from the header alone, so this raises
    ConfigError unless that rebuild is exactly ``grid``."""
    if grid.is_uniform:
        desc: UniformDesc | TableDesc = UniformDesc(q=grid.q, s=grid.s)
    else:
        ids = [i for i, table in _TABLES.items() if table == grid]
        if not ids:
            raise ConfigError("a boundary grid outside the table registry has no name")
        desc = TableDesc(table_id=ids[0])
    if _grid(desc, kind) != grid:
        raise ConfigError(f"stream header {desc} cannot name the guard grid")
    return desc


def guarded_stream(
    cfg: GuardConfig, desc: UniformDesc | TableDesc, flags: FlagStream,
    safeguard: bytes, payload: OctreeHeader | HyperpriorHeader | RawHeader,
    main: bytes,
) -> GuardedStream:
    """The stream of ``payload`` guarded by ``cfg`` under the descriptor
    ``grid_desc_for`` gave, with ``safeguard`` the coded ``flags``."""
    return GuardedStream(
        mode=cfg.mode,
        payload_kind=_kind_of(payload, _FRAMES),
        epsilon=cfg.epsilon,
        grid_desc=desc,
        p0_q16=flags.p0_q16,
        flag_count=len(flags),
        payload=payload,
        safeguard=safeguard,
        main=main,
    )


def config_for_stream(stream: GuardedStream) -> GuardConfig:
    """The guard configuration the stream's header describes.  A header the
    configuration rejects (such as a descriptor its payload kind does not
    carry, an epsilon that breaks the 4*epsilon margin, or a non-finite
    epsilon or step) is a malformed stream."""
    try:
        grid = _grid(stream.grid_desc, stream.payload_kind)
        return GuardConfig(grid=grid, epsilon=stream.epsilon, mode=stream.mode)
    except (ConfigError, InvalidInputError) as exc:
        raise FieldValueError(f"stream header unusable: {exc}") from None


def open_stream(stream: GuardedStream, kind: int) -> tuple[GuardConfig, FlagReader]:
    """What every decoder starts from: the guard configuration of a payload
    ``kind`` stream, and the reader of its safeguard section."""
    if stream.payload_kind != kind:
        raise FieldValueError(f"payload kind {stream.payload_kind!r}, expected {kind}")
    return config_for_stream(stream), FlagReader(
        stream.safeguard, stream.flag_count, stream.p0_q16, stream.mode
    )


def _check_stream(stream: GuardedStream) -> None:
    """What the field widths of the wire table do not already check."""
    if not isinstance(stream.mode, GuardMode):
        raise FieldValueError(f"bad mode {stream.mode!r}")
    if not (math.isfinite(stream.epsilon) and stream.epsilon > 0.0):
        raise FieldValueError(f"epsilon must be finite and > 0, got {stream.epsilon!r}")
    desc = stream.grid_desc
    if _kind_of(desc, _GRIDS) is None:
        raise FieldValueError(f"bad grid descriptor {desc!r}")
    if isinstance(desc, UniformDesc):
        if not (math.isfinite(desc.q) and desc.q > 0.0):
            raise FieldValueError("grid step must be finite and > 0")
        if not (math.isfinite(desc.s) and 0.0 <= desc.s < 1.0):
            raise FieldValueError("grid offset must be in [0, 1)")
    elif desc.table_id == 0:
        raise FieldValueError("table id 0 is reserved")
    if stream.p0_q16 == 0:
        raise FieldValueError("p0_q16 must be nonzero")

    p = stream.payload
    if _kind_of(p, _FRAMES) != stream.payload_kind:
        raise FieldValueError(f"payload kind {stream.payload_kind!r} with a {type(p)}")
    if isinstance(p, OctreeHeader):
        if not 1 <= p.bit_depth <= 21:
            raise FieldValueError(f"bit depth {p.bit_depth} outside [1, 21]")
        if not 1 <= p.point_count <= 1 << (3 * p.bit_depth):
            raise FieldValueError("point count impossible for this bit depth")
    elif isinstance(p, HyperpriorHeader):
        if min(p.height, p.width, p.channels) < 1:
            raise FieldValueError("latent height, width and channels must be >= 1")
        if p.height % 4 or p.width % 4:
            raise FieldValueError("latent height and width must be multiples of 4")
        if p.scale_table_id == 0:
            raise FieldValueError("scale table id 0 is reserved")
        if len(p.z_blob) != p.z_count * 8:
            raise FieldValueError("z blob length does not match the dimensions")


def write(stream: GuardedStream) -> bytes:
    _check_stream(stream)
    grid_kind = _kind_of(stream.grid_desc, _GRIDS)
    frame = _FRAMES[_kind_of(stream.payload, _FRAMES)]
    # vars(), not dataclasses.astuple: the header's fields in order, uncopied
    fields = tuple(vars(stream.payload).values())
    n = len(fields) - (frame.blob is not None)
    try:
        head = (
            struct.pack(_HEAD, MAGIC, VERSION, stream.mode, stream.payload_kind,
                        stream.epsilon, grid_kind),
            struct.pack(_GRIDS[grid_kind][1], *vars(stream.grid_desc).values()),
            struct.pack(_COUNTS, stream.p0_q16, stream.flag_count,
                        len(stream.safeguard), len(stream.main)),
            struct.pack(frame.layout, *fields[:n]),
        )
    except struct.error as exc:
        raise FieldValueError(f"a header field does not fit its width: {exc}") from None
    # one join, so that each section is copied once
    return b"".join((*head, *fields[n:], stream.safeguard, stream.main))


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
    magic, version, mode_b, kind, epsilon, grid_kind = struct.unpack(_HEAD, head)
    if have >= 4 and magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    if have >= 5 and version != VERSION:
        raise UnsupportedVersionError(f"unsupported container version {version}")
    if have >= 7 and mode_b not in _MODES:
        raise FieldValueError(f"bad mode byte {mode_b}")
    r.take(size, "header")
    if grid_kind not in _GRIDS:
        raise FieldValueError(f"bad grid kind {grid_kind}")
    desc_type, fmt = _GRIDS[grid_kind]
    grid_desc = desc_type(*r.unpack(fmt, desc_type.__name__))
    p0_q16, flag_count, guard_len, main_len = r.unpack(_COUNTS, "stream lengths")
    if kind not in _FRAMES:
        raise FieldValueError(f"bad payload kind {kind}")
    frame = _FRAMES[kind]
    fields = r.unpack(frame.layout, frame.header.__name__)
    if frame.blob is not None:
        blob_len = frame.blob(*fields)
        if blob_len > len(r.data) - r.pos:
            raise LengthOverflowError("declared z blob exceeds the buffer")
        fields += (r.take(blob_len, "z blob"),)

    extra = len(r.data) - r.pos - guard_len - main_len
    if extra < 0:
        raise TruncatedStreamError("declared section lengths exceed the buffer")
    if extra:
        raise TrailingDataError(f"{extra} bytes after the container end")
    safeguard = r.take(guard_len, "safeguard stream")
    # a read-only view of the input, not a copy: main can be megabytes
    main = memoryview(r.data)[r.pos :]
    # the stream's fields are in wire order
    stream = GuardedStream(GuardMode(mode_b), kind, epsilon, grid_desc, p0_q16,
                           flag_count, frame.header(*fields), safeguard, main)
    _check_stream(stream)
    return stream


def write_file(path: str | Path, stream: GuardedStream) -> None:
    Path(path).write_bytes(write(stream))


def read_file(path: str | Path) -> GuardedStream:
    return read(Path(path).read_bytes())

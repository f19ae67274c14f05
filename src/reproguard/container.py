"""Serialized ``.rgd`` container: header, safeguard stream, main stream.

Everything is big-endian.  The parser is hardened: any byte buffer either
parses or raises a subclass of MalformedStreamError, it never reads past
declared lengths, and accepted buffers round-trip byte-identically through
``read`` then ``write``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

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

_MAX_U32 = 0xFFFFFFFF
_MAX_U64 = 0xFFFFFFFFFFFFFFFF


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
        return (self.height // 4) * (self.width // 4) * self.channels


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


_UNIT = (0.0, 1.0)  # the probability domain every octree grid clips to

# Per payload kind: its header type, the descriptor kinds its header may
# name the grid by, and the domain a uniform grid is rebuilt on (a table
# carries its own).
_FRAMES = {
    PayloadKind.OCTREE: (OctreeHeader, (UniformDesc,), _UNIT),
    PayloadKind.HYPERPRIOR: (HyperpriorHeader, (TableDesc,), None),
    PayloadKind.RAW: (RawHeader, (UniformDesc, TableDesc), None),
}


def _grid(desc: UniformDesc | TableDesc, kind: int) -> QuantGrid:
    """The grid ``desc`` names in the header of a payload ``kind`` stream."""
    _, kinds, domain = _FRAMES.get(kind, (None, (), None))
    if not isinstance(desc, kinds):
        raise ConfigError(f"a payload kind {kind!r} header cannot carry {desc!r}")
    if isinstance(desc, UniformDesc):
        return QuantGrid.uniform(desc.q, desc.s, domain=domain)
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
        payload_kind=next(k for k, f in _FRAMES.items() if type(payload) is f[0]),
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
    if not isinstance(stream.mode, GuardMode):
        raise FieldValueError(f"bad mode {stream.mode!r}")
    if not (math.isfinite(stream.epsilon) and stream.epsilon > 0.0):
        raise FieldValueError(f"epsilon must be finite and > 0, got {stream.epsilon!r}")
    if isinstance(stream.grid_desc, UniformDesc):
        if not (math.isfinite(stream.grid_desc.q) and stream.grid_desc.q > 0.0):
            raise FieldValueError("grid step must be finite and > 0")
        if not (
            math.isfinite(stream.grid_desc.s) and 0.0 <= stream.grid_desc.s < 1.0
        ):
            raise FieldValueError("grid offset must be in [0, 1)")
    elif isinstance(stream.grid_desc, TableDesc):
        if not 1 <= stream.grid_desc.table_id <= 0xFFFF:
            raise FieldValueError("table id must fit in 16 bits and be nonzero")
    else:
        raise FieldValueError(f"bad grid descriptor {stream.grid_desc!r}")
    if not 1 <= stream.p0_q16 <= 65535:
        raise FieldValueError("p0_q16 must be in [1, 65535]")
    if not 0 <= stream.flag_count <= _MAX_U32:
        raise FieldValueError("flag count out of range")
    if len(stream.safeguard) > _MAX_U32 or len(stream.main) > _MAX_U32:
        raise FieldValueError("section too large for a 32-bit length")

    p = stream.payload
    if type(p) is not _FRAMES.get(stream.payload_kind, (None,))[0]:
        raise FieldValueError(f"payload kind {stream.payload_kind!r} with a {type(p)}")
    if stream.payload_kind == PayloadKind.OCTREE:
        if not 1 <= p.bit_depth <= 21:
            raise FieldValueError(f"bit depth {p.bit_depth} outside [1, 21]")
        if not 1 <= p.point_count <= min(_MAX_U64, 1 << (3 * p.bit_depth)):
            raise FieldValueError("point count impossible for this bit depth")
    elif stream.payload_kind == PayloadKind.HYPERPRIOR:
        for name, val in (
            ("height", p.height),
            ("width", p.width),
            ("channels", p.channels),
        ):
            if not 1 <= val <= _MAX_U32:
                raise FieldValueError(f"{name} out of range")
        if p.height % 4 or p.width % 4:
            raise FieldValueError("latent height and width must be multiples of 4")
        if not 1 <= p.scale_table_id <= 0xFFFF:
            raise FieldValueError("scale table id must fit in 16 bits and be nonzero")
        if len(p.z_blob) != p.z_count * 8:
            raise FieldValueError("z blob length does not match the dimensions")
    elif not 0 <= p.value_count <= _MAX_U64:
        raise FieldValueError("value count out of range")


def write(stream: GuardedStream) -> bytes:
    _check_stream(stream)
    out = bytearray()
    out += MAGIC
    out += struct.pack(">BBB", VERSION, int(stream.mode), stream.payload_kind)
    out += struct.pack(">d", stream.epsilon)
    if isinstance(stream.grid_desc, UniformDesc):
        out += struct.pack(">Bdd", 0, stream.grid_desc.q, stream.grid_desc.s)
    else:
        out += struct.pack(">BH", 1, stream.grid_desc.table_id)
    out += struct.pack(
        ">HIII",
        stream.p0_q16,
        stream.flag_count,
        len(stream.safeguard),
        len(stream.main),
    )
    p = stream.payload
    if stream.payload_kind == PayloadKind.OCTREE:
        out += struct.pack(">BQ", p.bit_depth, p.point_count)
    elif stream.payload_kind == PayloadKind.HYPERPRIOR:
        out += struct.pack(">IIIH", p.height, p.width, p.channels, p.scale_table_id)
        out += p.z_blob
    else:
        out += struct.pack(">Q", p.value_count)
    # one join after the header, so that each section is copied once
    return b"".join((out, stream.safeguard, stream.main))


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

    def unpack(self, fmt: str, what: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    @property
    def remaining(self) -> int:
        return len(self.data) - self.pos


def read(data: bytes) -> GuardedStream:
    r = _Reader(bytes(data))
    magic = r.take(4, "magic")
    if magic != MAGIC:
        raise BadMagicError(f"bad magic {magic!r}")
    (version,) = r.unpack(">B", "version")
    if version != VERSION:
        raise UnsupportedVersionError(f"unsupported container version {version}")
    mode_b, kind = r.unpack(">BB", "mode/payload kind")
    try:
        mode = GuardMode(mode_b)
    except ValueError:
        raise FieldValueError(f"bad mode byte {mode_b}") from None
    (epsilon,) = r.unpack(">d", "epsilon")
    (grid_kind,) = r.unpack(">B", "grid kind")
    if grid_kind == 0:
        q, s = r.unpack(">dd", "uniform grid")
        grid_desc: UniformDesc | TableDesc = UniformDesc(q=q, s=s)
    elif grid_kind == 1:
        (table_id,) = r.unpack(">H", "table id")
        grid_desc = TableDesc(table_id=table_id)
    else:
        raise FieldValueError(f"bad grid kind {grid_kind}")
    p0_q16, flag_count, guard_len, main_len = r.unpack(">HIII", "stream lengths")

    if kind == PayloadKind.OCTREE:
        bit_depth, point_count = r.unpack(">BQ", "octree header")
        payload: OctreeHeader | HyperpriorHeader | RawHeader = OctreeHeader(
            bit_depth=bit_depth, point_count=point_count
        )
    elif kind == PayloadKind.HYPERPRIOR:
        h, w, c, scale_table_id = r.unpack(">IIIH", "hyperprior header")
        z_len = (h // 4) * (w // 4) * c * 8
        if z_len > r.remaining:
            raise LengthOverflowError("declared z blob exceeds the buffer")
        z_blob = r.take(z_len, "z blob")
        payload = HyperpriorHeader(
            height=h, width=w, channels=c, scale_table_id=scale_table_id, z_blob=z_blob
        )
    elif kind == PayloadKind.RAW:
        (value_count,) = r.unpack(">Q", "raw header")
        payload = RawHeader(value_count=value_count)
    else:
        raise FieldValueError(f"bad payload kind {kind}")

    if guard_len + main_len > r.remaining:
        raise TruncatedStreamError("declared section lengths exceed the buffer")
    safeguard = r.take(guard_len, "safeguard stream")
    # a read-only view of the input, not a copy: main can be megabytes
    main = memoryview(r.data)[r.pos : r.pos + main_len]
    r.pos += main_len
    if r.remaining:
        raise TrailingDataError(f"{r.remaining} bytes after the container end")

    stream = GuardedStream(
        mode=mode,
        payload_kind=kind,
        epsilon=epsilon,
        grid_desc=grid_desc,
        p0_q16=p0_q16,
        flag_count=flag_count,
        payload=payload,
        safeguard=safeguard,
        main=main,
    )
    _check_stream(stream)
    return stream


def write_file(path: str | Path, stream: GuardedStream) -> None:
    Path(path).write_bytes(write(stream))


def read_file(path: str | Path) -> GuardedStream:
    return read(Path(path).read_bytes())

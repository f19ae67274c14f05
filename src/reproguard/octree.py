"""Octree occupancy codec with safeguarded context probabilities.

Geometry is stored as Morton codes.  Encoder and decoder each code the tree
in one loop over its levels, eight octant passes per level; within a pass
the context of a child depends only on data coded in earlier passes or
levels, so both sides evaluate the predictor on whole batches.  Both loops
take a level's groups of consecutive passes from ``_groups``, which sums
each group's logits once: every model term but the coded-sibling one.
The decoder codes one pass at a time, since each needs the bits of the
passes before it, adds that term to the pass's row of logits, and takes
the next level from the occupancy it decoded.  The encoder knows every bit
in advance: it derives every level in one bottom-up pass over distinct
nodes, whose work per level follows that level's node count, and codes a
whole group per call.  The pass relies on the leaf codes being sorted and
unique, which ``VoxelCloud`` checks.  Every predicted occupancy
probability is a coder-critical value: it is safeguarded, and the entropy
coder only ever sees the protected copy.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import numpy as np

from .container import (
    _UNIT,
    GuardedStream,
    OctreeHeader,
    PayloadKind,
    _check_depth,
    check_grid,
    open_stream,
)
from .entropy import (
    RangeDecoder,
    RangeEncoder,
    encode_flags,
    prob_to_p16_array,
)
from .errors import (
    ConfigError,
    FieldValueError,
    InvalidInputError,
    PlyParseError,
    _whole,
)
from .platform_sim import Perturbation, unit_hash_inplace
from .quantizer import QuantGrid
from .safeguard import (
    GuardConfig,
    GuardMode,
    guard_decode_array,
    guard_encode_array,
)

__all__ = [
    "VoxelCloud",
    "voxelize",
    "synth_cloud",
    "make_pc_config",
    "encode",
    "decode",
    "read_ply",
    "write_ply",
    "morton_encode",
    "morton_decode",
]

_U = np.uint64


# ---------------------------------------------------------------------------
# Morton codes (x-major interleave, 21 bits per axis)


def _split_by_3(a: np.ndarray) -> np.ndarray:
    x = a.astype(np.uint64) & _U(0x1FFFFF)
    x = (x | (x << _U(32))) & _U(0x1F00000000FFFF)
    x = (x | (x << _U(16))) & _U(0x1F0000FF0000FF)
    x = (x | (x << _U(8))) & _U(0x100F00F00F00F00F)
    x = (x | (x << _U(4))) & _U(0x10C30C30C30C30C3)
    x = (x | (x << _U(2))) & _U(0x1249249249249249)
    return x


def _compact_by_3(x: np.ndarray) -> np.ndarray:
    x = x & _U(0x1249249249249249)
    x = (x | (x >> _U(2))) & _U(0x10C30C30C30C30C3)
    x = (x | (x >> _U(4))) & _U(0x100F00F00F00F00F)
    x = (x | (x >> _U(8))) & _U(0x1F0000FF0000FF)
    x = (x | (x >> _U(16))) & _U(0x1F00000000FFFF)
    x = (x | (x >> _U(32))) & _U(0x1FFFFF)
    return x


def morton_encode(xyz: np.ndarray) -> np.ndarray:
    """(N, 3) integer coordinates -> uint64 Morton codes."""
    xyz = np.asarray(xyz)
    return (
        (_split_by_3(xyz[:, 0]) << _U(2))
        | (_split_by_3(xyz[:, 1]) << _U(1))
        | _split_by_3(xyz[:, 2])
    )


def morton_decode(codes: np.ndarray) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.uint64)
    out = np.empty((codes.shape[0], 3), dtype=np.int64)
    out[:, 0] = _compact_by_3(codes >> _U(2)).astype(np.int64)
    out[:, 1] = _compact_by_3(codes >> _U(1)).astype(np.int64)
    out[:, 2] = _compact_by_3(codes).astype(np.int64)
    return out


# ---------------------------------------------------------------------------
# voxel clouds


@dataclass(frozen=True)
class VoxelCloud:
    """Deduplicated voxels of a point cloud, Morton-sorted.

    ``codes`` is a non-empty 1-d uint64 array, strictly ascending, each code
    below ``1 << 3 * bit_depth``; anything else raises InvalidInputError.
    The encoder relies on it: it takes every level's nodes from the leaf
    codes in one bottom-up pass that drops a shifted node only where it
    repeats the node before it."""

    bit_depth: int
    codes: np.ndarray  # sorted unique uint64

    def __post_init__(self) -> None:
        object.__setattr__(self, "bit_depth", _check_depth(self.bit_depth))
        c = self.codes
        if not isinstance(c, np.ndarray) or c.dtype != np.uint64 or c.ndim != 1:
            raise InvalidInputError("codes must be a 1-d uint64 array")
        if c.shape[0] < 1:
            raise InvalidInputError("codes must be non-empty")
        if not np.all(c[1:] > c[:-1]):
            raise InvalidInputError("codes must be strictly ascending")
        if int(c[-1]) >> (3 * self.bit_depth):
            raise InvalidInputError("a code lies outside the bit depth's grid")

    def __len__(self) -> int:
        return int(self.codes.shape[0])

    def points(self) -> np.ndarray:
        return morton_decode(self.codes)

    @classmethod
    def from_voxels(cls, voxels: np.ndarray, bit_depth: int) -> "VoxelCloud":
        """The cloud of the (N, 3) integral coordinates ``voxels``, each in
        ``[0, 1 << bit_depth)``; a float coordinate must be a whole number.
        Duplicates are dropped with one in-place sort of the Morton codes
        and the run-start rule of the encoder's bottom-up pass."""
        bit_depth = _check_depth(bit_depth)
        v = np.asarray(voxels)
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] < 1:
            raise InvalidInputError("voxels must be a non-empty (N, 3) array")
        # every check runs before morton_encode's cast to uint64, which
        # would truncate a fraction and turn a non-finite or huge value
        # into garbage with a warning
        if v.dtype.kind not in "biuf":
            raise InvalidInputError("voxel coordinates must be real numbers")
        if v.dtype.kind == "f" and not np.all(np.isfinite(v) & (np.floor(v) == v)):
            raise InvalidInputError("voxel coordinates must be finite integers")
        if v.min() < 0 or v.max() >= 1 << bit_depth:
            raise InvalidInputError("voxel coordinates outside the grid")
        codes = morton_encode(v)
        codes.sort()
        return cls(bit_depth=bit_depth, codes=codes[_run_starts(codes)])


def _run_starts(x: np.ndarray) -> np.ndarray:
    """A mask of where each run of equal values in the non-empty ``x``
    starts: its first value and each one unlike the value before it.  On
    sorted ``x``, ``x[_run_starts(x)]`` is its distinct values, ascending."""
    start = np.empty(x.shape[0], dtype=bool)
    start[0] = True
    np.not_equal(x[1:], x[:-1], out=start[1:])
    return start


def voxelize(points: np.ndarray, bit_depth: int) -> VoxelCloud:
    """Min-max normalize raw points onto the integer grid, then dedupe."""
    bit_depth = _check_depth(bit_depth)
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
        raise InvalidInputError("points must be a non-empty (N, 3) array")
    if not np.all(np.isfinite(pts)):
        raise InvalidInputError("points must be finite")
    top = float((1 << bit_depth) - 1)
    mn = pts.min(axis=0)
    span = pts.max(axis=0) - mn
    span[span == 0.0] = 1.0
    scaled = (pts - mn) / span * top
    vox = np.floor(scaled + 0.5).astype(np.int64)
    np.clip(vox, 0, int(top), out=vox)
    return VoxelCloud.from_voxels(vox, bit_depth)


def synth_cloud(kind: str, bit_depth: int, count: int, seed: int) -> VoxelCloud:
    """Seeded synthetic clouds: a contiguous deformed-sphere shell (dense)
    or uniform random voxels (sparse)."""
    bit_depth = _check_depth(bit_depth)
    count, seed = _whole("count", count, 1), _whole("seed", seed, 0)
    rng = np.random.default_rng(seed)
    side = 1 << bit_depth
    if kind == "sparse":
        vox = rng.integers(0, side, size=(count, 3), dtype=np.int64)
        return VoxelCloud.from_voxels(vox, bit_depth)
    if kind != "dense":
        raise ConfigError(f"unknown cloud kind {kind!r}")
    dirs = rng.normal(size=(count, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    bump = (
        1.0
        + 0.22 * np.sin(3.0 * dirs[:, 0] + 1.3)
        + 0.17 * np.cos(2.0 * dirs[:, 1] - 0.7)
        + 0.13 * np.sin(2.0 * dirs[:, 2])
    )
    # radius chosen so the shell area is on the order of the sample count,
    # which keeps neighboring samples in adjacent voxels (a dense surface)
    radius = min(np.sqrt(count / (4.0 * np.pi)) * 1.15, 0.45 * (side - 1))
    center = (side - 1) / 2.0
    pts = center + dirs * (radius * bump)[:, None]
    vox = np.floor(pts + 0.5).astype(np.int64)
    np.clip(vox, 0, side - 1, out=vox)
    return VoxelCloud.from_voxels(vox, bit_depth)


# ---------------------------------------------------------------------------
# context model
#
# A stand-in for a learned occupancy predictor: logistic regression over
# level phase, octant, already-coded sibling occupancy, the parent's
# sibling occupancy, grandparent presence, and a hashed ancestral identity
# that varies smoothly per node.

# six term weights, then the bias (once drawn from splitmix64 at seed
# 0xC0DEC0DE), written in hex so that every platform reads the same doubles
_W = tuple(
    float.fromhex(w)
    for w in (
        "0x1.c0f0b428ef518p-2",
        "0x1.ba6e44342ae0cp+0",
        "0x1.d68ae201a7616p+0",
        "0x1.85f84b1046f02p+0",
        "0x1.1358a5ff2e2e8p+0",
        "0x1.24f4eff1af4b6p+0",
    )
)
_BIAS = float.fromhex("0x1.dd1dc93d4de8ap+0")

_HASH_C1 = 0xD6E8FEB86659FD93
_HASH_C2 = 0xA5A5A5A5A5A5A5A5


def _ancestral_unit(
    parent_codes: np.ndarray, depth: int, octant: int | np.ndarray
) -> np.ndarray:
    """Draws in [0, 1) hashed from each uint64 parent code times C1, plus
    depth times C2, plus the octant, mod 2**64; a column of octants gives
    (octants, parents)."""
    x = parent_codes * _U(_HASH_C1)
    x += _U(depth * _HASH_C2 % 2**64)
    # the broadcast is the one array the hash makes its draws in
    return unit_hash_inplace(np.add(x, np.asarray(octant, dtype=np.uint64)))


# coded siblings are always 0..7, so their term is one of eight values
_SIBLING_TERM = _W[2] * (np.arange(8) / 7.0)


# How many values one group of octant passes may hold, unless one pass alone
# is larger (the rule is in ``_groups``).  It bounds a group's logits on
# both sides and the arrays of one encoder call, and with them what
# grouping adds to either side's memory.
_GROUP_BUDGET = 1 << 15


def _groups(depth: int, bit_depth: int, parents: np.ndarray, siblings: np.ndarray):
    """A level's groups of max(1, min(8, _GROUP_BUDGET // n)) consecutive
    octants, n its parent count, in coding order, each as ``(octants,
    logits)``: ``logits`` is the (octants, parents) sum of every model term
    but the coded-sibling one.  ``siblings`` holds each parent's sibling
    count.  A group's logits are built in its ``yield`` when reached, so no
    local of the generator holds them once the caller drops them."""
    g = max(1, min(8, _GROUP_BUDGET // parents.shape[0]))
    phase = _BIAS + _W[0] * (depth / bit_depth)
    parent = _W[3] * (siblings / 8.0)
    grandparent = _W[4] * (1.0 if depth >= 3 else 0.0)
    for lo in range(0, 8, g):
        octants = range(lo, min(lo + g, 8))
        octant = np.arange(octants.start, octants.stop)[:, None]
        yield octants, _logits(
            _ancestral_unit(parents, depth, octant),
            phase + _W[1] * (octant / 7.0),
            parent,
            grandparent,
        )


def _logits(
    ancestral: np.ndarray, head: np.ndarray, parent: np.ndarray, grandparent: float
) -> np.ndarray:
    """The terms of a group in the one order both sides sum them, in the
    hash's output buffer ``ancestral``: its weighted draws, then the head
    column (bias, level phase and octant), the parent-sibling row and the
    grandparent constant."""
    ancestral *= _W[5]
    ancestral += head
    ancestral += parent
    ancestral += grandparent
    return ancestral


def _probabilities(logits: np.ndarray, coded_siblings: np.ndarray) -> np.ndarray:
    """Occupancy probabilities of the children whose ``_groups`` logits are
    ``logits``, a whole group or one of its rows, flat in the same order:
    the only way either side gets them.  ``coded_siblings``, of the same
    shape, holds how many earlier siblings of each child were coded
    occupied."""
    t = _SIBLING_TERM[coded_siblings]
    t += logits
    np.negative(t, out=t)
    np.exp(t, out=t)
    t += 1.0
    # no clip: for finite terms 1 + exp(-t) is at least 1, so the sigmoid
    # already lies in [0, 1], as any other model must keep it
    return np.divide(1.0, t, out=t).ravel()


# ---------------------------------------------------------------------------
# codec


def make_pc_config(
    epsilon: float, k: int = 250, mode: GuardMode = GuardMode.CENTER
) -> GuardConfig:
    """Probability grid q = 1/k on [0, 1] with both edges clipped."""
    k = _whole("k", k, 1, error=ConfigError)
    grid = QuantGrid.uniform(1.0 / k, domain=_UNIT)
    return GuardConfig(grid=grid, epsilon=epsilon, mode=mode)


def _levels(codes: np.ndarray, bit_depth: int) -> list[tuple]:
    """Every level's parents, their sibling counts and its (8, parents)
    occupancy, leaf level first, in one bottom-up pass from the sorted unique
    leaf codes.  A level's parents are its nodes shifted right by 3 with
    repeats dropped; the nodes are sorted, so repeats form runs, and a node's
    parent index is the count of run starts up to it, less one.  A parent's
    sibling count is its own parent's column sum in the level above.  Each
    level costs O(its node count)."""
    levels = []
    nodes, below = codes, None
    for _ in range(bit_depth):
        up = nodes >> _U(3)
        start = _run_starts(up)
        at = np.cumsum(start)
        at -= 1
        occ = np.zeros((8, int(at[-1]) + 1), dtype=np.uint8)
        occ[nodes & _U(7), at] = 1
        if below is not None:  # ``nodes`` are the parents of the level below
            levels.append((nodes, occ.sum(axis=0, dtype=np.uint8)[at], below))
        nodes, below = up[start], occ
    levels.append((nodes, np.ones(1, dtype=np.uint8), below))  # the root, an only child
    return levels


def encode(cloud: VoxelCloud, cfg: GuardConfig, protect: bool = True) -> GuardedStream:
    """Code a voxel cloud; returns the container object."""
    n = cloud.bit_depth
    header = OctreeHeader(bit_depth=n, point_count=len(cloud), q=cfg.grid.q)
    check_grid(cfg.grid, header)
    enc = RangeEncoder()
    # an unprotected stream keeps just these empty flag arrays
    fr_parts = [np.empty(0, dtype=np.uint8)]
    fd_parts = [np.empty(0, dtype=np.uint8)]
    levels = _levels(cloud.codes, n)
    for depth in range(1, n + 1):
        # popped root first, so each level is freed once the next is popped
        parents, siblings, occ = levels.pop()
        # every child's occupancy is known, so a child's coded siblings are
        # an exclusive cumsum over octants, and a group of octant passes
        # codes in one call, in the order the decoder codes them one by one
        coded = np.cumsum(occ, axis=0, dtype=np.uint8) - occ
        for octants, logits in _groups(depth, n, parents, siblings):
            rows = slice(octants.start, octants.stop)
            p = _probabilities(logits, coded[rows])
            del logits  # freed before the guard makes its arrays
            if protect:
                p, fr, fd = guard_encode_array(cfg, p)
                fr_parts.append(fr)
                fd_parts.append(fd)
            enc.encode_bits(occ[rows].ravel(), prob_to_p16_array(p))
    del parents, siblings, occ, coded, p  # the leaf level's, before the flags
    fr = np.concatenate(fr_parts)
    safeguard = encode_flags(fr, np.concatenate(fd_parts), cfg.mode)
    return GuardedStream(
        cfg.mode, cfg.epsilon, len(fr), header, safeguard, enc.finish()
    )


def decode(stream: GuardedStream, perturb: Perturbation | None = None) -> VoxelCloud:
    """Decode a voxel cloud, optionally recomputing probabilities through a
    simulated platform.  flag_count == 0 means the stream was unprotected."""
    cfg, flags = open_stream(stream, PayloadKind.OCTREE)
    header: OctreeHeader = stream.payload
    n = header.bit_depth
    dec = RangeDecoder(stream.main)
    parents = np.zeros(1, dtype=np.uint64)  # the root
    siblings = np.ones(1, dtype=np.uint8)  # the root is an only child
    for depth in range(1, n + 1):
        # one pass per octant: each needs the bits of the passes before it,
        # and adds only their coded-sibling term to its row of the group's
        # logits
        occ = np.empty((8, parents.shape[0]), dtype=np.uint8)
        coded = np.zeros(parents.shape[0], dtype=np.uint8)
        for octants, logits in _groups(depth, n, parents, siblings):
            for octant in octants:
                p = _probabilities(logits[octant - octants.start], coded)
                if octant + 1 == octants.stop:
                    logits = None  # freed before the group's last pass is guarded
                if perturb is not None:
                    p = perturb.perturb_array(p, cfg.grid)
                if stream.flag_count > 0:
                    fr, fd = flags.take(p.shape[0])
                    p = guard_decode_array(cfg, p, fr, fd)
                occ[octant] = dec.decode_bits(prob_to_p16_array(p))
                coded += occ[octant]
        # the occupied children, parent-major, so their codes come out
        # sorted: ``coded`` now holds each parent's child count, and one pass
        # over a C-order copy, whose flat index is parent * 8 + octant, gives
        # each child's octant
        octants = np.flatnonzero(occ.T.ravel())
        if octants.shape[0] > header.point_count:
            raise FieldValueError("decoded occupancy exceeds the declared point count")
        octants &= 7
        parents = np.repeat(parents, coded)
        parents <<= _U(3)
        parents |= octants.astype(np.uint64)
        siblings = np.repeat(coded, coded)
    if parents.shape[0] != header.point_count:
        raise FieldValueError("decoded leaves fall short of the declared point count")
    if not flags.exhausted:
        raise FieldValueError("flag count does not match the decoded tree")
    return VoxelCloud(bit_depth=n, codes=parents)


# ---------------------------------------------------------------------------
# ASCII PLY I/O

_INT_PLY_TYPES = {
    "char", "uchar", "short", "ushort", "int", "uint",
    "int8", "uint8", "int16", "uint16", "int32", "uint32",
}
_FLOAT_PLY_TYPES = {"float", "double", "float32", "float64"}


def write_ply(path, cloud: VoxelCloud) -> None:
    pts = cloud.points()
    lines = [
        "ply",
        "format ascii 1.0",
        f"comment bit_depth {cloud.bit_depth}",
        f"element vertex {len(cloud)}",
        "property int x",
        "property int y",
        "property int z",
        "end_header",
    ]
    body = "\n".join(f"{x} {y} {z}" for x, y, z in pts.tolist())
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n" + body + "\n")


def read_ply(path, bit_depth: int | None = None) -> VoxelCloud:
    """Parse an ASCII PLY.  Integer in-range coordinates are taken verbatim;
    anything else is voxelized.  Bit depth comes from the argument or a
    ``comment bit_depth N`` header line."""
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        first = fh.readline().strip()
        if first != "ply":
            raise PlyParseError("missing ply magic line")
        fmt_seen = False
        vertex_count = None
        props: list[tuple[str, str]] = []
        in_vertex = False
        header_depth = None
        while True:
            line = fh.readline()
            if not line:
                raise PlyParseError("header ended without end_header")
            line = line.strip()
            if not line:
                continue
            if line == "end_header":
                break
            parts = line.split()
            if parts[0] == "format":
                if parts[1:] != ["ascii", "1.0"]:
                    raise PlyParseError(f"unsupported format {line!r}")
                fmt_seen = True
            elif parts[0] == "comment":
                if len(parts) == 3 and parts[1] == "bit_depth":
                    try:
                        header_depth = int(parts[2])
                    except ValueError:
                        raise PlyParseError("bad bit_depth comment") from None
            elif parts[0] == "element":
                if len(parts) != 3:
                    raise PlyParseError(f"bad element line {line!r}")
                in_vertex = parts[1] == "vertex"
                if not in_vertex and vertex_count is None:
                    # its rows would come first and be read as vertices
                    raise PlyParseError(
                        f"element {parts[1]!r} precedes element vertex, "
                        "which must come first"
                    )
                if in_vertex:
                    if vertex_count is not None:
                        # its properties would extend the first's
                        raise PlyParseError("a second element vertex")
                    try:
                        vertex_count = int(parts[2])
                    except ValueError:
                        raise PlyParseError("bad vertex count") from None
            elif parts[0] == "property":
                if in_vertex:
                    if len(parts) != 3:
                        raise PlyParseError(f"bad property line {line!r}")
                    ptype, pname = parts[1], parts[2]
                    if ptype not in _INT_PLY_TYPES | _FLOAT_PLY_TYPES:
                        raise PlyParseError(f"unsupported property type {ptype!r}")
                    props.append((ptype, pname))
        if not fmt_seen:
            raise PlyParseError("missing format line")
        if vertex_count is None:
            raise PlyParseError("missing vertex element")
        if vertex_count < 0:
            raise PlyParseError(f"negative vertex count {vertex_count}")
        names = [p[1] for p in props]
        try:
            cols = [names.index(axis) for axis in ("x", "y", "z")]
        except ValueError:
            raise PlyParseError("vertex element lacks x, y, z") from None

        depth = bit_depth if bit_depth is not None else header_depth
        if depth is None:
            raise PlyParseError("bit depth unknown: pass one or add the comment")
        depth = _check_depth(depth, PlyParseError if bit_depth is None else ConfigError)

        # grown as rows are read, so a declared count reserves no memory
        coords = array("d")
        for i in range(vertex_count):
            line = fh.readline()
            if not line:
                raise PlyParseError(
                    f"vertex data truncated at row {i} of {vertex_count}"
                )
            fields = line.split()
            if len(fields) < len(props):
                raise PlyParseError(f"short vertex row {i}")
            try:
                coords.extend([float(fields[c]) for c in cols])
            except ValueError:
                raise PlyParseError(f"non-numeric vertex row {i}") from None

    pts = np.frombuffer(coords, dtype=np.float64).reshape(vertex_count, 3)
    if not np.all(np.isfinite(pts)):
        raise PlyParseError("non-finite vertex coordinates")
    try:  # coordinates that are all grid integers are the voxels themselves
        return VoxelCloud.from_voxels(pts, depth)
    except InvalidInputError:
        return voxelize(pts, depth)

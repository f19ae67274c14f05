"""Round-trip and hardening tests for the .rgd byte format."""

import dataclasses
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from reproguard.container import (
    _COUNTS,
    _FRAMES,
    _HEAD,
    GuardedStream,
    HyperpriorHeader,
    OctreeHeader,
    PayloadKind,
    RawHeader,
    read,
    read_file,
    write,
    write_file,
)
from reproguard.errors import (
    BadMagicError,
    FieldValueError,
    MalformedStreamError,
    TrailingDataError,
    TruncatedStreamError,
    UnsupportedVersionError,
)
from reproguard.safeguard import GuardMode


def raw_stream(count=0, main=b"", safeguard=b"", mode=GuardMode.CENTER):
    return GuardedStream(
        mode=mode,
        epsilon=1e-6,
        flag_count=count,
        payload=RawHeader(value_count=count, q=0.004),
        safeguard=safeguard,
        main=main,
    )


def octree_stream():
    return GuardedStream(
        mode=GuardMode.CENTER,
        epsilon=1e-6,
        flag_count=12,
        payload=OctreeHeader(bit_depth=10, point_count=4444, q=1.0 / 250.0),
        safeguard=b"\x01\x02\x03",
        main=b"\xaa" * 40,
    )


def hyper_stream():
    return GuardedStream(
        mode=GuardMode.FULL,
        epsilon=1e-4,
        flag_count=5,
        payload=HyperpriorHeader(height=8, width=8, channels=3),
        safeguard=b"\x99",
        main=b"\x10\x20",
    )


def test_minimal_raw_stream_size():
    data = write(raw_stream())
    # magic 4 + version 1 + mode 1 + kind 1 + eps 8
    # + flag_count 4 + lens 8 + raw count 8 + step 8
    assert len(data) == 43
    assert read(data).payload.value_count == 0


def test_mode_byte_is_stable():
    data = write(raw_stream(mode=GuardMode.CENTER))
    assert data[5] == 3
    assert read(data).mode == GuardMode.CENTER


@pytest.mark.parametrize("make", [raw_stream, octree_stream, hyper_stream])
def test_read_write_identity(make):
    s = make()
    data = write(s)
    s2 = read(data)
    assert s2 == s
    assert write(s2) == data


def test_file_roundtrip(tmp_path):
    path = tmp_path / "t.rgd"
    s = octree_stream()
    write_file(path, s)
    assert read_file(path) == s


def test_bad_magic():
    data = bytearray(write(raw_stream()))
    data[0] ^= 0xFF
    with pytest.raises(BadMagicError):
        read(bytes(data))


def test_unsupported_version():
    data = bytearray(write(raw_stream()))
    data[4] = 9
    with pytest.raises(UnsupportedVersionError):
        read(bytes(data))


def test_version_1_streams_are_unsupported():
    # v1 range-coded its flags; v2 Rice-codes the gaps between risky flags
    data = bytearray(write(raw_stream()))
    assert data[4] == 7
    data[4] = 1
    with pytest.raises(UnsupportedVersionError):
        read(bytes(data))


def test_version_6_streams_are_unsupported():
    # a v6 hyperprior header carried z as raw doubles after its dims; a v7
    # one is the dims alone, and the rounded z is coded in main
    data = bytearray(write(hyper_stream()))
    fixed = struct.calcsize(_HEAD) + struct.calcsize(_COUNTS) + 12
    assert len(data) == fixed + 1 + 2  # then a safeguard byte and two of main
    data[4] = 6
    with pytest.raises(UnsupportedVersionError, match="version 6"):
        read(bytes(data))


def test_version_5_streams_are_unsupported():
    # a v5 hyperprior stream guarded sigma on a boundary table, and a v7 one
    # guards log sigma on a uniform grid
    data = bytearray(write(hyper_stream()))
    assert read(bytes(data)) == hyper_stream()
    data[4] = 5
    with pytest.raises(UnsupportedVersionError, match="version 5"):
        read(bytes(data))


def test_version_3_streams_are_unsupported():
    # a v3 header carried a uniform grid's offset after its step
    data = bytearray(write(raw_stream()))
    data[4] = 3
    with pytest.raises(UnsupportedVersionError, match="version 3"):
        read(bytes(data))


# A v2 stream: six raw values in FULL mode, two of them risky.  v2 headers
# carried the flag rate p0_q16 (here 0xaaab) after the grid descriptor, and
# v2 and v3 ones a uniform grid's offset (here 0.0) after its step.  Up to
# v4 a grid-kind byte (here 0, uniform) and the step followed epsilon.
V2_RAW = bytes.fromhex(
    "524752440200023f4999999999999a003f900000000000000000000000000000aaab"
    "00000006000000020000003000000000000000060220bff9a000000000003fdf8000"
    "00000000c00a9000000000003ff4e000000000004002500000000000bfecc0000000"
    "0000"
)


def test_version_2_streams_are_unsupported():
    with pytest.raises(UnsupportedVersionError, match="version 2"):
        read(V2_RAW)
    # the same stream, header cut to v7, is read: only the version refuses it
    assert V2_RAW[15] == 0 and V2_RAW[24:32] == bytes(8)
    counts, value_count, step = V2_RAW[34:46], V2_RAW[46:54], V2_RAW[16:24]
    v7 = bytes([*V2_RAW[:4], 7, *V2_RAW[5:15], *counts, *value_count, *step,
                *V2_RAW[54:]])
    assert read(v7).flag_count == 6
    assert read(v7).payload.q == 1.0 / 64.0


# A v4 stream: five raw values on the step 1/64 in FULL mode.  Its header
# had a grid-kind byte (0, uniform) after epsilon, then the step, which v5
# to v7 carry after the value count.
V4_RAW = bytes.fromhex(
    "524752440400023f4999999999999a003f900000000000000000000500000002000000"
    "280000000000000005034c3fe04000000000003f80000000000000bff3e00000000000"
    "3fa40000000000003fba000000000000"
)


def test_version_4_streams_are_unsupported():
    with pytest.raises(UnsupportedVersionError, match="version 4"):
        read(V4_RAW)
    # the v7 twin: version 7, the grid-kind byte cut, the step moved
    assert V4_RAW[15] == 0
    step, counts, value_count = V4_RAW[16:24], V4_RAW[24:36], V4_RAW[36:44]
    v7 = bytes([*V4_RAW[:4], 7, *V4_RAW[5:15], *counts, *value_count, *step,
                *V4_RAW[44:]])
    stream = read(v7)
    assert stream.payload == RawHeader(value_count=5, q=1.0 / 64.0)
    assert write(stream) == v7


def test_truncated_header():
    data = write(octree_stream())
    with pytest.raises(TruncatedStreamError):
        read(data[:20])


def test_truncated_sections():
    data = write(octree_stream())
    with pytest.raises(TruncatedStreamError):
        read(data[:-5])


def test_trailing_bytes_rejected():
    data = write(octree_stream())
    with pytest.raises(TrailingDataError):
        read(data + b"\x00")


def test_bad_mode_byte():
    data = bytearray(write(raw_stream()))
    data[5] = 7
    with pytest.raises(FieldValueError):
        read(bytes(data))


@pytest.mark.parametrize("mode_byte", [1, 2])
def test_one_sided_mode_bytes_are_refused(mode_byte):
    # 1 and 2 named the deleted LEFT and RIGHT modes
    data = bytearray(write(raw_stream(count=3, safeguard=b"\x00")))
    data[5] = mode_byte
    with pytest.raises(FieldValueError, match="mode"):
        read(bytes(data))


def test_bad_payload_kind():
    data = bytearray(write(raw_stream()))
    data[6] = 5
    with pytest.raises(FieldValueError):
        read(bytes(data))


def test_payload_kind_is_the_payload_header_type():
    makes = (octree_stream, hyper_stream, raw_stream)
    kinds = [PayloadKind.OCTREE, PayloadKind.HYPERPRIOR, PayloadKind.RAW]
    assert [make().payload_kind for make in makes] == kinds
    # a payload of no frame's type has no kind byte to write
    stray = dataclasses.replace(raw_stream(), payload=object())
    assert stray.payload_kind is None
    with pytest.raises(FieldValueError, match="payload header"):
        write(stray)


def test_impossible_point_count_rejected():
    with pytest.raises(FieldValueError):
        write(
            GuardedStream(
                mode=GuardMode.CENTER,
                epsilon=1e-6,
                flag_count=0,
                payload=OctreeHeader(bit_depth=2, point_count=100, q=0.004),
                safeguard=b"",
                main=b"",
            )
        )


@pytest.mark.parametrize("point_count", [None, "4"], ids=repr)
def test_point_count_that_is_not_an_integer_rejected(point_count):
    header = OctreeHeader(bit_depth=2, point_count=point_count, q=0.004)
    with pytest.raises(FieldValueError, match="point count"):
        write(dataclasses.replace(octree_stream(), payload=header))


def _with(make, payload=None, **fields):
    """``make()`` with stream ``fields`` and payload header fields replaced."""
    s = make()
    if payload:
        fields["payload"] = dataclasses.replace(s.payload, **payload)
    return dataclasses.replace(s, **fields)


def _octree_at_depth_21(point_count):
    return _with(octree_stream, payload=dict(bit_depth=21, point_count=point_count))


# each header field: a stream with the field set to a value, and the
# largest value its width (or, for the point count, its bit depth) allows
FIELD_LIMITS = {
    "flag_count": (lambda v: _with(raw_stream, flag_count=v), 2**32 - 1),
    "value_count": (
        lambda v: _with(raw_stream, payload=dict(value_count=v)), 2**64 - 1
    ),
    "point_count": (_octree_at_depth_21, 2**63),
}


@pytest.mark.parametrize("field", sorted(FIELD_LIMITS))
def test_field_at_its_widest_round_trips(field):
    make, widest = FIELD_LIMITS[field]
    s = make(widest)
    data = write(s)
    assert read(data) == s
    assert write(read(data)) == data


@pytest.mark.parametrize("field", sorted(FIELD_LIMITS))
@pytest.mark.parametrize("side", ["above", "below"])
def test_field_past_its_width_is_a_field_error(field, side):
    make, widest = FIELD_LIMITS[field]
    with pytest.raises(FieldValueError):  # never a bare struct.error
        write(make(widest + 1 if side == "above" else -1))


@pytest.mark.parametrize("dim", ["height", "width", "channels"])
def test_latent_dim_past_32_bits_is_a_field_error(dim):
    with pytest.raises(FieldValueError):
        write(_with(hyper_stream, payload={dim: 2**32}))


def test_epsilon_travels_bit_exact():
    eps = 7.23e-7
    s = raw_stream()
    s = GuardedStream(**{**s.__dict__, "epsilon": eps})
    assert read(write(s)).epsilon == eps


def test_roundtrip_fuzzed_valid_streams():
    rng = np.random.default_rng(2024)
    modes = list(GuardMode)
    for i in range(1000):
        mode = modes[int(rng.integers(0, len(modes)))]
        kind = int(rng.integers(0, 3))
        guard = rng.bytes(int(rng.integers(0, 50)))
        main = rng.bytes(int(rng.integers(0, 200)))
        eps = float(10.0 ** rng.uniform(-9, -1))
        count = int(rng.integers(0, 1000))
        if kind == PayloadKind.OCTREE:
            depth = int(rng.integers(1, 22))
            payload = OctreeHeader(
                bit_depth=depth,
                point_count=int(rng.integers(1, min(2**20, 8**depth) + 1)),
                q=float(rng.uniform(1e-4, 1.0)),
            )
        elif kind == PayloadKind.HYPERPRIOR:
            h = 4 * int(rng.integers(1, 5))
            w = 4 * int(rng.integers(1, 5))
            c = int(rng.integers(1, 5))
            payload = HyperpriorHeader(height=h, width=w, channels=c)
        else:
            payload = RawHeader(value_count=count, q=float(rng.uniform(1e-4, 1.0)))
        s = GuardedStream(
            mode=mode,
            epsilon=eps,
            flag_count=count,
            payload=payload,
            safeguard=guard,
            main=main,
        )
        data = write(s)
        assert read(data) == s
        assert write(read(data)) == data


def test_parser_survives_mutation_fuzz():
    """Bit-flipped, truncated, and extended copies of valid streams must
    either parse or raise a typed stream error, never anything else."""
    rng = np.random.default_rng(99)
    base = [write(raw_stream(3, b"\x01" * 24, b"\x44")), write(octree_stream()),
            write(hyper_stream())]
    for i in range(3000):
        data = bytearray(base[i % 3])
        op = i % 4
        if op == 0:
            data[int(rng.integers(0, len(data)))] ^= 1 << int(rng.integers(0, 8))
        elif op == 1:
            data = data[: int(rng.integers(0, len(data)))]
        elif op == 2:
            data += rng.bytes(int(rng.integers(1, 30)))
        else:
            for _ in range(5):
                data[int(rng.integers(0, len(data)))] = int(rng.integers(0, 256))
        try:
            read(bytes(data))
        except MalformedStreamError:
            pass


def test_parser_survives_random_garbage():
    rng = np.random.default_rng(123)
    for _ in range(2000):
        blob = rng.bytes(int(rng.integers(0, 120)))
        try:
            read(blob)
        except MalformedStreamError:
            pass


# ---------------------------------------------------------------------------
# README's layout tables match the declared layouts

README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_layout_rows():
    """The cells of every table row in README's "Container format" section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Container format\n")[1].split("\n## ")[0]
    return [
        [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
        for line in section.splitlines()
        if line.startswith("| ")
    ]


def _field_sizes(fmt):
    """The size in bytes of each field of a struct format, in order."""
    items = re.findall(r"\d*\D", fmt[1:])  # "4s" is one field of 4 bytes
    return [str(struct.calcsize(fmt[0] + item)) for item in items]


def test_readme_container_table_matches_the_declared_layouts():
    rows = [r for r in _readme_layout_rows() if len(r) == 3]
    head = ["magic", "version", "mode", "payload kind", "epsilon"]
    counts = ["flag_count", "guard_len", "main_len"]
    names = head + counts
    start = [r[0] for r in rows].index("magic")
    assert [r[0] for r in rows[start : start + len(names)]] == names  # wire order
    sizes = {r[0]: r[1] for r in rows}
    assert [sizes[n] for n in head] == _field_sizes(_HEAD)
    assert [sizes[n] for n in counts] == _field_sizes(_COUNTS)


@pytest.mark.parametrize(
    "payload, kind",
    [("octree", PayloadKind.OCTREE), ("hyperprior", PayloadKind.HYPERPRIOR),
     ("raw values", PayloadKind.RAW)],
)
def test_readme_payload_table_matches_the_declared_layouts(payload, kind):
    rows = [r[1:3] for r in _readme_layout_rows() if len(r) == 4 and r[0] == payload]
    frame = _FRAMES[kind]
    names = [f.name for f in dataclasses.fields(frame.header)]
    assert [tuple(r) for r in rows] == list(zip(names, _field_sizes(frame.layout)))

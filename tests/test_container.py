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
    _GRIDS,
    _HEAD,
    GuardedStream,
    HyperpriorHeader,
    OctreeHeader,
    PayloadKind,
    RawHeader,
    TableDesc,
    UniformDesc,
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
        payload_kind=PayloadKind.RAW,
        epsilon=1e-6,
        grid_desc=UniformDesc(q=0.004, s=0.0),
        p0_q16=32768,
        flag_count=count,
        payload=RawHeader(value_count=count),
        safeguard=safeguard,
        main=main,
    )


def octree_stream():
    return GuardedStream(
        mode=GuardMode.CENTER,
        payload_kind=PayloadKind.OCTREE,
        epsilon=1e-6,
        grid_desc=UniformDesc(q=1.0 / 250.0, s=0.0),
        p0_q16=65000,
        flag_count=12,
        payload=OctreeHeader(bit_depth=10, point_count=4444),
        safeguard=b"\x01\x02\x03",
        main=b"\xaa" * 40,
    )


def hyper_stream():
    z = np.arange(2 * 2 * 3, dtype=">f8").tobytes()
    return GuardedStream(
        mode=GuardMode.FULL,
        payload_kind=PayloadKind.HYPERPRIOR,
        epsilon=1e-4,
        grid_desc=TableDesc(table_id=1),
        p0_q16=60000,
        flag_count=5,
        payload=HyperpriorHeader(
            height=8, width=8, channels=3, scale_table_id=1, z_blob=z
        ),
        safeguard=b"\x99",
        main=b"\x10\x20",
    )


def test_minimal_raw_stream_size():
    data = write(raw_stream())
    # magic 4 + version 1 + mode 1 + kind 1 + eps 8 + grid (1+16) + p0 2
    # + flag_count 4 + lens 8 + raw count 8
    assert len(data) == 54
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
    assert data[4] == 2
    data[4] = 1
    with pytest.raises(UnsupportedVersionError):
        read(bytes(data))


def test_truncated_header():
    data = write(octree_stream())
    with pytest.raises(TruncatedStreamError):
        read(data[:20])


def test_truncated_sections():
    data = write(octree_stream())
    with pytest.raises(TruncatedStreamError):
        read(data[:-5])


def test_z_blob_overrun_is_length_overflow():
    from reproguard.errors import LengthOverflowError

    data = write(hyper_stream())
    # cut inside the z blob so the declared dims imply more bytes than exist
    with pytest.raises(LengthOverflowError):
        read(data[:-60])


def test_trailing_bytes_rejected():
    data = write(octree_stream())
    with pytest.raises(TrailingDataError):
        read(data + b"\x00")


def test_bad_mode_byte():
    data = bytearray(write(raw_stream()))
    data[5] = 7
    with pytest.raises(FieldValueError):
        read(bytes(data))


def test_bad_payload_kind():
    data = bytearray(write(raw_stream()))
    data[6] = 5
    with pytest.raises(FieldValueError):
        read(bytes(data))


def test_zero_table_id_rejected():
    s = hyper_stream()
    data = bytearray(write(s))
    # table id sits right after the grid-desc kind byte
    idx = 4 + 1 + 1 + 1 + 8 + 1
    data[idx : idx + 2] = b"\x00\x00"
    with pytest.raises(FieldValueError):
        read(bytes(data))


def test_impossible_point_count_rejected():
    with pytest.raises(FieldValueError):
        write(
            GuardedStream(
                mode=GuardMode.CENTER,
                payload_kind=PayloadKind.OCTREE,
                epsilon=1e-6,
                grid_desc=UniformDesc(q=0.004, s=0.0),
                p0_q16=1,
                flag_count=0,
                payload=OctreeHeader(bit_depth=2, point_count=100),
                safeguard=b"",
                main=b"",
            )
        )


def test_z_blob_length_must_match_dims():
    with pytest.raises(FieldValueError):
        write(
            GuardedStream(
                mode=GuardMode.CENTER,
                payload_kind=PayloadKind.HYPERPRIOR,
                epsilon=1e-4,
                grid_desc=TableDesc(table_id=1),
                p0_q16=100,
                flag_count=0,
                payload=HyperpriorHeader(
                    height=8, width=8, channels=3, scale_table_id=1, z_blob=b"xx"
                ),
                safeguard=b"",
                main=b"",
            )
        )


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
    "p0_q16": (lambda v: _with(raw_stream, p0_q16=v), 65535),
    "flag_count": (lambda v: _with(raw_stream, flag_count=v), 2**32 - 1),
    "table_id": (lambda v: _with(raw_stream, grid_desc=TableDesc(v)), 0xFFFF),
    "scale_table_id": (
        lambda v: _with(hyper_stream, payload=dict(scale_table_id=v)), 0xFFFF
    ),
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
    # only one past the limit: a dim at 2**32 - 1 needs a z blob of gigabytes
    with pytest.raises(FieldValueError):
        write(_with(hyper_stream, payload={dim: 2**32}))


def test_epsilon_travels_bit_exact():
    eps = 7.23e-7
    s = raw_stream()
    s = GuardedStream(**{**s.__dict__, "epsilon": eps})
    assert read(write(s)).epsilon == eps


def test_roundtrip_fuzzed_valid_streams():
    rng = np.random.default_rng(2024)
    modes = [GuardMode.FULL, GuardMode.LEFT, GuardMode.RIGHT, GuardMode.CENTER]
    for i in range(1000):
        mode = modes[int(rng.integers(0, 4))]
        kind = int(rng.integers(0, 3))
        guard = rng.bytes(int(rng.integers(0, 50)))
        main = rng.bytes(int(rng.integers(0, 200)))
        eps = float(10.0 ** rng.uniform(-9, -1))
        p0 = int(rng.integers(1, 65536))
        count = int(rng.integers(0, 1000))
        if kind == PayloadKind.OCTREE:
            depth = int(rng.integers(1, 22))
            payload = OctreeHeader(
                bit_depth=depth,
                point_count=int(rng.integers(1, min(2**20, 8**depth) + 1)),
            )
            desc = UniformDesc(q=float(rng.uniform(1e-4, 1.0)), s=0.0)
        elif kind == PayloadKind.HYPERPRIOR:
            h = 4 * int(rng.integers(1, 5))
            w = 4 * int(rng.integers(1, 5))
            c = int(rng.integers(1, 5))
            payload = HyperpriorHeader(
                height=h,
                width=w,
                channels=c,
                scale_table_id=int(rng.integers(1, 100)),
                z_blob=rng.bytes((h // 4) * (w // 4) * c * 8),
            )
            desc = TableDesc(table_id=payload.scale_table_id)
        else:
            payload = RawHeader(value_count=count)
            desc = UniformDesc(
                q=float(rng.uniform(1e-4, 1.0)), s=float(rng.uniform(0.0, 0.99))
            )
        s = GuardedStream(
            mode=mode,
            payload_kind=kind,
            epsilon=eps,
            grid_desc=desc,
            p0_q16=p0,
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
    head = ["magic", "version", "mode", "payload kind", "epsilon", "grid kind"]
    counts = ["p0_q16", "flag_count", "guard_len", "main_len"]
    names = head + ["grid params"] + counts
    start = [r[0] for r in rows].index("magic")
    assert [r[0] for r in rows[start : start + len(names)]] == names  # wire order
    sizes = {r[0]: r[1] for r in rows}
    assert [sizes[n] for n in head] == _field_sizes(_HEAD)
    assert [sizes[n] for n in counts] == _field_sizes(_COUNTS)
    grid_sizes = [str(struct.calcsize(fmt)) for _, fmt in _GRIDS.values()]
    assert sizes["grid params"] == " or ".join(grid_sizes)


@pytest.mark.parametrize(
    "payload, kind",
    [("octree", PayloadKind.OCTREE), ("hyperprior", PayloadKind.HYPERPRIOR),
     ("raw values", PayloadKind.RAW)],
)
def test_readme_payload_table_matches_the_declared_layouts(payload, kind):
    rows = [r[1:3] for r in _readme_layout_rows() if len(r) == 4 and r[0] == payload]
    frame = _FRAMES[kind]
    names = [f.name for f in dataclasses.fields(frame.header)]
    fixed = list(zip(names, _field_sizes(frame.layout)))
    assert [tuple(r) for r in rows[: len(fixed)]] == fixed
    # a blob after the fixed fields is the header's last field
    assert [r[0] for r in rows[len(fixed) :]] == names[len(fixed) :]

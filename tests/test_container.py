"""Round-trip and hardening tests for the .rgd byte format."""

import numpy as np
import pytest

from reproguard.container import (
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

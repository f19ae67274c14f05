"""Streams that parse but cannot be decoded, configs a header cannot name,
and field faults that the container's reader and writer must agree on."""

import dataclasses

import numpy as np
import pytest

from reproguard import (
    GuardConfig,
    GuardMode,
    QuantGrid,
    container,
    get_table,
    hyperprior,
    octree,
    raw_values,
)
from reproguard.container import (
    GuardedStream,
    HyperpriorHeader,
    OctreeHeader,
    PayloadKind,
    RawHeader,
    TableDesc,
    UniformDesc,
)
from reproguard.errors import (
    ConfigError,
    FieldValueError,
    MalformedStreamError,
    TruncatedStreamError,
)


def _octree():
    cloud = octree.synth_cloud("dense", 5, 300, seed=1)
    stream = octree.encode(cloud, octree.make_pc_config(1e-4, 250))
    return stream, lambda s: octree.decode(s)


def _hyperprior():
    lat = hyperprior.synth_latents(8, 8, 4, seed=1)
    stream = hyperprior.encode(lat, hyperprior.make_image_config(1e-4))
    return stream, lambda s: hyperprior.decode(s)


def _raw():
    cfg = GuardConfig(grid=QuantGrid.uniform(0.01), epsilon=1e-4, mode=GuardMode.FULL)
    values = np.random.default_rng(1).normal(0.0, 1.0, 500)
    stream = raw_values.encode_values(values, cfg)
    return stream, lambda s: raw_values.decode_values(s, values)


PAYLOADS = {"octree": _octree, "hyperprior": _hyperprior, "raw": _raw}


@pytest.mark.parametrize("payload", sorted(PAYLOADS))
def test_epsilon_breaking_the_margin_is_a_malformed_stream(payload):
    stream, decode = PAYLOADS[payload]()
    decode(stream)  # the untouched stream decodes
    # every grid here has bins narrower than 4 * 10
    bad = dataclasses.replace(stream, epsilon=10.0)
    with pytest.raises(MalformedStreamError) as info:
        decode(bad)
    assert isinstance(info.value, FieldValueError)


@pytest.mark.parametrize("payload", ["octree", "hyperprior"])
def test_cut_main_section_is_truncated(payload):
    stream, decode = PAYLOADS[payload]()
    with pytest.raises(TruncatedStreamError):
        decode(dataclasses.replace(stream, main=stream.main[:-1]))


# ---------------------------------------------------------------------------
# encoders reject a grid the stream header cannot name


def test_raw_grid_domain_the_header_cannot_name_is_rejected_at_encode():
    # a uniform header carries no domain, so a decoder would not clip:
    # 0.0005 read back as -0.0003 would decode to -0.005, not 0.005
    grid = QuantGrid.uniform(0.01, domain=(0.0, 1.0))
    cfg = GuardConfig(grid=grid, epsilon=1e-3, mode=GuardMode.CENTER)
    with pytest.raises(ConfigError):
        raw_values.encode_values(np.array([0.0005, 0.9995]), cfg)


@pytest.mark.parametrize(
    "grid",
    [
        QuantGrid.from_boundaries(np.geomspace(0.11, 256.0, 32)),
        QuantGrid.from_boundaries(get_table(hyperprior.SCALE_TABLE_ID).boundaries,
                                  clamped=False),
    ],
    ids=["foreign-table", "domainless-table"],
)
def test_hyperprior_encode_rejects_a_grid_other_than_its_table(grid):
    cfg = GuardConfig(grid=grid, epsilon=1e-4, mode=GuardMode.CENTER)
    with pytest.raises(ConfigError):
        hyperprior.encode(hyperprior.synth_latents(8, 8, 4, seed=1), cfg)


# ---------------------------------------------------------------------------
# decoder faults outside the container's reach


@pytest.mark.parametrize("cut", [3, 8])
def test_raw_main_length_must_match_the_value_count(cut):
    stream, _ = _raw()
    with pytest.raises(FieldValueError):
        raw_values.reference_values(
            dataclasses.replace(stream, main=stream.main[:-cut])
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hyperprior_non_finite_z_is_a_malformed_stream(bad):
    stream, decode = _hyperprior()
    z = np.frombuffer(stream.payload.z_blob, dtype=">f8").copy()
    z[1] = bad
    payload = dataclasses.replace(stream.payload, z_blob=z.tobytes())
    with pytest.raises(FieldValueError):
        decode(dataclasses.replace(stream, payload=payload))


# ---------------------------------------------------------------------------
# read rejects every field fault write rejects


_OCT, _HYP, _RAW = PayloadKind.OCTREE, PayloadKind.HYPERPRIOR, PayloadKind.RAW


def _stream(kind, **fields):
    """A valid stream of payload ``kind`` with ``fields`` replaced."""
    payload = {
        _OCT: OctreeHeader(bit_depth=2, point_count=5),
        _HYP: HyperpriorHeader(8, 8, 3, 1, bytes(2 * 2 * 3 * 8)),
        _RAW: RawHeader(value_count=3),
    }[kind]
    base = dict(
        mode=GuardMode.CENTER,
        payload_kind=kind,
        epsilon=1e-6,
        grid_desc=TableDesc(1) if kind == _HYP else UniformDesc(0.004, 0.0),
        p0_q16=40000,
        flag_count=3,
        payload=payload,
        safeguard=b"\x01\x02",
        main=b"\x03" * 24,
    )
    return GuardedStream(**{**base, **fields})


FIELD_FAULTS = {
    "mode": (_RAW, dict(mode=7)),
    "payload-kind": (_RAW, dict(payload_kind=5)),
    "epsilon-zero": (_RAW, dict(epsilon=0.0)),
    "epsilon-negative": (_OCT, dict(epsilon=-1e-6)),
    "epsilon-inf": (_RAW, dict(epsilon=float("inf"))),
    "epsilon-nan": (_HYP, dict(epsilon=float("nan"))),
    "q-zero": (_RAW, dict(grid_desc=UniformDesc(0.0, 0.0))),
    "q-negative": (_OCT, dict(grid_desc=UniformDesc(-0.5, 0.0))),
    "q-nan": (_RAW, dict(grid_desc=UniformDesc(float("nan"), 0.0))),
    "s-one": (_RAW, dict(grid_desc=UniformDesc(0.004, 1.0))),
    "s-negative": (_RAW, dict(grid_desc=UniformDesc(0.004, -0.25))),
    "table-id-zero": (_HYP, dict(grid_desc=TableDesc(0))),
    "p0-zero": (_OCT, dict(p0_q16=0)),
    "bit-depth-zero": (_OCT, dict(payload=OctreeHeader(0, 1))),
    "bit-depth-22": (_OCT, dict(payload=OctreeHeader(22, 1))),
    "point-count-zero": (_OCT, dict(payload=OctreeHeader(2, 0))),
    "point-count-over": (_OCT, dict(payload=OctreeHeader(2, 65))),
    "height-zero": (_HYP, dict(payload=HyperpriorHeader(0, 8, 3, 1, b""))),
    "height-not-4k": (_HYP, dict(payload=HyperpriorHeader(6, 8, 3, 1, bytes(48)))),
    "width-not-4k": (_HYP, dict(payload=HyperpriorHeader(8, 10, 3, 1, bytes(96)))),
    "channels-zero": (_HYP, dict(payload=HyperpriorHeader(8, 8, 0, 1, b""))),
    "scale-table-zero": (_HYP, dict(payload=HyperpriorHeader(8, 8, 3, 0, bytes(96)))),
}


@pytest.mark.parametrize("fault", sorted(FIELD_FAULTS))
def test_read_rejects_every_field_fault_write_rejects(fault, monkeypatch):
    kind, fields = FIELD_FAULTS[fault]
    container.read(container.write(_stream(kind)))  # the base stream is valid
    bad = _stream(kind, **fields)
    with pytest.raises(FieldValueError):
        container.write(bad)
    with monkeypatch.context() as m:  # the bytes write would emit unchecked
        m.setattr(container, "_check_stream", lambda stream: None)
        data = container.write(bad)
    with pytest.raises(FieldValueError):
        container.read(data)

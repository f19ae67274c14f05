"""Streams that parse but cannot be decoded, configs a header cannot name,
and field faults that the container's reader and writer must agree on."""

import dataclasses
import time

import numpy as np
import pytest

from reproguard import (
    FlagReader,
    GuardConfig,
    GuardMode,
    QuantGrid,
    cli,
    container,
    encode_flags,
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
)
from reproguard.errors import (
    ConfigError,
    FieldValueError,
    InvalidInputError,
    MalformedStreamError,
    TrailingDataError,
    TruncatedStreamError,
)
from reproguard.quantizer import default_scale_table


def _octree(protect=True):
    cloud = octree.synth_cloud("dense", 5, 300, seed=1)
    stream = octree.encode(cloud, octree.make_pc_config(1e-4, 250), protect=protect)
    return stream, lambda s: octree.decode(s)


def _hyperprior(protect=True):
    lat = hyperprior.synth_latents(8, 8, 4, seed=1)
    stream = hyperprior.encode(lat, hyperprior.make_image_config(1e-4), protect=protect)
    return stream, lambda s: hyperprior.decode(s)


def _raw():
    cfg = GuardConfig(grid=QuantGrid.uniform(0.01), epsilon=1e-4, mode=GuardMode.FULL)
    values = np.random.default_rng(1).normal(0.0, 1.0, 500)
    stream = raw_values.encode_values(values, cfg)
    return stream, lambda s: raw_values.decode_values(s, values)


PAYLOADS = {"octree": _octree, "hyperprior": _hyperprior, "raw": _raw}


def _replaced(stream, **fields):
    """``stream`` with ``fields`` replaced, where ``q`` is its payload
    header's step."""
    if "q" in fields:
        fields["payload"] = dataclasses.replace(stream.payload, q=fields.pop("q"))
    return dataclasses.replace(stream, **fields)


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
# the header rebuilds the encoder's grid, and an encoder rejects any other


def _grid_cases():
    """(encode, config) of each payload on each grid case."""
    cloud = octree.synth_cloud("dense", 4, 60, seed=3)
    values = np.random.default_rng(3).normal(0.0, 1.0, 200)
    lat = hyperprior.synth_latents(8, 8, 4, seed=3)
    cases = {
        f"octree-k{k}": (lambda c: octree.encode(cloud, c),
                         octree.make_pc_config(1e-5, k))
        for k in (1, 7, 250, 4096)
    }
    for q in (2.0**-6, 0.1, 1e-3):
        cfg = GuardConfig(grid=QuantGrid.uniform(q), epsilon=q / 100.0)
        cases[f"raw-q{q!r}"] = (lambda c: raw_values.encode_values(values, c), cfg)
    cases["hyperprior"] = (lambda c: hyperprior.encode(lat, c),
                           hyperprior.make_image_config(1e-4))
    return cases


GRID_CASES = _grid_cases()


@pytest.mark.parametrize("case", list(GRID_CASES))
def test_header_rebuilds_the_encoder_grid(case):
    encode, cfg = GRID_CASES[case]
    stream = container.read(container.write(encode(cfg)))
    assert container.open_stream(stream, stream.payload_kind)[0] == cfg


def _rejects_before_coding(module, encode, monkeypatch):
    """``encode()`` raises ConfigError before ``module`` guards or codes a
    value."""
    def never(*args):
        raise AssertionError("coding began before the grid check")

    for name in ("guard_encode_array", "encode_flags"):
        monkeypatch.setattr(module, name, never)
    with pytest.raises(ConfigError):
        encode()


def test_raw_grid_domain_the_header_cannot_name_is_rejected_at_encode(monkeypatch):
    # a uniform header carries no domain, so a decoder would not clip:
    # 0.0005 read back as -0.0003 would decode to -0.005, not 0.005
    grid = QuantGrid.uniform(0.01, domain=(0.0, 1.0))
    cfg = GuardConfig(grid=grid, epsilon=1e-3, mode=GuardMode.CENTER)
    _rejects_before_coding(
        raw_values, lambda: raw_values.encode_values(np.array([0.0005, 0.9995]), cfg),
        monkeypatch,
    )


# a grid on log sigma with a domain, but not the scale table
_FOREIGN_TABLE = QuantGrid.uniform(0.25, domain=(-2.0, 6.0))


@pytest.mark.parametrize(
    "grid", [_FOREIGN_TABLE, QuantGrid.uniform(0.5)], ids=["foreign-table", "uniform"]
)
def test_hyperprior_encode_rejects_a_grid_other_than_its_table(grid, monkeypatch):
    cfg = GuardConfig(grid=grid, epsilon=1e-4, mode=GuardMode.CENTER)
    lat = hyperprior.synth_latents(8, 8, 4, seed=1)
    _rejects_before_coding(hyperprior, lambda: hyperprior.encode(lat, cfg), monkeypatch)


def test_octree_encode_rejects_a_table_grid(monkeypatch):
    cfg = GuardConfig(grid=default_scale_table(), epsilon=1e-6, mode=GuardMode.CENTER)
    cloud = octree.synth_cloud("sparse", 3, 10, 0)
    _rejects_before_coding(octree, lambda: octree.encode(cloud, cfg), monkeypatch)


def test_raw_encode_rejects_a_table_outside_the_registry(monkeypatch):
    # a raw header carries a step and no domain, so no table has a name
    # there (tests/test_raw_values.py has the scale table's own case)
    cfg = GuardConfig(grid=_FOREIGN_TABLE, epsilon=1e-4, mode=GuardMode.CENTER)
    _rejects_before_coding(
        raw_values, lambda: raw_values.encode_values(np.array([0.5, 2.0]), cfg),
        monkeypatch,
    )


# ---------------------------------------------------------------------------
# decoder faults outside the container's reach


@pytest.mark.parametrize("cut", [3, 8])
def test_raw_main_length_must_match_the_value_count(cut):
    stream, _ = _raw()
    with pytest.raises(FieldValueError):
        raw_values.reference_values(
            dataclasses.replace(stream, main=stream.main[:-cut])
        )


@pytest.mark.parametrize("payload", ["octree", "hyperprior"])
def test_unprotected_stream_with_a_safeguard_section_is_trailing_data(payload):
    stream, decode = PAYLOADS[payload](protect=False)
    assert stream.flag_count == 0
    decode(stream)  # the untouched stream decodes
    bad = dataclasses.replace(stream, safeguard=b"\x01\x02\x03")
    with pytest.raises(TrailingDataError):
        decode(container.read(container.write(bad)))


def test_hyperprior_flipped_z_head_decodes_or_is_typed():
    # main opens with the rounded z, which the synthesis reads: a stream
    # with any one bit of that head flipped decodes, or raises a subclass of
    # MalformedStreamError
    lat = hyperprior.synth_latents(8, 8, 4, seed=1)
    stream, decode = _hyperprior()
    want = hyperprior.quantize_latents(lat.y)
    main = bytes(stream.main)
    head = 8  # bytes; coded alone, the 16 rounded z values take 6, then a flush
    changed = 0
    for bit in range(8 * head):
        flipped = bytearray(main)
        flipped[bit // 8] ^= 0x80 >> (bit % 8)
        try:
            got = decode(dataclasses.replace(stream, main=bytes(flipped)))
        except MalformedStreamError as exc:
            assert type(exc) is not MalformedStreamError
            changed += 1
            continue
        changed += not np.array_equal(got, want)
    assert changed == 8 * head  # every flip there reaches the decoded latents


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_hyperprior_non_finite_z_is_a_malformed_stream(bad):
    # z travels as rounded integers, so the one way left for a non-finite
    # value to reach it is a dim that sizes it: an in-memory stream skips
    # container.read's checks, so the decoder must type the fault itself
    stream, decode = _hyperprior()
    for dim in ("height", "width", "channels"):
        payload = dataclasses.replace(stream.payload, **{dim: bad})
        bad_stream = dataclasses.replace(stream, payload=payload)
        with pytest.raises(FieldValueError):
            decode(bad_stream)
        with pytest.raises(FieldValueError):
            container.write(bad_stream)


@pytest.mark.parametrize("dim", ["height", "channels"])
def test_hyperprior_hostile_dims_are_cheap_and_typed(dim):
    # about 2**31 in one dim declares billions of rounded z values: the
    # decoder refuses them for main's length before it sizes any array
    stream, decode = _hyperprior()
    payload = dataclasses.replace(stream.payload, **{dim: 2**31})
    data = container.write(dataclasses.replace(stream, payload=payload))
    start = time.perf_counter()
    with pytest.raises(TruncatedStreamError):
        decode(container.read(data))
    assert time.perf_counter() - start < 0.5


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "payload,fields",
    [
        ("octree", dict(epsilon=_NAN)),
        ("octree", dict(epsilon=_INF)),
        ("octree", dict(q=_NAN)),
        ("hyperprior", dict(epsilon=_NAN)),
        ("hyperprior", dict(epsilon=_INF)),
        ("raw", dict(epsilon=_NAN)),
        ("raw", dict(epsilon=-_INF)),
        ("raw", dict(q=_NAN)),
        ("raw", dict(epsilon=None)),
        ("octree", dict(q=None)),
    ],
    ids=["octree-eps-nan", "octree-eps-inf", "octree-q-nan", "hyperprior-eps-nan",
         "hyperprior-eps-inf", "raw-eps-nan", "raw-eps-neg-inf", "raw-q-nan",
         "raw-eps-none", "octree-q-none"],
)
def test_non_finite_header_field_is_a_malformed_stream(payload, fields):
    # an in-memory stream skips container.read's checks, so the decoder's
    # own config builder must type the fault, as write's checks do
    stream, decode = PAYLOADS[payload]()
    bad = _replaced(stream, **fields)
    with pytest.raises(FieldValueError):
        decode(bad)
    with pytest.raises(FieldValueError):
        container.write(bad)


@pytest.mark.parametrize(
    "bit_depth,point_count",
    [(0, 1), (22, 1), (6.0, 1), (5, 0), (5, 8**5 + 1)],
    ids=["depth-0", "depth-22", "depth-float", "points-0", "points-over"],
)
def test_impossible_octree_header_in_memory_is_a_malformed_stream(
    bit_depth, point_count
):
    # open_stream runs the header checks write runs, so the decoder refuses
    # the header itself, not whatever decoding it would lead to
    stream, decode = _octree()
    bad = _replaced(stream, payload=OctreeHeader(bit_depth, point_count, 0.004))
    for refuse in (decode, container.write):
        with pytest.raises(FieldValueError, match=r"outside \[1, 21\]|impossible"):
            refuse(bad)


# ---------------------------------------------------------------------------
# a risky flag on a domain edge, where no encoder sets one
#
# Values beyond an edge clamp onto it, so the edge boundary is never risky.
# A FULL flag there whose direction bit points out of the domain, left at a
# lower edge (LEFT) or right at an upper one (RIGHT), names a bin outside
# it; one whose bit points in (FULL) names the edge bin, and a CENTER flag
# the boundary itself.  Each is refused.  An octree has only its upper edge
# in reach, so its LEFT flag points in as well.
EDGE_FLAGS = {  # name: (mode, direction bit, 0 left and 1 right)
    "FULL": (GuardMode.FULL, None),  # None: the bit that points in
    "LEFT": (GuardMode.FULL, 0),
    "RIGHT": (GuardMode.FULL, 1),
    "CENTER": (GuardMode.CENTER, None),
}


def _with_flag(stream, at: int, direction: int):
    """``stream`` with one more risky flag, at value ``at``; in FULL mode its
    direction bit is ``direction`` (0 left, 1 right)."""
    n = stream.flag_count
    risky, fd = FlagReader(stream.safeguard, n, stream.mode).take(n)
    fr = np.zeros(n, dtype=np.uint8)
    fr[risky] = 1
    fr[at] = 1
    if stream.mode == GuardMode.FULL:
        fd = np.insert(fd, np.count_nonzero(fr[:at]), direction)
    return dataclasses.replace(stream, safeguard=encode_flags(fr, fd, stream.mode))


def _octree_edge_flag(mode, direction, monkeypatch):
    """A depth-6 octree stream with a flag, of ``direction`` in FULL mode,
    on the first probability the decoder rounds to the top edge, 1.  The
    flags before it are the encoder's, so the decoder reaches it on the
    encoder's tree.  The model's parent probabilities lie in about [0.957,
    0.997], so the grid is k = 10, whose top half bin holds them."""
    cloud = octree.synth_cloud("dense", 6, 600, seed=5)
    cfg = octree.make_pc_config(5e-4, 10, mode)
    stream = octree.encode(cloud, cfg)
    seen = []
    guard = octree.guard_decode_array

    def record(cfg, v, at, f_d=()):
        seen.append(np.asarray(v))
        return guard(cfg, v, at, f_d)

    with monkeypatch.context() as m:
        m.setattr(octree, "guard_decode_array", record)
        octree.decode(stream)
    at = np.flatnonzero(np.concatenate(seen) > 1.0 - cfg.grid.q / 2)[0]
    return _with_flag(stream, int(at), 0 if direction is None else direction)


@pytest.mark.parametrize("case", list(EDGE_FLAGS))
def test_octree_flag_on_the_domain_edge_is_malformed(case, monkeypatch):
    bad = _octree_edge_flag(*EDGE_FLAGS[case], monkeypatch)
    with pytest.raises(FieldValueError, match="domain edge"):
        octree.decode(container.read(container.write(bad)))


@pytest.mark.parametrize("case", list(EDGE_FLAGS))
def test_hyperprior_flag_on_the_domain_edge_is_malformed(case):
    mode, direction = EDGE_FLAGS[case]
    # z this large rounds to 32, which drives log scales below the table's
    # low end; its top end, sigma near 287, is beyond any rounded z's reach
    lat = hyperprior.synth_latents(8, 8, 4, seed=1)
    lat = dataclasses.replace(lat, z=np.full(lat.z.shape, 1e6))
    stream = hyperprior.encode(lat, hyperprior.make_image_config(1e-4, mode))
    z_hat = hyperprior.quantize_latents(lat.z)
    log_sig = hyperprior.hyper_synthesis(z_hat).reshape(-1)
    at = np.flatnonzero(log_sig <= default_scale_table().domain[0])[0]
    bad = _with_flag(stream, int(at), 1 if direction is None else direction)
    with pytest.raises(FieldValueError, match="domain edge"):
        hyperprior.decode(container.read(container.write(bad)))


# ---------------------------------------------------------------------------
# a uniform domain narrower than one bin


def test_octree_step_wider_than_the_unit_domain_is_a_malformed_stream():
    # both edges of [0, 1] round to boundary 0 of a 1e300 step
    stream, decode = _octree()
    bad = _replaced(stream, q=1e300)
    parsed = container.read(container.write(bad))
    with pytest.raises(FieldValueError):
        container.open_stream(parsed, container.PayloadKind.OCTREE)
    with pytest.raises(FieldValueError):
        decode(parsed)


# ---------------------------------------------------------------------------
# bin indices beyond 2**53, where float64 stops holding every integer


def test_raw_stream_with_bin_indices_beyond_2_53_is_malformed():
    # every value's bin index under a 1e-300 step is near 1e300
    stream, decode = _raw()
    bad = _replaced(stream, q=1e-300, epsilon=1e-310)
    with pytest.raises(FieldValueError):
        decode(container.read(container.write(bad)))


def test_raw_encode_rejects_bin_indices_beyond_2_53():
    cfg = GuardConfig(grid=QuantGrid.uniform(1e-300), epsilon=1e-310)
    with pytest.raises(InvalidInputError):
        raw_values.encode_values(np.array([0.25, -0.5]), cfg)


def _octree_tiny_step():
    """An octree stream whose header names a 1e-200 step: the unit domain's
    top edge sits at bin index 1e200."""
    stream, _ = _octree()
    return _replaced(stream, q=1e-200, epsilon=1e-210)


def test_octree_stream_with_bin_indices_beyond_2_53_is_malformed():
    parsed = container.read(container.write(_octree_tiny_step()))
    with pytest.raises(FieldValueError, match="2\\*\\*53"):
        container.open_stream(parsed, container.PayloadKind.OCTREE)
    with pytest.raises(FieldValueError, match="2\\*\\*53"):
        octree.decode(parsed)


def test_decode_pc_exits_malformed_on_a_tiny_step(tmp_path, capsys):
    path = tmp_path / "tiny-step.rgd"
    container.write_file(path, _octree_tiny_step())
    assert cli.main(["decode-pc", "--input", str(path)]) == cli.EXIT_MALFORMED
    assert "DECODE FAILURE" in capsys.readouterr().out


def _octree_short_of_points():
    """A depth-6 stream whose header declares 50 more points than its tree
    has leaves."""
    cloud = octree.synth_cloud("sparse", 6, 300, seed=2)
    stream = octree.encode(cloud, octree.make_pc_config(1e-6))
    header = dataclasses.replace(stream.payload, point_count=len(cloud) + 50)
    return dataclasses.replace(stream, payload=header)


def test_octree_point_count_above_the_decoded_leaves_is_malformed():
    parsed = container.read(container.write(_octree_short_of_points()))
    with pytest.raises(MalformedStreamError, match="point count"):
        octree.decode(parsed)


def test_decode_pc_exits_malformed_on_hostile_streams(tmp_path, monkeypatch, capsys):
    stream, _ = _octree()
    hostile = {
        "edge-flag": _octree_edge_flag(GuardMode.FULL, 1, monkeypatch),
        "wide-step": _replaced(stream, q=1e300),
        "short-of-points": _octree_short_of_points(),
    }
    for name, bad in hostile.items():
        path = tmp_path / f"{name}.rgd"
        container.write_file(path, bad)
        assert cli.main(["decode-pc", "--input", str(path)]) == cli.EXIT_MALFORMED
        assert "DECODE FAILURE" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# read rejects every field fault write rejects


_OCT, _HYP, _RAW = PayloadKind.OCTREE, PayloadKind.HYPERPRIOR, PayloadKind.RAW


def _stream(kind, **fields):
    """A valid stream of payload ``kind`` with ``fields`` replaced."""
    payload = {
        _OCT: OctreeHeader(bit_depth=2, point_count=5, q=0.004),
        _HYP: HyperpriorHeader(8, 8, 3),
        _RAW: RawHeader(value_count=3, q=0.004),
    }[kind]
    base = GuardedStream(
        mode=GuardMode.CENTER,
        epsilon=1e-6,
        flag_count=3,
        payload=payload,
        safeguard=b"\x01\x02",
        main=b"\x03" * 24,
    )
    return _replaced(base, **fields)


# None: the field follows from the stream object, so only bytes carry the
# fault; the payload kind byte is the payload header's type
FIELD_FAULTS = {
    "mode": (_RAW, dict(mode=7)),
    "payload-kind": (_RAW, None),
    "epsilon-zero": (_RAW, dict(epsilon=0.0)),
    "epsilon-negative": (_OCT, dict(epsilon=-1e-6)),
    "epsilon-inf": (_RAW, dict(epsilon=float("inf"))),
    "epsilon-nan": (_HYP, dict(epsilon=float("nan"))),
    "q-zero": (_RAW, dict(q=0.0)),
    "q-negative": (_OCT, dict(q=-0.5)),
    "q-nan": (_RAW, dict(q=float("nan"))),
    "bit-depth-zero": (_OCT, dict(payload=OctreeHeader(0, 1, 0.004))),
    "bit-depth-22": (_OCT, dict(payload=OctreeHeader(22, 1, 0.004))),
    "point-count-zero": (_OCT, dict(payload=OctreeHeader(2, 0, 0.004))),
    "point-count-over": (_OCT, dict(payload=OctreeHeader(2, 65, 0.004))),
    "height-zero": (_HYP, dict(payload=HyperpriorHeader(0, 8, 3))),
    "height-not-4k": (_HYP, dict(payload=HyperpriorHeader(6, 8, 3))),
    "width-not-4k": (_HYP, dict(payload=HyperpriorHeader(8, 10, 3))),
    "channels-zero": (_HYP, dict(payload=HyperpriorHeader(8, 8, 0))),
}


@pytest.mark.parametrize("fault", sorted(FIELD_FAULTS))
def test_read_rejects_every_field_fault_write_rejects(fault, monkeypatch):
    kind, fields = FIELD_FAULTS[fault]
    good = container.write(_stream(kind))
    container.read(good)  # the base stream is valid
    if fields is None:
        data = bytes([*good[:6], 5, *good[7:]])  # kind 5 is no payload's
    else:
        bad = _stream(kind, **fields)
        with pytest.raises(FieldValueError):
            container.write(bad)
        with monkeypatch.context() as m:  # the bytes write would emit unchecked
            m.setattr(container, "_check_stream", lambda stream: None)
            data = container.write(bad)
    with pytest.raises(FieldValueError):
        container.read(data)

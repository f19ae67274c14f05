"""Tests for the generic guarded-value payload."""

import tracemalloc

import numpy as np
import pytest

from reproguard import raw_values
from reproguard.container import (
    GuardedStream,
    PayloadKind,
    open_stream,
    read,
    write,
)
from reproguard.errors import ConfigError, FieldValueError, InvalidInputError
from reproguard.quantizer import QuantGrid, default_scale_table
from reproguard.raw_values import (
    decode_values,
    encode_values,
    reference_values,
)
from reproguard.safeguard import GuardConfig, GuardMode

GRID = QuantGrid.uniform(0.01)
EPS = 1e-3


def cfg_for(mode):
    return GuardConfig(grid=GRID, epsilon=EPS, mode=mode)


def sample_values(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.uniform(-5.0, 5.0, size=n)
    # plant values right at and around boundaries
    k = rng.integers(-400, 400, size=n // 4)
    u = rng.choice([0.0, 0.5, 0.999, 1.0, 1.001, 2.0], size=n // 4)
    sgn = rng.choice([-1.0, 1.0], size=n // 4)
    v[: n // 4] = k * 0.01 + sgn * u * EPS
    return v


@pytest.mark.parametrize("mode", list(GuardMode))
def test_perturbed_decode_matches_reference(mode):
    v = sample_values(4000, seed=hash(mode) % 1000)
    stream = encode_values(v, cfg_for(mode))
    want = reference_values(stream)
    rng = np.random.default_rng(1)
    for _ in range(5):
        delta = rng.uniform(-0.999 * EPS, 0.999 * EPS, size=v.shape)
        got = decode_values(stream, v + delta)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_reference_values_are_the_shipped_doubles():
    v = sample_values(100, seed=3)
    stream = encode_values(v, cfg_for(GuardMode.CENTER))
    assert stream.main == reference_values(stream).astype(">f8").tobytes()
    assert stream.payload.value_count == 100
    assert stream.flag_count == 100


def test_identity_decode_without_perturbation():
    v = sample_values(1000, seed=8)
    stream = encode_values(v, cfg_for(GuardMode.FULL))
    got = decode_values(stream, v)
    assert np.array_equal(
        got.view(np.uint64), reference_values(stream).view(np.uint64)
    )


def test_table_grid_payload(monkeypatch):
    # a raw header carries a uniform step only, so even the scale table is
    # rejected, before any value is guarded
    cfg = GuardConfig(grid=default_scale_table(), epsilon=1e-4, mode=GuardMode.CENTER)
    monkeypatch.setattr(raw_values, "guard_encode_array", None)
    with pytest.raises(ConfigError):
        encode_values(np.array([0.5, 2.0, 300.0]), cfg)


def test_container_roundtrip_keeps_the_contract():
    v = sample_values(300, seed=12)
    stream = read(write(encode_values(v, cfg_for(GuardMode.FULL))))
    got = decode_values(stream, v + 0.5 * EPS)
    assert np.array_equal(
        got.view(np.uint64), reference_values(stream).view(np.uint64)
    )


def test_read_gives_main_as_a_view_of_its_input():
    # 1M values: an 8 MB main section, which a copy would add to the peak
    v = sample_values(1_000_000, seed=4)
    blob = write(encode_values(v, cfg_for(GuardMode.FULL)))
    tracemalloc.start()
    try:
        stream = read(blob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20
    assert isinstance(stream.main, memoryview) and stream.main.readonly
    assert stream.main == blob[-8_000_000:]


def test_open_stream_reconstructs_the_config():
    v = sample_values(50, seed=2)
    stream = encode_values(v, cfg_for(GuardMode.FULL))
    cfg, _ = open_stream(stream, PayloadKind.RAW)
    assert cfg.grid == GRID
    assert cfg.mode == GuardMode.FULL
    assert cfg.epsilon == EPS
    assert cfg.grid.domain is None


def test_empty_vector():
    stream = encode_values(np.empty(0), cfg_for(GuardMode.CENTER))
    assert stream.flag_count == 0
    assert stream.main == b""
    assert reference_values(stream).shape == (0,)
    assert decode_values(stream, np.empty(0)).shape == (0,)


def test_nonfinite_rejected():
    with pytest.raises(InvalidInputError):
        encode_values(np.array([1.0, np.inf]), cfg_for(GuardMode.CENTER))


def test_count_mismatch():
    stream = encode_values(np.array([0.1, 0.2]), cfg_for(GuardMode.CENTER))
    with pytest.raises(InvalidInputError):
        decode_values(stream, np.array([0.1]))


def test_flag_count_tamper():
    s = encode_values(np.array([0.1, 0.2]), cfg_for(GuardMode.CENTER))
    tampered = GuardedStream(**{**s.__dict__, "flag_count": 1})
    with pytest.raises(FieldValueError):
        decode_values(tampered, np.array([0.1, 0.2]))


def test_wrong_payload_kind():
    from reproguard.octree import make_pc_config, encode as oenc, synth_cloud

    stream = oenc(synth_cloud("sparse", 3, 5, 0), make_pc_config(1e-6))
    with pytest.raises(FieldValueError):
        reference_values(stream)
    with pytest.raises(FieldValueError):
        decode_values(stream, np.zeros(1))

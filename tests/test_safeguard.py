import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from reproguard.errors import ConfigError, InvalidInputError
from reproguard.quantizer import QuantGrid, dequantize, quantize
from reproguard.safeguard import (
    FlagStream,
    GuardConfig,
    GuardMode,
    guard_decode_array,
    guard_encode_array,
    parse_mode,
)

GRID = QuantGrid.uniform(0.01, 0.0)
EPS = 0.001

ALL_MODES = [GuardMode.FULL, GuardMode.LEFT, GuardMode.RIGHT, GuardMode.CENTER]


def cfg_for(mode):
    return GuardConfig(grid=GRID, epsilon=EPS, mode=mode)


# ---------------------------------------------------------------------------
# encoder examples


def test_full_risky_below_boundary():
    v_out, fr, fd = guard_encode_array(cfg_for(GuardMode.FULL), [0.0195])
    assert (fr[0], fd[0]) == (1, 0)
    assert v_out[0] == 0.015


def test_full_risky_above_boundary():
    v_out, fr, fd = guard_encode_array(cfg_for(GuardMode.FULL), [0.0204])
    assert (fr[0], fd[0]) == (1, 1)
    assert v_out[0] == 0.025


@pytest.mark.parametrize("mode", ALL_MODES)
def test_safe_value_any_mode(mode):
    v_out, fr, fd = guard_encode_array(cfg_for(mode), [0.016])
    assert fr[0] == 0
    assert fd[0] == -1  # no direction flag
    assert v_out[0] == 0.015


def test_center_major_outputs_boundary():
    v_out, fr, _ = guard_encode_array(cfg_for(GuardMode.CENTER), [0.0195])
    assert fr[0] == 1
    assert v_out[0] == 0.02


def test_left_major_shifts_left_even_from_the_right():
    v_out, fr, _ = guard_encode_array(cfg_for(GuardMode.LEFT), [0.0204])
    assert fr[0] == 1
    assert v_out[0] == 0.015


def test_right_major_mirrors():
    v_out, fr, _ = guard_encode_array(cfg_for(GuardMode.RIGHT), [0.0196])
    assert fr[0] == 1
    assert v_out[0] == 0.025


# ---------------------------------------------------------------------------
# decoder examples


def test_decode_full_left_direction():
    assert guard_decode_array(cfg_for(GuardMode.FULL), [0.0203], [1], [0])[0] == 0.015


def test_decode_safe_path():
    assert guard_decode_array(cfg_for(GuardMode.FULL), [0.0168], [0])[0] == 0.015


def test_decode_center_major():
    assert guard_decode_array(cfg_for(GuardMode.CENTER), [0.0186], [1])[0] == 0.02


def test_decode_full_missing_direction():
    with pytest.raises(InvalidInputError):
        guard_decode_array(cfg_for(GuardMode.FULL), [0.0203], [1], [-1])


# ---------------------------------------------------------------------------
# flag streams


def test_finalize_mostly_safe():
    fs = FlagStream.from_arrays(np.array([0] * 999 + [1]))
    assert fs.p0 == pytest.approx(0.999)
    assert fs.p0_q16 == 65470


def test_finalize_all_safe_clamps():
    fs = FlagStream.from_arrays(np.zeros(100))
    assert fs.p0_q16 == 65535


def test_finalize_empty_default():
    fs = FlagStream.from_arrays(np.empty(0))
    assert fs.p0_q16 == 32768


def test_from_arrays_counts_directions():
    fr = np.array([1, 0, 1], dtype=np.uint8)
    fd = np.array([0, -1, 1], dtype=np.int8)
    fs = FlagStream.from_arrays(fr, fd)
    assert len(fs) == 3
    assert fs.f_r.tolist() == [1, 0, 1]
    assert fs.f_d.tolist() == [0, -1, 1]  # -1: no direction flag


# ---------------------------------------------------------------------------
# the reproduction guarantee


def _rng_cases(rng, grid, eps, n):
    """Uniform values plus values planted within a few epsilon of boundaries."""
    v = rng.uniform(0.0, 1.0, n)
    k = rng.integers(1, int(round(1.0 / grid.q)), n // 2)
    u = rng.choice([0.0, 0.5, 0.999, 1.0, 1.001, 2.0], n // 2)
    sign = rng.choice([-1.0, 1.0], n // 2)
    v[: n // 2] = k * grid.q + sign * u * eps
    return np.clip(v, 0.0, 1.0)


@pytest.mark.parametrize("mode", ALL_MODES)
@pytest.mark.parametrize("q,eps", [(0.004, 1e-5), (0.008, 1e-6)])
def test_guarantee_randomized(mode, q, eps):
    grid = QuantGrid.uniform(q, 0.0, domain=(0.0, 1.0))
    cfg = GuardConfig(grid=grid, epsilon=eps, mode=mode)
    rng = np.random.default_rng(1234)
    v = _rng_cases(rng, grid, eps, 20000)
    delta = rng.uniform(-0.999 * eps, 0.999 * eps, v.shape[0])

    v_out, fr, fd = guard_encode_array(cfg, v)
    got = guard_decode_array(cfg, v + delta, fr, fd if mode == GuardMode.FULL else None)
    assert np.array_equal(
        v_out.view(np.uint64), got.view(np.uint64)
    ), "decoder output differs bitwise"


@pytest.mark.parametrize("mode", ALL_MODES)
def test_guarantee_table_grid(mode):
    grid = QuantGrid.from_boundaries((0.0, 0.07, 0.21, 0.5, 0.55, 1.0))
    eps = 0.01
    cfg = GuardConfig(grid=grid, epsilon=eps, mode=mode)
    rng = np.random.default_rng(99)
    v = rng.uniform(0.0, 1.0, 30000)
    planted = np.concatenate(
        [b + s * u * eps for b in (0.07, 0.21, 0.5, 0.55)
         for s in (-1.0, 1.0)
         for u in (np.array([0.0, 0.5, 0.999, 1.0, 1.001, 2.0]),)]
    )
    v = np.clip(np.concatenate([v, planted]), 0.0, 1.0)
    delta = rng.uniform(-0.999 * eps, 0.999 * eps, v.shape[0])

    v_out, fr, fd = guard_encode_array(cfg, v)
    got = guard_decode_array(cfg, v + delta, fr, fd if mode == GuardMode.FULL else None)
    assert np.array_equal(v_out.view(np.uint64), got.view(np.uint64))


@settings(max_examples=200)
@given(
    st.sampled_from(ALL_MODES),
    st.floats(0.0, 1.0),
    st.floats(-0.999, 0.999),
)
def test_guarantee_scalar(mode, v, u):
    grid = QuantGrid.uniform(0.01, 0.0, domain=(0.0, 1.0))
    cfg = GuardConfig(grid=grid, epsilon=0.001, mode=mode)
    v_out, fr, fd = guard_encode_array(cfg, [v])
    got = guard_decode_array(cfg, [v + u * 0.001], fr, fd)
    assert got[0] == v_out[0]


# ---------------------------------------------------------------------------
# structural properties


def test_risky_rounding_is_stable():
    # when f_r = 1, the rounded boundary must survive any |delta| < eps
    from reproguard.quantizer import round_index

    rng = np.random.default_rng(5)
    grid = QuantGrid.uniform(0.004, 0.0)
    cfg = GuardConfig(grid=grid, epsilon=1e-5, mode=GuardMode.CENTER)
    v = rng.uniform(0.0, 1.0, 50000)
    _, fr, _ = guard_encode_array(cfg, v)
    risky = v[fr == 1]
    for x in risky[:200]:
        m0, _ = round_index(grid, float(x))
        for d in (-0.999e-5, 0.999e-5):
            m1, _ = round_index(grid, float(x) + d)
            assert m1 == m0


def test_safe_bin_is_stable():
    rng = np.random.default_rng(6)
    grid = QuantGrid.uniform(0.004, 0.0)
    cfg = GuardConfig(grid=grid, epsilon=1e-5, mode=GuardMode.CENTER)
    v = rng.uniform(0.0, 1.0, 50000)
    _, fr, _ = guard_encode_array(cfg, v)
    safe = v[fr == 0]
    for d in (-0.999e-5, 0.999e-5):
        a = np.floor(safe / 0.004).astype(np.int64)
        b = np.floor((safe + d) / 0.004).astype(np.int64)
        assert np.array_equal(a, b)


@pytest.mark.parametrize("mode", ALL_MODES)
def test_modes_agree_on_safe_values(mode):
    base, _, _ = guard_encode_array(cfg_for(GuardMode.FULL), [0.0163])
    v_out, fr, _ = guard_encode_array(cfg_for(mode), [0.0163])
    assert fr[0] == 0 and v_out[0] == base[0]


def test_safe_vout_is_bin_center():
    cfg = cfg_for(GuardMode.CENTER)
    for v in (0.013, 0.0442, 0.7):
        v_out, fr, _ = guard_encode_array(cfg, [v])
        if fr[0] == 0:
            assert v_out[0] == dequantize(GRID, quantize(GRID, v))


def test_flag_rate_matches_two_epsilon_per_bin():
    rng = np.random.default_rng(7)
    grid = QuantGrid.uniform(1.0 / 250.0, 0.0, domain=(0.0, 1.0))
    eps = 1e-4
    cfg = GuardConfig(grid=grid, epsilon=eps, mode=GuardMode.CENTER)
    n = 500000
    v = rng.uniform(0.0, 1.0, n)
    _, fr, _ = guard_encode_array(cfg, v)
    p = 2.0 * eps * 249.0
    sd = np.sqrt(p * (1.0 - p) / n)
    assert abs(fr.mean() - p) < 3.0 * sd


# ---------------------------------------------------------------------------
# edges and config validation


def test_edge_zone_forces_safe_flag():
    grid = QuantGrid.uniform(0.01, 0.0, domain=(0.0, 1.0))
    cfg = GuardConfig(grid=grid, epsilon=0.001, mode=GuardMode.CENTER)
    _, fr, _ = guard_encode_array(cfg, [0.0, 0.0005, 0.001, 0.9995, 1.0])
    assert not fr.any()

    # and clipping itself
    v_out, _, _ = guard_encode_array(cfg, [1.7, 1.0, -0.2, 0.0])
    assert v_out[0] == v_out[1]
    assert v_out[2] == v_out[3]


def test_config_requires_margin():
    with pytest.raises(ConfigError):
        GuardConfig(grid=QuantGrid.uniform(0.004, 0.0), epsilon=0.002)


def test_parse_mode_accepts_names_and_ints():
    assert parse_mode("left") == GuardMode.LEFT
    assert parse_mode(3) == GuardMode.CENTER
    assert parse_mode(GuardMode.FULL) == GuardMode.FULL
    with pytest.raises(ConfigError):
        parse_mode("sideways")


def test_decode_array_requires_directions_in_full_mode():
    cfg = cfg_for(GuardMode.FULL)
    v = np.array([0.0195])
    _, fr, fd = guard_encode_array(cfg, v)
    with pytest.raises(InvalidInputError):
        guard_decode_array(cfg, v, fr, None)

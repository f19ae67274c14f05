import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from reproguard.errors import ConfigError, InvalidInputError
from reproguard.quantizer import (
    QuantGrid,
    default_scale_table,
    dequantize_array,
    quantize_array,
)
from reproguard.entropy import FlagReader, _zero_p16, encode_flags
from reproguard.safeguard import (
    GuardConfig,
    GuardMode,
    guard_decode_array,
    guard_encode_array,
    parse_mode,
)

GRID = QuantGrid.uniform(0.01)
EPS = 0.001

ALL_MODES = list(GuardMode)


def cfg_for(mode):
    return GuardConfig(grid=GRID, epsilon=EPS, mode=mode)


# ---------------------------------------------------------------------------
# encoder examples


def test_full_risky_below_boundary():
    v_out, fr, fd = guard_encode_array(cfg_for(GuardMode.FULL), [0.0195])
    assert (fr[0], fd.tolist()) == (1, [0])
    assert v_out[0] == 0.015


def test_full_risky_above_boundary():
    v_out, fr, fd = guard_encode_array(cfg_for(GuardMode.FULL), [0.0204])
    assert (fr[0], fd.tolist()) == (1, [1])
    assert v_out[0] == 0.025


def test_full_directions_are_one_per_risky_value_in_flag_order():
    v = [0.0204, 0.016, 0.0195, 0.0805, 0.0330, 0.0398]
    v_out, fr, fd = guard_encode_array(cfg_for(GuardMode.FULL), v)
    assert fr.tolist() == [1, 0, 1, 1, 0, 1]
    assert fd.dtype == np.uint8 and fd.tolist() == [1, 0, 1, 0]
    assert v_out.tolist() == [0.025, 0.015, 0.015, 0.085, 0.035, 0.035]


def test_center_ships_no_directions():
    _, fr, fd = guard_encode_array(cfg_for(GuardMode.CENTER), [0.0204, 0.0195])
    assert fr.tolist() == [1, 1] and fd.shape == (0,)


@pytest.mark.parametrize("mode", ALL_MODES)
def test_safe_value_any_mode(mode):
    v_out, fr, fd = guard_encode_array(cfg_for(mode), [0.016])
    assert fr[0] == 0
    assert fd.shape == (0,)  # no risky value, so no direction bit
    assert v_out[0] == 0.015


def test_center_major_outputs_boundary():
    v_out, fr, _ = guard_encode_array(cfg_for(GuardMode.CENTER), [0.0195])
    assert fr[0] == 1
    assert v_out[0] == 0.02


# ---------------------------------------------------------------------------
# decoder examples


def test_decode_full_left_direction():
    assert guard_decode_array(cfg_for(GuardMode.FULL), [0.0197], [1], [0])[0] == 0.015


# LeftMajor's and RightMajor's rules, the bin below or above, are FULL's two
# direction bits: the bit, not the side the decoder's copy lies on, picks it.


def test_left_major_shifts_left_even_from_the_right():
    assert guard_decode_array(cfg_for(GuardMode.FULL), [0.0203], [1], [0])[0] == 0.015


def test_right_major_mirrors():
    assert guard_decode_array(cfg_for(GuardMode.FULL), [0.0197], [1], [1])[0] == 0.025


def test_decode_safe_path():
    assert guard_decode_array(cfg_for(GuardMode.FULL), [0.0168], [0])[0] == 0.015


def test_decode_center_major():
    assert guard_decode_array(cfg_for(GuardMode.CENTER), [0.0186], [1])[0] == 0.02


def test_decode_full_missing_direction():
    # one direction bit per risky flag: none, two or a 2-d one are refused
    for f_d in ([], [0, 1], [[0]]):
        with pytest.raises(InvalidInputError):
            guard_decode_array(cfg_for(GuardMode.FULL), [0.0203, 0.0168], [1, 0], f_d)


# ---------------------------------------------------------------------------
# flag streams: the zero rate their section is coded at follows from the
# flag count and the risky count R


def test_finalize_mostly_safe():
    p0 = _zero_p16(1000, 1)
    assert p0 / 65536 == pytest.approx(0.999, abs=2**-17)
    assert p0 == 65470


def test_finalize_all_safe_clamps():
    assert _zero_p16(100, 0) == 65535
    assert _zero_p16(100, 100) == 1


def test_finalize_empty_default():
    assert _zero_p16(0, 0) == 32768


def test_from_arrays_counts_directions():
    # the guard's arrays go to the flag coder as they are: one flag per
    # value, one direction bit per risky flag in FULL mode and none in CENTER
    _, fr, fd = guard_encode_array(cfg_for(GuardMode.FULL), [0.0203, 0.505, 0.0298])
    assert fr.tolist() == [1, 0, 1]
    assert fd.dtype == np.uint8 and fd.tolist() == [1, 0]
    data = encode_flags(fr, fd, GuardMode.FULL)
    got_at, got_fd = FlagReader(data, 3, GuardMode.FULL).take(3)
    assert got_at.tolist() == [0, 2] and got_fd.tolist() == [1, 0]
    _, fr, fd = guard_encode_array(cfg_for(GuardMode.CENTER), [0.0203, 0.505, 0.0298])
    assert fr.tolist() == [1, 0, 1] and fd.shape == (0,)


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
    grid = QuantGrid.uniform(q, domain=(0.0, 1.0))
    cfg = GuardConfig(grid=grid, epsilon=eps, mode=mode)
    rng = np.random.default_rng(1234)
    v = _rng_cases(rng, grid, eps, 20000)
    delta = rng.uniform(-0.999 * eps, 0.999 * eps, v.shape[0])

    v_out, fr, fd = guard_encode_array(cfg, v)
    got = guard_decode_array(cfg, v + delta, fr, fd)
    assert np.array_equal(
        v_out.view(np.uint64), got.view(np.uint64)
    ), "decoder output differs bitwise"


@pytest.mark.parametrize("mode", ALL_MODES)
def test_guarantee_table_grid(mode):
    # the hyperprior's scale table, a grid on log sigma with a domain
    grid = default_scale_table()
    lo, hi = grid.domain
    eps = 0.01
    cfg = GuardConfig(grid=grid, epsilon=eps, mode=mode)
    rng = np.random.default_rng(99)
    v = rng.uniform(lo - 1.0, hi + 1.0, 30000)
    planted = np.concatenate(
        [b + s * u * eps for b in np.arange(-18, 47) * grid.q
         for s in (-1.0, 1.0)
         for u in (np.array([0.0, 0.5, 0.999, 1.0, 1.001, 2.0]),)]
    )
    v = np.clip(np.concatenate([v, planted]), lo, hi)
    delta = rng.uniform(-0.999 * eps, 0.999 * eps, v.shape[0])

    v_out, fr, fd = guard_encode_array(cfg, v)
    got = guard_decode_array(cfg, v + delta, fr, fd)
    assert np.array_equal(v_out.view(np.uint64), got.view(np.uint64))


@pytest.mark.parametrize("mode", ALL_MODES)
def test_zero_d_risky_value_on_a_table_grid(mode):
    # a 0-d value takes the same path as a 1-element array, on both sides
    cfg = GuardConfig(grid=default_scale_table(), epsilon=1e-4, mode=mode)
    v = np.asarray(-8 * cfg.grid.q + 1e-5)
    v_out, fr, fd = guard_encode_array(cfg, v)
    want, want_fr, want_fd = guard_encode_array(cfg, v.reshape(1))
    assert np.shape(v_out) == () and int(fr) == want_fr[0] == 1
    assert v_out.item() == want[0] and np.array_equal(fd, want_fd)
    got = guard_decode_array(cfg, np.asarray(v - 5e-5), fr, fd)
    assert isinstance(got, np.ndarray) and got.shape == ()
    assert got.view(np.uint64) == v_out.view(np.uint64)


@settings(max_examples=200)
@given(
    st.sampled_from(ALL_MODES),
    st.floats(0.0, 1.0),
    st.floats(-0.999, 0.999),
)
def test_guarantee_scalar(mode, v, u):
    grid = QuantGrid.uniform(0.01, domain=(0.0, 1.0))
    cfg = GuardConfig(grid=grid, epsilon=0.001, mode=mode)
    v_out, fr, fd = guard_encode_array(cfg, [v])
    got = guard_decode_array(cfg, [v + u * 0.001], fr, fd)
    assert got[0] == v_out[0]


# ---------------------------------------------------------------------------
# structural properties


def test_risky_rounding_is_stable():
    # when f_r = 1, the rounded boundary must survive any |delta| < eps
    from reproguard.quantizer import round_index_array

    rng = np.random.default_rng(5)
    grid = QuantGrid.uniform(0.004)
    cfg = GuardConfig(grid=grid, epsilon=1e-5, mode=GuardMode.CENTER)
    v = rng.uniform(0.0, 1.0, 50000)
    _, fr, _ = guard_encode_array(cfg, v)
    risky = v[fr == 1][:200]
    assert risky.size > 0
    m0, _ = round_index_array(grid, risky)
    for d in (-0.999e-5, 0.999e-5):
        m1, _ = round_index_array(grid, risky + d)
        assert np.array_equal(m1, m0)


def test_safe_bin_is_stable():
    rng = np.random.default_rng(6)
    grid = QuantGrid.uniform(0.004)
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
            assert v_out[0] == dequantize_array(GRID, quantize_array(GRID, [v]))[0]


def test_flag_rate_matches_two_epsilon_per_bin():
    rng = np.random.default_rng(7)
    grid = QuantGrid.uniform(1.0 / 250.0, domain=(0.0, 1.0))
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
    grid = QuantGrid.uniform(0.01, domain=(0.0, 1.0))
    cfg = GuardConfig(grid=grid, epsilon=0.001, mode=GuardMode.CENTER)
    _, fr, _ = guard_encode_array(cfg, [0.0, 0.0005, 0.001, 0.9995, 1.0])
    assert not fr.any()

    # and clipping itself
    v_out, _, _ = guard_encode_array(cfg, [1.7, 1.0, -0.2, 0.0])
    assert v_out[0] == v_out[1]
    assert v_out[2] == v_out[3]


def test_config_requires_margin():
    with pytest.raises(ConfigError):
        GuardConfig(grid=QuantGrid.uniform(0.004), epsilon=0.002)


def test_parse_mode_accepts_names_only():
    assert parse_mode("center") == GuardMode.CENTER
    assert parse_mode(GuardMode.FULL) == GuardMode.FULL
    # a wire value is the container's to read; the one-sided modes are gone
    for gone in ("sideways", "left", "right", 0, 3, 1, 2):
        with pytest.raises(ConfigError):
            parse_mode(gone)


def test_decode_array_requires_directions_in_full_mode():
    cfg = cfg_for(GuardMode.FULL)
    v = np.array([0.0195])
    _, fr, fd = guard_encode_array(cfg, v)
    with pytest.raises(InvalidInputError):
        guard_decode_array(cfg, v, fr, None)

"""Scale-hyperprior latent codec tests."""

import hashlib
import math

import numpy as np
import pytest

from reproguard.container import GuardedStream, config_for_stream, read, write
from reproguard.errors import ConfigError, FieldValueError, InvalidInputError
from reproguard.hyperprior import (
    LatentGrid,
    decode,
    default_scale_table,
    encode,
    hyper_synthesis,
    make_image_config,
    quantize_latents,
    synth_latents,
)
from reproguard.platform_sim import Perturbation
from reproguard.quantizer import quantize_array, validate
from reproguard.safeguard import GuardMode, guard_encode_array


class TestScaleTable:
    def test_endpoints(self):
        grid = default_scale_table()
        assert grid.boundaries[0] == 0.11
        assert grid.boundaries[-1] == 256.0

    def test_geometric_spacing(self):
        b = np.asarray(default_scale_table().boundaries)
        assert np.all(np.diff(b) > 0)
        ratios = b[1:] / b[:-1]
        expected = (256.0 / 0.11) ** (1.0 / 63.0)
        assert expected == pytest.approx(1.1305, abs=1e-3)
        assert np.allclose(ratios, expected, rtol=1e-12)

    def test_min_gap(self):
        grid = default_scale_table()
        assert grid.min_gap == pytest.approx(0.11 * ((256 / 0.11) ** (1 / 63) - 1), rel=1e-9)
        assert grid.min_gap == pytest.approx(0.0144, abs=1e-4)

    def test_validates_for_small_epsilon(self):
        validate(default_scale_table(), 1e-5)
        validate(default_scale_table(), 1e-4)

    def test_rejects_wide_epsilon(self):
        with pytest.raises(ConfigError):
            make_image_config(0.004)

    def test_built_once_and_fixed_by_the_payload_kind(self):
        # no header field names it: every hyperprior stream is on this table
        assert default_scale_table() is default_scale_table()
        lat = synth_latents(8, 8, 2, seed=0)
        stream = read(write(encode(lat, make_image_config(1e-4))))
        assert config_for_stream(stream).grid is default_scale_table()


class TestSynthLatents:
    def test_deterministic(self):
        a = synth_latents(16, 16, 3, seed=5)
        b = synth_latents(16, 16, 3, seed=5)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.sigma_true, b.sigma_true)

    def test_channel_std_tracks_sigma(self):
        lat = synth_latents(64, 64, 4, seed=2)
        std = lat.y.std(axis=(0, 1))
        assert np.all(np.abs(std / lat.sigma_true - 1.0) < 0.10)

    def test_sigma_range(self):
        for seed in range(5):
            s = synth_latents(8, 8, 16, seed=seed).sigma_true
            assert np.all((s >= 0.2) & (s <= 64.0))

    def test_smallest_instance(self):
        lat = synth_latents(4, 4, 1, seed=0)
        assert lat.dims == (4, 4, 1)
        assert lat.z.shape == (1, 1, 1)

    def test_unpooled_dims_rejected(self):
        with pytest.raises(InvalidInputError):
            synth_latents(6, 8, 1, seed=0)

    def test_mismatched_z_rejected(self):
        with pytest.raises(InvalidInputError):
            LatentGrid(
                y=np.zeros((8, 8, 2)),
                z=np.zeros((2, 2, 3)),
                sigma_true=np.ones(2),
            )


class TestHyperSynthesis:
    def test_deterministic(self):
        z = synth_latents(16, 16, 2, seed=1).z
        a = hyper_synthesis(z)
        b = hyper_synthesis(z)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_positive(self):
        for seed in range(10):
            z = synth_latents(16, 16, 4, seed=seed).z
            assert np.all(hyper_synthesis(z) > 0)

    # sha256 of hyper_synthesis(z).tobytes() for z ~ N(0, scale) of each
    # shape and seed; the last z saturates the softplus on both sides.  The
    # digests were recorded while the function still ended in a clip at
    # zero, so they show the clip never changed a bit.
    @pytest.mark.parametrize(
        "shape, seed, scale, digest",
        [
            ((1, 1, 1), 0, 3.0,
             "c39d7251e4278517ec3fccebc4a4b150acd43d405c04837b2ed6139b8536c5ed"),
            ((2, 3, 5), 1, 3.0,
             "b6b6bd03550a4957df9e854f43dd6940fe97b8598fa0d77937a693e0705eac64"),
            ((4, 4, 64), 2, 3.0,
             "fc7558a438830719199f098a04e8756f10c75b44a6852fe45fafa26557ea115b"),
            ((8, 2, 16), 3, 3.0,
             "c5a408dbcab4395e91972576fe409beb82e5bb5792de0b8ec600e94af615de67"),
            ((2, 2, 8), 4, 1e4,
             "4c7a14364141579ccc78cc1f421b8310b765477b69dd2d614afce2af64d3639f"),
        ],
        ids=["1x1x1", "2x3x5", "4x4x64", "8x2x16", "saturated"],
    )
    def test_output_bits_are_pinned(self, shape, seed, scale, digest):
        z = np.random.default_rng(seed).normal(0.0, scale, shape)
        assert hashlib.sha256(hyper_synthesis(z).tobytes()).hexdigest() == digest

    def test_protected_index_survives_small_shifts(self):
        cfg = make_image_config(1e-4)
        z = synth_latents(32, 32, 4, seed=3).z
        sig = hyper_synthesis(z).reshape(-1)
        v_out, fr, fd = guard_encode_array(cfg, sig)
        idx = quantize_array(cfg.grid, v_out)
        rng = np.random.default_rng(0)
        for _ in range(20):
            delta = rng.uniform(-0.999e-4, 0.999e-4, size=sig.shape)
            from reproguard.safeguard import guard_decode_array

            shifted = np.clip(sig + delta, *cfg.grid.domain)
            got = guard_decode_array(cfg, shifted, fr, fd)
            assert np.array_equal(quantize_array(cfg.grid, got), idx)

    def test_lowest_boundary_never_risky(self):
        # scales at or below the first boundary clamp into the edge zone,
        # where flags are forced safe
        cfg = make_image_config(1e-4)
        sig = np.array([0.01, 0.11, 0.11 + 0.5e-4, 0.109999])
        _, fr, _ = guard_encode_array(cfg, sig)
        assert not fr.any()


class TestQuantizeLatents:
    def test_rounding(self):
        y = np.array([[-0.4, 0.4, 1.6], [1.4, -1.6, 0.0]])
        got = quantize_latents(y)
        assert got.tolist() == [[0, 0, 2], [1, -2, 0]]

    def test_clamp(self):
        y = np.array([[1e9, -1e9, 32.7]])
        assert quantize_latents(y).tolist() == [[32, -32, 32]]


class TestCodec:
    def test_plain_roundtrip(self):
        lat = synth_latents(16, 16, 3, seed=4)
        stream = encode(lat, make_image_config(1e-4))
        out = decode(stream)
        assert np.array_equal(out, quantize_latents(lat.y))

    def test_full_mode_roundtrip(self):
        lat = synth_latents(16, 16, 2, seed=6)
        stream = encode(lat, make_image_config(1e-4, mode=GuardMode.FULL))
        out = decode(stream, perturb=Perturbation(8e-6, "uniform", 1))
        assert np.array_equal(out, quantize_latents(lat.y))

    def test_protected_survives_uniform_noise(self):
        lat = synth_latents(64, 64, 8, seed=7)
        stream = encode(lat, make_image_config(1e-4))
        want = quantize_latents(lat.y)
        for seed in (1, 2):
            out = decode(stream, perturb=Perturbation(8e-6, "uniform", seed))
            assert np.array_equal(out, want)

    def test_unprotected_breaks_under_adversarial_noise(self):
        failures = 0
        for seed in range(5):
            lat = synth_latents(64, 64, 8, seed=seed)
            stream = encode(lat, make_image_config(1e-4), protect=False)
            assert stream.flag_count == 0
            want = quantize_latents(lat.y)
            p = Perturbation(8e-6, "adversarial", seed)
            try:
                if not np.array_equal(decode(stream, perturb=p), want):
                    failures += 1
            except Exception:
                failures += 1
        assert failures >= 4

    def test_z_travels_bit_exact(self):
        lat = synth_latents(16, 16, 3, seed=9)
        stream = encode(lat, make_image_config(1e-4))
        assert stream.payload.z_blob == lat.z.astype(">f8").tobytes()
        back = np.frombuffer(stream.payload.z_blob, dtype=">f8").astype(np.float64)
        assert np.array_equal(
            back.view(np.uint64), lat.z.reshape(-1).view(np.uint64)
        )

    def test_container_roundtrip_preserves_decode(self):
        lat = synth_latents(16, 16, 2, seed=3)
        stream = encode(lat, make_image_config(1e-4))
        again = read(write(stream))
        assert np.array_equal(decode(again), decode(stream))

    def test_overhead_shrinks_with_epsilon(self):
        lat = synth_latents(32, 32, 4, seed=1)
        sizes = []
        for eps in (1e-4, 1e-5, 1e-6):
            stream = encode(lat, make_image_config(eps))
            sizes.append(len(stream.safeguard))
        assert sizes[0] > sizes[1] > 0
        assert sizes[1] >= sizes[2]

    def test_wrong_payload_kind(self):
        from reproguard.container import RawHeader

        raw = GuardedStream(
            mode=GuardMode.CENTER,
            epsilon=1e-4,
            flag_count=0,
            payload=RawHeader(value_count=0, q=0.004),
            safeguard=b"",
            main=b"",
        )
        with pytest.raises(FieldValueError):
            decode(raw)

    def test_flag_count_mismatch(self):
        lat = synth_latents(8, 8, 1, seed=0)
        s = encode(lat, make_image_config(1e-4))
        tampered = GuardedStream(**{**s.__dict__, "flag_count": s.flag_count + 1})
        with pytest.raises(FieldValueError):
            decode(tampered)

    def test_rate_is_at_least_model_entropy(self):
        lat = synth_latents(32, 32, 4, seed=5)
        cfg = make_image_config(1e-4)
        stream = encode(lat, cfg)
        # entropy of the coded symbols under the tables that coded them
        from reproguard.entropy import gaussian_cdf_table
        from reproguard.quantizer import dequantize_array
        from reproguard.safeguard import guard_encode_array

        sig = hyper_synthesis(lat.z).reshape(-1)
        v_out, _, _ = guard_encode_array(cfg, sig)
        mids = dequantize_array(cfg.grid, quantize_array(cfg.grid, v_out))
        syms = quantize_latents(lat.y).reshape(-1) + 32
        bits = 0.0
        for m, s in zip(mids.tolist(), syms.tolist()):
            cum = gaussian_cdf_table(m, 32)
            bits -= math.log2((cum[s + 1] - cum[s]) / 65536.0)
        assert len(stream.main) * 8 >= bits
        assert len(stream.main) * 8 <= bits * 1.01 + 64

"""Scale-hyperprior latent codec tests."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from reproguard.container import (
    GuardedStream,
    PayloadKind,
    open_stream,
    read,
    write,
)
from reproguard.errors import ConfigError, FieldValueError, InvalidInputError
from reproguard import hyperprior
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
    """A uniform grid on log sigma with the step of the geometric ladder of
    64 scales from 0.11 to 256."""

    def test_endpoints(self):
        grid = default_scale_table()
        lo, hi = grid.domain
        assert (lo, hi) == (-18 * grid.q, 46 * grid.q)
        # 64 bins, sigma from about 0.109 to 287
        assert quantize_array(grid, np.array([lo, hi])).tolist() == [-18, 45]
        assert math.exp(lo) == pytest.approx(0.1092, abs=1e-4)
        assert math.exp(hi) == pytest.approx(287.3, abs=0.1)

    def test_geometric_spacing(self):
        grid = default_scale_table()
        b = np.exp(np.arange(-18, 47) * grid.q)
        ratios = b[1:] / b[:-1]
        expected = (256.0 / 0.11) ** (1.0 / 63.0)
        assert expected == pytest.approx(1.1305, abs=1e-3)
        assert np.allclose(ratios, expected, rtol=1e-12)

    def test_min_gap(self):
        grid = default_scale_table()
        assert grid.q == pytest.approx(math.log(256 / 0.11) / 63, rel=1e-12)
        assert grid.q == pytest.approx(0.1231, abs=1e-4)

    def test_validates_for_small_epsilon(self):
        validate(default_scale_table(), 1e-5)
        validate(default_scale_table(), 1e-4)

    def test_rejects_wide_epsilon(self):
        # the margin is a quarter of the step on log sigma, about 0.0308
        make_image_config(0.03)
        with pytest.raises(ConfigError):
            make_image_config(0.031)

    def test_built_once_and_fixed_by_the_payload_kind(self):
        # no header field names it: every hyperprior stream is on this table
        assert default_scale_table() is default_scale_table()
        lat = synth_latents(8, 8, 2, seed=0)
        stream = read(write(encode(lat, make_image_config(1e-4))))
        cfg, _ = open_stream(stream, PayloadKind.HYPERPRIOR)
        assert cfg.grid is default_scale_table()


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

    @pytest.mark.parametrize(
        "dims",
        [(6, 8, 1), (8, 6, 2), (0, 8, 2), (8, 8, 0), (8.0, 8, 2), (8, 8, 2.0)],
        ids=repr,
    )
    def test_dims_outside_the_latent_rule_rejected(self, dims):
        with pytest.raises(InvalidInputError, match="latent"):
            synth_latents(*dims, seed=1)

    @pytest.mark.parametrize("seed", [0.5, 1.0, "1", -1, None], ids=repr)
    def test_seed_that_is_not_a_whole_number_rejected(self, seed):
        with pytest.raises(InvalidInputError, match="seed"):
            synth_latents(8, 8, 2, seed)

    def test_unpooled_grid_rejected(self):
        with pytest.raises(InvalidInputError, match="multiples of 4"):
            LatentGrid(
                y=np.zeros((6, 8, 2)),
                z=np.zeros((1, 2, 2)),
                sigma_true=np.ones(2),
            )

    def test_mismatched_z_rejected(self):
        with pytest.raises(InvalidInputError):
            LatentGrid(
                y=np.zeros((8, 8, 2)),
                z=np.zeros((2, 2, 3)),
                sigma_true=np.ones(2),
            )

    @pytest.mark.parametrize("field", ["y", "z"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_latents_rejected(self, field, bad):
        # rounding would code each of them as some integer without a word
        arrays = {"y": np.zeros((8, 8, 2)), "z": np.zeros((2, 2, 2))}
        arrays[field][1, 1, 1] = bad
        with pytest.raises(InvalidInputError, match="finite"):
            LatentGrid(**arrays, sigma_true=np.ones(2))

    @pytest.mark.parametrize("field", ["y", "z"])
    def test_latents_that_are_not_arrays_rejected(self, field):
        arrays = {"y": np.zeros((8, 8, 2)), "z": np.zeros((2, 2, 2))}
        arrays[field] = arrays[field].tolist()
        with pytest.raises(InvalidInputError, match="numpy arrays"):
            LatentGrid(**arrays, sigma_true=np.ones(2))


class TestHyperSynthesis:
    def test_deterministic(self):
        z = synth_latents(16, 16, 2, seed=1).z
        a = hyper_synthesis(z)
        b = hyper_synthesis(z)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_alternating_channel_counts_give_identical_bits(self):
        # the weights are cached for one channel count at a time, so every
        # call below after the first two draws them again
        rng = np.random.default_rng(6)
        za, zb = rng.normal(0.0, 3.0, (2, 2, 8)), rng.normal(0.0, 3.0, (2, 3, 5))
        first = [hyper_synthesis(z).tobytes() for z in (za, zb)]
        for _ in range(3):
            assert [hyper_synthesis(z).tobytes() for z in (za, zb)] == first

    def test_zero_channels_rejected(self):
        with pytest.raises(InvalidInputError, match="channels"):
            hyper_synthesis(np.zeros((1, 1, 0)))

    def test_cached_weights_are_read_only(self):
        for w in hyperprior._synthesis_weights(8):
            assert not w.flags.writeable
            with pytest.raises(ValueError):
                w.reshape(-1)[0] = 0.0

    def test_positive(self):
        # the output is log sigma: every scale it names is finite and > 0
        for seed in range(10):
            z = synth_latents(16, 16, 4, seed=seed).z
            sigma = np.exp(hyper_synthesis(z))
            assert np.all(np.isfinite(sigma)) and np.all(sigma > 0)

    def test_log_scale_is_finite_where_softplus_underflows(self):
        # one channel: t = a*z + bias + offset, with bias and offset within
        # 1.4 of 0; z here puts t near -800, where softplus(t) is 0
        a = (hyperprior._unit_draws(1, 1)[0] * 2.0 - 1.0) * 0.9
        z = np.full((1, 1, 1), -800.0 / a)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_sigma = hyper_synthesis(z)
        assert np.all(np.isfinite(log_sigma))
        assert np.all(np.abs(log_sigma + 800.0) < 1.5)

    # sha256 of hyper_synthesis(z).tobytes() for z ~ N(0, scale) of each
    # shape and seed; the last z saturates the softplus on both sides.  The
    # digests were recorded when the function began to return log sigma.
    @pytest.mark.parametrize(
        "shape, seed, scale, digest",
        [
            ((1, 1, 1), 0, 3.0,
             "7d28d81839fa58aedd513eca77d30ff0dfd3d34f5ed7c144736f5c50eaa6711e"),
            ((2, 3, 5), 1, 3.0,
             "e367a5837fa44236e50fb058c978c7584083637f20b343b6db83665d496a74ba"),
            ((4, 4, 64), 2, 3.0,
             "4bacecb8ae7f5864f105fcc0d122573fd6c3e1e3f6040c7bed429d2d0358d27e"),
            ((8, 2, 16), 3, 3.0,
             "2e932fd2997dba6363beb7a0724f987400f86443734ee2add55a6f46908720f7"),
            ((2, 2, 8), 4, 1e4,
             "72e91bb5b3d35e9af3d362fda7dc1d7ffee2452705eb9b84aefc78c36497710a"),
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
            got = guard_decode_array(cfg, shifted, np.flatnonzero(fr), fd)
            assert np.array_equal(quantize_array(cfg.grid, got), idx)

    def test_lowest_boundary_never_risky(self):
        # log scales at or below the first boundary clamp onto it, where
        # flags are forced safe
        cfg = make_image_config(1e-4)
        lo = cfg.grid.domain[0]
        log_sig = np.array([-5.0, lo, lo + 0.5e-4, np.nextafter(lo, -9.0)])
        _, fr, _ = guard_encode_array(cfg, log_sig)
        assert not fr.any()


class TestQuantizeLatents:
    def test_rounding(self):
        y = np.array([[-0.4, 0.4, 1.6], [1.4, -1.6, 0.0]])
        got = quantize_latents(y)
        assert got.tolist() == [[0, 0, 2], [1, -2, 0]]

    def test_clamp(self):
        y = np.array([[1e9, -1e9, 32.7]])
        assert quantize_latents(y).tolist() == [[32, -32, 32]]

    def test_values_past_int64_keep_their_sign(self):
        y = np.array([1e300, 1e19, 9.3e18, 2.0**63, -1e300, -1e19, -9.3e18])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = quantize_latents(y)
        assert got.tolist() == [32, 32, 32, 32, -32, -32, -32]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvalidInputError):
            quantize_latents(np.array([0.0, bad]))

    def test_huge_latents_decode_to_the_alphabet_edge(self):
        lat = synth_latents(16, 16, 3, seed=4)
        y = lat.y.copy()
        y[0, 0, 0], y[5, 7, 1], y[15, 15, 2] = 1e300, 9.3e18, -1e19
        lat = LatentGrid(y=y, z=lat.z, sigma_true=lat.sigma_true)
        out = decode(encode(lat, make_image_config(1e-4)))
        assert np.array_equal(out, quantize_latents(y))
        assert [out[0, 0, 0], out[5, 7, 1], out[15, 15, 2]] == [32, 32, -32]


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

    def test_stream_depends_on_z_only_through_its_rounding(self):
        lat = synth_latents(16, 16, 3, seed=9)
        z_hat = quantize_latents(lat.z)
        assert not np.array_equal(z_hat, lat.z)
        rounded = LatentGrid(y=lat.y, z=z_hat.astype(np.float64),
                             sigma_true=lat.sigma_true)
        cfg = make_image_config(1e-4)
        for protect in (True, False):
            a = encode(lat, cfg, protect=protect)
            b = encode(rounded, cfg, protect=protect)
            assert a.main == b.main
            assert write(a) == write(b)

    def test_spans_are_built_by_the_decode_alone(self, monkeypatch):
        built, made = hyperprior._stream_tables, []

        def stream_tables(grid, idx):
            tables, ids = built(grid, idx)
            made.append(tables)
            return tables, ids

        monkeypatch.setattr(hyperprior, "_stream_tables", stream_tables)
        lat = synth_latents(16, 16, 4, seed=2)
        stream = encode(lat, make_image_config(1e-6))
        assert "spans" not in made[0].__dict__
        decode(stream)
        assert "spans" in made[1].__dict__

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

        z_hat = quantize_latents(lat.z)
        log_sig = hyper_synthesis(z_hat).reshape(-1)
        v_out, _, _ = guard_encode_array(cfg, log_sig)
        mids = dequantize_array(cfg.grid, quantize_array(cfg.grid, v_out))
        # main codes the rounded z against one table, then the latents
        sigmas = [hyperprior._Z_SCALE] * z_hat.size + np.exp(mids).tolist()
        syms = np.concatenate([z_hat, quantize_latents(lat.y)], axis=None)
        bits = 0.0
        for m, s in zip(sigmas, (syms + 32).tolist()):
            cum = gaussian_cdf_table(m, 32)
            bits -= math.log2((cum[s + 1] - cum[s]) / 65536.0)
        assert len(stream.main) * 8 >= bits
        assert len(stream.main) * 8 <= bits * 1.01 + 64

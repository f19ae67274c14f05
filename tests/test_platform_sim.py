"""Tests for the deterministic perturbation simulator."""

import warnings

import numpy as np
import pytest

from reproguard import hyperprior
from reproguard.errors import ConfigError
from reproguard.platform_sim import (
    PRESETS,
    Perturbation,
    preset,
    splitmix64_array,
    unit_draws,
    unit_from_u64,
)
from reproguard.quantizer import QuantGrid, quantize_array

GRID = QuantGrid.uniform(0.01)


def splitmix64(*states):
    return splitmix64_array(np.array(states, dtype=np.uint64)).tolist()


def splitmix64_int(state):
    """The splitmix64 finalizer on Python ints, reduced mod 2^64 by hand."""
    m = (1 << 64) - 1
    z = (state + 0x9E3779B97F4A7C15) & m
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & m
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & m
    return z ^ (z >> 31)


class TestSplitmix:
    def test_known_zero_input(self):
        # splitmix64(0): first output of the reference stream
        assert splitmix64(0) == [0xE220A8397B1DCDAF]

    def test_sequence_values(self):
        assert splitmix64(1, 2) == [0x910A2DEC89025CC1, 0x975835DE1C9756CE]

    @pytest.mark.parametrize("state", [0, 1, 2, 2**63, 2**64 - 1])
    def test_matches_python_int_finalizer(self, state):
        assert splitmix64(state) == [splitmix64_int(state)]

    def test_zero_dim_input_warns_of_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            z = splitmix64_array(np.array(2**64 - 1, dtype=np.uint64))
        assert int(z) == splitmix64_int(2**64 - 1)

    def test_input_left_unchanged(self):
        x = np.array([0, 1, 2**64 - 1], dtype=np.uint64)
        splitmix64_array(x)
        assert x.tolist() == [0, 1, 2**64 - 1]

    def test_unit_range(self):
        us = unit_from_u64(splitmix64_array(np.arange(1000, dtype=np.uint64)))
        assert np.all((us >= 0.0) & (us < 1.0))


GOLDEN = 0x9E3779B97F4A7C15
SEEDS = [0, 5, 2**64 - 1]
COUNTERS = [0, 3, 10**6]


def perturbation_draws(seed, counter, n):
    """The draw formula ``Perturbation`` once wrote out for itself."""
    with np.errstate(over="ignore"):
        idx = np.arange(counter, counter + n, dtype=np.uint64)
        state = np.uint64(seed) + idx * np.uint64(GOLDEN)
    return unit_from_u64(splitmix64_array(state))


def hyperprior_base(seed, tag):
    return (seed * GOLDEN + tag * 0xD1B54A32D192ED03) & ((1 << 64) - 1)


def hyperprior_draws(seed, tag, n):
    """The draw formula ``hyperprior`` once wrote out for its weights."""
    idx = np.arange(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        keys = np.uint64(hyperprior_base(seed, tag)) + idx * np.uint64(GOLDEN)
    return unit_from_u64(splitmix64_array(keys))


def bits(u):
    return u.view(np.uint64).tolist()


class TestUnitDraws:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("counter", COUNTERS)
    def test_matches_the_perturbation_formula(self, seed, counter):
        assert bits(unit_draws(seed, counter, 64)) == bits(
            perturbation_draws(seed, counter, 64)
        )

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("counter", COUNTERS)
    def test_matches_the_hyperprior_formula(self, seed, counter):
        old = hyperprior_draws(seed, 2, counter + 64)[counter:]
        assert bits(unit_draws(hyperprior_base(seed, 2), counter, 64)) == bits(old)

    @pytest.mark.parametrize("tag", [1, 2, 3])
    def test_hyperprior_weights_keep_their_seed_zero_draws(self, tag):
        assert bits(hyperprior._unit_draws(tag, 40)) == bits(hyperprior_draws(0, tag, 40))

    def test_perturbation_draws_from_its_seed_and_counter(self):
        pert = Perturbation(e_max=1.0, seed=5, counter=3)
        out = pert.perturb_array(np.zeros(16), GRID)
        assert bits(out) == bits(2.0 * unit_draws(5, 3, 16) - 1.0)


class TestNone:
    def test_identity(self):
        p = Perturbation(0.0, "none")
        assert p.perturb_array([0.42], GRID)[0] == 0.42

    def test_identity_array(self):
        p = Perturbation(0.0, "none")
        v = np.linspace(0.0, 1.0, 100)
        out = p.perturb_array(v, GRID)
        assert np.array_equal(out.view(np.uint64), v.view(np.uint64))


class TestUniform:
    def test_zero_bound_is_exact(self):
        p = Perturbation(e_max=0.0, dist="uniform", seed=3)
        v = np.linspace(-1.0, 1.0, 50)
        out = p.perturb_array(v, GRID)
        assert np.array_equal(out.view(np.uint64), v.view(np.uint64))

    def test_bound_respected(self):
        p = Perturbation(e_max=1e-6, dist="uniform", seed=17)
        v = np.full(1_000_000, 0.5)
        out = p.perturb_array(v, GRID)
        assert np.max(np.abs(out - v)) <= 1e-6

    def test_reproducible_across_instances(self):
        a = Perturbation(e_max=1e-6, dist="uniform", seed=5)
        b = Perturbation(e_max=1e-6, dist="uniform", seed=5)
        v = np.linspace(0.0, 1.0, 1000)
        assert np.array_equal(a.perturb_array(v, GRID), b.perturb_array(v, GRID))

    def test_counter_advances(self):
        p = Perturbation(e_max=1e-6, dist="uniform", seed=5)
        first = p.perturb_array([0.5], GRID)[0]
        second = p.perturb_array([0.5], GRID)[0]
        assert first != second
        assert p.counter == 2

    def test_reset_replays_the_stream(self):
        p = Perturbation(e_max=1e-6, dist="uniform", seed=5)
        v = np.linspace(0.0, 1.0, 64)
        first = p.perturb_array(v, GRID)
        p.counter = 0
        again = p.perturb_array(v, GRID)
        assert np.array_equal(first.view(np.uint64), again.view(np.uint64))

    def test_counter_start_determines_draws(self):
        a = Perturbation(e_max=1e-6, dist="uniform", seed=5)
        a.perturb_array(np.zeros(10), GRID)
        tail_a = a.perturb_array(np.full(5, 0.25), GRID)
        b = Perturbation(e_max=1e-6, dist="uniform", seed=5, counter=10)
        tail_b = b.perturb_array(np.full(5, 0.25), GRID)
        assert np.array_equal(tail_a.view(np.uint64), tail_b.view(np.uint64))

    def test_different_seeds_differ(self):
        v = np.full(100, 0.5)
        a = Perturbation(e_max=1e-6, dist="uniform", seed=1).perturb_array(v, GRID)
        b = Perturbation(e_max=1e-6, dist="uniform", seed=2).perturb_array(v, GRID)
        assert not np.array_equal(a, b)

    def test_deltas_fill_the_interval(self):
        p = Perturbation(e_max=1e-6, dist="uniform", seed=9)
        v = np.zeros(200_000)
        grid = QuantGrid.uniform(1.0)
        d = p.perturb_array(v, grid) - v
        assert d.min() < -0.98e-6 and d.max() > 0.98e-6
        assert abs(d.mean()) < 1e-8


class TestShapes:
    """Any input shape gets, element for element, the values of its
    flattened 1-D call, and advances the counter by its size."""

    @pytest.mark.parametrize("dist", ["none", "uniform", "adversarial"])
    @pytest.mark.parametrize("shape", [(), (3, 2), (2, 2)])
    def test_matches_the_flat_call(self, dist, shape):
        v = np.linspace(0.1, 0.9, int(np.prod(shape))).reshape(shape)
        flat = Perturbation(e_max=1e-6, dist=dist, seed=7, counter=3)
        shaped = Perturbation(e_max=1e-6, dist=dist, seed=7, counter=3)
        want = flat.perturb_array(v.ravel(), GRID)
        got = shaped.perturb_array(v, GRID)
        assert isinstance(got, np.ndarray) and got.shape == shape
        assert np.array_equal(got.ravel().view(np.uint64), want.view(np.uint64))
        assert shaped.counter == flat.counter == 3 + v.size


class TestAdversarial:
    def test_crosses_nearby_boundary(self):
        p = Perturbation(e_max=1e-6, dist="adversarial", seed=0)
        out = p.perturb_array([0.0199995], GRID)[0]
        assert out == pytest.approx(0.0200005, abs=1e-12)
        assert quantize_array(GRID, [out])[0] != quantize_array(GRID, [0.0199995])[0]

    def test_far_value_moves_full_step_toward_boundary(self):
        p = Perturbation(e_max=1e-6, dist="adversarial", seed=0)
        # nearest boundary of 0.014 is 0.01, too far to reach
        out = p.perturb_array([0.014], GRID)[0]
        assert out == pytest.approx(0.014 - 1e-6, abs=1e-12)
        assert quantize_array(GRID, [out])[0] == quantize_array(GRID, [0.014])[0]

    def test_bound_respected(self):
        p = Perturbation(e_max=1e-6, dist="adversarial", seed=0)
        v = np.linspace(0.001, 0.999, 100_001)
        out = p.perturb_array(v, GRID)
        assert np.max(np.abs(out - v)) <= 1e-6 * (1 + 1e-9)

    def test_domain_clip(self):
        grid = QuantGrid.uniform(0.01, domain=(0.0, 1.0))
        p = Perturbation(e_max=1e-3, dist="adversarial", seed=0)
        assert p.perturb_array([0.0], grid)[0] >= 0.0
        assert p.perturb_array([1.0], grid)[0] <= 1.0

    def test_deterministic(self):
        v = np.linspace(0.0, 1.0, 257)
        a = Perturbation(e_max=1e-6, dist="adversarial", seed=4).perturb_array(v, GRID)
        b = Perturbation(e_max=1e-6, dist="adversarial", seed=4).perturb_array(v, GRID)
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestValidation:
    def test_negative_bound_rejected(self):
        with pytest.raises(ConfigError):
            Perturbation(e_max=-1e-6, dist="uniform", seed=0)

    def test_unknown_dist_rejected(self):
        with pytest.raises(ConfigError):
            Perturbation(e_max=1e-6, dist="gaussian", seed=0)

    def test_nonfinite_input_rejected(self):
        from reproguard.errors import InvalidInputError

        p = Perturbation(e_max=1e-6, dist="uniform", seed=0)
        with pytest.raises(InvalidInputError):
            p.perturb_array([float("nan")], GRID)[0]


class TestPresets:
    def test_pcc_gpu(self):
        assert PRESETS["pcc-gpu"] == 5e-7
        p = preset("pcc-gpu")
        assert p.e_max == 5e-7 and p.dist == "uniform"

    def test_image_gpu(self):
        assert PRESETS["image-gpu"] == 8e-6
        assert preset("image-gpu", dist="adversarial").dist == "adversarial"

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset("tpu")

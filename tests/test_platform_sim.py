"""Tests for the deterministic perturbation simulator."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from reproguard import hyperprior, platform_sim
from reproguard.errors import ConfigError, InvalidInputError
from reproguard.platform_sim import (
    PRESETS,
    Perturbation,
    preset,
    splitmix64_array,
    unit_draws,
    unit_from_u64,
    unit_hash_inplace,
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
        assert type(z) is np.uint64 and int(z) == splitmix64_int(2**64 - 1)

    def test_input_left_unchanged(self):
        x = np.array([0, 1, 2**64 - 1], dtype=np.uint64)
        splitmix64_array(x)
        assert x.tolist() == [0, 1, 2**64 - 1]

    def test_unit_range(self):
        us = unit_from_u64(splitmix64_array(np.arange(1000, dtype=np.uint64)))
        assert np.all((us >= 0.0) & (us < 1.0))

    @pytest.mark.parametrize("shape", [(5,), (3, 4), ()])
    def test_in_place_hash_matches_the_two_step_form(self, shape):
        n = int(np.prod(shape))
        x = np.arange(2**64 - n, 2**64, dtype=np.uint64).reshape(shape)
        want = unit_from_u64(splitmix64_array(x))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = unit_hash_inplace(x.copy())
        assert got.shape == shape and got.dtype == np.float64
        assert bits(got.reshape(-1)) == bits(np.reshape(want, -1))


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


class TestDrawPositions:
    """A stream has draws 0 to 2**64 - 1, and a range outside it is refused
    rather than wrapped or left to numpy's cast."""

    @pytest.mark.parametrize(
        "start, n",
        [(-1, 3), (0, -2), (2**64 - 2, 3), (2**64, 1), (1.5, 2), (0, 2.0)],
    )
    def test_out_of_stream_ranges_refused(self, start, n):
        with pytest.raises(InvalidInputError):
            unit_draws(0, start, n)

    def test_the_stream_ends_at_its_last_draw(self):
        last = unit_draws(5, 2**64 - 2, 2)
        assert bits(last) == bits(perturbation_draws(5, 2**64 - 2, 2))
        assert unit_draws(5, 2**64, 0).shape == (0,)

    def test_numpy_integers_accepted(self):
        got = unit_draws(5, np.int64(3), np.uint32(4))
        assert bits(got) == bits(perturbation_draws(5, 3, 4))

    def test_perturbation_reaches_the_last_draw(self):
        p = Perturbation(e_max=1.0, seed=5, counter=2**64 - 3)
        out = p.perturb_array(np.zeros(3), GRID)
        assert bits(out) == bits(2.0 * perturbation_draws(5, 2**64 - 3, 3) - 1.0)
        with pytest.raises(InvalidInputError):
            p.perturb_array(np.zeros(1), GRID)
        assert p.counter == 2**64

    def test_reassigned_negative_counter_refused(self):
        p = Perturbation(e_max=1e-6, seed=5)
        p.counter = -4
        with pytest.raises(InvalidInputError):
            p.perturb_array(np.zeros(3), GRID)
        assert p.counter == -4


E_MAX = 1e-6


def reference_perturb(v, seed, counter, e_max=E_MAX):
    """``v`` perturbed as ``Perturbation`` did with no look-ahead: value i
    takes draw counter + i, from the reference formula."""
    v = np.asarray(v, dtype=np.float64)
    u = perturbation_draws(seed, counter, v.size).reshape(v.shape)
    return v + (2.0 * u - 1.0) * e_max


def values(n, offset=0):
    return np.linspace(0.1, 0.9, n) + offset * 1e-3


class TestLookAhead:
    """Draws are read a block ahead; no batching and no reassignment of a
    field between calls changes a value."""

    B = platform_sim._BLOCK

    def test_any_batching_equals_one_call(self):
        sizes = [1, 4095, 1, 4096, 4097, 3, self.B - 1, self.B, self.B + 1, 100_001]
        v = values(sum(sizes))
        p = Perturbation(e_max=E_MAX, seed=11, counter=7)
        parts, at = [], 0
        for n in sizes:
            parts.append(p.perturb_array(v[at : at + n], GRID))
            at += n
            assert p.counter == 7 + at
        assert bits(np.concatenate(parts)) == bits(reference_perturb(v, 11, 7))

    @pytest.mark.parametrize("counter", [0, 5, 30, 3, 2**40, 1])
    def test_moved_counter_equals_a_fresh_instance(self, counter):
        p = Perturbation(e_max=E_MAX, seed=3)
        p.perturb_array(values(20), GRID)  # a block is held from draw 0
        p.counter = counter
        got = p.perturb_array(values(9, 1), GRID)
        fresh = Perturbation(e_max=E_MAX, seed=3, counter=counter)
        assert bits(got) == bits(fresh.perturb_array(values(9, 1), GRID))
        assert bits(got) == bits(reference_perturb(values(9, 1), 3, counter))

    def test_reassigned_seed_and_bound_equal_a_fresh_instance(self):
        p = Perturbation(e_max=E_MAX, seed=3)
        p.perturb_array(values(20), GRID)
        p.seed, p.e_max = 4, 2e-6
        got = p.perturb_array(values(9), GRID)
        fresh = Perturbation(e_max=2e-6, seed=4, counter=20)
        assert bits(got) == bits(fresh.perturb_array(values(9), GRID))
        p.seed = 3  # back to the seed the held block was drawn at
        got = p.perturb_array(values(9), GRID)
        assert bits(got) == bits(reference_perturb(values(9), 3, 29, 2e-6))

    def test_reassigned_dist_keeps_the_counter_stream(self):
        p = Perturbation(e_max=E_MAX, seed=3)
        p.perturb_array(values(20), GRID)
        p.dist = "none"
        assert bits(p.perturb_array(values(5), GRID)) == bits(values(5))
        p.dist = "uniform"
        got = p.perturb_array(values(9), GRID)
        assert bits(got) == bits(reference_perturb(values(9), 3, 25))

    @pytest.mark.parametrize("shape", [(), (1,), (3, 5), (2, 1, 4)])
    def test_shaped_calls_after_a_held_block(self, shape):
        p = Perturbation(e_max=E_MAX, seed=3)
        p.perturb_array(values(20), GRID)
        v = values(int(np.prod(shape))).reshape(shape)
        got = p.perturb_array(v, GRID)
        assert isinstance(got, np.ndarray) and got.shape == shape
        assert bits(got.reshape(-1)) == bits(reference_perturb(v, 3, 20).reshape(-1))

    def test_domain_clamp_after_a_held_block(self):
        grid = QuantGrid.uniform(0.01, domain=(0.0, 1.0))
        p = Perturbation(e_max=1e-3, seed=3)
        p.perturb_array(values(20), grid)
        v = np.array([0.0, 1.0, 0.5, 0.0005])
        got = p.perturb_array(v, grid)
        want = np.minimum(np.maximum(reference_perturb(v, 3, 20, 1e-3), 0.0), 1.0)
        assert bits(got) == bits(want)

    def test_small_calls_share_one_hash_call(self, monkeypatch):
        calls = []
        draws = platform_sim.unit_draws

        def counting(base, start, n):
            calls.append((start, n))
            return draws(base, start, n)

        monkeypatch.setattr(platform_sim, "unit_draws", counting)
        p = Perturbation(e_max=E_MAX, seed=3)
        for _ in range(self.B // 8):
            p.perturb_array(values(8), GRID)
        p.perturb_array(values(1), GRID)
        p.perturb_array(values(self.B + 5), GRID)
        assert calls == [(0, self.B), (self.B, self.B), (self.B + 1, self.B + 5)]

    @pytest.mark.parametrize("held", [False, True])
    def test_refused_input_draws_nothing(self, monkeypatch, held):
        p = Perturbation(e_max=E_MAX, seed=3)
        if held:
            p.perturb_array(values(8), GRID)
        counter = p.counter
        calls = []
        monkeypatch.setattr(platform_sim, "unit_draws", lambda *a: calls.append(a))
        with pytest.raises(InvalidInputError):
            p.perturb_array([0.5, float("inf")], GRID)
        assert calls == [] and p.counter == counter

    def test_equality_and_repr_ignore_the_held_block(self):
        p = Perturbation(e_max=E_MAX, seed=3)
        p.perturb_array(values(20), GRID)
        fresh = Perturbation(e_max=E_MAX, seed=3, counter=20)
        assert p == fresh
        assert repr(p) == repr(fresh)
        assert repr(p) == "Perturbation(e_max=1e-06, dist='uniform', seed=3, counter=20)"
        names = [f.name for f in dataclasses.fields(Perturbation) if f.init]
        assert names == ["e_max", "dist", "seed", "counter"]
        with pytest.raises(TypeError):
            Perturbation(e_max=E_MAX, _ahead=())


def traced_peak(run):
    """The peak of the memory ``tracemalloc`` sees while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLookAheadMemory:
    def test_a_small_call_holds_one_block(self):
        p = Perturbation(e_max=E_MAX, seed=3)
        v = values(10)
        assert traced_peak(lambda: p.perturb_array(v, GRID)) < 64 * 1024

    def test_a_large_call_draws_no_more_than_before(self):
        # 4,000,512 B: the peak of this call before draws were held ahead
        p = Perturbation(e_max=E_MAX, seed=3)
        v = values(100_000)
        peak = traced_peak(lambda: p.perturb_array(v, GRID))
        assert peak <= 4_000_512 + 8 * platform_sim._BLOCK


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

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"counter": -1},
            {"counter": 1.5},
            {"counter": 2.0},
            {"counter": "3"},
            {"seed": 1.7},
            {"seed": "3"},
            {"seed": None},
        ],
        ids=repr,
    )
    def test_bad_draw_position_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            Perturbation(e_max=1e-6, **kwargs)

    def test_numpy_integers_accepted(self):
        p = Perturbation(e_max=1e-6, seed=np.int64(-1), counter=np.uint32(4))
        assert (p.seed, p.counter) == (2**64 - 1, 4)
        assert type(p.seed) is int and type(p.counter) is int

    def test_nonfinite_input_rejected(self):
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

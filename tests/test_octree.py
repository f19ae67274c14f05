"""Octree occupancy codec tests."""

import hashlib
import math
import tracemalloc

from hypothesis import given, settings
import hypothesis.strategies as st
import numpy as np
import pytest

from reproguard import container
from reproguard.container import (
    GuardedStream,
    OctreeHeader,
    RawHeader,
)
from reproguard.entropy import RangeEncoder, encode_flags, prob_to_p16_array
from reproguard.errors import (
    ConfigError,
    FieldValueError,
    InvalidInputError,
    MalformedStreamError,
    PlyParseError,
    ReproGuardError,
)
from reproguard import octree
from reproguard.octree import (
    VoxelCloud,
    decode,
    encode,
    make_pc_config,
    morton_decode,
    morton_encode,
    read_ply,
    synth_cloud,
    voxelize,
    write_ply,
)
from reproguard.platform_sim import Perturbation, unit_draws
from reproguard.safeguard import GuardConfig, GuardMode, guard_encode_array
from reproguard.quantizer import QuantGrid


def _level_codes(cloud):
    """The sorted codes of every level, root first, each level the unique
    parents of the one below it."""
    levels = [cloud.codes]
    for _ in range(cloud.bit_depth):
        levels.insert(0, np.unique(levels[0] >> np.uint64(3)))
    return levels


class TestMorton:
    def test_x_major_bit_order(self):
        pts = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=np.uint64)
        assert morton_encode(pts).tolist() == [4, 2, 1]

    def test_roundtrip_full_width(self):
        rng = np.random.default_rng(0)
        pts = rng.integers(0, 1 << 21, size=(10_000, 3)).astype(np.uint64)
        codes = morton_encode(pts)
        assert np.array_equal(morton_decode(codes), pts)

    def test_locality_of_low_bits(self):
        # sibling voxels differ only in the last 3 code bits
        base = np.array([[4, 6, 2]], dtype=np.uint64)
        parent = morton_encode(base) >> np.uint64(3)
        for dx in (0, 1):
            for dy in (0, 1):
                for dz in (0, 1):
                    child = base * 2 + np.array([dx, dy, dz], dtype=np.uint64)
                    assert morton_encode(child) >> np.uint64(3) == parent * 8 >> np.uint64(3) or True
        # direct statement: encode(2p + offset) == 8*encode(p) + offset code
        child = base * 2 + np.array([[1, 0, 1]], dtype=np.uint64)
        assert morton_encode(child)[0] == (morton_encode(base)[0] << 3 | 5)


class TestVoxelize:
    def test_on_grid_points_pass_through(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        cloud = voxelize(pts, 1)
        assert cloud.points().tolist() == [[0, 0, 0], [1, 1, 1]]

    def test_duplicates_collapse(self):
        pts = np.array([[0.2, 0.2, 0.2]] * 5 + [[0.9, 0.9, 0.9]])
        assert len(voxelize(pts, 4)) == 2

    def test_minmax_normalization_hits_extremes(self):
        pts = np.array([[-3.0, 5.0, 10.0], [7.0, 25.0, 11.0]])
        cloud = voxelize(pts, 8)
        got = cloud.points()
        assert got.min() == 0 and got.max() == 255

    def test_count_never_grows(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-1, 1, size=(100_000, 3))
        assert len(voxelize(pts, 10)) <= 100_000

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            voxelize(np.empty((0, 3)), 4)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            voxelize(np.array([[0.0, np.nan, 0.0]]), 4)

    def test_bad_depth_rejected(self):
        with pytest.raises(ConfigError):
            voxelize(np.array([[0.0, 0.0, 0.0]]), 22)

    @pytest.mark.parametrize("build", [
        lambda depth: voxelize(np.zeros((1, 3)), depth),
        lambda depth: VoxelCloud.from_voxels(np.zeros((1, 3)), depth),
        lambda depth: VoxelCloud(depth, np.zeros(1, dtype=np.uint64)),
        lambda depth: synth_cloud("sparse", depth, 10, 0),
        lambda depth: synth_cloud("dense", depth, 10, 0),
    ], ids=["voxelize", "from_voxels", "VoxelCloud", "synth_sparse", "synth_dense"])
    @pytest.mark.parametrize("depth", [-1, 6.0, 6.5, "6"], ids=repr)
    def test_bad_depth_rejected_before_any_shift(self, build, depth):
        # a depth is a shift count: a float is refused even when it is whole
        with pytest.raises(ConfigError, match=r"outside \[1, 21\]"):
            build(depth)

    def test_from_voxels_sorts_and_dedups(self):
        vox = np.array([[3, 3, 3], [0, 0, 0], [3, 3, 3]], dtype=np.int64)
        cloud = VoxelCloud.from_voxels(vox, 2)
        assert len(cloud) == 2
        assert np.all(np.diff(cloud.codes.astype(np.int64)) > 0)


def _unique_codes(voxels):
    """The reference dedupe: the distinct Morton codes, ascending."""
    return np.unique(morton_encode(np.asarray(voxels, dtype=np.int64)))


class TestFromVoxels:
    @pytest.mark.parametrize("voxels", [
        [[1.5, 2.7, 3.2], [1.2, 2.1, 3.9]],
        [[1.0, 2.0, 3.0], [0.0, 0.5, 0.0]],
        [[1.0, 2.0, -0.5]],
    ], ids=["all-fractional", "one-fraction", "negative-fraction"])
    def test_non_integral_coordinates_are_rejected(self, voxels):
        with pytest.raises(InvalidInputError, match="integers"):
            VoxelCloud.from_voxels(np.array(voxels), 4)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e30, -1e300])
    def test_non_finite_or_huge_coordinates_are_typed_before_any_cast(self, bad):
        # a cast would warn first, and under an error filter the warning
        # would be what the caller sees
        with pytest.raises(InvalidInputError):
            VoxelCloud.from_voxels(np.array([[1.0, bad, 2.0]]), 4)

    @pytest.mark.parametrize("voxels", [
        np.array([[1 + 2j, 0, 0]]),
        np.array([["1", "2", "3"]]),
        np.array([[2**63, 0, 0]], dtype=np.uint64),
        np.array([[0, 0, 16]], dtype=np.uint8),
        np.array([[0, -1, 0]], dtype=np.int8),
    ], ids=["complex", "str", "uint64-past-int64", "uint8-at-the-edge", "int8"])
    def test_other_bad_coordinates_are_rejected(self, voxels):
        with pytest.raises(InvalidInputError):
            VoxelCloud.from_voxels(voxels, 4)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.uint16, bool])
    def test_integral_coordinates_of_any_real_dtype_are_accepted(self, dtype):
        ints = np.array([[1, 0, 1], [0, 1, 1], [1, 0, 1]])
        cloud = VoxelCloud.from_voxels(ints.astype(dtype), 1)
        assert np.array_equal(cloud.codes, _unique_codes(ints))

    @pytest.mark.parametrize("depth, voxels", [
        (4, [[3, 1, 2]] * 50 + [[0, 0, 0]] * 50 + [[15, 15, 15]]),
        (4, [[9, 2, 2], [1, 0, 3], [15, 0, 0], [1, 0, 3], [0, 15, 0], [2, 9, 2]]),
        (6, [[17, 40, 63]]),
        (21, [[(1 << 21) - 1] * 3] * 7),
        (1, [[1, 1, 1], [0, 0, 0], [1, 0, 1], [0, 0, 0], [1, 1, 1]]),
        (1, [[x >> 2, (x >> 1) & 1, x & 1] for x in range(8)][::-1] * 3),
        (21, [[(1 << 21) - 1, 0, 5], [0, (1 << 21) - 1, 5], [(1 << 21) - 1, 0, 5]]),
    ], ids=[
        "heavy-duplicates", "unsorted", "single-voxel", "all-identical-at-the-top",
        "depth-1", "depth-1-whole-grid-descending", "depth-21-extremes",
    ])
    def test_codes_equal_the_distinct_sorted_codes(self, depth, voxels):
        cloud = VoxelCloud.from_voxels(np.array(voxels, dtype=np.int64), depth)
        assert np.array_equal(cloud.codes, _unique_codes(voxels))

    @settings(max_examples=60, deadline=None)
    @given(
        depth=st.integers(1, 21),
        pool=st.integers(1, 64),
        rows=st.integers(1, 400),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_codes_equal_the_distinct_sorted_codes_on_random_clouds(
        self, depth, pool, rows, seed
    ):
        # rows drawn from a small pool of voxels, so duplicates are common
        rng = np.random.default_rng(seed)
        distinct = rng.integers(0, 1 << depth, size=(pool, 3), dtype=np.int64)
        voxels = distinct[rng.integers(0, pool, size=rows)]
        cloud = VoxelCloud.from_voxels(voxels, depth)
        assert np.array_equal(cloud.codes, _unique_codes(voxels))


def _codes(*values):
    return np.array(values, dtype=np.uint64)


class TestVoxelCloudInvariant:
    # depth 6: codes lie in [0, 2**18)
    @pytest.mark.parametrize("codes", [
        _codes(3, 3, 9),
        _codes(9, 3),
        _codes(1 << 18),
        _codes(1 << 40),
        np.array([1, 2], dtype=np.int64),
        np.array([1, 2], dtype=np.uint32),
        np.array([1.0, 2.0]),
        _codes(),
        _codes(1, 2).reshape(1, 2),
        [1, 2],
    ], ids=[
        "repeated", "descending", "at-the-grid", "far-past-the-grid", "int64",
        "uint32", "float", "empty", "2-d", "list",
    ])
    def test_codes_outside_the_invariant_are_rejected(self, codes):
        with pytest.raises(InvalidInputError):
            VoxelCloud(bit_depth=6, codes=codes)

    @pytest.mark.parametrize("depth", [1, 6, 21])
    def test_the_grids_last_code_is_accepted(self, depth):
        last = (1 << 3 * depth) - 1
        cloud = VoxelCloud(bit_depth=depth, codes=_codes(0, last))
        assert len(cloud) == 2


class TestSynth:
    def test_deterministic(self):
        a = synth_cloud("dense", 10, 100_000, 7)
        b = synth_cloud("dense", 10, 100_000, 7)
        assert np.array_equal(a.codes, b.codes)

    def test_sparse_range(self):
        cloud = synth_cloud("sparse", 18, 100_000, 1)
        assert cloud.points().max() < 1 << 18

    def test_dense_is_denser_than_sparse(self):
        # children per occupied parent at the leaf level
        def leaf_fill(cloud):
            levels = _level_codes(cloud)
            return len(levels[-1]) / len(levels[-2])

        dense = synth_cloud("dense", 10, 20_000, 3)
        sparse = synth_cloud("sparse", 10, 20_000, 3)
        assert leaf_fill(dense) > leaf_fill(sparse) + 0.5

    def test_dense_size_near_request(self):
        cloud = synth_cloud("dense", 10, 100_000, 7)
        assert 50_000 <= len(cloud) <= 100_000

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            synth_cloud("shell", 10, 100, 0)

    @pytest.mark.parametrize("count", [10.0, 0, -1, "10", None], ids=repr)
    def test_count_that_is_not_a_whole_number_above_zero_rejected(self, count):
        with pytest.raises(InvalidInputError, match="count"):
            synth_cloud("dense", 8, count, 0)

    @pytest.mark.parametrize("seed", [0.5, 1.0, -1, "1", None], ids=repr)
    def test_seed_that_is_not_a_whole_number_rejected(self, seed):
        with pytest.raises(InvalidInputError, match="seed"):
            synth_cloud("dense", 8, 10, seed)

    def test_numpy_integer_count_and_seed_accepted(self):
        got = synth_cloud("sparse", 4, np.int32(50), np.uint64(2)).codes
        assert np.array_equal(got, synth_cloud("sparse", 4, 50, 2).codes)

    # SHA-256 of the codes of the benchmark's clouds (pc-dense at seed 1, two
    # small-streams clouds) and of a sparse one, so that an edit to the input
    # path cannot change a workload's input, and so its stream bytes, unseen
    @pytest.mark.parametrize("args, digest", [
        (("dense", 10, 100_000, 1),
         "87846bba62096eb8de9f0e76bc6c7923e5f65383782e77076808b8c5cb0bf64c"),
        (("dense", 8, 4000, 1000),
         "caaad14851adadccc8991aee2c21d4a8d942eec4467dc121223807ccbde5015a"),
        (("dense", 8, 4000, 1127),
         "a544b41bfdfdefd3ad811c431b0880f016510fcfaf7e9a1a2676208e3c3fab61"),
        (("sparse", 4, 5000, 2),
         "967cd0270f836341a86aea3474d12dab50e14f67a294d2dc010f7698ddc43156"),
    ], ids=["pc-dense", "small-streams-first", "small-streams-last", "sparse"])
    def test_codes_are_pinned(self, args, digest):
        codes = synth_cloud(*args).codes
        assert hashlib.sha256(codes.tobytes()).hexdigest() == digest


def record_passes(monkeypatch):
    """Record [depth, parent count, parents' sibling counts, probabilities,
    Prob16s] of every coding pass, from the model and the child step, which
    each pass calls once."""
    rows = []
    model, child = octree._parent_probabilities, octree._child_p16s

    def recording_model(depth, bit_depth, parents, siblings):
        p = model(depth, bit_depth, parents, siblings)
        rows.append([depth, parents.shape[0], siblings.copy(), p.copy()])
        return p

    def recording_child(p, q):
        p16 = child(p, q)
        rows[-1].append(p16)
        return p16

    monkeypatch.setattr(octree, "_parent_probabilities", recording_model)
    monkeypatch.setattr(octree, "_child_p16s", recording_child)
    return rows


def predict(depth=3, siblings=4, code=0, n=10):
    """The model's probability of each parent with ``code`` and ``siblings``
    (either may be a sequence) at ``depth`` in a tree of depth ``n``."""
    codes, siblings = np.broadcast_arrays(
        np.asarray(code, dtype=np.uint64), np.asarray(siblings, dtype=np.uint8)
    )
    return octree._parent_probabilities(depth, n, codes.ravel(), siblings.ravel())


class TestPredict:
    def test_deterministic(self):
        a = predict()
        b = predict()
        assert a.view(np.uint64)[0] == b.view(np.uint64)[0]

    def test_open_interval_over_feasible_contexts(self):
        # a parent has 1 to 8 siblings, itself included
        siblings = np.repeat(np.arange(1, 9), 50)
        codes = np.arange(siblings.shape[0]) * 977
        for depth in (1, 2, 3, 10):
            p = predict(depth, siblings, codes)
            assert np.all((0.0 < p) & (p < 1.0))

    def test_parent_code_moves_the_output(self):
        vals = {float(predict(code=c)[0]) for c in range(40)}
        assert len(vals) > 30

    def test_monotone_in_parent_siblings(self):
        ps = predict(siblings=np.arange(1, 9))
        diffs = np.diff(ps)
        if octree._W[2] > 0:
            assert np.all(diffs > 0)
        else:
            assert np.all(diffs < 0)

    def test_a_batch_equals_its_parents_one_by_one(self):
        # what lets a level code in chunks of any size
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 1 << 60, 300, dtype=np.uint64)
        siblings = rng.integers(1, 9, 300).astype(np.uint8)
        batch = predict(7, siblings, codes)
        one_by_one = np.concatenate(
            [predict(7, s, c) for s, c in zip(siblings, codes)]
        )
        assert np.array_equal(batch.view(np.uint64), one_by_one.view(np.uint64))


class TestWeights:
    def test_literals_are_the_splitmix_draw(self):
        # values in [-2, 2) that splitmix64 gives at seed 0xC0DEC0DE; draw 2
        # weighted the coded-sibling term, which is gone
        draw = unit_draws(0xC0DEC0DE, 0, 7) * 4.0 - 2.0
        literals = [*octree._W, octree._BIAS]
        drawn = [float(draw[i]).hex() for i in (0, 1, 3, 4, 5, 6)]
        assert [w.hex() for w in literals] == drawn

    @pytest.mark.parametrize("octant", range(8))
    def test_odds_literals_are_the_octant_term(self, octant):
        want = math.exp(octree._W[1] * (octant / 7))
        assert abs(octree._ODDS[octant] - want) <= math.ulp(want)


def guard_outputs(k):
    """Every value a guard on the grid of step 1/k can output, in either
    mode: each bin center, and each interior boundary with the bin centers
    FULL mode derives from it."""
    q = 1.0 / k
    eps = q / 8.0
    mids = (np.arange(k) + 0.5) * q
    near = np.arange(1, k) * q
    out = []
    for mode in GuardMode:
        cfg = make_pc_config(eps, k, mode)
        for v in (mids, near - eps / 2, near + eps / 2):
            out.append(guard_encode_array(cfg, v)[0])
    return np.unique(np.concatenate(out))


def python_p16(p, r, q):
    """The child step in Python floats: p·r / ((1 - p) + p·r), clipped to
    [q/2, 1 - q/2], then the Prob16 of a zero."""
    x = p * r / ((1.0 - p) + p * r)
    x = min(max(x, q * 0.5), 1.0 - q * 0.5)
    return min(max(65536 - math.floor(x * 65536.0 + 0.5), 1), 65535)


class TestChildStep:
    @pytest.mark.parametrize("k", [10, 250, 1000])
    def test_equals_python_floats_on_every_guard_output(self, k):
        q = 1.0 / k
        values = guard_outputs(k)
        # centers and interior boundaries, and FULL's centers, which may
        # differ from the others by an ulp
        assert 2 * k - 1 <= values.shape[0] <= 3 * k
        got = octree._child_p16s(values, q).reshape(-1, 8)
        odds = octree._ODDS.tolist()
        want = [[python_p16(p, r, q) for r in odds] for p in values.tolist()]
        assert got.tolist() == want

    def test_clips_to_the_grids_inner_half_bins(self):
        q = 1.0 / 250
        p16 = octree._child_p16s(np.array([0.0, 1e-9, 1.0 - 1e-9, 1.0]), q)
        lo, hi = prob_to_p16_array(np.array([q / 2, 1 - q / 2]))
        assert p16.tolist() == [lo] * 16 + [hi] * 16


class TestConfig:
    def test_make_pc_config(self):
        cfg = make_pc_config(1e-6, k=250)
        assert cfg.grid.q == 1.0 / 250.0
        assert cfg.grid.domain == (0.0, 1.0)
        assert cfg.mode == GuardMode.CENTER

    @pytest.mark.parametrize("k", [250.0, "250", None], ids=repr)
    def test_k_that_is_not_a_positive_integer_rejected(self, k):
        with pytest.raises(ConfigError, match="k must be a positive integer"):
            make_pc_config(1e-6, k)

    def test_domain_given_as_a_list_is_the_unit_domain(self):
        # the domain is stored as a tuple of floats, so the grid hashes and
        # is the grid an octree header rebuilds
        grid = QuantGrid.uniform(0.004, domain=[0, 1])
        assert grid.domain == (0.0, 1.0) and type(grid.domain) is tuple
        assert all(type(edge) is float for edge in grid.domain)
        assert hash(grid) == hash(make_pc_config(1e-6).grid)
        cloud = synth_cloud("sparse", 3, 10, 0)
        got = encode(cloud, GuardConfig(grid=grid, epsilon=1e-6))
        assert container.write(got) == container.write(
            encode(cloud, make_pc_config(1e-6))
        )

    def test_unit_domain_forces_reciprocal_step(self):
        # a step that does not divide [0, 1] cannot even form the grid
        with pytest.raises(ConfigError):
            QuantGrid.uniform(0.3, domain=(0.0, 1.0))

    def test_clip_edges_must_sit_on_boundaries(self):
        # the header names [0, 1] as the domain, so both edges must be
        # boundaries of the grid the encoder guards with, and its edges
        cloud = synth_cloud("sparse", 3, 10, 0)
        off_edges = QuantGrid.uniform(0.01, domain=(-1.0, 2.0))
        for grid in (QuantGrid.uniform(0.3), off_edges):
            cfg = GuardConfig(grid=grid, epsilon=1e-6, mode=GuardMode.CENTER)
            with pytest.raises(ConfigError):
                encode(cloud, cfg)

    def test_domainless_grid_rejected(self):
        # valid safeguard config, but the codec needs the [0, 1] domain
        grid = QuantGrid.uniform(0.01)
        cfg = GuardConfig(grid=grid, epsilon=1e-6, mode=GuardMode.CENTER)
        cloud = synth_cloud("sparse", 3, 10, 0)
        with pytest.raises(ConfigError):
            encode(cloud, cfg)

    def test_guarantee_margin_enforced(self):
        with pytest.raises(ConfigError):
            encode(synth_cloud("sparse", 3, 10, 0), make_pc_config(0.002, k=250))


class TestRoundtrip:
    def test_single_voxel_smallest_tree(self, monkeypatch):
        cloud = VoxelCloud.from_voxels(np.array([[1, 0, 1]]), 1)
        passes = record_passes(monkeypatch)
        stream = encode(cloud, make_pc_config(1e-6))
        # one level, one pass over the single root and its eight octants
        assert [row[:2] for row in passes] == [[1, 1]]
        assert passes[0][4].shape == (8,)
        assert stream.flag_count == 1
        out = decode(stream)
        assert np.array_equal(out.codes, cloud.codes)

    @pytest.mark.parametrize(
        "kind,n,count,seed",
        [("sparse", 6, 500, 2), ("dense", 8, 5000, 5), ("sparse", 12, 2000, 9)],
    )
    def test_exact_roundtrip(self, kind, n, count, seed):
        cloud = synth_cloud(kind, n, count, seed)
        stream = encode(cloud, make_pc_config(1e-6))
        out = decode(stream)
        assert out.bit_depth == cloud.bit_depth
        assert np.array_equal(out.codes, cloud.codes)

    def test_one_guarded_value_per_parent(self, monkeypatch):
        cloud = synth_cloud("dense", 6, 2000, 1)
        passes = record_passes(monkeypatch)
        stream = encode(cloud, make_pc_config(1e-6))
        # every level fits one chunk, so each codes in one pass, root first,
        # with one probability per parent and eight Prob16s after it
        sizes = [len(codes) for codes in _level_codes(cloud)[:-1]]
        assert [row[:2] for row in passes] == [[d + 1, m] for d, m in enumerate(sizes)]
        assert all(row[3].shape == (row[1],) for row in passes)
        assert all(row[4].shape == (8 * row[1],) for row in passes)
        assert stream.flag_count == sum(sizes)

    def test_decoder_trace_matches_encoder(self, monkeypatch):
        cloud = synth_cloud("dense", 6, 2000, 4)
        passes = record_passes(monkeypatch)
        stream = encode(cloud, make_pc_config(1e-6))
        te = passes[:]
        passes.clear()
        decode(stream)
        assert_same_passes(te, passes)

    def test_protected_survives_uniform_noise(self):
        cloud = synth_cloud("dense", 10, 20_000, 7)
        stream = encode(cloud, make_pc_config(1e-6, k=250))
        for seed in (1, 2):
            p = Perturbation(e_max=5e-7, dist="uniform", seed=seed)
            out = decode(stream, perturb=p)
            assert np.array_equal(out.codes, cloud.codes)

    def test_unprotected_breaks_under_adversarial_noise(self):
        cloud = synth_cloud("dense", 10, 20_000, 7)
        stream = encode(cloud, make_pc_config(1e-6, k=250), protect=False)
        assert stream.flag_count == 0 and stream.safeguard == b""
        failures = 0
        for seed in range(5):
            p = Perturbation(e_max=5e-7, dist="adversarial", seed=seed)
            try:
                out = decode(stream, perturb=p)
                if not np.array_equal(out.codes, cloud.codes):
                    failures += 1
            except ReproGuardError:
                failures += 1
        assert failures >= 4

    def test_out_of_contract_noise_is_contained(self):
        # e_max above epsilon voids the guarantee; behavior must still be
        # a clean result or a typed error
        cloud = synth_cloud("dense", 8, 3000, 3)
        stream = encode(cloud, make_pc_config(1e-6, k=250))
        for seed in range(3):
            p = Perturbation(e_max=2e-6, dist="uniform", seed=seed)
            try:
                decode(stream, perturb=p)
            except ReproGuardError:
                pass

    def test_modes_other_than_center(self):
        cloud = synth_cloud("sparse", 5, 200, 8)
        stream = encode(cloud, make_pc_config(1e-6, mode=GuardMode.FULL))
        assert stream.mode == GuardMode.FULL
        out = decode(stream, perturb=Perturbation(5e-7, "uniform", 3))
        assert np.array_equal(out.codes, cloud.codes)


def assert_same_passes(a, b):
    """Two records of ``record_passes`` hold the same passes, bit for bit."""
    assert len(a) == len(b) > 0
    for x, y in zip(a, b):
        assert x[:2] == y[:2]
        assert np.array_equal(x[2], y[2])
        assert np.array_equal(x[3].view(np.uint64), y[3].view(np.uint64))
        assert np.array_equal(x[4], y[4])


def sibling_counts(codes):
    """For each node, how many nodes (itself included) share its parent."""
    parents = codes >> np.uint64(3)
    uniq, counts = np.unique(parents, return_counts=True)
    return counts[np.searchsorted(uniq, parents)].astype(np.int64)


def reference_levels(cloud):
    """Every level's parents, their sibling counts and its (parents, 8)
    occupancy, root first, found as the encoder once found them: each
    level's codes by ``np.unique``, every child placed under its parent by a
    binary search, and the sibling counts by ``sibling_counts``."""
    codes = _level_codes(cloud)
    levels = []
    for parents, children in zip(codes, codes[1:]):
        occ = np.zeros((parents.shape[0], 8), dtype=np.uint8)
        at = np.searchsorted(parents, children >> np.uint64(3))
        occ[at, children & np.uint64(7)] = 1
        levels.append((parents, sibling_counts(parents), occ))
    return levels


def predict_rows(f):
    """The model over an (n, 4) feature tensor of (level phase, parent
    siblings, grandparent, hash), one weight column at a time."""
    t = np.full(f.shape[0], octree._BIAS, dtype=np.float64)
    for w, column in zip(np.take(octree._W, [0, 2, 3, 4]), f.T):
        t += w * column
    return 1.0 / (1.0 + np.exp(-t))


def reference_encode(cloud, cfg, protect):
    """The encoder without chunks or the bottom-up pass: each level is
    predicted over a feature tensor, guarded and coded in one call each,
    with its occupancy from ``reference_levels`` and each child's Prob16
    from ``python_p16``."""
    n, q = cloud.bit_depth, cfg.grid.q
    enc = RangeEncoder()
    fr_parts, fd_parts = [np.empty(0, dtype=np.uint8)], [np.empty(0, dtype=np.uint8)]
    for depth, (parents, siblings, occ) in enumerate(reference_levels(cloud), 1):
        f = np.empty((parents.shape[0], 4), dtype=np.float64)
        f[:, 0] = depth / n
        f[:, 1] = siblings / 8.0
        f[:, 2] = 1.0 if depth >= 3 else 0.0
        f[:, 3] = octree._ancestral_unit(parents, depth)
        p = predict_rows(f)
        if protect:
            p, fr, fd = guard_encode_array(cfg, p)
            fr_parts.append(fr)
            fd_parts.append(fd)
        p16 = [python_p16(v, r, q) for v in p.tolist() for r in octree._ODDS.tolist()]
        enc.encode_bits(occ.ravel(), p16)
    fr = np.concatenate(fr_parts)
    return GuardedStream(
        mode=cfg.mode,
        epsilon=cfg.epsilon,
        flag_count=len(fr),
        payload=OctreeHeader(
            bit_depth=cloud.bit_depth, point_count=len(cloud), q=cfg.grid.q
        ),
        safeguard=encode_flags(fr, np.concatenate(fd_parts), cfg.mode),
        main=enc.finish(),
    )


def corner_voxel(depth):
    side = (1 << depth) - 1
    return VoxelCloud.from_voxels(np.array([[side, side, side]]), depth)


PASS_CLOUDS = {
    "one-voxel-depth1": lambda: VoxelCloud.from_voxels(np.array([[1, 0, 1]]), 1),
    "full-depth1": lambda: VoxelCloud.from_voxels(
        np.argwhere(np.ones((2, 2, 2), dtype=bool)), 1
    ),
    "corner-depth1": lambda: corner_voxel(1),
    "corner-depth10": lambda: corner_voxel(10),
    "corner-depth21": lambda: corner_voxel(21),
    "sparse-depth12": lambda: synth_cloud("sparse", 12, 2000, 9),
    "sparse-depth21": lambda: synth_cloud("sparse", 21, 2000, 4),
    "dense-depth10": lambda: synth_cloud("dense", 10, 100_000, 1),
}


class TestBottomUpOccupancy:
    @pytest.mark.parametrize("cloud_name", list(PASS_CLOUDS))
    def test_levels_equal_a_per_level_search(self, cloud_name):
        cloud = PASS_CLOUDS[cloud_name]()
        got = octree._levels(cloud.codes, cloud.bit_depth)[::-1]
        want = reference_levels(cloud)
        assert len(got) == len(want) == cloud.bit_depth
        for g, w in zip(got, want):
            assert all(np.array_equal(a, b) for a, b in zip(g, w))


class TestReferenceEncoder:
    @pytest.mark.parametrize("cloud_name", list(PASS_CLOUDS))
    def test_bytes_equal_the_reference(self, cloud_name):
        cloud = PASS_CLOUDS[cloud_name]()
        cfg = make_pc_config(1e-6)
        got = encode(cloud, cfg)
        want = reference_encode(cloud, cfg, True)
        assert container.write(got) == container.write(want)
        assert np.array_equal(decode(got).codes, cloud.codes)


CLOUDS = {
    "voxel-depth1": lambda: VoxelCloud.from_voxels(np.array([[1, 0, 1]]), 1),
    "sparse-depth6": lambda: synth_cloud("sparse", 6, 500, 2),
    "sparse-depth12": lambda: synth_cloud("sparse", 12, 2000, 9),
    "dense-depth8": lambda: synth_cloud("dense", 8, 5000, 5),
    # small-streams' first cloud, a benchmark input
    "small-streams-first": lambda: synth_cloud("dense", 8, 4000, 1000),
}

# one parent per chunk, chunks that split levels unevenly, and the default
CHUNKS = (1, 7, octree._CHUNK)


class TestChunkedEncoder:
    @pytest.mark.parametrize("protect", [True, False], ids=["protected", "unprotected"])
    @pytest.mark.parametrize("mode", list(GuardMode), ids=lambda m: m.name)
    @pytest.mark.parametrize("cloud_name", list(CLOUDS))
    def test_bytes_equal_the_reference_at_any_chunk(
        self, monkeypatch, cloud_name, mode, protect
    ):
        cloud = CLOUDS[cloud_name]()
        cfg = make_pc_config(1e-6, mode=mode)
        want = container.write(reference_encode(cloud, cfg, protect))
        for chunk in CHUNKS:
            monkeypatch.setattr(octree, "_CHUNK", chunk)
            assert container.write(encode(cloud, cfg, protect=protect)) == want

    def test_chunks_follow_the_constant(self, monkeypatch):
        assert octree._CHUNK == 4096  # 32,768 child bits a pass
        cloud = CLOUDS["sparse-depth6"]()
        sizes = [len(codes) for codes in _level_codes(cloud)[:-1]]
        assert max(sizes) > 7
        passes = record_passes(monkeypatch)
        monkeypatch.setattr(octree, "_CHUNK", 7)
        encode(cloud, make_pc_config(1e-6))
        want = [
            [depth, min(7, m - lo)]
            for depth, m in enumerate(sizes, 1) for lo in range(0, m, 7)
        ]
        assert [row[:2] for row in passes] == want

    def test_peak_memory_of_a_dense_depth10_encode(self):
        # 2.69 MiB (4.25 with a guarded value per child); a chunk bounds
        # every call's arrays, and coding whole levels at once would hold
        # (parents, 8) float arrays of the widest level
        cloud = synth_cloud("dense", 10, 100_000, 1)
        assert traced_peak(lambda: encode(cloud, make_pc_config(1e-6))) <= 3.0 * 2**20


class TestChunkedDecoder:
    @pytest.mark.parametrize("cloud_name", list(CLOUDS))
    def test_passes_equal_the_encoders_at_any_chunk(self, monkeypatch, cloud_name):
        cloud = CLOUDS[cloud_name]()
        passes = record_passes(monkeypatch)
        stream = encode(cloud, make_pc_config(1e-6))
        want = passes[:]
        for chunk in CHUNKS:
            monkeypatch.setattr(octree, "_CHUNK", chunk)
            passes.clear()
            out = decode(stream, perturb=Perturbation(5e-7, "uniform", 1))
            assert np.array_equal(out.codes, cloud.codes)
            if chunk == CHUNKS[-1]:
                assert_same_passes(want, passes)
            # at any chunk, the same values in the same order
            for column in (2, 3, 4):
                assert np.array_equal(
                    np.concatenate([row[column] for row in want]).view(np.uint8),
                    np.concatenate([row[column] for row in passes]).view(np.uint8),
                )

    def test_one_call_of_each_stage_per_chunk(self, monkeypatch):
        cloud = synth_cloud("dense", 8, 4000, 3001)
        # every level fits one chunk, so each codes in one pass
        assert max(map(len, _level_codes(cloud))) <= octree._CHUNK
        stream = encode(cloud, make_pc_config(1e-6))
        calls = []

        def counting(owner, name):
            real = getattr(owner, name)
            monkeypatch.setattr(
                owner, name, lambda *a, **k: calls.append(name) or real(*a, **k)
            )

        for name in ("_ancestral_unit", "guard_decode_array", "prob_to_p16_array"):
            counting(octree, name)
        counting(octree.RangeDecoder, "decode_bits")
        counting(Perturbation, "perturb_array")
        out = decode(stream, perturb=Perturbation(5e-7, "uniform", 1))
        assert np.array_equal(out.codes, cloud.codes)
        assert sorted(set(calls)) == sorted(
            ["_ancestral_unit", "guard_decode_array", "prob_to_p16_array",
             "decode_bits", "perturb_array"]
        )
        assert all(calls.count(name) == 8 for name in set(calls))


def traced_peak(run):
    """The peak of the memory ``tracemalloc`` sees while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLevelStepMemory:
    # the model sums its terms as they broadcast, without an (n, 4) float64
    # feature tensor; each side's level loop frees a level once it has the
    # next: the encoder pops its bottom-up levels root first, and the
    # decoder takes the next level's parents from the occupancy it decoded

    def test_peak_memory_of_a_dense_depth8_encode(self):
        # 0.36 MiB (0.40 with a guarded value per child); a child step that
        # held its denominators through the Prob16 conversion read 0.46
        cloud = synth_cloud("dense", 8, 4000, 3001)
        assert traced_peak(lambda: encode(cloud, make_pc_config(1e-6))) <= 0.40 * 2**20

    def test_peak_memory_of_a_dense_depth10_decode(self):
        # 2.54 MiB (3.11 with a guarded value per child)
        cloud = synth_cloud("dense", 10, 100_000, 1)
        stream = encode(cloud, make_pc_config(1e-6))
        drift = Perturbation(5e-7, "uniform", 1)
        assert traced_peak(lambda: decode(stream, perturb=drift)) <= 2.8 * 2**20

    def test_peak_memory_of_a_dense_depth10_dedupe(self, monkeypatch):
        # the 100,000 voxels synth_cloud hands over, 75,044 of them distinct:
        # Morton encoding peaks at three uint64 arrays of the input's length
        # (2.29 MiB), and the sort, the run-start mask and the kept codes
        # stay below that
        build = VoxelCloud.from_voxels.__func__
        handed = []
        monkeypatch.setattr(VoxelCloud, "from_voxels", classmethod(
            lambda cls, voxels, depth: handed.append(voxels) or build(cls, voxels, depth)
        ))
        synth_cloud("dense", 10, 100_000, 1)
        monkeypatch.undo()
        (voxels,) = handed
        assert voxels.shape == (100_000, 3) and voxels.dtype == np.int64
        assert traced_peak(lambda: VoxelCloud.from_voxels(voxels, 10)) <= 2.5 * 2**20


class TestDecodeErrors:
    def test_wrong_payload_kind(self):
        stream = GuardedStream(
            mode=GuardMode.CENTER,
            epsilon=1e-6,
            flag_count=0,
            payload=RawHeader(value_count=0, q=0.004),
            safeguard=b"",
            main=b"",
        )
        with pytest.raises(FieldValueError):
            decode(stream)

    def test_flag_count_mismatch(self):
        cloud = synth_cloud("sparse", 4, 50, 0)
        s = encode(cloud, make_pc_config(1e-6))
        tampered = GuardedStream(**{**s.__dict__, "flag_count": s.flag_count - 4})
        with pytest.raises(MalformedStreamError):
            decode(tampered)

    def test_point_count_cap(self):
        cloud = synth_cloud("sparse", 4, 64, 0)
        s = encode(cloud, make_pc_config(1e-6))
        hdr = s.payload
        shrunk = GuardedStream(
            **{**s.__dict__, "payload": type(hdr)(hdr.bit_depth, hdr.point_count // 4,
                                                  hdr.q)}
        )
        with pytest.raises(MalformedStreamError):
            decode(shrunk)

    def test_unusable_grid(self):
        cloud = synth_cloud("sparse", 4, 50, 0)
        s = encode(cloud, make_pc_config(1e-6))
        # [0, 1] does not end on a boundary of the step 0.3
        header = OctreeHeader(s.payload.bit_depth, s.payload.point_count, q=0.3)
        bad = GuardedStream(**{**s.__dict__, "payload": header})
        with pytest.raises(FieldValueError):
            decode(bad)


class TestPly:
    def test_small_roundtrip(self, tmp_path):
        cloud = VoxelCloud.from_voxels(np.array([[0, 0, 0], [3, 1, 2], [7, 7, 7]]), 3)
        path = tmp_path / "c.ply"
        write_ply(path, cloud)
        back = read_ply(path)
        assert back.bit_depth == 3
        assert np.array_equal(back.codes, cloud.codes)

    def test_large_roundtrip(self, tmp_path):
        cloud = synth_cloud("dense", 10, 100_000, 7)
        path = tmp_path / "big.ply"
        write_ply(path, cloud)
        assert np.array_equal(read_ply(path).codes, cloud.codes)

    @pytest.mark.parametrize("rows", [
        "0.0 0.0 0.0\n1.0 1.0 1.0\n", "0.2 0.0 0.0\n0.9 1.0 1.0\n", "0 0 0\n5 5 5\n",
    ], ids=["on-the-grid", "fractional", "past-the-grid"])
    def test_float_vertices_are_voxelized(self, rows, tmp_path):
        path = tmp_path / "f.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n" + rows
        )
        cloud = read_ply(path, bit_depth=1)
        assert cloud.points().tolist() == [[0, 0, 0], [1, 1, 1]]

    def test_missing_end_header(self, tmp_path):
        path = tmp_path / "x.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 1\n0 0 0\n")
        with pytest.raises(PlyParseError):
            read_ply(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "x.ply"
        path.write_text("plx\nformat ascii 1.0\nend_header\n")
        with pytest.raises(PlyParseError):
            read_ply(path)

    def test_binary_format_rejected(self, tmp_path):
        path = tmp_path / "x.ply"
        path.write_text(
            "ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n"
        )
        with pytest.raises(PlyParseError):
            read_ply(path)

    def test_truncated_vertex_list(self, tmp_path):
        path = tmp_path / "x.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 3\n"
            "property int x\nproperty int y\nproperty int z\n"
            "end_header\n1 2 3\n4 5 6\n"
        )
        with pytest.raises(PlyParseError):
            read_ply(path)

    def test_declared_count_past_the_rows_is_a_parse_error(self, tmp_path):
        # a count far past memory reserves nothing: the body ends first
        path = tmp_path / "x.ply"
        path.write_text(
            "ply\nformat ascii 1.0\ncomment bit_depth 4\n"
            "element vertex 100000000000000\nproperty int x\nproperty int y\n"
            "property int z\nend_header\n0 0 0\n"
        )
        with pytest.raises(PlyParseError, match=r"truncated at row 1 of 10{14}$"):
            read_ply(path)

    def test_non_numeric_row(self, tmp_path):
        path = tmp_path / "x.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property int x\nproperty int y\nproperty int z\n"
            "end_header\n1 two 3\n"
        )
        with pytest.raises(PlyParseError):
            read_ply(path)

    def test_missing_coordinate_property(self, tmp_path):
        path = tmp_path / "x.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 1\n"
            "property int x\nproperty int y\n"
            "end_header\n1 2\n"
        )
        with pytest.raises(PlyParseError):
            read_ply(path)

    def test_element_before_vertex_is_a_parse_error(self, tmp_path):
        # the face row would be read as the first vertex and (4, 5, 6) lost
        path = tmp_path / "x.ply"
        path.write_text(
            "ply\nformat ascii 1.0\ncomment bit_depth 4\n"
            "element face 1\nproperty list uchar int vertex_indices\n"
            "element vertex 2\n"
            "property int x\nproperty int y\nproperty int z\n"
            "end_header\n3 0 1 2\n1 2 3\n4 5 6\n"
        )
        with pytest.raises(PlyParseError, match="vertex, which must come first"):
            read_ply(path)

    def test_second_vertex_element_is_a_parse_error(self, tmp_path):
        # its properties would extend the first's and its count replace it,
        # so (7, 8, 9) would be lost and a row read as six properties
        path = tmp_path / "x.ply"
        path.write_text(
            "ply\nformat ascii 1.0\ncomment bit_depth 4\n"
            "element vertex 1\n"
            "property int x\nproperty int y\nproperty int z\n"
            "element vertex 1\n"
            "property int a\nproperty int b\nproperty int c\n"
            "end_header\n1 2 3 4 5 6\n7 8 9\n"
        )
        with pytest.raises(PlyParseError, match="second element vertex"):
            read_ply(path)

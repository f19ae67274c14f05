"""Octree occupancy codec tests."""

import tracemalloc

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
from reproguard.platform_sim import Perturbation, splitmix64_array, unit_from_u64
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
        lambda depth: synth_cloud("sparse", depth, 10, 0),
    ], ids=["voxelize", "from_voxels", "synth_cloud"])
    def test_negative_depth_rejected_before_any_shift(self, build):
        with pytest.raises(ConfigError, match=r"outside \[1, 21\]"):
            build(-1)

    def test_from_voxels_sorts_and_dedups(self):
        vox = np.array([[3, 3, 3], [0, 0, 0], [3, 3, 3]], dtype=np.int64)
        cloud = VoxelCloud.from_voxels(vox, 2)
        assert len(cloud) == 2
        assert np.all(np.diff(cloud.codes.astype(np.int64)) > 0)


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


def record_passes(monkeypatch):
    """Record (depth, octant, parent count, coded siblings, probabilities)
    of every octant pass, one row per octant also where a call predicts a
    group of them."""
    rows = []
    probabilities = octree._probabilities

    def recording(terms, octants, coded):
        p = probabilities(terms, octants, coded)
        n = terms.parent.shape[0]
        for i, octant in enumerate(octants):
            row = slice(i * n, (i + 1) * n)
            # the decoder goes on counting in its array after the call
            rows.append((terms.depth, octant, n, coded[row].copy(), p[row]))
        return p

    monkeypatch.setattr(octree, "_probabilities", recording)
    return rows


def predict_contexts(depth=3, n=10, contexts=()):
    """The model's probability of each (octant, coded, parent, grandparent,
    parent code) context, each from a group of one octant and one parent."""
    out = []
    for octant, coded, parent, g, code in contexts:
        octants = range(octant, octant + 1)
        terms = octree._group_terms(
            depth, n, octants, np.array([parent], dtype=np.uint8),
            np.array([code], dtype=np.uint64),
        )._replace(grandparent=octree._W[4] * float(g))
        coded_siblings = np.array([coded], dtype=np.uint8)
        out.append(octree._probabilities(terms, octants, coded_siblings))
    return np.concatenate(out)


def predict(depth=3, octant=0, coded=0, parent=4, g=1, code=0, n=10):
    return predict_contexts(depth, n, [(octant, coded, parent, g, code)])


class TestPredict:
    def test_deterministic(self):
        a = predict()
        b = predict()
        assert a[0] == b[0]
        assert a.view(np.uint64)[0] == b.view(np.uint64)[0]

    def test_open_interval_over_feasible_contexts(self):
        for depth in (1, 2, 3, 10):
            for octant in range(8):
                ctxs = [
                    (octant, coded, parent, g, 0)
                    for coded in range(8) for parent in range(9) for g in (0, 1)
                ]
                p = predict_contexts(depth, 10, ctxs)
                assert np.all((0.0 < p) & (p < 1.0))

    def test_parent_code_moves_the_output(self):
        vals = {float(predict(code=c)[0]) for c in range(40)}
        assert len(vals) > 30

    def test_monotone_in_parent_siblings(self):
        ps = [float(predict(parent=k)[0]) for k in range(9)]
        diffs = np.diff(ps)
        if octree._W[3] > 0:
            assert np.all(diffs > 0)
        else:
            assert np.all(diffs < 0)


class TestWeights:
    def test_literals_are_the_splitmix_draw(self):
        # the seven values in [-2, 2) that splitmix64 gives at seed 0xC0DEC0DE
        step = np.arange(7, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        x = np.uint64(0xC0DEC0DE) + step
        draw = unit_from_u64(splitmix64_array(x)) * 4.0 - 2.0
        literals = [*octree._W, octree._BIAS]
        assert [w.hex() for w in literals] == [float(d).hex() for d in draw]


class TestConfig:
    def test_make_pc_config(self):
        cfg = make_pc_config(1e-6, k=250)
        assert cfg.grid.q == 1.0 / 250.0
        assert cfg.grid.domain == (0.0, 1.0)
        assert cfg.mode == GuardMode.CENTER

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
        # one level, eight octant passes over the single root
        assert [t[:3] for t in passes] == [(1, o, 1) for o in range(8)]
        assert [t[3].tolist() for t in passes] == [[0]] * 6 + [[1]] * 2
        assert stream.flag_count == 8
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

    def test_octant_schedule_is_causal(self, monkeypatch):
        cloud = synth_cloud("dense", 6, 2000, 1)
        passes = record_passes(monkeypatch)
        encode(cloud, make_pc_config(1e-6))
        seen = []
        for depth, octant, n_parents, coded, p in passes:
            seen.append((depth, octant))
            # a child can have seen at most `octant` coded siblings
            assert coded.shape == p.shape == (n_parents,)
            assert np.all(coded <= octant)
        assert len(seen) == 6 * 8
        assert seen == sorted(seen)

    def test_decoder_trace_matches_encoder(self, monkeypatch):
        cloud = synth_cloud("dense", 6, 2000, 4)
        passes = record_passes(monkeypatch)
        stream = encode(cloud, make_pc_config(1e-6))
        te = passes[:]
        passes.clear()
        decode(stream)
        td = passes
        assert len(te) == len(td) > 0
        for a, b in zip(te, td):
            assert a[:3] == b[:3]
            assert np.array_equal(a[3], b[3])
            assert np.array_equal(a[4].view(np.uint64), b[4].view(np.uint64))

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


def sibling_counts(codes):
    """For each node, how many nodes (itself included) share its parent."""
    parents = codes >> np.uint64(3)
    uniq, counts = np.unique(parents, return_counts=True)
    return counts[np.searchsorted(uniq, parents)].astype(np.int64)


def predict_rows(f):
    """The model over an (n, 6) feature tensor, one weight column at a time."""
    t = np.full(f.shape[0], octree._BIAS, dtype=np.float64)
    for j in range(6):
        t += octree._W[j] * f[:, j]
    return 1.0 / (1.0 + np.exp(-t))


def reference_encode(cloud, cfg, protect):
    """The encoder as it was before it grouped octant passes: every stage
    runs once per octant pass, on that pass's children alone, with the
    next level and sibling counts taken from the codes and the model
    evaluated over a feature tensor."""
    levels = _level_codes(cloud)
    enc = RangeEncoder()
    fr_parts, fd_parts = [], []
    current = np.zeros(1, dtype=np.uint64)
    for depth in range(1, cloud.bit_depth + 1):
        parents = current
        n_par = sibling_counts(parents).astype(np.float64)
        occ = np.zeros(parents.shape[0], dtype=np.int64)
        next_parts = []
        for octant in range(8):
            child_codes = (parents << np.uint64(3)) | np.uint64(octant)
            f = np.empty((parents.shape[0], 6), dtype=np.float64)
            f[:, 0] = depth / cloud.bit_depth
            f[:, 1] = octant / 7.0
            f[:, 2] = occ.astype(np.float64) / 7.0
            f[:, 3] = n_par / 8.0
            f[:, 4] = 1.0 if depth >= 3 else 0.0
            f[:, 5] = octree._ancestral_unit(parents, depth, octant)
            p = np.clip(predict_rows(f), 0.0, 1.0)
            bits = np.isin(child_codes, levels[depth]).astype(np.uint8)
            if protect:
                p, fr, fd = guard_encode_array(cfg, p)
                fr_parts.append(fr)
                fd_parts.append(fd)
            enc.encode_bits(bits, prob_to_p16_array(p))
            occ += bits
            next_parts.append(child_codes[bits == 1])
        current = np.sort(np.concatenate(next_parts))
    assert np.array_equal(current, cloud.codes)
    fr = np.concatenate(fr_parts) if protect else np.empty(0, dtype=np.uint8)
    fd = np.concatenate(fd_parts) if protect else ()
    return GuardedStream(
        mode=cfg.mode,
        epsilon=cfg.epsilon,
        flag_count=len(fr),
        payload=OctreeHeader(
            bit_depth=cloud.bit_depth, point_count=len(cloud), q=cfg.grid.q
        ),
        safeguard=encode_flags(fr, fd, cfg.mode),
        main=enc.finish(),
    )


def reference_coded_siblings(cloud):
    """(depth, octant, parent count, coded siblings) of every octant pass,
    each level's occupancy found as the encoder once found it: every leaf
    code shifted to the level's depth and placed under its parent by a
    binary search, the parents of the next level taken by ``np.unique``."""
    n = cloud.bit_depth
    parents = np.zeros(1, dtype=np.uint64)
    rows = []
    for depth in range(1, n + 1):
        children = cloud.codes >> np.uint64(3 * (n - depth))
        occ = np.zeros((8, parents.shape[0]), dtype=np.uint8)
        at = np.searchsorted(parents, children >> np.uint64(3))
        occ[children & np.uint64(7), at] = 1
        coded = np.cumsum(occ, axis=0, dtype=np.uint8) - occ
        rows += [(depth, o, parents.shape[0], coded[o]) for o in range(8)]
        parents = np.unique(children)
    return rows


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
    def test_coded_siblings_equal_a_per_level_search(self, monkeypatch, cloud_name):
        cloud = PASS_CLOUDS[cloud_name]()
        passes = record_passes(monkeypatch)
        stream = encode(cloud, make_pc_config(1e-6))
        want = reference_coded_siblings(cloud)
        assert [row[:3] for row in passes] == [row[:3] for row in want]
        for got, ref in zip(passes, want):
            assert np.array_equal(got[3], ref[3])
        assert np.array_equal(decode(stream).codes, cloud.codes)


CLOUDS = {
    "voxel-depth1": lambda: VoxelCloud.from_voxels(np.array([[1, 0, 1]]), 1),
    "sparse-depth6": lambda: synth_cloud("sparse", 6, 500, 2),
    "sparse-depth12": lambda: synth_cloud("sparse", 12, 2000, 9),
    "dense-depth8": lambda: synth_cloud("dense", 8, 5000, 5),
}


class TestGroupedEncoder:
    @pytest.mark.parametrize("protect", [True, False], ids=["protected", "unprotected"])
    @pytest.mark.parametrize("mode", list(GuardMode), ids=lambda m: m.name)
    @pytest.mark.parametrize("cloud_name", list(CLOUDS))
    def test_bytes_equal_one_pass_per_call(
        self, monkeypatch, cloud_name, mode, protect
    ):
        cloud = CLOUDS[cloud_name]()
        cfg = make_pc_config(1e-6, mode=mode)
        want = container.write(reference_encode(cloud, cfg, protect))
        # one octant per call, groups that split a level unevenly (7 + 1
        # at the root), and the default budget
        for budget in (1, 7, octree._GROUP_BUDGET):
            monkeypatch.setattr(octree, "_GROUP_BUDGET", budget)
            assert container.write(encode(cloud, cfg, protect=protect)) == want

    def test_group_sizes_follow_the_budget(self, monkeypatch):
        calls = []
        probabilities = octree._probabilities

        def recording(terms, octants, coded):
            calls.append((terms.depth, octants.start, octants.stop))
            return probabilities(terms, octants, coded)

        monkeypatch.setattr(octree, "_probabilities", recording)
        monkeypatch.setattr(octree, "_GROUP_BUDGET", 7)
        encode(VoxelCloud.from_voxels(np.array([[1, 0, 1]]), 1), make_pc_config(1e-6))
        assert calls == [(1, 0, 7), (1, 7, 8)]

    def test_peak_memory_of_a_dense_depth10_encode(self):
        # the budget bounds every call's arrays; coding whole levels at once
        # would hold (8, n) float arrays of the widest level
        cloud = synth_cloud("dense", 10, 100_000, 1)
        assert traced_peak(lambda: encode(cloud, make_pc_config(1e-6))) <= 9.5 * 2**20


class TestGroupedDecoder:
    @pytest.mark.parametrize("cloud_name", list(CLOUDS))
    def test_passes_equal_the_encoders_at_any_budget(self, monkeypatch, cloud_name):
        cloud = CLOUDS[cloud_name]()
        passes = record_passes(monkeypatch)
        stream = encode(cloud, make_pc_config(1e-6))
        want = passes[:]
        # one octant per group, groups that split a level unevenly (7 + 1
        # at the root), and the default budget
        for budget in (1, 7, octree._GROUP_BUDGET):
            monkeypatch.setattr(octree, "_GROUP_BUDGET", budget)
            passes.clear()
            out = decode(stream)
            assert np.array_equal(out.codes, cloud.codes)
            assert len(passes) == len(want)
            for a, b in zip(want, passes):
                assert a[:3] == b[:3]
                assert np.array_equal(a[3], b[3])
                assert np.array_equal(a[4].view(np.uint64), b[4].view(np.uint64))

    def test_context_is_built_once_per_group(self, monkeypatch):
        cloud = synth_cloud("dense", 8, 4000, 3001)
        # every level fits the budget, so each codes as one group of eight
        assert max(map(len, _level_codes(cloud))) * 8 <= octree._GROUP_BUDGET
        stream = encode(cloud, make_pc_config(1e-6))
        calls = []
        ancestral = octree._ancestral_unit

        def counting(*args):
            calls.append(args[1])
            return ancestral(*args)

        monkeypatch.setattr(octree, "_ancestral_unit", counting)
        out = decode(stream)
        assert np.array_equal(out.codes, cloud.codes)
        assert calls == list(range(1, 9))


def traced_peak(run):
    """The peak of the memory ``tracemalloc`` sees while ``run()`` runs."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestLevelStepMemory:
    # the model sums its terms as they broadcast, without an (n, 6) float64
    # feature tensor, and the walk takes the next level from the occupancy

    def test_peak_memory_of_a_dense_depth8_encode(self):
        cloud = synth_cloud("dense", 8, 4000, 3001)
        assert traced_peak(lambda: encode(cloud, make_pc_config(1e-6))) <= 0.85 * 2**20

    def test_peak_memory_of_a_dense_depth10_decode(self):
        cloud = synth_cloud("dense", 10, 100_000, 1)
        stream = encode(cloud, make_pc_config(1e-6))
        drift = Perturbation(5e-7, "uniform", 1)
        assert traced_peak(lambda: decode(stream, perturb=drift)) <= 4.5 * 2**20


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

    def test_float_vertices_are_voxelized(self, tmp_path):
        path = tmp_path / "f.ply"
        path.write_text(
            "ply\nformat ascii 1.0\nelement vertex 2\n"
            "property float x\nproperty float y\nproperty float z\n"
            "end_header\n0.0 0.0 0.0\n1.0 1.0 1.0\n"
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

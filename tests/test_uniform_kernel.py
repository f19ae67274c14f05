"""The float-domain uniform-grid kernel against the int64 operators it
replaced, and the memory it works in.

The reference below is the earlier int64 path, in its arithmetic: floor
index, one-ulp repair, nearest boundary with ties going down, bin center,
and the guard's encode and decode composed from them.
Every output of the kernel path must equal it bit for bit.  The guard's
encoder runs ``quantizer._nearest`` only on candidates, the values near a
boundary; the filter that picks them must pass every value the reference
finds within epsilon of a boundary.
"""

import tracemalloc

import numpy as np
import pytest

from reproguard import container, octree, quantizer
from reproguard.entropy import FlagReader, encode_flags
from reproguard.errors import FieldValueError, InvalidInputError
from reproguard.quantizer import (
    _BLOCK,
    QuantGrid,
    _bins,
    dequantize_array,
    quantize_array,
    round_index_array,
)
from reproguard.raw_values import decode_values, encode_values
from reproguard.safeguard import (
    GuardConfig,
    GuardMode,
    guard_decode_array,
    guard_encode_array,
)

# Each guard mode, and FULL decoded with every direction bit naming the bin
# below (LEFT) or above (RIGHT) the boundary, so that every risky value,
# whichever side the decoder's copy lies on, meets that side's half-bin.
CASES = {
    "FULL": (GuardMode.FULL, None),
    "LEFT": (GuardMode.FULL, 0),
    "RIGHT": (GuardMode.FULL, 1),
    "CENTER": (GuardMode.CENTER, None),
}


# ---------------------------------------------------------------------------
# reference: the int64 uniform operators and the guard built from them


def _ref_clamp(grid, v):
    if grid.domain is None:
        return v
    lo, hi = grid.domain
    return np.minimum(np.maximum(v, lo), hi)


def _ref_quantize(grid, v):
    n = np.floor(v / grid.q).astype(np.int64)
    if grid._edges is not None:
        n = np.clip(n, grid._edges[0], grid._edges[1] - 1)
    return n


def _ref_dequantize(grid, n):
    return (n.astype(np.float64) + 0.5) * grid.q


def _ref_boundary(grid, m):
    return m.astype(np.float64) * grid.q


def _ref_floor_index(grid, v):
    q = grid.q
    n = np.floor(v / q).astype(np.int64)
    bl = n.astype(np.float64) * q
    n = np.where(bl > v, n - 1, n)
    bu = (n.astype(np.float64) + 1.0) * q
    n = np.where(bu <= v, n + 1, n)
    return n


def _ref_round_index(grid, v):
    fi = _ref_floor_index(grid, v)
    bl = _ref_boundary(grid, fi)
    bu = _ref_boundary(grid, fi + 1)
    m = np.where((v - bl) > (bu - v), fi + 1, fi)
    return m, _ref_boundary(grid, m)


def _ref_inside(grid, m):
    if grid._edges is None:
        return np.ones(m.shape, dtype=bool)
    lo, hi = grid._edges
    return (m > lo) & (m < hi)


def _ref_protected(cfg, bv, left):
    if cfg.mode == GuardMode.CENTER:
        return bv
    gap = np.full(bv.shape, cfg.grid.q)
    return np.where(left, bv - gap * 0.5, bv + gap * 0.5)


def _ref_encode(cfg, v):
    grid = cfg.grid
    v = _ref_clamp(grid, v)
    m, bv = _ref_round_index(grid, v)
    risky = (np.abs(bv - v) < cfg.epsilon) & _ref_inside(grid, m)
    v_out = _ref_dequantize(grid, _ref_quantize(grid, v))
    f_r = risky.astype(np.uint8)
    f_d = np.empty(0, dtype=np.uint8)
    if np.any(risky):
        go_left = bv[risky] > v[risky]
        if cfg.mode == GuardMode.FULL:
            f_d = (~go_left).astype(np.uint8)
        v_out[risky] = _ref_protected(cfg, bv[risky], go_left)
    return v_out, f_r, f_d


def _ref_decode(cfg, vp, f_r, f_d):
    grid = cfg.grid
    vp = _ref_clamp(grid, vp)
    v_out = _ref_dequantize(grid, _ref_quantize(grid, vp))
    risky = f_r != 0
    if not np.any(risky):
        return v_out
    m, bv = _ref_round_index(grid, vp[risky])
    if not np.all(_ref_inside(grid, m)):
        raise FieldValueError("risky flag on a domain edge")
    v_out[risky] = _ref_protected(cfg, bv, f_d == 0)
    return v_out


# ---------------------------------------------------------------------------
# grids and value families


def _grid(q, domain_bins):
    if domain_bins is None:
        return QuantGrid.uniform(q)
    lo, hi = domain_bins
    return QuantGrid.uniform(q, domain=(lo * q, hi * q))


GRIDS = {
    f"q{q}-{'dom' if bins else 'free'}": _grid(q, bins)
    for q in (0.1, 1.0 / 64.0)
    for bins in (None, (-40, 37))
}


def _families(grid, eps):
    """Values on, beside, half a bin from and beyond boundaries."""
    q = grid.q
    # small indices, large ones, and ones near 2**52 and 2**53, where a bin
    # is only a few ulps of its values wide
    big = [1e9, -1e9 + 3, 2.0**40 + 7, 2.0**52 - 3, 2.0**52 + 1, -(2.0**52) + 2]
    k = np.concatenate([np.arange(-45.0, 46.0), big, [2.0**53 - 64]])
    # each boundary k*q, and the one above it
    b = np.concatenate([k * q, (k + 1.0) * q])
    fam = [
        b,
        np.nextafter(b, -np.inf),
        np.nextafter(b, np.inf),
        b + eps,
        b - eps,
        np.nextafter(b + eps, -np.inf),
        np.nextafter(b - eps, np.inf),
        b + 0.5 * eps,
        b - 0.5 * eps,
        b + 0.5 * q,
        np.nextafter(b + 0.5 * q, -np.inf),
        np.nextafter(b + 0.5 * q, np.inf),
        np.random.default_rng(7).normal(0.0, 30.0 * q, 2000),
    ]
    if grid.domain is not None:
        lo, hi = grid.domain
        edges = np.array([lo, hi])
        fam += [
            edges,
            edges - q,
            edges + q,
            edges - 1e-3 * q,
            edges + 1e-3 * q,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            edges * 7.0 + 3.0,
        ]
    return np.concatenate(fam)


def _epsilons(grid):
    # the last sits below one ulp of the large-magnitude values
    return (grid.q / 200.0, grid.q / 4.5, 1e-9 * grid.q)


def _same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# equivalence


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_operators_match_the_int_path(name):
    grid = GRIDS[name]
    v = _families(grid, grid.q / 200.0)
    vc = _ref_clamp(grid, v)
    assert _same(quantize_array(grid, v), _ref_quantize(grid, vc))
    n = _ref_quantize(grid, vc)
    assert _same(dequantize_array(grid, n), _ref_dequantize(grid, n))
    m, bv = round_index_array(grid, v)
    rm, rbv = _ref_round_index(grid, vc)
    assert _same(m, rm) and _same(bv, rbv)


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("name", sorted(GRIDS))
def test_guard_matches_the_int_path(name, case):
    grid = GRIDS[name]
    mode, direction = CASES[case]
    for eps in _epsilons(grid):
        cfg = GuardConfig(grid=grid, epsilon=eps, mode=mode)
        v = _families(grid, eps)
        got = guard_encode_array(cfg, v)
        want = _ref_encode(cfg, v)
        for g, w in zip(got, want):
            assert _same(g, w)
        _, f_r, fd = want
        if direction is not None:
            fd = np.full_like(fd, direction)
        for vp in (v, v + 0.5 * eps, v - 0.5 * eps, np.nextafter(v, np.inf)):
            try:
                expected = _ref_decode(cfg, vp, f_r, fd)
            except FieldValueError:
                with pytest.raises(FieldValueError):
                    guard_decode_array(cfg, vp, np.flatnonzero(f_r), fd)
            else:
                got = guard_decode_array(cfg, vp, np.flatnonzero(f_r), fd)
                assert _same(got, expected)


@pytest.mark.parametrize("name", ["q0.1-free", "q0.015625-dom"])
def test_guard_matches_the_int_path_across_kernel_blocks(name):
    # the one pass over the values works through long arrays a block at a
    # time; the nearest-boundary call takes the candidates of every block
    grid = GRIDS[name]
    cfg = GuardConfig(grid=grid, epsilon=grid.q / 200.0, mode=GuardMode.FULL)
    v = _families(grid, cfg.epsilon)
    v = np.random.default_rng(3).permutation(np.tile(v, 100_002 // v.size + 1))
    v = v[:100_002].reshape(-1, 6)
    for g, w in zip(guard_encode_array(cfg, v), _ref_encode(cfg, v)):
        assert _same(g, w)
    _, f_r, f_d = _ref_encode(cfg, v)
    vp = v + 0.5 * cfg.epsilon
    got = guard_decode_array(cfg, vp, np.flatnonzero(f_r), f_d)
    assert _same(got, _ref_decode(cfg, vp, f_r, f_d))


def test_some_values_need_the_one_ulp_repair():
    # the families above reach the repair on both sides, and values whose
    # unrepaired bin differs from their repaired one
    grid = GRIDS["q0.1-free"]
    v = _families(grid, grid.q / 200.0)
    n = np.floor(v / grid.q)
    fi = _ref_floor_index(grid, v).astype(np.float64)
    assert np.any(fi < n) and np.any(fi > n)


# ---------------------------------------------------------------------------
# candidates: the values the encoder sends to the nearest-boundary call


def _candidates(grid, v, eps):
    """Flat positions of the values the encoder's filter passes."""
    return _bins(grid, v, near=eps)[1]


def _ref_near(grid, v, eps):
    """Flat positions of the values whose reference nearest boundary lies
    closer than ``eps``, inside the domain or not."""
    vc = _ref_clamp(grid, v).reshape(-1)
    _, bv = _ref_round_index(grid, vc)
    return np.flatnonzero(np.abs(bv - vc) < eps)


def _by_magnitude(grid, v):
    """``v`` split into batches of one binary order of ``max(|v/q|, 1)``:
    the filter's slack follows a batch's largest value, so each value meets
    a slack within a factor of two of its own."""
    order = np.frexp(np.maximum(np.abs(_ref_clamp(grid, v)) / grid.q, 1.0))[1]
    return [v[order == e] for e in np.unique(order)]


def _assert_superset(grid, v, eps):
    cand = _candidates(grid, v, eps)
    assert np.all(np.diff(cand) > 0)
    assert np.isin(_ref_near(grid, v, eps), cand).all()
    return cand


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_candidates_hold_every_value_near_a_boundary(name):
    grid = GRIDS[name]
    for eps in _epsilons(grid):
        v = _families(grid, eps)
        _assert_superset(grid, v, eps)
        for batch in _by_magnitude(grid, v):
            _assert_superset(grid, batch, eps)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_the_filter_passes_few_values_where_all_are_small(name):
    # about 2*eps/q of the values lie within eps of a boundary; the slack
    # adds a few ulps of the largest |v/q| to each side.  The values stay
    # inside the domain: a clamped value sits on an edge and is a candidate
    grid = GRIDS[name]
    eps = grid.q / 200.0
    v = np.random.default_rng(11).normal(0.0, 8.0 * grid.q, 200_000)
    if grid.domain is not None:
        v = v[(v > grid.domain[0]) & (v < grid.domain[1])]
    cand = _assert_superset(grid, v, eps)
    assert cand.size <= 1.2 * (2.0 * eps / grid.q) * v.size


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("top", [2.0**40, 2.0**48, 2.0**52 + 1, 2.0**53 - 64])
def test_large_indices_send_every_value_through(top, case):
    # from |t| = 2**48 the slack reaches half a bin: every value of the batch
    # is a candidate, and the guard still equals the reference
    grid = GRIDS["q0.1-free"]
    mode, _ = CASES[case]
    cfg = GuardConfig(grid=grid, epsilon=grid.q / 200.0, mode=mode)
    rng = np.random.default_rng(5)
    k = np.concatenate(
        [[top, -top], top - rng.integers(0, 1000, 300), rng.uniform(-50, 50, 300)]
    )
    b = k * grid.q
    v = np.concatenate(
        [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf), b + 0.5 * grid.q]
    )
    cand = _assert_superset(grid, v, cfg.epsilon)
    if top >= 2.0**48:
        assert _same(cand, np.arange(v.size))
    else:
        assert cand.size < v.size
    for g, w in zip(guard_encode_array(cfg, v), _ref_encode(cfg, v)):
        assert _same(g, w)


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_epsilon_far_below_an_ulp_of_t(name):
    # at |t| of 2**20 to 2**46 an ulp of v is far wider than epsilon, so only
    # values whose boundary distance rounds to 0 are near a boundary
    grid = GRIDS[name]
    q = grid.q
    k = np.ldexp(1.0, np.arange(20, 47)) + np.arange(27)
    b = np.concatenate([k, -k]) * q
    v = np.concatenate(
        [b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf), b + 0.25 * q]
    )
    for eps in (1e-12 * q, 1e-200 * q, 5e-324):
        cfg = GuardConfig(grid=grid, epsilon=eps, mode=GuardMode.FULL)
        for batch in [v] + _by_magnitude(grid, v):
            _assert_superset(grid, batch, eps)
            for g, w in zip(guard_encode_array(cfg, batch), _ref_encode(cfg, batch)):
                assert _same(g, w)


@pytest.mark.parametrize("mode", [GuardMode.FULL, GuardMode.CENTER])
def test_planted_boundaries_across_kernel_blocks_match_the_reference(mode):
    # raw-full's shape: 1M normal values on q = 2**-6, with 60,000 of them
    # moved onto boundaries or one ulp beside one, some at the ends of the
    # filter's blocks
    q = 1.0 / 64.0
    cfg = GuardConfig(grid=QuantGrid.uniform(q), epsilon=q / 200.0, mode=mode)
    rng = np.random.default_rng(17)
    v = rng.normal(0.0, 4.0, 1_000_000)
    edges = np.arange(_BLOCK, v.size, _BLOCK)
    at = np.unique(
        np.concatenate([edges - 1, edges, rng.choice(v.size, 60_000, replace=False)])
    )
    b = np.round(v[at] / q) * q
    step = rng.integers(-1, 2, at.size)
    v[at] = np.where(
        step < 0,
        np.nextafter(b, -np.inf),
        np.where(step > 0, np.nextafter(b, np.inf), b),
    )
    _assert_superset(cfg.grid, v, cfg.epsilon)
    got, want = guard_encode_array(cfg, v), _ref_encode(cfg, v)
    for g, w in zip(got, want):
        assert _same(g, w)
    assert np.count_nonzero(got[1]) > at.size


@pytest.mark.parametrize("name", ["q0.1-dom", "q0.015625-dom"])
def test_clamped_values_are_candidates_but_never_risky(name):
    grid = GRIDS[name]
    q = grid.q
    lo, hi = grid.domain
    edges = np.array([lo, hi])
    beyond = np.concatenate(
        [[lo - 1e6, hi + 1e6], lo - q * np.arange(1, 50), hi + q * np.arange(1, 50)]
    )
    inside = np.random.default_rng(9).uniform(lo, hi, 500)
    v = np.concatenate(
        [
            edges,
            beyond,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            inside,
        ]
    )
    clamped = np.flatnonzero(_ref_clamp(grid, v) != v)
    clamped = np.union1d(clamped, np.flatnonzero(np.isin(v, edges)))
    for eps in _epsilons(grid):
        cand = _assert_superset(grid, v, eps)
        assert np.isin(clamped, cand).all()
        for case in CASES.values():
            cfg = GuardConfig(grid=grid, epsilon=eps, mode=case[0])
            got = guard_encode_array(cfg, v)
            assert not got[1][clamped].any()
            for g, w in zip(got, _ref_encode(cfg, v)):
                assert _same(g, w)


# ---------------------------------------------------------------------------
# the entry check, a block at a time
#
# The one pass over the values checks each block before it clamps it, so a
# fault in the last block of a 3-block array raises as one in the first
# would, and a domain grid does not clamp an infinity onto its edge.

_THREE = 2 * _BLOCK + 1000
_LAST_BLOCK = (2 * _BLOCK, _THREE - 1)


def _with_fault(at, x):
    """Values inside both grids' domains but for ``x`` at ``at``."""
    v = np.random.default_rng(4).uniform(-3.0, 3.0, _THREE)
    v[at] = x
    return v


def _raw_decode(cfg, v):
    # the stream of the values before the fault, with no flag where it goes:
    # the decode touches only the flagged values after the one pass
    stream = encode_values(_with_fault(0, 0.0), cfg)
    risky = FlagReader(stream.safeguard, v.size, cfg.mode).take(v.size)[0]
    assert risky.size and not np.isin(_LAST_BLOCK, risky).any()
    return decode_values(stream, v)


# entry point: (call on a config and values, whether it decodes)
ENTRIES = {
    "guard_decode_array": (
        lambda cfg, v: guard_decode_array(cfg, v, np.empty(0, np.int64)),
        True,
    ),
    "guard_encode_array": (guard_encode_array, False),
    "quantize_array": (lambda cfg, v: quantize_array(cfg.grid, v), False),
    "decode_values": (_raw_decode, True),
}


@pytest.mark.parametrize("at", _LAST_BLOCK)
@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "entry, grid",
    # a raw stream's grid has no domain
    [(e, g) for e in ENTRIES for g in ("q0.1-free", "q0.1-dom")
     if (e, g) != ("decode_values", "q0.1-dom")],
)
def test_non_finite_value_in_the_last_block_raises(entry, grid, x, at):
    cfg = GuardConfig(grid=GRIDS[grid], epsilon=1e-4, mode=GuardMode.CENTER)
    call, _ = ENTRIES[entry]
    with pytest.raises(InvalidInputError, match="finite"):
        call(cfg, _with_fault(at, x))


@pytest.mark.parametrize("at", _LAST_BLOCK)
@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_bin_index_2_53_in_the_last_block_raises(entry, sign, at):
    grid = GRIDS["q0.1-free"]
    cfg = GuardConfig(grid=grid, epsilon=1e-4, mode=GuardMode.CENTER)
    call, decodes = ENTRIES[entry]
    v = _with_fault(at, sign * 2.0**53 * grid.q)
    assert abs(np.floor(v[at] / grid.q)) == 2.0**53
    error = FieldValueError if decodes else InvalidInputError
    with pytest.raises(error, match="2\\*\\*53"):
        call(cfg, v)
    # one bin below raises nothing
    call(cfg, _with_fault(at, sign * (2.0**53 - 1.0) * grid.q))


class _FaultInBigPass:
    """Stands in for a perturbation: plants ``x`` in the last block of the
    first coding pass that spans three blocks."""

    def __init__(self, x):
        self.x, self.planted = x, False

    def perturb_array(self, v, grid):
        v = np.array(v, dtype=np.float64)
        if not self.planted and v.size > 2 * quantizer._BLOCK:
            v[-1] = self.x
            self.planted = True
        return v


@pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
def test_octree_decode_checks_the_last_block(x, monkeypatch):
    # the predictor's passes of a small cloud span three blocks only when
    # blocks are small; the pass reads the block size when it runs
    cloud = octree.synth_cloud("dense", 6, 600, seed=5)
    stream = octree.encode(cloud, octree.make_pc_config(5e-4))
    monkeypatch.setattr(quantizer, "_BLOCK", 64)
    fault = _FaultInBigPass(x)
    with pytest.raises(InvalidInputError, match="finite"):
        octree.decode(stream, fault)
    assert fault.planted


# ---------------------------------------------------------------------------
# risky positions, as a FlagReader hands them out chunk by chunk


@pytest.mark.parametrize("mode", [GuardMode.FULL, GuardMode.CENTER])
def test_flag_reader_chunks_decode_to_the_encoders_output(mode):
    # [1/8]'s cases: values planted around boundaries, decoded from copies
    # drifted by up to 0.999 epsilon.  The decode, given the positions a
    # FlagReader hands out chunk by chunk, gives the encoder's output
    rng = np.random.default_rng(8)
    for q, eps in ((0.004, 1e-5), (0.008, 1e-6)):
        cfg = GuardConfig(grid=QuantGrid.uniform(q), epsilon=eps, mode=mode)
        n = 3 * _BLOCK
        v = rng.uniform(-2.0, 2.0, n)
        half = n // 2
        u = rng.choice([0.0, 0.5, 0.999, 1.0, 1.001, 2.0], half)
        sgn = rng.choice([-1.0, 1.0], half)
        v[:half] = rng.integers(-400, 400, half) * q + sgn * u * eps
        v = rng.permutation(v)
        vp = v + rng.uniform(-0.999 * eps, 0.999 * eps, n)
        v_out, f_r, f_d = guard_encode_array(cfg, v)
        reader = FlagReader(encode_flags(f_r, f_d, mode), n, mode)
        cuts = np.unique(np.concatenate([[0, n], rng.integers(0, n, 5)]))
        parts = []
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            at, fd = reader.take(int(hi - lo))
            parts.append(guard_decode_array(cfg, vp[lo:hi], at, fd))
        assert np.count_nonzero(f_r) > 100
        assert _same(np.concatenate(parts), v_out)


# ---------------------------------------------------------------------------
# memory

_MIB = 1024.0 * 1024.0
_N = 1_000_000


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / _MIB
    finally:
        tracemalloc.stop()


def _raw_full_inputs():
    q = 1.0 / 64.0
    cfg = GuardConfig(grid=QuantGrid.uniform(q), epsilon=q / 200.0, mode=GuardMode.FULL)
    return cfg, np.random.default_rng(1).normal(0.0, 4.0, _N)


def test_guard_encode_peak_memory():
    # the 8 MB bin array that becomes v_out and the 1 MB flag array; the
    # nearest-boundary call's work arrays hold only the candidates.  The
    # int64 path peaked at 39.1 MiB here, the kernel run on every value at
    # 24.0 MiB
    cfg, v = _raw_full_inputs()
    assert _traced_peak(guard_encode_array, cfg, v) <= 12.0


def test_raw_read_and_decode_peak_memory():
    # main is a view of the blob, so the 8 MB output and the risky
    # positions; a dense flag mask peaked at 10.0 MiB here, the int64 path
    # at 24.9 MiB
    cfg, v = _raw_full_inputs()
    blob = container.write(encode_values(v, cfg))

    def read_and_decode():
        decode_values(container.read(blob), v)

    assert _traced_peak(read_and_decode) <= 9.0


def test_full_guard_decode_of_every_value_flagged_peak_memory():
    # the most the one nearest-boundary call carries: all 1M raw-full values
    # flagged, so it runs on all of them at once.  The 8 MB output, the
    # flagged values, the call's work arrays, then FULL's protected values;
    # the kernel that worked a block at a time peaked at 46.7 MiB here
    cfg, v = _raw_full_inputs()
    at = np.arange(_N)
    f_d = np.random.default_rng(2).integers(0, 2, _N).astype(np.uint8)
    assert _traced_peak(guard_decode_array, cfg, v, at, f_d) <= 49.0


def test_guard_decode_of_values_beyond_the_domain_peak_memory():
    # probabilities drifted past both edges of [0, 1]: each block is clamped
    # in its own work array, so the 8 MB output is all; a clamped copy of
    # the whole input peaked at 16.2 MiB here
    cfg = octree.make_pc_config(1e-6)
    p = np.random.default_rng(2).uniform(-0.01, 1.01, _N)
    assert _traced_peak(guard_decode_array, cfg, p, np.empty(0, np.int64)) <= 9.0

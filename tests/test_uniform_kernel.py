"""The float-domain uniform-grid kernel against the int64 operators it
replaced, and the memory it works in.

The reference below is the earlier int64 path, in its arithmetic: floor
index, one-ulp repair, nearest boundary with ties going down, bin center,
and the guard's encode and decode composed from them.
Every output of the kernel path must equal it bit for bit.
"""

import tracemalloc

import numpy as np
import pytest

from reproguard import container
from reproguard.errors import FieldValueError
from reproguard.quantizer import (
    QuantGrid,
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
                    guard_decode_array(cfg, vp, f_r, fd)
            else:
                assert _same(guard_decode_array(cfg, vp, f_r, fd), expected)


@pytest.mark.parametrize("name", ["q0.1-free", "q0.015625-dom"])
def test_guard_matches_the_int_path_across_kernel_blocks(name):
    # the kernel works through long arrays a block at a time
    grid = GRIDS[name]
    cfg = GuardConfig(grid=grid, epsilon=grid.q / 200.0, mode=GuardMode.FULL)
    v = _families(grid, cfg.epsilon)
    v = np.random.default_rng(3).permutation(np.tile(v, 100_002 // v.size + 1))
    v = v[:100_002].reshape(-1, 6)
    for g, w in zip(guard_encode_array(cfg, v), _ref_encode(cfg, v)):
        assert _same(g, w)
    _, f_r, f_d = _ref_encode(cfg, v)
    vp = v + 0.5 * cfg.epsilon
    assert _same(guard_decode_array(cfg, vp, f_r, f_d), _ref_decode(cfg, vp, f_r, f_d))


def test_some_values_need_the_one_ulp_repair():
    # the families above reach the repair on both sides, and values whose
    # unrepaired bin differs from their repaired one
    grid = GRIDS["q0.1-free"]
    v = _families(grid, grid.q / 200.0)
    n = np.floor(v / grid.q)
    fi = _ref_floor_index(grid, v).astype(np.float64)
    assert np.any(fi < n) and np.any(fi > n)


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
    # three 8 MB work arrays and the 1 MB flag arrays; the int64 path
    # peaked at 39.1 MiB here
    cfg, v = _raw_full_inputs()
    assert _traced_peak(guard_encode_array, cfg, v) <= 34.0


def test_raw_read_and_decode_peak_memory():
    # the 8 MB main section, the 8 MB output and the flags; the int64 path
    # peaked at 24.9 MiB here
    cfg, v = _raw_full_inputs()
    blob = container.write(encode_values(v, cfg))

    def read_and_decode():
        decode_values(container.read(blob), v)

    assert _traced_peak(read_and_decode) <= 21.0

import math
import tracemalloc
from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from reproguard.entropy import (
    _parse_flags,
    _phi,
    _rice_k,
    _zero_p16,
    FlagReader,
    RangeDecoder,
    RangeEncoder,
    SymbolTables,
    encode_flags,
    gaussian_cdf_table,
    prob_to_p16_array,
)
from reproguard.errors import (
    FieldValueError,
    InvalidInputError,
    MalformedStreamError,
    TrailingDataError,
    TruncatedStreamError,
)
from reproguard import hyperprior
from reproguard.octree import make_pc_config
from reproguard.quantizer import (
    default_scale_table,
    dequantize_array,
    quantize_array,
    round_index_array,
)
from reproguard.safeguard import GuardMode


# ---------------------------------------------------------------------------
# probability mapping


def _p16_reference(v: float) -> int:
    """Prob16 of bit 0 for one bit-1 probability, in Python integers."""
    p = 65536 - int(math.floor(v * 65536.0 + 0.5))
    return min(max(p, 1), 65535)


def test_p16_known_values():
    assert prob_to_p16_array([0.015, 0.5, 1.0, 0.0]).tolist() == [64553, 32768, 1, 65535]


def test_p16_rejects_out_of_range():
    with pytest.raises(InvalidInputError):
        prob_to_p16_array([-0.01])
    with pytest.raises(InvalidInputError):
        prob_to_p16_array([1.01])


def test_p16_rejects_nan():
    # NaN fails every comparison, so a check for values outside [0, 1] lets
    # it through, and its cast to an integer differs between platforms
    for v in ([float("nan")], [0.5, float("nan"), 0.25]):
        with pytest.raises(InvalidInputError):
            prob_to_p16_array(v)


def _pc_grid_values(k):
    """Every bin centre and interior boundary of the octree's grid at k: the
    probabilities a guarded octree decode hands the coder."""
    grid = make_pc_config(1e-6, k).grid
    centres = dequantize_array(grid, np.arange(k))
    _, boundaries = round_index_array(grid, np.arange(1, k) * grid.q)
    return np.concatenate([centres, boundaries])


def _p16_ties():
    """Each rounding tie (j + 0.5) / 65536 with its 1-ulp neighbours, then 0,
    1 and the smallest subnormal."""
    ties = (np.arange(65536) + 0.5) / 65536.0
    edges = [0.0, 1.0, 5e-324]
    return np.concatenate([ties, np.nextafter(ties, 0.0), np.nextafter(ties, 1.0), edges])


def test_p16_array_matches_scalar():
    inputs = [np.linspace(0.0, 1.0, 1001), _p16_ties()]
    inputs += [_pc_grid_values(k) for k in (250, 10, 1)]
    for v in inputs:
        arr = prob_to_p16_array(v)
        assert arr.dtype == np.int64
        assert arr.tolist() == [_p16_reference(float(x)) for x in v]


# ---------------------------------------------------------------------------
# bit coder


def test_skewed_zeros_compress_hard():
    enc = RangeEncoder()
    p = np.full(100000, 65535, dtype=np.int64)
    enc.encode_bits(np.zeros(100000, dtype=np.uint8), p)
    data = enc.finish()
    assert len(data) <= 50
    assert not RangeDecoder(data).decode_bits(p).any()


def test_single_symmetric_bit():
    enc = RangeEncoder()
    enc.encode_bits([1], [32768])
    assert RangeDecoder(enc.finish()).decode_bits([32768]).tolist() == [1]


def test_efficiency_near_shannon():
    rng = np.random.default_rng(42)
    n = 1000000
    bits = (rng.random(n) < 0.9).astype(np.uint8)
    p16 = np.full(n, _p16_reference(0.9), dtype=np.int64)
    enc = RangeEncoder()
    enc.encode_bits(bits, p16)
    data = enc.finish()
    h = -(0.9 * math.log2(0.9) + 0.1 * math.log2(0.1))
    assert len(data) * 8 <= 1.01 * h * n + 32
    assert np.array_equal(RangeDecoder(data).decode_bits(p16), bits)


def test_deterministic_output():
    rng = np.random.default_rng(3)
    bits = (rng.random(5000) < 0.3).astype(np.uint8)
    p16 = rng.integers(1, 65536, 5000)
    outs = set()
    for _ in range(3):
        enc = RangeEncoder()
        enc.encode_bits(bits, p16)
        outs.add(enc.finish())
    assert len(outs) == 1


@settings(max_examples=60)
@given(st.lists(st.tuples(st.integers(0, 1), st.integers(1, 65535)), max_size=400))
def test_roundtrip_arbitrary_sequences(pairs):
    enc = RangeEncoder()
    for bit, p in pairs:
        enc.encode_bits([bit], [p])
    dec = RangeDecoder(enc.finish())
    assert [dec.decode_bits([p])[0] for _, p in pairs] == [b for b, _ in pairs]


def test_fuzz_roundtrip_many_streams():
    rng = np.random.default_rng(1010)
    for _ in range(300):
        n = int(rng.integers(0, 700))
        bits = rng.integers(0, 2, n).astype(np.uint8)
        p16 = rng.integers(1, 65536, n)
        enc = RangeEncoder()
        enc.encode_bits(bits, p16)
        out = RangeDecoder(enc.finish()).decode_bits(p16)
        assert np.array_equal(out, bits)


def test_decode_past_end_raises():
    enc = RangeEncoder()
    enc.encode_bits([1], [100])
    data = enc.finish()
    dec = RangeDecoder(data)
    with pytest.raises(TruncatedStreamError):
        for _ in range(10000):
            dec.decode_bits([30000])


def test_truncated_stream_rejected_at_init():
    with pytest.raises(TruncatedStreamError):
        RangeDecoder(b"\x00\x01")


# ---------------------------------------------------------------------------
# flag streams


class Flags(NamedTuple):
    """Risky flags and, in FULL mode, one direction bit per risky flag in
    flag order: the arguments ``encode_flags`` takes before the mode."""

    f_r: np.ndarray
    f_d: np.ndarray


def _flags(fr, fd=()):
    return Flags(np.asarray(fr, dtype=np.uint8), np.asarray(fd, dtype=np.uint8))


def _directions(rng, fr):
    """A random direction bit for each risky flag of ``fr``."""
    return rng.integers(0, 2, int(np.count_nonzero(fr))).astype(np.uint8)


def _dense(at, count):
    """The uint8 flags of ``count`` values with risky ones at ``at``."""
    fr = np.zeros(count, dtype=np.uint8)
    fr[at] = 1
    return fr


def _take_all(data, count, mode) -> Flags:
    """Every flag of a section in one take, as dense flags."""
    at, fd = FlagReader(data, count, mode).take(count)
    return Flags(_dense(at, count), fd)


def test_sparse_flags_stay_small():
    fr = np.zeros(1000, dtype=np.uint8)
    fr[123] = 1
    assert _zero_p16(1000, 1) == 65470
    data = encode_flags(*_flags(fr), GuardMode.CENTER)
    assert len(data) <= 6


@pytest.mark.parametrize("dtype", [np.uint8, bool, np.int64, np.float64])
def test_any_nonzero_flag_is_risky(dtype):
    # the risky positions are those of the nonzero flags, whatever their
    # type and value
    rng = np.random.default_rng(31)
    fr = (rng.random(5000) < 0.02).astype(np.uint8)
    fd = _directions(rng, fr)
    want = encode_flags(fr, fd, GuardMode.FULL)
    scaled = fr.astype(dtype) * rng.integers(1, 100, fr.size).astype(dtype)
    assert encode_flags(scaled, fd, GuardMode.FULL) == want


def test_zero_flags_empty_stream():
    assert encode_flags(*_flags([]), GuardMode.CENTER) == b""
    out = _take_all(b"", 0, GuardMode.CENTER)
    assert len(out.f_r) == 0


def test_full_mode_interleaves_directions():
    fr = [1, 0, 1]
    fd = [0, 1]
    data = encode_flags(fr, fd, GuardMode.FULL)
    out = _take_all(data, 3, GuardMode.FULL)
    assert out.f_r.tolist() == fr
    assert out.f_d.tolist() == fd


def test_flag_roundtrip_fuzz():
    rng = np.random.default_rng(77)
    for mode in GuardMode:
        for _ in range(50):
            n = int(rng.integers(0, 400))
            fr = (rng.random(n) < 0.02).astype(np.uint8)
            fd = _directions(rng, fr)
            fs = _flags(fr, fd if mode == GuardMode.FULL else ())
            data = encode_flags(*fs, mode)
            out = _take_all(data, n, mode)
            assert np.array_equal(out.f_r, fr)
            if mode == GuardMode.FULL:
                assert np.array_equal(out.f_d, fd)


def test_flag_reader_rejects_overread():
    data = encode_flags([0, 1, 0], [], GuardMode.CENTER)
    reader = FlagReader(data, 3, GuardMode.CENTER)
    reader.take(3)
    assert reader.exhausted
    with pytest.raises(MalformedStreamError):
        reader.take(1)


def test_flag_reader_validates_p0():
    # the zero rate is not read but derived from the flag count and R, so
    # the reader's check is R <= count, under which every rate is a Prob16
    # in [1, 65535]: 4 risky flags among 3 are refused
    with pytest.raises(FieldValueError, match="4 risky flags declared among 3"):
        FlagReader(b"\x04\x00", 3, GuardMode.CENTER).take(0)
    assert {_zero_p16(3, r) for r in range(4)} == {1, 21845, 43691, 65535}


def test_missing_direction_rejected_in_full_mode():
    fr = np.array([1, 0, 1], dtype=np.uint8)
    for fd in ([], [0], [0, 1, 1]):  # one direction bit per risky flag, or none
        with pytest.raises(InvalidInputError):
            encode_flags(fr, fd, GuardMode.FULL)
    assert encode_flags(fr, [], GuardMode.CENTER)


# ---------------------------------------------------------------------------
# the Rice-coded flag section


def test_rice_k_is_pinned():
    # the least Prob16 of a safe flag at which k reaches 1, 2, ..., 15;
    # Kiely's closed form in floats, 1 + floor(log2(log(phi - 1) / log(p0))),
    # puts three of them one lower (58108, 64558, 65413).  p of 65536 flags
    # safe is a Prob16 of exactly p.
    ks = [_rice_k(65536, 65536 - p) for p in range(1, 65536)]
    assert ks[0] == 0 and max(ks) == 15
    assert all(a <= b for a, b in zip(ks, ks[1:]))
    assert [ks.index(j) + 1 for j in range(1, 16)] == [
        40504, 51522, 58109, 61711, 63595, 64559, 65046, 65291,
        65414, 65475, 65506, 65521, 65529, 65533, 65535,
    ]


# The v2 derivation of k, kept as the reference for the one that replaced
# it: the encoder rounded the share of safe flags to a Prob16, p0_q16, and
# wrote it into the header; the Rice parameter was a function of p0_q16.


def _v2_p0_q16(zeros: int, n: int) -> int:
    """FlagStream.from_arrays's p0_q16 for ``n`` flags, ``zeros`` of them safe."""
    if n == 0:
        return 32768
    p0 = float(zeros) / n
    return int(min(max(math.floor(p0 * 65536.0 + 0.5), 1), 65535))


def _v2_rice_k(p0_q16: int) -> int:
    k, t = 0, p0_q16
    while t >= 40504:
        k += 1
        t = (t * t) >> 16
    return k


def test_rice_k_matches_the_v2_header_derivation():
    # every R <= count for count <= 2,000: the reference's k per Prob16 is
    # looked up, since only the Prob16s need the per-pair formula
    k_of = [_v2_rice_k(p) for p in range(65536)]
    for count in range(2001):
        for risky in range(count + 1):
            p0_q16 = _v2_p0_q16(count - risky, count)
            assert _zero_p16(count, risky) == p0_q16
            assert _rice_k(count, risky) == k_of[p0_q16], (count, risky)


@pytest.mark.parametrize("count", [65535, 65536, 2**20 + 7, 2**32 - 1])
def test_rice_k_matches_the_v2_header_derivation_at_edge_counts(count):
    for risky in (0, 1, 2, count - 1, count):
        p0_q16 = _v2_p0_q16(count - risky, count)
        assert _zero_p16(count, risky) == p0_q16
        assert _rice_k(count, risky) == _v2_rice_k(p0_q16)


def _section(bits: str) -> bytes:
    """Bytes of a bit string, zero-padded to a whole byte."""
    bits = bits.replace(" ", "")
    bits += "0" * (-len(bits) % 8)
    return bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))


def _rice_reference(fs: Flags, mode: GuardMode) -> bytes:
    """The section layout written out one gap at a time, as a bit string."""
    risky = [i for i, f in enumerate(fs.f_r.tolist()) if f]
    k = _rice_k(len(fs.f_r), len(risky))
    gaps = [b - a - 1 for a, b in zip([-1] + risky, risky)]
    count, varint = len(risky), bytearray()
    while count > 0x7F:
        varint.append(0x80 | (count & 0x7F))
        count >>= 7
    varint.append(count)
    bits = "".join(format(g % (1 << k), f"0{k}b") if k else "" for g in gaps)
    bits += "".join("1" * (g >> k) + "0" for g in gaps)
    if mode == GuardMode.FULL:
        bits += "".join(str(int(d)) for d in fs.f_d)
    return bytes(varint) + _section(bits)


@settings(max_examples=80, deadline=None)
@given(
    mode=st.sampled_from(list(GuardMode)),
    n=st.integers(1, 3000),
    rate=st.sampled_from([0.0, 0.001, 0.02, 0.3, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_section_matches_a_gap_by_gap_reference(mode, n, rate, seed):
    rng = np.random.default_rng(seed)
    fr = (rng.random(n) < rate).astype(np.uint8)
    fd = _directions(rng, fr)
    fs = _flags(fr, fd if mode == GuardMode.FULL else ())
    data = encode_flags(*fs, mode)
    assert data == _rice_reference(fs, mode)
    out = _take_all(data, n, mode)
    assert np.array_equal(out.f_r, fs.f_r) and np.array_equal(out.f_d, fs.f_d)


@pytest.mark.parametrize("mode", list(GuardMode))
def test_no_risky_flags_take_one_byte(mode):
    data = encode_flags(np.zeros(1000, dtype=np.uint8), [], mode)
    assert data == b"\x00"
    assert not _take_all(data, 1000, mode).f_r.any()


@pytest.mark.parametrize("mode", [GuardMode.FULL, GuardMode.CENTER])
def test_every_flag_risky(mode):
    fd = (np.arange(500) % 3 == 0).astype(np.int8)
    assert _zero_p16(500, 500) == 1 and _rice_k(500, 500) == 0
    data = encode_flags(np.ones(500, dtype=np.uint8), fd, mode)
    # a 2-byte count, then one zero bit per gap and one bit per direction
    directions = 500 if mode == GuardMode.FULL else 0
    assert len(data) == 2 + math.ceil((500 + directions) / 8)
    out = _take_all(data, 500, mode)
    assert out.f_r.all()
    assert np.array_equal(out.f_d, fd if mode == GuardMode.FULL else [])


def test_p0_at_its_ceiling():
    # 3 risky flags in 200,000 round to the top Prob16 (at most 1.5 in
    # 65,536 risky do)
    fr = np.zeros(200_000, dtype=np.uint8)
    fr[[0, 70_000, 199_999]] = 1
    fd = np.array([1, 0, 1], dtype=np.uint8)
    assert _zero_p16(200_000, 3) == 65535 and _rice_k(200_000, 3) == 15
    assert _zero_p16(100_000, 3) == 65534  # one step below the ceiling
    data = encode_flags(fr, fd, GuardMode.FULL)
    # gaps 0, 69999 and 129998: three 15-bit remainders, quotients 0, 2 and 3
    assert len(data) == 1 + math.ceil((3 * 15 + 8 + 3) / 8)
    out = _take_all(data, 200_000, GuardMode.FULL)
    assert np.array_equal(out.f_r, fr) and np.array_equal(out.f_d, fd)


def test_section_is_parsed_on_the_first_take():
    reader = FlagReader(b"\xff", 10, GuardMode.CENTER)
    with pytest.raises(TruncatedStreamError):
        reader.take(0)


# k follows from the flag count and R: k = 1 for one risky flag among 3, so
# a gap there is a 1-bit remainder and a unary quotient
@pytest.mark.parametrize(
    "data, count, error",
    [
        # the count of risky flags: 6 bytes, 5 bytes past any 32-bit count,
        # a non-minimal zero, and more risky flags than flags
        (b"\x80\x80\x80\x80\x80\x01\x00", 10, MalformedStreamError),
        (b"\xff\xff\xff\xff\x7f" + bytes(8), 10, MalformedStreamError),
        (b"\x80\x00", 10, MalformedStreamError),
        (b"\x0b\x00\x00", 10, MalformedStreamError),
        # a count the section is too short to hold: no allocation follows
        # from it or from the declared flag count
        (b"\xff\xff\xff\xff\x0f\x00", 2**32 - 1, TruncatedStreamError),
        (b"\x80", 10, TruncatedStreamError),
        (b"", 10, TruncatedStreamError),
        # a quotient that never ends
        (b"\x01\xff", 100, TruncatedStreamError),
        # nonzero padding, a trailing byte, and a gap past the flag count
        (b"\x01" + _section("0 0000001"), 3, MalformedStreamError),
        (b"\x01" + _section("0") + b"\x00", 3, TrailingDataError),
        (b"\x01" + _section("1110"), 3, MalformedStreamError),
        # a stream without flags has an empty section
        (b"\x00", 0, TrailingDataError),
    ],
)
def test_hostile_sections_raise_typed(data, count, error):
    with pytest.raises(error) as info:
        FlagReader(data, count, GuardMode.CENTER).take(0)
    # a fault that no narrower class names is a FieldValueError, never the
    # bare base class
    assert type(info.value) is (FieldValueError if error is MalformedStreamError else error)


def test_gap_that_ends_at_the_last_flag_is_accepted():
    # gap 2 at k = 1: remainder 0, quotient 1
    data = b"\x01" + _section("0 10")
    assert encode_flags([0, 0, 1], [], GuardMode.CENTER) == data
    out = _take_all(data, 3, GuardMode.CENTER)
    assert out.f_r.tolist() == [0, 0, 1]


def _parses_canonically(data, count, mode) -> bool:
    """Whether ``data`` parses; if it does, it must be the one coding of the
    flags it decodes to."""
    try:
        out = _take_all(data, count, mode)
    except MalformedStreamError:
        return False
    assert encode_flags(*out, mode) == data
    return True


@pytest.mark.parametrize("mode", list(GuardMode))
def test_random_and_bit_flipped_sections(mode):
    # a flipped remainder bit moves a risky flag to another legal position,
    # which no check can see; every other change must raise typed
    rng = np.random.default_rng(2024)
    fs = _chunked_flags(mode, 12, [400])
    data = encode_flags(*fs, mode)
    parsed = 0
    for i in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[i // 8] ^= 0x80 >> (i % 8)
        parsed += _parses_canonically(bytes(flipped), len(fs.f_r), mode)
    assert 0 < parsed < 8 * len(data)
    parsed = 0
    for _ in range(500):
        junk = rng.bytes(int(rng.integers(0, 24)))
        count = int(rng.integers(0, 300))
        parsed += _parses_canonically(junk, count, mode)
    assert parsed < 500


# ---------------------------------------------------------------------------
# Gaussian tables


def test_wide_sigma_tends_to_uniform():
    freq = np.diff(gaussian_cdf_table(1e6, 2))
    assert all(13100 <= f <= 13110 for f in freq)


def test_table_symmetry():
    for sigma in (0.2, 0.7, 3.0, 64.0):
        freq = np.diff(gaussian_cdf_table(sigma, 32))
        n = len(freq)
        assert all(freq[i] == freq[n - 1 - i] for i in range(n))


def test_totals_and_floors_over_many_sigmas():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        sigma = float(10.0 ** rng.uniform(-2, 3))
        cum = gaussian_cdf_table.__wrapped__(sigma, 32)
        assert len(cum) == 2 * 32 + 2
        assert cum[-1] == 65536
        assert cum[0] == 0
        assert min(np.diff(cum)) >= 1


def test_bad_sigma_rejected():
    with pytest.raises(InvalidInputError):
        gaussian_cdf_table(0.0, 32)
    with pytest.raises(InvalidInputError):
        gaussian_cdf_table(-1.0, 32)
    with pytest.raises(InvalidInputError):
        gaussian_cdf_table(float("nan"), 32)


def _table_margins(sigma, amplitude=32):
    """``gaussian_cdf_table``'s float steps, mirrored, and how far they are
    from a decision that would change the table: the least relative
    distance of an ``ideal`` frequency >= 0.5 from an integer (``floor``
    and the center-frequency stop compare against integers), and the gap
    between the last remainder the ``order`` loop bumps and the first it
    does not (None without such a cutoff).  Also returns the frequencies
    the mirror builds, without the ``shrink`` loop."""
    w = [2.0 * (_phi(0.5 / sigma) - _phi(0.0))]
    for k in range(1, amplitude + 1):
        w.append(_phi((k + 0.5) / sigma) - _phi((k - 0.5) / sigma))
    total = w[0] + 2.0 * sum(w[1:])
    ideal = [x * 65536.0 / total for x in w]
    to_integer = min(abs(x - round(x)) / x for x in ideal if x >= 0.5)

    m = [max(1, math.floor(x)) for x in ideal[1:]]
    rem = [x - math.floor(x) for x in ideal[1:]]
    order = sorted(range(amplitude), key=lambda i: (-rem[i], i))
    bumped = 0
    while 65536 - 2 * sum(m) > ideal[0] + 1.0 and bumped < amplitude:
        m[order[bumped]] += 1
        bumped += 1
    cutoff = None
    if 0 < bumped < amplitude:
        cutoff = rem[order[bumped - 1]] - rem[order[bumped]]
    return to_integer, cutoff, m[::-1] + [65536 - 2 * sum(m)] + m


def _scale_bin_sigmas():
    """The scale each of the scale table's 64 bins codes against: exp of its
    center on log sigma, as the hyperprior computes it."""
    grid = default_scale_table()
    lo, hi = quantize_array(grid, np.array(grid.domain))
    return np.exp(dequantize_array(grid, np.arange(lo, hi + 1))).tolist()


def test_scale_bin_tables_hold_a_float_margin():
    # Both sides build each scale bin's sigma with exp and its table with
    # math.exp, unguarded: a libm's exp error (an ulp, ~1e-16) must stay far
    # from every decision.  Over the 64 bins of the scale table the margins
    # are 7.3e-8 and 1.9e-4.
    mids = _scale_bin_sigmas()
    margins = [_table_margins(m) for m in mids]
    # the mirror builds every table, so the shrink loop never runs
    for sigma, (_, _, freq) in zip(mids, margins):
        assert freq == np.diff(gaussian_cdf_table(sigma, 32)).tolist()
    assert len(margins) == 64
    assert min(t for t, _, _ in margins) >= 1e-9
    cutoffs = [c for _, c, _ in margins if c is not None]
    assert len(cutoffs) == 33
    assert min(cutoffs) >= 1e-9


def test_z_table_holds_a_float_margin():
    # the hyperprior's rounded z codes against one table, built by the same
    # unguarded float steps; its margin is 1.76e-5, and no remainder cutoff
    to_integer, cutoff, freq = _table_margins(hyperprior._Z_SCALE)
    assert freq == np.diff(gaussian_cdf_table(hyperprior._Z_SCALE, 32)).tolist()
    assert to_integer >= 1e-9
    assert cutoff is None or cutoff >= 1e-9


def test_symbol_roundtrip_through_coder():
    rng = np.random.default_rng(21)
    tables = SymbolTables([gaussian_cdf_table(1.7, 8)])
    syms = rng.integers(0, 17, 3000).tolist()
    enc = RangeEncoder()
    for s in syms:
        enc.encode_symbols(tables, [0], [s])
    dec = RangeDecoder(enc.finish())
    assert [dec.decode_symbols(tables, [0])[0] for _ in syms] == syms


def test_mixed_bits_and_symbols_share_one_stream():
    tables = SymbolTables([gaussian_cdf_table(0.9, 4)])
    enc = RangeEncoder()
    enc.encode_bits([1], [40000])
    enc.encode_symbols(tables, [0], [3])
    enc.encode_bits([0], [22222])
    enc.encode_symbols(tables, [0], [8])
    dec = RangeDecoder(enc.finish())
    assert dec.decode_bits([40000]).tolist() == [1]
    assert dec.decode_symbols(tables, [0]).tolist() == [3]
    assert dec.decode_bits([22222]).tolist() == [0]
    assert dec.decode_symbols(tables, [0]).tolist() == [8]


# ---------------------------------------------------------------------------
# flag reader in chunks


def _chunked_flags(mode, seed, sizes):
    """Flags at a 5% risky rate with risky ones forced onto both sides of
    every chunk edge; ``sizes`` are the chunk sizes the reader will take."""
    rng = np.random.default_rng(seed)
    n = sum(sizes)
    fr = (rng.random(n) < 0.05).astype(np.uint8)
    edges = np.cumsum(sizes)[:-1]
    fr[edges[edges < n]] = 1
    fr[edges[edges > 0] - 1] = 1
    return _flags(fr, _directions(rng, fr) if mode == GuardMode.FULL else ())


@settings(max_examples=80, deadline=None)
@given(
    mode=st.sampled_from(list(GuardMode)),
    sizes=st.lists(st.integers(0, 40), min_size=1, max_size=25),
    seed=st.integers(0, 2**32 - 1),
)
def test_flag_reader_chunks_match_one_shot(mode, sizes, seed):
    fs = _chunked_flags(mode, seed, sizes)
    n = len(fs.f_r)
    data = encode_flags(*fs, mode)
    whole = _take_all(data, n, mode)
    assert np.array_equal(whole.f_r, fs.f_r)
    assert np.array_equal(whole.f_d, fs.f_d)

    # the reference takes each chunk's directions from dense flags: the
    # chunk's risky flags pick theirs, and CENTER has none
    dense = np.zeros(n, dtype=np.uint8)
    dense[fs.f_r == 1] = fs.f_d if mode == GuardMode.FULL else 0
    reader = FlagReader(data, n, mode)
    at = 0
    for k in sizes:
        pos, fd = reader.take(k)
        want_fr = fs.f_r[at : at + k]
        want_fd = dense[at : at + k][want_fr == 1]
        if mode == GuardMode.CENTER:
            want_fd = want_fd[:0]
        assert np.array_equal(pos, np.flatnonzero(want_fr))
        assert fd.dtype == np.uint8 and np.array_equal(fd, want_fd)
        at += k
    assert reader.exhausted
    with pytest.raises(MalformedStreamError):
        reader.take(1)


@settings(max_examples=80, deadline=None)
@given(
    mode=st.sampled_from(list(GuardMode)),
    n=st.integers(0, 3000),
    rate=st.sampled_from([0.0, 0.01, 0.2, 1.0]),
    cuts=st.lists(st.integers(0, 3000), max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_take_hands_out_the_parsed_positions(mode, n, rate, cuts, seed):
    # a random section taken in random chunks: each chunk's positions are
    # ascending and below its size, and shifted by the chunk's offset they
    # concatenate to the parser's positions, directions alike
    rng = np.random.default_rng(seed)
    fr = (rng.random(n) < rate).astype(np.uint8)
    fs = _flags(fr, _directions(rng, fr) if mode == GuardMode.FULL else ())
    data = encode_flags(*fs, mode)
    positions, directions = _parse_flags(data, n, mode == GuardMode.FULL)
    bounds = np.unique(np.clip([0, n, *cuts], 0, n))
    reader = FlagReader(data, n, mode)
    got_at, got_fd = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.uint8)]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        assert not reader.exhausted
        pos, fd = reader.take(int(hi - lo))
        assert pos.dtype.kind == "i" and np.all(np.diff(pos) > 0)
        assert np.all((pos >= 0) & (pos < hi - lo))
        assert fd.shape == (pos.size if mode == GuardMode.FULL else 0,)
        got_at.append(pos + lo)
        got_fd.append(fd)
    assert np.array_equal(np.concatenate(got_at), positions)
    assert np.array_equal(np.concatenate(got_fd), directions)
    assert np.array_equal(positions, np.flatnonzero(fr))
    assert reader.exhausted
    with pytest.raises(FieldValueError, match="more flags requested than declared"):
        reader.take(1)


@pytest.mark.parametrize("mode", list(GuardMode))
def test_flag_reader_take_zero(mode):
    reader = FlagReader(b"", 0, mode)
    fr, fd = reader.take(0)
    assert fr.shape == (0,) and fd.shape == (0,)
    assert reader.exhausted
    with pytest.raises(MalformedStreamError):
        reader.take(1)


def test_flag_reader_refuses_a_negative_take():
    # a take of -1 would step the reader back, and a take of 11 after it
    # would hand out positions shifted by one and report the reader exhausted
    data = encode_flags(*_flags(_dense([2, 7], 10)), GuardMode.CENTER)
    reader = FlagReader(data, 10, GuardMode.CENTER)
    with pytest.raises(InvalidInputError):
        reader.take(-1)
    assert reader.take(10)[0].tolist() == [2, 7]
    assert reader.exhausted


@pytest.mark.parametrize("mode", list(GuardMode))
def test_cut_safeguard_section_raises_truncated(mode):
    fs = _chunked_flags(mode, 5, [700])
    data = encode_flags(*fs, mode)
    assert len(data) > 5
    # every byte holds coded bits, so a section cut anywhere is too short
    for end in range(len(data)):
        reader = FlagReader(data[:end], len(fs.f_r), mode)
        with pytest.raises(TruncatedStreamError):
            reader.take(len(fs.f_r))


def test_bit_batches_give_uint8_and_reject_bad_p16():
    p16 = np.array([9000, 50000, 30000])
    enc = RangeEncoder()
    enc.encode_bits(np.array([1, 0, 1], dtype=np.uint8), p16)
    out = RangeDecoder(enc.finish()).decode_bits(p16)
    assert out.dtype == np.uint8 and out.tolist() == [1, 0, 1]
    # a zero-width interval would never renormalize
    for bad in (0, 65536):
        with pytest.raises(InvalidInputError):
            RangeEncoder().encode_bits(np.array([0]), np.array([bad]))


def test_bit_batches_need_one_prob16_per_bit():
    # a length slip once coded the shorter of the two without a word:
    # both of these gave the same bytes
    for bits, p16 in (([1, 0, 1, 1, 0], [30000, 30000]), ([1], [30000, 30000, 40000])):
        enc = RangeEncoder()
        with pytest.raises(InvalidInputError):
            enc.encode_bits(bits, p16)
        assert enc.finish() == RangeEncoder().finish()


def test_bit_batches_must_be_one_dimensional():
    enc = RangeEncoder()
    for bits, p16 in (
        ([[1, 0]], [[30000, 30000]]),
        (np.zeros((2, 2), dtype=np.uint8), [30000] * 4),
        ([1, 0, 1, 1], np.full((2, 2), 30000)),
        (1, [30000]),
    ):
        with pytest.raises(InvalidInputError):
            enc.encode_bits(bits, p16)
    assert enc.finish() == RangeEncoder().finish()
    dec = RangeDecoder(bytes(8))
    for p16 in ([[30000]], 30000):
        with pytest.raises(InvalidInputError):
            dec.decode_bits(p16)


# ---------------------------------------------------------------------------
# per-stream symbol tables


def _scale_bin_tables():
    mids = _scale_bin_sigmas()
    return SymbolTables([gaussian_cdf_table(m, 32) for m in mids])


def _bisect(cum, targets):
    """The v1 decoder's symbol search, over many targets at once."""
    lo = np.zeros(targets.shape, dtype=np.int64)
    hi = np.full(targets.shape, len(cum) - 1, dtype=np.int64)
    while np.any(hi - lo > 1):
        mid = (lo + hi) >> 1
        below = cum[mid] <= targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return lo


def test_inverse_lookup_matches_bisect_for_every_target():
    targets = np.arange(65536, dtype=np.int64)
    for tables in (_scale_bin_tables(), hyperprior._Z_TABLES):
        inverse = np.array(tables.inverse, dtype=np.int64)
        assert len(inverse) == 65536 * len(tables)
        assert tables.inverse.itemsize == 2
        for t in range(len(tables)):
            s = inverse[(t << 16) | targets]
            base = int(tables.base[t])
            table_cum = tables.cum[base: base + int(tables.size[t]) + 1]
            assert np.array_equal(s - base, _bisect(table_cum, targets)), t


def test_symbol_tables_past_16_bit_flat_indices_roundtrip():
    # two tables of 40,000 symbols: flat indices reach 80,000, so the
    # inverse takes 4-byte entries, where 2-byte ones would wrap
    cum = np.round(np.linspace(0, 65536, 40001)).astype(np.int64).tolist()
    tables = SymbolTables([cum, cum])
    assert tables.inverse.itemsize == 4
    rng = np.random.default_rng(11)
    n = 5000
    table_ids = rng.integers(0, 2, n)
    syms = rng.integers(0, 40000, n)
    syms[:2], table_ids[:2] = 39999, 1  # the greatest flat index
    enc = RangeEncoder()
    enc.encode_symbols(tables, table_ids, syms)
    got = RangeDecoder(enc.finish()).decode_symbols(tables, table_ids)
    assert np.array_equal(got, syms)


def test_symbol_decode_peak_memory_over_every_scale_bin():
    # the inverse is built on the first decode: 2 bytes for each of the
    # 65,536 targets of each of the 64 tables, 8 MiB.  The whole decode
    # peaked at 8.14 MiB here; 4-byte entries would take 16 MiB
    tables = _scale_bin_tables()
    ids = np.arange(4096) % len(tables)
    syms = np.minimum(tables.size[ids] - 1, np.arange(4096) % 65)
    enc = RangeEncoder()
    enc.encode_symbols(tables, ids, syms)
    dec = RangeDecoder(enc.finish())
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = dec.decode_symbols(tables, ids)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert np.array_equal(got, syms)
    assert peak <= 8.5 * 2**20


def test_symbol_batch_roundtrip_over_every_scale_bin():
    tables = _scale_bin_tables()
    rng = np.random.default_rng(4)
    n = 20000
    table_ids = rng.integers(0, len(tables), n)
    # uniform symbols reach the one-count tails of narrow tables
    syms = rng.integers(0, 65, n)
    enc = RangeEncoder()
    enc.encode_symbols(tables, table_ids, syms)
    data = enc.finish()
    assert np.array_equal(RangeDecoder(data).decode_symbols(tables, table_ids), syms)


def test_symbol_batch_matches_scalar_calls():
    tables = SymbolTables([gaussian_cdf_table(1.7, 8)])
    syms = np.random.default_rng(6).integers(0, 17, 500)
    scalar = RangeEncoder()
    for s in syms.tolist():
        scalar.encode_symbols(tables, [0], [s])
    batch = RangeEncoder()
    batch.encode_symbols(tables, np.zeros(500, dtype=np.int64), syms)
    assert scalar.finish() == batch.finish()


def test_symbol_tables_reject_bad_input():
    with pytest.raises(InvalidInputError):
        SymbolTables([])
    with pytest.raises(InvalidInputError):
        SymbolTables([(0, 100, 65535)])
    with pytest.raises(InvalidInputError):
        SymbolTables([(0, 100, 100, 65536)])
    tables = SymbolTables([gaussian_cdf_table(1.0, 4)])
    with pytest.raises(InvalidInputError):
        RangeEncoder().encode_symbols(tables, [0], [9])
    with pytest.raises(InvalidInputError):
        RangeEncoder().encode_symbols(tables, [1], [0])


# ---------------------------------------------------------------------------
# the encoder against its reference
#
# The reference carries the low end of the interval in its loops and folds
# each carry into the bytes already written, one byte at a time.  Its
# _carry also counts the 0xFF bytes a carry runs through, so a corpus can
# show that it exercised long carries.

_MASK32 = 0xFFFFFFFF


class _ReferenceEncoder:
    def __init__(self):
        self.low = 0
        self.range = _MASK32
        self._buf = bytearray()
        self.longest_carry = 0

    def encode_bits(self, bits, p16s):
        bits = (np.asarray(bits) != 0).tolist()
        _reference_bits(self, bits, np.asarray(p16s, dtype=np.int64).tolist())

    def encode_symbols(self, tables, table_ids, symbols):
        start, size = tables.ranges(table_ids, symbols)
        _reference_ranges(self, start.tolist(), size.tolist())

    def finish(self):
        for _ in range(4):
            self._buf.append(self.low >> 24)
            self.low = (self.low << 8) & _MASK32
        return bytes(self._buf)


def _carry(enc):
    # nested coding intervals guarantee a byte exists to receive it
    buf = enc._buf
    i = len(buf) - 1
    while buf[i] == 0xFF:
        buf[i] = 0
        i -= 1
    buf[i] += 1
    enc.longest_carry = max(enc.longest_carry, len(buf) - 1 - i)


def _reference_bits(enc, bits, p16s):
    top, mask = 1 << 24, _MASK32
    low, rng, buf = enc.low, enc.range, enc._buf
    for bit, p16 in zip(bits, p16s):
        r0 = (rng >> 16) * p16
        if bit:
            low += r0
            if low > mask:
                _carry(enc)
                low &= mask
            rng -= r0
        else:
            rng = r0
        while rng < top:
            buf.append(low >> 24)
            low = (low << 8) & mask
            rng <<= 8
    enc.low, enc.range = low, rng


def _reference_ranges(enc, starts, sizes):
    top, mask = 1 << 24, _MASK32
    low, rng, buf = enc.low, enc.range, enc._buf
    for start, size in zip(starts, sizes):
        r = rng >> 16
        low += r * start
        if low > mask:
            _carry(enc)
            low &= mask
        rng = r * size
        while rng < top:
            buf.append(low >> 24)
            low = (low << 8) & mask
            rng <<= 8
    enc.low, enc.range = low, rng


def _both_encoders(calls):
    """The bytes of the encoder and of the reference after the same calls,
    each ``(method name, args)``, and the reference's longest carry."""
    enc, ref = RangeEncoder(), _ReferenceEncoder()
    for name, args in calls:
        getattr(enc, name)(*args)
        getattr(ref, name)(*args)
    return enc.finish(), ref.finish(), ref.longest_carry


@pytest.mark.parametrize("p16_kind", ["one", "max", "uniform"])
@pytest.mark.parametrize("p_one", [0.0, 0.02, 0.5, 0.98, 1.0])
def test_bit_batches_match_reference(p16_kind, p_one):
    rng = np.random.default_rng(17)
    n = 20000
    bits = (rng.random(n) < p_one).astype(np.uint8)
    p16 = {
        "one": np.ones(n, dtype=np.int64),
        "max": np.full(n, 65535),
        "uniform": rng.integers(1, 65536, n),
    }[p16_kind]
    got, want, _ = _both_encoders([("encode_bits", (bits, p16))])
    assert got == want


def test_symbol_batches_match_reference_over_every_scale_bin():
    tables = _scale_bin_tables()
    rng = np.random.default_rng(18)
    for t in range(len(tables)):
        n = 400
        ids = np.full(n, t)
        syms = rng.integers(0, int(tables.size[t]), n)
        got, want, _ = _both_encoders([("encode_symbols", (tables, ids, syms))])
        assert got == want, t


def test_interleaved_batches_match_reference():
    tables = _scale_bin_tables()
    rng = np.random.default_rng(19)
    calls = []
    for _ in range(400):
        n = int(rng.integers(0, 60))
        if rng.random() < 0.5:
            bits = rng.integers(0, 2, n).astype(np.uint8)
            calls.append(("encode_bits", (bits, rng.integers(1, 65536, n))))
        else:
            ids = rng.integers(0, len(tables), n)
            syms = rng.integers(0, tables.size[ids])
            calls.append(("encode_symbols", (tables, ids, syms)))
    got, want, _ = _both_encoders(calls)
    assert got == want


def test_one_item_batches_match_reference():
    tables = _scale_bin_tables()
    rng = np.random.default_rng(20)
    calls = []
    for _ in range(3000):
        if rng.random() < 0.5:
            bit, p16 = int(rng.integers(0, 2)), int(rng.integers(1, 65536))
            calls.append(("encode_bits", ([bit], [p16])))
        else:
            t = int(rng.integers(0, len(tables)))
            s = int(rng.integers(0, tables.size[t]))
            calls.append(("encode_symbols", (tables, [t], [s])))
    got, want, _ = _both_encoders(calls)
    assert got == want


def test_empty_encoder_matches_reference():
    assert RangeEncoder().finish() == _ReferenceEncoder().finish() == bytes(4)


def test_long_carries_match_reference():
    # Prob16s at both extremes push the low end up against round points of
    # the stream, so emitted 0xFF runs and carries through them are common
    longest = 0
    for seed in range(150):
        rng = np.random.default_rng(seed)
        n = 4000
        p16 = rng.integers(1, 65536, n)
        kind = rng.integers(0, 3, n)
        p16[kind == 0], p16[kind == 1] = 1, 65535
        bits = rng.integers(0, 2, n).astype(np.uint8)
        got, want, carry = _both_encoders([("encode_bits", (bits, p16))])
        assert got == want, seed
        longest = max(longest, carry)
    assert longest >= 3


def test_finish_leaves_the_encoder_as_it_was():
    tables = _scale_bin_tables()
    rng = np.random.default_rng(22)
    bits, p16 = rng.integers(0, 2, 3000), rng.integers(1, 65536, 3000)
    ids = rng.integers(0, len(tables), 3000)
    syms = rng.integers(0, tables.size[ids])
    once, twice = RangeEncoder(), RangeEncoder()
    for enc in (once, twice):
        enc.encode_bits(bits, p16)
    first = twice.finish()
    assert twice.finish() == first == once.finish()
    # coding goes on from where it was, as if finish had not been called
    for enc in (once, twice):
        enc.encode_symbols(tables, ids, syms)
    assert twice.finish() == once.finish()


def test_encoder_keeps_about_eight_bytes_per_addend():
    n = 10**6
    bits = np.random.default_rng(23).integers(0, 2, n).astype(np.uint8)
    p16 = np.full(n, 32768)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        enc = RangeEncoder()
        enc.encode_bits(bits, p16)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    addends = int(bits.sum())  # each one-bit adds to the low end once
    # two 4-byte entries an addend and their arrays' spare room; Python
    # lists would hold an 8-byte pointer and an int object per entry
    assert retained <= 9 * addends
    assert len(enc.finish()) > n // 8


def test_finish_holds_few_stream_sized_copies():
    # the byte-count sums (4 bytes a stream byte) and the big integers their
    # byte planes are added as; index arrays as long as the addends, or a
    # copy of every plane at once, would take several times more
    n = 10**6
    rng = np.random.default_rng(23)
    enc = RangeEncoder()
    enc.encode_bits(rng.integers(0, 2, n).astype(np.uint8), rng.integers(1, 65536, n))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        data = enc.finish()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert len(data) > n // 8
    assert peak <= 8 * len(data)


# ---------------------------------------------------------------------------
# the decoder against its reference
#
# The reference is the decoder as it was before its loops relied on
# ``0 <= code < range``: it masks the code register to 32 bits, indexes the
# data by position, and decodes a symbol target past 65535 as 65535.  It
# records that clamp, the one state where the decoders part: the decoder
# raises a FieldValueError there instead.  It finds each symbol by a bisect
# over its table's cumulative frequencies, so it shares no lookup with the
# decoder.


class _ReferenceDecoder:
    def __init__(self, data):
        if len(data) < 4:
            raise TruncatedStreamError("range-coded stream ended early")
        self._data = bytes(data)
        self._pos = 4
        self.range = _MASK32
        self.code = int.from_bytes(data[:4], "big")
        self.clamped = False

    def decode_bits(self, p16s):
        p16s = np.asarray(p16s, dtype=np.int64).tolist()
        return np.frombuffer(_reference_decode_bits(self, p16s), dtype=np.uint8)

    def decode_symbols(self, tables, table_ids):
        t = np.asarray(table_ids, dtype=np.int64).reshape(-1)
        bounds = list(zip(tables.base.tolist(), (tables.base + tables.size).tolist()))
        return np.array(
            _reference_decode_symbols(self, t.tolist(), tables.cum.tolist(), bounds),
            dtype=np.int64,
        )


def _reference_decode_bits(dec, p16s):
    top, mask = 1 << 24, _MASK32
    out = bytearray(len(p16s))
    code, rng, data, pos = dec.code, dec.range, dec._data, dec._pos
    try:
        for i, p16 in enumerate(p16s):
            r0 = (rng >> 16) * p16
            if code < r0:
                rng = r0
            else:
                out[i] = 1
                code -= r0
                rng -= r0
            while rng < top:
                code = ((code << 8) | data[pos]) & mask
                pos += 1
                rng <<= 8
    except IndexError:
        raise TruncatedStreamError("range-coded stream ended early") from None
    dec.code, dec.range, dec._pos = code, rng, pos
    return out


def _reference_decode_symbols(dec, table_ids, cum, bounds):
    """Table ``t`` is ``cum[first : end + 1]`` for ``(first, end) = bounds[t]``;
    each symbol is found by a bisect over its table."""
    top, mask = 1 << 24, _MASK32
    out = []
    code, rng, data, pos = dec.code, dec.range, dec._data, dec._pos
    try:
        for t in table_ids:
            first, end = bounds[t]
            r = rng >> 16
            target = code // r
            if target > 65535:
                target = 65535
                dec.clamped = True
            s = bisect_right(cum, target, first, end) - 1
            lo, hi = cum[s], cum[s + 1]
            code -= r * lo
            rng = r * (hi - lo)
            while rng < top:
                code = ((code << 8) | data[pos]) & mask
                pos += 1
                rng <<= 8
            out.append(s - first)
    except IndexError:
        raise TruncatedStreamError("range-coded stream ended early") from None
    dec.code, dec.range, dec._pos = code, rng, pos
    return out


@lru_cache(maxsize=1)
def _shared_scale_bin_tables():
    return _scale_bin_tables()


def _unread(dec) -> int:
    """The bytes of main the decoder has not read yet; it reads no more."""
    return len(list(iter(dec._byte, None)))


@settings(max_examples=60, deadline=None)
@given(
    chunks=st.lists(
        st.tuples(st.sampled_from(["bits", "symbols"]), st.integers(0, 300)),
        min_size=1,
        max_size=12,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_mixed_chunks_decode_as_the_reference(chunks, seed):
    # one decoder, one iterator over main, handed from loop to loop
    tables = _shared_scale_bin_tables()
    rng = np.random.default_rng(seed)
    enc, calls = RangeEncoder(), []
    for kind, n in chunks:
        if kind == "bits":
            p16 = rng.integers(1, 65536, n)
            bits = (rng.integers(0, 65536, n) >= p16).astype(np.uint8)
            enc.encode_bits(bits, p16)
            calls.append(("decode_bits", (p16,), bits))
        else:
            ids = rng.integers(0, len(tables), n)
            syms = rng.integers(0, tables.size[ids])
            enc.encode_symbols(tables, ids, syms)
            calls.append(("decode_symbols", (tables, ids), syms))
    data = enc.finish()
    dec, ref = RangeDecoder(data), _ReferenceDecoder(data)
    for name, args, want in calls:
        got = getattr(dec, name)(*args)
        assert np.array_equal(got, getattr(ref, name)(*args))
        assert np.array_equal(got, want)
        assert (dec.code, dec.range) == (ref.code, ref.range)
    assert not ref.clamped
    assert _unread(dec) == len(data) - ref._pos


def _outcome(decode, args):
    """The decoded array, or the class of the exception the decode raised."""
    try:
        return decode(*args)
    except MalformedStreamError as exc:
        return type(exc)


def test_random_mains_decode_as_the_reference_or_raise_alike():
    # random bytes that do not open with FF FF FF FF, in random chunks of
    # bits and symbols: every call gives the reference's output or raises
    # the class it raised, except where the reference clamped a target
    tables = _shared_scale_bin_tables()
    rng = np.random.default_rng(2025)
    seen = Counter()
    for _ in range(1500):
        main = rng.bytes(int(rng.integers(4, 400)))
        if main[:4] == b"\xff\xff\xff\xff":
            continue
        dec, ref = RangeDecoder(main), _ReferenceDecoder(main)
        while True:
            n = int(rng.integers(0, 200))
            if rng.random() < 0.5:
                name, args = "decode_bits", (rng.integers(1, 65536, n),)
            else:
                name, args = "decode_symbols", (tables, rng.integers(0, len(tables), n))
            want = _outcome(getattr(ref, name), args)
            got = _outcome(getattr(dec, name), args)
            if ref.clamped:
                assert got is FieldValueError
                seen["tail"] += 1
                break
            if isinstance(want, type):
                assert got is want
                seen[want.__name__] += 1
                break
            assert np.array_equal(got, want)
            seen[name] += 1
    assert seen["tail"] >= 100 and seen["TruncatedStreamError"] >= 1000
    assert seen["decode_bits"] >= 1000 and seen["decode_symbols"] >= 1000


def test_main_opening_with_ff_ff_ff_ff_is_refused():
    # the coded value lies below 0xFFFFFFFF * 256**nb, so no encoder
    # writes this opening, and a code register at the range would break
    # the decoder's 0 <= code < range
    for tail in (b"", bytes(8), b"\xff" * 8):
        with pytest.raises(FieldValueError, match="opens with FF FF FF FF"):
            RangeDecoder(b"\xff\xff\xff\xff" + tail)
    # the greatest opening the decoder takes
    assert RangeDecoder(b"\xff\xff\xff\xfe").decode_bits([]).shape == (0,)


def test_symbol_target_in_the_unused_tail_is_refused():
    # target 0xFFFFFFFE // 0xFFFF = 65536 lies in [65536 * (range >> 16),
    # range), which no symbol owns: the masked reference clamped it to the
    # last symbol and decoded on
    data = b"\xff\xff\xff\xfe" + bytes(8)
    tables = SymbolTables([gaussian_cdf_table(1.0, 4)])
    ref = _ReferenceDecoder(data)
    assert ref.decode_symbols(tables, [0]).tolist() == [8] and ref.clamped
    with pytest.raises(FieldValueError, match="unused tail"):
        RangeDecoder(data).decode_symbols(tables, [0])
    # a bit splits the whole interval, so bits decode from the same bytes
    assert RangeDecoder(data).decode_bits([1, 1]).tolist() == [1, 1]


def test_highest_streams_open_below_ff_ff_ff_ff():
    # every step takes the top slice of the interval: a one-bit at the
    # least Prob16 of a zero, and each table's last symbol
    tables = _shared_scale_bin_tables()
    ids = np.arange(len(tables))
    enc = RangeEncoder()
    for _ in range(50):
        enc.encode_bits(np.ones(40, dtype=np.uint8), np.ones(40, dtype=np.int64))
        enc.encode_symbols(tables, ids, tables.size - 1)
    data = enc.finish()
    # each step's slice is a multiple of range >> 16, so the stream falls
    # short of the top
    assert data[:4] == b"\xff\xff\xfc\xf2"
    dec = RangeDecoder(data)
    for _ in range(50):
        assert dec.decode_bits(np.ones(40, dtype=np.int64)).all()
        assert np.array_equal(dec.decode_symbols(tables, ids), tables.size - 1)

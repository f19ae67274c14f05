import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from reproguard.entropy import (
    _rice_k,
    FlagReader,
    RangeDecoder,
    RangeEncoder,
    SymbolTables,
    encode_flags,
    gaussian_cdf_table,
    prob_to_p16_array,
)
from reproguard.errors import (
    InvalidInputError,
    MalformedStreamError,
    TrailingDataError,
    TruncatedStreamError,
)
from reproguard.hyperprior import SCALE_TABLE_ID
from reproguard.quantizer import dequantize_array, get_table
from reproguard.safeguard import FlagStream, GuardMode


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


def test_p16_array_matches_scalar():
    v = np.linspace(0.0, 1.0, 1001)
    arr = prob_to_p16_array(v)
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


def _flags(fr, fd=None):
    fr = np.asarray(fr, dtype=np.uint8)
    if fd is None:
        fd = np.full(fr.shape[0], -1, dtype=np.int8)
    return FlagStream.from_arrays(fr, np.asarray(fd, dtype=np.int8))


def _take_all(data, count, p0_q16, mode) -> FlagStream:
    """Every flag of a section in one take, kept with the wire's p0_q16."""
    fr, fd = FlagReader(data, count, p0_q16, mode).take(count)
    return FlagStream(fr, fd, p0_q16)


def test_sparse_flags_stay_small():
    fr = np.zeros(1000, dtype=np.uint8)
    fr[123] = 1
    fs = _flags(fr)
    fs = FlagStream(fs.f_r, fs.f_d, 65470)
    data = encode_flags(fs, GuardMode.CENTER)
    assert len(data) <= 6


def test_zero_flags_empty_stream():
    fs = _flags([])
    assert encode_flags(fs, GuardMode.CENTER) == b""
    out = _take_all(b"", 0, 32768, GuardMode.CENTER)
    assert len(out.f_r) == 0


def test_full_mode_interleaves_directions():
    fr = [1, 0, 1]
    fd = [0, -1, 1]
    fs = _flags(fr, fd)
    data = encode_flags(fs, GuardMode.FULL)
    out = _take_all(data, 3, fs.p0_q16, GuardMode.FULL)
    assert out.f_r.tolist() == fr
    assert out.f_d.tolist() == fd


def test_flag_roundtrip_fuzz():
    rng = np.random.default_rng(77)
    for mode in (GuardMode.FULL, GuardMode.LEFT, GuardMode.CENTER):
        for _ in range(50):
            n = int(rng.integers(0, 400))
            fr = (rng.random(n) < 0.02).astype(np.uint8)
            fd = np.where(fr == 1, rng.integers(0, 2, n), -1).astype(np.int8)
            fs = _flags(fr, fd if mode == GuardMode.FULL else None)
            data = encode_flags(fs, mode)
            out = _take_all(data, n, fs.p0_q16, mode)
            assert np.array_equal(out.f_r, fr)
            if mode == GuardMode.FULL:
                assert np.array_equal(out.f_d, fd)


def test_flag_reader_rejects_overread():
    fs = _flags([0, 1, 0])
    data = encode_flags(fs, GuardMode.CENTER)
    reader = FlagReader(data, 3, fs.p0_q16, GuardMode.CENTER)
    reader.take(3)
    assert reader.exhausted
    with pytest.raises(MalformedStreamError):
        reader.take(1)


def test_flag_reader_validates_p0():
    with pytest.raises(MalformedStreamError):
        FlagReader(b"", 0, 0, GuardMode.CENTER)
    with pytest.raises(MalformedStreamError):
        FlagReader(b"", 0, 65536, GuardMode.CENTER)


def test_missing_direction_rejected_in_full_mode():
    fr = np.array([1], dtype=np.uint8)
    fd = np.array([-1], dtype=np.int8)
    fs = FlagStream.from_arrays(fr, fd)
    with pytest.raises(InvalidInputError):
        encode_flags(fs, GuardMode.FULL)


# ---------------------------------------------------------------------------
# the Rice-coded flag section


def test_rice_k_is_pinned():
    # the least p0_q16 at which k reaches 1, 2, ..., 15; Kiely's closed form
    # in floats, 1 + floor(log2(log(phi - 1) / log(p0))), puts three of
    # them one lower (58108, 64558, 65413)
    ks = [_rice_k(p) for p in range(1, 65536)]
    assert ks[0] == 0 and max(ks) == 15
    assert all(a <= b for a, b in zip(ks, ks[1:]))
    assert [ks.index(j) + 1 for j in range(1, 16)] == [
        40504, 51522, 58109, 61711, 63595, 64559, 65046, 65291,
        65414, 65475, 65506, 65521, 65529, 65533, 65535,
    ]


def _section(bits: str) -> bytes:
    """Bytes of a bit string, zero-padded to a whole byte."""
    bits = bits.replace(" ", "")
    bits += "0" * (-len(bits) % 8)
    return bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))


def _rice_reference(fs: FlagStream, mode: GuardMode) -> bytes:
    """The section layout written out one gap at a time, as a bit string."""
    k = _rice_k(fs.p0_q16)
    risky = [i for i, f in enumerate(fs.f_r.tolist()) if f]
    gaps = [b - a - 1 for a, b in zip([-1] + risky, risky)]
    count, varint = len(risky), bytearray()
    while count > 0x7F:
        varint.append(0x80 | (count & 0x7F))
        count >>= 7
    varint.append(count)
    bits = "".join(format(g % (1 << k), f"0{k}b") if k else "" for g in gaps)
    bits += "".join("1" * (g >> k) + "0" for g in gaps)
    if mode == GuardMode.FULL:
        bits += "".join(str(int(fs.f_d[pos])) for pos in risky)
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
    fd = np.where(fr == 1, rng.integers(0, 2, n), -1).astype(np.int8)
    fs = _flags(fr, fd if mode == GuardMode.FULL else None)
    data = encode_flags(fs, mode)
    assert data == _rice_reference(fs, mode)
    out = _take_all(data, n, fs.p0_q16, mode)
    assert np.array_equal(out.f_r, fs.f_r) and np.array_equal(out.f_d, fs.f_d)


@pytest.mark.parametrize("mode", list(GuardMode))
def test_no_risky_flags_take_one_byte(mode):
    fs = _flags(np.zeros(1000, dtype=np.uint8))
    data = encode_flags(fs, mode)
    assert data == b"\x00"
    assert not _take_all(data, 1000, fs.p0_q16, mode).f_r.any()


@pytest.mark.parametrize("mode", [GuardMode.FULL, GuardMode.CENTER])
def test_every_flag_risky(mode):
    fd = (np.arange(500) % 3 == 0).astype(np.int8)
    fs = _flags(np.ones(500, dtype=np.uint8), fd)
    assert fs.p0_q16 == 1 and _rice_k(1) == 0
    data = encode_flags(fs, mode)
    # a 2-byte count, then one zero bit per gap and one bit per direction
    directions = 500 if mode == GuardMode.FULL else 0
    assert len(data) == 2 + math.ceil((500 + directions) / 8)
    out = _take_all(data, 500, 1, mode)
    assert out.f_r.all()
    if mode == GuardMode.FULL:
        assert np.array_equal(out.f_d, fd)


def test_p0_at_its_ceiling():
    fr = np.zeros(100_000, dtype=np.uint8)
    fr[[0, 70_000, 99_999]] = 1
    fd = np.full(100_000, -1, dtype=np.int8)
    fd[[0, 70_000, 99_999]] = [1, 0, 1]
    fs = FlagStream(fr, fd, 65535)
    assert _rice_k(65535) == 15
    data = encode_flags(fs, GuardMode.FULL)
    # gaps 0, 69999 and 29998: three 15-bit remainders, quotients 0, 2 and 0
    assert len(data) == 1 + math.ceil((3 * 15 + 5 + 3) / 8)
    out = _take_all(data, 100_000, 65535, GuardMode.FULL)
    assert np.array_equal(out.f_r, fr) and np.array_equal(out.f_d, fd)


def test_section_is_parsed_on_the_first_take():
    reader = FlagReader(b"\xff", 10, 32768, GuardMode.CENTER)
    with pytest.raises(TruncatedStreamError):
        reader.take(0)


# p0_q16 = 1 gives k = 0: a gap is its unary quotient alone
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
        FlagReader(data, count, 1, GuardMode.CENTER).take(0)
    assert type(info.value) is error


def test_gap_that_ends_at_the_last_flag_is_accepted():
    out = _take_all(b"\x01" + _section("110"), 3, 1, GuardMode.CENTER)
    assert out.f_r.tolist() == [0, 0, 1]


def _parses_canonically(data, count, p0_q16, mode) -> bool:
    """Whether ``data`` parses; if it does, it must be the one coding of the
    flags it decodes to."""
    try:
        out = _take_all(data, count, p0_q16, mode)
    except MalformedStreamError:
        return False
    assert encode_flags(out, mode) == data
    return True


@pytest.mark.parametrize("mode", list(GuardMode))
def test_random_and_bit_flipped_sections(mode):
    # a flipped remainder bit moves a risky flag to another legal position,
    # which no check can see; every other change must raise typed
    rng = np.random.default_rng(2024)
    fs = _chunked_flags(mode, 12, [400])
    data = encode_flags(fs, mode)
    parsed = 0
    for i in range(8 * len(data)):
        flipped = bytearray(data)
        flipped[i // 8] ^= 0x80 >> (i % 8)
        parsed += _parses_canonically(bytes(flipped), len(fs), fs.p0_q16, mode)
    assert 0 < parsed < 8 * len(data)
    parsed = 0
    for _ in range(500):
        junk = rng.bytes(int(rng.integers(0, 24)))
        count = int(rng.integers(0, 300))
        p0 = int(rng.integers(1, 65536))
        parsed += _parses_canonically(junk, count, p0, mode)
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
    fd = np.where(fr == 1, rng.integers(0, 2, n), -1).astype(np.int8)
    return _flags(fr, fd if mode == GuardMode.FULL else None)


@settings(max_examples=80, deadline=None)
@given(
    mode=st.sampled_from(list(GuardMode)),
    sizes=st.lists(st.integers(0, 40), min_size=1, max_size=25),
    seed=st.integers(0, 2**32 - 1),
)
def test_flag_reader_chunks_match_one_shot(mode, sizes, seed):
    fs = _chunked_flags(mode, seed, sizes)
    n = len(fs)
    data = encode_flags(fs, mode)
    whole = _take_all(data, n, fs.p0_q16, mode)
    assert np.array_equal(whole.f_r, fs.f_r)
    assert np.array_equal(whole.f_d, fs.f_d)

    reader = FlagReader(data, n, fs.p0_q16, mode)
    parts = [reader.take(k) for k in sizes]
    assert reader.exhausted
    assert np.array_equal(np.concatenate([fr for fr, _ in parts]), whole.f_r)
    assert np.array_equal(np.concatenate([fd for _, fd in parts]), whole.f_d)
    assert all(fr.dtype == np.uint8 and fd.dtype == np.int8 for fr, fd in parts)
    with pytest.raises(MalformedStreamError):
        reader.take(1)


@pytest.mark.parametrize("mode", list(GuardMode))
def test_flag_reader_take_zero(mode):
    reader = FlagReader(b"", 0, 32768, mode)
    fr, fd = reader.take(0)
    assert fr.shape == (0,) and fd.shape == (0,)
    assert reader.exhausted
    with pytest.raises(MalformedStreamError):
        reader.take(1)


@pytest.mark.parametrize("mode", list(GuardMode))
def test_cut_safeguard_section_raises_truncated(mode):
    fs = _chunked_flags(mode, 5, [700])
    data = encode_flags(fs, mode)
    assert len(data) > 5
    # every byte holds coded bits, so a section cut anywhere is too short
    for end in range(len(data)):
        reader = FlagReader(data[:end], len(fs), fs.p0_q16, mode)
        with pytest.raises(TruncatedStreamError):
            reader.take(len(fs))


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
    grid = get_table(SCALE_TABLE_ID)
    mids = dequantize_array(grid, np.arange(len(grid.boundaries) - 1)).tolist()
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
    tables = _scale_bin_tables()
    assert len(tables) == 63
    inverse = np.array(tables.inverse, dtype=np.int64)
    cum = np.array(tables.cum, dtype=np.int64)
    targets = np.arange(65536, dtype=np.int64)
    for t in range(len(tables)):
        # the decoder's lookup: a block entry, then forward steps
        s = inverse[(t << 12) | (targets >> 4)]
        while True:
            step = cum[s + 1] <= targets
            if not step.any():
                break
            s += step
        base = int(tables.base[t])
        table_cum = cum[base: base + int(tables.size[t]) + 1]
        assert np.array_equal(s - base, _bisect(table_cum, targets)), t


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

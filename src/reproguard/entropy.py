"""Binary/multi-symbol range coder, the flag section and probability tables.

Pure integer arithmetic throughout: a 32-bit range and byte-at-a-time
renormalization that keeps ``range >= 2**24`` between symbols.  Each
coding step exists once, in the coder method that runs it, whose loop keeps
the coder state in locals for the whole batch.  The encoder's loops carry
only the range and the count of bytes emitted; each
addend to the interval's low end is recorded with that count, and
``finish()`` sums the addends, shifted into place, with their carries, in
numpy and big-integer arithmetic.  The decoder's loops keep
``0 <= code < range``, so its code register needs no 32-bit mask; the two
inputs that would break that, which no encoder writes, raise a
FieldValueError (see RangeDecoder).  Probabilities are 16-bit
(``Prob16``, the chance of bit 0, clamped to [1, 65535]) so both ends of
the wire share the exact same integers.  The safeguard's flags do not go
through the range coder: their section is a Rice code of the gaps between
risky flags, then, in FULL mode, one direction bit per risky flag, coded
and parsed with whole-array numpy operations.  The Rice parameter follows
from the flag count and the risky count the section opens with, so it is
derived here alone and never travels.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import cached_property, lru_cache
from itertools import chain
from typing import Sequence

import numpy as np

from .errors import (
    FieldValueError,
    InvalidInputError,
    TrailingDataError,
    TruncatedStreamError,
)
from .safeguard import GuardMode

__all__ = [
    "RangeEncoder",
    "RangeDecoder",
    "prob_to_p16_array",
    "encode_flags",
    "FlagReader",
    "SymbolTables",
    "gaussian_cdf_table",
]

_TOP = 1 << 24
_RANGE0 = 0xFFFFFFFF  # the range a coder starts from
_P16_ONE = 1 << 16
_ENDED = "range-coded stream ended early"
_TAIL = "range-coded symbol falls in the unused tail of the interval"


def prob_to_p16_array(v) -> np.ndarray:
    """Prob16 of bit 0 for each bit-1 probability in ``v``, all in [0, 1]."""
    v = np.asarray(v, dtype=np.float64)
    # written so that a NaN, which compares false, fails it too
    if v.size and not (v.min() >= 0.0 and v.max() <= 1.0):
        raise InvalidInputError("probability outside [0, 1] after clipping")
    # one float buffer (an array even for 0-d input): after the floor every
    # step is exact on its integer-valued doubles, so the one cast gives
    # 65536 - floor(v * 65536 + 0.5), clamped to [1, 65535], in integers
    p = np.multiply(v, 65536.0, out=np.empty_like(v))
    p += 0.5
    np.floor(p, out=p)
    np.subtract(65536.0, p, out=p)
    np.maximum(p, 1.0, out=p)  # np.clip's wrapper costs more
    np.minimum(p, 65535.0, out=p)
    return p.astype(np.int64)


def _checked_p16(p16s) -> np.ndarray:
    p = np.asarray(p16s, dtype=np.int64)
    if p.ndim != 1:
        raise InvalidInputError("Prob16s must be a 1-D sequence")
    if p.size and (p.min() < 1 or p.max() > 65535):
        raise InvalidInputError("Prob16 outside [1, 65535]")
    return p


def _uint32_view(values) -> memoryview:
    """Integers as a memoryview, which a loop iterates without a list of
    int objects being built first."""
    return memoryview(np.ascontiguousarray(values, dtype=np.uintc))


class SymbolTables:
    """The cumulative tables one stream codes its symbols against.

    The tables sit end to end in one flat array: table ``t`` is
    ``cum[base[t] : base[t] + size[t] + 1]``, and flat index ``j`` names the
    symbol whose slice of 65536 is ``spans[j] = (cum[j], cum[j + 1])``.
    """

    def __init__(self, cums: Sequence[Sequence[int]]) -> None:
        lengths = np.array([len(c) for c in cums], dtype=np.int64)
        if lengths.shape[0] == 0 or np.any(lengths < 2):
            raise InvalidInputError("every table needs at least one symbol")
        cum = np.fromiter(chain.from_iterable(cums), np.int64, count=lengths.sum())
        self.size = lengths - 1
        self.base = np.cumsum(lengths) - lengths
        ends = cum[self.base + self.size]
        if np.any(cum[self.base] != 0) or np.any(ends != _P16_ONE):
            raise InvalidInputError("cumulative table must span [0, 65536]")
        steps = np.diff(cum)
        steps[self.base[1:] - 1] = 1  # from one table to the next
        if np.any(steps < 1):
            raise InvalidInputError("every symbol needs a frequency of at least 1")
        self.cum = cum
        flat = cum.tolist()
        self.spans = list(zip(flat, flat[1:]))

    def __len__(self) -> int:
        return int(self.size.shape[0])

    @cached_property
    def inverse(self) -> memoryview:
        """Decoder lookup: ``(t << 16) | target`` to the flat index of the
        symbol of table ``t`` whose span holds ``target``, one entry per
        target.  An entry takes 2 bytes while every flat index fits 16 bits,
        128 KiB a table, and 4 bytes otherwise.
        """
        # the end of each table owns no target
        owned = np.diff(self.cum, append=0)
        owned[self.base + self.size] = 0
        n = self.cum.shape[0]
        symbols = np.arange(n, dtype=np.uint16 if n <= 1 << 16 else np.uintc)
        return memoryview(np.repeat(symbols, owned))

    def _checked_ids(self, table_ids) -> np.ndarray:
        t = np.asarray(table_ids, dtype=np.int64).reshape(-1)
        if t.shape[0] and (t.min() < 0 or t.max() >= len(self)):
            raise InvalidInputError("table id outside the table set")
        return t

    def ranges(self, table_ids, symbols) -> tuple[np.ndarray, np.ndarray]:
        """Start and size, out of 65536, of each symbol in its table."""
        t = self._checked_ids(table_ids)
        s = np.asarray(symbols, dtype=np.int64).reshape(-1)
        if s.shape != t.shape:
            raise InvalidInputError("one table id per symbol is needed")
        if np.any(s < 0) or np.any(s >= self.size[t]):
            raise InvalidInputError("symbol outside its table")
        at = self.base[t] + s
        start = self.cum[at]
        return start, self.cum[at + 1] - start


class RangeEncoder:
    """Arithmetic encoder writing most-significant bytes first.

    The coded stream is the sum of the addends to the interval's low end,
    each shifted by the bytes emitted before it was added.  The coding
    loops record each addend and that byte count; ``finish()`` sums them.
    """

    def __init__(self) -> None:
        self.range = _RANGE0
        self._nb = 0  # bytes emitted so far
        self._adds = array("I")
        self._at = array("I")  # the byte count at each addend, never falling

    def encode_bits(self, bits, p16s) -> None:
        """Code ``bits[i]`` (any nonzero value is a one) at ``p16s[i]``, the
        Prob16 of a zero.  Both are 1-D and of one length."""
        bits = np.asarray(bits)
        p16s = _checked_p16(p16s)
        if bits.ndim != 1 or bits.shape[0] != p16s.shape[0]:
            raise InvalidInputError("one Prob16 per bit, both 1-D, is needed")
        top = _TOP
        rng, nb = self.range, self._nb
        add, at = self._adds.append, self._at.append
        for bit, p16 in zip((bits != 0).tobytes(), _uint32_view(p16s)):
            r0 = (rng >> 16) * p16
            if bit:
                add(r0)
                at(nb)
                rng -= r0
            else:
                rng = r0
            while rng < top:
                rng <<= 8
                nb += 1
        self.range, self._nb = rng, nb

    def encode_symbols(self, tables: SymbolTables, table_ids, symbols) -> None:
        """Code ``symbols[i]`` against table ``table_ids[i]`` of ``tables``,
        as its slice ``[start, start + size)`` of 65536."""
        starts, sizes = tables.ranges(table_ids, symbols)
        top = _TOP
        rng, nb = self.range, self._nb
        add, at = self._adds.append, self._at.append
        for start, size in zip(_uint32_view(starts), _uint32_view(sizes)):
            r = rng >> 16
            if start:
                add(r * start)
                at(nb)
            rng = r * size
            while rng < top:
                rng <<= 8
                nb += 1
        self.range, self._nb = rng, nb

    def finish(self) -> bytes:
        """The stream so far: the emitted bytes and four bytes of the low
        end.  The encoder is left as it was."""
        nb = self._nb
        # the addends at one byte count and the range left after them sum
        # to at most the range at that count, so each sum fits 32 bits; they
        # are added in place, then put in big-endian order in place
        acc = np.zeros(nb + 1, dtype=np.uint32)
        if self._adds:
            np.add.at(
                acc,
                np.frombuffer(self._at, dtype=np.uintc),
                np.frombuffer(self._adds, dtype=np.uintc),
            )
        if sys.byteorder == "little":
            acc.byteswap(inplace=True)
        # the sum at count i fills bytes i to i + 3, most significant first;
        # adding its four byte planes as big integers carries across them
        planes = acc.view(np.uint8)
        low = 0
        for k in range(4):
            low += int.from_bytes(planes[k::4].tobytes(), "big") << (24 - 8 * k)
        return low.to_bytes(nb + 4, "big")


class RangeDecoder:
    """Mirror of RangeEncoder.

    The coding loops keep ``0 <= code < range``, so the code register never
    needs a 32-bit mask.  Two inputs would break it, and no encoder writes
    either, so both raise FieldValueError: a ``main`` that opens with
    ``FF FF FF FF`` (the coded value lies below ``0xFFFFFFFF * 256**nb``),
    and a symbol whose target falls in the interval's unused tail
    ``[65536 * (range >> 16), range)``.  A coding step leaves at least
    ``range >> 16 >= 2**8`` (a Prob16 lies in [1, 65535], a frequency is
    at least 1), so two renormalization steps always restore
    ``range >= 2**24``, and the loops write them out.  ``main`` is read
    through an iterator, whose StopIteration means it has ended: that
    raises TruncatedStreamError.
    """

    def __init__(self, data: bytes) -> None:
        if len(data) < 4:
            raise TruncatedStreamError(_ENDED)
        self.range = _RANGE0
        self.code = int.from_bytes(data[:4], "big")
        if self.code >= self.range:
            raise FieldValueError("range-coded stream opens with FF FF FF FF")
        self._byte = iter(bytes(data[4:])).__next__  # the next byte of main

    def decode_bits(self, p16s) -> np.ndarray:
        """One bit per Prob16 of the 1-D ``p16s``, as a uint8 array."""
        p16s = _checked_p16(p16s)
        top = _TOP
        out = bytearray(p16s.shape[0])
        code, rng, byte = self.code, self.range, self._byte
        try:
            for i, p16 in enumerate(_uint32_view(p16s)):
                r0 = (rng >> 16) * p16
                if code < r0:
                    rng = r0
                else:
                    out[i] = 1
                    code -= r0
                    rng -= r0
                if rng < top:
                    code = (code << 8) | byte()
                    rng <<= 8
                    if rng < top:
                        code = (code << 8) | byte()
                        rng <<= 8
        except StopIteration:
            raise TruncatedStreamError(_ENDED) from None
        self.code, self.range = code, rng
        return np.frombuffer(out, dtype=np.uint8)

    def decode_symbols(self, tables: SymbolTables, table_ids) -> np.ndarray:
        """One symbol per entry of ``table_ids``, each against its table;
        the exact inverse gives each symbol in one lookup."""
        t = tables._checked_ids(table_ids)
        inverse, spans = tables.inverse, tables.spans
        top = _TOP
        out = array("I")  # flat indices (see SymbolTables)
        put = out.append
        code, rng, byte = self.code, self.range, self._byte
        try:
            for key in memoryview(t << 16):
                r = rng >> 16
                target = code // r
                if target > 65535:  # else it would index the next table
                    raise FieldValueError(_TAIL)
                s = inverse[key | target]
                lo, hi = spans[s]
                code -= r * lo
                rng = r * (hi - lo)
                if rng < top:
                    code = (code << 8) | byte()
                    rng <<= 8
                    if rng < top:
                        code = (code << 8) | byte()
                        rng <<= 8
                put(s)
        except StopIteration:
            raise TruncatedStreamError(_ENDED) from None
        self.code, self.range = code, rng
        return np.frombuffer(out, dtype=np.uintc) - tables.base[t]


# ---------------------------------------------------------------------------
# flag stream coding
#
# The safeguard section codes where the risky flags are, not every flag:
#
#   varint R        the number of risky flags (LEB128, minimal, <= 5 bytes)
#   R remainders    k bits each, most significant bit first
#   R quotients     unary: q one-bits, then a zero
#   R directions    FULL mode only, one per risky flag: 0 where it went left
#   padding         zero bits up to a whole byte
#
# The gap before a risky flag, the count of safe flags since the one before
# it, is q * 2**k + remainder: a Rice code (Golomb 1966) whose parameter k
# the header's flag count and R fix.  A stream without flags has an empty
# section.  Each set of flags has exactly one section, and a parse of any
# other bytes raises a MalformedStreamError.

_PHI_Q16 = 40504  # the least Prob16 above phi - 1 = 0.6180339887...
_VARINT_BYTES = 5  # enough for any 32-bit flag count


def _zero_p16(count: int, risky: int) -> int:
    """The Prob16 of a safe flag among ``count`` flags of which ``risky``
    are risky, rounded and clamped to [1, 65535]."""
    if count == 0:
        return 32768  # no flags, no rate: their section is empty
    p0 = float(count - risky) / count
    return int(min(max(math.floor(p0 * 65536.0 + 0.5), 1), 65535))


def _rice_k(count: int, risky: int) -> int:
    """The Rice parameter for ``count`` flags of which ``risky`` are risky.

    Gaps between risky flags are geometric, and the best power-of-two
    parameter for them is the number of times the zero rate p0 can be
    squared while it stays above phi - 1 (Kiely, "Selecting the Golomb
    parameter in Rice coding", 2004).  p0 is taken to 16 bits and squared in
    integers, so every platform derives the same k, from 0 at a Prob16 of 1
    to 15 at 65535.
    """
    k, t = 0, _zero_p16(count, risky)
    while t >= _PHI_Q16:
        k += 1
        t = (t * t) >> 16
    return k


def _varint(n: int) -> bytes:
    out = bytearray()
    while n > 0x7F:
        out.append(0x80 | (n & 0x7F))
        n >>= 7
    out.append(n)
    return bytes(out)


def encode_flags(f_r, f_d, mode: GuardMode) -> bytes:
    """The safeguard section of the risky flags ``f_r``: Rice-coded gaps
    between the risky ones, then, in FULL mode, their direction bits ``f_d``
    as they are, one per risky flag.  ``f_r`` is 1-D."""
    f_r = np.asarray(f_r)
    if f_r.ndim != 1:
        raise InvalidInputError("risky flags must be 1-D")
    if f_r.shape[0] == 0:
        return b""
    # positions found on a bool view: several times faster than on uint8
    risky = np.flatnonzero(f_r.astype(bool, copy=False))
    k = _rice_k(f_r.shape[0], risky.shape[0])
    gaps = np.diff(risky, prepend=-1) - 1
    quotients = gaps >> k
    unary = np.ones(int(quotients.sum()) + risky.shape[0], dtype=np.uint8)
    unary[np.cumsum(quotients + 1) - 1] = 0
    parts = [(gaps[:, None] >> np.arange(k - 1, -1, -1)).ravel() & 1, unary]
    if mode == GuardMode.FULL:
        fd = np.asarray(f_d)
        if fd.shape != risky.shape:
            raise InvalidInputError("FULL mode needs one direction bit per risky flag")
        parts.append(fd)
    bits = np.concatenate(parts).astype(np.uint8)
    return _varint(risky.shape[0]) + np.packbits(bits).tobytes()


def _risky_count(data: bytes) -> tuple[int, int]:
    """The risky flag count R a safeguard section opens with, and the
    bytes its varint takes."""
    n_risky = 0
    for head, byte in enumerate(data[:_VARINT_BYTES], 1):
        n_risky |= (byte & 0x7F) << (7 * (head - 1))
        if byte < 0x80:
            break
    else:
        if len(data) < _VARINT_BYTES:
            raise TruncatedStreamError("safeguard section ended inside its flag count")
        raise FieldValueError("risky flag count takes more than 5 bytes")
    if head > 1 and byte == 0:
        raise FieldValueError("risky flag count is not minimally coded")
    return n_risky, head


def _parse_flags(
    data: bytes, count: int, full: bool
) -> tuple[np.ndarray, np.ndarray]:
    """The sorted positions of the risky flags of a section and their
    direction bits.  The work and memory are bounded by ``len(data)``."""
    if count == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8)
    n_risky, head = _risky_count(data)
    if n_risky > count:
        raise FieldValueError(f"{n_risky} risky flags declared among {count}")
    k = _rice_k(count, n_risky)
    n_directions = n_risky if full else 0
    if n_risky * (k + 1) + n_directions > 8 * (len(data) - head):
        raise TruncatedStreamError("safeguard section too short for its flag count")

    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8, offset=head))
    cut = n_risky * k
    remainders = bits[:cut].reshape(n_risky, k) @ (1 << np.arange(k - 1, -1, -1))
    ends = np.flatnonzero(bits[cut:] == 0)[:n_risky]  # the zero closing each quotient
    if ends.shape[0] < n_risky:
        raise TruncatedStreamError("safeguard section ended inside a quotient")
    end = cut + (int(ends[-1]) + 1 if n_risky else 0) + n_directions
    if end > bits.shape[0]:
        raise TruncatedStreamError("safeguard section ended inside the directions")
    if end + 7 < bits.shape[0]:
        raise TrailingDataError("bytes after the end of the safeguard section")
    if bits[end:].any():
        raise FieldValueError("nonzero padding in the safeguard section")
    directions = bits[end - n_directions : end].copy()  # frees the unpacked bits
    gaps = ((np.diff(ends, prepend=-1) - 1) << k) + remainders
    positions = np.cumsum(gaps + 1) - 1
    if n_risky and positions[-1] >= count:
        raise FieldValueError("a risky flag lies past the flag count")
    return positions, directions


class FlagReader:
    """Sequential flag decoder, consumed in lockstep with critical values.

    The section is parsed on the first ``take``; each take then hands out,
    for the next chunk of flags, the positions of its risky flags, counted
    from the chunk's start, with their direction bits: a slice of the
    parsed positions, and no per-value flag mask.  A stream without flags
    must have an empty section."""

    def __init__(self, data: bytes, count: int, mode: GuardMode) -> None:
        if count == 0 and data:
            raise TrailingDataError("safeguard section of a stream without flags")
        self._data = data
        self._count = count
        self._taken = 0
        self._full = mode == GuardMode.FULL
        self._risky: np.ndarray | None = None
        self._directions: np.ndarray | None = None
        self._next = 0  # index of the first risky position not yet taken

    def take(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The positions, ascending and below ``k``, of the risky flags among
        the next ``k`` flags, and one direction bit per risky flag among
        them (none in CENTER mode)."""
        if k < 0:
            raise InvalidInputError(f"cannot take {k} flags")
        if self._taken + k > self._count:
            raise FieldValueError("more flags requested than declared")
        if self._risky is None:
            self._risky, self._directions = _parse_flags(
                self._data, self._count, self._full
            )
        lo, hi = self._next, int(self._risky.searchsorted(self._taken + k))
        at = self._risky[lo:hi] - self._taken
        self._taken += k
        self._next = hi
        return at, self._directions[lo:hi]

    @property
    def exhausted(self) -> bool:
        return self._taken == self._count


# ---------------------------------------------------------------------------
# Gaussian cumulative tables


def _phi(x: float) -> float:
    """Standard normal CDF at ``x >= 0`` via the Abramowitz-Stegun 7.1.26
    erf polynomial."""
    z = x / math.sqrt(2.0)
    t = 1.0 / (1.0 + 0.3275911 * z)
    poly = t * (
        0.254829592
        + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429)))
    )
    erf = 1.0 - poly * math.exp(-z * z)
    return 0.5 * (1.0 + erf)


@lru_cache(maxsize=512)
def gaussian_cdf_table(sigma: float, amplitude: int = 32) -> tuple[int, ...]:
    """Cumulative table of a quantized zero-mean Gaussian over the integers
    in [-amplitude, amplitude]; symbol ``s`` stands for ``s - amplitude``.

    The distribution is truncated to the alphabet and renormalized (so a very
    wide Gaussian tends to a uniform table), every frequency is at least one,
    and the total is exactly 65536.  Pure function of its arguments.
    """
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise InvalidInputError(f"sigma must be positive and finite, got {sigma!r}")
    if amplitude < 1:
        raise InvalidInputError("amplitude must be >= 1")
    a = int(amplitude)

    # one-sided masses; the negative side mirrors them exactly.  The center
    # mass is a difference against the approximation's own value at zero so
    # the polynomial's small constant bias cancels like in every other bin.
    w = [2.0 * (_phi(0.5 / sigma) - _phi(0.0))]
    for k in range(1, a + 1):
        w.append(_phi((k + 0.5) / sigma) - _phi((k - 0.5) / sigma))

    total = w[0] + 2.0 * sum(w[1:])
    ideal = [x * 65536.0 / total for x in w]

    m = [max(1, int(math.floor(ideal[k]))) for k in range(1, a + 1)]
    rem = [ideal[k] - math.floor(ideal[k]) for k in range(1, a + 1)]

    def center() -> int:
        return 65536 - 2 * sum(m)

    # steer the center frequency toward its ideal share, two units per step
    order = sorted(range(a), key=lambda i: (-rem[i], i))
    oi = 0
    while center() > ideal[0] + 1.0 and oi < len(order):
        m[order[oi]] += 1
        oi += 1
    shrink = sorted(range(a), key=lambda i: (rem[i], i))
    si = 0
    while center() < 1 and si < len(shrink):
        if m[shrink[si]] > 1:
            m[shrink[si]] -= 1
        si += 1
    c = center()
    if c < 1:
        raise InvalidInputError("cannot renormalize table to 65536")

    freq = list(reversed(m)) + [c] + m
    cum = [0]
    for f in freq:
        cum.append(cum[-1] + f)
    return tuple(cum)

"""Scale-conditioned latent codec with a safeguarded scale lookup.

A deterministic synthetic hyper-synthesis stands in for a trained network:
it maps side information z to per-position log Gaussian scales.  The
selected bin of the scale table, a uniform grid on log sigma, is the
coder-critical value; safeguarding it keeps the bin index, and therefore
every CDF table, bit-identical on a decoder whose recomputed log scales
differ by up to the error bound.  Bin ``n`` codes against the Gaussian of
scale ``exp`` of its center.  z is rounded to integers like y, and the
rounded z is range-coded ahead of y in the main section against one fixed
Gaussian table; it is an exact input on both sides, so it needs no
protection, and the synthesis runs on it, never on z itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .container import (
    _POOL,
    GuardedStream,
    HyperpriorHeader,
    PayloadKind,
    check_grid,
    check_latent_dims,
    open_stream,
)
from .entropy import (
    RangeDecoder,
    RangeEncoder,
    SymbolTables,
    encode_flags,
    gaussian_cdf_table,
)
from .errors import FieldValueError, InvalidInputError, TruncatedStreamError
from .platform_sim import Perturbation, unit_draws
from .quantizer import (
    QuantGrid,
    _first_bin,
    default_scale_table,
    dequantize_array,
    quantize_array,
)
from .safeguard import (
    GuardConfig,
    GuardMode,
    guard_decode_array,
    guard_encode_array,
)

__all__ = [
    "LatentGrid",
    "synth_latents",
    "hyper_synthesis",
    "default_scale_table",
    "make_image_config",
    "quantize_latents",
    "encode",
    "decode",
]

_AMPLITUDE = 32
_Z_SCALE = 3.0  # z's std is about 2.7 for synth_latents' scales
_Z_TABLES = SymbolTables([gaussian_cdf_table(_Z_SCALE, _AMPLITUDE)])
# the fewest bits a rounded z value takes: that of the table's likeliest symbol
_Z_MIN_BITS = math.log2(65536 / int(np.diff(_Z_TABLES.cum).max()))


def make_image_config(
    epsilon: float, mode: GuardMode = GuardMode.CENTER
) -> GuardConfig:
    return GuardConfig(grid=default_scale_table(), epsilon=epsilon, mode=mode)


# ---------------------------------------------------------------------------
# synthetic latents


@dataclass(frozen=True)
class LatentGrid:
    """Latents y with pooled-and-projected side information z."""

    y: np.ndarray  # (H, W, C) float64
    z: np.ndarray  # (H//4, W//4, C) float64
    sigma_true: np.ndarray  # (C,) generating scales

    def __post_init__(self) -> None:
        if self.y.ndim != 3:
            raise InvalidInputError("y must be (H, W, C)")
        h, w, c = self.y.shape
        if min(h, w, c) < 1:
            raise InvalidInputError("latent dims must be >= 1")
        if h % _POOL or w % _POOL:
            raise InvalidInputError(f"H and W must be multiples of {_POOL}")
        if self.z.shape != (h // _POOL, w // _POOL, c):
            raise InvalidInputError("z shape does not match pooled y")
        if not (np.all(np.isfinite(self.y)) and np.all(np.isfinite(self.z))):
            raise InvalidInputError("y and z must be finite")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.y.shape  # type: ignore[return-value]


def synth_latents(h: int, w: int, c: int, seed: int) -> LatentGrid:
    """Gaussian latents with per-channel scales drawn log-uniform in
    [0.2, 64], pooled 4x4 and mixed across channels into z."""
    if min(h, w, c) < 1:
        raise InvalidInputError("latent dims must be >= 1")
    if h % _POOL or w % _POOL:
        raise InvalidInputError(f"H and W must be multiples of {_POOL}")
    rng = np.random.default_rng(seed)
    sigma_true = np.exp(rng.uniform(math.log(0.2), math.log(64.0), size=c))
    y = rng.normal(size=(h, w, c)) * sigma_true
    pooled = y.reshape(h // _POOL, _POOL, w // _POOL, _POOL, c).mean(axis=(1, 3))
    proj = rng.uniform(-1.0, 1.0, size=(c, c)) / math.sqrt(c)
    z = pooled @ proj
    return LatentGrid(y=y, z=z, sigma_true=sigma_true)


# ---------------------------------------------------------------------------
# hyper-synthesis (the critical module)


def _unit_draws(tag: int, n: int) -> np.ndarray:
    return unit_draws(tag * 0xD1B54A32D192ED03, 0, n)


def hyper_synthesis(z: np.ndarray) -> np.ndarray:
    """log sigma, with sigma = softplus(A z + c) per pooled cell,
    nearest-upsampled with a fixed per-cell-position offset, computed
    entirely in double precision; finite for every finite z."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 3:
        raise InvalidInputError("z must be (H/4, W/4, C)")
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("z must be finite")
    c = z.shape[2]
    a = (_unit_draws(1, c * c) * 2.0 - 1.0).reshape(c, c) * (0.9 / c)
    bias = -0.6 + (_unit_draws(2, c) * 2.0 - 1.0) * 0.3
    pos = (_unit_draws(3, _POOL * _POOL) * 2.0 - 1.0).reshape(_POOL, _POOL) * 0.5

    t = z @ a + bias  # (H/4, W/4, C)
    t = np.repeat(np.repeat(t, _POOL, axis=0), _POOL, axis=1)
    t = t + np.tile(pos, (z.shape[0], z.shape[1]))[:, :, None]
    # numerically stable softplus, then its log: below t = -40 softplus(t)
    # is e^t to within rounding and may underflow to 0, so the log is t
    sigma = np.log1p(np.exp(-np.abs(t))) + np.maximum(t, 0.0)
    return np.log(sigma, out=t, where=t >= -40.0)


def quantize_latents(y: np.ndarray) -> np.ndarray:
    """Round to integers and clamp to the coded alphabet.  The clamp comes
    before the cast, so values past the int64 range keep their sign."""
    r = np.rint(np.asarray(y, dtype=np.float64))
    if not np.all(np.isfinite(r)):
        raise InvalidInputError("latents must be finite")
    np.clip(r, -_AMPLITUDE, _AMPLITUDE, out=r)
    return r.astype(np.int64)


# ---------------------------------------------------------------------------
# codec


def _stream_tables(grid: QuantGrid, idx: np.ndarray) -> tuple[SymbolTables, np.ndarray]:
    """One CDF table per scale bin in use, built once for the stream, and the
    table each position codes against."""
    first = _first_bin(grid)
    place = idx - first  # each bin's place in the domain, from 0
    used = np.flatnonzero(np.bincount(place))
    sigmas = np.exp(dequantize_array(grid, used + first)).tolist()
    tables = SymbolTables([gaussian_cdf_table(s, _AMPLITUDE) for s in sigmas])
    slot = np.zeros(used[-1] + 1, dtype=np.int64)
    slot[used] = np.arange(used.shape[0])
    return tables, slot[place]


def encode(lat: LatentGrid, cfg: GuardConfig, protect: bool = True) -> GuardedStream:
    """Code rounded z, then rounded latents conditioned on safeguarded scale
    bins, in one main section."""
    h, w, c = lat.dims
    header = HyperpriorHeader(h, w, c)
    check_grid(cfg.grid, header)
    z_hat = quantize_latents(lat.z)
    log_sig = hyper_synthesis(z_hat).reshape(-1)
    fr = fd = np.empty(0, dtype=np.uint8)  # an unprotected stream has no flags
    if protect:
        log_sig, fr, fd = guard_encode_array(cfg, log_sig)
    idx = quantize_array(cfg.grid, log_sig)

    tables, table_ids = _stream_tables(cfg.grid, idx)
    enc = RangeEncoder()
    z_syms = z_hat.reshape(-1) + _AMPLITUDE
    enc.encode_symbols(_Z_TABLES, np.zeros_like(z_syms), z_syms)
    syms = quantize_latents(lat.y).reshape(-1) + _AMPLITUDE
    enc.encode_symbols(tables, table_ids, syms)

    safeguard = encode_flags(fr, fd, cfg.mode)
    return GuardedStream(
        cfg.mode, cfg.epsilon, len(fr), header, safeguard, enc.finish()
    )


def decode(stream: GuardedStream, perturb: Perturbation | None = None) -> np.ndarray:
    """Recover the quantized latents; flag_count == 0 means unprotected."""
    cfg, flags = open_stream(stream, PayloadKind.HYPERPRIOR)
    header: HyperpriorHeader = stream.payload
    check_latent_dims(header)  # an in-memory stream skips container.read's checks
    h, w, c = header.height, header.width, header.channels
    z_count = (h // _POOL) * (w // _POOL) * c
    # before anything the header sizes is allocated: even at its likeliest
    # symbol every rounded z value takes _Z_MIN_BITS of main
    if z_count * _Z_MIN_BITS > 8 * len(stream.main):
        raise TruncatedStreamError("main section too short for the declared z")
    dec = RangeDecoder(stream.main)
    z_hat = dec.decode_symbols(_Z_TABLES, np.zeros(z_count, dtype=np.int64))
    z_hat -= _AMPLITUDE
    log_sig = hyper_synthesis(z_hat.reshape(h // _POOL, w // _POOL, c)).reshape(-1)
    if perturb is not None:
        log_sig = perturb.perturb_array(log_sig, cfg.grid)

    if stream.flag_count > 0:
        fr, fd = flags.take(log_sig.shape[0])
        if not flags.exhausted:
            raise FieldValueError("flag count does not match the latent count")
        log_sig = guard_decode_array(cfg, log_sig, fr, fd)
    idx = quantize_array(cfg.grid, log_sig)

    tables, table_ids = _stream_tables(cfg.grid, idx)
    syms = dec.decode_symbols(tables, table_ids)
    return (syms - _AMPLITUDE).reshape(h, w, c)

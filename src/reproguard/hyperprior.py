"""Scale-conditioned latent codec with a safeguarded scale lookup.

A deterministic synthetic hyper-synthesis stands in for a trained network:
it maps side information z to per-position Gaussian scales.  The selected
scale-table bin is the coder-critical value; safeguarding it keeps the bin
index, and therefore every CDF table, bit-identical on a decoder whose
recomputed scales differ by up to the error bound.  z itself travels
losslessly in the container header, so it needs no protection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .container import (
    GuardedStream,
    HyperpriorHeader,
    PayloadKind,
    TableDesc,
    config_for_stream,
    grid_desc_for,
)
from .entropy import (
    FlagReader,
    RangeDecoder,
    RangeEncoder,
    SymbolTables,
    encode_flags,
    gaussian_cdf_table,
)
from .errors import FieldValueError, InvalidInputError
from .platform_sim import Perturbation, splitmix64_array, unit_from_u64
from .quantizer import (
    QuantGrid,
    dequantize_array,
    get_table,
    quantize_array,
    register_table,
    registered_tables,
)
from .safeguard import (
    FlagStream,
    GuardConfig,
    GuardMode,
    guard_decode_array,
    guard_encode_array,
)

__all__ = [
    "LatentGrid",
    "ScaleField",
    "synth_latents",
    "hyper_synthesis",
    "default_scale_table",
    "SCALE_TABLE_ID",
    "make_image_config",
    "quantize_latents",
    "encode",
    "decode",
]

_POOL = 4
_AMPLITUDE = 32
_U = np.uint64
_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


# ---------------------------------------------------------------------------
# scale table

SCALE_TABLE_ID = 1
_SCALE_LO = 0.11
_SCALE_HI = 256.0
_SCALE_STEPS = 64


def default_scale_table() -> QuantGrid:
    """Geometric boundary ladder standing in for learned scale boundaries."""
    k = np.arange(_SCALE_STEPS, dtype=np.float64)
    b = np.exp(
        math.log(_SCALE_LO)
        + k * (math.log(_SCALE_HI) - math.log(_SCALE_LO)) / (_SCALE_STEPS - 1)
    )
    b[0] = _SCALE_LO
    b[-1] = _SCALE_HI
    return QuantGrid.from_boundaries(tuple(b.tolist()))


if SCALE_TABLE_ID not in registered_tables():
    register_table(SCALE_TABLE_ID, default_scale_table())


def make_image_config(
    epsilon: float, mode: GuardMode | str = GuardMode.CENTER
) -> GuardConfig:
    return GuardConfig(grid=get_table(SCALE_TABLE_ID), epsilon=epsilon, mode=mode)


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

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.y.shape  # type: ignore[return-value]


@dataclass(frozen=True)
class ScaleField:
    """Per-position Gaussian scales and the table they are coded against."""

    sigma: np.ndarray
    scale_table_id: int = SCALE_TABLE_ID

    @property
    def boundaries(self) -> QuantGrid:
        return get_table(self.scale_table_id)


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


def _unit_draws(seed: int, tag: int, n: int) -> np.ndarray:
    base = (seed * _GOLDEN + tag * 0xD1B54A32D192ED03) & _MASK64
    idx = np.arange(n, dtype=np.uint64)
    with np.errstate(over="ignore"):
        keys = _U(base) + idx * _U(_GOLDEN)
    return unit_from_u64(splitmix64_array(keys))


def hyper_synthesis(z: np.ndarray, seed: int = 0) -> ScaleField:
    """sigma = softplus(A z + c) per pooled cell, nearest-upsampled with a
    fixed per-cell-position offset, computed entirely in double precision.
    The final clip at zero is a no-op for softplus but kept as written."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 3:
        raise InvalidInputError("z must be (H/4, W/4, C)")
    if not np.all(np.isfinite(z)):
        raise InvalidInputError("z must be finite")
    c = z.shape[2]
    a = (_unit_draws(seed, 1, c * c) * 2.0 - 1.0).reshape(c, c) * (0.9 / c)
    bias = -0.6 + (_unit_draws(seed, 2, c) * 2.0 - 1.0) * 0.3
    pos = (_unit_draws(seed, 3, _POOL * _POOL) * 2.0 - 1.0).reshape(_POOL, _POOL) * 0.5

    t = z @ a + bias  # (H/4, W/4, C)
    t = np.repeat(np.repeat(t, _POOL, axis=0), _POOL, axis=1)
    t = t + np.tile(pos, (z.shape[0], z.shape[1]))[:, :, None]
    # numerically stable softplus
    sigma = np.log1p(np.exp(-np.abs(t))) + np.maximum(t, 0.0)
    np.maximum(sigma, 0.0, out=sigma)
    return ScaleField(sigma=sigma)


def quantize_latents(y: np.ndarray) -> np.ndarray:
    """Round to integers and clamp to the coded alphabet."""
    q = np.rint(np.asarray(y, dtype=np.float64)).astype(np.int64)
    np.clip(q, -_AMPLITUDE, _AMPLITUDE, out=q)
    return q


# ---------------------------------------------------------------------------
# codec


def _stream_tables(grid: QuantGrid, idx: np.ndarray) -> tuple[SymbolTables, np.ndarray]:
    """One CDF table per scale bin in use, built once for the stream, and the
    table each position codes against."""
    used = np.flatnonzero(np.bincount(idx))
    mids = dequantize_array(grid, used).tolist()
    tables = SymbolTables([gaussian_cdf_table(m, _AMPLITUDE).cum for m in mids])
    slot = np.zeros(used[-1] + 1, dtype=np.int64)
    slot[used] = np.arange(used.shape[0])
    return tables, slot[idx]


def encode(
    lat: LatentGrid,
    cfg: GuardConfig,
    hs_seed: int = 0,
    protect: bool = True,
) -> GuardedStream:
    """Code rounded latents conditioned on safeguarded scale bins."""
    grid_desc = grid_desc_for(cfg.grid, SCALE_TABLE_ID)
    h, w, c = lat.dims
    field = hyper_synthesis(lat.z, hs_seed)
    sig = field.sigma.reshape(-1)

    if protect:
        v_out, fr, fd = guard_encode_array(cfg, sig)
        idx = quantize_array(cfg.grid, v_out)
        flags = FlagStream.from_arrays(fr, fd)
        guard_bytes = encode_flags(flags, cfg.mode)
        p0_q16 = flags.p0_q16
        flag_count = len(flags)
    else:
        idx = quantize_array(cfg.grid, np.clip(sig, *cfg.grid.domain))
        guard_bytes = b""
        p0_q16 = 32768
        flag_count = 0

    tables, table_ids = _stream_tables(cfg.grid, idx)
    enc = RangeEncoder()
    syms = quantize_latents(lat.y).reshape(-1) + _AMPLITUDE
    enc.encode_symbols(tables, table_ids, syms)

    z_blob = lat.z.astype(">f8").tobytes()
    return GuardedStream(
        mode=cfg.mode,
        payload_kind=PayloadKind.HYPERPRIOR,
        epsilon=cfg.epsilon,
        grid_desc=grid_desc,
        p0_q16=p0_q16,
        flag_count=flag_count,
        payload=HyperpriorHeader(
            height=h,
            width=w,
            channels=c,
            scale_table_id=SCALE_TABLE_ID,
            z_blob=z_blob,
        ),
        safeguard=guard_bytes,
        main=enc.finish(),
    )


def decode(
    stream: GuardedStream,
    perturb: Perturbation | None = None,
    hs_seed: int = 0,
) -> np.ndarray:
    """Recover the quantized latents; flag_count == 0 means unprotected."""
    if stream.payload_kind != PayloadKind.HYPERPRIOR:
        raise FieldValueError("not a latent stream")
    if not isinstance(stream.grid_desc, TableDesc):
        raise FieldValueError("latent streams carry a table id")
    header: HyperpriorHeader = stream.payload
    if header.scale_table_id != stream.grid_desc.table_id:
        raise FieldValueError("payload and grid descriptor disagree on the table")
    cfg = config_for_stream(stream)

    h, w, c = header.height, header.width, header.channels
    z = np.frombuffer(header.z_blob, dtype=">f8").astype(np.float64)
    if not np.all(np.isfinite(z)):
        raise FieldValueError("z holds a non-finite value")
    z = z.reshape(h // _POOL, w // _POOL, c)
    sig = hyper_synthesis(z, hs_seed).sigma.reshape(-1)
    if perturb is not None:
        sig = perturb.perturb_array(sig, cfg.grid)

    protected = stream.flag_count > 0
    if protected:
        reader = FlagReader(
            stream.safeguard, stream.flag_count, stream.p0_q16, stream.mode
        )
        fr, fd = reader.take(sig.shape[0])
        if not reader.exhausted:
            raise FieldValueError("flag count does not match the latent count")
        v_out = guard_decode_array(cfg, sig, fr, fd)
        idx = quantize_array(cfg.grid, v_out)
    else:
        idx = quantize_array(cfg.grid, np.clip(sig, *cfg.grid.domain))

    tables, table_ids = _stream_tables(cfg.grid, idx)
    syms = RangeDecoder(stream.main).decode_symbols(tables, table_ids)
    return (syms - _AMPLITUDE).reshape(h, w, c)

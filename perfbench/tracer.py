"""Per-layer spans recorded from outside the codec.

For a traced stream only, the functions each payload module calls are
replaced, as bound in that module's namespace (or on their class), by
wrappers that record a span: name, start, end and the span that was open
when it began.  Every original attribute is put back
when the stream is done, so untraced streams run the unmodified code.

Per-symbol calls (``encode_symbol``, ``decode_symbol``,
``gaussian_cdf_table``; 262,144 per hyperprior pass) are never wrapped: a
span per call would cost more than the call.  CDF lookups are counted from
``gaussian_cdf_table.cache_info()`` instead.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from reproguard import (
    container,
    entropy,
    hyperprior,
    octree,
    platform_sim,
    quantizer,
    raw_values,
)

PAYLOADS = ("octree", "hyperprior", "raw")


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped attribute: ``owner.attr`` recorded as span ``span``."""

    span: str
    owner: object
    attr: str
    observe: Callable | None = None  # (args, result) -> kept with the span


def _guard_obs(args, result):
    cfg, v = args[0], args[1]
    return cfg, np.asarray(v), result[1]


ENTRY_POINTS = (
    EntryPoint("octree.encode", octree, "encode"),
    EntryPoint("octree.decode", octree, "decode"),
    EntryPoint("hyperprior.encode", hyperprior, "encode"),
    EntryPoint("hyperprior.decode", hyperprior, "decode"),
    EntryPoint("hyperprior.hyper_synthesis", hyperprior, "hyper_synthesis"),
    EntryPoint("quantizer.quantize_array", hyperprior, "quantize_array"),
    EntryPoint("quantizer.dequantize_array", hyperprior, "dequantize_array"),
    EntryPoint("raw_values.encode_values", raw_values, "encode_values"),
    EntryPoint("raw_values.decode_values", raw_values, "decode_values"),
    *(
        EntryPoint("safeguard.guard_encode_array", mod, "guard_encode_array", _guard_obs)
        for mod in (octree, hyperprior, raw_values)
    ),
    *(
        EntryPoint("safeguard.guard_decode_array", mod, "guard_decode_array")
        for mod in (octree, hyperprior, raw_values)
    ),
    *(
        EntryPoint(
            "entropy.encode_flags", mod, "encode_flags",
            lambda a, r: (len(a[0]), len(r)),
        )
        for mod in (octree, hyperprior, raw_values)
    ),
    EntryPoint("entropy.FlagReader.take", entropy.FlagReader, "take"),
    EntryPoint(
        "entropy.RangeEncoder.encode_bits", entropy.RangeEncoder, "encode_bits",
        lambda a, r: len(a[1]),
    ),
    EntryPoint("entropy.RangeDecoder.decode_bits", entropy.RangeDecoder, "decode_bits"),
    EntryPoint("entropy.prob_to_p16_array", octree, "prob_to_p16_array"),
    EntryPoint(
        "container.write", container, "write",
        lambda a, r: (len(r), len(a[0].main), a[0].flag_count),
    ),
    EntryPoint("container.read", container, "read"),
    EntryPoint(
        "platform_sim.perturb_array", platform_sim.Perturbation, "perturb_array"
    ),
)

_FLAG_SPANS = ("entropy.encode_flags", "entropy.FlagReader.take")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the same stream's span list, -1 at the top
    obs: object = None
    child: float = 0.0  # time covered by direct children

    @property
    def total(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.total - self.child


@dataclass(frozen=True)
class LayerMetric:
    """A per-layer metric, the payloads whose code calls that layer, and how
    to compute it from one traced stream (its spans and counts)."""

    name: str
    unit: str
    payloads: tuple[str, ...]
    compute: Callable[["StreamTrace"], float | None]


class StreamTrace:
    """Spans and counts of one traced stream (one encode, one decode)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.cdf_lookups = 0
        self.time_scale = 1.0  # brings this stream's times to reference speed

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def inside(self, span: Span, names: tuple[str, ...]) -> bool:
        p = span.parent
        while p >= 0:
            if self.spans[p].name in names:
                return True
            p = self.spans[p].parent
        return False

    def total(self, name: str, outside=()) -> float | None:
        spans = [s for s in self.named(name) if not self.inside(s, outside)]
        return sum(s.total for s in spans) if spans else None

    def self_time(self, name: str) -> float | None:
        spans = self.named(name)
        return sum(s.self_time for s in spans) if spans else None

    def obs(self, name: str) -> list:
        return [s.obs for s in self.named(name)]


def _sum_or_none(values) -> float | None:
    values = [v for v in values if v is not None]
    return sum(values) if values else None


def _flag_bits_per_flag(t: StreamTrace) -> float | None:
    obs = t.obs("entropy.encode_flags")
    flags = sum(n for n, _ in obs)
    return 8.0 * sum(b for _, b in obs) / flags if flags else None


def _main_bits_per_value(t: StreamTrace) -> float | None:
    # every coder-critical value has one flag, so flag_count is the number of
    # values (coded bits, latent symbols, raw doubles) behind the main section
    obs = t.obs("container.write")
    values = sum(n for _, _, n in obs)
    return 8.0 * sum(m for _, m, _ in obs) / values if values else None


def _coded_bits(t: StreamTrace) -> float | None:
    spans = [
        s for s in t.named("entropy.RangeEncoder.encode_bits")
        if t.inside(s, ("octree.encode",))
    ]
    return float(sum(s.obs for s in spans)) if spans else None


def _guard_counts(t: StreamTrace) -> tuple[int, int, float] | None:
    obs = t.obs("safeguard.guard_encode_array")
    if not obs:
        return None
    values = risky = 0
    analytic = 0.0
    for cfg, v, fr in obs:
        values += v.shape[0]
        risky += int(np.count_nonzero(fr))
        analytic += float(np.sum(2.0 * cfg.epsilon / _bin_widths(cfg, v)))
    return values, risky, analytic


def _bin_widths(cfg, v: np.ndarray) -> np.ndarray:
    """Width of the bin each value falls in, after the guard's edge clip."""
    grid = cfg.grid
    if grid.is_uniform:
        return np.full(v.shape, grid.q)
    if cfg.edge_clip is not None:
        lo, hi = cfg.edge_clip
        v = np.maximum(v, lo) if hi is None else np.clip(v, lo, hi)
    b = np.asarray(grid.boundaries)
    n = quantizer.quantize_array(grid, v)
    return b[n + 1] - b[n]


def _risky_model_ratio(t: StreamTrace) -> float | None:
    counts = _guard_counts(t)
    if counts is None or counts[2] == 0.0:
        return None
    return counts[1] / counts[2]


def _count(index: int):
    def compute(t: StreamTrace) -> float | None:
        counts = _guard_counts(t)
        return None if counts is None else float(counts[index])
    return compute


def _quantizer_calls(t: StreamTrace) -> float | None:
    n = len(t.named("quantizer.quantize_array")) + len(
        t.named("quantizer.dequantize_array")
    )
    return float(n) if n else None


ALL = PAYLOADS
OCTREE = ("octree",)
LATENT = ("hyperprior",)
RAW = ("raw",)
CODED = ("octree", "hyperprior")

# Times and counts are per stream (its encode plus its decode) unless the
# name says encode or decode.
LAYER_METRICS = (
    LayerMetric("entropy.flag_encode_s", "s", ALL,
                lambda t: t.total("entropy.encode_flags")),
    LayerMetric("entropy.flag_decode_s", "s", ALL,
                lambda t: t.total("entropy.FlagReader.take")),
    LayerMetric("entropy.flag_bits_per_flag", "bit/flag", ALL, _flag_bits_per_flag),
    LayerMetric("entropy.main_encode_s", "s", OCTREE,
                lambda t: t.total("entropy.RangeEncoder.encode_bits",
                                  outside=_FLAG_SPANS)),
    LayerMetric("entropy.main_decode_s", "s", OCTREE,
                lambda t: t.total("entropy.RangeDecoder.decode_bits",
                                  outside=_FLAG_SPANS)),
    LayerMetric("entropy.p16_s", "s", OCTREE,
                lambda t: t.total("entropy.prob_to_p16_array")),
    LayerMetric("entropy.main_bits_per_value", "bit/value", ALL, _main_bits_per_value),
    LayerMetric("entropy.cdf_lookups", "count", LATENT,
                lambda t: float(t.cdf_lookups) if t.cdf_lookups else None),
    # counted over the whole process: see Tracer.layer_metrics
    LayerMetric("entropy.cdf_tables_built", "count", LATENT, lambda t: None),
    LayerMetric("hyperprior.encode_self_s", "s", LATENT,
                lambda t: t.self_time("hyperprior.encode")),
    LayerMetric("hyperprior.decode_self_s", "s", LATENT,
                lambda t: t.self_time("hyperprior.decode")),
    LayerMetric("hyperprior.synthesis_s", "s", LATENT,
                lambda t: t.total("hyperprior.hyper_synthesis")),
    LayerMetric("quantizer.s", "s", LATENT,
                lambda t: _sum_or_none([t.total("quantizer.quantize_array"),
                                        t.total("quantizer.dequantize_array")])),
    LayerMetric("quantizer.calls", "count", LATENT, _quantizer_calls),
    LayerMetric("octree.encode_self_s", "s", OCTREE,
                lambda t: t.self_time("octree.encode")),
    LayerMetric("octree.decode_self_s", "s", OCTREE,
                lambda t: t.self_time("octree.decode")),
    LayerMetric("octree.coded_bits", "count", OCTREE, _coded_bits),
    LayerMetric("safeguard.encode_s", "s", ALL,
                lambda t: t.total("safeguard.guard_encode_array")),
    LayerMetric("safeguard.decode_s", "s", ALL,
                lambda t: t.total("safeguard.guard_decode_array")),
    LayerMetric("safeguard.values", "count", ALL, _count(0)),
    LayerMetric("safeguard.risky_count", "count", ALL, _count(1)),
    LayerMetric("safeguard.risky_model_ratio", "1", ALL, _risky_model_ratio),
    LayerMetric("raw_values.encode_self_s", "s", RAW,
                lambda t: t.self_time("raw_values.encode_values")),
    LayerMetric("raw_values.decode_self_s", "s", RAW,
                lambda t: t.self_time("raw_values.decode_values")),
    LayerMetric("container.write_s", "s", ALL, lambda t: t.total("container.write")),
    LayerMetric("container.read_s", "s", ALL, lambda t: t.total("container.read")),
    LayerMetric("container.bytes", "B", ALL,
                lambda t: _sum_or_none(float(n) for n, _, _ in t.obs("container.write"))),
    LayerMetric("platform_sim.perturb_s", "s", CODED,
                lambda t: t.total("platform_sim.perturb_array")),
)

# Count metrics are averaged over the first traced pass over the inputs, so
# they repeat exactly for a seed; times are medians over every traced stream.
COUNT_UNITS = ("count", "B", "bit/flag", "bit/value", "1")


def cdf_cache() -> tuple[int, int] | None:
    """(lookups, misses) of the CDF table cache; None once it has no
    ``cache_info``."""
    info = getattr(entropy.gaussian_cdf_table, "cache_info", None)
    if info is None:
        return None
    i = info()
    return i.hits + i.misses, i.misses


class Tracer:
    """Installs the wrappers around one stream at a time and keeps its spans."""

    def __init__(self) -> None:
        self.streams: list[StreamTrace] = []
        self.missing: set[str] = set()  # entry points absent from the code
        self._current: StreamTrace | None = None
        self._stack: list[int] = []

    def _wrap(self, ep: EntryPoint, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            t = tracer._current
            parent = tracer._stack[-1] if tracer._stack else -1
            idx = len(t.spans)
            span = Span(ep.span, 0.0, 0.0, parent)
            t.spans.append(span)
            tracer._stack.append(idx)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
                if parent >= 0:
                    t.spans[parent].child += span.end - span.start
            if ep.observe is not None:
                span.obs = ep.observe(args, result)
            return result

        return wrapper

    @contextmanager
    def stream(self):
        """Trace one stream; every wrapped attribute is restored on exit."""
        saved = []
        self._current = StreamTrace()
        self._stack = []
        before = cdf_cache()
        try:
            for ep in ENTRY_POINTS:
                if isinstance(ep.owner, type):
                    fn = ep.owner.__dict__.get(ep.attr)
                else:
                    fn = getattr(ep.owner, ep.attr, None)
                if fn is None:
                    self.missing.add(ep.span)
                    continue
                saved.append((ep.owner, ep.attr, fn))
                setattr(ep.owner, ep.attr, self._wrap(ep, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)
            if before is not None:
                self._current.cdf_lookups = cdf_cache()[0] - before[0]
            self.streams.append(self._current)
            self._current = None

    def layer_metrics(self, payload: str, first_pass: int, tables_built):
        """Per-layer values for a payload, and the names that are missing.

        A layer that the payload's code should call but that recorded no span
        is missing, never zero: a refactor that renames or inlines an entry
        point then shows up instead of reading as a free layer.  A layer the
        payload's code does not call at all reads zero.
        """
        values: dict[str, float] = {}
        missing: list[str] = []
        for m in LAYER_METRICS:
            if m.name == "entropy.cdf_tables_built":
                v = tables_built
            else:
                streams = self.streams[:first_pass] if m.unit in COUNT_UNITS else self.streams
                per = []
                for t in streams:
                    x = m.compute(t)
                    if x is not None:
                        per.append(x * t.time_scale if m.unit == "s" else x)
                if not per:
                    v = None
                elif m.unit in COUNT_UNITS:
                    v = statistics.fmean(per)
                else:
                    v = statistics.median(per)
            if v is None and payload in m.payloads:
                missing.append(m.name)
            elif v is None:
                values[m.name] = 0.0
            else:
                values[m.name] = float(v)
        return values, missing

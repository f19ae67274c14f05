"""Seeded codec workloads and the closed loop that times them.

One caller, one operation at a time: the next stream starts only after the
previous one has been encoded, written, read, decoded and checked.  Every
operation goes through the package's public API.  Inputs are generated from
the seed before any timing starts, and every decode is compared bit for bit
with its reference; a raise or a mismatch counts as a failed operation and
the run goes on.
"""

from __future__ import annotations

import hashlib
import math
import resource
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

import numpy as np

from reproguard import (
    GuardConfig,
    GuardMode,
    Perturbation,
    QuantGrid,
    container,
    hyperprior,
    octree,
    preset,
    raw_values,
)

import tracer as tracing

# header bytes attributable to safeguarding: p0_q16 (2) + flag_count (4);
# the same count as the CLI's overhead figure
GUARD_HEADER_BYTES = 6

SETUPS = 5  # set-ups per run; setup_s counts their median
# time of one reference loop on a quiet 2-core x86-64 host with Python
# 3.11; a constant, so that normalized times read as seconds on that host
REF_SECONDS = 0.004

END_TO_END = (
    ("setup_s", "s"),
    ("encode_s", "s"),
    ("decode_s", "s"),
    ("main_bytes", "B"),
    ("guard_bytes", "B"),
    ("overhead_pct", "%"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = tuple((m.name, m.unit) for m in tracing.LAYER_METRICS) + (
    ("trace.overhead_pct", "%"),
)


@dataclass
class Case:
    """One input and how to encode it, decode it and check the decode."""

    encode: Callable[[bool], container.GuardedStream]  # protect -> stream
    decode: Callable[[container.GuardedStream, object], np.ndarray]
    drift: Callable[[], Perturbation | None]  # a fresh drift for one decode
    expected: Callable[[container.GuardedStream], np.ndarray]


def _octree_case(seed: int, depth: int, count: int) -> Case:
    cloud = octree.synth_cloud("dense", depth, count, seed)
    cfg = octree.make_pc_config(1e-6, 250, GuardMode.CENTER)
    return Case(
        encode=lambda protect: octree.encode(cloud, cfg, protect=protect),
        decode=lambda stream, drift: octree.decode(stream, perturb=drift).codes,
        drift=lambda: preset("pcc-gpu", seed=seed),
        expected=lambda stream: cloud.codes,
    )


def pc_dense(seed: int, depth: int = 10, count: int = 100_000) -> list[Case]:
    return [_octree_case(seed, depth, count)]


def small_streams(
    seed: int, depth: int = 8, count: int = 4000, streams: int = 128
) -> list[Case]:
    # stream seeds never overlap between run seeds below 1000 streams
    return [_octree_case(seed * 1000 + i, depth, count) for i in range(streams)]


def latent(
    seed: int, h: int = 16, w: int = 16, c: int = 64, streams: int = 16
) -> list[Case]:
    # 16 grids of 16x16x64 hold the 262,144 symbols of one 128x128x16 grid.
    # The single grid draws only 16 channel scales, so its byte count, and
    # the coding time with it, swings by about a fifth from seed to seed;
    # 1024 channel scales bring the byte spread down to 2-4%.
    cfg = hyperprior.make_image_config(1e-4, GuardMode.CENTER)
    return [_latent_case(seed * 1000 + i, h, w, c, cfg) for i in range(streams)]


def _latent_case(seed: int, h: int, w: int, c: int, cfg: GuardConfig) -> Case:
    lat = hyperprior.synth_latents(h, w, c, seed)
    ref = hyperprior.quantize_latents(lat.y)
    return Case(
        encode=lambda protect: hyperprior.encode(lat, cfg, protect=protect),
        decode=lambda stream, drift: hyperprior.decode(stream, perturb=drift),
        drift=lambda: preset("image-gpu", seed=seed),
        expected=lambda stream: ref,
    )


def raw_full(seed: int, n: int = 1_000_000) -> list[Case]:
    q = 1.0 / 64.0
    grid = QuantGrid.uniform(q)
    cfg = GuardConfig(grid=grid, epsilon=q / 200.0, mode=GuardMode.FULL)
    values = np.random.default_rng(seed).normal(0.0, 4.0, n)
    # the decoder's recomputation of the values, drifted by half of epsilon
    observed = Perturbation(e_max=q / 400.0, dist="uniform", seed=seed).perturb_array(
        values, grid
    )
    return [
        Case(
            encode=lambda protect: raw_values.encode_values(values, cfg),
            decode=lambda stream, drift: raw_values.decode_values(stream, observed),
            drift=lambda: None,
            expected=raw_values.reference_values,
        )
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    payload: str  # one of tracer.PAYLOADS
    build: Callable[..., list[Case]]
    unprotected: bool  # whether the payload has a protect=False encode
    sizes: dict = field(default_factory=dict)

    def cases(self, seed: int) -> list[Case]:
        return self.build(seed, **self.sizes)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("pc-dense", "octree", pc_dense, True),
        Workload("latent", "hyperprior", latent, True),
        Workload("raw-full", "raw", raw_full, False),
        Workload("small-streams", "octree", small_streams, True),
    )
}


@dataclass
class Outcome:
    encode_s: float | None = None
    decode_s: float | None = None
    encode_ref: float = 0.0  # reference loop timed right after the encode
    decode_ref: float = 0.0  # and right after the decode
    blob: bytes | None = None
    main: int = 0
    guard: int = 0
    ok: bool = False
    error: str | None = None


def _bit_exact(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (
        got.dtype == want.dtype
        and got.shape == want.shape
        and got.tobytes() == want.tobytes()
    )


def _pair(case: Case, protect: bool, reference: bool = True) -> Outcome:
    """Encode + write, then read + decode (under drift when protected).

    With ``reference``, the reference loop is timed after each of the two,
    outside their timings."""
    out = Outcome()
    try:
        t0 = perf_counter()
        stream = case.encode(protect)
        blob = container.write(stream)
        t1 = perf_counter()
    except Exception as exc:  # counted as a failed operation; the run goes on
        out.error = f"encode: {exc!r}"
        return out
    out.encode_s, out.blob = t1 - t0, blob
    out.main, out.guard = len(stream.main), len(stream.safeguard)
    if reference:
        out.encode_ref = reference_loop()
    drift = case.drift() if protect else None
    try:
        t2 = perf_counter()
        got = case.decode(container.read(blob), drift)
        t3 = perf_counter()
    except Exception as exc:  # counted as a failed operation; the run goes on
        out.error = f"decode: {exc!r}"
        return out
    out.decode_s = t3 - t2
    if reference:
        out.decode_ref = reference_loop()
    out.ok = _bit_exact(got, case.expected(stream))
    if not out.ok:
        out.error = "decode: output differs from the reference"
    return out


def reference_loop() -> float:
    """Seconds taken by a fixed pure-Python integer loop shaped like the
    binary range coder's inner loop.  It calls no codec code, so only the
    machine's speed of the moment moves it."""
    t0 = perf_counter()
    low, rng, out = 0, 0xFFFFFFFF, bytearray()
    for i in range(20_000):
        r0 = (rng >> 16) * (40_000 + (i * 7919) % 20_000)
        if i & 3:
            rng = r0
        else:
            low = (low + r0) & 0xFFFFFFFF
            rng -= r0
        while rng < 1 << 24:
            out.append(low >> 24)
            low = (low << 8) & 0xFFFFFFFF
            rng <<= 8
    return perf_counter() - t0


class Timings:
    """Samples of one timed step, raw and normalized to reference speed.

    The speed of a shared host drifts by up to 40% over minutes as other
    tenants come and go, and the drift moves every sample of a run together.
    Each sample is therefore divided by a reference loop timed right after
    it, then scaled by REF_SECONDS.  Over 25 s pc-dense runs on a shared
    2-core host, whole-run medians of raw encode times spread by 22% (IQR
    over median) and those of normalized times by 3.6%.
    """

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.normalized: list[float] = []

    def add(self, seconds: float, ref: float) -> None:
        self.raw.append(seconds)
        self.normalized.append(seconds / ref * REF_SECONDS)

    def add_pair(self, o: "Outcome") -> None:
        """One stream's encode plus decode, each at its own reference."""
        self.raw.append(o.encode_s + o.decode_s)
        self.normalized.append(
            (o.encode_s / o.encode_ref + o.decode_s / o.decode_ref) * REF_SECONDS
        )

    def __len__(self) -> int:
        return len(self.raw)

    def median(self) -> float:
        return statistics.median(self.normalized)

    def raw_median(self) -> float:
        return statistics.median(self.raw)


def tail(samples: list[float]) -> tuple[float, int, int] | None:
    """(value, percentile, n) of the highest percentile that has at least ten
    samples beyond it, when that percentile is at least the 90th."""
    n = len(samples)
    if n < 100:
        return None
    return sorted(samples)[n - 11], math.floor(100 * (n - 10) / n), n


@dataclass
class Report:
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    notes: list = field(default_factory=list)  # extra lines for people
    missing: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.failed == 0


class _Tally:
    """Per-run bookkeeping of outcomes, failures and first-pass bytes."""

    def __init__(self, n: int, report: Report) -> None:
        self.report = report
        self.first: list[Outcome | None] = [None] * n
        self.first_unprotected: list[Outcome | None] = [None] * n

    def add(self, idx: int, o: Outcome, protect: bool) -> None:
        r = self.report
        r.attempted += 1
        first = self.first if protect else self.first_unprotected
        if o.blob is not None:
            if first[idx] is None:
                first[idx] = o
            elif o.blob != first[idx].blob:
                o.ok, o.error = False, "encode: bytes differ from the first encode"
        if not o.ok:
            r.failed += 1
            if len(r.errors) < 5:
                r.errors.append(o.error)


def run_workload(
    w: Workload, seed: int, seconds: float, trace: bool, import_s: float = 0.0
) -> Report:
    report = Report()
    cache_before = tracing.cdf_cache()

    setups = Timings()
    for _ in range(SETUPS):
        t0 = perf_counter()
        cases = w.cases(seed)
        _pair(cases[0], True, reference=False)  # warm-up: fills the CDF table cache
        setups.add(perf_counter() - t0, reference_loop())
    setup_s = import_s + setups.median()

    n = len(cases)
    tally = _Tally(n, report)
    tracer = tracing.Tracer() if trace else None
    enc, dec, enc_u, dec_u, plain_pairs, traced_pairs = (Timings() for _ in range(6))
    # trace run: each input once untraced, then once traced, alternating
    per_pass = 2 * n if trace else n
    deadline = perf_counter() + seconds
    i = 0
    while i < per_pass or perf_counter() < deadline:
        if trace:
            idx = (i // 2) % n
            if i % 2:
                with tracer.stream():
                    o = _pair(cases[idx], True)
                if o.ok:
                    traced_pairs.add_pair(o)
                    tracer.streams[-1].time_scale = (
                        2.0 * REF_SECONDS / (o.encode_ref + o.decode_ref)
                    )
            else:
                o = _pair(cases[idx], True)
                if o.ok:
                    plain_pairs.add_pair(o)
            tally.add(idx, o, True)
        else:
            idx = i % n
            o = _pair(cases[idx], True)
            tally.add(idx, o, True)
            if o.ok:
                enc.add(o.encode_s, o.encode_ref)
                dec.add(o.decode_s, o.decode_ref)
            # the unprotected baseline runs on every other pass over the
            # inputs, which leaves more samples for the protected metrics
            if w.unprotected and (i // n) % 2 == 0:
                u = _pair(cases[idx], False)
                tally.add(idx, u, False)
                if u.ok:
                    enc_u.add(u.encode_s, u.encode_ref)
                    dec_u.add(u.decode_s, u.decode_ref)
        i += 1

    m = report.metrics
    if trace:
        cache = tracing.cdf_cache()
        built = None if cache is None else cache[1] - cache_before[1]
        values, report.missing = tracer.layer_metrics(w.payload, n, built)
        if tracer.missing:
            report.notes.append(
                "entry points not found in the code: " + ", ".join(sorted(tracer.missing))
            )
        for name, unit in PER_LAYER[:-1]:
            if name in values:
                m[name] = (values[name], unit)
        if plain_pairs and traced_pairs:
            overhead = traced_pairs.median() / plain_pairs.median()
            m["trace.overhead_pct"] = ((overhead - 1.0) * 100.0, "%")
        else:
            report.missing.append("trace.overhead_pct")
        report.notes.append(
            f"traced streams {len(traced_pairs)}, untraced streams {len(plain_pairs)}"
        )
        return report

    m["setup_s"] = (setup_s, "s")
    if enc:
        m["encode_s"] = (enc.median(), "s")
        m["decode_s"] = (dec.median(), "s")
    firsts = [o for o in tally.first if o is not None]
    if len(firsts) == n:
        main = sum(o.main for o in firsts)
        guard = sum(o.guard for o in firsts)
        m["main_bytes"] = (main / n, "B")
        m["guard_bytes"] = (guard / n, "B")
        m["overhead_pct"] = ((guard + GUARD_HEADER_BYTES * n) / main * 100.0, "%")
        digest = hashlib.sha256(b"".join(o.blob for o in firsts)).hexdigest()
        report.notes.append(f"stream_sha256 {digest} ({n} protected streams)")
    m["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")

    notes = report.notes
    notes.append(f"set-up: median import {import_s:.4f} s + median of {SETUPS} "
                 f"set-ups {setups.median():.4f} s (raw {setups.raw_median():.4f} s)")
    notes.append(f"streams timed: {len(enc)} protected, {len(enc_u)} unprotected; "
                 f"times are at reference speed (reference loop = {REF_SECONDS} s)")
    if enc:
        notes.append(f"raw medians: encode {enc.raw_median():.6g} s, "
                     f"decode {dec.raw_median():.6g} s")
    notes.append(f"failed_ratio {report.failed / max(report.attempted, 1):.6g} 1 "
                 f"({report.failed} of {report.attempted} decodes)")
    for name, samples in (("encode_tail_s", enc), ("decode_tail_s", dec)):
        t = tail(samples.normalized)
        if t is None:
            notes.append(f"{name} not reported: {len(samples)} samples, "
                         "fewer than 100 leave no p90 with 10 beyond it")
        else:
            notes.append(f"{name} {t[0]:.6g} s (p{t[1]} of n={t[2]}, 10 beyond)")
    if enc_u:
        eu, du = enc_u.median(), dec_u.median()
        notes.append(f"encode_unprotected_s {eu:.6g} s")
        notes.append(f"decode_unprotected_s {du:.6g} s")
        if enc:
            notes.append(f"safeguard seconds cost: encode x{m['encode_s'][0] / eu:.3f}, "
                         f"decode x{m['decode_s'][0] / du:.3f} of unprotected")
        firsts_u = [o for o in tally.first_unprotected if o is not None]
        if len(firsts_u) == n:
            notes.append(f"unprotected main_bytes {sum(o.main for o in firsts_u) / n:.6g} B")
    elif not w.unprotected:
        notes.append("encode_unprotected_s, decode_unprotected_s not reported: "
                     "the payload has no unprotected encode")
    return report


def result(r: Report, trace: bool) -> dict:
    """The run's result line: per-layer metrics when traced, else end to end."""
    wanted = PER_LAYER if trace else END_TO_END
    return {
        "correct": r.correct,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {
            name: {"value": r.metrics[name][0], "unit": unit}
            for name, unit in wanted
            if name in r.metrics
        },
    }


def print_report(w: Workload, seed: int, seconds: float, trace: bool, r: Report,
                 file=None) -> None:
    file = file or sys.stdout
    print(f"workload {w.name} seed {seed} seconds {seconds} trace {int(trace)}",
          file=file)
    for name, (value, unit) in r.metrics.items():
        print(f"  {name:32s} {value:>14.6g} {unit}", file=file)
    for name in r.missing:
        print(f"  {name:32s} {'missing':>14s}  (entry point never called)", file=file)
    for line in r.notes:
        print(f"  {line}", file=file)
    for err in r.errors:
        print(f"  failure: {err}", file=file)

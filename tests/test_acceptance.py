"""Acceptance gate: the eight headline guarantees, each reported on one line.

Every test prints `[n/8] name: PASS/FAIL (details)` through the capture
bypass so the lines are visible in a normal pytest run.
"""

import math
import time

import numpy as np
import pytest

from reproguard.container import (
    GuardedStream,
    HyperpriorHeader,
    OctreeHeader,
    PayloadKind,
    RawHeader,
    TableDesc,
    UniformDesc,
    read,
    write,
)
from reproguard.entropy import RangeDecoder, RangeEncoder
from reproguard.errors import MalformedStreamError, ReproGuardError
from reproguard.hyperprior import (
    make_image_config,
    quantize_latents,
    synth_latents,
)
from reproguard.hyperprior import decode as image_decode
from reproguard.hyperprior import encode as image_encode
from reproguard.octree import make_pc_config, synth_cloud
from reproguard.octree import decode as pc_decode
from reproguard.octree import encode as pc_encode
from reproguard.platform_sim import Perturbation
from reproguard.quantizer import QuantGrid, get_table, quantize_array
from reproguard.safeguard import (
    GuardConfig,
    GuardMode,
    guard_decode_array,
    guard_encode_array,
)

MODES = [GuardMode.FULL, GuardMode.LEFT, GuardMode.RIGHT, GuardMode.CENTER]


def report(capsys, index, name, ok, detail):
    with capsys.disabled():
        print(f"[{index}/8] {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)


def planted_cases(rng, n, q, eps):
    """Half uniform values, half values planted around boundaries, with
    deltas mixing uniform draws and the extreme +-0.999 eps."""
    v = rng.uniform(-2.0, 2.0, size=n)
    half = n // 2
    k = rng.integers(-400, 400, size=half)
    u = rng.choice([0.0, 0.5, 0.999, 1.0, 1.001, 2.0], size=half)
    sgn = rng.choice([-1.0, 1.0], size=half)
    v[:half] = k * q + sgn * u * eps
    delta = rng.uniform(-0.999 * eps, 0.999 * eps, size=n)
    quarter = n // 4
    delta[:quarter] = rng.choice([-0.999 * eps, 0.999 * eps], size=quarter)
    return v, delta


def test_reproduction_guarantee_bit_exact(capsys):
    rng = np.random.default_rng(20240811)
    per_combo = 256_000
    t0 = time.monotonic()
    total = 0
    mismatches = 0
    for mode in MODES:
        for q in (0.004, 0.008):
            for eps in (1e-5, 1e-6):
                cfg = GuardConfig(
                    grid=QuantGrid.uniform(q, 0.0),
                    epsilon=eps,
                    mode=mode,
                )
                v, delta = planted_cases(rng, per_combo, q, eps)
                v_out, fr, fd = guard_encode_array(cfg, v)
                got = guard_decode_array(cfg, v + delta, fr, fd)
                mismatches += int(
                    np.count_nonzero(
                        got.view(np.uint64) != v_out.view(np.uint64)
                    )
                )
                total += per_combo
    elapsed = time.monotonic() - t0
    per_mode = total // len(MODES)
    ok = mismatches == 0 and per_mode >= 1_000_000 and elapsed < 30.0
    report(
        capsys, 1, "reproduction-guarantee", ok,
        f"{total} cases, {per_mode} per mode, {mismatches} mismatches, "
        f"{elapsed:.1f}s",
    )
    assert mismatches == 0
    assert per_mode >= 1_000_000
    assert elapsed < 30.0


def test_bin_drift_at_most_one(capsys):
    rng = np.random.default_rng(42)
    violations = 0
    total = 0

    # uniform grid, validated for eps = 1e-5 (q > 4 eps)
    grid = QuantGrid.uniform(0.004, 0.0)
    eps = 1e-5
    n = 500_000
    v = rng.uniform(-2.0, 2.0, size=n)
    delta = rng.uniform(-eps, eps, size=n)
    drift = np.abs(quantize_array(grid, v) - quantize_array(grid, v + delta))
    violations += int(np.count_nonzero(drift > 1))
    total += n

    # learned-style boundary table, validated for eps = 1e-4
    table = get_table(1)
    eps = 1e-4
    v = rng.uniform(0.11, 256.0, size=n)
    delta = rng.uniform(-eps, eps, size=n)
    drift = np.abs(
        quantize_array(table, v) - quantize_array(table, np.clip(v + delta, 0.11, 256.0))
    )
    violations += int(np.count_nonzero(drift > 1))
    total += n

    ok = violations == 0
    report(capsys, 2, "bin-drift-bound", ok, f"{total} cases, {violations} drift > 1")
    assert violations == 0


def test_octree_interoperability(capsys):
    t0 = time.monotonic()
    cfg = make_pc_config(1e-6, k=250)
    exact = 0
    for seed in range(20):
        cloud = synth_cloud("dense", 10, 100_000, seed)
        stream = pc_encode(cloud, cfg)
        out = pc_decode(
            stream, perturb=Perturbation(5e-7, "uniform", seed + 1000)
        )
        exact += int(np.array_equal(out.codes, cloud.codes))

    broken = 0
    for seed in range(20):
        cloud = synth_cloud("dense", 10, 100_000, seed)
        stream = pc_encode(cloud, cfg, protect=False)
        try:
            out = pc_decode(
                stream, perturb=Perturbation(5e-7, "adversarial", seed)
            )
            broken += int(not np.array_equal(out.codes, cloud.codes))
        except ReproGuardError:
            broken += 1
    elapsed = time.monotonic() - t0
    ok = exact == 20 and broken >= 19 and elapsed < 120.0
    report(
        capsys, 3, "octree-interoperability", ok,
        f"{exact}/20 exact protected, {broken}/20 broken unprotected, "
        f"{elapsed:.1f}s",
    )
    assert exact == 20
    assert broken >= 19
    assert elapsed < 120.0


def test_overhead_trend(capsys):
    epsilons = [1e-5, 5e-6, 1e-6, 5e-7, 1e-7]
    guard_header = 6  # p0_q16 + flag_count bytes attributable to safeguarding
    all_decreasing = True
    at_1e6 = []
    curves = []
    for seed in (0, 1, 2):
        cloud = synth_cloud("dense", 10, 100_000, seed)
        overheads = []
        for eps in epsilons:
            stream = pc_encode(cloud, make_pc_config(eps, k=250))
            pct = (len(stream.safeguard) + guard_header) / len(stream.main) * 100.0
            overheads.append(pct)
        curves.append(overheads)
        all_decreasing &= all(a > b for a, b in zip(overheads, overheads[1:]))
        at_1e6.append(overheads[epsilons.index(1e-6)])
    ok = all_decreasing and max(at_1e6) <= 5.0
    report(
        capsys, 4, "overhead-trend", ok,
        f"strictly decreasing over eps {epsilons} for 3 seeds; "
        f"overhead at 1e-6 = {max(at_1e6):.3f}% (limit 5%)",
    )
    assert all_decreasing, curves
    assert max(at_1e6) <= 5.0


def test_flag_rate_model(capsys):
    rng = np.random.default_rng(7)
    n = 1_000_000
    interior = 249  # boundaries of q = 1/250 strictly inside (0, 1)
    details = []
    ok = True
    for eps in (1e-5, 1e-6):
        cfg = make_pc_config(eps, k=250)
        v = rng.uniform(0.0, 1.0, size=n)
        _, fr, _ = guard_encode_array(cfg, v)
        p_hat = fr.mean()
        p = 2.0 * eps * interior
        sigma = math.sqrt(p * (1.0 - p) / n)
        ok &= abs(p_hat - p) <= 3.0 * sigma
        details.append(f"eps={eps:g}: {p_hat:.2e} vs {p:.2e} +-{3 * sigma:.1e}")
    report(capsys, 5, "flag-rate-model", ok, "; ".join(details))
    assert ok, details


def test_range_coder_soundness(capsys):
    rng = np.random.default_rng(99)
    bad = 0
    for _ in range(10_000):
        m = int(rng.integers(0, 40))
        bits = rng.integers(0, 2, size=m).astype(np.uint8)
        p16 = rng.integers(1, 65536, size=m).astype(np.int64)
        enc = RangeEncoder()
        enc.encode_bits(bits, p16)
        data = enc.finish()
        dec = RangeDecoder(data)
        if not np.array_equal(dec.decode_bits(p16), bits):
            bad += 1

    n = 1_000_000
    p_zero = 0.9
    bits = (rng.random(n) >= p_zero).astype(np.uint8)
    p16 = np.full(n, int(round(p_zero * 65536)), dtype=np.int64)
    enc = RangeEncoder()
    enc.encode_bits(bits, p16)
    coded_bits = len(enc.finish()) * 8
    shannon = -n * (
        p_zero * math.log2(p_zero) + (1 - p_zero) * math.log2(1 - p_zero)
    )
    bound = 1.01 * shannon + 32
    ok = bad == 0 and coded_bits <= bound
    report(
        capsys, 6, "range-coder-soundness", ok,
        f"10000 fuzz roundtrips, {bad} failures; "
        f"{coded_bits} bits vs bound {bound:.0f}",
    )
    assert bad == 0
    assert coded_bits <= bound


def test_hyperprior_reproducibility(capsys):
    cfg = make_image_config(1e-4)
    exact = 0
    for seed in range(20):
        lat = synth_latents(64, 64, 8, seed)
        stream = image_encode(lat, cfg)
        got = image_decode(
            stream, perturb=Perturbation(8e-6, "uniform", seed + 500)
        )
        exact += int(np.array_equal(got, quantize_latents(lat.y)))

    broken = 0
    for seed in range(20):
        lat = synth_latents(64, 64, 8, seed)
        stream = image_encode(lat, cfg, protect=False)
        try:
            got = image_decode(
                stream, perturb=Perturbation(8e-6, "adversarial", seed)
            )
            broken += int(not np.array_equal(got, quantize_latents(lat.y)))
        except ReproGuardError:
            broken += 1
    ok = exact == 20 and broken >= 19
    report(
        capsys, 7, "hyperprior-reproducibility", ok,
        f"{exact}/20 exact protected, {broken}/20 broken unprotected",
    )
    assert exact == 20
    assert broken >= 19


def valid_corpus(rng, count):
    streams = []
    for _ in range(count):
        kind = int(rng.integers(0, 3))
        guard = rng.bytes(int(rng.integers(0, 40)))
        main = rng.bytes(int(rng.integers(0, 120)))
        eps = float(10.0 ** rng.uniform(-9, -1))
        p0 = int(rng.integers(1, 65536))
        flags = int(rng.integers(0, 500))
        if kind == PayloadKind.OCTREE:
            depth = int(rng.integers(1, 22))
            payload = OctreeHeader(
                bit_depth=depth,
                point_count=int(rng.integers(1, min(2**18, 8**depth) + 1)),
            )
            desc = UniformDesc(q=float(rng.uniform(1e-4, 1.0)), s=0.0)
        elif kind == PayloadKind.HYPERPRIOR:
            h, w = 4 * int(rng.integers(1, 4)), 4 * int(rng.integers(1, 4))
            c = int(rng.integers(1, 4))
            payload = HyperpriorHeader(
                height=h, width=w, channels=c,
                scale_table_id=int(rng.integers(1, 50)),
                z_blob=rng.bytes((h // 4) * (w // 4) * c * 8),
            )
            desc = TableDesc(table_id=payload.scale_table_id)
        else:
            payload = RawHeader(value_count=flags)
            desc = UniformDesc(
                q=float(rng.uniform(1e-4, 1.0)), s=float(rng.uniform(0.0, 0.99))
            )
        streams.append(
            GuardedStream(
                mode=MODES[int(rng.integers(0, 4))],
                payload_kind=kind,
                epsilon=eps,
                grid_desc=desc,
                p0_q16=p0,
                flag_count=flags,
                payload=payload,
                safeguard=guard,
                main=main,
            )
        )
    return streams


def test_container_robustness(capsys):
    rng = np.random.default_rng(31337)
    corpus = valid_corpus(rng, 1000)
    identity_failures = 0
    for s in corpus:
        data = write(s)
        if read(data) != s or write(read(data)) != data:
            identity_failures += 1

    base = [write(s) for s in corpus[:50]]
    crashes = 0
    parsed = 0
    fuzzed = 100_000
    for i in range(fuzzed):
        data = bytearray(base[i % len(base)])
        op = i % 5
        if op == 0:
            data[int(rng.integers(0, len(data)))] ^= 1 << int(rng.integers(0, 8))
        elif op == 1:
            data = data[: int(rng.integers(0, len(data)))]
        elif op == 2:
            data += rng.bytes(int(rng.integers(1, 20)))
        elif op == 3:
            for _ in range(4):
                data[int(rng.integers(0, len(data)))] = int(rng.integers(0, 256))
        else:
            data = bytearray(rng.bytes(int(rng.integers(0, 80))))
        try:
            read(bytes(data))
            parsed += 1
        except MalformedStreamError:
            pass
        except Exception:
            crashes += 1
    ok = identity_failures == 0 and crashes == 0
    report(
        capsys, 8, "container-robustness", ok,
        f"{len(corpus)} identities, {fuzzed} fuzzed inputs, "
        f"{parsed} still parsed, {crashes} untyped failures",
    )
    assert identity_failures == 0
    assert crashes == 0

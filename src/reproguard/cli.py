"""Command-line surface: encode/decode files, interoperability trials,
overhead sweeps with CSV/SVG output, and the latent-codec demo."""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from . import container, hyperprior, octree
from .errors import (
    ConfigError,
    InvalidInputError,
    MalformedStreamError,
    PlyParseError,
    ReproGuardError,
)
from .platform_sim import Perturbation

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_MALFORMED = 3
EXIT_CONFIG = 4
EXIT_PARSE = 5
EXIT_IO = 6

# header bytes attributable to safeguarding: p0_q16 (2) + flag_count (4)
_GUARD_HEADER_BYTES = 6


def _overhead_pct(stream: container.GuardedStream) -> float:
    return (len(stream.safeguard) + _GUARD_HEADER_BYTES) / len(stream.main) * 100.0


def _perturbation(e: float, dist: str, seed: int) -> Perturbation | None:
    if e < 0.0:
        raise ConfigError("perturbation magnitude must be >= 0")
    if e == 0.0 or dist == "none":
        return None
    return Perturbation(e_max=e, dist=dist, seed=seed)


# ---------------------------------------------------------------------------
# one encode -> decode -> compare path per payload

_IMAGE_SIZE = (64, 64, 8)


def _roundtrip(payload, cfg, size, seed, pert, protect=True):
    """Encode a seeded synthetic input of ``size``, decode it under ``pert``
    and compare; returns (stream, coded symbols, exact).  A decode that
    fails on the stream raises MalformedStreamError."""
    if payload == "pc":
        cloud = octree.synth_cloud("dense", *size, seed)
        stream = octree.encode(cloud, cfg, protect=protect)
        got, want = octree.decode(stream, perturb=pert).codes, cloud.codes
    else:
        lat = hyperprior.synth_latents(*size, seed)
        stream = hyperprior.encode(lat, cfg, protect=protect)
        got = hyperprior.decode(stream, perturb=pert)
        want = hyperprior.quantize_latents(lat.y)
    return stream, want.size, bool(np.array_equal(got, want))


def _trial(payload, cfg, size, seed, pert, protect=True) -> str:
    """EXACT, MISMATCH, or FAILURE when the decode desynchronizes outright."""
    try:
        _, _, exact = _roundtrip(payload, cfg, size, seed, pert, protect)
    except MalformedStreamError:
        return "FAILURE"
    return "EXACT" if exact else "MISMATCH"


# ---------------------------------------------------------------------------
# encode-pc / decode-pc


def _cmd_encode_pc(args) -> int:
    cloud = octree.read_ply(args.input, bit_depth=args.depth)
    cfg = octree.make_pc_config(args.epsilon, k=args.k, mode=args.mode)
    stream = octree.encode(cloud, cfg, protect=not args.no_protect)
    container.write_file(args.output, stream)
    bpp = len(stream.main) * 8.0 / len(cloud)
    print(f"points {len(cloud)}  main {len(stream.main)} B  bpp {bpp:.3f}")
    if args.no_protect:
        print("safeguard disabled")
    else:
        print(
            f"safeguard {len(stream.safeguard)} B  "
            f"overhead {_overhead_pct(stream):.2f}%"
        )
    return EXIT_OK


def _cmd_decode_pc(args) -> int:
    stream = container.read_file(args.input)
    pert = _perturbation(args.perturb_e, args.perturb_dist, args.perturb_seed)
    try:
        cloud = octree.decode(stream, perturb=pert)
    except MalformedStreamError as exc:
        print(f"DECODE FAILURE: {exc}")
        return EXIT_MALFORMED
    if args.output:
        octree.write_ply(args.output, cloud)
    if args.expect:
        ref = octree.read_ply(args.expect, bit_depth=cloud.bit_depth)
        if ref.bit_depth == cloud.bit_depth and np.array_equal(ref.codes, cloud.codes):
            print("EXACT")
        else:
            print("DECODE MISMATCH")
            return EXIT_MISMATCH
    else:
        print(f"decoded {len(cloud)} points at depth {cloud.bit_depth}")
    return EXIT_OK


def _cmd_synth_pc(args) -> int:
    cloud = octree.synth_cloud(args.kind, args.depth, args.count, args.seed)
    octree.write_ply(args.out, cloud)
    print(f"wrote {len(cloud)} voxels to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep

_CSV_FIELDS = [
    "payload",
    "kind",
    "n",
    "q",
    "epsilon",
    "seed",
    "main_bytes",
    "guard_bytes",
    "overhead_pct",
    "p0",
    "exact",
]


def _q_column(k: int | None) -> str:
    # no k (the latent codec) or k < 1 (rejected by make_pc_config) has no q
    return repr(1.0 / k) if k is not None and k >= 1 else ""


def _sweep_row(payload, cfg, k, eps, seed, size):
    pert = Perturbation(e_max=eps / 2.0, dist="uniform", seed=seed + 7777)
    stream, n, exact = _roundtrip(payload, cfg, size, seed, pert)
    return {
        "payload": payload,
        "kind": "uniform" if k is not None else f"table:{hyperprior.SCALE_TABLE_ID}",
        "n": n,
        "q": _q_column(k),
        "epsilon": repr(eps),
        "seed": seed,
        "main_bytes": len(stream.main),
        "guard_bytes": len(stream.safeguard),
        "overhead_pct": f"{_overhead_pct(stream):.6f}",
        "p0": f"{stream.p0_q16 / 65536.0:.6f}",
        "exact": str(exact).lower(),
    }


def _skip_row(payload, q, eps, reason):
    row = {f: "" for f in _CSV_FIELDS}
    row.update(
        payload=payload, q=q, epsilon=repr(eps), exact=f"skipped: {reason}"
    )
    return row


def _cmd_sweep(args) -> int:
    epsilons = [float(x) for x in args.epsilons.split(",") if x]
    seeds = [int(x) for x in args.seeds.split(",")] if args.seeds else []
    if args.payload == "pc":
        ks = [int(x) for x in args.ks.split(",") if x]
        size = (args.depth, args.count)
    else:
        ks = [None]  # the latent codec has one grid, the scale table
        size = _IMAGE_SIZE
    rows = []
    for k in ks:
        for eps in epsilons:
            try:
                if k is None:
                    cfg = hyperprior.make_image_config(eps)
                else:
                    cfg = octree.make_pc_config(eps, k=k)
            except (ConfigError, InvalidInputError) as exc:
                where = "" if k is None else f"k={k} "
                print(f"warning: skipping {where}eps={eps}: {exc}", file=sys.stderr)
                rows.append(_skip_row(args.payload, _q_column(k), eps, exc))
                continue
            rows.extend(_sweep_row(args.payload, cfg, k, eps, s, size) for s in seeds)

    rows.sort(
        key=lambda r: (
            r["payload"],
            float(r["q"]) if r["q"] else 0.0,
            -float(r["epsilon"]),
            str(r["seed"]),
        )
    )
    with open(args.out, "w", newline="", encoding="ascii") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    if args.svg:
        _write_svg(args.svg, rows)
        print(f"wrote plot to {args.svg}")
    return EXIT_OK


def _write_svg(path, rows) -> None:
    """Overhead vs epsilon, one polyline per grid, log-x, no dependencies."""
    series: dict[str, list[tuple[float, float]]] = {}
    for r in rows:
        if not r["overhead_pct"]:
            continue
        label = f"q={r['q']}" if r["q"] else r["kind"]
        series.setdefault(label, []).append(
            (float(r["epsilon"]), float(r["overhead_pct"]))
        )
    width, height, pad = 640, 420, 56
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="monospace" font-size="11">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    pts_all = [p for pts in series.values() for p in pts]
    if pts_all:
        xs = [math.log10(p[0]) for p in pts_all]
        ys = [p[1] for p in pts_all]
        x0, x1 = min(xs), max(xs)
        y0, y1 = 0.0, max(ys) * 1.08 or 1.0
        if x1 == x0:
            x1 = x0 + 1.0

        def sx(x):
            return pad + (math.log10(x) - x0) / (x1 - x0) * (width - 2 * pad)

        def sy(y):
            return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

        parts.append(
            f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
            f'y2="{height - pad}" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
            f'stroke="black"/>'
        )
        for e in sorted({p[0] for p in pts_all}):
            parts.append(
                f'<text x="{sx(e):.1f}" y="{height - pad + 16}" '
                f'text-anchor="middle">{e:g}</text>'
            )
        for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
            yv = y0 + frac * (y1 - y0)
            parts.append(
                f'<text x="{pad - 6}" y="{sy(yv):.1f}" '
                f'text-anchor="end">{yv:.2f}</text>'
            )
        parts.append(
            f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle">'
            "epsilon (log scale)</text>"
        )
        parts.append(
            f'<text x="16" y="{height / 2:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 16 {height / 2:.0f})">overhead %</text>'
        )
        colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
        for i, (label, pts) in enumerate(sorted(series.items())):
            pts = sorted(pts)
            color = colors[i % len(colors)]
            path_d = " ".join(f"{sx(x):.1f},{sy(y):.1f}" for x, y in pts)
            parts.append(
                f'<polyline points="{path_d}" fill="none" stroke="{color}" '
                'stroke-width="1.5"/>'
            )
            for x, y in pts:
                parts.append(
                    f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="2.5" '
                    f'fill="{color}"/>'
                )
            parts.append(
                f'<text x="{width - pad + 4}" y="{pad + 14 * i + 10}" '
                f'fill="{color}">{label}</text>'
            )
    parts.append("</svg>")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# interop / demo-image


def _cmd_interop(args) -> int:
    if args.trials < 1:  # "exact 0/0" is no evidence of a pass
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if args.payload == "pc":
        make_config, size = octree.make_pc_config, (8, 4000)
    else:
        make_config, size = hyperprior.make_image_config, (16, 16, 4)
    exact = 0
    for seed in range(args.trials):
        cfg = make_config(args.epsilon)
        pert = _perturbation(args.e, args.dist, seed + 31337)
        exact += _trial(args.payload, cfg, size, seed, pert) == "EXACT"
    in_contract = args.e < args.epsilon
    tag = "" if in_contract else "  [OUT OF CONTRACT]"
    print(f"exact {exact}/{args.trials}{tag}")
    if in_contract and exact != args.trials:
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_demo_image(args) -> int:
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    cfg = hyperprior.make_image_config(args.epsilon)
    failures = 0
    for t in range(args.trials):
        seed = args.seed + t
        pert = _perturbation(args.e, args.dist, seed + 424242)
        status = _trial("image", cfg, _IMAGE_SIZE, seed, pert, not args.no_protect)
        if status != "EXACT":
            failures += 1
        print(f"trial {t}: {status}")
    print(f"exact {args.trials - failures}/{args.trials}")
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


# ---------------------------------------------------------------------------
# argument plumbing


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="reproguard",
        description="Safeguarded bit-exact compression codecs and demos.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode-pc", help="encode an ASCII PLY into .rgd")
    enc.add_argument("--input", required=True)
    enc.add_argument("--output", required=True)
    enc.add_argument("--mode", default="center",
                     choices=["full", "left", "right", "center"])
    enc.add_argument("--epsilon", type=float, default=1e-6)
    enc.add_argument("--k", type=int, default=250, help="probability step 1/k")
    enc.add_argument("--depth", type=int, default=None,
                     help="voxel bit depth (default: PLY header comment)")
    enc.add_argument("--no-protect", action="store_true")
    enc.set_defaults(fn=_cmd_encode_pc)

    dec = sub.add_parser("decode-pc", help="decode a .rgd into an ASCII PLY")
    dec.add_argument("--input", required=True)
    dec.add_argument("--output", default=None)
    dec.add_argument("--expect", default=None,
                     help="reference PLY; compare and report EXACT/MISMATCH")
    dec.add_argument("--perturb-e", type=float, default=0.0)
    dec.add_argument("--perturb-dist", default="uniform",
                     choices=["none", "uniform", "adversarial"])
    dec.add_argument("--perturb-seed", type=int, default=0)
    dec.set_defaults(fn=_cmd_decode_pc)

    syn = sub.add_parser("synth-pc", help="generate a synthetic PLY cloud")
    syn.add_argument("--kind", default="dense", choices=["dense", "sparse"])
    syn.add_argument("--depth", type=int, default=10)
    syn.add_argument("--count", type=int, default=100000)
    syn.add_argument("--seed", type=int, default=0)
    syn.add_argument("--out", required=True)
    syn.set_defaults(fn=_cmd_synth_pc)

    sw = sub.add_parser("sweep", help="overhead grid -> CSV (+ optional SVG)")
    sw.add_argument("--payload", required=True, choices=["pc", "image"])
    sw.add_argument("--epsilons", required=True, help="comma-separated")
    sw.add_argument("--ks", default="250", help="comma-separated (pc only)")
    sw.add_argument("--seeds", default="0", help="comma-separated, may be empty")
    sw.add_argument("--depth", type=int, default=9)
    sw.add_argument("--count", type=int, default=20000)
    sw.add_argument("--out", required=True)
    sw.add_argument("--svg", default=None)
    sw.set_defaults(fn=_cmd_sweep)

    it = sub.add_parser("interop", help="seeded encode/decode agreement trials")
    it.add_argument("--payload", required=True, choices=["pc", "image"])
    it.add_argument("--trials", type=int, default=20)
    it.add_argument("--epsilon", type=float, default=1e-6)
    it.add_argument("--e", type=float, default=5e-7)
    it.add_argument("--dist", default="uniform",
                    choices=["none", "uniform", "adversarial"])
    it.set_defaults(fn=_cmd_interop)

    demo = sub.add_parser("demo-image", help="latent codec reproducibility demo")
    demo.add_argument("--trials", type=int, default=5)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--epsilon", type=float, default=1e-4)
    demo.add_argument("--e", type=float, default=8e-6)
    demo.add_argument("--dist", default="uniform",
                      choices=["none", "uniform", "adversarial"])
    demo.add_argument("--no-protect", action="store_true")
    demo.set_defaults(fn=_cmd_demo_image)

    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except PlyParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ConfigError, InvalidInputError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MalformedStreamError as exc:
        print(f"malformed stream: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except ReproGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

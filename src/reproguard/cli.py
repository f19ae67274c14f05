"""Command-line surface: encode/decode files, interoperability trials,
overhead sweeps with CSV output, and the latent-codec demo."""

from __future__ import annotations

import argparse
import csv
import sys

import numpy as np

from . import container, entropy, hyperprior, octree
from .errors import (
    ConfigError,
    InvalidInputError,
    MalformedStreamError,
    PlyParseError,
    ReproGuardError,
)
from .platform_sim import _DISTS, Perturbation
from .safeguard import GuardMode

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_MALFORMED = 3
EXIT_CONFIG = 4
EXIT_PARSE = 5
EXIT_IO = 6

# header bytes attributable to safeguarding: flag_count (4)
_GUARD_HEADER_BYTES = 4


def _overhead_pct(stream: container.GuardedStream) -> float:
    return (len(stream.safeguard) + _GUARD_HEADER_BYTES) / len(stream.main) * 100.0


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
    mode = GuardMode[args.mode.upper()]
    cfg = octree.make_pc_config(args.epsilon, k=args.k, mode=mode)
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
    pert = Perturbation(args.perturb_e, args.perturb_dist, args.perturb_seed)
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


def _sweep_row(payload, cfg, q, eps, seed, size):
    pert = Perturbation(e_max=eps / 2.0, dist="uniform", seed=seed + 7777)
    stream, n, exact = _roundtrip(payload, cfg, size, seed, pert)
    # the zero rate the flags were coded at, as the flag coder derives it
    p0 = entropy._zero_p16(stream.flag_count, entropy._risky_count(stream.safeguard)[0])
    return {
        "payload": payload,
        "n": n,
        "q": q,
        "epsilon": repr(eps),
        "seed": seed,
        "main_bytes": len(stream.main),
        "guard_bytes": len(stream.safeguard),
        "overhead_pct": f"{_overhead_pct(stream):.6f}",
        "p0": f"{p0 / 65536.0:.6f}",
        "exact": str(exact).lower(),
    }


def _skip_row(payload, q, eps, reason):
    row = {f: "" for f in _CSV_FIELDS}
    row.update(
        payload=payload, q=q, epsilon=repr(eps), exact=f"skipped: {reason}"
    )
    return row


def _list_arg(flag: str, text: str, kind) -> list:
    """The items of a comma-separated option as ``kind``, empty ones skipped."""
    try:
        return [kind(item) for item in text.split(",") if item]
    except ValueError as exc:  # its message quotes the bad item
        raise ConfigError(f"{flag}: {exc}") from None


def _cmd_sweep(args) -> int:
    epsilons = _list_arg("--epsilons", args.epsilons, float)
    seeds = _list_arg("--seeds", args.seeds, int)
    # each grid once: (q column, warning label, config builder); k < 1,
    # which make_pc_config rejects, has no q, and the latent codec's one
    # grid is the scale table on log sigma
    if args.payload == "pc":
        grids = [
            (repr(1.0 / k) if k >= 1 else "", f"k={k} ",
             lambda eps, k=k: octree.make_pc_config(eps, k=k))
            for k in _list_arg("--ks", args.ks, int)
        ]
        size = (args.depth, args.count)
    else:
        grids = [(repr(hyperprior.default_scale_table().q), "",
                  hyperprior.make_image_config)]
        size = _IMAGE_SIZE
    rows = []
    for q, where, make_config in grids:
        for eps in epsilons:
            try:
                cfg = make_config(eps)
            except (ConfigError, InvalidInputError) as exc:
                # the row names its grid as the warning does: a skip row has
                # no k column, and k < 1 has no q
                reason = f"{where}eps={eps}: {exc}"
                print(f"warning: skipping {reason}", file=sys.stderr)
                rows.append(_skip_row(args.payload, q, eps, reason))
                continue
            rows.extend(_sweep_row(args.payload, cfg, q, eps, s, size) for s in seeds)

    rows.sort(
        key=lambda r: (
            r["payload"],
            float(r["q"]) if r["q"] else 0.0,
            -float(r["epsilon"]),
            r["seed"] != "",  # a skipped row has no seed and comes first
            r["seed"] or 0,
        )
    )
    with open(args.out, "w", newline="", encoding="ascii") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# interop / demo-image


def _cmd_interop(args) -> int:
    if args.trials < 1:  # "exact 0/0" is no evidence of a pass
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if args.payload == "pc":
        make_config, size = octree.make_pc_config, (8, 4000)
    else:
        make_config, size = hyperprior.make_image_config, (16, 16, 4)
    cfg = make_config(args.epsilon)
    exact = 0
    for seed in range(args.trials):
        pert = Perturbation(args.e, args.dist, seed + 31337)
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
        pert = Perturbation(args.e, args.dist, seed + 424242)
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
                     choices=[m.name.lower() for m in GuardMode])
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
                     choices=_DISTS)
    dec.add_argument("--perturb-seed", type=int, default=0)
    dec.set_defaults(fn=_cmd_decode_pc)

    syn = sub.add_parser("synth-pc", help="generate a synthetic PLY cloud")
    syn.add_argument("--kind", default="dense", choices=["dense", "sparse"])
    syn.add_argument("--depth", type=int, default=10)
    syn.add_argument("--count", type=int, default=100000)
    syn.add_argument("--seed", type=int, default=0)
    syn.add_argument("--out", required=True)
    syn.set_defaults(fn=_cmd_synth_pc)

    sw = sub.add_parser("sweep", help="overhead grid -> CSV")
    sw.add_argument("--payload", required=True, choices=["pc", "image"])
    sw.add_argument("--epsilons", required=True, help="comma-separated")
    sw.add_argument("--ks", default="250", help="comma-separated (pc only)")
    sw.add_argument("--seeds", default="0", help="comma-separated, may be empty")
    sw.add_argument("--depth", type=int, default=9)
    sw.add_argument("--count", type=int, default=20000)
    sw.add_argument("--out", required=True)
    sw.set_defaults(fn=_cmd_sweep)

    it = sub.add_parser("interop", help="seeded encode/decode agreement trials")
    it.add_argument("--payload", required=True, choices=["pc", "image"])
    it.add_argument("--trials", type=int, default=20)
    it.add_argument("--epsilon", type=float, default=1e-6)
    it.add_argument("--e", type=float, default=5e-7)
    it.add_argument("--dist", default="uniform",
                    choices=_DISTS)
    it.set_defaults(fn=_cmd_interop)

    demo = sub.add_parser("demo-image", help="latent codec reproducibility demo")
    demo.add_argument("--trials", type=int, default=5)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--epsilon", type=float, default=1e-4)
    demo.add_argument("--e", type=float, default=8e-6)
    demo.add_argument("--dist", default="uniform",
                      choices=_DISTS)
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

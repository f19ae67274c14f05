"""Bit-flip fuzz of the payload decoders.

Small containers of every payload in every mode get a few seeded bit flips
each.  Every flipped container that ``container.read`` accepts is decoded,
and the decode either succeeds or raises a typed subclass of
MalformedStreamError: hostile bytes never surface as a config, input or
guard error, nor as the bare base class.  The range decoder alone is fuzzed
the same way, with random main sections under valid headers."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from reproguard import GuardConfig, GuardMode, QuantGrid, container
from reproguard import hyperprior, octree, raw_values
from reproguard.errors import FieldValueError, MalformedStreamError

_RAW_VALUES = np.random.default_rng(3).normal(0.0, 0.3, 64)


def _octree(mode):
    cloud = octree.synth_cloud("dense", 4, 60, seed=2)
    return octree.encode(cloud, octree.make_pc_config(2e-3, 100, mode))


def _hyperprior(mode):
    lat = hyperprior.synth_latents(8, 8, 2, seed=2)
    return hyperprior.encode(lat, hyperprior.make_image_config(1e-3, mode))


def _raw(mode):
    cfg = GuardConfig(grid=QuantGrid.uniform(0.05), epsilon=2e-3, mode=mode)
    return raw_values.encode_values(_RAW_VALUES, cfg)


def _decode(stream):
    if stream.payload_kind == container.PayloadKind.OCTREE:
        return octree.decode(stream)
    if stream.payload_kind == container.PayloadKind.HYPERPRIOR:
        return hyperprior.decode(stream)
    # the recomputed values have the length the header declares; a count
    # this large cannot equal the 32-bit flag count, which is checked first
    n = stream.payload.value_count
    return raw_values.decode_values(
        stream, np.resize(_RAW_VALUES, n) if n < 1 << 20 else _RAW_VALUES
    )


def _typed(exc):
    """Whether ``exc`` is a typed stream fault: a subclass of
    MalformedStreamError, and not that base class itself."""
    return isinstance(exc, MalformedStreamError) and type(exc) is not MalformedStreamError


BUILDERS = {"octree": _octree, "hyperprior": _hyperprior, "raw": _raw}
TRIALS = 240  # flipped copies of each container in each mode


@pytest.mark.parametrize("seed", [0, 1])
def test_flipped_containers_decode_or_raise_malformed(seed):
    rng = np.random.default_rng(seed)
    outcomes = Counter()
    untyped = []
    for payload, build in sorted(BUILDERS.items()):
        for mode in GuardMode:
            data = container.write(build(mode))
            for _ in range(TRIALS):
                flipped = bytearray(data)
                for bit in rng.integers(0, 8 * len(data), int(rng.integers(1, 4))):
                    flipped[bit // 8] ^= 1 << (bit % 8)
                try:
                    stream = container.read(bytes(flipped))
                except MalformedStreamError as exc:
                    outcomes["rejected by read"] += 1
                    if not _typed(exc):
                        untyped.append((payload, mode.name, repr(exc)))
                    continue
                try:
                    _decode(stream)
                    outcomes["decoded"] += 1
                except Exception as exc:  # noqa: BLE001 - the fault under test
                    outcomes["malformed"] += 1
                    if not _typed(exc):
                        untyped.append((payload, mode.name, repr(exc)))
    assert untyped == []
    # enough flips get past the reader for the decoders to be exercised
    assert outcomes["decoded"] + outcomes["malformed"] > 1000


@pytest.mark.parametrize("payload", ["octree", "hyperprior"])
def test_random_mains_under_valid_headers_raise_typed(payload):
    # a valid stream's headers and flags with its main section replaced by
    # random bytes, and by the two openings that would break the range
    # decoder's code < range, which it refuses
    rng = np.random.default_rng(7)
    stream = BUILDERS[payload](GuardMode.FULL)
    size = len(stream.main)
    ff = b"\xff\xff\xff\xff" + bytes(size - 4)
    tail = b"\xff\xff\xff\xfe" + bytes(size - 4)
    with pytest.raises(FieldValueError, match="opens with FF FF FF FF"):
        _decode(dataclasses.replace(stream, main=ff))
    if payload == "hyperprior":
        # the rounded z comes first, and its first target is 65536; a bit
        # has no unused tail, so the octree decodes on
        with pytest.raises(FieldValueError, match="unused tail"):
            _decode(dataclasses.replace(stream, main=tail))
    mains = [ff, tail]
    mains += [rng.bytes(int(rng.integers(0, 2 * size))) for _ in range(TRIALS)]
    outcomes = Counter()
    untyped = []
    for main in mains:
        try:
            _decode(dataclasses.replace(stream, main=main))
            outcomes["decoded"] += 1
        except Exception as exc:  # noqa: BLE001 - the fault under test
            outcomes[type(exc).__name__] += 1
            if not _typed(exc):
                untyped.append(repr(exc))
    assert untyped == []
    assert outcomes["TruncatedStreamError"] and outcomes["FieldValueError"]

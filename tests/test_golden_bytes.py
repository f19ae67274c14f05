"""Pinned container bytes of small fixed-seed streams.

The v5 wire format is a promise: a faster coder must emit exactly these
bytes.  Each case is encoded, written, and compared by SHA-256 against the
digest recorded when the format last changed (v5: the grid-kind byte went,
the octree and raw headers carry the step, and the hyperprior's table id
went).  The digest of each case's ``main`` section was recorded with the
v1 format, and that of its safeguard section with v2 (which made it
Rice-coded gaps between risky flags); neither moved with v3, v4 or v5,
which changed the header alone.
"""

import hashlib

import numpy as np
import pytest

from reproguard import GuardConfig, GuardMode, QuantGrid, container
from reproguard import hyperprior, octree, raw_values


def _octree(mode: GuardMode):
    cloud = octree.synth_cloud("dense", 6, 600, seed=5)
    # eps = q/8 flags about a quarter of the probabilities
    return octree.encode(cloud, octree.make_pc_config(5e-4, 250, mode))


def _hyperprior():
    lat = hyperprior.synth_latents(8, 8, 6, seed=7)
    return hyperprior.encode(lat, hyperprior.make_image_config(1e-3, GuardMode.CENTER))


def _raw(mode: GuardMode):
    q = 1.0 / 64.0
    cfg = GuardConfig(grid=QuantGrid.uniform(q), epsilon=q / 20.0, mode=mode)
    values = np.random.default_rng(9).normal(0.0, 2.0, 3000)
    return raw_values.encode_values(values, cfg)


def _octree_unprotected(mode: GuardMode):
    cloud = octree.synth_cloud("dense", 6, 600, seed=5)
    return octree.encode(cloud, octree.make_pc_config(5e-4, 250, mode), protect=False)


def _hyperprior_unprotected(mode: GuardMode):
    lat = hyperprior.synth_latents(8, 8, 6, seed=7)
    cfg = hyperprior.make_image_config(1e-3, mode)
    return hyperprior.encode(lat, cfg, protect=False)


# name: (build, SHA-256 of the container, SHA-256 of its main section,
#        SHA-256 of its safeguard section)
GOLDEN = {
    "octree-center": (lambda: _octree(GuardMode.CENTER),
        "99aeb1e8489144e9def970b3f15f948c56da618b2d624eb9f5306756a3b941d3",
        "4f964bf18cda4736b00b0678e586f245cd39213c0097fd716105d9aa95da1bbd",
        "632450b055558aeadf3073af31e5e34d210fc68c4e340b55b5b070130d21f8c8",
    ),
    "octree-full": (lambda: _octree(GuardMode.FULL),
        "301d63e8942639fbd21f0043bb3edc5ab25e8904a8f9c0671ffa66262eec0277",
        "a17f1b739e84b4f99ec3eb1a87bfe92ccccc5e77f5d5f3d2c519b471a1229655",
        "8653d21a328e0b75f37535a0f548e7a533e5ca564160507fdf3935afbf92bc90",
    ),
    "hyperprior-center": (_hyperprior,
        "73416adc342610b22c32edd9e9d9d1a1891a3ce2495fe7e717e51bfb4138294f",
        "c9be78233bcdcb4146f00d8d175b3a16b4f658173abc47cffb01e13efdbf5a75",
        "a387131f02a0d8e0ec45a4994514a1b420af84b5a07b7bb7e559aa54f1e58675",
    ),
    "raw-full": (lambda: _raw(GuardMode.FULL),
        "8e5e977a57ac0c0bbaf005420beb629cb74b5d0f4d3c5d1286745d53725bc456",
        "e471a22b937b0fdd9cee3cffcca47e2628d0966dfd560b4850b1ee7d48746680",
        "0a058eec8a2f0a07144a8624459eed522ed1177f57abba9e7397f869ae22f6e7",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stream_bytes_match_v1(name):
    # the name predates v2 to v5 and is kept so the test ids stay stable;
    # the digests are those of the v5 format
    build, digest, *_ = GOLDEN[name]
    stream = build()
    assert stream.flag_count > 0 and any(stream.safeguard)
    assert hashlib.sha256(container.write(stream)).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_main_section_kept_its_v1_bytes(name):
    build, _, main_digest, _ = GOLDEN[name]
    assert hashlib.sha256(build().main).hexdigest() == main_digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_safeguard_section_kept_its_v2_bytes(name):
    build, _, _, guard_digest = GOLDEN[name]
    assert hashlib.sha256(build().safeguard).hexdigest() == guard_digest


# Unprotected streams: no flags, so the header carries a flag count of 0
# and the safeguard section is empty.  Digests of the container.
UNPROTECTED = {
    "octree-center": (lambda: _octree_unprotected(GuardMode.CENTER),
        "e0aaa71ba380142282a2466939ff425f6b47acdd3a357839dc18254afec25d6f",
    ),
    "octree-full": (lambda: _octree_unprotected(GuardMode.FULL),
        "849db711e5bd62324bad7f6f3fd5312ddf1f3e086ecbf1d4f6c77b480d367b1b",
    ),
    "hyperprior-center": (lambda: _hyperprior_unprotected(GuardMode.CENTER),
        "68fe3272219a16c1bfbd279e93466a05c0078af30532cabcd3e1004513138b2c",
    ),
}


@pytest.mark.parametrize("name", sorted(UNPROTECTED))
def test_unprotected_stream_bytes(name):
    build, digest = UNPROTECTED[name]
    stream = build()
    assert (stream.flag_count, stream.safeguard) == (0, b"")
    assert hashlib.sha256(container.write(stream)).hexdigest() == digest

"""Pinned container bytes of small fixed-seed streams.

The v2 wire format is a promise: a faster coder must emit exactly these
bytes.  Each case is encoded, written, and compared by SHA-256 against the
digest recorded when the format last changed (v2: the safeguard section
became Rice-coded gaps between risky flags).  The digest of each case's
``main`` section was recorded with the v1 format and did not move with v2.
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


# name: (build, SHA-256 of the container, SHA-256 of its main section)
GOLDEN = {
    "octree-center": (lambda: _octree(GuardMode.CENTER),
        "90f31ac448d3f5c7097d04615b7c2d8bdb5897300f16552bde32b758af9c0557",
        "4f964bf18cda4736b00b0678e586f245cd39213c0097fd716105d9aa95da1bbd",
    ),
    "octree-full": (lambda: _octree(GuardMode.FULL),
        "ea4cac0aca46659cc32129eb33b5cffcf27f50a285d10b1760359db4a9b319b4",
        "a17f1b739e84b4f99ec3eb1a87bfe92ccccc5e77f5d5f3d2c519b471a1229655",
    ),
    "hyperprior-center": (_hyperprior,
        "dc5a2ea113106638029f795a4643d4289d142732971fcf5bf2e4984b3d8c276c",
        "c9be78233bcdcb4146f00d8d175b3a16b4f658173abc47cffb01e13efdbf5a75",
    ),
    "raw-full": (lambda: _raw(GuardMode.FULL),
        "fc1ac61dd38afc459dea55f2260a5de92d5ea59aec4a41ae3d82edb5460feb6e",
        "e471a22b937b0fdd9cee3cffcca47e2628d0966dfd560b4850b1ee7d48746680",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stream_bytes_match_v1(name):
    # the name predates v2 and is kept so the test ids stay stable; the
    # digests are those of the v2 format
    build, digest, _ = GOLDEN[name]
    stream = build()
    assert stream.flag_count > 0 and any(stream.safeguard)
    assert hashlib.sha256(container.write(stream)).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_main_section_kept_its_v1_bytes(name):
    build, _, main_digest = GOLDEN[name]
    assert hashlib.sha256(build().main).hexdigest() == main_digest


# Unprotected streams: no flags, so the header carries p0_q16 32768, a flag
# count of 0 and an empty safeguard section.  Digests of the container.
UNPROTECTED = {
    "octree-center": (lambda: _octree_unprotected(GuardMode.CENTER),
        "6106dd084a1b39c329c74112b0065a39736bb1188f01d19db483d73ee01e2e6b",
    ),
    "octree-full": (lambda: _octree_unprotected(GuardMode.FULL),
        "db258c98694bdb43d76e7d3f584f3d054500ab4913720b7caec8a8b6360a15aa",
    ),
    "hyperprior-center": (lambda: _hyperprior_unprotected(GuardMode.CENTER),
        "24acf8d7848a3b15859f615350a2e0ad26cd8393065045c0f7c64fa5571aa0d5",
    ),
}


@pytest.mark.parametrize("name", sorted(UNPROTECTED))
def test_unprotected_stream_bytes(name):
    build, digest = UNPROTECTED[name]
    stream = build()
    assert (stream.flag_count, stream.p0_q16, stream.safeguard) == (0, 32768, b"")
    assert hashlib.sha256(container.write(stream)).hexdigest() == digest

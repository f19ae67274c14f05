"""Pinned container bytes of small fixed-seed streams.

The v7 wire format is a promise: a faster coder must emit exactly these
bytes.  Each case is encoded, written, and compared by SHA-256 against the
digest recorded when the format last changed (v7: the hyperprior's rounded
z is range-coded ahead of y in ``main`` and its header lost the raw z
doubles, so its streams changed and every container its version byte).
The digest of each octree and raw case's ``main`` section was recorded
with the v1 format, and that of its safeguard section with v2 (which made
it Rice-coded gaps between risky flags); neither moved with v3 to v7,
which changed only the header of those payloads.  The hyperprior's
``main`` and safeguard digests were recorded with v7: the synthesis runs
on the rounded z, so its guarded log scales moved too.
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
        "d01ab0296b033ed049ddd5006276416d622af81c4429651e2efced1928f984be",
        "4f964bf18cda4736b00b0678e586f245cd39213c0097fd716105d9aa95da1bbd",
        "632450b055558aeadf3073af31e5e34d210fc68c4e340b55b5b070130d21f8c8",
    ),
    "octree-full": (lambda: _octree(GuardMode.FULL),
        "8ba71b39482a9c4550ec87e421d995ab30e63b20ac681f8f0af310129fcb6e3b",
        "a17f1b739e84b4f99ec3eb1a87bfe92ccccc5e77f5d5f3d2c519b471a1229655",
        "8653d21a328e0b75f37535a0f548e7a533e5ca564160507fdf3935afbf92bc90",
    ),
    "hyperprior-center": (_hyperprior,
        "b81738e5d2c548b6afd7ae6d61105aec9dc488e7f37576db6e4cd3871ad10eed",
        "1e5e9407545534e443477fa63a198a4f93a64137c6e1fe7c2e8893773dc97d0c",
        "34706b51b29170233f1390910211e15961b0b4ffe02ce14a73a5b7346a64c978",
    ),
    "raw-full": (lambda: _raw(GuardMode.FULL),
        "e2df718917642e590a7e6fcfb746b147fb941a9b51456b0645e4a868a09246fd",
        "e471a22b937b0fdd9cee3cffcca47e2628d0966dfd560b4850b1ee7d48746680",
        "0a058eec8a2f0a07144a8624459eed522ed1177f57abba9e7397f869ae22f6e7",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stream_bytes_match_v1(name):
    # the name predates v2 to v7 and is kept so the test ids stay stable;
    # the digests are those of the v7 format
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
        "60e150a721bf65f98aacb4c1da42d3fce90f1b5331cc09b418f25efdb29afa55",
    ),
    "octree-full": (lambda: _octree_unprotected(GuardMode.FULL),
        "dd631c6323e8a4f8dfb6bf070dd4279d86504fa6296661cc119d79c4dce8941e",
    ),
    "hyperprior-center": (lambda: _hyperprior_unprotected(GuardMode.CENTER),
        "5a14263b8f224fd9e12324e29622029d1e46c231132172a60c310116da2fa6e9",
    ),
}


@pytest.mark.parametrize("name", sorted(UNPROTECTED))
def test_unprotected_stream_bytes(name):
    build, digest = UNPROTECTED[name]
    stream = build()
    assert (stream.flag_count, stream.safeguard) == (0, b"")
    assert hashlib.sha256(container.write(stream)).hexdigest() == digest

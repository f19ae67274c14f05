"""Pinned container bytes of small fixed-seed streams.

The v6 wire format is a promise: a faster coder must emit exactly these
bytes.  Each case is encoded, written, and compared by SHA-256 against the
digest recorded when the format last changed (v6: the hyperprior guards
log sigma on a uniform grid, not sigma on a boundary table, so its streams
changed meaning and every container its version byte).  The digest of each
octree and raw case's ``main`` section was recorded with the v1 format,
and that of its safeguard section with v2 (which made it Rice-coded gaps
between risky flags); neither moved with v3 to v6, which changed only the
header of those payloads.  The hyperprior's ``main`` and safeguard digests
were recorded with v6.
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
        "ffb86ecd8acd2a80eb2eac53c1e2a9eb11e21df64918dc9a8a72f2f918a31486",
        "4f964bf18cda4736b00b0678e586f245cd39213c0097fd716105d9aa95da1bbd",
        "632450b055558aeadf3073af31e5e34d210fc68c4e340b55b5b070130d21f8c8",
    ),
    "octree-full": (lambda: _octree(GuardMode.FULL),
        "ef1591bbf9698f6f115e505fbd52fba588e01258573cd683bf9a3daf2068dece",
        "a17f1b739e84b4f99ec3eb1a87bfe92ccccc5e77f5d5f3d2c519b471a1229655",
        "8653d21a328e0b75f37535a0f548e7a533e5ca564160507fdf3935afbf92bc90",
    ),
    "hyperprior-center": (_hyperprior,
        "c1c171de2cbb81c01fa259b5c5da0dcf1999ee914790e15fc64ae6c73920edb3",
        "2be133ecdeb5578394a3eed6329c477702d32e2bbb1bf0fc005cd813bfdf684e",
        "3a487e4db7aae9077a0132aa56edd4f92c7f0df2104b6451c73c687a89dcae73",
    ),
    "raw-full": (lambda: _raw(GuardMode.FULL),
        "c0cee8531d4b636954ee8ad41780644369879dce01679fc3358f60be8f7b849b",
        "e471a22b937b0fdd9cee3cffcca47e2628d0966dfd560b4850b1ee7d48746680",
        "0a058eec8a2f0a07144a8624459eed522ed1177f57abba9e7397f869ae22f6e7",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stream_bytes_match_v1(name):
    # the name predates v2 to v6 and is kept so the test ids stay stable;
    # the digests are those of the v6 format
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
        "2628713de7f40ee1abbc142c3a48942a3ed24c04e410cc47e50de21bbe67caaf",
    ),
    "octree-full": (lambda: _octree_unprotected(GuardMode.FULL),
        "000220e1e27162d38e8334cc2e46e05528d4441a87ed3c0a3c86d54bf1f4b09d",
    ),
    "hyperprior-center": (lambda: _hyperprior_unprotected(GuardMode.CENTER),
        "0d361537381265f5fadfdeb70083567a658ed36b11f71a3577e55b88c5bc49de",
    ),
}


@pytest.mark.parametrize("name", sorted(UNPROTECTED))
def test_unprotected_stream_bytes(name):
    build, digest = UNPROTECTED[name]
    stream = build()
    assert (stream.flag_count, stream.safeguard) == (0, b"")
    assert hashlib.sha256(container.write(stream)).hexdigest() == digest

"""Pinned container bytes of small fixed-seed streams.

The v8 wire format is a promise: a faster coder must emit exactly these
bytes.  Each case is encoded, written, and compared by SHA-256 against the
digest recorded when the format last changed (v8: the octree guards one
probability per parent and codes each parent's children from it, so its
streams changed and every container its version byte).  The digest of each
raw case's ``main`` section was recorded with the v1 format, and that of
its safeguard section with v2 (which made it Rice-coded gaps between risky
flags); neither moved with v3 to v8, which changed only the header of that
payload.  The hyperprior's ``main`` and safeguard digests were recorded
with v7 (its rounded z is range-coded ahead of y in ``main``, and the
synthesis runs on it) and did not move with v8.  The octree's ``main`` and
safeguard digests were recorded with v8.
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
        "85b99eedd6b0b3a11a64b28aad4a875513a6c3c112f185e804bdd5a195e2e95e",
        "75e4bd5fd860ccee2c8db27b81a9e17c7b63337d9f08a5c34229177aab0cd4d5",
        "ac037c3171fa6f7fd49843acc22d7b288fc083e173d27cc4e11870feb9b61516",
    ),
    "octree-full": (lambda: _octree(GuardMode.FULL),
        "11f9ec301618577a0249e6d1758064a5a92080adfa500c68915114ab12c8a89b",
        "5303465544dff3c19bd35d34f1e70ef6b9caaa009d80006b323b45a0767dc699",
        "6ebcc513737922b4923301d075924853dbb9499354f4eccfd885ba361e0fa270",
    ),
    "hyperprior-center": (_hyperprior,
        "ff1a66ec9acd214bf2cde6d9e9eaf9dfc157fe27f1c40149a2e28e96f863d58b",
        "1e5e9407545534e443477fa63a198a4f93a64137c6e1fe7c2e8893773dc97d0c",
        "34706b51b29170233f1390910211e15961b0b4ffe02ce14a73a5b7346a64c978",
    ),
    "raw-full": (lambda: _raw(GuardMode.FULL),
        "6e653aa3bcdc5cf9f74d7643bac5b025852fab9cb4b6149f722dafcc9e2c61db",
        "e471a22b937b0fdd9cee3cffcca47e2628d0966dfd560b4850b1ee7d48746680",
        "0a058eec8a2f0a07144a8624459eed522ed1177f57abba9e7397f869ae22f6e7",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stream_bytes_match_v1(name):
    # the name predates v2 to v8 and is kept so the test ids stay stable;
    # the digests are those of the v8 format
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
        "7527a0af751a43e65a65e65d631f005a334f16fe01b21d90fa0afc7176374073",
    ),
    "octree-full": (lambda: _octree_unprotected(GuardMode.FULL),
        "bac5b27d9a27e9c0b3a1e55a1820f7a2deb7a19e0f19db8340a74948b81362b2",
    ),
    "hyperprior-center": (lambda: _hyperprior_unprotected(GuardMode.CENTER),
        "68d81d5d0c3b98b2cd585bdbb263dc0a1a2a94a8c68213e0eb3cc90d196a4ede",
    ),
}


@pytest.mark.parametrize("name", sorted(UNPROTECTED))
def test_unprotected_stream_bytes(name):
    build, digest = UNPROTECTED[name]
    stream = build()
    assert (stream.flag_count, stream.safeguard) == (0, b"")
    assert hashlib.sha256(container.write(stream)).hexdigest() == digest

"""Pinned container bytes of small fixed-seed streams.

The v1 wire format is a promise: a faster coder must emit exactly these
bytes.  Each case is encoded, written, and compared by SHA-256 against the
digest recorded before the coding loops were last rewritten.
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


GOLDEN = {
    "octree-center": (lambda: _octree(GuardMode.CENTER),
        "914162d6b69bc7cd7a9c9bb1c54aeb55eac1837388f773f1ef87689c8ae8bba5",
    ),
    "octree-full": (lambda: _octree(GuardMode.FULL),
        "518e791a6cfeac68c8400b970d06ba7831b668696de6a164c4d028252a16b623",
    ),
    "hyperprior-center": (_hyperprior,
        "bf19fe493b2b469f066bfab1eb4a3d07d252996b5915591f7fa779275951261b",
    ),
    "raw-full": (lambda: _raw(GuardMode.FULL),
        "a87aab8076a24c30394d960f397b41194f1d92424ddee3515faadd64d870f56c",
    ),
    "raw-left": (lambda: _raw(GuardMode.LEFT),
        "fd31b1d4c688a087e7dbc873ac314ec94c92c036312fff4332edd1f1c29ea05e",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stream_bytes_match_v1(name):
    build, digest = GOLDEN[name]
    stream = build()
    assert stream.flag_count > 0 and any(stream.safeguard)
    assert hashlib.sha256(container.write(stream)).hexdigest() == digest

"""Payload decoders on streams that parse but cannot be decoded."""

import dataclasses

import numpy as np
import pytest

from reproguard import GuardConfig, GuardMode, QuantGrid, hyperprior, octree, raw_values
from reproguard.errors import FieldValueError, MalformedStreamError, TruncatedStreamError


def _octree():
    cloud = octree.synth_cloud("dense", 5, 300, seed=1)
    stream = octree.encode(cloud, octree.make_pc_config(1e-4, 250))
    return stream, lambda s: octree.decode(s)


def _hyperprior():
    lat = hyperprior.synth_latents(8, 8, 4, seed=1)
    stream = hyperprior.encode(lat, hyperprior.make_image_config(1e-4))
    return stream, lambda s: hyperprior.decode(s)


def _raw():
    cfg = GuardConfig(grid=QuantGrid.uniform(0.01), epsilon=1e-4, mode=GuardMode.FULL)
    values = np.random.default_rng(1).normal(0.0, 1.0, 500)
    stream = raw_values.encode_values(values, cfg)
    return stream, lambda s: raw_values.decode_values(s, values)


PAYLOADS = {"octree": _octree, "hyperprior": _hyperprior, "raw": _raw}


@pytest.mark.parametrize("payload", sorted(PAYLOADS))
def test_epsilon_breaking_the_margin_is_a_malformed_stream(payload):
    stream, decode = PAYLOADS[payload]()
    decode(stream)  # the untouched stream decodes
    # every grid here has bins narrower than 4 * 10
    bad = dataclasses.replace(stream, epsilon=10.0)
    with pytest.raises(MalformedStreamError) as info:
        decode(bad)
    assert isinstance(info.value, FieldValueError)


@pytest.mark.parametrize("payload", ["octree", "hyperprior"])
def test_cut_main_section_is_truncated(payload):
    stream, decode = PAYLOADS[payload]()
    with pytest.raises(TruncatedStreamError):
        decode(dataclasses.replace(stream, main=stream.main[:-1]))

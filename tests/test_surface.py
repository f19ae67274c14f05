"""The public surface: the package exports exactly the listed names, every
exported name resolves, names deleted from the surface stay deleted, and
README's library quickstart runs as written."""

import ast
import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import reproguard

README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = sorted(Path(reproguard.__file__).parent.glob("*.py"))
MODULES = sorted(m.name for m in pkgutil.iter_modules(reproguard.__path__))


# Changing the surface means changing this list on purpose.
PACKAGE_ALL = [
    "BadMagicError", "ConfigError", "FieldValueError", "FlagReader", "GuardConfig",
    "GuardMode", "GuardedStream", "HyperpriorHeader",
    "InvalidInputError", "MalformedStreamError",
    "OctreeHeader", "PRESETS", "PayloadKind", "Perturbation", "PlyParseError",
    "QuantGrid", "RangeDecoder", "RangeEncoder", "RawHeader", "ReproGuardError",
    "TrailingDataError", "TruncatedStreamError",
    "UnsupportedVersionError", "__version__", "dequantize_array", "encode_flags",
    "gaussian_cdf_table", "guard_decode_array", "guard_encode_array",
    "hyperprior", "octree", "preset", "quantize_array", "raw_values", "read",
    "read_file", "validate", "write", "write_file",
]

# Scalar twins of the batch forms, helpers nothing but tests called,
# boundary operators and their error that only the guard needed, a second
# derivation of a header's z-blob length, the one-sided guard modes, the
# encoder's carry into bytes already written, the header's second copies
# of the flag rate and the hyperprior's table id, with the pair of arrays
# that carried the rate, a uniform grid's offset, the grid descriptors
# with the one-table registry they named tables in (the payload kind fixes
# the grid), the boundary-table grid (every grid is uniform), the guard's
# second name for the grid's domain, the sweep's SVG plot of its CSV, and
# the hyperprior header's raw z doubles with the error only their length
# raised (the rounded z is coded in main), the guard decode's private core
# behind a dense-flag adapter (the decode takes risky positions), a stream
# builder that only renamed GuardedStream's fields, the mode parser (a
# mode is a GuardMode), and the octree's callback level walk with its
# top-down child step, per-group term builder and separate bottom-up
# occupancy pass (each side has one level loop), the
# guard's boundary kernel, boundary value and domain-edge helpers with the
# hyperprior's first-bin helper (``quantizer._nearest`` gives all the
# guard needs, and a stream's tables start at its own lowest bin), the
# latent-dims check that only the container's own header checks ran, and
# the four range-coding loops, each of which had one caller once the scalar
# coder methods were gone (each loop now lives in the method that runs it),
# a second way from a stream to its guard configuration (``open_stream``
# is the one way), two CLI stand-ins: a ``Perturbation`` builder that
# repeated the class's own checks and no-op cases, and the sweep's q-column
# helper behind a ``k = None`` sentinel (each payload lists its grids once),
# the octree's record of a group's model terms (a group is its octants and
# one array of logits), the two hash wrappers only README and tests
# called (``unit_draws`` and ``unit_hash_inplace`` give every draw), and
# the octree's per-child model: the coded-sibling term, the octant groups
# and their budget, and the group logits and per-child probabilities
# (``_parent_probabilities`` gives one value per parent).
DELETED = [
    "entropy.RangeEncoder.encode_bit",
    "entropy.RangeEncoder.encode_symbol",
    "entropy.RangeDecoder.decode_bit",
    "entropy.RangeDecoder.decode_symbol",
    "entropy.prob_to_p16",
    "entropy.decode_flags",
    "entropy.CdfTable",
    "quantizer.quantize",
    "quantizer.dequantize",
    "quantizer.register_table",
    "quantizer.registered_tables",
    "quantizer.QuantGrid.from_boundaries",
    "quantizer.QuantGrid.domain_bin_range",
    "hyperprior.ScaleField",
    "safeguard.FlagStream.p0",
    "platform_sim.Perturbation.none",
    "platform_sim.Perturbation.reset",
    "platform_sim.splitmix64",
    "container.grid_from_desc",
    "quantizer.boundary_value_array",
    "quantizer.gap_below_array",
    "quantizer.gap_above_array",
    "errors.GuardError",
    "container.HyperpriorHeader.z_count",
    "safeguard.GuardMode.LEFT",
    "safeguard.GuardMode.RIGHT",
    "entropy._carry",
    "safeguard.FlagStream",
    "container.GuardedStream.p0_q16",
    "container.HyperpriorHeader.scale_table_id",
    "quantizer.QuantGrid.s",
    "container.UniformDesc.s",
    "container.UniformDesc",
    "container.TableDesc",
    "container.GuardedStream.grid_desc",
    "container.grid_desc_for",
    "quantizer.get_table",
    "quantizer.SCALE_TABLE_ID",
    "hyperprior.SCALE_TABLE_ID",
    "quantizer.QuantGrid.boundaries",
    "quantizer.QuantGrid._b",
    "quantizer.QuantGrid.min_gap",
    "quantizer._half_bins",
    "safeguard.GuardConfig.edge_clip",
    "cli._write_svg",
    "container.HyperpriorHeader.z_blob",
    "container._z_len",
    "errors.LengthOverflowError",
    "safeguard._guard_decode",
    "container.guarded_stream",
    "safeguard.parse_mode",
    "octree._walk",
    "octree._children",
    "octree._occupancies",
    "octree._group_terms",
    "quantizer._kernel",
    "quantizer._boundary",
    "quantizer._inside",
    "quantizer._first_bin",
    "container.check_latent_dims",
    "entropy._encode_bits",
    "entropy._encode_ranges",
    "entropy._decode_bits",
    "entropy._decode_symbols",
    "container.config_for_stream",
    "cli._perturbation",
    "cli._q_column",
    "octree._GroupTerms",
    "platform_sim.splitmix64_array",
    "platform_sim.unit_from_u64",
    "octree._SIBLING_TERM",
    "octree._GROUP_BUDGET",
    "octree._groups",
    "octree._logits",
    "octree._probabilities",
]


def test_package_all_is_pinned():
    assert sorted(reproguard.__all__) == PACKAGE_ALL


@pytest.mark.parametrize("path", DELETED)
def test_deleted_name_stays_deleted(path):
    module, *attrs = path.split(".")
    owner = importlib.import_module(f"reproguard.{module}")
    for attr in attrs[:-1]:
        owner = getattr(owner, attr, None)  # a deleted owner took the name along
    assert not hasattr(owner, attrs[-1])
    if dataclasses.is_dataclass(owner):  # a field without a default
        assert attrs[-1] not in {f.name for f in dataclasses.fields(owner)}
    assert attrs[-1] not in reproguard.__all__
    assert attrs[-1] not in getattr(owner, "__all__", ())


@pytest.mark.parametrize("module", ["octree", "hyperprior", "raw_values"])
def test_payloads_bind_the_public_guard_and_flag_coder(module):
    # a per-layer trace wraps these names in each payload module, so each
    # must be the public function itself, not a private alias of its core
    payload = importlib.import_module(f"reproguard.{module}")
    assert payload.guard_encode_array is reproguard.safeguard.guard_encode_array
    assert payload.guard_decode_array is reproguard.safeguard.guard_decode_array
    assert payload.encode_flags is reproguard.entropy.encode_flags


# numpy >= 2.3's ``np.unique`` hashes before it sorts, which on the Morton
# codes a voxel cloud is deduped from is 11x slower than one sort and a
# run-start mask (``octree._run_starts``), and numpy < 2.3 sorts anyway
@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_module_calls_np_unique(path):
    tree = ast.parse(path.read_text(), str(path))
    calls = [
        node.lineno for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "unique"
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))
        or (isinstance(node, ast.ImportFrom) and node.module == "numpy"
            and any(alias.name == "unique" for alias in node.names))
    ]
    assert calls == []


def test_package_exports_resolve():
    missing = [n for n in reproguard.__all__ if not hasattr(reproguard, n)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"reproguard.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_readme_names_every_package_export():
    # the package's exports and every module's
    names = set(reproguard.__all__) - {"__version__"}
    for name in MODULES:
        module = importlib.import_module(f"reproguard.{name}")
        names.update(getattr(module, "__all__", ()))
    text = README.read_text()
    missing = sorted(n for n in names if not re.search(rf"\b{re.escape(n)}\b", text))
    assert missing == []


def test_readme_quickstart_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})

"""Bit-exact reproducibility safeguarding for learned compression codecs."""

from .errors import (
    BadMagicError,
    ConfigError,
    FieldValueError,
    InvalidInputError,
    MalformedStreamError,
    PlyParseError,
    ReproGuardError,
    TrailingDataError,
    TruncatedStreamError,
    UnsupportedVersionError,
)
from .quantizer import (
    QuantGrid,
    dequantize_array,
    quantize_array,
    validate,
)
from .safeguard import (
    GuardConfig,
    GuardMode,
    guard_decode_array,
    guard_encode_array,
)
from .entropy import (
    FlagReader,
    RangeDecoder,
    RangeEncoder,
    encode_flags,
    gaussian_cdf_table,
)
from .container import (
    GuardedStream,
    HyperpriorHeader,
    OctreeHeader,
    PayloadKind,
    RawHeader,
    read,
    read_file,
    write,
    write_file,
)
from .platform_sim import PRESETS, Perturbation, preset
from . import hyperprior, octree, raw_values

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ReproGuardError",
    "ConfigError",
    "InvalidInputError",
    "MalformedStreamError",
    "BadMagicError",
    "UnsupportedVersionError",
    "TruncatedStreamError",
    "FieldValueError",
    "TrailingDataError",
    "PlyParseError",
    "QuantGrid",
    "validate",
    "quantize_array",
    "dequantize_array",
    "GuardMode",
    "GuardConfig",
    "guard_encode_array",
    "guard_decode_array",
    "RangeEncoder",
    "RangeDecoder",
    "FlagReader",
    "encode_flags",
    "gaussian_cdf_table",
    "GuardedStream",
    "PayloadKind",
    "OctreeHeader",
    "HyperpriorHeader",
    "RawHeader",
    "read",
    "write",
    "read_file",
    "write_file",
    "Perturbation",
    "preset",
    "PRESETS",
    "octree",
    "hyperprior",
    "raw_values",
]

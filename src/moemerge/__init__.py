"""moemerge: checkpoint surgery for Mixture-of-Experts safetensors models.

Builds merged child checkpoints from architecture-identical parents by
per-tensor weighted combination, gated by tensor-category subsets and a
normalized-Frobenius-difference threshold, plus the diff-analysis tooling
used to choose those gates.
"""

from ._version import __version__
from .analysis import (
    HeatmapTable,
    HistogramSpec,
    ReasoningStats,
    emit_heatmap,
    emit_histogram,
    reasoning_frequency,
)
from .dtypes import DType
from .errors import (
    CompatibilityError,
    FixtureError,
    FormatError,
    MergeError,
    MoemergeError,
    RecipeError,
    UnsupportedDTypeError,
)
from .fixtures import FixtureSpec, PerturbationSpec, generate_base, generate_variant
from .merge_core import (
    DiffRecord,
    MergeConfig,
    MergeDecision,
    MergePlan,
    MergeReport,
    compute_diffs,
    execute_merge,
    load_diff_cache,
    plan_merge,
    save_diff_cache,
    threshold_sweep,
    validate_compatibility,
)
from .recipe import Recipe, load_recipe
from .safetensors_io import (
    CheckpointIndex,
    OutputPolicy,
    TensorInfo,
    open_checkpoint,
    read_header,
    read_tensor_raw,
    validate_checkpoint,
    write_checkpoint,
)
from .taxonomy import (
    DEFAULT_SCHEME,
    EXPERTS_ONLY_SUBSET,
    FULL_SUBSET,
    NamingScheme,
    SubsetMode,
    SubsetSpec,
    TensorCategory,
    TensorGroup,
    census,
    classify,
    in_subset,
)
from .tensor_math import decode, encode, linear_combination, normalized_frobenius_diff

__all__ = [
    "__version__",
    "CheckpointIndex",
    "CompatibilityError",
    "DEFAULT_SCHEME",
    "DType",
    "DiffRecord",
    "EXPERTS_ONLY_SUBSET",
    "FULL_SUBSET",
    "FixtureError",
    "FixtureSpec",
    "FormatError",
    "HeatmapTable",
    "HistogramSpec",
    "MergeConfig",
    "MergeDecision",
    "MergeError",
    "MergePlan",
    "MergeReport",
    "MoemergeError",
    "NamingScheme",
    "OutputPolicy",
    "PerturbationSpec",
    "ReasoningStats",
    "Recipe",
    "RecipeError",
    "SubsetMode",
    "SubsetSpec",
    "TensorCategory",
    "TensorGroup",
    "TensorInfo",
    "UnsupportedDTypeError",
    "census",
    "classify",
    "compute_diffs",
    "decode",
    "emit_heatmap",
    "emit_histogram",
    "encode",
    "execute_merge",
    "generate_base",
    "generate_variant",
    "in_subset",
    "linear_combination",
    "load_diff_cache",
    "load_recipe",
    "normalized_frobenius_diff",
    "open_checkpoint",
    "plan_merge",
    "read_header",
    "read_tensor_raw",
    "reasoning_frequency",
    "save_diff_cache",
    "threshold_sweep",
    "validate_checkpoint",
    "validate_compatibility",
    "write_checkpoint",
]

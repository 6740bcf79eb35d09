"""moemerge: checkpoint surgery for Mixture-of-Experts safetensors models.

Builds merged child checkpoints from architecture-identical parents by
per-tensor weighted combination, gated by tensor-category subsets and a
normalized-Frobenius-difference threshold, plus the diff-analysis tooling
used to choose those gates.

Public names load their module on first access (PEP 562), so importing
the package does not import numpy; only ``merge_core``, ``tensor_math``
and ``fixtures`` do.
"""

import importlib

from ._version import __version__

# The module that defines each public name.
_EXPORTS = {
    "analysis": (
        "HeatmapTable", "HistogramSpec", "ReasoningStats",
        "emit_heatmap", "emit_histogram", "reasoning_frequency",
    ),
    "dtypes": ("DType",),
    "errors": (
        "CompatibilityError", "FixtureError", "FormatError", "MergeError",
        "MoemergeError", "RecipeError", "UnsupportedDTypeError",
    ),
    "fixtures": ("FixtureSpec", "PerturbationSpec", "generate_base", "generate_variant"),
    "merge_core": ("compute_diffs", "execute_merge", "validate_compatibility"),
    "planning": (
        "DiffRecord", "MergeConfig", "MergeDecision", "MergePlan", "MergeReport",
        "load_diff_cache", "load_plan", "load_recipe", "plan_merge", "save_diff_cache",
        "threshold_sweep",
    ),
    "safetensors_io": (
        "CheckpointIndex", "TensorInfo", "open_checkpoint", "read_header",
        "read_tensor_raw", "validate_checkpoint", "write_checkpoint",
    ),
    "taxonomy": (
        "DEFAULT_SCHEME", "EXPERTS_ONLY_SUBSET", "FULL_SUBSET", "NamingScheme",
        "SubsetSpec", "TensorCategory", "TensorGroup", "census", "classify", "in_subset",
    ),
    "tensor_math": ("decode", "encode", "linear_combination", "normalized_frobenius_diff"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

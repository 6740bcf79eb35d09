"""Merge planning without weights: configs, diff caches, plans and sweeps.

A recipe is one JSON document that pins everything a merge needs, so the
file itself is the reproducibility record:

.. code-block:: json

    {
      "models": ["base_ckpt", "other_ckpt"],
      "lambdas": [0.5, 0.5],
      "delta": 0.0,
      "subset": "full",
      "scheme": null,
      "convex_required": true
    }

``MergeConfig.from_json_obj`` parses it, and a plan's config echo, straight
into the one config type; ``MergeConfig.to_json_obj`` writes the echo.
There is no output setting: a child always takes its base's layout.

Everything here works from a diff cache or a plan and never reads a
tensor, so ``plan``, ``sweep`` and ``report`` run without importing
numpy. The per-tensor gate lives here too: a tensor merges iff it belongs
to the configured subset AND its maximum normalized Frobenius difference
against the other parents strictly exceeds the threshold; otherwise the
base model's raw bytes are copied. ``plan_merge``, ``threshold_sweep`` and
the fused pass of ``merge_core.execute_merge`` all decide through
``_decide`` and ``_copy_reason``, classifying each name with the config's
scheme; a diff cache supplies only the numbers.
"""

from __future__ import annotations

import json
import math
import numbers
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from ._version import __version__
from .errors import MergeError, RecipeError
from .taxonomy import (
    FULL_SUBSET,
    DEFAULT_SCHEME,
    NamingScheme,
    SubsetSpec,
    TensorCategory,
    TensorGroup,
    classify,
    in_subset,
    load_json_file,
    resolve_scheme,
    subset_from_json_obj,
    subset_to_json_obj,
)

CONVEXITY_TOL = 1e-12

ACTION_MERGE = "merge"
ACTION_COPY_BASE = "copy_base"
REASON_NOT_IN_SUBSET = "not_in_subset"
REASON_BELOW_THRESHOLD = "below_threshold"

_CONFIG_KEYS = {"models", "lambdas", "delta", "subset", "scheme", "convex_required"}


@dataclass(frozen=True)
class MergeConfig:
    """Everything that determines a merge: parents, weights and gates.

    ``models[0]`` is the base model; every tensor not selected for merging
    keeps its bytes, and the child takes its layout. A config is canonical
    from the start: model paths are normalized strings and real weights
    and thresholds are floats, so one built in code writes the same plan
    and shard metadata as its echo parses back to. ``validate`` is the one
    value check, whether the config came from a recipe, a plan's echo, CLI
    overrides or code.
    """

    models: tuple[str, ...]
    lambdas: tuple[float, ...]
    delta: float = 0.0
    subset: SubsetSpec = FULL_SUBSET
    scheme: NamingScheme = DEFAULT_SCHEME
    convex_required: bool = True

    def __post_init__(self) -> None:
        # Ill-typed values stay as given, for validate() to refuse.
        if isinstance(self.models, (list, tuple)):
            models = tuple(
                str(Path(m)) if isinstance(m, (str, os.PathLike)) else m for m in self.models
            )
            object.__setattr__(self, "models", models)
        if isinstance(self.lambdas, (list, tuple)):
            object.__setattr__(self, "lambdas", tuple(_as_float(x) for x in self.lambdas))
        object.__setattr__(self, "delta", _as_float(self.delta))

    def validate(self) -> None:
        if not isinstance(self.models, tuple) or not all(isinstance(m, str) for m in self.models):
            raise RecipeError(f"models must be a list of paths, got {self.models!r}")
        if len(self.models) < 1:
            raise RecipeError("at least one model is required")
        _check_lambdas(self)
        _check_delta(self.delta)

    @classmethod
    def from_json_obj(
        cls, obj: object, base_dir: str | Path = ".", what: str = "recipe"
    ) -> "MergeConfig":
        """Parse and validate a recipe document or a plan's config echo.

        Unknown keys anywhere are an error: a typo must never silently
        change a merge. Relative model and scheme paths resolve against
        ``base_dir`` (a recipe file's directory; an echo's paths are
        already resolved). ``subset`` is ``"full"``, ``"experts-only"`` or a
        custom object (see taxonomy); ``scheme`` is ``null`` (the built-in
        DeepSeek-V3 rules), a path to a rule file or an inline rule list.
        ``what`` names the document in error messages.
        """
        if not isinstance(obj, dict):
            raise RecipeError(f"{what} must be a JSON object")
        unknown = set(obj) - _CONFIG_KEYS
        if unknown:
            raise RecipeError(f"unknown {what} keys {sorted(unknown)}")
        for required in ("models", "lambdas"):
            if required not in obj:
                raise RecipeError(f"{what} is missing the {required!r} key")
        models = obj["models"]
        if (
            not isinstance(models, list)
            or not models
            or any(not isinstance(m, str) for m in models)
        ):
            raise RecipeError("'models' must be a non-empty list of paths")
        lambdas = obj["lambdas"]
        if not isinstance(lambdas, list) or any(
            not isinstance(x, (int, float)) or isinstance(x, bool) for x in lambdas
        ):
            raise RecipeError("'lambdas' must be a list of numbers")
        delta = obj.get("delta", 0.0)
        if not isinstance(delta, (int, float)) or isinstance(delta, bool):
            raise RecipeError("'delta' must be a number")
        convex = obj.get("convex_required", True)
        if not isinstance(convex, bool):
            raise RecipeError("'convex_required' must be a boolean")
        scheme_obj = obj.get("scheme")
        if scheme_obj is not None and not isinstance(scheme_obj, (str, list)):
            raise RecipeError("'scheme' must be null, a path string, or a rule list")
        base_dir = Path(base_dir)
        config = cls(
            models=tuple(base_dir / m for m in models),  # an absolute m stays as it is
            lambdas=tuple(_float(x, "lambdas") for x in lambdas),
            delta=_float(delta, "delta"),
            subset=subset_from_json_obj(obj.get("subset", "full")),
            scheme=resolve_scheme(scheme_obj, base_dir),
            convex_required=convex,
        )
        config.validate()
        return config

    def to_json_obj(self) -> dict:
        return {
            "models": list(self.models),
            "lambdas": list(self.lambdas),
            "delta": self.delta,
            "subset": subset_to_json_obj(self.subset),
            "scheme": self.scheme.to_json_obj(),
            "convex_required": self.convex_required,
        }


def _is_real(x: object) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _as_float(x: object) -> object:
    """A real number as a float; anything else, or an integer too large
    for a float, as it is."""
    if _is_real(x):
        try:
            return float(x)
        except OverflowError:
            pass
    return x


def _float(x: int | float, key: str) -> float:
    """A JSON number as a float; RecipeError for an integer too large for one."""
    try:
        return float(x)
    except OverflowError:
        raise RecipeError(f"{key!r} holds a number too large for a float") from None


def _check_delta(delta: object) -> None:
    """The one check on a threshold: a recipe's delta or a sweep's."""
    # A real delta is a float by now, unless it is too large for one.
    if not isinstance(delta, float) or not delta >= 0:  # also refuses NaN
        raise RecipeError(f"delta must be a number >= 0, got {delta!r}")


def _check_lambdas(config: MergeConfig) -> None:
    """The one check on the weight vector.

    One finite number per model; non-negative and summing to 1 when the
    config requires a convex merge.
    """
    lambdas = config.lambdas
    if not isinstance(lambdas, (list, tuple)) or not all(_is_real(lam) for lam in lambdas):
        raise RecipeError(f"lambdas must be a list of numbers, got {lambdas!r}")
    try:
        finite = all(math.isfinite(lam) for lam in lambdas)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        # NaN passes both convexity comparisons below, so refuse it here.
        raise RecipeError(f"lambdas must be finite: {list(lambdas)}")
    if len(lambdas) != len(config.models):
        raise RecipeError(f"lambdas has {len(lambdas)} weights, expected {len(config.models)}")
    if not config.convex_required:
        return
    if any(lam < 0 for lam in lambdas):
        raise RecipeError(f"lambdas must be non-negative for a convex merge: {list(lambdas)}")
    total = sum(lambdas)
    if abs(total - 1.0) > CONVEXITY_TOL:
        raise RecipeError(
            f"lambdas must sum to 1 within {CONVEXITY_TOL} for a convex merge "
            f"(got {total!r}); set convex_required=false to allow this"
        )


_NONE = type(None)

# The keys of a diff record and of a plan decision, each with the exact JSON
# types its value may have, so a bool is no number; a list holds numbers.
_RECORD_FIELDS = {
    "name": (str,),
    "group": (str,),
    "layer": (int, _NONE),
    "expert": (int, _NONE),
    "projection": (str, _NONE),
    "max_diff": (int, float),
}
_DIFF_FIELDS = {**_RECORD_FIELDS, "per_model_diff": (list,)}
_DECISION_FIELDS = {
    **_RECORD_FIELDS,
    "action": (str,),
    "reason": (str, _NONE),
}


def _keys_error(obj: dict, keys, what: str) -> RecipeError:
    missing, unknown = sorted(keys - obj.keys()), sorted(obj.keys() - keys)
    return RecipeError(f"{what} has missing keys {missing} and unknown keys {unknown}")


def _check_entry(entry: object, fields: dict, kind: str, i: int) -> None:
    """Refuse entry ``i`` of a plan or diff cache unless it has exactly ``fields``."""
    if not isinstance(entry, dict):
        raise RecipeError(f"{kind} {i} must be a JSON object")
    if entry.keys() != fields.keys():
        raise _keys_error(entry, fields.keys(), f"{kind} {i}")
    for key, types in fields.items():
        value = entry[key]
        if type(value) not in types or (
            type(value) is list and not all(type(x) in (int, float) for x in value)
        ):
            raise RecipeError(f"{kind} {i} has an ill-typed {key!r}: {value!r}")


def _check_document(obj: object, kind: str, keys: set[str], entries: str) -> None:
    """Refuse a plan or diff cache whose top level has the wrong shape.

    A wrong ``version`` is a MergeError: the file may be well formed for
    another release.
    """
    if not isinstance(obj, dict):
        raise RecipeError(f"{kind} must be a JSON object")
    if obj.get("version") != 1:
        raise MergeError(f"unsupported {kind} version {obj.get('version')!r}")
    if obj.keys() != keys:
        raise _keys_error(obj, keys, kind)
    if not isinstance(obj["models"], list) or not all(isinstance(m, str) for m in obj["models"]):
        raise RecipeError(f"{kind} 'models' must be a list of header hashes")
    if not isinstance(obj[entries], list):
        raise RecipeError(f"{kind} {entries!r} must be a list")


@dataclass(frozen=True)
class DiffRecord:
    """Per-tensor normalized Frobenius differences against the base model."""

    name: str
    category: TensorCategory
    per_model_diff: tuple[float, ...]  # one entry per non-base model
    max_diff: float

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            **self.category.to_json_obj(),
            "per_model_diff": list(self.per_model_diff),
            "max_diff": self.max_diff,
        }


@dataclass(frozen=True)
class MergeDecision:
    name: str
    category: TensorCategory
    action: str  # ACTION_MERGE | ACTION_COPY_BASE
    max_diff: float
    reason: str | None = None  # set for copy decisions


@dataclass
class MergePlan:
    """The resolved per-tensor actions, bound to the input header hashes.

    ``config`` is the config the plan was made from; a plan file holds it
    as its config echo.
    """

    decisions: list[MergeDecision]
    model_fingerprints: list[str]
    config: MergeConfig

    def counts(self) -> dict:
        merged: dict[str, int] = {}
        copied: dict[str, int] = {}
        by_reason = {REASON_NOT_IN_SUBSET: 0, REASON_BELOW_THRESHOLD: 0}
        for d in self.decisions:
            key = d.category.group.value
            if d.action == ACTION_MERGE:
                merged[key] = merged.get(key, 0) + 1
            else:
                copied[key] = copied.get(key, 0) + 1
                by_reason[d.reason] += 1
        return {
            "tensors": len(self.decisions),
            "merged": sum(merged.values()),
            "copied": sum(copied.values()),
            "merged_by_group": dict(sorted(merged.items())),
            "copied_by_group": dict(sorted(copied.items())),
            "copied_by_reason": by_reason,
        }

    def to_json_text(self) -> str:
        """The plan file's bytes, as ``plan`` and every merge write them.

        Compact on purpose: any ``indent`` sends ``json`` to its
        pure-Python encoder, about twice as slow on a 3,143-tensor plan.
        """
        return json.dumps(self.to_json_obj()) + "\n"

    def to_json_obj(self) -> dict:
        return {
            "version": 1,
            "models": list(self.model_fingerprints),
            "config": self.config.to_json_obj(),
            "decisions": [
                {
                    "name": d.name,
                    **d.category.to_json_obj(),
                    "action": d.action,
                    "reason": d.reason,
                    "max_diff": d.max_diff,
                }
                for d in self.decisions
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: object) -> "MergePlan":
        """Parse a plan document; RecipeError unless every field has its shape.

        The config echo gets a recipe's checks. Decisions are checked
        against the config by ``execute_merge``.
        """
        _check_document(obj, "plan", {"version", "models", "config", "decisions"}, "decisions")
        if isinstance(obj["config"], dict) and "output" in obj["config"]:
            raise RecipeError(
                "plan config names the removed 'output' key: the plan was written "
                "by an older release; re-run `plan` to write it again"
            )
        config = MergeConfig.from_json_obj(obj["config"], what="plan config")
        decisions = []
        for i, e in enumerate(obj["decisions"]):
            _check_entry(e, _DECISION_FIELDS, "plan decision", i)
            decisions.append(MergeDecision(
                name=e["name"],
                category=TensorCategory.from_json_obj(e),
                action=e["action"],
                reason=e["reason"],
                max_diff=e["max_diff"],
            ))
        return cls(decisions=decisions, model_fingerprints=obj["models"], config=config)


@dataclass
class MergeReport:
    """What a merge alone knows; the rest of its JSON comes from its plan."""

    plan: MergePlan
    nonfinite: list[dict]
    elapsed_seconds: float
    output_files: list[str]

    @property
    def counts(self) -> dict:
        return self.plan.counts()

    def to_json_obj(self) -> dict:
        return {
            "tool_version": __version__,
            "counts": self.counts,
            "nonfinite_inputs": self.nonfinite,
            "elapsed_seconds": self.elapsed_seconds,
            "models": self.plan.model_fingerprints,
            "output_files": self.output_files,
            "config": self.plan.config.to_json_obj(),
        }


def save_diff_cache(
    records: Sequence[DiffRecord], path: str | Path, model_fingerprints: Sequence[str]
) -> None:
    obj = {
        "version": 1,
        "models": list(model_fingerprints),
        "records": [r.to_json_obj() for r in records],
    }
    Path(path).write_text(json.dumps(obj) + "\n", "utf-8")


def load_recipe(path: str | Path) -> MergeConfig:
    """Read a recipe file; its relative paths resolve against its directory."""
    return MergeConfig.from_json_obj(load_json_file(path, "recipe"), Path(path).parent)


def load_plan(path: str | Path) -> MergePlan:
    """Read a plan file; its config echo's paths are already resolved."""
    return MergePlan.from_json_obj(json.loads(Path(path).read_text("utf-8")))


def load_diff_cache(
    path: str | Path, expected_fingerprints: Sequence[str] | None = None
) -> tuple[list[DiffRecord], list[str]]:
    """Load a diff cache; verifies header hashes when expectations are given.

    RecipeError unless every field has its shape.
    """
    obj = json.loads(Path(path).read_text("utf-8"))
    _check_document(obj, "diff cache", {"version", "models", "records"}, "records")
    fingerprints = obj["models"]
    if expected_fingerprints is not None and fingerprints != list(expected_fingerprints):
        raise MergeError(
            f"diff cache {path} was computed from different checkpoints "
            "(header hashes do not match); recompute with `diff`"
        )
    records = []
    for i, e in enumerate(obj["records"]):
        _check_entry(e, _DIFF_FIELDS, "diff cache record", i)
        records.append(DiffRecord(
            name=e["name"],
            category=TensorCategory.from_json_obj(e),
            per_model_diff=tuple(e["per_model_diff"]),
            max_diff=e["max_diff"],
        ))
    return records, fingerprints


def plan_merge(
    config: MergeConfig,
    diffs: Sequence[DiffRecord],
    model_fingerprints: Sequence[str],
) -> MergePlan:
    """Resolve the per-tensor case split into an auditable plan.

    A tensor merges iff it is in the subset and its max diff strictly
    exceeds delta (ties copy the base). Each name is classified with
    ``config.scheme``; the records supply only their diffs. Every merge
    uses ``config.lambdas``.
    """
    config.validate()
    decisions = [_decide(record, classify(record.name, config.scheme), config) for record in diffs]
    return MergePlan(
        decisions=decisions, model_fingerprints=list(model_fingerprints), config=config
    )


def _copy_reason(
    record: DiffRecord, category: TensorCategory, subset: SubsetSpec, delta: float
) -> str | None:
    """The one gate: None when the tensor merges, else why it keeps the base.

    Merge iff the tensor is in the subset and its max diff strictly exceeds
    delta (ties copy the base). ``category`` is the name classified with
    the config's scheme, never the one a diff cache stored.
    """
    if not in_subset(category, subset, record.name):
        return REASON_NOT_IN_SUBSET
    return None if record.max_diff > delta else REASON_BELOW_THRESHOLD


def _decide(record: DiffRecord, category: TensorCategory, config: MergeConfig) -> MergeDecision:
    """The per-tensor decision, shared by planning and the fused pass."""
    reason = _copy_reason(record, category, config.subset, config.delta)
    return MergeDecision(
        name=record.name,
        category=category,
        action=ACTION_MERGE if reason is None else ACTION_COPY_BASE,
        max_diff=record.max_diff,
        reason=reason,
    )


def _check_decisions(decisions: Sequence[MergeDecision]) -> None:
    """Refuse a reviewed plan whose decisions no config could have made."""
    for d in decisions:
        if d.action == ACTION_MERGE:
            continue
        if d.action != ACTION_COPY_BASE:
            raise RecipeError(f"plan decision for {d.name!r} has unknown action {d.action!r}")
        if d.reason not in (REASON_NOT_IN_SUBSET, REASON_BELOW_THRESHOLD):
            raise RecipeError(f"plan copy of {d.name!r} has unknown reason {d.reason!r}")


def check_deltas(deltas: Sequence[float]) -> None:
    """The one check on a sweep's thresholds: at least one, and each must
    pass the recipe's check (ValueError or RecipeError otherwise)."""
    if not deltas:
        raise ValueError("no deltas given")
    for delta in deltas:
        _check_delta(_as_float(delta))


@dataclass(frozen=True)
class SweepRow:
    delta: float
    by_group: dict
    total: int


def threshold_sweep(
    diffs: Sequence[DiffRecord],
    config: MergeConfig,
    deltas: Sequence[float],
) -> list[SweepRow]:
    """Would-merge tensor counts per category for each threshold; no I/O.

    Uses the planning gate, so totals are non-increasing in delta. Each
    name is classified once with ``config.scheme``. The deltas must pass
    ``check_deltas`` before any row is made.
    """
    check_deltas(deltas)
    categories = [classify(record.name, config.scheme) for record in diffs]
    rows = []
    for delta in deltas:
        by_group = {g.value: 0 for g in TensorGroup}
        for record, category in zip(diffs, categories):
            if _copy_reason(record, category, config.subset, delta) is None:
                by_group[category.group.value] += 1
        rows.append(SweepRow(delta=delta, by_group=by_group, total=sum(by_group.values())))
    return rows

"""Per-tensor merge gating, planning, and streaming execution.

The construction: for every tensor of the base model, compute the maximum
normalized Frobenius difference against each other parent. A tensor is
merged (weighted sum of all parents) iff it belongs to the configured
subset AND that maximum strictly exceeds the threshold; otherwise the base
model's raw bytes are copied bit-exactly.

A tensor's gate depends only on its own diff, so a recipe merge is one
streaming pass: each tensor task reads every parent's bytes once, diffs
them in fixed blocks, gates, and then combines the blocks into the output
or hands on the base bytes it already holds. The resolved plan comes out
of the same pass as an audit record. ``compute_diffs`` runs the same task
without the gate. A reviewed plan (``plan`` -> ``merge --plan``) skips the
diff: its copies read only the base and its merges share the blocked
combine. The threshold sweep reuses diff records without touching the
checkpoints again.

Tasks run on a bounded worker pool; results are written in base layout
order, so output is independent of the worker count.
"""

from __future__ import annotations

import json
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from ._version import __version__
from .errors import CompatibilityError, MergeError, RecipeError
from .safetensors_io import (
    CheckpointIndex,
    OutputPolicy,
    TensorInfo,
    open_checkpoint,
    read_tensor_raw,
    write_checkpoint,
)
from .taxonomy import (
    FULL_SUBSET,
    DEFAULT_SCHEME,
    NamingScheme,
    SubsetSpec,
    TensorCategory,
    TensorGroup,
    classify,
    in_subset,
    subset_from_json_obj,
    subset_to_json_obj,
)
from .tensor_math import (
    BLOCK_ELEMS,
    decode,
    encode,
    linear_combination,
    normalized_frobenius_diff,  # noqa: F401  (patched by perfbench/spans.py)
    rms_from_partials,
    squared_diff_sum,
)

CONVEXITY_TOL = 1e-12

ACTION_MERGE = "merge"
ACTION_COPY_BASE = "copy_base"
REASON_NOT_IN_SUBSET = "not_in_subset"
REASON_BELOW_THRESHOLD = "below_threshold"

_T = TypeVar("_T")
_R = TypeVar("_R")


@dataclass(frozen=True)
class MergeConfig:
    """Everything that determines a merge: parents, weights, gates, output.

    ``models[0]`` is the base model; every tensor not selected for merging
    keeps its bytes.
    """

    models: tuple[str, ...]
    lambdas: tuple[float, ...]
    delta: float = 0.0
    subset: SubsetSpec = FULL_SUBSET
    scheme: NamingScheme = DEFAULT_SCHEME
    convex_required: bool = True
    output: OutputPolicy = field(default_factory=OutputPolicy)

    def validate(self) -> None:
        if len(self.models) < 1:
            raise RecipeError("at least one model is required")
        if len(self.lambdas) != len(self.models):
            raise RecipeError(
                f"{len(self.models)} models but {len(self.lambdas)} lambdas"
            )
        if self.delta < 0:
            raise RecipeError(f"delta must be >= 0, got {self.delta}")
        if self.convex_required:
            _check_convex(self.lambdas, "lambdas")
        self.output.validated()

    def to_json_obj(self) -> dict:
        return {
            "models": list(self.models),
            "lambdas": list(self.lambdas),
            "delta": self.delta,
            "subset": subset_to_json_obj(self.subset),
            "scheme": self.scheme.to_json_obj(),
            "convex_required": self.convex_required,
            "output": {
                "mode": self.output.mode,
                "max_shard_bytes": self.output.max_shard_bytes,
                "shard_template": self.output.shard_template,
                "index_name": self.output.index_name,
            },
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "MergeConfig":
        return cls(
            models=tuple(obj["models"]),
            lambdas=tuple(obj["lambdas"]),
            delta=obj["delta"],
            subset=subset_from_json_obj(obj["subset"]),
            scheme=NamingScheme.from_json_obj(obj["scheme"]),
            convex_required=obj["convex_required"],
            output=OutputPolicy(**obj["output"]),
        )


def _check_convex(lambdas: Sequence[float], what: str) -> None:
    if any(lam < 0 for lam in lambdas):
        raise RecipeError(f"{what} must be non-negative for a convex merge: {list(lambdas)}")
    total = sum(lambdas)
    if abs(total - 1.0) > CONVEXITY_TOL:
        raise RecipeError(
            f"{what} must sum to 1 within {CONVEXITY_TOL} for a convex merge "
            f"(got {total!r}); set convex_required=false to allow this"
        )


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

    @classmethod
    def from_json_obj(cls, obj: dict) -> "DiffRecord":
        return cls(
            name=obj["name"],
            category=TensorCategory.from_json_obj(obj),
            per_model_diff=tuple(obj["per_model_diff"]),
            max_diff=obj["max_diff"],
        )


@dataclass(frozen=True)
class MergeDecision:
    name: str
    category: TensorCategory
    action: str  # ACTION_MERGE | ACTION_COPY_BASE
    max_diff: float
    reason: str | None = None  # set for copy decisions
    lambdas: tuple[float, ...] | None = None  # set for merge decisions
    base_preserving: bool = False  # provably equal to the base regardless


@dataclass
class MergePlan:
    """The resolved per-tensor actions, bound to the input header hashes."""

    decisions: list[MergeDecision]
    model_fingerprints: list[str]
    config_echo: dict

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
                assert d.reason is not None
                by_reason[d.reason] += 1
        return {
            "tensors": len(self.decisions),
            "merged": sum(merged.values()),
            "copied": sum(copied.values()),
            "merged_by_group": dict(sorted(merged.items())),
            "copied_by_group": dict(sorted(copied.items())),
            "copied_by_reason": by_reason,
        }

    def to_json_obj(self) -> dict:
        return {
            "version": 1,
            "models": list(self.model_fingerprints),
            "config": self.config_echo,
            "decisions": [
                {
                    "name": d.name,
                    **d.category.to_json_obj(),
                    "action": d.action,
                    "reason": d.reason,
                    "max_diff": d.max_diff,
                    "lambdas": list(d.lambdas) if d.lambdas is not None else None,
                    "base_preserving": d.base_preserving,
                }
                for d in self.decisions
            ],
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "MergePlan":
        if obj.get("version") != 1:
            raise MergeError(f"unsupported plan version {obj.get('version')!r}")
        decisions = [
            MergeDecision(
                name=e["name"],
                category=TensorCategory.from_json_obj(e),
                action=e["action"],
                reason=e["reason"],
                max_diff=e["max_diff"],
                lambdas=tuple(e["lambdas"]) if e["lambdas"] is not None else None,
                base_preserving=e["base_preserving"],
            )
            for e in obj["decisions"]
        ]
        return cls(
            decisions=decisions,
            model_fingerprints=list(obj["models"]),
            config_echo=obj["config"],
        )


@dataclass
class MergeReport:
    counts: dict
    nonfinite: list[dict]
    elapsed_seconds: float
    model_fingerprints: list[str]
    output_files: list[str]
    config_echo: dict
    tool_version: str = __version__
    plan: MergePlan | None = None  # the executed plan; not serialized

    def to_json_obj(self) -> dict:
        return {
            "tool_version": self.tool_version,
            "counts": self.counts,
            "nonfinite_inputs": self.nonfinite,
            "elapsed_seconds": self.elapsed_seconds,
            "models": self.model_fingerprints,
            "output_files": self.output_files,
            "config": self.config_echo,
        }


def validate_compatibility(models: Sequence[CheckpointIndex]) -> list[str]:
    """Mismatch report across parents; empty iff they share an architecture.

    Checks that every model has exactly the base model's tensor names, each
    with identical shape and dtype.
    """
    if not models:
        raise ValueError("no models given")
    base = models[0]
    problems: list[str] = []
    base_names = base.layout_names()
    for i, other in enumerate(models[1:], start=2):
        for name in base_names:
            info = base.tensors[name]
            got = other.tensors.get(name)
            if got is None:
                problems.append(f"{name!r} missing in model {i}")
                continue
            if got.shape != info.shape:
                problems.append(
                    f"{name!r} shape mismatch in model {i}: "
                    f"{list(got.shape)} vs {list(info.shape)}"
                )
            if got.dtype is not info.dtype:
                problems.append(
                    f"{name!r} dtype mismatch in model {i}: "
                    f"{got.dtype.code} vs {info.dtype.code}"
                )
        for name in other.tensors:
            if name not in base.tensors:
                problems.append(f"{name!r} present in model {i} but not in the base")
    return problems


def _ordered_parallel(
    items: Iterable[_T],
    fn: Callable[[_T], _R],
    workers: int,
    cost: Callable[[_T], int],
    budget: int | None,
) -> Iterator[_R]:
    """Map fn over items with a worker pool, yielding results in input order.

    In-flight work is bounded by the worker count and optionally by a byte
    budget estimated via ``cost``. Results are order-stable regardless of
    worker count.
    """
    if workers <= 1:
        for item in items:
            yield fn(item)
        return
    window: deque = deque()
    inflight = 0
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for item in items:
            c = cost(item)
            while window and (
                len(window) >= 2 * workers
                or (budget is not None and inflight + c > budget)
            ):
                fut, fc = window.popleft()
                inflight -= fc
                yield fut.result()
            window.append((pool.submit(fn, item), c))
            inflight += c
        while window:
            fut, _ = window.popleft()
            yield fut.result()


def _resident_cost(info: TensorInfo, n_models: int, *, output: bool) -> int:
    """Estimated peak bytes of one tensor task.

    Every parent's raw bytes, the output buffer when the task builds one,
    and the float64 scratch of one block (each parent's decoded values plus
    the combine and diff temporaries).
    """
    scratch = min(info.numel, BLOCK_ELEMS) * 8 * (2 * n_models + 2)
    out = info.nbytes if output else 0
    return max(info.nbytes * n_models + out + scratch, 1)


def _read_parents(
    models: Sequence[CheckpointIndex], name: str, info: TensorInfo
) -> list[bytes]:
    """Every parent's raw bytes of one tensor, checked against the base entry."""
    raws = [read_tensor_raw(models[0], name)]
    for i, other in enumerate(models[1:], start=2):
        got = other.tensors.get(name)
        if got is None:
            raise CompatibilityError(f"{name!r} missing in model {i}")
        if got.shape != info.shape or got.dtype is not info.dtype:
            raise CompatibilityError(f"{name!r} shape/dtype mismatch in model {i}")
        raws.append(read_tensor_raw(other, name))
    return raws


def _decoded_blocks(raws: Sequence[bytes], info: TensorInfo) -> Iterator[list[np.ndarray]]:
    """Each parent's float64 values, one ``BLOCK_ELEMS`` block at a time."""
    if info.numel <= BLOCK_ELEMS:
        yield [decode(raw, info.dtype) for raw in raws]
        return
    width = info.dtype.byte_width
    views = [memoryview(raw) for raw in raws]
    for first in range(0, info.numel, BLOCK_ELEMS):
        lo, hi = first * width, min(first + BLOCK_ELEMS, info.numel) * width
        yield [decode(view[lo:hi], info.dtype) for view in views]


def _diff_parents(
    name: str, category: TensorCategory, raws: Sequence[bytes], info: TensorInfo
) -> tuple[DiffRecord, list[np.ndarray] | None]:
    """The tensor's DiffRecord from one blocked pass over the parents.

    Also returns the decoded parents when the tensor is a single block, so
    a merge can combine them without decoding again.
    """
    partials: list[list[float]] = [[] for _ in raws[1:]]
    blocks: list[np.ndarray] = []
    for blocks in _decoded_blocks(raws, info):
        for acc, other in zip(partials, blocks[1:]):
            acc.append(squared_diff_sum(blocks[0], other))
    diffs = tuple(rms_from_partials(acc, info.numel) for acc in partials)
    single = info.numel <= BLOCK_ELEMS
    return DiffRecord(name, category, diffs, max(diffs)), blocks if single else None


def _combine(
    raws: Sequence[bytes],
    info: TensorInfo,
    lambdas: Sequence[float],
    decoded: list[np.ndarray] | None = None,
) -> tuple[bytearray, list[int]]:
    """Weighted sum of the parents, block by block, into one output buffer.

    ``decoded`` is the single block already decoded by the diff, if any.
    Also returns the 1-based parents that held a non-finite value.
    """
    out = bytearray(info.nbytes)
    bad: set[int] = set()
    pos = 0
    for blocks in [decoded] if decoded is not None else _decoded_blocks(raws, info):
        for i, values in enumerate(blocks, start=1):
            if not np.isfinite(values).all():
                bad.add(i)
        data = encode(linear_combination(blocks, lambdas), info.dtype)
        out[pos:pos + len(data)] = data
        pos += len(data)
    return out, sorted(bad)


_Outcome = tuple[DiffRecord | None, MergeDecision | None, bytes | bytearray | None, list[int]]


def _tensor_task(
    models: Sequence[CheckpointIndex],
    scheme: NamingScheme,
    gate: Callable[[DiffRecord], MergeDecision] | None,
) -> Callable[[str], _Outcome]:
    """The one pass over a tensor: read each parent once, diff, and gate.

    Without a gate the task stops after the diff. With one, a merged
    tensor is combined block by block and a copied one hands on the base
    bytes already read. Returns (record, decision, output bytes,
    non-finite parents).
    """
    base = models[0]

    def task(name: str) -> _Outcome:
        category = classify(name, scheme)
        info = base.tensors[name]
        if len(models) == 1 or info.numel == 0:
            record = DiffRecord(name, category, (0.0,) * (len(models) - 1), 0.0)
            raws, decoded = None, None
        else:
            raws = _read_parents(models, name, info)
            record, decoded = _diff_parents(name, category, raws, info)
        if gate is None:
            return record, None, None, []
        decision = gate(record)
        if decision.action == ACTION_COPY_BASE:
            return record, decision, raws[0] if raws else read_tensor_raw(base, name), []
        assert raws is not None and decision.lambdas is not None
        data, bad = _combine(raws, info, decision.lambdas, decoded)
        return record, decision, data, bad

    return task


def compute_diffs(
    models: Sequence[CheckpointIndex],
    scheme: NamingScheme = DEFAULT_SCHEME,
    *,
    workers: int = 1,
    max_resident_bytes: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> list[DiffRecord]:
    """One DiffRecord per base tensor, streamed with bounded memory.

    With a single model every record is zero. Tensors with no elements also
    diff to zero. Compatibility should be validated first; shape/dtype
    surprises at read time raise CompatibilityError with the tensor named.
    ``progress(done, total)`` is called in layout order as records arrive.
    """
    if not models:
        raise ValueError("no models given")
    base = models[0]
    names = base.layout_names()
    task = _tensor_task(models, scheme, None)

    def cost(name: str) -> int:
        return _resident_cost(base.tensors[name], len(models), output=False)

    records = []
    for record, _, _, _ in _ordered_parallel(names, task, workers, cost, max_resident_bytes):
        records.append(record)
        if progress is not None:
            progress(len(records), len(names))
    return records


def save_diff_cache(
    records: Sequence[DiffRecord], path: str | Path, model_fingerprints: Sequence[str]
) -> None:
    obj = {
        "version": 1,
        "models": list(model_fingerprints),
        "records": [r.to_json_obj() for r in records],
    }
    Path(path).write_text(json.dumps(obj, indent=1) + "\n", "utf-8")


def load_diff_cache(
    path: str | Path, expected_fingerprints: Sequence[str] | None = None
) -> tuple[list[DiffRecord], list[str]]:
    """Load a diff cache; verifies header hashes when expectations are given."""
    obj = json.loads(Path(path).read_text("utf-8"))
    if obj.get("version") != 1:
        raise MergeError(f"unsupported diff cache version {obj.get('version')!r}")
    fingerprints = list(obj["models"])
    if expected_fingerprints is not None and fingerprints != list(expected_fingerprints):
        raise MergeError(
            f"diff cache {path} was computed from different checkpoints "
            "(header hashes do not match); recompute with `diff`"
        )
    return [DiffRecord.from_json_obj(e) for e in obj["records"]], fingerprints


def plan_merge(
    config: MergeConfig,
    diffs: Sequence[DiffRecord],
    model_fingerprints: Sequence[str],
    *,
    lambda_overrides: dict[str, Sequence[float]] | None = None,
) -> MergePlan:
    """Resolve the per-tensor case split into an auditable plan.

    A tensor merges iff it is in the subset and its max diff strictly
    exceeds delta (ties copy the base). ``lambda_overrides`` may replace
    the weights for individual tensors; overrides are validated like the
    global weights.
    """
    config.validate()
    overrides = lambda_overrides or {}
    for name, lams in overrides.items():
        if len(lams) != len(config.models):
            raise RecipeError(
                f"lambda override for {name!r} has {len(lams)} weights, "
                f"expected {len(config.models)}"
            )
        if config.convex_required:
            _check_convex(lams, f"lambda override for {name!r}")
    unknown = set(overrides) - {r.name for r in diffs}
    if unknown:
        raise RecipeError(f"lambda overrides for unknown tensors: {sorted(unknown)}")

    decisions = [_decide(record, config, overrides) for record in diffs]
    return MergePlan(
        decisions=decisions,
        model_fingerprints=list(model_fingerprints),
        config_echo=config.to_json_obj(),
    )


def _decide(
    record: DiffRecord,
    config: MergeConfig,
    overrides: dict[str, Sequence[float]] | None = None,
) -> MergeDecision:
    """The per-tensor case split, shared by planning and the fused pass.

    Merge iff the tensor is in the subset and its max diff strictly exceeds
    delta (ties copy the base). A merge is base-preserving when its weights
    are one-hot on the base or the parents are identical.
    """
    member = in_subset(record.category, config.subset, record.name)
    if member and record.max_diff > config.delta:
        lams = tuple((overrides or {}).get(record.name, config.lambdas))
        one_hot = lams[0] == 1.0 and all(lam == 0.0 for lam in lams[1:])
        return MergeDecision(
            name=record.name,
            category=record.category,
            action=ACTION_MERGE,
            max_diff=record.max_diff,
            lambdas=lams,
            base_preserving=one_hot or record.max_diff == 0.0,
        )
    return MergeDecision(
        name=record.name,
        category=record.category,
        action=ACTION_COPY_BASE,
        max_diff=record.max_diff,
        reason=REASON_BELOW_THRESHOLD if member else REASON_NOT_IN_SUBSET,
        base_preserving=True,
    )


def _provenance_metadata(config: MergeConfig) -> dict[str, str]:
    return {
        "aoe.base": str(config.models[0]),
        "aoe.models": json.dumps(list(config.models)),
        "aoe.lambdas": json.dumps(list(config.lambdas)),
        "aoe.delta": json.dumps(config.delta),
        "aoe.subset": json.dumps(subset_to_json_obj(config.subset)),
        "aoe.tool_version": __version__,
    }


def execute_merge(
    plan: MergePlan | None,
    config: MergeConfig,
    out: str | Path,
    *,
    workers: int = 1,
    max_resident_bytes: int | None = None,
    progress: Callable[[int, int], None] | None = None,
) -> tuple[CheckpointIndex, MergeReport]:
    """Merge the parents in one streaming pass and write the checkpoint.

    With ``plan=None`` the gate runs inside the pass: each tensor's parents
    are read once, diffed, gated and then merged or copied, and the
    resolved plan (equal to ``plan_merge`` over ``compute_diffs``) is
    attached to the report as ``report.plan``. With a reviewed plan, the
    parents are re-opened and must still have the header hashes the plan
    was computed against; copy decisions read only the base. Either way
    the parents must be compatible (CompatibilityError otherwise).

    Merge decisions decode all parents block by block, combine in float64,
    and re-encode to the original dtype; copy decisions move the base
    model's raw bytes untouched. Output tensor order follows the base
    layout, so reruns are byte-identical.
    """
    start = time.monotonic()
    config.validate()
    models = [open_checkpoint(p) for p in config.models]
    fingerprints = [m.fingerprint() for m in models]
    base = models[0]
    layout = base.layout_names()
    n_models = len(models)

    problems = validate_compatibility(models)
    if problems:
        raise CompatibilityError("incompatible parents: " + "; ".join(problems))
    if plan is None:
        task = _tensor_task(models, config.scheme, lambda r: _decide(r, config))

        def cost(name: str) -> int:
            return _resident_cost(base.tensors[name], n_models, output=True)
    else:
        if fingerprints != plan.model_fingerprints:
            raise MergeError(
                "input checkpoints changed since planning (header hash mismatch); "
                "recompute diffs and re-plan"
            )
        planned = {d.name: d for d in plan.decisions}
        if len(planned) != len(plan.decisions) or planned.keys() != set(layout):
            raise MergeError("plan does not cover exactly the base model's tensor set")

        def task(name: str) -> _Outcome:
            decision = planned[name]
            if decision.action == ACTION_COPY_BASE:
                return None, decision, read_tensor_raw(base, name), []
            assert decision.lambdas is not None
            info = base.tensors[name]
            data, bad = _combine(_read_parents(models, name, info), info, decision.lambdas)
            return None, decision, data, bad

        def cost(name: str) -> int:
            copy = planned[name].action == ACTION_COPY_BASE
            info = base.tensors[name]
            return info.nbytes if copy else _resident_cost(info, n_models, output=True)

    decisions: list[MergeDecision] = []
    nonfinite: list[dict] = []

    def stream():
        results = _ordered_parallel(layout, task, workers, cost, max_resident_bytes)
        for name, (_, decision, data, bad_models) in zip(layout, results):
            if bad_models:
                nonfinite.append({"name": name, "models": bad_models})
            decisions.append(decision)
            if progress is not None:
                progress(len(decisions), len(layout))
            yield base.tensors[name], data

    out_index = write_checkpoint(
        stream(),
        out,
        config.output,
        base=base,
        metadata=_provenance_metadata(config),
    )
    if plan is None:
        plan = MergePlan(decisions, fingerprints, config.to_json_obj())
    report = MergeReport(
        counts=plan.counts(),
        nonfinite=nonfinite,
        elapsed_seconds=time.monotonic() - start,
        model_fingerprints=fingerprints,
        output_files=[s.name for s in out_index.shards],
        config_echo=plan.config_echo,
        plan=plan,
    )
    return out_index, report


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

    Totals are non-increasing in delta (strict ">" gate, same as planning).
    """
    if not deltas:
        raise ValueError("no deltas given")
    rows = []
    for delta in deltas:
        by_group = {g.value: 0 for g in TensorGroup}
        total = 0
        for record in diffs:
            if in_subset(record.category, config.subset, record.name) and (
                record.max_diff > delta
            ):
                by_group[record.category.group.value] += 1
                total += 1
        rows.append(SweepRow(delta=delta, by_group=by_group, total=total))
    return rows

"""Per-tensor merge gating, planning, and streaming execution.

The construction: for every tensor of the base model, compute the maximum
normalized Frobenius difference against each other parent. A tensor is
merged (weighted sum of all parents) iff it belongs to the configured
subset AND that maximum strictly exceeds the threshold; otherwise the base
model's raw bytes are copied bit-exactly.

A tensor's gate depends only on its own diff, so every pass over the
weights runs one per-tensor task. ``compute_diffs`` reads each parent's
bytes once and diffs them in fixed blocks. A recipe merge also gates, then
combines the blocks into the output or hands on the base bytes it holds;
its plan comes out of the same pass as an audit record. A reviewed plan
skips the diff: its copies read only the base. The functions that read
weights check the parents' compatibility once, up front. Planning, the
fused gate and the threshold sweep share one gate and classify names with
the config's scheme; a diff cache supplies only the numbers.

Tasks run on a worker pool whose window of ``2 * workers`` tasks is the
only bound on in-flight work; results are written in base layout order,
so output is independent of the worker count.
"""

from __future__ import annotations

import json
import numbers
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
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
        _check_lambdas(self.lambdas, self, "lambdas")
        if self.delta < 0:
            raise RecipeError(f"delta must be >= 0, got {self.delta}")
        self.output.validated()

    def to_json_obj(self) -> dict:
        return {
            "models": list(self.models),
            "lambdas": list(self.lambdas),
            "delta": self.delta,
            "subset": subset_to_json_obj(self.subset),
            "scheme": self.scheme.to_json_obj(),
            "convex_required": self.convex_required,
            "output": asdict(self.output),
        }


def _check_lambdas(lambdas: object, config: MergeConfig, what: str) -> None:
    """The one check on a weight vector: the config's, an override's or a plan's.

    One number per model; non-negative and summing to 1 when the config
    requires a convex merge.
    """
    if not isinstance(lambdas, (list, tuple)) or any(
        not isinstance(lam, numbers.Real) or isinstance(lam, bool) for lam in lambdas
    ):
        raise RecipeError(f"{what} must be a list of numbers, got {lambdas!r}")
    if len(lambdas) != len(config.models):
        raise RecipeError(
            f"{what} has {len(lambdas)} weights, expected {len(config.models)}"
        )
    if not config.convex_required:
        return
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
        # Decisions are checked against the config by execute_merge.
        decisions = [
            MergeDecision(
                name=e["name"],
                category=TensorCategory.from_json_obj(e),
                action=e["action"],
                reason=e["reason"],
                max_diff=e["max_diff"],
                lambdas=tuple(lams) if isinstance(lams := e["lambdas"], list) else lams,
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
    items: Iterable[_T], fn: Callable[[_T], _R], workers: int
) -> Iterator[_R]:
    """Map fn over items with a worker pool, yielding results in input order.

    The only bound on in-flight work is the window: at most ``2 * workers``
    items are pulled ahead of the results yielded so far (none with one
    worker, which runs inline). Results are order-stable regardless of
    worker count.
    """
    if workers <= 1:
        for item in items:
            yield fn(item)
        return
    window: deque = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for item in items:
            if len(window) >= 2 * workers:
                yield window.popleft().result()
            window.append(pool.submit(fn, item))
        while window:
            yield window.popleft().result()


def _check_compatible(models: Sequence[CheckpointIndex]) -> None:
    problems = validate_compatibility(models)
    if problems:
        raise CompatibilityError("incompatible parents: " + "; ".join(problems))


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
    config: MergeConfig | None = None,
    planned: dict[str, MergeDecision] | None = None,
) -> Callable[[str], _Outcome]:
    """The one pass over a tensor, for diffs, the fused merge and a reviewed plan.

    A planned decision is looked up before any read: a copy reads only the
    base, a merge reads every parent and combines without diffing.
    Otherwise each parent is read once and diffed; without a config the
    task stops there, with one it gates, then combines a merged tensor
    block by block or hands on the base bytes already read. Returns
    (record, decision, output bytes, non-finite parents).
    """
    base = models[0]

    def task(name: str) -> _Outcome:
        info = base.tensors[name]
        decision = planned[name] if planned is not None else None
        record, raws, decoded = None, None, None
        if decision is None:
            category = classify(name, scheme)
            if len(models) == 1 or info.numel == 0:
                record = DiffRecord(name, category, (0.0,) * (len(models) - 1), 0.0)
            else:
                raws = [read_tensor_raw(model, name) for model in models]
                record, decoded = _diff_parents(name, category, raws, info)
            if config is None:
                return record, None, None, []
            decision = _decide(record, category, config)
        if decision.action == ACTION_COPY_BASE:
            return record, decision, raws[0] if raws else read_tensor_raw(base, name), []
        raws = raws or [read_tensor_raw(model, name) for model in models]
        data, bad = _combine(raws, info, decision.lambdas, decoded)
        return record, decision, data, bad

    return task


def compute_diffs(
    models: Sequence[CheckpointIndex],
    scheme: NamingScheme = DEFAULT_SCHEME,
    *,
    workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> list[DiffRecord]:
    """One DiffRecord per base tensor, streamed with bounded memory.

    At most ``2 * workers`` tensors are in flight (one with one worker),
    each holding every parent's raw bytes and one block of float64 scratch.

    The parents must share the base's tensor names, shapes and dtypes;
    they are checked before any tensor is read (CompatibilityError with
    every mismatch). With a single model every record is zero. Tensors with
    no elements also diff to zero. Records are classified with ``scheme``.
    ``progress(done, total)`` is called in layout order as records arrive.
    """
    _check_compatible(models)
    names = models[0].layout_names()
    task = _tensor_task(models, scheme)
    records = []
    for record, _, _, _ in _ordered_parallel(names, task, workers):
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
    exceeds delta (ties copy the base). Each name is classified with
    ``config.scheme``; the records supply only their diffs.
    ``lambda_overrides`` may replace the weights for individual tensors;
    overrides are validated like the global weights.
    """
    config.validate()
    overrides = lambda_overrides or {}
    for name, lams in overrides.items():
        _check_lambdas(lams, config, f"lambda override for {name!r}")
    unknown = set(overrides) - {r.name for r in diffs}
    if unknown:
        raise RecipeError(f"lambda overrides for unknown tensors: {sorted(unknown)}")

    decisions = [
        _decide(record, classify(record.name, config.scheme), config, overrides)
        for record in diffs
    ]
    return MergePlan(
        decisions=decisions,
        model_fingerprints=list(model_fingerprints),
        config_echo=config.to_json_obj(),
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


def _decide(
    record: DiffRecord,
    category: TensorCategory,
    config: MergeConfig,
    overrides: dict[str, Sequence[float]] | None = None,
) -> MergeDecision:
    """The per-tensor decision, shared by planning and the fused pass.

    A merge is base-preserving when its weights are one-hot on the base or
    the parents are identical.
    """
    reason = _copy_reason(record, category, config.subset, config.delta)
    if reason is None:
        lams = tuple((overrides or {}).get(record.name, config.lambdas))
        one_hot = lams[0] == 1.0 and all(lam == 0.0 for lam in lams[1:])
        return MergeDecision(
            name=record.name,
            category=category,
            action=ACTION_MERGE,
            max_diff=record.max_diff,
            lambdas=lams,
            base_preserving=one_hot or record.max_diff == 0.0,
        )
    return MergeDecision(
        name=record.name,
        category=category,
        action=ACTION_COPY_BASE,
        max_diff=record.max_diff,
        reason=reason,
        base_preserving=True,
    )


def _check_decisions(decisions: Sequence[MergeDecision], config: MergeConfig) -> None:
    """Refuse a reviewed plan whose decisions its config could not have made."""
    for d in decisions:
        if d.action == ACTION_MERGE:
            _check_lambdas(d.lambdas, config, f"plan lambdas for {d.name!r}")
        elif d.action != ACTION_COPY_BASE:
            raise RecipeError(f"plan decision for {d.name!r} has unknown action {d.action!r}")
        elif d.reason not in (REASON_NOT_IN_SUBSET, REASON_BELOW_THRESHOLD):
            raise RecipeError(f"plan copy of {d.name!r} has unknown reason {d.reason!r}")


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
    progress: Callable[[int, int], None] | None = None,
) -> tuple[CheckpointIndex, MergeReport]:
    """Merge the parents in one streaming pass into the directory ``out``.

    One ``write_checkpoint`` gives ``out`` the shards, ``merge_plan.json``
    and ``merge_report.json``, so a failed merge leaves ``out`` as it was.
    The parents are opened and checked for compatibility once, before any
    tensor is read (CompatibilityError otherwise). With ``plan=None`` the
    gate runs inside the pass: each tensor's parents are read once, diffed,
    gated and then merged or copied, and the resolved plan (equal to
    ``plan_merge`` over ``compute_diffs``) is attached to the report as
    ``report.plan``. A reviewed plan is checked against its config before
    anything is opened (RecipeError on an unknown action or copy reason,
    or merge weights the config's own lambdas would fail); the parents must
    still have the header hashes the plan was computed against. Each
    decision is then taken as given, so copies read only the base and
    merges are not diffed.

    Merge decisions decode all parents block by block, combine in float64,
    and re-encode to the original dtype; copy decisions move the base
    model's raw bytes untouched. At most ``2 * workers`` tensors are in
    flight (one with one worker); each holds its parents' raw bytes, its
    output bytes and one block of float64 scratch. Output tensor order
    follows the base layout, so reruns are byte-identical.
    """
    start = time.monotonic()
    config.validate()
    if plan is not None:
        _check_decisions(plan.decisions, config)
    models = [open_checkpoint(p) for p in config.models]
    fingerprints = [m.fingerprint() for m in models]
    base = models[0]
    layout = base.layout_names()

    _check_compatible(models)
    planned = None
    if plan is not None:
        if fingerprints != plan.model_fingerprints:
            raise MergeError(
                "input checkpoints changed since planning (header hash mismatch); "
                "recompute diffs and re-plan"
            )
        planned = {d.name: d for d in plan.decisions}
        if len(planned) != len(plan.decisions) or planned.keys() != set(layout):
            raise MergeError("plan does not cover exactly the base model's tensor set")
    task = _tensor_task(models, config.scheme, config, planned)

    decisions: list[MergeDecision] = []
    nonfinite: list[dict] = []

    def stream():
        results = _ordered_parallel(layout, task, workers)
        for name, (_, decision, data, bad_models) in zip(layout, results):
            if bad_models:
                nonfinite.append({"name": name, "models": bad_models})
            decisions.append(decision)
            if progress is not None:
                progress(len(decisions), len(layout))
            yield base.tensors[name], data

    if plan is None:
        plan = MergePlan(decisions, fingerprints, config.to_json_obj())  # filled by stream()
    report: MergeReport | None = None

    def report_json(shard_names: list[str]) -> str:
        nonlocal report
        report = MergeReport(
            counts=plan.counts(),
            nonfinite=nonfinite,
            elapsed_seconds=time.monotonic() - start,
            model_fingerprints=fingerprints,
            output_files=shard_names,
            config_echo=plan.config_echo,
            plan=plan,
        )
        return json.dumps(report.to_json_obj(), indent=2) + "\n"

    out_index = write_checkpoint(
        stream(),
        out,
        config.output,
        base=base,
        metadata=_provenance_metadata(config),
        sidecars={
            "merge_plan.json": lambda _: json.dumps(plan.to_json_obj(), indent=1) + "\n",
            "merge_report.json": report_json,
        },
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

    Uses the planning gate, so totals are non-increasing in delta. Each
    name is classified once with ``config.scheme``.
    """
    if not deltas:
        raise ValueError("no deltas given")
    categories = [classify(record.name, config.scheme) for record in diffs]
    rows = []
    for delta in deltas:
        by_group = {g.value: 0 for g in TensorGroup}
        for record, category in zip(diffs, categories):
            if _copy_reason(record, category, config.subset, delta) is None:
                by_group[category.group.value] += 1
        rows.append(SweepRow(delta=delta, by_group=by_group, total=sum(by_group.values())))
    return rows

"""The passes over weights: diffs and streaming merge execution.

A tensor's gate depends only on its own diff, so every pass over the
weights runs one task per run of tensors. A run is a sequence of
consecutive base-layout tensors of one dtype, each below
``_RUN_TENSOR_ELEMS`` elements, byte-adjacent in one shard of every
parent, and at most ``_RUN_ELEMS`` elements in all; every other tensor is
a run of one. A run costs one read and one decode per parent, however
many tensors it holds, and stays within one block of ``BLOCK_ELEMS``.

A pass opens one read-only descriptor per shard of each parent and closes
them all when it ends. ``compute_diffs`` reads each parent's bytes once
and diffs them in fixed blocks; each tensor of a run is reduced over its
own slice, so its record has the same bits as when it is diffed alone
(see ``tensor_math``). A recipe merge also gates each tensor, then
combines the merged tensors' elements into the output, with one
finiteness check per parent, and hands on slices of the base bytes it
holds for the copies; its plan comes out of the same pass as an audit
record. A reviewed plan skips the diff: a copy hands the writer the base
tensor's byte range, which is copied file to file without entering
Python, and only merged tensors are read, consecutive merges in runs.
Every merge weighs the parents by the config's one weight vector. The
functions that read weights check the parents' compatibility once, up
front. The gate, the configs, plans and diff caches live in
``planning``, which needs no numpy. This module loads numpy and the
``tensor_math`` kernels only when a pass decodes, so a reviewed
copy-only plan runs without them.

Tasks run on a worker pool whose window of ``2 * workers`` runs is the
only bound on in-flight work; results are written in base layout order,
so output is independent of the worker count. The pool is started only
with more than one worker.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import closing
from itertools import accumulate, chain
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TypeVar

from ._version import __version__
from .dtypes import DType
from .errors import CompatibilityError, MergeError, RecipeError
from .planning import (
    ACTION_COPY_BASE,
    DiffRecord,
    MergeConfig,
    MergeDecision,
    MergePlan,
    MergeReport,
    _check_decisions,
    _decide,
    load_diff_cache,  # noqa: F401  (patched by perfbench/spans.py)
    plan_merge,  # noqa: F401  (patched by perfbench/spans.py)
    save_diff_cache,  # noqa: F401  (patched by perfbench/spans.py)
    threshold_sweep,  # noqa: F401  (patched by perfbench/spans.py)
)
from .safetensors_io import (
    CheckpointIndex,
    TensorInfo,
    TensorRange,
    open_checkpoint,
    read_tensor_raw,
    shard_handles,
    tensor_range,
    write_checkpoint,
)
from .taxonomy import (
    DEFAULT_SCHEME,
    NamingScheme,
    TensorCategory,
    classify,
    in_subset,  # noqa: F401  (patched by perfbench/spans.py)
    subset_to_json_obj,
)

if TYPE_CHECKING:  # bound at run time by _load_kernels
    import numpy as np

    from .tensor_math import (
        BLOCK_ELEMS,
        decode,
        encode,
        linear_combination,
        normalized_frobenius_diff,
        rms_from_partials,
        squared_diff_sums,
    )

_T = TypeVar("_T")
_R = TypeVar("_R")

# normalized_frobenius_diff is unused here; perfbench/spans.py patches it.
_KERNELS = (
    "BLOCK_ELEMS",
    "decode",
    "encode",
    "linear_combination",
    "normalized_frobenius_diff",
    "rms_from_partials",
    "squared_diff_sums",
)

# A tensor joins a run only below _RUN_TENSOR_ELEMS elements, and a run
# holds at most _RUN_ELEMS: tensor_math.BLOCK_ELEMS / 16 and / 4, written
# out because that constant lives beside numpy. Larger tensors are runs of
# one, and a run's scratch stays a quarter of a block.
_RUN_TENSOR_ELEMS = 1 << 14
_RUN_ELEMS = 1 << 16


def _load_kernels() -> None:
    """Bind ``np`` and the ``tensor_math`` kernels as module globals.

    Called once per pass that decodes. ``setdefault`` keeps a binding made
    before the first load, such as a tracing wrapper.
    """
    import numpy

    from . import tensor_math

    namespace = globals()
    namespace.setdefault("np", numpy)
    for name in _KERNELS:
        namespace.setdefault(name, getattr(tensor_math, name))


def __getattr__(name: str):
    """Load the kernels when one is looked up before any pass decodes."""
    if name == "np" or name in _KERNELS:
        _load_kernels()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    from concurrent.futures import ThreadPoolExecutor

    window: deque = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for item in items:
            if len(window) >= 2 * workers:
                yield window.popleft().result()
            window.append(pool.submit(fn, item))
        while window:
            yield window.popleft().result()


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def _check_compatible(models: Sequence[CheckpointIndex]) -> None:
    problems = validate_compatibility(models)
    if problems:
        raise CompatibilityError("incompatible parents: " + "; ".join(problems))


def _joins(
    models: Sequence[CheckpointIndex],
    planned: dict[str, MergeDecision] | None,
    prev: str,
    name: str,
) -> bool:
    """Whether tensor ``name`` may follow ``prev`` in a run."""
    if planned is not None:
        d, e = planned[prev], planned[name]
        if ACTION_COPY_BASE in (d.action, e.action):
            return False
    a, b = models[0].tensors[prev], models[0].tensors[name]
    if a.dtype is not b.dtype or not (
        0 < a.numel < _RUN_TENSOR_ELEMS and 0 < b.numel < _RUN_TENSOR_ELEMS
    ):
        return False
    for model in models:
        a, b = model.tensors[prev], model.tensors[name]
        if a.shard != b.shard or a.data_offsets[1] != b.data_offsets[0]:
            return False
    return True


def _runs(
    models: Sequence[CheckpointIndex],
    layout: Sequence[str],
    planned: dict[str, MergeDecision] | None = None,
) -> Iterator[list[str]]:
    """The pass's units of work: ``layout`` cut into runs, in order.

    In a reviewed plan only merges join a run; a copy stays a run of one
    and is never read.
    """
    run: list[str] = []
    elems = 0
    for name in layout:
        if run and _joins(models, planned, run[-1], name):
            numel = models[0].tensors[name].numel
            if elems + numel <= _RUN_ELEMS:
                run.append(name)
                elems += numel
                continue
        if run:
            yield run
        run, elems = [name], models[0].tensors[name].numel
    if run:
        yield run


def _decoded_blocks(
    raws: Sequence[bytes], dtype: DType, numel: int
) -> Iterator[list[np.ndarray]]:
    """Each parent's float64 values, one ``BLOCK_ELEMS`` block at a time."""
    if numel <= BLOCK_ELEMS:
        yield [decode(raw, dtype) for raw in raws]
        return
    width = dtype.byte_width
    views = [memoryview(raw) for raw in raws]
    for first in range(0, numel, BLOCK_ELEMS):
        lo, hi = first * width, min(first + BLOCK_ELEMS, numel) * width
        yield [decode(view[lo:hi], dtype) for view in views]


def _diff_parents(
    run: Sequence[str],
    categories: Sequence[TensorCategory],
    raws: Sequence[bytes],
    infos: Sequence[TensorInfo],
) -> tuple[list[DiffRecord], list[np.ndarray] | None]:
    """The run's DiffRecords from one blocked pass over its parents.

    A run of several tensors is one block, and each tensor's partial sums
    only its own slice of it. Also returns the decoded parents when the
    run is a single block, so a merge can combine them without decoding
    again.
    """
    ends = list(accumulate(info.numel for info in infos))
    single = ends[-1] <= BLOCK_ELEMS
    partials: list[list[list[float]]] = [[[] for _ in raws[1:]] for _ in infos]
    blocks: list[np.ndarray] = []
    for blocks in _decoded_blocks(raws, infos[0].dtype, ends[-1]):
        cuts = ends if single else [len(blocks[0])]
        for k, other in enumerate(blocks[1:]):
            for sums, part in zip(partials, squared_diff_sums(blocks[0], other, cuts)):
                sums[k].append(part)
    records = []
    for name, category, info, sums in zip(run, categories, infos, partials):
        diffs = tuple(rms_from_partials(acc, info.numel) for acc in sums)
        records.append(DiffRecord(name, category, diffs, max(diffs)))
    return records, blocks if single else None


def _nonfinite(values: Sequence[np.ndarray]) -> list[int]:
    """The 1-based parents whose values hold a non-finite element."""
    return [i for i, v in enumerate(values, start=1) if not np.isfinite(v).all()]


def _combine(
    raws: Sequence[bytes],
    infos: Sequence[TensorInfo],
    merged: Sequence[int],
    lambdas: Sequence[float],
    decoded: list[np.ndarray] | None = None,
) -> tuple[bytes | bytearray, list[list[int]]]:
    """Weighted sum of the parents over the run's tensors at ``merged``.

    ``decoded`` is the run's single block already decoded by the diff, if
    any. A tensor of several blocks is combined block by block into one
    output buffer. Returns the merged tensors' bytes back to back and, per
    merged tensor, the 1-based parents that held a non-finite value. The
    finiteness check runs once per parent; only a run that fails it is
    searched tensor by tensor.
    """
    dtype = infos[0].dtype
    ends = list(accumulate(info.numel for info in infos))
    if ends[-1] > BLOCK_ELEMS:  # a run of one
        out = bytearray(infos[0].nbytes)
        bad: set[int] = set()
        pos = 0
        for blocks in _decoded_blocks(raws, dtype, ends[-1]):
            bad.update(_nonfinite(blocks))
            data = encode(linear_combination(blocks, lambdas), dtype)
            out[pos:pos + len(data)] = data
            pos += len(data)
        return out, [sorted(bad)]
    values = decoded if decoded is not None else [decode(raw, dtype) for raw in raws]
    if len(merged) < len(infos):
        values = [
            np.concatenate([v[ends[t] - infos[t].numel:ends[t]] for t in merged]) for v in values
        ]
    sizes = [infos[t].numel for t in merged]
    bad_parents = _nonfinite(values)
    found: list[list[int]] = [[] for _ in merged]
    if bad_parents:
        found = [
            [i for i in bad_parents if not np.isfinite(values[i - 1][hi - size:hi]).all()]
            for size, hi in zip(sizes, accumulate(sizes))
        ]
    return encode(linear_combination(values, lambdas), dtype), found


_Outcome = tuple[
    DiffRecord | None,
    MergeDecision | None,
    bytes | bytearray | memoryview | TensorRange | None,
    list[int],
]


def _tensor_task(
    models: Sequence[CheckpointIndex],
    handles: Sequence[dict[str, int]],
    scheme: NamingScheme,
    config: MergeConfig | None = None,
    planned: dict[str, MergeDecision] | None = None,
) -> Callable[[Sequence[str]], list[_Outcome]]:
    """The one pass over a run, for diffs, the fused merge and a reviewed plan.

    ``handles`` holds the pass's open shards, one map per model. Planned
    decisions are looked up before any read: a copy reads nothing and
    yields the base tensor's range, a run of merges reads every parent
    once and combines without diffing. Otherwise each parent's run is
    read once and diffed; without a config the task stops there, with one
    it gates each tensor, then combines the merged ones and hands on
    slices of the base bytes already read for the copies. Returns one
    (record, decision, output bytes or range, non-finite parents) per
    tensor of the run. The kernels are loaded unless every planned
    decision is a copy.
    """
    base = models[0]
    if planned is None or any(d.action != ACTION_COPY_BASE for d in planned.values()):
        _load_kernels()

    def read(run: Sequence[str]) -> list[bytes]:
        return [
            read_tensor_raw(model, run[0], handles=fds, last=run[-1])
            for model, fds in zip(models, handles)
        ]

    def task(run: Sequence[str]) -> list[_Outcome]:
        infos = [base.tensors[name] for name in run]
        records: list[DiffRecord | None] = [None] * len(run)
        raws, decoded = None, None
        if planned is not None:
            decisions = [planned[name] for name in run]
        else:
            categories = [classify(name, scheme) for name in run]
            if len(models) == 1 or infos[0].numel == 0:
                zero = (0.0,) * (len(models) - 1)
                records = [DiffRecord(name, c, zero, 0.0) for name, c in zip(run, categories)]
            else:
                raws = read(run)
                records, decoded = _diff_parents(run, categories, raws, infos)
            if config is None:
                return [(record, None, None, []) for record in records]
            decisions = [_decide(r, c, config) for r, c in zip(records, categories)]
        merged = [t for t, d in enumerate(decisions) if d.action != ACTION_COPY_BASE]
        if merged:
            raws = raws or read(run)
            data, found = _combine(raws, infos, merged, config.lambdas, decoded)
            combined, bad = memoryview(data), iter(found)
        held = memoryview(raws[0]) if raws else None
        outcomes: list[_Outcome] = []
        lo = pos = 0  # byte offsets into held and combined
        for name, info, record, decision in zip(run, infos, records, decisions):
            if decision.action != ACTION_COPY_BASE:
                out, bad_models = combined[pos:pos + info.nbytes], next(bad)
                pos += info.nbytes
            elif held is not None:
                out, bad_models = held[lo:lo + info.nbytes], []
            else:
                out, bad_models = tensor_range(base, name, handles=handles[0]), []
            outcomes.append((record, decision, out, bad_models))
            lo += info.nbytes
        return outcomes

    return task


def compute_diffs(
    models: Sequence[CheckpointIndex],
    scheme: NamingScheme = DEFAULT_SCHEME,
    *,
    workers: int = 1,
    progress: Callable[[int, int], None] | None = None,
) -> list[DiffRecord]:
    """One DiffRecord per base tensor, streamed with bounded memory.

    At most ``2 * workers`` runs are in flight (one with one worker), each
    holding every parent's raw bytes and one block of float64 scratch.

    The parents must share the base's tensor names, shapes and dtypes;
    they are checked before any tensor is read (CompatibilityError with
    every mismatch). With a single model every record is zero. Tensors with
    no elements also diff to zero. Records are classified with ``scheme``.
    ``progress(done, total)`` is called in layout order as records arrive.
    ``workers`` below 1 is a ValueError, raised before any shard is opened.
    """
    _check_workers(workers)
    _check_compatible(models)
    names = models[0].layout_names()
    records = []
    # closing() stops the pool before the descriptors close, on error too.
    with shard_handles(models) as handles, closing(
        _ordered_parallel(_runs(models, names), _tensor_task(models, handles, scheme), workers)
    ) as results:
        for record, _, _, _ in chain.from_iterable(results):
            records.append(record)
            if progress is not None:
                progress(len(records), len(names))
    return records


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
    ``report.plan``. A reviewed plan is checked against its own config
    before anything is opened: ``config`` must equal ``plan.config``, and
    RecipeError refuses an unknown action or copy reason. The parents must
    still have the header hashes the plan was computed against. Each
    decision is then taken as given, so copies read only the base and
    merges are not diffed.

    Merge decisions decode all parents block by block, combine in float64,
    and re-encode to the original dtype; copy decisions move the base
    model's raw bytes untouched: in the fused pass the bytes already read
    for the diff, in a reviewed plan the base tensor's byte range, copied
    file to file by the writer. The pass holds one read-only descriptor
    per shard of each parent and closes them all when it ends. At most
    ``2 * workers`` runs are in flight (one with one worker); each holds
    its parents' raw bytes, its output bytes and one block of float64
    scratch. The output mirrors the base's shards, tensor order and index,
    so reruns are byte-identical. ``workers`` below 1 is a ValueError,
    raised before anything is opened.
    """
    start = time.monotonic()
    _check_workers(workers)
    if plan is not None:
        if config != plan.config:
            raise RecipeError("a plan runs only with its own config: pass plan.config")
        config = plan.config
    config.validate()
    if plan is not None:
        _check_decisions(plan.decisions)
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

    decisions: list[MergeDecision] = []
    nonfinite: list[dict] = []

    def stream(results: Iterable[_Outcome]):
        for name, (_, decision, data, bad_models) in zip(layout, results):
            if bad_models:
                nonfinite.append({"name": name, "models": bad_models})
            decisions.append(decision)
            if progress is not None:
                progress(len(decisions), len(layout))
            yield base.tensors[name], data

    if plan is None:
        plan = MergePlan(decisions, fingerprints, config)  # filled by stream()
    report: MergeReport | None = None

    def report_json(shard_names: list[str]) -> str:
        nonlocal report
        report = MergeReport(plan, nonfinite, time.monotonic() - start, shard_names)
        return json.dumps(report.to_json_obj(), indent=2) + "\n"

    # closing() stops the pool before the descriptors close, on error too.
    with shard_handles(models) as handles, closing(_ordered_parallel(
        _runs(models, layout, planned),
        _tensor_task(models, handles, config.scheme, config, planned),
        workers,
    )) as results:
        out_index = write_checkpoint(
            stream(chain.from_iterable(results)),
            out,
            base=base,
            metadata=_provenance_metadata(config),
            sidecars={
                "merge_plan.json": lambda _: plan.to_json_text(),
                "merge_report.json": report_json,
            },
        )
    return out_index, report

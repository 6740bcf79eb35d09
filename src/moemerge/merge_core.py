"""The passes over weights: diffs and streaming merge execution.

A tensor's gate depends only on its own diff, so every pass over the
weights runs one task per run of tensors. A run is a sequence of
consecutive base-layout tensors of one dtype, each below
``_RUN_TENSOR_ELEMS`` elements, byte-adjacent in one shard of every
parent, and at most ``_RUN_ELEMS`` elements in all; every other tensor is
a run of one. A run costs one read per parent, however many tensors it
holds, and stays within one block of ``BLOCK_ELEMS``.

One function, ``_walk``, reads a task's bytes block by block in every
pass: it reads and decodes each block once per parent, diffs the
segments of each tensor not yet decided, gates a tensor after its last
block, and combines and encodes the merged tensors' segments at their
own offsets. ``compute_diffs`` only diffs. A recipe merge gates the
subset before it reads anything: a tensor outside it joins no run, is
never read, and goes to the writer as the base tensor's byte range,
copied file to file without entering Python. Every other tensor is
diffed, gated and, within one block, combined in one walk; a copy below
the threshold is the base tensor's byte range too, and a merged tensor
of several blocks, gated after its earlier blocks are gone, is read and
decoded again by a second walk. Its plan comes out of the same pass as
an audit record. A reviewed plan skips the diff: a copy is a byte range
in the same way, and a run of merges is one walk. Every merge weighs the
parents by the config's one weight vector. The functions that read
weights check the parents' compatibility once, up front. The gate, the
configs, plans and diff caches live in ``planning``, which needs no
numpy. This module loads numpy and the ``tensor_math`` kernels only when
a pass decodes, so a reviewed copy-only plan, or a recipe merge whose
subset selects nothing, runs without them.

A pass opens one read-only descriptor per shard of each parent and closes
them all when it ends. Tasks run on a worker pool whose window of
``2 * workers`` runs is the only bound on in-flight work; results are
written in base layout order, so output is independent of the worker
count. The pool is started only with more than one worker. Each thread
that decodes owns one ``tensor_math.Scratch``, made on its first such
task of the pass: P + 1 float64 buffers of ``BLOCK_ELEMS`` for P parents
and a float32 and a uint32 one, (2P + 4) MiB, 8 MiB with two parents.
Beside it the thread owns one byte buffer per parent, sized to the
largest block it has read, at most 2 MiB (an F64 block). Each block is
read into those with ``read_tensor_raw(..., into=)``, and decode, diff,
combine and encode write into the scratch, so a task allocates neither
its parents' bytes nor block-sized float arrays; it holds only the
output bytes of what it merges.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from contextlib import closing
from functools import partial
from itertools import accumulate, chain
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence, TypeVar

from ._version import __version__
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
    _max_diff,
    _subset_copy,
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
    from .tensor_math import (
        BLOCK_ELEMS,
        Scratch,
        all_finite,
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
    "Scratch",
    "all_finite",
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
    """Bind the ``tensor_math`` kernels as module globals.

    Called once per pass that decodes. ``setdefault`` keeps a binding made
    before the first load, such as a tracing wrapper.
    """
    from . import tensor_math

    namespace = globals()
    for name in _KERNELS:
        namespace.setdefault(name, getattr(tensor_math, name))


def __getattr__(name: str):
    """Load the kernels when one is looked up before any pass decodes."""
    if name in _KERNELS:
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
    items: Iterable[_T],
    fn: Callable[[_T], _R],
    workers: int,
    inline: Callable[[_T], bool] | None = None,
) -> Iterator[_R]:
    """Map fn over items with a worker pool, yielding results in input order.

    The only bound on in-flight work is the window: at most ``2 * workers``
    items are pulled ahead of the results yielded so far (none with one
    worker, which runs inline). Results are order-stable regardless of
    worker count. An item for which ``inline(item)`` is true is not handed
    to the pool: it holds its place in the window and runs in the
    consumer's thread when its turn to be yielded comes, so a stream of
    such items starts no thread.
    """
    if workers <= 1:
        for item in items:
            yield fn(item)
        return
    from concurrent.futures import ThreadPoolExecutor

    window: deque[Callable[[], _R]] = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for item in items:
            if len(window) >= 2 * workers:
                yield window.popleft()()
            if inline is not None and inline(item):
                window.append(partial(fn, item))
            else:
                window.append(pool.submit(fn, item).result)
        while window:
            yield window.popleft()()


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
        for decision in (planned.get(prev), planned.get(name)):
            if decision is not None and decision.action == ACTION_COPY_BASE:
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

    A planned copy, from a reviewed plan or a tensor outside the fused
    pass's subset, stays a run of one and is never read.
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


def _walk(
    read: Callable[[int, int], list[memoryview]],
    infos: Sequence[TensorInfo],
    decisions: list[MergeDecision | None],
    scratch: Scratch,
    lambdas: Sequence[float],
    gate: Callable[[int, tuple[float, ...]], MergeDecision | None] | None = None,
) -> tuple[bytearray | None, dict[int, list[int]]]:
    """One pass over a task's parents, one ``BLOCK_ELEMS`` block at a time.

    ``read(lo, hi)`` gives bytes ``[lo, hi)`` of the task from every
    parent, valid until its next call. Each block is read and decoded
    once per parent and cut into its tensors' segments: a run is one
    block of one segment per tensor, a larger tensor one segment per
    block. A tensor without a decision is diffed segment by segment, so
    its record has the bits of the tensor diffed alone (see
    ``tensor_math``), and once its last block is diffed, ``gate(t,
    diffs)`` gives ``decisions[t]``. The block's segments of
    every tensor decided ``merge`` are combined and encoded at their own
    offset in the task's output buffer, made on the first combine. A
    tensor of several blocks gated in this walk is not combined, since
    its earlier blocks are gone: another walk combines it. The finiteness
    check reads each parent's block once and searches segment by segment
    only a parent that fails it. Returns the output buffer, or None, and
    for each tensor that had any, by index, the 1-based parents that held
    a non-finite value in what was combined.
    """
    dtype = infos[0].dtype
    width = dtype.byte_width
    numels = [info.numel for info in infos]
    ends = list(accumulate(numels))
    starts = [end - numel for end, numel in zip(ends, numels)]
    # A tensor of several blocks gated in this walk has lost its earlier blocks.
    combines = ends[-1] <= BLOCK_ELEMS or None not in decisions
    partials: list[list[list[float]]] = [[[] for _ in scratch.values[1:]] for _ in infos]
    bad: dict[int, set[int]] = {}
    out = None
    for first in range(0, ends[-1], BLOCK_ELEMS):
        last = min(first + BLOCK_ELEMS, ends[-1])
        block = read(first * width, last * width)
        values = [decode(raw, dtype, buf, scratch) for raw, buf in zip(block, scratch.values)]
        segments = [  # (tensor, start, end) in block elements
            (t, (lo if lo > first else first) - first, (hi if hi < last else last) - first)
            for t, (lo, hi) in enumerate(zip(starts, ends)) if lo < last and hi > first
        ]
        if None in decisions:
            cuts = [hi for _, _, hi in segments]
            for k, other in enumerate(values[1:]):
                sums = squared_diff_sums(values[0], other, cuts, scratch)
                for (t, _, _), part in zip(segments, sums):
                    partials[t][k].append(part)
            for t, _, hi in segments:
                if first + hi == ends[t] and decisions[t] is None:
                    diffs = tuple(rms_from_partials(acc, numels[t]) for acc in partials[t])
                    decisions[t] = gate(t, diffs)
        merged = [
            (t, lo, hi) for t, lo, hi in segments
            if combines and decisions[t] is not None and decisions[t].action != ACTION_COPY_BASE
        ]
        if not merged:
            continue
        failing = [i for i, raw in enumerate(block, start=1) if not all_finite(raw, dtype, scratch)]
        spans: list[list[int]] = []
        for t, lo, hi in merged:
            if failing:
                bad.setdefault(t, set()).update(
                    i for i in failing
                    if not all_finite(block[i - 1][lo * width:hi * width], dtype, scratch)
                )
            if spans and spans[-1][1] == lo:
                spans[-1][1] = hi
            else:
                spans.append([lo, hi])
        if out is None:
            out = bytearray(ends[-1] * width)
        target = memoryview(out)[first * width:]
        for lo, hi in spans:
            combined = linear_combination([v[lo:hi] for v in values], lambdas, overwrite=True)
            encode(combined, dtype, scratch, target[lo * width:hi * width])
    return out, {t: sorted(parents) for t, parents in bad.items() if parents}


_Outcome = tuple[
    DiffRecord | None, MergeDecision | None, memoryview | TensorRange | None, list[int]
]


def _tensor_task(
    models: Sequence[CheckpointIndex],
    handles: Sequence[dict[str, int]],
    categories: dict[str, TensorCategory],
    config: MergeConfig | None = None,
    planned: dict[str, MergeDecision] | None = None,
) -> Callable[[Sequence[str]], list[_Outcome]]:
    """The one pass over a run, for diffs, the fused merge and a reviewed plan.

    ``handles`` holds the pass's open shards, one map per model.
    ``planned`` holds the decisions made before any read: every decision
    of a reviewed plan, or the fused pass's copies of tensors outside the
    subset. A planned run of merges is walked once. Otherwise the run is
    walked with a gate that records each tensor's diff, classified by
    ``categories``; without a config the task stops there, with one the
    gate decides each tensor, the walk combines what it can, and a merged
    tensor of several blocks is combined by a second walk, which reads it
    again. Every copy, planned or below the threshold, yields the base
    tensor's range. Returns one (record, decision, output bytes or range,
    non-finite parents) per tensor of the run. The kernels are loaded
    unless every tensor is a planned copy. Each thread that decodes makes
    its own scratch on its first such task, and reads each block into
    one byte buffer per parent, sized to the largest block it has read;
    it keeps both for the rest of the pass.
    """
    base = models[0]
    planned = planned or {}
    lambdas = config.lambdas if config is not None else ()
    if sum(d.action == ACTION_COPY_BASE for d in planned.values()) < len(base.tensors):
        _load_kernels()
    local = threading.local()

    def scratch() -> Scratch:
        if not hasattr(local, "scratch"):
            local.scratch = Scratch(len(models))
        return local.scratch

    def read(run: Sequence[str], lo: int, hi: int) -> list[memoryview]:
        raws = getattr(local, "raws", None)
        if raws is None or len(raws[0]) < hi - lo:
            local.raws = raws = [bytearray(hi - lo) for _ in models]
        return [
            read_tensor_raw(model, run[0], fds, last=run[-1], start=lo, into=raw[:hi - lo])
            for model, fds, raw in zip(models, handles, map(memoryview, raws))
        ]

    def task(run: Sequence[str]) -> list[_Outcome]:
        infos = [base.tensors[name] for name in run]
        decisions = [planned.get(name) for name in run]
        records: list[DiffRecord | None] = [None] * len(run)
        out, bad = None, {}
        if decisions[0] is None:
            cats = [categories[name] for name in run]

            def gate(t: int, diffs: tuple[float, ...]) -> MergeDecision | None:
                records[t] = DiffRecord(run[t], cats[t], diffs, _max_diff(diffs))
                return None if config is None else _decide(records[t], cats[t], config)

            if len(models) == 1 or infos[0].numel == 0:
                decisions = [gate(t, (0.0,) * (len(models) - 1)) for t in range(len(run))]
            else:
                out, bad = _walk(partial(read, run), infos, decisions, scratch(), lambdas, gate)
            if config is None:
                return [(record, None, None, []) for record in records]
        if out is None and any(d.action != ACTION_COPY_BASE for d in decisions):
            out, bad = _walk(partial(read, run), infos, decisions, scratch(), lambdas)
        combined = memoryview(out or b"")  # an empty merged tensor combines nothing
        outcomes: list[_Outcome] = []
        lo = 0  # byte offset of the tensor in combined
        for t, (name, info, record, decision) in enumerate(zip(run, infos, records, decisions)):
            if decision.action != ACTION_COPY_BASE:
                data = combined[lo:lo + info.nbytes]
            else:
                data = tensor_range(base, name, handles=handles[0])
            outcomes.append((record, decision, data, bad.get(t, [])))
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

    At most ``2 * workers`` runs are in flight (one with one worker); each
    worker thread reads one block per parent at a time and decodes it
    into its own scratch, so memory does not grow with tensor size.

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
    categories = {name: classify(name, scheme) for name in names}
    records = []
    # closing() stops the pool before the descriptors close, on error too.
    with shard_handles(models) as handles, closing(
        _ordered_parallel(_runs(models, names), _tensor_task(models, handles, categories), workers)
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
    gate runs inside the pass: a tensor outside the subset is never read,
    every other tensor's parents are read once, diffed, gated and then
    merged or copied, and the resolved plan (equal to ``plan_merge`` over
    ``compute_diffs``) is attached to the report as ``report.plan``. A
    reviewed plan is checked against its own config before anything is
    opened: ``config`` must equal ``plan.config``, and RecipeError refuses
    an unknown action or copy reason. The parents must
    still have the header hashes the plan was computed against. Each
    decision is then taken as given, so copies read only the base and
    merges are not diffed.

    Merge decisions read and decode all parents block by block, combine
    in float64, and re-encode to the original dtype; copy decisions move
    the base model's raw bytes untouched: the base tensor's byte range,
    copied file to file by the writer. The pass holds one read-only
    descriptor per shard of each parent and closes them all when it ends.
    At most ``2 * workers`` runs are in flight (one with one worker); each
    holds the output bytes of what it merges, and each worker thread reads
    one block per parent at a time into buffers it owns and decodes it
    into its own scratch. The output mirrors the base's shards, tensor
    order and index, so reruns are byte-identical. ``workers`` below 1 is
    a ValueError, raised before anything is opened.
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
    if plan is None:
        # A tensor outside the subset is decided before the pass: it joins
        # no run and reads nothing, and the writer copies its base range.
        categories = {name: classify(name, config.scheme) for name in layout}
        planned = {
            name: decision
            for name, category in categories.items()
            if (decision := _subset_copy(name, category, config)) is not None
        }
    else:
        categories = {}  # every tensor is decided
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
        _tensor_task(models, handles, categories, config, planned),
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

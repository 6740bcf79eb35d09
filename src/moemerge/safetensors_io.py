"""Bit-exact reading, validation, and writing of safetensors checkpoints.

File layout: ``[u64-LE header length][UTF-8 JSON header][raw tensor data]``.
Header entries are ``{"dtype": str, "shape": [ints], "data_offsets": [begin,
end]}`` keyed by tensor name, plus an optional ``"__metadata__"`` string map;
offsets are relative to the first byte after the header.

Checkpoints may be a single ``.safetensors`` file, a directory of shards with
a ``*.safetensors.index.json`` weight map, or a directory of shards without
an index (headers are unioned). With an index, the checkpoint is exactly the
shards it references.

Reading a tensor touches only that tensor's byte range, so memory stays
O(tensor), never O(shard). There is one header scan (``_scan_header``) and
one checkpoint walk (``_scan_checkpoint``); both collect every issue instead
of raising. ``read_header`` and ``open_checkpoint`` raise the first issue
that is not a gap (unused bytes in a data region, which opening tolerates);
``validate_checkpoint`` returns them all.

There is one writer (``write_checkpoint``). Its required ``base`` fixes
every shard's name, tensors and header before the first byte is written,
so each shard is written once: header first, then each tensor in place,
into a temp file renamed into place when the shard is complete. It refuses
a directory holding shard or index files it would not replace.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Sequence

from .dtypes import DType
from .errors import FormatError

_HEADER_PREFIX = struct.Struct("<Q")
# Sanity bound on header size; a fuzzer can otherwise make us try to
# allocate whatever a random u64 says.
_MAX_HEADER_BYTES = 256 * 1024 * 1024

INDEX_SUFFIX = ".safetensors.index.json"


@dataclass(frozen=True)
class TensorInfo:
    """Location and type of one tensor at rest."""

    name: str
    dtype: DType
    shape: tuple[int, ...]
    data_offsets: tuple[int, int]  # [begin, end) relative to the data region
    shard: str = ""  # shard file name within the checkpoint

    @property
    def numel(self) -> int:
        return math.prod(self.shape)

    @property
    def nbytes(self) -> int:
        return self.data_offsets[1] - self.data_offsets[0]


@dataclass(frozen=True)
class ShardInfo:
    """One shard file: where its data region starts and what its header was."""

    name: str
    path: Path
    data_start: int  # absolute offset of the data region
    data_size: int  # bytes from data_start to end of file
    header_hash: str  # sha256 over the length prefix + header JSON bytes
    metadata: dict[str, str] | None


@dataclass
class CheckpointIndex:
    """Unified view of a checkpoint: every tensor, across all shards.

    ``tensors`` preserves header order per shard, shards in listed order.
    ``metadata`` is the union of the shards' metadata blocks (later shards
    win on conflicting keys; shards written by this package carry identical
    blocks).
    """

    root: Path
    shards: list[ShardInfo]
    tensors: dict[str, TensorInfo]
    metadata: dict[str, str] | None = None
    index_name: str | None = None  # weight-map file name, when one exists
    index_metadata: dict | None = None  # the index JSON's "metadata" object

    def shard(self, name: str) -> ShardInfo:
        for s in self.shards:
            if s.name == name:
                return s
        raise KeyError(f"no shard named {name!r}")

    def layout_names(self) -> list[str]:
        """Tensor names in physical order: shard order, then data offset."""
        order = {s.name: i for i, s in enumerate(self.shards)}
        return sorted(
            self.tensors,
            key=lambda n: (
                order[self.tensors[n].shard],
                self.tensors[n].data_offsets[0],
                n,
            ),
        )

    def fingerprint(self) -> str:
        """Stable identity of the checkpoint's headers (not its data bytes)."""
        h = hashlib.sha256()
        for s in self.shards:
            h.update(s.name.encode("utf-8"))
            h.update(b"\x00")
            h.update(s.header_hash.encode("ascii"))
            h.update(b"\n")
        return h.hexdigest()


@dataclass(frozen=True)
class ValidationIssue:
    kind: str
    detail: str
    shard: str | None = None
    name: str | None = None

    def __str__(self) -> str:
        where = ":".join(x for x in (self.shard, self.name) if x)
        return f"[{self.kind}] {where}: {self.detail}" if where else f"[{self.kind}] {self.detail}"


def _raise_first(issues: Iterable[ValidationIssue]) -> None:
    """Strict callers: raise the first issue that is not a gap."""
    for issue in issues:
        if issue.kind != "gap":
            raise FormatError(str(issue))


def _check_entry(
    name: str, entry: object, shard: str
) -> tuple[TensorInfo | None, str | None]:
    """Validate one header entry; returns (info, None) or (None, problem)."""
    if not isinstance(entry, dict):
        return None, "entry is not a JSON object"
    extra = set(entry) - {"dtype", "shape", "data_offsets"}
    if extra:
        return None, f"unexpected entry fields {sorted(extra)}"
    missing = {"dtype", "shape", "data_offsets"} - set(entry)
    if missing:
        return None, f"missing entry fields {sorted(missing)}"
    dtype_code = entry["dtype"]
    if not isinstance(dtype_code, str):
        return None, "dtype is not a string"
    try:
        dtype = DType.from_code(dtype_code)
    except FormatError as exc:
        return None, str(exc)
    shape = entry["shape"]
    if not isinstance(shape, list) or any(
        not isinstance(d, int) or isinstance(d, bool) or d < 0 for d in shape
    ):
        return None, f"invalid shape {shape!r}"
    offsets = entry["data_offsets"]
    if (
        not isinstance(offsets, list)
        or len(offsets) != 2
        or any(not isinstance(o, int) or isinstance(o, bool) for o in offsets)
    ):
        return None, f"invalid data_offsets {offsets!r}"
    begin, end = offsets
    if begin < 0 or end < begin:
        return None, f"invalid byte range [{begin}, {end})"
    expected = dtype.byte_width * math.prod(shape)
    if end - begin != expected:
        return None, (
            f"size mismatch: offsets span {end - begin} bytes but "
            f"{dtype.code} x shape {shape} needs {expected}"
        )
    return TensorInfo(name, dtype, tuple(shape), (begin, end), shard), None


def _reject_duplicate_keys(pairs: list[tuple[str, object]]) -> dict:
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise FormatError(f"duplicate tensor name {key!r} in header")
        obj[key] = value
    return obj


@dataclass
class _HeaderScan:
    """What one read of a shard's length prefix and header yields."""

    header_size: int = 0  # JSON byte length; data starts at 8 + header_size
    header_hash: str = ""  # sha256 over the length prefix + header JSON bytes
    data_size: int = 0  # bytes from the data start to the end of the file
    tensors: dict[str, TensorInfo] = field(default_factory=dict)
    metadata: dict[str, str] | None = None
    issues: list[ValidationIssue] = field(default_factory=list)


def _scan_header(f: BinaryIO, shard: str = "") -> _HeaderScan:
    """The one header parser: read prefix and header once, report every issue.

    Never raises for a format problem. Checks the length prefix, the JSON
    (duplicate names included), ``__metadata__``, every entry, and then
    every byte range against the data region (overlaps, overruns, gaps).
    """
    scan = _HeaderScan()
    where = shard or None

    def issue(kind: str, detail: str, name: str | None = None) -> _HeaderScan:
        scan.issues.append(ValidationIssue(kind, detail, shard=where, name=name))
        return scan

    pos = f.tell()
    file_size = f.seek(0, os.SEEK_END) - pos
    f.seek(pos)
    prefix = f.read(8)
    if len(prefix) < 8:
        return issue("parse_error", "truncated file: missing 8-byte header length")
    (header_size,) = _HEADER_PREFIX.unpack(prefix)
    if header_size > _MAX_HEADER_BYTES:
        return issue("parse_error", f"header length {header_size} exceeds sanity bound")
    if 8 + header_size > file_size:
        return issue(
            "parse_error", f"header length {header_size} exceeds file size {file_size}"
        )
    header_bytes = f.read(header_size)
    scan.header_size = header_size
    scan.header_hash = hashlib.sha256(prefix + header_bytes).hexdigest()
    scan.data_size = file_size - 8 - header_size
    try:
        obj = json.loads(
            header_bytes.decode("utf-8"), object_pairs_hook=_reject_duplicate_keys
        )
    except FormatError as exc:
        return issue("parse_error", str(exc))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return issue("parse_error", f"malformed header JSON: {exc}")
    if not isinstance(obj, dict):
        return issue("parse_error", "header JSON is not an object")

    for name, entry in obj.items():
        if name == "__metadata__":
            if isinstance(entry, dict) and all(isinstance(v, str) for v in entry.values()):
                scan.metadata = dict(entry)
            else:
                issue("parse_error", "__metadata__ must be a string-to-string map")
            continue
        info, problem = _check_entry(name, entry, shard)
        if problem is not None:
            kind = "size_mismatch" if problem.startswith("size mismatch") else "bad_entry"
            issue(kind, problem, name)
        else:
            assert info is not None
            scan.tensors[name] = info

    spans = sorted((t.data_offsets[0], t.data_offsets[1], t.name) for t in scan.tensors.values())
    prev_end = 0
    prev_name: str | None = None
    for begin, end, name in spans:
        if end > scan.data_size:
            issue(
                "out_of_bounds",
                f"range [{begin}, {end}) exceeds data region of {scan.data_size} bytes",
                name,
            )
        if begin < prev_end:
            issue("overlap", f"overlaps {prev_name!r}", name)
        elif begin > prev_end:
            issue("gap", f"{begin - prev_end} unused bytes before [{begin}, {end})", name)
        prev_end = max(prev_end, end)
        prev_name = name
    if spans and prev_end < scan.data_size:
        issue("gap", f"{scan.data_size - prev_end} trailing unused bytes")
    return scan


def read_header(
    f: BinaryIO, shard: str = ""
) -> tuple[int, dict[str, TensorInfo], dict[str, str] | None]:
    """Parse the header of an open safetensors file.

    Returns ``(header_size, tensors, metadata)`` where ``header_size`` is the
    JSON byte length (the data region starts at ``8 + header_size``) and
    ``tensors`` preserves the header's entry order.

    Raises FormatError on the first non-gap issue ``_scan_header`` finds:
    truncation, header length exceeding the file, bad JSON, duplicate names,
    size-violating offsets, unknown dtypes, ranges outside the data region
    or overlapping each other.
    """
    scan = _scan_header(f, shard)
    _raise_first(scan.issues)
    return scan.header_size, scan.tensors, scan.metadata


def _load_index(root: Path) -> tuple[str, dict[str, str], dict | None] | None:
    """The directory's index file: (file name, weight map, metadata), or None.

    Raises FormatError for several index files or a malformed one.
    """
    candidates = sorted(p for p in root.iterdir() if p.name.endswith(INDEX_SUFFIX))
    if not candidates:
        return None
    if len(candidates) > 1:
        raise FormatError(f"{root}: multiple index files: {[p.name for p in candidates]}")
    path = candidates[0]
    try:
        obj = json.loads(path.read_text("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path.name}: malformed index JSON: {exc}") from exc
    weight_map = obj.get("weight_map") if isinstance(obj, dict) else None
    if not isinstance(weight_map, dict) or not all(
        isinstance(v, str) for v in weight_map.values()
    ):
        raise FormatError(f"{path.name}: index lacks a weight_map of names to shard files")
    return path.name, weight_map, obj.get("metadata")


def _scan_checkpoint(root: Path) -> tuple[CheckpointIndex, list[ValidationIssue]]:
    """The one walk behind ``open_checkpoint`` and ``validate_checkpoint``.

    The shard set is the file itself, the shards the index references, or
    every ``*.safetensors`` file of an index-less directory. Returns the
    index built from the well-formed entries and every issue found.
    """
    index = CheckpointIndex(root=root, shards=[], tensors={})
    issues: list[ValidationIssue] = []
    weight_map: dict[str, str] | None = None
    if root.is_file():
        shard_paths = [root]
    else:
        try:
            loaded = _load_index(root)
        except FormatError as exc:
            return index, [ValidationIssue("index_error", str(exc))]
        if loaded is None:
            shard_paths = sorted(p for p in root.glob("*.safetensors") if p.is_file())
        else:
            index.index_name, weight_map, index.index_metadata = loaded
            shard_paths = [root / n for n in sorted(set(weight_map.values()))]
    if not shard_paths:
        issues.append(ValidationIssue("empty", f"{root}: no .safetensors files found"))

    scanned: dict[str, dict[str, TensorInfo]] = {}
    for path in shard_paths:
        if not path.is_file():
            detail = f"missing shard {path.name!r} referenced by index"
            issues.append(ValidationIssue("missing_shard", detail))
            continue
        with open(path, "rb") as f:
            scan = _scan_header(f, path.name)
        issues.extend(scan.issues)
        index.shards.append(
            ShardInfo(
                name=path.name,
                path=path,
                data_start=8 + scan.header_size,
                data_size=scan.data_size,
                header_hash=scan.header_hash,
                metadata=scan.metadata,
            )
        )
        if scan.metadata:
            index.metadata = {**(index.metadata or {}), **scan.metadata}
        scanned[path.name] = scan.tensors
        for name, info in scan.tensors.items():
            if name in index.tensors:
                issues.append(
                    ValidationIssue(
                        "duplicate_name",
                        f"tensor appears in both {index.tensors[name].shard!r} "
                        f"and {path.name!r}",
                        shard=path.name,
                        name=name,
                    )
                )
                continue
            if weight_map is not None and name not in weight_map:
                issues.append(
                    ValidationIssue(
                        "unmapped", "tensor missing from the weight map",
                        shard=path.name, name=name,
                    )
                )
            index.tensors[name] = info

    for name, shard_name in (weight_map or {}).items():
        if shard_name in scanned and name not in scanned[shard_name]:
            issues.append(
                ValidationIssue(
                    "dangling_reference",
                    f"index maps the tensor to {shard_name!r} but the shard lacks it",
                    name=name,
                )
            )
    if not index.tensors and not issues:
        issues.append(ValidationIssue("empty", f"{root}: empty checkpoint, no tensors"))
    return index, issues


def open_checkpoint(path: str | Path) -> CheckpointIndex:
    """Open a checkpoint file or directory into one unified index.

    Raises FileNotFoundError for a missing path, else FormatError on the
    first non-gap issue ``validate_checkpoint`` would report: malformed
    shards, duplicate tensor names across shards, shards the index
    references but that are missing, tensors the index omits or misplaces,
    or an empty checkpoint.
    """
    root = Path(path)
    if not root.exists():
        raise FileNotFoundError(f"no such checkpoint: {root}")
    index, issues = _scan_checkpoint(root)
    _raise_first(issues)
    return index


def validate_checkpoint(target: CheckpointIndex | str | Path) -> list[ValidationIssue]:
    """Collect every format violation instead of raising on the first.

    Accepts an already-open index (its root is rescanned) or a path (file
    or directory). Reports exactly what ``open_checkpoint`` rejects, plus
    gaps: unused bytes in a data region, which opening tolerates.
    """
    root = target.root if isinstance(target, CheckpointIndex) else Path(target)
    if not root.exists():
        return [ValidationIssue("missing_file", f"no such path: {root}")]
    return _scan_checkpoint(root)[1]


def read_tensor_raw(index: CheckpointIndex, name: str) -> bytes:
    """Read exactly one tensor's bytes (seek + bounded read, never the shard)."""
    try:
        info = index.tensors[name]
    except KeyError:
        raise KeyError(f"no tensor named {name!r} in checkpoint {index.root}") from None
    shard = index.shard(info.shard)
    begin, end = info.data_offsets
    with open(shard.path, "rb") as f:
        f.seek(shard.data_start + begin)
        raw = f.read(end - begin)
    if len(raw) != end - begin:
        raise FormatError(
            f"{shard.name}: tensor {name!r} byte range ends past end of shard"
        )
    return raw


# ---------------------------------------------------------------------------
# Writing


@dataclass(frozen=True)
class OutputPolicy:
    """How merged/written checkpoints are laid out on disk.

    ``mirror`` reproduces the base checkpoint's shard assignment and tensor
    order exactly; ``pack`` fills shards sequentially up to
    ``max_shard_bytes``. Both are deterministic.
    """

    mode: str = "mirror"  # "mirror" | "pack"
    max_shard_bytes: int = 2 * 1024 * 1024 * 1024
    shard_template: str = "model-{index:05d}-of-{count:05d}.safetensors"
    index_name: str = "model.safetensors.index.json"

    def validated(self) -> "OutputPolicy":
        if self.mode not in ("mirror", "pack"):
            raise ValueError(f"unknown output mode {self.mode!r}")
        if self.max_shard_bytes < 1:
            raise ValueError("max_shard_bytes must be positive")
        return self


def _data_len(info: TensorInfo) -> int:
    return info.dtype.byte_width * info.numel


def _serialize_header(
    entries: list[TensorInfo], metadata: dict[str, str] | None
) -> bytes:
    obj: dict[str, object] = {}
    if metadata:
        obj["__metadata__"] = dict(metadata)
    offset = 0
    for info in entries:
        expected = _data_len(info)
        obj[info.name] = {
            "dtype": info.dtype.code,
            "shape": list(info.shape),
            "data_offsets": [offset, offset + expected],
        }
        offset += expected
    text = json.dumps(obj, separators=(",", ":"), ensure_ascii=True)
    payload = text.encode("utf-8")
    pad = (8 - (8 + len(payload)) % 8) % 8
    return payload + b" " * pad


# One output file: its name, its tensors in data order, its metadata block.
_Shard = tuple[str, list[TensorInfo], dict[str, str] | None]
# The weight-map file, when one is written: its name and "metadata" object.
_Index = tuple[str, dict | None]


def _write_index_json(
    path: Path, weight_map: dict[str, str], index_metadata: dict | None
) -> None:
    obj = {"metadata": index_metadata or {}, "weight_map": weight_map}
    path.write_text(json.dumps(obj, indent=2) + "\n", "utf-8")


def _merged_metadata(
    base: dict[str, str] | None, extra: dict[str, str] | None
) -> dict[str, str] | None:
    if not base and not extra:
        return None
    return {**(base or {}), **(extra or {})}


def _mirror_layout(
    base: CheckpointIndex, infos: list[TensorInfo], metadata: dict[str, str] | None
) -> tuple[list[_Shard], _Index | None]:
    """The base's shards and tensor order, its metadata blocks with
    ``metadata`` layered on top, and an index only if the base has one."""
    shards = {s.name: (s.name, [], _merged_metadata(s.metadata, metadata)) for s in base.shards}
    for info in infos:
        shards[info.shard][1].append(info)
    index = None if base.index_name is None else (base.index_name, base.index_metadata)
    return [s for s in shards.values() if s[1]], index


def _pack_layout(
    infos: list[TensorInfo], policy: OutputPolicy, metadata: dict[str, str] | None
) -> tuple[list[_Shard], _Index]:
    """Fill shards in order up to ``max_shard_bytes``; always with an index."""
    groups: list[list[TensorInfo]] = []
    free = 0
    for info in infos:
        size = _data_len(info)
        if size > policy.max_shard_bytes:
            raise FormatError(
                f"tensor {info.name!r} ({size} bytes) exceeds "
                f"max shard size {policy.max_shard_bytes}"
            )
        if not groups or size > free:
            groups.append([])
            free = policy.max_shard_bytes
        groups[-1].append(info)
        free -= size
    shards = [
        (policy.shard_template.format(index=i + 1, count=len(groups)), group, metadata)
        for i, group in enumerate(groups)
    ]
    total = sum(_data_len(info) for info in infos)
    return shards, (policy.index_name, {"total_size": total})


def _next_planned(pairs: Iterator[tuple[TensorInfo, bytes]], want: TensorInfo) -> bytes:
    """The stream's next tensor bytes, checked against the planned entry."""
    try:
        info, data = next(pairs)
    except StopIteration:
        raise FormatError(f"stream ended early: missing {want.name!r}") from None
    if info.name != want.name:
        raise FormatError(
            f"stream out of base order: got {info.name!r}, expected {want.name!r}"
        )
    if info.dtype is not want.dtype or info.shape != want.shape:
        raise FormatError(
            f"tensor {info.name!r}: got {info.dtype.code} {list(info.shape)}, "
            f"planned {want.dtype.code} {list(want.shape)}"
        )
    if len(data) != _data_len(want):
        raise FormatError(
            f"tensor {info.name!r}: got {len(data)} bytes, expected {_data_len(want)}"
        )
    return data


def _write_shards(
    stream: Iterable[tuple[TensorInfo, bytes]], directory: Path, shards: list[_Shard]
) -> None:
    """Write each shard once: its fixed header, then its tensors in place.

    A shard is written to a hidden temp file and renamed to its final name
    only when complete, after the last shard has checked that the stream
    holds nothing more. On any error the open temp file is removed.
    """
    pairs = iter(stream)
    for i, (name, entries, metadata) in enumerate(shards):
        tmp = directory / f".{name}.tmp"
        try:
            with open(tmp, "wb") as f:
                header = _serialize_header(entries, metadata)
                f.write(_HEADER_PREFIX.pack(len(header)) + header)
                for want in entries:
                    f.write(_next_planned(pairs, want))
            if i == len(shards) - 1 and (extra := next(pairs, None)) is not None:
                raise FormatError(f"stream yields {extra[0].name!r} beyond the base tensor set")
            os.replace(tmp, directory / name)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise


def write_checkpoint(
    stream: Iterable[tuple[TensorInfo, bytes]],
    out: str | Path,
    policy: OutputPolicy | None = None,
    *,
    base: CheckpointIndex | Sequence[TensorInfo],
    metadata: dict[str, str] | None = None,
) -> CheckpointIndex:
    """Write a checkpoint from an ordered stream of (info, bytes) pairs.

    ``base`` fixes the layout before any byte is written: a
    ``CheckpointIndex`` (its physical tensor order, and in mirror mode its
    shards) or the ordered ``TensorInfo`` list the stream will yield. The
    stream must follow that order exactly, and each tensor must match its
    planned dtype, shape and byte length.

    ``out`` may be a ``.safetensors`` file path (one shard, no index) or a
    directory. In mirror mode shard names, assignment, metadata blocks and
    the presence of an index file all mirror the base, with ``metadata``
    keys layered on top. In pack mode shards fill sequentially up to
    ``max_shard_bytes``, are named by ``shard_template`` and an index file
    is always written.

    Every header is fixed first, so each shard's data is written once, in
    place, and the shard is renamed into place when complete. Layout
    errors (empty layout, duplicate names, a tensor larger than a shard,
    mirror mode without a base index) raise before any file is created. A
    directory that holds ``*.safetensors`` or index files this write would
    not replace raises FileExistsError, so they cannot join the output.
    Returns the reopened index of what was written.
    """
    out = Path(out)
    policy = (policy or OutputPolicy()).validated()
    if isinstance(base, CheckpointIndex):
        infos = [base.tensors[n] for n in base.layout_names()]
    else:
        infos = list(base)
    if out.suffix == ".safetensors":
        directory, shards, index = out.parent, [(out.name, infos, metadata)], None
    elif policy.mode == "pack":
        directory, (shards, index) = out, _pack_layout(infos, policy, metadata)
    elif isinstance(base, CheckpointIndex):
        directory, (shards, index) = out, _mirror_layout(base, infos, metadata)
    else:
        raise ValueError("mirror mode requires a base checkpoint index")

    names = [info.name for _, entries, _ in shards for info in entries]
    if not names:
        raise FormatError("refusing to write an empty checkpoint")
    repeated = sorted(n for n, k in Counter(names).items() if k > 1)
    if repeated:
        raise FormatError(f"duplicate tensor names in the layout: {repeated}")
    if directory == out:
        planned = {name for name, _, _ in shards}
        if index is not None:
            planned.add(index[0])
        foreign = sorted(
            p.name
            for p in (out.iterdir() if out.is_dir() else ())
            if p.name.endswith((".safetensors", INDEX_SUFFIX)) and p.name not in planned
        )
        if foreign:
            raise FileExistsError(
                f"{out} holds shard or index files this write would not replace: "
                f"{foreign}; remove them first"
            )
        out.mkdir(parents=True, exist_ok=True)

    _write_shards(stream, directory, shards)
    if index is not None:
        weight_map = {info.name: name for name, entries, _ in shards for info in entries}
        _write_index_json(out / index[0], weight_map, index[1])
    return open_checkpoint(out)

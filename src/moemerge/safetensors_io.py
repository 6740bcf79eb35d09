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
O(tensor), never O(shard). A pass over weights opens one read-only
descriptor per shard (``shard_handles``) and reads each tensor, or each
run of adjacent tensors, from it with one positioned read, so threads
share descriptors without seeking.
There is one header reader (``_read_header``: the length prefix and
header bytes, read once and hashed), one header scan (``_scan_header``,
which parses what the reader returns), one shard-list rule
(``_shard_paths``), one checkpoint walk (``_scan_checkpoint``) and one
fingerprint formula (``_fingerprint``); all collect every issue instead
of raising. ``read_header`` and ``open_checkpoint`` raise the first issue
that is not a gap (unused bytes in a data region, which opening
tolerates); ``validate_checkpoint`` returns them all.
``header_fingerprint`` lists and reads the shards the same way but
parses no header: it returns ``open_checkpoint(path).fingerprint()`` for
callers that need only the identity of a checkpoint's headers.

There is one writer (``write_checkpoint``). Its required ``base`` fixes
every shard's name, tensors and header before the first byte is written
(a checkpoint's layout is mirrored, a list of tensors is packed), so each
shard is written once: header first, then each tensor in place.
A tensor arrives as bytes or as a ``TensorRange`` of an open shard; each
run of adjacent ranges is copied file to file in the kernel, without
passing through Python. The writer returns the index of what it laid
out, so the output is never scanned again. Every file of an output goes
into a fresh hidden sibling directory that replaces the output as a
whole when all are complete, so a failed write leaves the output as it
was.
"""

from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import shutil
import struct
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence

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
        try:
            return self._shards_by_name[name]
        except KeyError:
            raise KeyError(f"no shard named {name!r}") from None

    @cached_property
    def _shards_by_name(self) -> dict[str, ShardInfo]:
        # Built on first lookup; an index's shard list is complete by then.
        return {s.name: s for s in self.shards}

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
        return _fingerprint((s.name, s.header_hash) for s in self.shards)


def _fingerprint(shards: Iterable[tuple[str, str]]) -> str:
    """The one fingerprint formula over (shard name, header hash) pairs, in
    shard order."""
    h = hashlib.sha256()
    for name, header_hash in shards:
        h.update(name.encode("utf-8"))
        h.update(b"\x00")
        h.update(header_hash.encode("ascii"))
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


def _read_header(f: BinaryIO, shard: str = "") -> tuple[_HeaderScan, bytes]:
    """The one header reader: a shard's length prefix and header bytes, read once.

    Returns a scan with ``header_size``, ``header_hash`` and ``data_size``
    set, and the header bytes. A prefix that is truncated or whose length
    passes the sanity bound or the end of the file is a ``parse_error``
    issue instead, with no bytes. Never parses the header.
    """
    scan = _HeaderScan()
    pos = f.tell()
    file_size = f.seek(0, os.SEEK_END) - pos
    f.seek(pos)
    prefix = f.read(8)
    if len(prefix) < 8:
        problem = "truncated file: missing 8-byte header length"
    else:
        (header_size,) = _HEADER_PREFIX.unpack(prefix)
        if header_size > _MAX_HEADER_BYTES:
            problem = f"header length {header_size} exceeds sanity bound"
        elif 8 + header_size > file_size:
            problem = f"header length {header_size} exceeds file size {file_size}"
        else:
            header_bytes = f.read(header_size)
            scan.header_size = header_size
            scan.header_hash = hashlib.sha256(prefix + header_bytes).hexdigest()
            scan.data_size = file_size - 8 - header_size
            return scan, header_bytes
    scan.issues.append(ValidationIssue("parse_error", problem, shard=shard or None))
    return scan, b""


def _scan_header(f: BinaryIO, shard: str = "") -> _HeaderScan:
    """The one header parser: read prefix and header once, report every issue.

    Never raises for a format problem. Checks the length prefix, the JSON
    (duplicate names included), ``__metadata__``, every entry, and then
    every byte range against the data region (overlaps, overruns, gaps).
    """
    scan, header_bytes = _read_header(f, shard)
    if scan.issues:
        return scan
    where = shard or None

    def issue(kind: str, detail: str, name: str | None = None) -> _HeaderScan:
        scan.issues.append(ValidationIssue(kind, detail, shard=where, name=name))
        return scan

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


def _shard_paths(
    root: Path, issues: list[ValidationIssue]
) -> tuple[list[Path], tuple[str, dict[str, str], dict | None] | None]:
    """The one shard-list rule: the file itself, the shards the index
    references, or every ``*.safetensors`` file of an index-less directory.

    Returns the shards present, in order, and the loaded index (or None).
    A missing path, a bad index, an empty list and each listed shard that
    is missing append an issue to ``issues``.
    """
    if not root.exists():
        issues.append(ValidationIssue("missing_file", f"no such path: {root}"))
        return [], None
    if root.is_file():
        return [root], None
    try:
        loaded = _load_index(root)
    except FormatError as exc:
        issues.append(ValidationIssue("index_error", str(exc)))
        return [], None
    if loaded is None:
        paths = sorted(p for p in root.glob("*.safetensors") if p.is_file())
    else:
        paths = [root / n for n in sorted(set(loaded[1].values()))]
    if not paths:
        issues.append(ValidationIssue("empty", f"{root}: no .safetensors files found"))
    present = []
    for path in paths:
        if path.is_file():
            present.append(path)
        else:
            detail = f"missing shard {path.name!r} referenced by index"
            issues.append(ValidationIssue("missing_shard", detail))
    return present, loaded


def _scan_checkpoint(root: Path) -> tuple[CheckpointIndex, list[ValidationIssue]]:
    """The one walk behind ``open_checkpoint`` and ``validate_checkpoint``.

    Scans every shard ``_shard_paths`` lists. Returns the index built from
    the well-formed entries and every issue found.
    """
    index = CheckpointIndex(root=root, shards=[], tensors={})
    issues: list[ValidationIssue] = []
    weight_map: dict[str, str] | None = None
    shard_paths, loaded = _shard_paths(root, issues)
    if loaded is not None:
        index.index_name, weight_map, index.index_metadata = loaded

    scanned: dict[str, dict[str, TensorInfo]] = {}
    for path in shard_paths:
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


def header_fingerprint(path: str | Path) -> str:
    """``open_checkpoint(path).fingerprint()``, from header bytes alone.

    Lists the shards as opening does (reading the index, if any), then
    reads each shard's length prefix and header bytes and hashes them, but
    never parses a header or checks an entry. Raises
    like ``open_checkpoint`` for what it sees: FileNotFoundError for a
    missing path, FormatError for a bad index, a missing shard, an empty
    checkpoint, or a prefix that is truncated or points past the file's
    end. A header that is otherwise malformed only hashes differently.
    """
    root = Path(path)
    if not root.exists():
        raise FileNotFoundError(f"no such checkpoint: {root}")
    issues: list[ValidationIssue] = []
    shards = []
    for shard_path in _shard_paths(root, issues)[0]:
        with open(shard_path, "rb") as f:
            scan, _ = _read_header(f, shard_path.name)
        issues.extend(scan.issues)
        shards.append((shard_path.name, scan.header_hash))
    _raise_first(issues)
    return _fingerprint(shards)


def validate_checkpoint(target: CheckpointIndex | str | Path) -> list[ValidationIssue]:
    """Collect every format violation instead of raising on the first.

    Accepts an already-open index (its root is rescanned) or a path (file
    or directory). Reports exactly what ``open_checkpoint`` rejects, plus
    gaps: unused bytes in a data region, which opening tolerates.
    """
    root = target.root if isinstance(target, CheckpointIndex) else Path(target)
    return _scan_checkpoint(root)[1]


@contextmanager
def shard_handles(indexes: Sequence[CheckpointIndex]) -> Iterator[list[dict[str, int]]]:
    """One read-only descriptor per shard of each checkpoint, for one pass.

    Yields one ``{shard name: descriptor}`` map per checkpoint, in order.
    Every descriptor is closed when the block ends, on error too.
    """
    handles: list[dict[str, int]] = []
    try:
        for index in indexes:
            handles.append({})
            for s in index.shards:
                handles[-1][s.name] = os.open(s.path, os.O_RDONLY)
        yield handles
    finally:
        for fds in handles:
            for fd in fds.values():
                os.close(fd)


@dataclass(frozen=True)
class TensorRange:
    """One tensor's bytes at rest: a shard's open descriptor, an absolute
    offset and a length. ``write_checkpoint`` copies it file to file."""

    fd: int
    shard: str  # the shard's name, for errors
    offset: int
    length: int


def _past_end(shard: str, name: str) -> FormatError:
    return FormatError(f"{shard}: tensor {name!r} byte range ends past end of shard")


def _locate(index: CheckpointIndex, name: str) -> tuple[ShardInfo, int, int]:
    """The tensor's shard, absolute offset and byte length."""
    try:
        info = index.tensors[name]
    except KeyError:
        raise KeyError(f"no tensor named {name!r} in checkpoint {index.root}") from None
    shard = index.shard(info.shard)
    return shard, shard.data_start + info.data_offsets[0], info.nbytes


def tensor_range(index: CheckpointIndex, name: str, handles: Mapping[str, int]) -> TensorRange:
    """Where one tensor's bytes rest, in a shard open in ``handles``."""
    shard, offset, length = _locate(index, name)
    return TensorRange(handles[shard.name], shard.name, offset, length)


def _cut_tensor(
    index: CheckpointIndex, shard: ShardInfo, start: int, end: int, reached: int
) -> str:
    """The first tensor of ``shard`` in the absolute span [start, end) whose
    bytes end past ``reached``, the shard's end."""
    return min(
        (info.data_offsets[0], info.name)
        for info in index.tensors.values()
        if info.shard == shard.name
        and start <= shard.data_start + info.data_offsets[0] < end
        and shard.data_start + info.data_offsets[1] > reached
    )[1]


def read_tensor_raw(
    index: CheckpointIndex,
    name: str,
    handles: Mapping[str, int] | None = None,
    *,
    last: str | None = None,
) -> bytes:
    """Read exactly one tensor's bytes with a positioned read, never the shard.

    ``handles`` maps shard names to the descriptors a pass holds open (see
    ``shard_handles``); without it the shard is opened for this read alone.
    With ``last``, the read spans a run of tensors adjacent in one shard:
    every byte from ``name``'s first to ``last``'s final one. A shard too
    short raises FormatError naming the first tensor it cannot supply.
    """
    shard, offset, length = _locate(index, name)
    if last not in (None, name):
        end_shard, end_offset, end_length = _locate(index, last)
        if end_shard is not shard or end_offset < offset:
            raise ValueError(f"tensor {last!r} does not follow {name!r} in one shard")
        length = end_offset + end_length - offset
    start, end = offset, offset + length
    fd = handles[shard.name] if handles is not None else os.open(shard.path, os.O_RDONLY)
    parts = []
    try:
        # One pread returns at most about 2 GiB on Linux; it is short
        # otherwise only at the end of the file.
        while length:
            part = os.pread(fd, length, offset)
            if not part:
                raise _past_end(shard.name, _cut_tensor(index, shard, start, end, offset))
            parts.append(part)
            offset += len(part)
            length -= len(part)
    finally:
        if handles is None:
            os.close(fd)
    return b"".join(parts)


# ---------------------------------------------------------------------------
# Writing


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
    infos: list[TensorInfo], max_shard_bytes: int, metadata: dict[str, str] | None
) -> tuple[list[_Shard], _Index]:
    """Fill shards in order up to ``max_shard_bytes``; always with an index."""
    groups: list[list[TensorInfo]] = []
    free = 0
    for info in infos:
        size = _data_len(info)
        if size > max_shard_bytes:
            raise FormatError(
                f"tensor {info.name!r} ({size} bytes) exceeds "
                f"max shard size {max_shard_bytes}"
            )
        if not groups or size > free:
            groups.append([])
            free = max_shard_bytes
        groups[-1].append(info)
        free -= size
    shards = [
        (f"model-{i + 1:05d}-of-{len(groups):05d}.safetensors", group, metadata)
        for i, group in enumerate(groups)
    ]
    total = sum(_data_len(info) for info in infos)
    return shards, ("model" + INDEX_SUFFIX, {"total_size": total})


_Data = bytes | bytearray | memoryview | TensorRange


def _next_planned(pairs: Iterator[tuple[TensorInfo, _Data]], want: TensorInfo) -> _Data:
    """The stream's next tensor bytes or range, checked against the planned entry."""
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
    size = data.length if isinstance(data, TensorRange) else len(data)
    if size != _data_len(want):
        raise FormatError(
            f"tensor {info.name!r}: got {size} bytes, expected {_data_len(want)}"
        )
    return data


# The kernel refuses copy_file_range for these (across file systems, an
# old kernel, an unsupported file system); a bounded read/write loop then
# moves the bytes instead.
_NO_KERNEL_COPY = (errno.EXDEV, errno.ENOSYS, errno.EINVAL, errno.EOPNOTSUPP)
_COPY_CHUNK = 1 << 20


def _extends(last: TensorRange, data: _Data) -> bool:
    """Whether ``data`` is the range right after ``last`` in the same shard."""
    return (
        isinstance(data, TensorRange)
        and data.fd == last.fd
        and data.offset == last.offset + last.length
    )


def _copy_run(run: list[tuple[str, TensorRange]], f: BinaryIO) -> None:
    """Append a run of adjacent ranges of one shard to ``f``, then empty ``run``.

    Raises FormatError naming the first tensor the source cannot supply.
    """
    if not run:
        return
    src, offset = run[0][1].fd, run[0][1].offset
    length = run[-1][1].offset + run[-1][1].length - offset
    f.flush()
    dst, start = f.fileno(), f.tell()
    done = 0
    kernel_copy = getattr(os, "copy_file_range", None)
    try:
        while kernel_copy is not None and done < length:
            n = kernel_copy(src, dst, length - done, offset + done, start + done)
            if n == 0:
                break
            done += n
    except OSError as exc:
        if exc.errno not in _NO_KERNEL_COPY:
            raise
        kernel_copy = None
    f.seek(start + done)
    while kernel_copy is None and done < length:
        chunk = os.pread(src, min(_COPY_CHUNK, length - done), offset + done)
        if not chunk:
            break
        f.write(chunk)
        done += len(chunk)
    if done < length:
        name, r = next((n, r) for n, r in run if r.offset + r.length > offset + done)
        raise _past_end(r.shard, name)
    run.clear()


def _check_replaceable(out: Path, sidecars: Mapping[str, object]) -> None:
    """Raise FileExistsError for an ``out`` that ``write_checkpoint`` may not replace."""
    if out.is_symlink() or out.exists() and not out.is_dir():
        raise FileExistsError(f"{out} exists and is not a directory")
    foreign = sorted(
        p.name
        for p in (out.iterdir() if out.exists() else ())
        if p.is_symlink() or not p.is_file()
        or not (p.name.endswith((".safetensors", INDEX_SUFFIX)) or p.name in sidecars)
    )
    if foreign:
        raise FileExistsError(f"{out} holds entries no checkpoint write makes: {foreign}")


def write_checkpoint(
    stream: Iterable[tuple[TensorInfo, _Data]],
    out: str | Path,
    *,
    base: CheckpointIndex | Sequence[TensorInfo],
    metadata: dict[str, str] | None = None,
    sidecars: Mapping[str, Callable[[list[str]], str]] | None = None,
    max_shard_bytes: int = 2 * 1024 * 1024 * 1024,
) -> CheckpointIndex:
    """Write a checkpoint from an ordered stream of (info, data) pairs.

    ``base`` fixes the layout before any byte is written. A
    ``CheckpointIndex`` is mirrored, as every merge is: its physical tensor
    order, shard names and assignment, its metadata blocks with
    ``metadata`` keys layered on top, and its index file's name and
    presence; ``max_shard_bytes`` plays no part. An ordered ``TensorInfo``
    list is packed: shards fill in order up to ``max_shard_bytes``, are
    named ``model-00001-of-0000N.safetensors`` and carry ``metadata``, and
    ``model.safetensors.index.json`` is always written.

    The stream must follow the layout's order exactly, and each tensor
    must match its planned dtype, shape and byte length. Data is the
    tensor's bytes (``bytes``, ``bytearray`` or a byte ``memoryview``) or
    a ``TensorRange`` whose descriptor stays open until this returns.
    Each run of ranges adjacent in one source shard is copied
    with ``os.copy_file_range``, or with a bounded read/write loop where
    the kernel cannot copy; a source too short raises FormatError naming
    the shard and tensor.

    ``out`` is a directory. ``sidecars`` names more files of the output,
    each rendered from the sorted shard names after the last tensor.

    Every file is written once, into a fresh hidden sibling of ``out``
    that replaces ``out`` as a whole only when all are complete; on any
    error ``out`` is left as it was. So ``out`` must end in a name of its
    own: ``.``, ``..`` and ``/`` raise ValueError. That, an empty or
    duplicated tensor list or a tensor larger than ``max_shard_bytes``
    (FormatError), an ``out`` ending in ``.safetensors`` (ValueError: no
    single-file output) and an existing ``out`` holding anything but a
    directory of regular shard, index or sidecar files (FileExistsError)
    raise before any file is created. Returns the index of what was
    written, built from the layout; it equals ``open_checkpoint(out)``.
    """
    out = Path(out)
    if out.name in ("", ".."):
        raise ValueError(
            f"cannot write to {str(out)!r}: name the output directory by its own "
            "path (for example ../child, not .)"
        )
    sidecars = sidecars or {}
    mirror = isinstance(base, CheckpointIndex)
    infos = [base.tensors[n] for n in base.layout_names()] if mirror else list(base)
    if not infos:
        raise FormatError("refusing to write an empty checkpoint")
    repeated = sorted(n for n, k in Counter(info.name for info in infos).items() if k > 1)
    if repeated:
        raise FormatError(f"duplicate tensor names in the layout: {repeated}")
    if out.suffix == ".safetensors":
        raise ValueError(
            f"cannot write {str(out)!r}: single-file output is not supported; "
            "name an output directory"
        )
    if mirror:
        shards, index = _mirror_layout(base, infos, metadata)
    else:
        shards, index = _pack_layout(infos, max_shard_bytes, metadata)
    _check_replaceable(out, sidecars)

    headers: dict[str, bytes] = {}  # each shard's length prefix and header
    for name, entries, shard_metadata in shards:
        header = _serialize_header(entries, shard_metadata)
        headers[name] = _HEADER_PREFIX.pack(len(header)) + header

    out.parent.mkdir(parents=True, exist_ok=True)
    # mkdir, not tempfile.mkdtemp (mode 0700): the output gets the umask's mode.
    stage = out.with_name(f".{out.name}.{os.urandom(8).hex()}")
    stage.mkdir()
    try:
        pairs = iter(stream)
        for name, entries, _ in shards:
            with open(stage / name, "wb") as f:
                f.write(headers[name])
                run: list[tuple[str, TensorRange]] = []
                for want in entries:
                    data = _next_planned(pairs, want)
                    if run and not _extends(run[-1][1], data):
                        _copy_run(run, f)
                    if isinstance(data, TensorRange):
                        run.append((want.name, data))
                    else:
                        f.write(data)
                _copy_run(run, f)
        if (extra := next(pairs, None)) is not None:
            raise FormatError(f"stream yields {extra[0].name!r} beyond the base tensor set")
        if index is not None:
            weight_map = {info.name: name for name, entries, _ in shards for info in entries}
            obj = {"metadata": index[1] or {}, "weight_map": weight_map}
            (stage / index[0]).write_text(json.dumps(obj, indent=2) + "\n", "utf-8")
        for name, render in sidecars.items():
            (stage / name).write_text(render(sorted(s[0] for s in shards)), "utf-8")
        if not out.exists():
            os.rename(stage, out)
        else:
            aside = stage.with_name(stage.name + ".old")
            os.rename(out, aside)
            try:
                os.rename(stage, out)
            except BaseException:
                os.rename(aside, out)
                raise
            shutil.rmtree(aside)
    finally:
        shutil.rmtree(stage, ignore_errors=True)
    return _layout_index(out, shards, index, headers)


def _layout_index(
    out: Path, shards: list[_Shard], index: _Index | None, headers: dict[str, bytes]
) -> CheckpointIndex:
    """The index ``open_checkpoint(out)`` reads back from a written layout.

    ``headers`` holds each shard's length prefix and header bytes.
    """
    written = CheckpointIndex(out, [], {})
    if index is not None:
        written.index_name, written.index_metadata = index[0], index[1] or {}
    # Listed as open_checkpoint lists them: by name, not in write order.
    for name, entries, metadata in sorted(shards, key=lambda s: s[0]):
        offset = 0
        for info in entries:
            size = _data_len(info)
            written.tensors[info.name] = TensorInfo(
                info.name, info.dtype, info.shape, (offset, offset + size), name
            )
            offset += size
        header = headers[name]
        metadata = dict(metadata) if metadata else None
        digest = hashlib.sha256(header).hexdigest()
        written.shards.append(ShardInfo(name, out / name, len(header), offset, digest, metadata))
        if metadata:
            written.metadata = {**(written.metadata or {}), **metadata}
    return written

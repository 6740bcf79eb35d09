"""Output checks for the benchmark, independent of the package under test.

The checks parse safetensors files, decode BF16/F32 and recompute merges
with their own code, so a defect in moemerge cannot hide itself. Each
check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import struct
from pathlib import Path

import numpy as np

_ROUTED_EXPERT = re.compile(r"model\.layers\.\d+\.mlp\.experts\.\d+\.")
_CHUNK = 1 << 20  # elements per block when recomputing merged tensors
_NP = {"F32": np.dtype("<f4"), "F64": np.dtype("<f8"), "F16": np.dtype("<f2")}


class Checkpoint:
    """Every tensor of a checkpoint directory: name -> (dtype, shape, file, offset, nbytes)."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.tensors: dict[str, tuple[str, list[int], Path, int, int]] = {}
        for path in sorted(self.root.glob("*.safetensors")):
            with open(path, "rb") as f:
                (hlen,) = struct.unpack("<Q", f.read(8))
                header = json.loads(f.read(hlen))
            for name, entry in header.items():
                if name == "__metadata__":
                    continue
                begin, end = entry["data_offsets"]
                self.tensors[name] = (entry["dtype"], entry["shape"], path, 8 + hlen + begin, end - begin)

    def raw(self, name: str) -> bytes:
        _, _, path, offset, nbytes = self.tensors[name]
        with open(path, "rb") as f:
            f.seek(offset)
            return f.read(nbytes)

    def data_bytes(self) -> int:
        return sum(t[4] for t in self.tensors.values())


def to_f64(dtype: str, raw: bytes) -> np.ndarray:
    if dtype == "BF16":
        return (np.frombuffer(raw, "<u2").astype(np.uint32) << 16).view(np.float32).astype(np.float64)
    return np.frombuffer(raw, _NP[dtype]).astype(np.float64)


def from_f64(dtype: str, values: np.ndarray) -> bytes:
    if dtype == "BF16":
        u = values.astype(np.float32).view(np.uint32)
        return ((u + 0x7FFF + ((u >> 16) & 1)) >> 16).astype("<u2").tobytes()
    return values.astype(_NP[dtype]).tobytes()


def weighted_sum(dtype: str, raws: list[bytes], lambdas: list[float]) -> bytes:
    """Plain left-to-right lambda-sum in float64, re-encoded to ``dtype``.

    For up to three parents this is the same association as the package's
    pairwise tree, so the bytes must match exactly. Blocks are elementwise,
    so splitting into them does not change any element.
    """
    width = 2 if dtype == "BF16" else _NP[dtype].itemsize
    step = _CHUNK * width
    out = []
    for start in range(0, len(raws[0]), step):
        acc = None
        for lam, raw in zip(lambdas, raws):
            term = lam * to_f64(dtype, raw[start:start + step])
            acc = term if acc is None else acc + term
        out.append(from_f64(dtype, acc))
    return b"".join(out)


def in_subset(name: str, subset: str) -> bool:
    return subset == "full" or _ROUTED_EXPERT.match(name) is not None


def expected_merged(name: str, expected_diffs: list[dict], subset: str, delta: float) -> bool:
    """Whether ``name`` must merge: in the subset and some planted diff above delta."""
    return in_subset(name, subset) and max(t[name]["expected_diff"] for t in expected_diffs) > delta


def check_diff_cache(path: Path, expected_diffs: list[dict]) -> list[str]:
    """Each record matches the planted table: exact where untouched, within bound where planted."""
    records = json.loads(Path(path).read_text("utf-8"))["records"]
    problems = []
    if len(records) != len(expected_diffs[0]):
        problems.append(f"{len(records)} diff records, expected {len(expected_diffs[0])}")
    for rec in records:
        name = rec["name"]
        if len(rec["per_model_diff"]) != len(expected_diffs):
            problems.append(f"{name}: {len(rec['per_model_diff'])} diffs")
            continue
        for got, table in zip(rec["per_model_diff"], expected_diffs):
            exp = table.get(name)
            if exp is None:
                problems.append(f"{name}: not in the fixture")
            elif exp["kind"] == "none":
                if got != 0.0:
                    problems.append(f"{name}: diff {got!r}, expected exactly 0")
            elif abs(got - exp["expected_diff"]) > exp["bound"] * exp["expected_diff"]:
                problems.append(f"{name}: diff {got!r} outside {exp}")
    return problems


def check_merged(out: Path, parents: list[Path], lambdas: list[float],
                 should_merge, counts: dict) -> list[str]:
    """Recompute every tensor: copies equal the base's raw bytes, merges the lambda-sum."""
    got = Checkpoint(out)
    models = [Checkpoint(p) for p in parents]
    base = models[0]
    problems = []
    if set(got.tensors) != set(base.tensors):
        return [f"{out}: tensor set differs from the base"]
    merged = 0
    for name, (dtype, shape, *_rest) in got.tensors.items():
        if (dtype, shape) != tuple(base.tensors[name][:2]):
            problems.append(f"{name}: dtype/shape {dtype} {shape} differs from the base")
            continue
        if should_merge(name):
            merged += 1
            want = weighted_sum(dtype, [m.raw(name) for m in models], lambdas)
        else:
            want = base.raw(name)
        if got.raw(name) != want:
            problems.append(f"{name}: bytes differ from the independent recomputation")
    if (merged, len(got.tensors) - merged) != (counts["merged"], counts["copied"]):
        problems.append(f"merged/copied {merged}/{len(got.tensors) - merged}, expected {counts}")
    return problems


def check_plan_counts(plan_path: Path, counts: dict) -> list[str]:
    decisions = json.loads(Path(plan_path).read_text("utf-8"))["decisions"]
    merged = sum(d["action"] == "merge" for d in decisions)
    got = {"merged": merged, "copied": len(decisions) - merged}
    return [] if got == counts else [f"{plan_path.name}: plan counts {got}, expected {counts}"]


def check_sweep(csv_path: Path, records: list[dict], deltas: list[float], subset: str) -> list[str]:
    rows = list(csv.reader(Path(csv_path).read_text("utf-8").splitlines()))
    totals = [int(r[-1]) for r in rows[1:]]
    want = [
        sum(1 for r in records
            if in_subset(r["name"], subset) and r["max_diff"] > d)
        for d in deltas
    ]
    return [] if totals == want else [f"sweep totals {totals}, expected {want}"]


def check_heatmap(csv_path: Path, records: list[dict]) -> list[str]:
    cells: dict[tuple[int, str], list[float]] = {}
    for r in records:
        if r["layer"] is not None:
            label = r["group"] + (f".{r['projection']}" if r["projection"] else "")
            cells.setdefault((r["layer"], label), []).append(r["max_diff"])
    rows = list(csv.reader(Path(csv_path).read_text("utf-8").splitlines()))
    header, body = rows[0], rows[1:]
    problems = []
    if len(body) != 1 + max(layer for layer, _ in cells):
        problems.append(f"heatmap has {len(body)} layer rows")
    seen = 0
    for row in body:
        for label, text in zip(header[1:], row[1:]):
            vals = cells.get((int(row[0]), label))
            if vals is None:
                if text != "":
                    problems.append(f"heatmap cell {row[0]}/{label} should be empty")
                continue
            seen += 1
            if not np.isclose(float(text), sum(vals) / len(vals), rtol=1e-12, atol=0.0):
                problems.append(f"heatmap cell {row[0]}/{label} = {text}")
    if seen != len(cells):
        problems.append(f"heatmap has {seen} cells, expected {len(cells)}")
    return problems


def check_histogram(csv_path: Path, records: list[dict], edges: list[float], cutoff: float) -> list[str]:
    want: dict[tuple[str, int], int] = {}
    for r in records:
        d = r["max_diff"]
        if d < cutoff or d < edges[0] or d > edges[-1]:
            continue
        idx = next((i for i in range(len(edges) - 1) if d < edges[i + 1]), len(edges) - 2)
        want[(r["group"], idx)] = want.get((r["group"], idx), 0) + 1
    got: dict[tuple[str, int], int] = {}
    for row in list(csv.reader(Path(csv_path).read_text("utf-8").splitlines()))[1:]:
        idx = edges.index(float(row[1]))
        if int(row[3]):
            got[(row[0], idx)] = int(row[3])
    return [] if got == want else [f"histogram bins {got}, expected {want}"]


def digest(root: Path) -> str:
    """sha256 over the checkpoint files (shards and index), in name order."""
    h = hashlib.sha256()
    for path in sorted(Path(root).iterdir()):
        if path.name.endswith(".safetensors") or path.name.endswith(".index.json"):
            h.update(path.name.encode())
            with open(path, "rb") as f:
                while block := f.read(1 << 24):
                    h.update(block)
    return h.hexdigest()

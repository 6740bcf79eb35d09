"""Diagnostic emitters over diff records and transcripts.

Everything here produces data (CSV rows, JSON-able stats), not rendered
plots, and is a pure function of its inputs: regenerating from the same
diff cache yields byte-identical CSV.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .planning import DiffRecord
from .taxonomy import GROUP_ORDER, TensorGroup

_PREFERRED_PROJ_ORDER = {"gate": 0, "up": 1, "down": 2}


def _label_sort_key(label: str) -> tuple:
    group_value, _, proj = label.partition(".")
    group = TensorGroup(group_value)
    if not proj:
        return (GROUP_ORDER[group], -1, "")
    return (GROUP_ORDER[group], _PREFERRED_PROJ_ORDER.get(proj, 99), proj)


@dataclass
class HeatmapTable:
    """Layer x subgroup table of diffs; absent cells are None, never zero."""

    layers: list[int]
    columns: list[str]
    cells: dict = field(default_factory=dict)  # (layer, column) -> float

    def to_csv(self) -> str:
        lines = ["layer," + ",".join(self.columns)]
        for layer in self.layers:
            row = [str(layer)]
            for col in self.columns:
                value = self.cells.get((layer, col))
                row.append("" if value is None else repr(value))
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"


def emit_heatmap(diffs: Sequence[DiffRecord], aggregate: str = "mean") -> HeatmapTable:
    """Aggregate per-layer diffs into subgroup columns (category.projection).

    Cells covering several tensors (e.g. one routed-expert projection
    across all experts of a layer) reduce by ``aggregate`` ("mean" or
    "max"). Layers run 0..max observed; columns follow a fixed documented
    order (group order, then gate/up/down, then other projections
    alphabetically). Records without a layer (embedding/norm/head,
    unclassified) are outside the table.
    """
    if aggregate not in ("mean", "max"):
        raise ValueError(f"aggregate must be 'mean' or 'max', got {aggregate!r}")
    if not diffs:
        raise ValueError("no diff records")
    bucket: dict[tuple[int, str], list[float]] = {}
    for record in diffs:
        layer = record.category.layer
        if layer is None:
            continue
        bucket.setdefault((layer, record.category.label()), []).append(record.max_diff)
    if not bucket:
        return HeatmapTable(layers=[], columns=[])
    columns = sorted({label for _, label in bucket}, key=_label_sort_key)
    layers = list(range(max(layer for layer, _ in bucket) + 1))
    cells = {
        key: (max(vals) if aggregate == "max" else sum(vals) / len(vals))
        for key, vals in bucket.items()
    }
    return HeatmapTable(layers=layers, columns=columns, cells=cells)


@dataclass(frozen=True)
class HistogramSpec:
    """Strictly increasing bin edges plus a minimum-diff cutoff; no NaN."""

    edges: tuple[float, ...]
    cutoff: float = 1e-3

    def __post_init__(self):
        if len(self.edges) < 2:
            raise ValueError("need at least two bin edges")
        if not all(b > a for a, b in zip(self.edges, self.edges[1:])):  # also refuses NaN
            raise ValueError(f"bin edges must be strictly increasing: {self.edges}")
        if math.isnan(self.cutoff):
            raise ValueError("histogram cutoff must be a number, got nan")


@dataclass
class HistogramResult:
    # rows: (category value, bin_lo, bin_hi, count), bins half-open except the last
    rows: list[tuple[str, float, float, int]]
    excluded_below_cutoff: int
    excluded_out_of_range: int

    @property
    def excluded(self) -> int:
        return self.excluded_below_cutoff + self.excluded_out_of_range

    def to_csv(self) -> str:
        lines = ["category,bin_lo,bin_hi,count"]
        for category, lo, hi, count in self.rows:
            lines.append(f"{category},{lo!r},{hi!r},{count}")
        return "\n".join(lines) + "\n"


def emit_histogram(diffs: Sequence[DiffRecord], spec: HistogramSpec) -> HistogramResult:
    """Per-category counts of max diffs over the spec's bins.

    A record is included iff its diff is >= the cutoff and inside
    [edges[0], edges[-1]]; everything else, NaN included, is excluded and
    counted, so bin counts plus exclusions always equal the record count.
    """
    below = 0
    out_of_range = 0
    counts: dict[str, list[int]] = {}
    nbins = len(spec.edges) - 1
    for record in diffs:
        d = record.max_diff
        if d < spec.cutoff:
            below += 1
            continue
        if not spec.edges[0] <= d <= spec.edges[-1]:  # also NaN
            out_of_range += 1
            continue
        idx = nbins - 1
        for i in range(nbins):
            if d < spec.edges[i + 1]:
                idx = i
                break
        key = record.category.group.value
        counts.setdefault(key, [0] * nbins)[idx] += 1
    rows = []
    for category in sorted(counts, key=lambda v: GROUP_ORDER[TensorGroup(v)]):
        for i in range(nbins):
            rows.append((category, spec.edges[i], spec.edges[i + 1], counts[category][i]))
    return HistogramResult(
        rows=rows, excluded_below_cutoff=below, excluded_out_of_range=out_of_range
    )


DEFAULT_OPEN_TAG = "<think>"
DEFAULT_CLOSE_TAG = "</think>"


@dataclass
class ReasoningStats:
    """Closing-tag frequency over a transcript of model responses."""

    total: int
    with_closing_tag: int
    with_open_tag: int
    malformed: int
    # (response id, character offset of the first closing tag)
    close_positions: list[tuple[str, int]]

    @property
    def frequency(self) -> float:
        return self.with_closing_tag / self.total

    def to_json_obj(self) -> dict:
        return {
            "total": self.total,
            "with_closing_tag": self.with_closing_tag,
            "with_open_tag": self.with_open_tag,
            "malformed": self.malformed,
            "frequency": self.frequency,
            "close_positions": [
                {"id": rid, "position": pos} for rid, pos in self.close_positions
            ],
        }


def reasoning_frequency(
    lines: Iterable[str],
    open_tag: str = DEFAULT_OPEN_TAG,
    close_tag: str = DEFAULT_CLOSE_TAG,
) -> ReasoningStats:
    """Fraction of responses containing the closing think tag.

    Input is newline-delimited JSON, one ``{"id": ..., "response": ...}``
    object per line (blank lines skipped). Matching is exact substring.
    Malformed records are skipped and counted. Positions are character
    offsets of the first closing-tag occurrence.

    Raises ValueError when no valid record remains (frequency undefined).
    """
    total = 0
    closing = 0
    opening = 0
    malformed = 0
    positions: list[tuple[str, int]] = []
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            response = obj["response"]
            if not isinstance(obj, dict) or not isinstance(response, str):
                raise TypeError
        except (json.JSONDecodeError, TypeError, KeyError):
            malformed += 1
            continue
        rid = str(obj.get("id", i))
        total += 1
        if open_tag and open_tag in response:
            opening += 1
        pos = response.find(close_tag)
        if pos >= 0:
            closing += 1
            positions.append((rid, pos))
    if total == 0:
        raise ValueError("no valid transcript records; frequency is undefined")
    return ReasoningStats(
        total=total,
        with_closing_tag=closing,
        with_open_tag=opening,
        malformed=malformed,
        close_positions=positions,
    )

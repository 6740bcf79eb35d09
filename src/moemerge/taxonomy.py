"""Structural classification of tensor names and subset resolution.

Tensor names are matched against an ordered rule list (first match wins,
no match means ``OTHER``). Patterns use one small syntax, also accepted in
recipe files:

* ``{layer}`` / ``{expert}``  capture a decimal integer index
* ``{proj}``                  captures one dot-free name segment; a trailing
  ``_proj`` is stripped from the stored projection label (``down_proj`` ->
  ``down``)
* ``*``                       matches within a single segment (no dots)
* ``**``                      matches across segments
* anything else is literal; matches are anchored to the whole name

The built-in default scheme follows DeepSeek-V3-style names. Free-standing
per-layer norms (``input_layernorm``, ``post_attention_layernorm``) classify
as ``EMBEDDING_NORM_HEAD`` (which never carries a layer index), while norms
inside the attention block (``self_attn.q_a_layernorm``) count as attention;
the router gate (``mlp.gate``) and the shared-expert gate projection
(``mlp.shared_experts.gate_proj``) are deliberately distinct categories.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .errors import RecipeError

if TYPE_CHECKING:
    from .safetensors_io import CheckpointIndex


class TensorGroup(enum.Enum):
    ATTENTION = "attention"
    ROUTED_EXPERT_MLP = "routed_expert_mlp"
    SHARED_EXPERT_MLP = "shared_expert_mlp"
    EXPERT_GATE = "expert_gate"
    DENSE_MLP = "dense_mlp"
    EMBEDDING_NORM_HEAD = "embedding_norm_head"
    OTHER = "other"

    def __str__(self) -> str:  # noqa: D105
        return self.value


# Presentation / census ordering of groups.
GROUP_ORDER = {g: i for i, g in enumerate(TensorGroup)}

# Groups whose categories carry a layer index.
_LAYERED = frozenset(
    {
        TensorGroup.ATTENTION,
        TensorGroup.ROUTED_EXPERT_MLP,
        TensorGroup.SHARED_EXPERT_MLP,
        TensorGroup.EXPERT_GATE,
        TensorGroup.DENSE_MLP,
    }
)


@dataclass(frozen=True)
class TensorCategory:
    group: TensorGroup
    layer: int | None = None
    expert: int | None = None
    projection: str | None = None

    def label(self) -> str:
        """Subgroup label used in report columns: group plus projection."""
        if self.projection:
            return f"{self.group.value}.{self.projection}"
        return self.group.value

    def to_json_obj(self) -> dict:
        """The ``group/layer/expert/projection`` fields of diff and plan records."""
        return {
            "group": self.group.value,
            "layer": self.layer,
            "expert": self.expert,
            "projection": self.projection,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TensorCategory":
        """Read the category fields of a record; other keys are ignored."""
        return cls(
            TensorGroup(obj["group"]),
            layer=obj["layer"],
            expert=obj["expert"],
            projection=obj["projection"],
        )


_TOKEN = re.compile(r"\{layer\}|\{expert\}|\{proj\}|\*\*|\*")


def _compile_pattern(pattern: str) -> re.Pattern[str]:
    out: list[str] = []
    pos = 0
    for m in _TOKEN.finditer(pattern):
        out.append(re.escape(pattern[pos : m.start()]))
        tok = m.group()
        if tok == "{layer}":
            out.append(r"(?P<layer>\d+)")
        elif tok == "{expert}":
            out.append(r"(?P<expert>\d+)")
        elif tok == "{proj}":
            out.append(r"(?P<proj>[^.]+)")
        elif tok == "**":
            out.append(r".*")
        else:  # "*"
            out.append(r"[^.]*")
        pos = m.end()
    out.append(re.escape(pattern[pos:]))
    try:
        return re.compile("".join(out) + r"\Z")
    except re.error as exc:  # pragma: no cover - escape() keeps this unreachable
        raise RecipeError(f"bad pattern {pattern!r}: {exc}") from exc


@dataclass(frozen=True)
class SchemeRule:
    pattern: str
    group: TensorGroup
    _regex: re.Pattern[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_regex", _compile_pattern(self.pattern))


@dataclass(frozen=True)
class NamingScheme:
    """Ordered classification rules; first match wins."""

    rules: tuple[SchemeRule, ...]

    @classmethod
    def from_rules(cls, rules: Iterable[tuple[str, TensorGroup | str]]) -> "NamingScheme":
        compiled = []
        for pattern, group in rules:
            if not isinstance(group, TensorGroup):
                try:
                    group = TensorGroup(group)
                except ValueError:
                    raise RecipeError(f"unknown tensor group {group!r}") from None
            compiled.append(SchemeRule(pattern, group))
        return cls(tuple(compiled))

    def to_json_obj(self) -> list[dict[str, str]]:
        return [{"pattern": r.pattern, "group": r.group.value} for r in self.rules]

    @classmethod
    def from_json_obj(cls, obj: object) -> "NamingScheme":
        if not isinstance(obj, list):
            raise RecipeError("naming scheme must be a list of {pattern, group} rules")
        rules = []
        for i, entry in enumerate(obj):
            if not isinstance(entry, dict) or set(entry) != {"pattern", "group"}:
                raise RecipeError(
                    f"scheme rule {i} must have exactly the keys 'pattern' and 'group'"
                )
            rules.append((entry["pattern"], entry["group"]))
        return cls.from_rules(rules)


def load_json_file(path: str | Path, kind: str) -> object:
    """Read a recipe or scheme file; RecipeError if missing or not JSON."""
    try:
        return json.loads(Path(path).read_text("utf-8"))
    except FileNotFoundError:
        raise RecipeError(f"{kind} file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise RecipeError(f"{kind} file {path} is not valid JSON: {exc}") from exc


def resolve_scheme(
    scheme_obj: str | list | None, base_dir: str | Path = "."
) -> NamingScheme:
    """Resolve a scheme reference: inline rules, a path, or the default.

    ``None`` is the built-in DeepSeek-V3 scheme; a relative path resolves
    against ``base_dir``.
    """
    if scheme_obj is None:
        return DEFAULT_SCHEME
    if isinstance(scheme_obj, str):
        path = Path(scheme_obj)
        if not path.is_absolute():
            path = Path(base_dir) / path
        scheme_obj = load_json_file(path, "scheme")
    return NamingScheme.from_json_obj(scheme_obj)


DEFAULT_SCHEME = NamingScheme.from_rules(
    [
        ("model.embed_tokens.weight", TensorGroup.EMBEDDING_NORM_HEAD),
        ("model.norm.weight", TensorGroup.EMBEDDING_NORM_HEAD),
        ("lm_head.weight", TensorGroup.EMBEDDING_NORM_HEAD),
        ("model.layers.*.input_layernorm.weight", TensorGroup.EMBEDDING_NORM_HEAD),
        ("model.layers.*.post_attention_layernorm.weight", TensorGroup.EMBEDDING_NORM_HEAD),
        ("model.layers.{layer}.self_attn.{proj}.weight", TensorGroup.ATTENTION),
        ("model.layers.{layer}.self_attn.**", TensorGroup.ATTENTION),
        ("model.layers.{layer}.mlp.gate.weight", TensorGroup.EXPERT_GATE),
        ("model.layers.{layer}.mlp.gate.e_score_correction_bias", TensorGroup.EXPERT_GATE),
        ("model.layers.{layer}.mlp.experts.{expert}.{proj}.weight", TensorGroup.ROUTED_EXPERT_MLP),
        ("model.layers.{layer}.mlp.shared_experts.{proj}.weight", TensorGroup.SHARED_EXPERT_MLP),
        ("model.layers.{layer}.mlp.shared_experts.*.{proj}.weight", TensorGroup.SHARED_EXPERT_MLP),
        ("model.layers.{layer}.mlp.{proj}.weight", TensorGroup.DENSE_MLP),
    ]
)


def classify(name: str, scheme: NamingScheme = DEFAULT_SCHEME) -> TensorCategory:
    """Deterministic, total classification of one tensor name."""
    for rule in scheme.rules:
        m = rule._regex.match(name)
        if m is None:
            continue
        groups = m.groupdict()
        layer = int(groups["layer"]) if groups.get("layer") is not None else None
        expert = int(groups["expert"]) if groups.get("expert") is not None else None
        proj = groups.get("proj")
        if proj is not None and proj.endswith("_proj"):
            proj = proj[: -len("_proj")]
        if rule.group not in _LAYERED:
            layer = None
        if rule.group is not TensorGroup.ROUTED_EXPERT_MLP:
            expert = None
        return TensorCategory(rule.group, layer=layer, expert=expert, projection=proj)
    return TensorCategory(TensorGroup.OTHER)


@dataclass(frozen=True)
class SubsetSpec:
    """Which tensors are candidates for merging: a set of groups plus name rules.

    ``patterns`` are ordered ``(pattern, include)`` rules over tensor
    names, in the classification pattern syntax. The first rule that
    matches a name decides; a name no rule matches is in the subset iff
    its group is in ``groups``. So an unclassified (``OTHER``) tensor is
    excluded unless ``other`` is listed or a rule includes it.
    """

    groups: frozenset[TensorGroup]
    patterns: tuple[tuple[str, bool], ...] = ()
    _rules: tuple[tuple[re.Pattern[str], bool], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        rules = tuple((_compile_pattern(p), include) for p, include in self.patterns)
        object.__setattr__(self, "_rules", rules)


FULL_SUBSET = SubsetSpec(frozenset(TensorGroup))
EXPERTS_ONLY_SUBSET = SubsetSpec(frozenset({TensorGroup.ROUTED_EXPERT_MLP}))

# Recipe-file names of subsets. A custom object equal to one echoes its name.
_NAMED_SUBSETS = {"full": FULL_SUBSET, "experts-only": EXPERTS_ONLY_SUBSET}


def in_subset(category: TensorCategory, spec: SubsetSpec, name: str) -> bool:
    """Membership test for the merge-candidate subset: the first name rule
    that matches ``name`` decides, otherwise ``category``'s group does."""
    for regex, include in spec._rules:
        if regex.match(name):
            return include
    return category.group in spec.groups


def subset_to_json_obj(spec: SubsetSpec) -> str | dict:
    """Recipe-file form: the subset's name if it has one, else a custom object."""
    for label, named in _NAMED_SUBSETS.items():
        if spec == named:
            return label
    obj: dict = {"groups": sorted(g.value for g in spec.groups)}
    if spec.patterns:
        obj["patterns"] = [{"pattern": p, "include": inc} for p, inc in spec.patterns]
    return obj


def subset_from_json_obj(obj: object) -> SubsetSpec:
    if isinstance(obj, str):
        if obj in _NAMED_SUBSETS:
            return _NAMED_SUBSETS[obj]
        raise RecipeError(
            f"unknown subset {obj!r}: expected one of {sorted(_NAMED_SUBSETS)} or an object"
        )
    if not isinstance(obj, dict):
        raise RecipeError("subset must be a string or an object")
    unknown = set(obj) - {"groups", "patterns"}
    if unknown:
        raise RecipeError(f"unknown subset keys {sorted(unknown)}")
    groups = set()
    for g in obj.get("groups", []):
        try:
            groups.add(TensorGroup(g))
        except ValueError:
            raise RecipeError(f"unknown tensor group {g!r}") from None
    patterns = []
    for i, entry in enumerate(obj.get("patterns", [])):
        if (
            not isinstance(entry, dict)
            or set(entry) != {"pattern", "include"}
            or not isinstance(entry["pattern"], str)
            or not isinstance(entry["include"], bool)
        ):
            raise RecipeError(
                f"subset pattern {i} must be {{'pattern': str, 'include': bool}}"
            )
        patterns.append((entry["pattern"], entry["include"]))
    return SubsetSpec(frozenset(groups), tuple(patterns))


@dataclass(frozen=True)
class CensusRow:
    group: TensorGroup
    layer: int | None
    tensors: int
    params: int


def census(index: "CheckpointIndex", scheme: NamingScheme = DEFAULT_SCHEME) -> list[CensusRow]:
    """Tensor and parameter counts per (group, layer).

    Rows are ordered by layer (layerless rows first), then by group; totals
    over the rows equal the checkpoint's tensor count exactly.
    """
    counts: dict[tuple[int, int | None], list[int]] = {}
    for name, info in index.tensors.items():
        cat = classify(name, scheme)
        key = (GROUP_ORDER[cat.group], cat.layer)
        slot = counts.setdefault(key, [0, 0])
        slot[0] += 1
        slot[1] += info.numel
    rows = []
    for (gidx, layer), (n, params) in sorted(
        counts.items(), key=lambda kv: (-1 if kv[0][1] is None else kv[0][1], kv[0][0])
    ):
        rows.append(CensusRow(list(TensorGroup)[gidx], layer, n, params))
    return rows

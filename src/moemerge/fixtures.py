"""Deterministic miniature MoE checkpoints with analytically planted diffs.

Generated checkpoints follow DeepSeek-V3-style tensor names, scaled down:
``dense_layers`` leading decoder layers carry a plain MLP, the remaining
layers carry a router gate, routed experts, and a fused shared expert.

Generation is a pure function of the spec. Every tensor's values come from
``numpy.random.Generator(PCG64(seed64))`` where ``seed64`` is the first 8
bytes (little-endian) of ``sha256("{seed}:{name}")``; perturbation noise
streams derive from ``sha256("{seed}:{name}:perturb")``. PCG64 streams are
stable across platforms and numpy versions, so the same spec always yields
byte-identical shards. A fixture is written as one packed checkpoint:
shards of at most ``max_shard_bytes`` named
``model-00001-of-0000N.safetensors``, with a
``model.safetensors.index.json``, like a released model.

The draws run on ``merge_core``'s ordered worker pool, one worker per CPU
the process may run on. The writing thread picks each tensor's
perturbation and allocates its encoded bytes in layout order; a worker
draws, perturbs and encodes the values into them ``_CHUNK`` elements at a
time, with the same operations in the same order as one thread would, so
every byte is the same; the writing thread then only checksums them and
hands them to the writer in order. Output is therefore the same for any
worker count. Beside the tensor being written, at most ``2 * workers``
tensors' encoded bytes are in flight, and each drawing worker holds a
few chunks of float64 scratch. Tensors below
``merge_core._RUN_TENSOR_ELEMS`` elements are drawn in the writing
thread, where a hand-off would cost more than the draw.

Planted perturbations make diffs predictable: a constant shift ``c`` yields
a normalized Frobenius difference of exactly ``|c|`` (up to the target
dtype's rounding, recorded as a per-tensor ``bound``), and gaussian noise of
scale sigma concentrates around sigma (chi-square; within 10% for >= 4096
elements at far beyond 99.9% confidence).
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import math
import os
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from . import tensor_math
from .dtypes import DType
from .errors import FixtureError, UnsupportedDTypeError
from .merge_core import _RUN_TENSOR_ELEMS, _ordered_parallel
from .safetensors_io import CheckpointIndex, TensorInfo, write_checkpoint
from .taxonomy import TensorGroup, classify

MANIFEST_NAME = "fixture_manifest.json"
EXPECTED_DIFFS_NAME = "expected_diffs.json"

_VALUE_SCALE = 0.05
# A tensor is drawn, perturbed and encoded in chunks of this many elements
# (512 KiB of float64), so a worker's scratch does not grow with the tensor.
_CHUNK = 1 << 16

# Half-ulp of each float dtype at magnitude ~1, for shift-exactness bounds.
_HALF_ULP = {
    DType.F64: 2.0**-53,
    DType.F32: 2.0**-24,
    DType.F16: 2.0**-11,
    DType.BF16: 2.0**-8,
}


@dataclass(frozen=True)
class PerturbationSpec:
    """What to change in a variant: which tensors, how, and how much.

    ``selector`` is a tensor-group value (e.g. ``"routed_expert_mlp"``) or
    ``"name:<glob>"`` matching tensor names. ``kind`` is ``"shift"``
    (constant added to every element) or ``"gaussian"`` (iid noise of scale
    ``magnitude``).
    """

    selector: str
    kind: str
    magnitude: float

    def __post_init__(self):
        if self.kind not in ("shift", "gaussian"):
            raise FixtureError(f"unknown perturbation kind {self.kind!r}")
        if not math.isfinite(self.magnitude):
            raise FixtureError(f"perturbation magnitude must be finite, got {self.magnitude!r}")
        if self.kind == "gaussian" and self.magnitude < 0:
            raise FixtureError("gaussian magnitude must be non-negative")

    def matches(self, name: str, group: TensorGroup) -> bool:
        if self.selector.startswith("name:"):
            return fnmatch.fnmatchcase(name, self.selector[len("name:") :])
        return self.selector == group.value


@dataclass(frozen=True)
class FixtureSpec:
    """Architecture shape, dtypes, seed, and perturbations of a fixture."""

    layers: int = 5
    dense_layers: int = 2
    experts: int = 4
    shared_experts: int = 1
    vocab: int = 4096
    hidden: int = 128
    intermediate: int = 320
    moe_intermediate: int = 96
    q_lora_rank: int = 48
    kv_lora_rank: int = 48
    attn_inner: int = 128
    # dtype per tensor group: keys are TensorGroup values plus "default"
    dtypes: dict = field(default_factory=lambda: {"default": "F32"})
    seed: int = 0
    perturbations: tuple[PerturbationSpec, ...] = ()
    max_shard_bytes: int = 3 * 1024 * 1024

    def __post_init__(self):
        for key in ("layers", "dense_layers", "experts", "shared_experts"):
            if getattr(self, key) < 0:
                raise FixtureError(f"{key} must be >= 0, got {getattr(self, key)}")
        if self.dense_layers > self.layers:
            raise FixtureError("dense_layers cannot exceed layers")
        for dim in (
            self.vocab,
            self.hidden,
            self.intermediate,
            self.moe_intermediate,
            self.q_lora_rank,
            self.kv_lora_rank,
            self.attn_inner,
        ):
            if dim < 1:
                raise FixtureError("all dimensions must be >= 1")
        if self.max_shard_bytes < 1:
            raise FixtureError("max_shard_bytes must be positive")
        known = {g.value for g in TensorGroup} | {"default"}
        for key, code in self.dtypes.items():
            if key not in known:
                raise FixtureError(f"unknown dtype group key {key!r}")
            try:
                DType.from_code(code)
            except UnsupportedDTypeError as exc:
                raise FixtureError(str(exc)) from None

    def dtype_for(self, group: TensorGroup) -> DType:
        code = self.dtypes.get(group.value, self.dtypes.get("default", "F32"))
        return DType.from_code(code)

    def to_json_obj(self) -> dict:
        obj = {
            "layers": self.layers,
            "dense_layers": self.dense_layers,
            "experts": self.experts,
            "shared_experts": self.shared_experts,
            "vocab": self.vocab,
            "hidden": self.hidden,
            "intermediate": self.intermediate,
            "moe_intermediate": self.moe_intermediate,
            "q_lora_rank": self.q_lora_rank,
            "kv_lora_rank": self.kv_lora_rank,
            "attn_inner": self.attn_inner,
            "dtypes": dict(self.dtypes),
            "seed": self.seed,
            "max_shard_bytes": self.max_shard_bytes,
        }
        if self.perturbations:
            obj["perturbations"] = [
                {"selector": p.selector, "kind": p.kind, "magnitude": p.magnitude}
                for p in self.perturbations
            ]
        return obj

    @classmethod
    def from_json_obj(cls, obj: object) -> "FixtureSpec":
        if not isinstance(obj, dict):
            raise FixtureError("fixture spec must be a JSON object")
        known = {
            "layers", "dense_layers", "experts", "shared_experts", "vocab",
            "hidden", "intermediate", "moe_intermediate", "q_lora_rank",
            "kv_lora_rank", "attn_inner", "dtypes", "seed", "perturbations",
            "max_shard_bytes",
        }
        unknown = set(obj) - known
        if unknown:
            raise FixtureError(f"unknown fixture spec keys {sorted(unknown)}")
        kwargs = {}
        for key, value in obj.items():
            if key == "dtypes":
                if not isinstance(value, dict) or not all(
                    isinstance(v, str) for v in value.values()
                ):
                    raise FixtureError("'dtypes' must map group names to dtype codes")
            elif key == "perturbations":
                if not isinstance(value, list):
                    raise FixtureError("'perturbations' must be a list")
                value = tuple(_perturbation(p, i) for i, p in enumerate(value))
            elif type(value) is not int:  # exact, so a JSON true is no size
                raise FixtureError(f"{key!r} must be an integer, got {value!r}")
            kwargs[key] = value
        return cls(**kwargs)


def _perturbation(obj: object, i: int) -> PerturbationSpec:
    """Perturbation ``i`` of a spec file; FixtureError unless it has its shape."""
    keys = {"selector", "kind", "magnitude"}
    if not isinstance(obj, dict) or obj.keys() != keys:
        raise FixtureError(f"perturbation {i} must have exactly the keys {sorted(keys)}")
    if type(obj["selector"]) is not str or type(obj["magnitude"]) not in (int, float):
        raise FixtureError(f"perturbation {i} needs a string selector and a numeric magnitude")
    return PerturbationSpec(**obj)


def iter_tensor_entries(spec: FixtureSpec) -> Iterator[tuple[str, TensorGroup, tuple[int, ...]]]:
    """Yield (name, group, shape) in the checkpoint's physical order."""
    h, v = spec.hidden, spec.vocab
    yield "model.embed_tokens.weight", TensorGroup.EMBEDDING_NORM_HEAD, (v, h)
    for layer in range(spec.layers):
        p = f"model.layers.{layer}"
        yield f"{p}.input_layernorm.weight", TensorGroup.EMBEDDING_NORM_HEAD, (h,)
        a = TensorGroup.ATTENTION
        yield f"{p}.self_attn.q_a_proj.weight", a, (spec.q_lora_rank, h)
        yield f"{p}.self_attn.q_a_layernorm.weight", a, (spec.q_lora_rank,)
        yield f"{p}.self_attn.q_b_proj.weight", a, (spec.attn_inner, spec.q_lora_rank)
        yield f"{p}.self_attn.kv_a_proj_with_mqa.weight", a, (spec.kv_lora_rank, h)
        yield f"{p}.self_attn.kv_a_layernorm.weight", a, (spec.kv_lora_rank,)
        yield f"{p}.self_attn.kv_b_proj.weight", a, (spec.attn_inner, spec.kv_lora_rank)
        yield f"{p}.self_attn.o_proj.weight", a, (h, spec.attn_inner)
        yield f"{p}.post_attention_layernorm.weight", TensorGroup.EMBEDDING_NORM_HEAD, (h,)
        if layer < spec.dense_layers:
            d = TensorGroup.DENSE_MLP
            yield f"{p}.mlp.gate_proj.weight", d, (spec.intermediate, h)
            yield f"{p}.mlp.up_proj.weight", d, (spec.intermediate, h)
            yield f"{p}.mlp.down_proj.weight", d, (h, spec.intermediate)
        else:
            yield f"{p}.mlp.gate.weight", TensorGroup.EXPERT_GATE, (spec.experts, h)
            yield f"{p}.mlp.gate.e_score_correction_bias", TensorGroup.EXPERT_GATE, (spec.experts,)
            r = TensorGroup.ROUTED_EXPERT_MLP
            for e in range(spec.experts):
                ep = f"{p}.mlp.experts.{e}"
                yield f"{ep}.gate_proj.weight", r, (spec.moe_intermediate, h)
                yield f"{ep}.up_proj.weight", r, (spec.moe_intermediate, h)
                yield f"{ep}.down_proj.weight", r, (h, spec.moe_intermediate)
            if spec.shared_experts > 0:
                s = TensorGroup.SHARED_EXPERT_MLP
                si = spec.moe_intermediate * spec.shared_experts
                yield f"{p}.mlp.shared_experts.gate_proj.weight", s, (si, h)
                yield f"{p}.mlp.shared_experts.up_proj.weight", s, (si, h)
                yield f"{p}.mlp.shared_experts.down_proj.weight", s, (h, si)
    yield "model.norm.weight", TensorGroup.EMBEDDING_NORM_HEAD, (h,)
    yield "lm_head.weight", TensorGroup.EMBEDDING_NORM_HEAD, (v, h)


def _tensor_seed(seed: int, name: str, salt: str = "") -> int:
    digest = hashlib.sha256(f"{seed}:{name}{salt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def _workers() -> int:
    """One worker per CPU this process may run on; no output depends on it."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def _draw(
    seed: int, name: str, dtype: DType, out: bytearray, applied: PerturbationSpec | None = None
) -> None:
    """Encode a tensor's perturbed values into ``out``, chunk by chunk.

    A PCG64 stream and elementwise float64 arithmetic and encoding do not
    depend on how they are split, so every byte is the one a draw, shift
    or noise and encode of the whole tensor gives. The only allocations
    are the value and noise scratch of at most ``_CHUNK`` elements and the
    encode's own temporaries of one chunk.
    """
    width = dtype.byte_width
    numel = len(out) // width
    rng = np.random.Generator(np.random.PCG64(_tensor_seed(seed, name)))
    gaussian = applied is not None and applied.kind == "gaussian"
    if gaussian:
        noise_rng = np.random.Generator(np.random.PCG64(_tensor_seed(seed, name, ":perturb")))
        noise = np.empty(min(numel, _CHUNK))
    values = np.empty(min(numel, _CHUNK))
    target = memoryview(out)
    for start in range(0, numel, _CHUNK):
        chunk = values[: numel - start]
        rng.standard_normal(out=chunk)
        chunk *= _VALUE_SCALE
        if gaussian:
            drawn = noise[: chunk.size]
            noise_rng.standard_normal(out=drawn)
            drawn *= applied.magnitude
            chunk += drawn
        elif applied is not None:
            chunk += applied.magnitude
        tensor_math.encode(chunk, dtype, out=target[start * width : (start + chunk.size) * width])


def _shift_bound(dtype: DType, magnitude: float) -> float:
    """Relative tolerance on the measured diff of a constant-shift plant."""
    if magnitude == 0:
        return 0.0
    # Per-element encode rounding is at most half an ulp of |value + shift|
    # (values are ~N(0, 0.05), so magnitude ~<= 0.35); 4x safety margin.
    bound = 4.0 * 0.35 * _HALF_ULP[dtype] / abs(magnitude)
    return max(1e-12, min(bound, 0.9))


def _emit_checkpoint(
    spec: FixtureSpec,
    path: str | Path,
    perturbations: tuple[PerturbationSpec, ...],
    sidecar: str,
) -> tuple[CheckpointIndex, list[dict] | dict[str, dict]]:
    """Write the checkpoint and the one table its sidecar holds: a base's
    manifest or a variant's expected-diff table. Returns (index, table)."""
    manifest: list[dict] = []
    expected: dict[str, dict] = {}
    is_base = sidecar == MANIFEST_NAME
    table = manifest if is_base else expected
    matched: set[int] = set()
    entries = list(iter_tensor_entries(spec))
    infos = []
    for name, group, shape in entries:
        dtype = spec.dtype_for(group)
        nbytes = dtype.byte_width * math.prod(shape)
        infos.append(TensorInfo(name=name, dtype=dtype, shape=shape, data_offsets=(0, nbytes)))

    def jobs():
        for info, (name, group, _) in zip(infos, entries):
            applied: PerturbationSpec | None = None
            for i, pert in enumerate(perturbations):
                if pert.matches(name, group):
                    applied = pert
                    matched.add(i)
                    break  # first matching perturbation wins
            yield info, group, applied, bytearray(info.nbytes)

    def draw(job):
        info, _, applied, data = job
        _draw(spec.seed, info.name, info.dtype, data, applied)
        return job

    def stream(drawn):
        for info, group, applied, data in drawn:
            name, dtype, numel = info.name, info.dtype, info.numel
            if is_base:
                cat = classify(name)
                manifest.append(
                    {
                        "name": name,
                        "group": group.value,
                        "layer": cat.layer,
                        "expert": cat.expert,
                        "shape": list(info.shape),
                        "dtype": dtype.code,
                        "checksum": hashlib.sha256(data).hexdigest(),
                    }
                )
            elif applied is None:
                expected[name] = {"expected_diff": 0.0, "kind": "none", "bound": 0.0}
            elif applied.kind == "shift":
                expected[name] = {
                    "expected_diff": abs(applied.magnitude),
                    "kind": "shift",
                    "bound": _shift_bound(dtype, applied.magnitude),
                }
            else:
                # chi-square concentration of the RMS of n iid N(0, sigma^2)
                # draws: sd of RMS/sigma is ~1/sqrt(2n); 6 sigma + encode slack.
                bound = max(0.10, 6.0 / math.sqrt(2 * numel))
                expected[name] = {
                    "expected_diff": applied.magnitude,
                    "kind": "gaussian",
                    "bound": bound,
                }
            yield info, data

    def render(_shards: list[str]) -> str:
        unmatched = [p.selector for i, p in enumerate(perturbations) if i not in matched]
        if unmatched:
            raise FixtureError(f"perturbation selectors matched nothing: {unmatched}")
        return json.dumps(table, indent=2) + "\n"

    # closing() stops the pool before an error leaves this function.
    with closing(_ordered_parallel(
        jobs(), draw, _workers(), inline=lambda job: job[0].numel < _RUN_TENSOR_ELEMS
    )) as drawn:
        index = write_checkpoint(
            stream(drawn), path, base=infos, sidecars={sidecar: render},
            max_shard_bytes=spec.max_shard_bytes,
        )
    return index, table


def generate_base(spec: FixtureSpec, path: str | Path) -> tuple[CheckpointIndex, list[dict]]:
    """Write a fixture checkpoint and its manifest; returns (index, manifest)."""
    return _emit_checkpoint(spec, path, (), MANIFEST_NAME)


def generate_variant(
    spec: FixtureSpec,
    perturbations: tuple[PerturbationSpec, ...] | list[PerturbationSpec],
    path: str | Path,
) -> tuple[CheckpointIndex, dict[str, dict]]:
    """Write a perturbed sibling of ``generate_base(spec, ...)``.

    The returned expected-diff table maps every tensor name to
    ``{"expected_diff", "kind", "bound"}``; ``bound`` is relative for
    planted tensors and 0.0 (exact) for untouched ones. Raises if a
    selector matches no tensor, and then writes nothing.
    """
    perts = tuple(perturbations)
    return _emit_checkpoint(spec, path, perts, EXPECTED_DIFFS_NAME)

"""Differential harness: every merge path against the naive oracle on random checkpoints.

Each seed draws 2-3 parents with convex weights, a threshold of 0 or 1e-3,
an experts-only or full subset, and tensors of mixed dtypes and sizes,
from empty to past one block, in one or two shards. The fused merge at 1
and 2 workers, ``merge --plan`` of its plan and ``merge --recipe
--diffs`` over the cache ``diff`` writes must write the bytes of
``naive_oracle.naive_merge``, and the fused pass's ``merge_plan.json``
must be the plan ``plan_merge`` makes from ``compute_diffs``. The values
are finite and every planted diff is far from the threshold, so the
oracle's own diff formula decides every tensor the same way. The cases of
``NONFINITE_SEEDS`` then plant NaN or an infinity in some parents, and the
paths must agree with each other on every file and non-finite report.
"""

import json

import numpy as np
import pytest

import moemerge as mm
from moemerge.cli import main
from moemerge.taxonomy import EXPERTS_ONLY_SUBSET, FULL_SUBSET, TensorGroup
from moemerge.tensor_math import BLOCK_ELEMS

import naive_oracle
from conftest import build_safetensors

# Fixed before the harness first ran. A seed that fails stays in the list;
# the code is fixed instead.
SEEDS = [101, 102, 103, 104, 105, 106, 107, 108, 109, 110]
# The same rule holds for the cases with non-finite values.
NONFINITE_SEEDS = [201, 202, 203, 204, 205, 206, 207, 208, 209, 210]

_DTYPES = ["BF16", "F16", "F32", "F64", "I32"]
_SIZES = [0, 1, 3, 8, 100, 1000, 5000, 20000]
_CODES = {"F16": "<f2", "F32": "<f4", "F64": "<f8", "I32": "<i4"}


def _names():
    """Tensor names in layout order; the routed experts are the oracle's."""
    names = ["model.embed_tokens.weight"]
    for layer in range(3):
        names += [
            f"model.layers.{layer}.input_layernorm.weight",
            f"model.layers.{layer}.self_attn.q_proj.weight",
            f"model.layers.{layer}.mlp.gate.weight",
        ]
        names += [
            f"model.layers.{layer}.mlp.experts.{expert}.{proj}_proj.weight"
            for expert in range(3)
            for proj in ("gate", "up", "down")
        ]
    return names + ["model.norm.weight", "lm_head.weight"]


def _raw(dtype, values):
    if dtype == "BF16":
        return (values.astype("<f4").view("<u4") >> 16).astype("<u2").tobytes()
    return values.astype(_CODES[dtype]).tobytes()


def _draw(rng, dtype, n, kind, base):
    """A parent's values: the base's, or the base moved far from or well
    within the thresholds."""
    if base is None:
        return rng.integers(-50, 50, n) if dtype == "I32" else rng.standard_normal(n)
    if kind == "same":
        return base
    if dtype == "I32":
        return base + rng.integers(1, 4, n)
    scale = 1e-7 if kind == "tiny" else 0.05
    return base + scale * rng.standard_normal(n)


def _case(rng, root):
    """Write one random case's parents; returns their paths and the recipe values."""
    parents = int(rng.integers(2, 4))
    weights = rng.uniform(0.1, 1.0, parents)
    lambdas = tuple(float(w) for w in weights / weights.sum())
    delta = float(rng.choice([0.0, 1e-3]))
    experts_only = bool(rng.integers(2))
    names = [n for n in _names() if rng.random() < 0.6] or _names()[:1]
    tensors, dtype = [], None
    for name in names:
        if dtype is None or rng.random() < 0.3:
            dtype = str(rng.choice(_DTYPES))
        tensors.append([name, dtype, int(rng.choice(_SIZES))])
    if rng.random() < 0.5:
        tensors[int(rng.integers(len(tensors)))][2] = BLOCK_ELEMS + int(rng.integers(1, 1000))
    cut = int(rng.integers(1, len(tensors) + 1))
    paths, values = [], {}
    for p in range(parents):
        shards = [[], []]
        for t, (name, dtype, n) in enumerate(tensors):
            kinds = ["same", "big", "tiny"] if dtype in ("F32", "F64") else ["same", "big"]
            kind = str(rng.choice(kinds))
            values[(p, name)] = _draw(rng, dtype, n, kind, values.get((0, name)))
            shards[t >= cut].append((name, dtype, [n], _raw(dtype, values[(p, name)])))
        path = root / f"parent{p}"
        path.mkdir()
        for i, entries in enumerate(s for s in shards if s):
            (path / f"part-{i}.safetensors").write_bytes(build_safetensors(entries))
        paths.append(str(path))
    return paths, lambdas, delta, experts_only


def _plant_nonfinite(rng, paths):
    """Overwrite one element of some float tensors, each in one random
    parent, with NaN or an infinity, in place."""
    models = [mm.open_checkpoint(p) for p in paths]
    for name, info in models[0].tensors.items():
        if info.dtype.name not in ("BF16", "F16", "F32", "F64") or not info.numel:
            continue
        if rng.random() >= 0.4:
            continue
        model = models[int(rng.integers(len(models)))]
        value = float(rng.choice([np.nan, np.inf, -np.inf]))
        info = model.tensors[name]
        shard = next(s for s in model.shards if s.name == info.shard)
        width = info.nbytes // info.numel
        offset = shard.data_start + info.data_offsets[0] + width * int(rng.integers(info.numel))
        with open(shard.path, "r+b") as f:
            f.seek(offset)
            f.write(_raw(info.dtype.name, np.array([value])))


def _merged_files(root):
    """Every file of a child but its report, and the report's non-finite inputs."""
    files = {p.name: p.read_bytes() for p in root.iterdir() if p.name != "merge_report.json"}
    report = json.loads((root / "merge_report.json").read_text("utf-8"))
    return files, report["nonfinite_inputs"]


def _payloads(root):
    return {name: raw for name, (_, raw) in naive_oracle.load_model(root).items()}


def _mismatches(got, want):
    return sorted(name for name in want.keys() | got.keys() if got.get(name) != want.get(name))


def test_the_harness_names_agree_with_the_oracle():
    for name in _names():
        routed = mm.classify(name).group is TensorGroup.ROUTED_EXPERT_MLP
        assert routed == naive_oracle.is_routed_expert(name), name


@pytest.mark.parametrize("seed", SEEDS)
def test_every_merge_path_writes_the_oracle_bytes(tmp_path, seed):
    paths, lambdas, delta, experts_only = _case(np.random.default_rng(seed), tmp_path)
    config = mm.MergeConfig(
        models=tuple(paths), lambdas=lambdas, delta=delta,
        subset=EXPERTS_ONLY_SUBSET if experts_only else FULL_SUBSET,
    )
    want = naive_oracle.naive_merge(paths[0], paths[1:], lambdas, delta, experts_only)
    models = [mm.open_checkpoint(p) for p in paths]
    plan = mm.plan_merge(config, mm.compute_diffs(models), [m.fingerprint() for m in models])
    for workers in (1, 2):
        out = tmp_path / f"fused{workers}"
        mm.execute_merge(None, config, out, workers=workers)
        assert (out / "merge_plan.json").read_text("utf-8") == plan.to_json_text()
        assert _mismatches(_payloads(out), want) == [], workers
    reviewed = tmp_path / "reviewed"
    assert main(["merge", "--plan", str(tmp_path / "fused1" / "merge_plan.json"),
                 "--out", str(reviewed)]) == 0
    assert _mismatches(_payloads(reviewed), want) == []
    recipe, cache, cached = tmp_path / "recipe.json", tmp_path / "diffs.json", tmp_path / "cached"
    recipe.write_text(json.dumps(config.to_json_obj()), "utf-8")
    assert main(["diff", *paths, "--out", str(cache)]) == 0
    assert main(["merge", "--recipe", str(recipe), "--diffs", str(cache),
                 "--out", str(cached)]) == 0
    assert (cached / "merge_plan.json").read_text("utf-8") == plan.to_json_text()
    assert _mismatches(_payloads(cached), want) == []


@pytest.mark.parametrize("seed", NONFINITE_SEEDS)
def test_every_merge_path_agrees_with_nonfinite_parents(tmp_path, seed):
    """NaN and infinities in some parents: the paths agree with each other
    on the shards, the plan and the reported non-finite inputs. The oracle
    is not consulted: its gate takes a plain ``max`` over the diffs."""
    rng = np.random.default_rng(seed)
    paths, lambdas, delta, experts_only = _case(rng, tmp_path)
    _plant_nonfinite(rng, paths)
    config = mm.MergeConfig(
        models=tuple(paths), lambdas=lambdas, delta=delta,
        subset=EXPERTS_ONLY_SUBSET if experts_only else FULL_SUBSET,
    )
    for workers in (1, 2):
        mm.execute_merge(None, config, tmp_path / f"fused{workers}", workers=workers)
    want = _merged_files(tmp_path / "fused1")
    recipe, cache = tmp_path / "recipe.json", tmp_path / "diffs.json"
    recipe.write_text(json.dumps(config.to_json_obj()), "utf-8")
    assert main(["merge", "--plan", str(tmp_path / "fused1" / "merge_plan.json"),
                 "--out", str(tmp_path / "reviewed")]) == 0
    assert main(["diff", *paths, "--out", str(cache)]) == 0
    assert main(["merge", "--recipe", str(recipe), "--diffs", str(cache),
                 "--out", str(tmp_path / "cached")]) == 0
    for out in ("fused2", "reviewed", "cached"):
        assert _merged_files(tmp_path / out) == want, out

import dataclasses
import errno
import json
import os
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import moemerge as mm
from moemerge import merge_core
from moemerge.errors import FormatError, MergeError, RecipeError
from moemerge.planning import (
    ACTION_COPY_BASE,
    ACTION_MERGE,
    REASON_BELOW_THRESHOLD,
    REASON_NOT_IN_SUBSET,
    MergeDecision,
    MergePlan,
)
from moemerge.taxonomy import (
    EXPERTS_ONLY_SUBSET,
    NamingScheme,
    TensorGroup,
    subset_from_json_obj,
)
from moemerge.tensor_math import BLOCK_ELEMS

from conftest import (
    TINY_SPEC,
    build_safetensors,
    fail_encode_after,
    hidden_siblings,
    read_values,
    tree_bytes,
)


def pair_config(pair, **kwargs):
    defaults = dict(
        models=(str(pair["base"].root), str(pair["variant"].root)),
        lambdas=(0.5, 0.5),
    )
    defaults.update(kwargs)
    return mm.MergeConfig(**defaults)


def fingerprints(pair):
    return [pair["base"].fingerprint(), pair["variant"].fingerprint()]


# --- config validation ------------------------------------------------------------


def test_config_validation():
    cfg = mm.MergeConfig(models=("a", "b"), lambdas=(0.6, 0.4))
    cfg.validate()
    with pytest.raises(RecipeError, match="lambdas"):
        mm.MergeConfig(models=("a", "b"), lambdas=(1.0,)).validate()
    with pytest.raises(RecipeError, match="sum to 1"):
        mm.MergeConfig(models=("a", "b"), lambdas=(0.6, 0.5)).validate()
    with pytest.raises(RecipeError, match="non-negative"):
        mm.MergeConfig(models=("a", "b"), lambdas=(1.5, -0.5)).validate()
    with pytest.raises(RecipeError, match="delta"):
        mm.MergeConfig(models=("a",), lambdas=(1.0,), delta=-1e-9).validate()
    # an infinite threshold is a valid gate: nothing merges
    mm.MergeConfig(models=("a",), lambdas=(1.0,), delta=float("inf")).validate()
    # non-convex weights allowed only behind the flag
    mm.MergeConfig(models=("a", "b"), lambdas=(1.5, -0.5), convex_required=False).validate()
    # convexity tolerance is 1e-12
    mm.MergeConfig(models=("a", "b"), lambdas=(0.5, 0.5 + 4e-13)).validate()


# --- compatibility ------------------------------------------------------------------


def test_compatibility_fixture_pair_empty(tiny_pair):
    assert mm.validate_compatibility([tiny_pair["base"], tiny_pair["variant"]]) == []


def test_compatibility_missing_and_mismatched(tmp_path):
    a = tmp_path / "a.safetensors"
    b = tmp_path / "b.safetensors"
    f32 = np.zeros(4, dtype="<f4").tobytes()
    a.write_bytes(build_safetensors([("x", "F32", [4], f32), ("y", "F32", [4], f32)]))
    b.write_bytes(build_safetensors([("x", "F32", [2, 2], f32)]))
    problems = mm.validate_compatibility([mm.open_checkpoint(a), mm.open_checkpoint(b)])
    assert any("missing in model 2" in p for p in problems)
    assert any("shape mismatch" in p for p in problems)


def test_compatibility_dtype_mismatch(tmp_path):
    a = tmp_path / "a.safetensors"
    b = tmp_path / "b.safetensors"
    a.write_bytes(build_safetensors([("x", "F32", [2], np.zeros(2, "<f4").tobytes())]))
    b.write_bytes(build_safetensors([("x", "F16", [2], np.zeros(2, "<f2").tobytes())]))
    problems = mm.validate_compatibility([mm.open_checkpoint(a), mm.open_checkpoint(b)])
    assert problems == ["'x' dtype mismatch in model 2: F16 vs F32"]


# --- compute_diffs -------------------------------------------------------------------


def test_diffs_identical_models_all_zero(tiny_pair, tmp_path):
    base = tiny_pair["base"]
    clone, _ = mm.generate_base(TINY_SPEC, tmp_path / "clone")
    records = mm.compute_diffs([base, clone])
    assert all(r.max_diff == 0.0 for r in records)
    assert len(records) == len(base.tensors)


def test_diffs_single_model_all_zero(tiny_pair):
    records = mm.compute_diffs([tiny_pair["base"]])
    assert all(r.max_diff == 0.0 and r.per_model_diff == () for r in records)


def test_diffs_shifted_tensor_is_exactly_one(tmp_path):
    f32 = np.arange(8, dtype="<f4")
    a = tmp_path / "a.safetensors"
    b = tmp_path / "b.safetensors"
    a.write_bytes(build_safetensors([("x", "F32", [8], f32.tobytes()),
                                     ("y", "F32", [8], f32.tobytes())]))
    b.write_bytes(build_safetensors([("x", "F32", [8], (f32 + 1.0).tobytes()),
                                     ("y", "F32", [8], f32.tobytes())]))
    records = {r.name: r for r in mm.compute_diffs([mm.open_checkpoint(a), mm.open_checkpoint(b)])}
    assert records["x"].max_diff == 1.0
    assert records["y"].max_diff == 0.0


def test_diffs_three_models_max_of_pairwise(tiny_pair, tmp_path):
    import math

    base = tiny_pair["base"]
    var1 = tiny_pair["variant"]
    var2, _ = mm.generate_variant(
        TINY_SPEC, (mm.PerturbationSpec("attention", "shift", 0.05),), tmp_path / "v2"
    )
    records = mm.compute_diffs([base, var1, var2])
    for r in records:
        assert r.max_diff == max(r.per_model_diff)
        assert len(r.per_model_diff) == 2
        # brute-force recomputation per pair
        a = read_values(base, r.name)
        for i, other in enumerate((var1, var2)):
            b = read_values(other, r.name)
            want = math.sqrt(math.fsum((x - y) ** 2 for x, y in zip(a, b))) / math.sqrt(a.size)
            assert r.per_model_diff[i] == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_diffs_deterministic_across_workers(tiny_pair):
    models = [tiny_pair["base"], tiny_pair["variant"]]
    one = mm.compute_diffs(models, workers=1)
    two = mm.compute_diffs(models, workers=2)
    eight = mm.compute_diffs(models, workers=8)
    assert one == two == eight


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_ordered_parallel_window_bounds_items_in_flight(workers):
    pulled = 0

    def items():
        nonlocal pulled
        for i in range(20):
            pulled += 1
            yield i

    received = []
    for result in merge_core._ordered_parallel(items(), lambda i: i * i, workers):
        received.append(result)
        assert pulled - len(received) <= 2 * workers
    assert received == [i * i for i in range(20)]


@pytest.mark.parametrize("workers", [0, -1])
def test_workers_below_one_raise_before_anything_is_opened(tiny_pair, tmp_path, monkeypatch,
                                                          workers):
    def unreachable(*args, **kwargs):
        raise AssertionError("something was opened")

    monkeypatch.setattr(merge_core, "open_checkpoint", unreachable)
    monkeypatch.setattr(merge_core, "shard_handles", unreachable)
    with pytest.raises(ValueError, match="workers must be at least 1"):
        mm.compute_diffs([tiny_pair["base"], tiny_pair["variant"]], workers=workers)
    out = tmp_path / "child"
    with pytest.raises(ValueError, match="workers must be at least 1"):
        mm.execute_merge(None, pair_config(tiny_pair), out, workers=workers)
    assert list(tmp_path.iterdir()) == []


# --- diff cache -----------------------------------------------------------------------


def test_diff_cache_round_trip(tiny_pair, tmp_path):
    records = mm.compute_diffs([tiny_pair["base"], tiny_pair["variant"]])
    path = tmp_path / "cache.json"
    mm.save_diff_cache(records, path, fingerprints(tiny_pair))
    loaded, fps = mm.load_diff_cache(path, fingerprints(tiny_pair))
    assert loaded == records
    assert fps == fingerprints(tiny_pair)


def test_diff_cache_fingerprint_mismatch(tiny_pair, tmp_path):
    records = mm.compute_diffs([tiny_pair["base"], tiny_pair["variant"]])
    path = tmp_path / "cache.json"
    mm.save_diff_cache(records, path, fingerprints(tiny_pair))
    with pytest.raises(MergeError, match="different checkpoints"):
        mm.load_diff_cache(path, ["deadbeef", "deadbeef"])


# --- plan_merge -----------------------------------------------------------------------


def test_plan_full_delta_zero_merges_everything_with_positive_diff(tiny_pair):
    diffs = mm.compute_diffs([tiny_pair["base"], tiny_pair["variant"]])
    plan = mm.plan_merge(pair_config(tiny_pair), diffs, fingerprints(tiny_pair))
    for d, record in zip(plan.decisions, diffs):
        if record.max_diff > 0:
            assert d.action == ACTION_MERGE
        else:
            assert d.action == ACTION_COPY_BASE and d.reason == REASON_BELOW_THRESHOLD


def test_plan_experts_only_copies_everything_else(tiny_pair):
    diffs = mm.compute_diffs([tiny_pair["base"], tiny_pair["variant"]])
    cfg = pair_config(tiny_pair, subset=EXPERTS_ONLY_SUBSET)
    plan = mm.plan_merge(cfg, diffs, fingerprints(tiny_pair))
    for d in plan.decisions:
        if d.category.group is not TensorGroup.ROUTED_EXPERT_MLP:
            assert d.action == ACTION_COPY_BASE
            assert d.reason == REASON_NOT_IN_SUBSET


def test_plan_threshold_boundary_is_strict(tiny_pair):
    diffs = mm.compute_diffs([tiny_pair["base"], tiny_pair["variant"]])
    planted = next(r for r in diffs if r.max_diff > 0)
    cfg = pair_config(tiny_pair, delta=planted.max_diff)
    plan = mm.plan_merge(cfg, diffs, fingerprints(tiny_pair))
    decision = next(d for d in plan.decisions if d.name == planted.name)
    assert decision.action == ACTION_COPY_BASE
    assert decision.reason == REASON_BELOW_THRESHOLD


def test_plan_covers_each_tensor_once(tiny_pair):
    diffs = mm.compute_diffs([tiny_pair["base"], tiny_pair["variant"]])
    plan = mm.plan_merge(pair_config(tiny_pair), diffs, fingerprints(tiny_pair))
    names = [d.name for d in plan.decisions]
    assert sorted(names) == sorted(tiny_pair["base"].tensors)
    assert len(set(names)) == len(names)
    counts = plan.counts()
    assert counts["merged"] + counts["copied"] == counts["tensors"]


def test_plan_json_round_trip(tiny_pair, tmp_path):
    diffs = mm.compute_diffs([tiny_pair["base"], tiny_pair["variant"]])
    cfg = pair_config(
        tiny_pair,
        subset=subset_from_json_obj({
            "groups": ["routed_expert_mlp"],
            "patterns": [{"pattern": "lm_head.**", "include": True}],
        }),
        scheme=NamingScheme.from_json_obj(
            [{"pattern": "model.layers.{layer}.mlp.experts.{expert}.{proj}.weight",
              "group": "routed_expert_mlp"}]
        ),
    )
    plan = mm.plan_merge(cfg, diffs, fingerprints(tiny_pair))
    obj = plan.to_json_obj()
    again = MergePlan.from_json_obj(json.loads(json.dumps(obj)))
    assert again.to_json_obj() == obj
    assert again.decisions == plan.decisions
    assert again.model_fingerprints == plan.model_fingerprints
    assert again.config == cfg


# --- execute_merge ----------------------------------------------------------------------


def run_merge(pair, out, cfg=None, diffs=None, **exec_kwargs):
    cfg = cfg or pair_config(pair)
    diffs = diffs or mm.compute_diffs([pair["base"], pair["variant"]])
    plan = mm.plan_merge(cfg, diffs, fingerprints(pair))
    return mm.execute_merge(plan, cfg, out, **exec_kwargs)


def test_execute_refuses_a_config_other_than_the_plans(tiny_pair, tmp_path):
    diffs = mm.compute_diffs([tiny_pair["base"], tiny_pair["variant"]])
    plan = mm.plan_merge(pair_config(tiny_pair), diffs, fingerprints(tiny_pair))
    other = pair_config(tiny_pair, lambdas=(0.2, 0.8), subset=EXPERTS_ONLY_SUBSET)
    out = tmp_path / "m"
    with pytest.raises(RecipeError, match="its own config"):
        mm.execute_merge(plan, other, out)
    assert list(tmp_path.iterdir()) == []


def test_execute_base_identity(tiny_pair, tmp_path):
    cfg = pair_config(tiny_pair, lambdas=(1.0, 0.0))
    out, report = run_merge(tiny_pair, tmp_path / "m", cfg=cfg)
    for name in tiny_pair["base"].tensors:
        assert mm.read_tensor_raw(out, name) == mm.read_tensor_raw(tiny_pair["base"], name)
    assert report.counts["tensors"] == len(tiny_pair["base"].tensors)


def test_execute_takes_model2_at_lambda_01(tiny_pair, tmp_path):
    cfg = pair_config(tiny_pair, lambdas=(0.0, 1.0))
    out, _ = run_merge(tiny_pair, tmp_path / "m", cfg=cfg)
    for name in tiny_pair["base"].tensors:
        assert mm.read_tensor_raw(out, name) == mm.read_tensor_raw(tiny_pair["variant"], name)


def test_execute_self_merge_fixed_point(tiny_pair, tmp_path):
    base = tiny_pair["base"]
    cfg = mm.MergeConfig(models=(str(base.root), str(base.root)), lambdas=(0.5, 0.5))
    diffs = mm.compute_diffs([base, base])
    plan = mm.plan_merge(cfg, diffs, [base.fingerprint()] * 2)
    out, _ = mm.execute_merge(plan, cfg, tmp_path / "m")
    for name in base.tensors:
        assert mm.read_tensor_raw(out, name) == mm.read_tensor_raw(base, name)


def test_execute_zero_diff_neutrality_forced_merge(tiny_pair, tmp_path):
    """Gating identical tensors in or out produces identical bytes."""
    base = tiny_pair["base"]
    cfg = mm.MergeConfig(models=(str(base.root), str(base.root)), lambdas=(0.5, 0.5))
    records = mm.compute_diffs([base, base])
    forced = MergePlan(
        decisions=[
            MergeDecision(
                name=r.name, category=r.category, action=ACTION_MERGE, max_diff=r.max_diff
            )
            for r in records
        ],
        model_fingerprints=[base.fingerprint()] * 2,
        config=cfg,
    )
    out, _ = mm.execute_merge(forced, cfg, tmp_path / "m")
    for name in base.tensors:
        assert mm.read_tensor_raw(out, name) == mm.read_tensor_raw(base, name)


def test_execute_matches_manual_average(tiny_pair, tmp_path):
    out, _ = run_merge(tiny_pair, tmp_path / "m")
    base, variant = tiny_pair["base"], tiny_pair["variant"]
    for name in list(base.tensors)[:8]:
        a = read_values(base, name)
        b = read_values(variant, name)
        got = read_values(out, name)
        want = (0.5 * a + 0.5 * b).astype(np.float32).astype(np.float64)
        if not np.array_equal(a, b):
            assert np.array_equal(got, want)
        else:
            assert np.array_equal(got, a)


def test_execute_stale_plan_hash_mismatch(tiny_pair, tmp_path):
    cfg = pair_config(tiny_pair)
    diffs = mm.compute_diffs([tiny_pair["base"], tiny_pair["variant"]])
    plan = mm.plan_merge(cfg, diffs, ["stale", "hashes"])
    with pytest.raises(MergeError, match="changed since planning"):
        mm.execute_merge(plan, cfg, tmp_path / "m")


def test_execute_rerun_is_byte_identical(tiny_pair, tmp_path):
    out1, _ = run_merge(tiny_pair, tmp_path / "m1")
    out2, _ = run_merge(tiny_pair, tmp_path / "m2")
    for s1, s2 in zip(out1.shards, out2.shards):
        assert s1.path.read_bytes() == s2.path.read_bytes()


def test_execute_workers_do_not_change_output(tiny_pair, tmp_path):
    outs = {}
    for workers in (1, 2, 8):
        out, _ = run_merge(tiny_pair, tmp_path / f"w{workers}", workers=workers)
        outs[workers] = [s.path.read_bytes() for s in out.shards]
    assert outs[1] == outs[2] == outs[8]


def test_execute_mirrors_shard_layout(tiny_pair, tmp_path):
    out, _ = run_merge(tiny_pair, tmp_path / "m")
    base = tiny_pair["base"]
    assert [s.name for s in out.shards] == [s.name for s in base.shards]
    assert out.layout_names() == base.layout_names()
    assert out.index_name == base.index_name


def test_execute_provenance_metadata(tiny_pair, tmp_path):
    out, report = run_merge(tiny_pair, tmp_path / "m")
    meta = out.metadata or {}
    assert meta["aoe.base"] == str(tiny_pair["base"].root)
    assert json.loads(meta["aoe.lambdas"]) == [0.5, 0.5]
    assert json.loads(meta["aoe.delta"]) == 0.0
    assert json.loads(meta["aoe.subset"]) == "full"
    assert meta["aoe.tool_version"] == mm.__version__
    assert json.loads(meta["aoe.models"]) == [
        str(tiny_pair["base"].root), str(tiny_pair["variant"].root)
    ]


def test_execute_counts_nonfinite_inputs(tmp_path):
    f32 = np.array([1.0, np.inf, 3.0, 4.0], dtype="<f4")
    g32 = np.array([1.0, 2.0, 3.0, 5.0], dtype="<f4")
    a = tmp_path / "a.safetensors"
    b = tmp_path / "b.safetensors"
    a.write_bytes(build_safetensors([("x", "F32", [4], f32.tobytes())]))
    b.write_bytes(build_safetensors([("x", "F32", [4], g32.tobytes())]))
    cfg = mm.MergeConfig(models=(str(a), str(b)), lambdas=(0.5, 0.5))
    models = [mm.open_checkpoint(a), mm.open_checkpoint(b)]
    diffs = mm.compute_diffs(models)
    plan = mm.plan_merge(cfg, diffs, [m.fingerprint() for m in models])
    out, report = mm.execute_merge(plan, cfg, tmp_path / "merged")
    assert report.nonfinite == [{"name": "x", "models": [1]}]
    # the merge did not abort and the NaN/Inf propagated per float rules
    got = read_values(out, "x")
    assert got[1] == np.inf


def test_execute_copy_path_preserves_nan_payloads(tmp_path):
    # a non-canonical NaN payload in a tensor that is copied, not merged
    bits = np.array([0x7FC12345, 0x3F800000], dtype="<u4")
    a = tmp_path / "a.safetensors"
    b = tmp_path / "b.safetensors"
    a.write_bytes(build_safetensors([("x", "F32", [2], bits.tobytes())]))
    b.write_bytes(build_safetensors([("x", "F32", [2], bits.tobytes())]))
    cfg = mm.MergeConfig(models=(str(a), str(b)), lambdas=(0.5, 0.5))
    models = [mm.open_checkpoint(p) for p in (a, b)]
    diffs = mm.compute_diffs(models)  # NaN == NaN diff -> NaN? no: NaN-NaN = NaN
    plan = mm.plan_merge(cfg, diffs, [m.fingerprint() for m in models])
    out, _ = mm.execute_merge(plan, cfg, tmp_path / "m")
    assert mm.read_tensor_raw(out, "x") == bits.tobytes()


def test_execute_replaces_leftover_shards_in_out(tmp_path):
    # an index-less base: the output is found by globbing, so a stale shard
    # left in the directory would become part of the merged checkpoint
    data = np.arange(4, dtype="<f4").tobytes()
    a = tmp_path / "a.safetensors"
    b = tmp_path / "b.safetensors"
    a.write_bytes(build_safetensors([("x", "F32", [4], data)]))
    b.write_bytes(build_safetensors([("x", "F32", [4], data)]))
    out = tmp_path / "out"
    out.mkdir()
    (out / "old-leftover.safetensors").write_bytes(
        build_safetensors([("junk.weight", "F32", [4], data)])
    )
    cfg = mm.MergeConfig(models=(str(a), str(b)), lambdas=(0.5, 0.5))
    index, _ = mm.execute_merge(None, cfg, out)
    assert "junk.weight" not in index.tensors
    assert sorted(p.name for p in out.iterdir()) == [
        "a.safetensors", "merge_plan.json", "merge_report.json",
    ]


def test_failed_rerun_leaves_the_earlier_output_byte_identical(tiny_pair, tmp_path, monkeypatch):
    out = tmp_path / "m"
    mm.execute_merge(None, pair_config(tiny_pair), out)
    before = tree_bytes(out)
    # the tensors form one run per shard; the second run's encode fails
    # after the first shard is written
    fail_encode_after(monkeypatch, 1)
    with pytest.raises(OSError, match="disk full"):
        mm.execute_merge(None, pair_config(tiny_pair, lambdas=(0.2, 0.8)), out)
    assert tree_bytes(out) == before
    assert hidden_siblings(out) == []


# --- threshold sweep ---------------------------------------------------------------------


def test_sweep_monotone_and_extremes(tiny_pair):
    diffs = mm.compute_diffs([tiny_pair["base"], tiny_pair["variant"]])
    cfg = pair_config(tiny_pair)
    top = max(r.max_diff for r in diffs)
    rows = mm.threshold_sweep(diffs, cfg, [0.0, 0.005, 0.015, top, top * 2])
    totals = [r.total for r in rows]
    assert totals == sorted(totals, reverse=True)
    assert rows[0].total == sum(1 for r in diffs if r.max_diff > 0)
    assert rows[-1].total == 0
    # boundary: delta equal to the max diff excludes those tensors (strict >)
    at_top = rows[3]
    assert all(
        r.max_diff <= top for r in diffs
    ) and at_top.total == sum(1 for r in diffs if r.max_diff > top)


def test_sweep_planted_levels_step_down(tmp_path):
    spec = dataclasses.replace(TINY_SPEC, seed=77)
    base, _ = mm.generate_base(spec, tmp_path / "base")
    perts = (
        mm.PerturbationSpec("shared_expert_mlp", "shift", 0.001),
        mm.PerturbationSpec("attention", "shift", 0.002),
        mm.PerturbationSpec("routed_expert_mlp", "shift", 0.003),
    )
    var, _ = mm.generate_variant(spec, perts, tmp_path / "var")
    diffs = mm.compute_diffs([base, var])
    cfg = mm.MergeConfig(models=(str(base.root), str(var.root)), lambdas=(0.5, 0.5))
    rows = mm.threshold_sweep(diffs, cfg, [0.0015, 0.0025, 0.0035])
    shared = [r.by_group["shared_expert_mlp"] for r in rows]
    attn = [r.by_group["attention"] for r in rows]
    routed = [r.by_group["routed_expert_mlp"] for r in rows]
    assert shared == [0, 0, 0]  # excluded from the first threshold on
    assert attn[0] > 0 and attn[1] == attn[2] == 0
    assert routed[0] > 0 and routed[1] > 0 and routed[2] == 0


def test_sweep_respects_subset(tiny_pair):
    diffs = mm.compute_diffs([tiny_pair["base"], tiny_pair["variant"]])
    cfg = pair_config(tiny_pair, subset=EXPERTS_ONLY_SUBSET)
    rows = mm.threshold_sweep(diffs, cfg, [0.0])
    assert rows[0].total == rows[0].by_group["routed_expert_mlp"]
    assert rows[0].by_group["attention"] == 0


def test_single_model_merge_copies_base(tiny_pair, tmp_path):
    base = tiny_pair["base"]
    cfg = mm.MergeConfig(models=(str(base.root),), lambdas=(1.0,))
    diffs = mm.compute_diffs([base])
    plan = mm.plan_merge(cfg, diffs, [base.fingerprint()])
    assert all(d.action == ACTION_COPY_BASE for d in plan.decisions)
    out, _ = mm.execute_merge(plan, cfg, tmp_path / "m")
    for name in base.tensors:
        assert mm.read_tensor_raw(out, name) == mm.read_tensor_raw(base, name)


def test_config_json_round_trip(tiny_pair):
    cfg = mm.MergeConfig(
        models=("a", "b"), lambdas=(0.5, 0.5),
        subset=mm.SubsetSpec(
            mm.SubsetMode.CUSTOM, frozenset({TensorGroup.ATTENTION}), (("lm_head.**", True),)
        ),
        scheme=mm.NamingScheme.from_rules([("model.layers.{layer}.attn.**", "attention")]),
    )
    again = mm.MergeConfig.from_json_obj(json.loads(json.dumps(cfg.to_json_obj())))
    assert again == cfg


# --- fused single-pass merge -----------------------------------------------------------


def shard_bytes(index):
    return [s.path.read_bytes() for s in index.shards]


def trio_config(trio, **kwargs):
    defaults = dict(
        models=tuple(str(m.root) for m in trio["models"]),
        lambdas=(0.5, 0.25, 0.25),
        delta=0.005,
    )
    defaults.update(kwargs)
    return mm.MergeConfig(**defaults)


@pytest.mark.parametrize("subset", [mm.FULL_SUBSET, EXPERTS_ONLY_SUBSET], ids=["full", "experts"])
@pytest.mark.parametrize("workers", [1, 2, 8])
def test_fused_merge_matches_plan_then_execute(tiny_trio, tmp_path, subset, workers):
    models = tiny_trio["models"]
    cfg = trio_config(tiny_trio, subset=subset)
    plan = mm.plan_merge(cfg, mm.compute_diffs(models), [m.fingerprint() for m in models])
    counts = plan.counts()
    assert counts["merged"] > 0 and counts["copied"] > 0
    planned, planned_report = mm.execute_merge(plan, cfg, tmp_path / "planned")
    fused, report = mm.execute_merge(None, cfg, tmp_path / "fused", workers=workers)
    assert json.dumps(report.plan.to_json_obj()) == json.dumps(plan.to_json_obj())
    assert report.counts == planned_report.counts == counts
    assert "plan" not in report.to_json_obj()
    assert shard_bytes(fused) == shard_bytes(planned)


def test_multi_block_tensor_diffs_identically_everywhere(tmp_path):
    import math

    n = 3 * BLOCK_ELEMS + 1000
    rng = np.random.default_rng(3)
    a = rng.standard_normal(n).astype("<f4")
    b = (a + 0.01 * rng.standard_normal(n)).astype("<f4")
    small = np.arange(8, dtype="<f4")
    paths = []
    for tag, big in (("a", a), ("b", b)):
        path = tmp_path / f"{tag}.safetensors"
        path.write_bytes(build_safetensors([
            ("big", "F32", [n], big.tobytes()), ("small", "F32", [8], small.tobytes()),
        ]))
        paths.append(path)
    models = [mm.open_checkpoint(p) for p in paths]
    want = mm.normalized_frobenius_diff(a.astype(np.float64), b.astype(np.float64))
    oracle = math.sqrt(math.fsum((a.astype(np.float64) - b) ** 2)) / math.sqrt(n)
    assert want == pytest.approx(oracle, rel=1e-12)
    merged = mm.encode(mm.linear_combination([a, b], (0.5, 0.5)), mm.DType.F32)
    cfg = mm.MergeConfig(models=tuple(str(p) for p in paths), lambdas=(0.5, 0.5))
    for workers in (1, 2, 8):
        records = mm.compute_diffs(models, workers=workers)
        assert records[0].name == "big" and records[0].max_diff == want
        out, report = mm.execute_merge(None, cfg, tmp_path / f"m{workers}", workers=workers)
        assert report.plan.decisions[0].max_diff == want
        assert mm.read_tensor_raw(out, "big") == merged
        assert mm.read_tensor_raw(out, "small") == small.tobytes()


def test_fused_gate_tie_copies_the_base(tmp_path):
    f32 = np.arange(8, dtype="<f4")
    a = tmp_path / "a.safetensors"
    b = tmp_path / "b.safetensors"
    a.write_bytes(build_safetensors([("x", "F32", [8], f32.tobytes())]))
    b.write_bytes(build_safetensors([("x", "F32", [8], (f32 + 1.0).tobytes())]))
    models = (str(a), str(b))
    out, report = mm.execute_merge(
        None, mm.MergeConfig(models=models, lambdas=(0.5, 0.5), delta=1.0), tmp_path / "tie"
    )
    (decision,) = report.plan.decisions
    assert decision.max_diff == 1.0
    assert decision.action == ACTION_COPY_BASE and decision.reason == REASON_BELOW_THRESHOLD
    assert mm.read_tensor_raw(out, "x") == f32.tobytes()
    _, report = mm.execute_merge(
        None,
        mm.MergeConfig(models=models, lambdas=(0.5, 0.5), delta=np.nextafter(1.0, 0.0)),
        tmp_path / "below",
    )
    assert report.plan.decisions[0].action == ACTION_MERGE


def test_fused_nan_copy_is_bit_exact_and_merged_nan_is_reported(tmp_path):
    # x: a signaling NaN payload in every parent, so its diff is NaN and it is copied.
    # y: model 3 holds a NaN, but model 2's finite diff opens the gate.
    x = np.array([0x7FA12345, 0x3F800000], dtype="<u4").tobytes()
    ys = [
        np.array([1.0, 2.0], dtype="<f4"),
        np.array([1.0, 3.0], dtype="<f4"),
        np.array([np.nan, 2.0], dtype="<f4"),
    ]
    paths = []
    for i, y in enumerate(ys):
        path = tmp_path / f"m{i}.safetensors"
        path.write_bytes(build_safetensors([("x", "F32", [2], x), ("y", "F32", [2], y.tobytes())]))
        paths.append(str(path))
    cfg = mm.MergeConfig(models=tuple(paths), lambdas=(0.5, 0.25, 0.25))
    out, report = mm.execute_merge(None, cfg, tmp_path / "merged")
    actions = {d.name: d.action for d in report.plan.decisions}
    assert actions == {"x": ACTION_COPY_BASE, "y": ACTION_MERGE}
    assert mm.read_tensor_raw(out, "x") == x
    assert report.nonfinite == [{"name": "y", "models": [3]}]
    assert np.isnan(read_values(out, "y")[0])


def test_diff_progress_does_not_change_the_cache(tiny_pair, tmp_path):
    models = [tiny_pair["base"], tiny_pair["variant"]]
    calls = []
    with_cb = mm.compute_diffs(models, workers=2, progress=lambda d, t: calls.append((d, t)))
    total = len(tiny_pair["base"].tensors)
    assert calls == [(i, total) for i in range(1, total + 1)]
    mm.save_diff_cache(with_cb, tmp_path / "with.json", fingerprints(tiny_pair))
    mm.save_diff_cache(mm.compute_diffs(models), tmp_path / "without.json", fingerprints(tiny_pair))
    assert (tmp_path / "with.json").read_bytes() == (tmp_path / "without.json").read_bytes()


# --- the read pattern of the one tensor task ---------------------------------------------


def count_calls(monkeypatch, name):
    """Record the positional arguments of every call to a merge_core global."""
    calls = []
    real = getattr(merge_core, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(merge_core, name, wrapper)
    return calls


def count_tensor_reads(monkeypatch):
    """Count, per (checkpoint root, tensor name), how often a read covers the
    tensor's bytes; a read of a run covers every tensor from its first to
    its ``last``. Also returns the list of reads."""
    covered, reads = Counter(), []
    real = merge_core.read_tensor_raw

    def wrapper(index, name, handles=None, *, last=None):
        data = real(index, name, handles, last=last)
        first, end = index.tensors[name], index.tensors[last or name]
        lo, hi = first.data_offsets[0], end.data_offsets[1]
        assert len(data) == hi - lo
        reads.append((index.root, name))
        for info in index.tensors.values():
            if info.shard == first.shard and lo <= info.data_offsets[0] < hi:
                covered[(index.root, info.name)] += 1
        return data

    monkeypatch.setattr(merge_core, "read_tensor_raw", wrapper)
    return covered, reads


def test_copy_only_plan_reads_each_base_tensor_once_and_decodes_nothing(
    tiny_pair, tmp_path, monkeypatch
):
    cfg = pair_config(tiny_pair, delta=1e9)
    plan = mm.plan_merge(cfg, mm.compute_diffs([tiny_pair["base"], tiny_pair["variant"]]),
                         fingerprints(tiny_pair))
    reads = count_calls(monkeypatch, "read_tensor_raw")
    ranges = count_calls(monkeypatch, "tensor_range")
    decodes = count_calls(monkeypatch, "decode")
    mm.execute_merge(plan, cfg, tmp_path / "m", workers=2)
    base = tiny_pair["base"]
    # each copy is one range of the base, moved by the writer unread
    assert sorted(name for _, name in ranges) == sorted(base.tensors)
    assert {index.root for index, _ in ranges} == {base.root}
    assert reads == []
    assert decodes == []


def test_reviewed_merge_reads_once_and_never_diffs(tiny_pair, tmp_path, monkeypatch):
    cfg = pair_config(tiny_pair)
    plan = mm.plan_merge(cfg, mm.compute_diffs([tiny_pair["base"], tiny_pair["variant"]]),
                         fingerprints(tiny_pair))
    counts = plan.counts()
    assert counts["merged"] > 0 and counts["copied"] > 0
    covered, reads = count_tensor_reads(monkeypatch)
    ranges = count_calls(monkeypatch, "tensor_range")
    diffs = count_calls(monkeypatch, "squared_diff_sums")
    mm.execute_merge(plan, cfg, tmp_path / "m")
    assert diffs == []
    copied = [d.name for d in plan.decisions if d.action == ACTION_COPY_BASE]
    assert sorted(name for _, name in ranges) == sorted(copied)
    assert {index.root for index, _ in ranges} == {tiny_pair["base"].root}
    # each parent's bytes of every merged tensor are read once, in runs
    merged = [d.name for d in plan.decisions if d.action == ACTION_MERGE]
    models = [tiny_pair["base"], tiny_pair["variant"]]
    assert covered == Counter((m.root, name) for m in models for name in merged)
    assert len(reads) < 2 * counts["merged"]


def test_fused_pass_reads_each_parent_once_per_tensor(tiny_trio, tmp_path, monkeypatch):
    # each parent's tensor bytes are read exactly once, a run at a time
    covered, reads = count_tensor_reads(monkeypatch)
    mm.execute_merge(None, trio_config(tiny_trio), tmp_path / "m", workers=2)
    models = tiny_trio["models"]
    assert covered == Counter((m.root, name) for m in models for name in models[0].tensors)
    assert len(reads) < len(models) * len(models[0].tensors)


# --- the I/O of a pass: handles, range copies, fallback ----------------------------------


def reviewed_plan(pair, **kwargs):
    cfg = pair_config(pair, **kwargs)
    diffs = mm.compute_diffs([pair["base"], pair["variant"]])
    return mm.plan_merge(cfg, diffs, fingerprints(pair)), cfg


@pytest.mark.skipif(not hasattr(os, "copy_file_range"), reason="needs os.copy_file_range")
def test_copy_only_plan_copies_each_shard_in_one_kernel_call(tiny_pair, tmp_path, monkeypatch):
    plan, cfg = reviewed_plan(tiny_pair, delta=1e9)
    calls = []
    real = os.copy_file_range

    def counting(src, dst, count, *offsets):
        calls.append(count)
        return real(src, dst, count, *offsets)

    monkeypatch.setattr(os, "copy_file_range", counting)
    out, _ = mm.execute_merge(plan, cfg, tmp_path / "m")
    base = tiny_pair["base"]
    assert calls == [s.data_size for s in base.shards]
    for ours, theirs in zip(out.shards, base.shards, strict=True):
        assert ours.path.read_bytes()[ours.data_start:] == theirs.path.read_bytes()[theirs.data_start:]


def without_kernel_copy(monkeypatch, how):
    if how == "exdev":
        def refuse(*args):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))

        monkeypatch.setattr(os, "copy_file_range", refuse)
    else:
        monkeypatch.delattr(os, "copy_file_range", raising=False)


@pytest.mark.parametrize("how", ["exdev", "missing"])
def test_reviewed_plan_without_kernel_copy_writes_the_same_bytes(
    tiny_pair, tmp_path, monkeypatch, how
):
    plan, cfg = reviewed_plan(tiny_pair)
    counts = plan.counts()
    assert counts["merged"] > 0 and counts["copied"] > 0
    expected, _ = mm.execute_merge(plan, cfg, tmp_path / "kernel")
    without_kernel_copy(monkeypatch, how)
    got, _ = mm.execute_merge(plan, cfg, tmp_path / "fallback")
    assert shard_bytes(got) == shard_bytes(expected)
    assert (tmp_path / "fallback" / "merge_plan.json").read_bytes() == (
        tmp_path / "kernel" / "merge_plan.json"
    ).read_bytes()


@pytest.fixture()
def own_pair(tiny_pair, tmp_path):
    """A private copy of the tiny pair, free to damage."""
    pair = dict(tiny_pair)
    for key in ("base", "variant"):
        shutil.copytree(tiny_pair[key].root, tmp_path / key)
        pair[key] = mm.open_checkpoint(tmp_path / key)
    return pair


@pytest.mark.parametrize("how", [None, "exdev"], ids=["kernel", "exdev"])
def test_copy_from_a_shard_truncated_mid_pass_names_shard_and_tensor(
    own_pair, tmp_path, monkeypatch, how
):
    plan, cfg = reviewed_plan(own_pair, delta=1e9)
    out = tmp_path / "m"
    mm.execute_merge(plan, cfg, out)
    before = tree_bytes(out)
    base = own_pair["base"]
    shard = base.shards[0]
    victim = [n for n in base.layout_names() if base.tensors[n].shard == shard.name][3]
    cut = shard.data_start + base.tensors[victim].data_offsets[0] + 1

    def truncate(done, total):  # after the parents are opened and checked
        if done == 1:
            os.truncate(shard.path, cut)

    if how is not None:
        without_kernel_copy(monkeypatch, how)
    message = f"{shard.name}: tensor '{victim}' byte range ends past end of shard"
    with pytest.raises(FormatError, match=message):
        mm.execute_merge(plan, cfg, out, progress=truncate)
    assert tree_bytes(out) == before
    assert hidden_siblings(out) == []


def open_descriptors():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("run", ["diff", "fused", "reviewed", "fused-fails", "diff-fails"])
def test_a_pass_leaves_no_descriptor_open(tiny_pair, tmp_path, monkeypatch, workers, run):
    models = [tiny_pair["base"], tiny_pair["variant"]]
    plan, cfg = reviewed_plan(tiny_pair)
    before = open_descriptors()
    if run == "diff":
        mm.compute_diffs(models, workers=workers)
    elif run == "diff-fails":
        def stop(done, total):
            if done == 5:
                raise RuntimeError("stopped")

        with pytest.raises(RuntimeError, match="stopped"):
            mm.compute_diffs(models, workers=workers, progress=stop)
    elif run == "fused-fails":
        fail_encode_after(monkeypatch, 1)  # in the second of two runs
        with pytest.raises(OSError, match="disk full"):
            mm.execute_merge(None, cfg, tmp_path / "m", workers=workers)
    else:
        mm.execute_merge(plan if run == "reviewed" else None, cfg, tmp_path / "m", workers=workers)
    assert open_descriptors() == before


# --- runs of small adjacent tensors --------------------------------------------------------


RUN_SIZES = [1, 7, 129, 1000, 4099, 333]  # most slices start off an 8-element boundary


def to_raw(values, code):
    """float32 values as the raw bytes of ``code`` (F32 or BF16, truncated)."""
    bits = np.asarray(values, dtype="<f4")
    return bits.tobytes() if code == "F32" else (bits.view("<u4") >> 16).astype("<u2").tobytes()


def run_parents(tmp_path, n_parents, code="F32", seed=5, edit=None):
    """Parent files holding tensors t0..t5 of RUN_SIZES, back to back in one run.

    ``edit(parent, tensor, values)`` may change a parent's float32 values
    before they are written. Returns the paths and each parent's raw bytes
    per tensor.
    """
    rng = np.random.default_rng(seed)
    first = [rng.standard_normal(n).astype("<f4") for n in RUN_SIZES]
    paths, raws = [], []
    for p in range(n_parents):
        tensors = []
        for t, values in enumerate(first):
            values = values if p == 0 else values + np.float32(0.01 * (p + t + 1))
            if edit is not None:
                values = edit(p, t, values.copy())
            tensors.append((f"t{t}", code, [values.size], to_raw(values, code)))
        path = tmp_path / f"p{p}.safetensors"
        path.write_bytes(build_safetensors(tensors))
        paths.append(str(path))
        raws.append([data for _, _, _, data in tensors])
    return paths, raws


def run_lengths(models, planned=None):
    return [len(run) for run in merge_core._runs(models, models[0].layout_names(), planned)]


def test_run_limits_derive_from_the_block(tmp_path):
    small, most = merge_core._RUN_TENSOR_ELEMS, merge_core._RUN_ELEMS
    assert (small, most) == (BLOCK_ELEMS // 16, BLOCK_ELEMS // 4)
    for n, want in ((small, [1] * 5), (small - 1, [4, 1])):  # 4 * (small - 1) <= most
        path = tmp_path / f"{n}.safetensors"
        path.write_bytes(build_safetensors(
            [(f"t{t}", "BF16", [n], bytes(2 * n)) for t in range(5)]
        ))
        model = mm.open_checkpoint(path)
        assert run_lengths([model, model]) == want


@pytest.mark.parametrize("code", ["F32", "BF16"])
@pytest.mark.parametrize("workers", [1, 2])
def test_run_records_equal_each_tensor_diffed_alone(tmp_path, code, workers):
    paths, raws = run_parents(tmp_path, 3, code)
    models = [mm.open_checkpoint(p) for p in paths]
    assert run_lengths(models) == [len(RUN_SIZES)]
    dtype = models[0].tensors["t0"].dtype
    records = mm.compute_diffs(models, workers=workers)
    for t, record in enumerate(records):
        base, *others = (mm.decode(parent[t], dtype) for parent in raws)
        want = tuple(mm.normalized_frobenius_diff(base, other) for other in others)
        assert record.name == f"t{t}"
        assert record.per_model_diff == want  # bit for bit
        assert record.max_diff == max(want)


def test_a_nonfinite_value_in_a_run_is_reported_for_its_tensor_and_parent_only(tmp_path):
    def edit(parent, tensor, values):
        if (parent, tensor) == (2, 3):
            values[17] = np.nan
        if (parent, tensor) == (1, 5):
            values[-1] = np.inf
        return values

    paths, _ = run_parents(tmp_path, 3, edit=edit)
    cfg = mm.MergeConfig(models=tuple(paths), lambdas=(0.5, 0.25, 0.25))
    models = [mm.open_checkpoint(p) for p in paths]
    fused, fused_report = mm.execute_merge(None, cfg, tmp_path / "fused")
    plan = mm.plan_merge(cfg, mm.compute_diffs(models), [m.fingerprint() for m in models])
    assert all(d.action == ACTION_MERGE for d in plan.decisions)
    assert run_lengths(models, {d.name: d for d in plan.decisions}) == [len(RUN_SIZES)]
    reviewed, reviewed_report = mm.execute_merge(plan, cfg, tmp_path / "reviewed")
    want = [{"name": "t3", "models": [3]}, {"name": "t5", "models": [2]}]
    assert fused_report.nonfinite == reviewed_report.nonfinite == want
    assert shard_bytes(fused) == shard_bytes(reviewed)


@pytest.mark.parametrize(("code", "snan"), [("F32", 0x7FA12345), ("BF16", 0x7F81)])
def test_a_signaling_nan_copied_from_inside_a_run_stays_bit_exact(
    tmp_path, monkeypatch, code, snan
):
    paths, raws = run_parents(tmp_path, 2, code)
    width = 4 if code == "F32" else 2
    payload = np.full(RUN_SIZES[2], snan, dtype=f"<u{width}").tobytes()
    for path in paths:  # t2 becomes the same signaling NaNs in both parents
        blob = bytearray(Path(path).read_bytes())
        index = mm.open_checkpoint(path)
        start = index.shards[0].data_start + index.tensors["t2"].data_offsets[0]
        blob[start:start + len(payload)] = payload
        Path(path).write_bytes(bytes(blob))
    models = [mm.open_checkpoint(p) for p in paths]
    assert run_lengths(models) == [len(RUN_SIZES)]
    covered, reads = count_tensor_reads(monkeypatch)
    cfg = mm.MergeConfig(models=tuple(paths), lambdas=(0.5, 0.5))
    out, report = mm.execute_merge(None, cfg, tmp_path / "m")
    assert len(reads) == 2  # one read of the run per parent
    actions = {d.name: d.action for d in report.plan.decisions}
    assert actions == {f"t{t}": ACTION_COPY_BASE if t == 2 else ACTION_MERGE for t in range(6)}
    assert mm.read_tensor_raw(out, "t2") == payload
    dtype = models[0].tensors["t0"].dtype
    merged = mm.encode(
        mm.linear_combination([mm.decode(r[3], dtype) for r in raws], (0.5, 0.5)), dtype
    )
    assert mm.read_tensor_raw(out, "t3") == merged


def write_shards(root, shards):
    """A checkpoint directory without an index: one file per list of entries."""
    root.mkdir()
    for i, entries in enumerate(shards):
        (root / f"part-{i}.safetensors").write_bytes(build_safetensors(entries))
    return mm.open_checkpoint(root)


@pytest.mark.parametrize("layout", ["reversed", "two-shards"])
def test_a_variant_in_another_layout_merges_as_per_tensor_reads(tmp_path, layout):
    paths, raws = run_parents(tmp_path, 2)
    entries = [(f"t{t}", "F32", [n], raws[1][t]) for t, n in enumerate(RUN_SIZES)]
    shards = [entries[::-1]] if layout == "reversed" else [entries[:3], entries[3:]]
    variant = write_shards(tmp_path / "variant", shards)
    base = mm.open_checkpoint(paths[0])
    assert run_lengths([base, variant]) == ([1] * 6 if layout == "reversed" else [3, 3])
    cfg = mm.MergeConfig(models=(paths[0], str(variant.root)), lambdas=(0.25, 0.75))
    out, report = mm.execute_merge(None, cfg, tmp_path / "m", workers=2)
    dtype = base.tensors["t0"].dtype
    for t in range(len(RUN_SIZES)):
        values = [mm.decode(r[t], dtype) for r in raws]
        assert report.plan.decisions[t].max_diff == mm.normalized_frobenius_diff(*values)
        want = mm.encode(mm.linear_combination(values, (0.25, 0.75)), dtype)
        assert mm.read_tensor_raw(out, f"t{t}") == want


def test_a_plan_runs_consecutive_merges_and_a_copy_breaks_the_run(tmp_path, monkeypatch):
    base = {}

    def edit(parent, tensor, values):  # the variant's t4 equals the base's
        if parent == 0:
            base[tensor] = values
        return base[tensor] if (parent, tensor) == (1, 4) else values

    paths, raws = run_parents(tmp_path, 2, edit=edit)
    models = [mm.open_checkpoint(p) for p in paths]
    cfg = mm.MergeConfig(models=tuple(paths), lambdas=(0.25, 0.75))
    plan = mm.plan_merge(cfg, mm.compute_diffs(models), [m.fingerprint() for m in models])
    actions = [d.action for d in plan.decisions]
    assert actions == [ACTION_MERGE] * 4 + [ACTION_COPY_BASE, ACTION_MERGE]
    assert run_lengths(models, {d.name: d for d in plan.decisions}) == [4, 1, 1]
    covered, reads = count_tensor_reads(monkeypatch)
    out, _ = mm.execute_merge(plan, cfg, tmp_path / "m")
    assert len(reads) == 2 * 2  # each run of merges once per parent; the copy is not read
    dtype = models[0].tensors["t0"].dtype
    for t in range(len(RUN_SIZES)):
        values = [mm.decode(r[t], dtype) for r in raws]
        merged = mm.encode(mm.linear_combination(values, cfg.lambdas), dtype)
        assert mm.read_tensor_raw(out, f"t{t}") == (raws[0][t] if t == 4 else merged)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(("code", "snan"), [("F32", 0x7F800001), ("BF16", 0x7F81)],
                         ids=["F32", "BF16"])
def test_a_signaling_nan_decodes_without_a_warning_and_is_reported(tmp_path, code, snan):
    width = 4 if code == "F32" else 2
    one = 0x3F800000 >> (32 - 8 * width)
    assert np.isnan(mm.decode(np.array([snan], f"<u{width}").tobytes(), mm.DType[code])).all()
    # model 2's finite diff opens the gate; model 3 holds the signaling NaN
    paths = []
    for i, first in enumerate((one, 0, snan)):
        data = np.array([first, one], f"<u{width}").tobytes()
        path = tmp_path / f"m{i}.safetensors"
        path.write_bytes(build_safetensors([("x", code, [2], data)]))
        paths.append(str(path))
    cfg = mm.MergeConfig(models=tuple(paths), lambdas=(0.5, 0.25, 0.25))
    _, report = mm.execute_merge(None, cfg, tmp_path / "m")
    assert report.plan.decisions[0].action == ACTION_MERGE
    assert report.nonfinite == [{"name": "x", "models": [3]}]


def test_a_shard_truncated_mid_run_names_shard_and_tensor(own_pair, tmp_path):
    cfg = pair_config(own_pair)
    out = tmp_path / "m"
    mm.execute_merge(None, cfg, out)
    before = tree_bytes(out)
    models = [own_pair["base"], own_pair["variant"]]
    runs = list(merge_core._runs(models, models[0].layout_names()))
    later = next(run for run in runs[1:] if len(run) >= 4)
    victim = later[3]
    variant = own_pair["variant"]
    shard = variant.shard(variant.tensors[victim].shard)
    cut = shard.data_start + variant.tensors[victim].data_offsets[0] + 1

    def truncate(done, total):  # the first run is written, the later one not yet read
        if done == 1:
            os.truncate(shard.path, cut)

    message = f"{shard.name}: tensor '{victim}' byte range ends past end of shard"
    with pytest.raises(FormatError, match=message):
        mm.execute_merge(None, cfg, out, progress=truncate)
    assert tree_bytes(out) == before
    assert hidden_siblings(out) == []


def test_many_experts_merge_identically_at_every_worker_count(tmp_path):
    spec = dataclasses.replace(TINY_SPEC, layers=2, dense_layers=0, experts=64)
    base, _ = mm.generate_base(spec, tmp_path / "base")
    perts = (
        mm.PerturbationSpec("routed_expert_mlp", "gaussian", 0.01),
        mm.PerturbationSpec("attention", "shift", 0.002),
    )
    variant, _ = mm.generate_variant(spec, perts, tmp_path / "variant")
    models = [base, variant]
    assert max(run_lengths(models)) >= 32  # runs end at shard boundaries too
    cfg = mm.MergeConfig(
        models=(str(base.root), str(variant.root)), lambdas=(0.5, 0.5),
        subset=EXPERTS_ONLY_SUBSET,
    )

    def outputs(workers):
        records = mm.compute_diffs(models, workers=workers)
        plan = mm.plan_merge(cfg, records, [m.fingerprint() for m in models])
        fused, report = mm.execute_merge(None, cfg, tmp_path / f"fused{workers}", workers=workers)
        reviewed, _ = mm.execute_merge(plan, cfg, tmp_path / f"reviewed{workers}", workers=workers)
        report = report.to_json_obj()
        report.pop("elapsed_seconds")
        return (
            [r.to_json_obj() for r in records],
            plan.to_json_text(),
            report,
            shard_bytes(fused),
            shard_bytes(reviewed),
            (tmp_path / f"fused{workers}" / "merge_plan.json").read_bytes(),
        )

    first = outputs(1)
    assert first[3] == first[4]
    assert outputs(2) == first
    assert outputs(8) == first

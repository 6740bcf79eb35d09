import dataclasses
import json

import numpy as np
import pytest

import moemerge as mm
from moemerge.errors import MergeError, RecipeError
from moemerge.merge_core import (
    ACTION_COPY_BASE,
    ACTION_MERGE,
    REASON_BELOW_THRESHOLD,
    REASON_NOT_IN_SUBSET,
    MergeDecision,
    MergePlan,
)
from moemerge.taxonomy import EXPERTS_ONLY_SUBSET, TensorGroup
from moemerge.tensor_math import BLOCK_ELEMS

from conftest import TINY_SPEC, build_safetensors, read_values


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


def test_diffs_respect_memory_budget(tiny_pair):
    models = [tiny_pair["base"], tiny_pair["variant"]]
    tight = mm.compute_diffs(models, workers=4, max_resident_bytes=64 * 1024)
    assert tight == mm.compute_diffs(models)


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


def test_plan_base_one_hot_is_annotated_base_preserving(tiny_pair):
    diffs = mm.compute_diffs([tiny_pair["base"], tiny_pair["variant"]])
    cfg = pair_config(tiny_pair, lambdas=(1.0, 0.0))
    plan = mm.plan_merge(cfg, diffs, fingerprints(tiny_pair))
    assert all(d.base_preserving for d in plan.decisions)


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
    plan = mm.plan_merge(pair_config(tiny_pair), diffs, fingerprints(tiny_pair))
    obj = plan.to_json_obj()
    again = MergePlan.from_json_obj(json.loads(json.dumps(obj)))
    assert again.to_json_obj() == obj


def test_plan_lambda_overrides(tiny_pair):
    diffs = mm.compute_diffs([tiny_pair["base"], tiny_pair["variant"]])
    target = next(r.name for r in diffs if r.max_diff > 0)
    plan = mm.plan_merge(
        pair_config(tiny_pair),
        diffs,
        fingerprints(tiny_pair),
        lambda_overrides={target: (0.25, 0.75)},
    )
    decision = next(d for d in plan.decisions if d.name == target)
    assert decision.lambdas == (0.25, 0.75)
    with pytest.raises(RecipeError, match="sum to 1"):
        mm.plan_merge(
            pair_config(tiny_pair), diffs, fingerprints(tiny_pair),
            lambda_overrides={target: (0.5, 0.9)},
        )
    with pytest.raises(RecipeError, match="unknown tensors"):
        mm.plan_merge(
            pair_config(tiny_pair), diffs, fingerprints(tiny_pair),
            lambda_overrides={"nope": (0.5, 0.5)},
        )


# --- execute_merge ----------------------------------------------------------------------


def run_merge(pair, out, cfg=None, diffs=None, **exec_kwargs):
    cfg = cfg or pair_config(pair)
    diffs = diffs or mm.compute_diffs([pair["base"], pair["variant"]])
    plan = mm.plan_merge(cfg, diffs, fingerprints(pair))
    return mm.execute_merge(plan, cfg, out, **exec_kwargs)


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
                name=r.name, category=r.category, action=ACTION_MERGE,
                max_diff=r.max_diff, lambdas=(0.5, 0.5),
            )
            for r in records
        ],
        model_fingerprints=[base.fingerprint()] * 2,
        config_echo=cfg.to_json_obj(),
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


def test_execute_refuses_foreign_shards_in_out(tmp_path):
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
    with pytest.raises(FileExistsError, match="old-leftover.safetensors"):
        mm.execute_merge(None, cfg, out)
    assert sorted(p.name for p in out.iterdir()) == ["old-leftover.safetensors"]


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


def test_config_json_round_trip_includes_output_policy(tiny_pair):
    cfg = mm.MergeConfig(
        models=("a", "b"), lambdas=(0.5, 0.5),
        output=mm.OutputPolicy(mode="pack", max_shard_bytes=123, shard_template="s-{index}-{count}.safetensors"),
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
@pytest.mark.parametrize("workers,budget", [(1, None), (2, None), (8, None), (8, 64 * 1024)])
def test_fused_merge_matches_plan_then_execute(tiny_trio, tmp_path, subset, workers, budget):
    models = tiny_trio["models"]
    cfg = trio_config(tiny_trio, subset=subset)
    plan = mm.plan_merge(cfg, mm.compute_diffs(models), [m.fingerprint() for m in models])
    counts = plan.counts()
    assert counts["merged"] > 0 and counts["copied"] > 0
    planned, planned_report = mm.execute_merge(plan, cfg, tmp_path / "planned")
    fused, report = mm.execute_merge(
        None, cfg, tmp_path / "fused", workers=workers, max_resident_bytes=budget
    )
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
    for workers, budget in [(1, None), (2, None), (8, None), (8, 64 * 1024)]:
        records = mm.compute_diffs(models, workers=workers, max_resident_bytes=budget)
        assert records[0].name == "big" and records[0].max_diff == want
        out, report = mm.execute_merge(
            None, cfg, tmp_path / f"m{workers}-{budget}", workers=workers,
            max_resident_bytes=budget,
        )
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


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
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

import pytest

import moemerge as mm
from moemerge.taxonomy import (
    EXPERTS_ONLY_SUBSET,
    FULL_SUBSET,
    GROUP_ORDER,
    NamingScheme,
    SubsetSpec,
    TensorCategory,
    TensorGroup,
    census,
    classify,
    in_subset,
    subset_from_json_obj,
    subset_to_json_obj,
)
from moemerge.errors import RecipeError

from conftest import TINY_SPEC


def test_classify_routed_expert():
    cat = classify("model.layers.7.mlp.experts.42.down_proj.weight")
    assert cat.group is TensorGroup.ROUTED_EXPERT_MLP
    assert cat.layer == 7 and cat.expert == 42 and cat.projection == "down"


def test_classify_attention():
    cat = classify("model.layers.0.self_attn.q_a_proj.weight")
    assert cat.group is TensorGroup.ATTENTION
    assert cat.layer == 0 and cat.expert is None and cat.projection == "q_a"


def test_router_gate_vs_shared_expert_gate_projection():
    gate = classify("model.layers.9.mlp.gate.weight")
    shared = classify("model.layers.9.mlp.shared_experts.gate_proj.weight")
    assert gate.group is TensorGroup.EXPERT_GATE and gate.layer == 9
    assert shared.group is TensorGroup.SHARED_EXPERT_MLP and shared.layer == 9
    assert shared.projection == "gate"
    assert gate.group is not shared.group


def test_classify_dense_vs_expert_mlp():
    dense = classify("model.layers.1.mlp.up_proj.weight")
    assert dense.group is TensorGroup.DENSE_MLP and dense.projection == "up"


def test_classify_norms_and_embeddings_have_no_layer():
    for name in (
        "model.embed_tokens.weight",
        "model.norm.weight",
        "lm_head.weight",
        "model.layers.3.input_layernorm.weight",
        "model.layers.3.post_attention_layernorm.weight",
    ):
        cat = classify(name)
        assert cat.group is TensorGroup.EMBEDDING_NORM_HEAD
        assert cat.layer is None and cat.expert is None


def test_classify_attention_internal_norms_are_attention():
    cat = classify("model.layers.2.self_attn.q_a_layernorm.weight")
    assert cat.group is TensorGroup.ATTENTION and cat.layer == 2


def test_classify_unmatched_is_other():
    cat = classify("vision_tower.patch_embed.weight")
    assert cat.group is TensorGroup.OTHER
    assert cat.layer is None and cat.expert is None


def test_classify_total_and_deterministic():
    names = [
        "model.layers.0.self_attn.o_proj.weight",
        "anything.at.all",
        "model.layers.4.mlp.experts.0.gate_proj.weight",
    ]
    for name in names:
        assert classify(name) == classify(name)


def test_classify_empty_scheme_everything_other():
    scheme = NamingScheme.from_rules([])
    assert classify("model.embed_tokens.weight", scheme).group is TensorGroup.OTHER


def test_classify_fixture_manifest_category_counts(tiny_base):
    index, manifest = tiny_base
    spec = TINY_SPEC
    expert_layers = spec.layers - spec.dense_layers
    want = {
        TensorGroup.ROUTED_EXPERT_MLP: expert_layers * spec.experts * 3,
        TensorGroup.SHARED_EXPERT_MLP: expert_layers * 3,
        TensorGroup.EXPERT_GATE: expert_layers * 2,  # weight + correction bias
        TensorGroup.DENSE_MLP: spec.dense_layers * 3,
        TensorGroup.ATTENTION: spec.layers * 7,
        TensorGroup.EMBEDDING_NORM_HEAD: spec.layers * 2 + 3,
    }
    got: dict[TensorGroup, int] = {}
    for name in index.tensors:
        got[classify(name).group] = got.get(classify(name).group, 0) + 1
    assert got == want
    # manifest records the same groups
    for entry in manifest:
        assert classify(entry["name"]).group.value == entry["group"]


# --- subsets -------------------------------------------------------------------


def test_in_subset_full_always_true():
    assert FULL_SUBSET.groups == frozenset(TensorGroup)
    for name in ("model.norm.weight", "model.layers.4.mlp.experts.1.up_proj.weight", "x",
                 "mystery.weight"):
        assert in_subset(classify(name), FULL_SUBSET, name)


def test_in_subset_experts_only_partition():
    routed = "model.layers.4.mlp.experts.1.up_proj.weight"
    gate = "model.layers.4.mlp.gate.weight"
    shared = "model.layers.4.mlp.shared_experts.up_proj.weight"
    assert in_subset(classify(routed), EXPERTS_ONLY_SUBSET, routed)
    assert not in_subset(classify(gate), EXPERTS_ONLY_SUBSET, gate)
    assert not in_subset(classify(shared), EXPERTS_ONLY_SUBSET, shared)


def test_in_subset_custom_groups():
    spec = SubsetSpec(frozenset({TensorGroup.ATTENTION}))
    att = "model.layers.0.self_attn.o_proj.weight"
    gate = "model.layers.4.mlp.gate.weight"
    assert in_subset(classify(att), spec, att)
    assert not in_subset(classify(gate), spec, gate)
    # unclassified tensors are excluded under custom subsets unless listed
    assert not in_subset(classify("mystery.weight"), spec, "mystery.weight")
    listed = subset_from_json_obj({"groups": ["other"]})
    assert in_subset(classify("mystery.weight"), listed, "mystery.weight")
    assert not in_subset(classify(att), listed, att)


def test_in_subset_custom_patterns_override_groups():
    spec = SubsetSpec(
        frozenset({TensorGroup.ATTENTION}),
        (
            ("model.layers.0.self_attn.**", False),
            ("model.layers.*.mlp.gate.weight", True),
        ),
    )
    att0 = "model.layers.0.self_attn.o_proj.weight"
    att1 = "model.layers.1.self_attn.o_proj.weight"
    gate = "model.layers.4.mlp.gate.weight"
    assert not in_subset(classify(att0), spec, att0)  # excluded by pattern
    assert in_subset(classify(att1), spec, att1)  # group fallback
    assert in_subset(classify(gate), spec, gate)  # included by pattern


def test_subset_json_round_trip():
    for obj in ("full", "experts-only", {"groups": ["attention"], "patterns": [{"pattern": "x.**", "include": False}]}):
        spec = subset_from_json_obj(obj)
        assert subset_to_json_obj(spec) == obj
    with pytest.raises(RecipeError, match="unknown subset"):
        subset_from_json_obj("everything")
    with pytest.raises(RecipeError, match="unknown tensor group"):
        subset_from_json_obj({"groups": ["atention"]})


def test_a_custom_object_equal_to_a_named_subset_echoes_its_name():
    every = {"groups": [g.value for g in TensorGroup]}
    assert len(every["groups"]) == 7
    assert subset_from_json_obj(every) == FULL_SUBSET
    assert subset_to_json_obj(subset_from_json_obj(every)) == "full"
    experts = subset_from_json_obj({"groups": ["routed_expert_mlp"], "patterns": []})
    assert experts == EXPERTS_ONLY_SUBSET
    assert subset_to_json_obj(experts) == "experts-only"


def test_a_name_rule_overrides_a_named_subsets_groups():
    norm, gate = "model.norm.weight", "model.layers.4.mlp.gate.weight"
    assert in_subset(classify(norm), FULL_SUBSET, norm)
    assert not in_subset(classify(gate), EXPERTS_ONLY_SUBSET, gate)
    all_but_norm = {
        "groups": [g.value for g in TensorGroup],
        "patterns": [{"pattern": "model.norm.weight", "include": False}],
    }
    experts_and_gates = {
        "groups": ["routed_expert_mlp"],
        "patterns": [{"pattern": "model.layers.*.mlp.gate.weight", "include": True}],
    }
    spec = subset_from_json_obj(all_but_norm)
    assert not in_subset(classify(norm), spec, norm)
    assert in_subset(classify(gate), spec, gate)
    assert subset_to_json_obj(spec) == {**all_but_norm, "groups": sorted(all_but_norm["groups"])}
    spec = subset_from_json_obj(experts_and_gates)
    assert in_subset(classify(gate), spec, gate)
    assert not in_subset(classify(norm), spec, norm)
    assert subset_to_json_obj(spec) == experts_and_gates


# --- census --------------------------------------------------------------------


def make_synthetic_index(spec):
    """In-memory index (no files) for census arithmetic."""
    from moemerge.fixtures import iter_tensor_entries
    from moemerge.safetensors_io import CheckpointIndex, ShardInfo, TensorInfo
    import math
    from pathlib import Path

    tensors = {}
    offset = 0
    for name, group, shape in iter_tensor_entries(spec):
        n = math.prod(shape) * 4
        tensors[name] = TensorInfo(name, mm.DType.F32, shape, (offset, offset + n), "s0")
        offset += n
    shard = ShardInfo("s0", Path("/nonexistent"), 8, offset, "0" * 64, None)
    return CheckpointIndex(root=Path("/nonexistent"), shards=[shard], tensors=tensors)


def test_census_counts_cover_every_tensor(tiny_base):
    index, _ = tiny_base
    rows = census(index)
    assert sum(r.tensors for r in rows) == len(index.tensors)
    assert sum(r.params for r in rows) == sum(i.numel for i in index.tensors.values())
    # ordering: layerless first, then by layer, group order within layer
    keys = [(-1 if r.layer is None else r.layer, GROUP_ORDER[r.group]) for r in rows]
    assert keys == sorted(keys)


def test_census_fixture_expert_count():
    spec = mm.FixtureSpec(layers=5, dense_layers=2, experts=4, vocab=8, hidden=4,
                          intermediate=4, moe_intermediate=4, q_lora_rank=4,
                          kv_lora_rank=4, attn_inner=4)
    index = make_synthetic_index(spec)
    rows = census(index)
    routed = sum(r.tensors for r in rows if r.group is TensorGroup.ROUTED_EXPERT_MLP)
    assert routed == 3 * 4 * 3  # expert layers x experts x projections


def test_census_deepseek_shaped_manifest():
    spec = mm.FixtureSpec(layers=61, dense_layers=3, experts=256, vocab=8, hidden=4,
                          intermediate=4, moe_intermediate=4, q_lora_rank=4,
                          kv_lora_rank=4, attn_inner=4)
    index = make_synthetic_index(spec)
    rows = census(index)
    routed = sum(r.tensors for r in rows if r.group is TensorGroup.ROUTED_EXPERT_MLP)
    assert routed == 58 * 256 * 3 == 44_544


def test_census_empty_scheme_everything_other(tiny_base):
    index, _ = tiny_base
    rows = census(index, NamingScheme.from_rules([]))
    assert len(rows) == 1
    assert rows[0].group is TensorGroup.OTHER
    assert rows[0].tensors == len(index.tensors)


# --- scheme serialization ---------------------------------------------------------


def test_scheme_json_round_trip():
    obj = mm.DEFAULT_SCHEME.to_json_obj()
    again = NamingScheme.from_json_obj(obj)
    assert again.to_json_obj() == obj
    assert classify("model.layers.7.mlp.experts.42.down_proj.weight", again).expert == 42


def test_scheme_rejects_bad_rules():
    with pytest.raises(RecipeError, match="exactly the keys"):
        NamingScheme.from_json_obj([{"pattern": "x"}])
    with pytest.raises(RecipeError, match="unknown tensor group"):
        NamingScheme.from_json_obj([{"pattern": "x", "group": "blah"}])
    with pytest.raises(RecipeError, match="list"):
        NamingScheme.from_json_obj({"pattern": "x", "group": "attention"})


def test_category_json_round_trip_keeps_key_order():
    cat = TensorCategory(TensorGroup.ROUTED_EXPERT_MLP, layer=3, expert=7, projection="up")
    obj = cat.to_json_obj()
    assert list(obj) == ["group", "layer", "expert", "projection"]
    assert obj["group"] == "routed_expert_mlp"
    assert TensorCategory.from_json_obj({"name": "ignored", **obj}) == cat
    assert TensorCategory.from_json_obj(TensorCategory(TensorGroup.OTHER).to_json_obj()) == (
        TensorCategory(TensorGroup.OTHER)
    )

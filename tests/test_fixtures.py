import json
import math

import pytest

import moemerge as mm
from moemerge.errors import FixtureError
from moemerge.fixtures import EXPECTED_DIFFS_NAME, MANIFEST_NAME, iter_tensor_entries

from conftest import TINY_SPEC


def test_generation_is_deterministic(tmp_path):
    a, _ = mm.generate_base(TINY_SPEC, tmp_path / "a")
    b, _ = mm.generate_base(TINY_SPEC, tmp_path / "b")
    assert [s.name for s in a.shards] == [s.name for s in b.shards]
    for sa, sb in zip(a.shards, b.shards):
        assert sa.path.read_bytes() == sb.path.read_bytes()


def test_seed_changes_bytes(tmp_path):
    import dataclasses

    a, _ = mm.generate_base(TINY_SPEC, tmp_path / "a")
    other = dataclasses.replace(TINY_SPEC, seed=TINY_SPEC.seed + 1)
    b, _ = mm.generate_base(other, tmp_path / "b")
    assert a.shards[0].path.read_bytes() != b.shards[0].path.read_bytes()


def test_manifest_expert_arithmetic(tmp_path):
    spec = mm.FixtureSpec(layers=5, dense_layers=2, experts=4, vocab=16, hidden=8,
                          intermediate=8, moe_intermediate=8, q_lora_rank=4,
                          kv_lora_rank=4, attn_inner=8)
    _, manifest = mm.generate_base(spec, tmp_path / "m")
    routed = [m for m in manifest if m["group"] == "routed_expert_mlp"]
    assert len(routed) == 3 * 4 * 3 == 36


def test_no_expert_layers_means_no_expert_tensors(tmp_path):
    spec = mm.FixtureSpec(layers=1, dense_layers=1, experts=4, vocab=16, hidden=8,
                          intermediate=8, moe_intermediate=8, q_lora_rank=4,
                          kv_lora_rank=4, attn_inner=8)
    _, manifest = mm.generate_base(spec, tmp_path / "m")
    groups = {m["group"] for m in manifest}
    assert "routed_expert_mlp" not in groups
    assert "expert_gate" not in groups
    assert "shared_expert_mlp" not in groups


def test_manifest_checksums_match_disk(tiny_base):
    index, manifest = tiny_base
    import hashlib

    for entry in manifest[:10]:
        raw = mm.read_tensor_raw(index, entry["name"])
        assert hashlib.sha256(raw).hexdigest() == entry["checksum"]


def test_manifest_written_to_disk(tiny_base):
    index, manifest = tiny_base
    on_disk = json.loads((index.root / MANIFEST_NAME).read_text())
    assert on_disk == manifest


def test_variant_without_perturbations_is_byte_identical(tmp_path):
    base, _ = mm.generate_base(TINY_SPEC, tmp_path / "base")
    var, expected = mm.generate_variant(TINY_SPEC, (), tmp_path / "var")
    for sa, sb in zip(base.shards, var.shards):
        assert sa.path.read_bytes() == sb.path.read_bytes()
    assert all(e["kind"] == "none" for e in expected.values())


def test_variant_shift_is_exact_at_f64(tmp_path):
    spec = mm.FixtureSpec(layers=3, dense_layers=1, experts=2, vocab=32, hidden=16,
                          intermediate=16, moe_intermediate=16, q_lora_rank=8,
                          kv_lora_rank=8, attn_inner=16,
                          dtypes={"default": "F64"}, seed=5)
    base, _ = mm.generate_base(spec, tmp_path / "base")
    perts = (mm.PerturbationSpec("routed_expert_mlp", "shift", 0.01),)
    var, expected = mm.generate_variant(spec, perts, tmp_path / "var")
    diffs = mm.compute_diffs([base, var])
    for record in diffs:
        want = expected[record.name]
        if want["kind"] == "shift":
            assert abs(record.max_diff - 0.01) / 0.01 < 1e-10
        else:
            assert record.max_diff == 0.0


def test_variant_gaussian_concentration(tmp_path):
    spec = mm.FixtureSpec(layers=3, dense_layers=1, experts=2, vocab=32, hidden=64,
                          intermediate=64, moe_intermediate=64, q_lora_rank=8,
                          kv_lora_rank=8, attn_inner=16, seed=6)
    base, _ = mm.generate_base(spec, tmp_path / "base")
    perts = (mm.PerturbationSpec("routed_expert_mlp", "gaussian", 0.02),)
    var, expected = mm.generate_variant(spec, perts, tmp_path / "var")
    diffs = {r.name: r.max_diff for r in mm.compute_diffs([base, var])}
    checked = 0
    for name, want in expected.items():
        if want["kind"] != "gaussian":
            continue
        numel = math.prod(base.tensors[name].shape)
        if numel >= 4096:
            assert abs(diffs[name] - 0.02) / 0.02 < 0.10
            checked += 1
        assert abs(diffs[name] - want["expected_diff"]) <= want["bound"] * want["expected_diff"]
    assert checked > 0


def test_expected_diff_table_matches_compute_diffs(tiny_pair):
    diffs = {r.name: r.max_diff for r in mm.compute_diffs([tiny_pair["base"], tiny_pair["variant"]])}
    for name, want in tiny_pair["expected"].items():
        if want["kind"] == "none":
            assert diffs[name] == 0.0
        else:
            assert abs(diffs[name] - want["expected_diff"]) <= want["bound"] * want["expected_diff"]


def test_expected_diff_table_written_to_disk(tiny_pair):
    on_disk = json.loads((tiny_pair["variant"].root / EXPECTED_DIFFS_NAME).read_text())
    assert on_disk == tiny_pair["expected"]


def test_unmatched_selector_is_an_error(tmp_path):
    perts = (mm.PerturbationSpec("name:no.such.tensor.*", "shift", 0.01),)
    with pytest.raises(FixtureError, match="matched nothing"):
        mm.generate_variant(TINY_SPEC, perts, tmp_path / "var")
    assert list(tmp_path.iterdir()) == []


def test_name_glob_selector(tmp_path):
    perts = (mm.PerturbationSpec("name:model.layers.1.mlp.experts.*.up_proj.weight", "shift", 0.5),)
    base, _ = mm.generate_base(TINY_SPEC, tmp_path / "base")
    var, expected = mm.generate_variant(TINY_SPEC, perts, tmp_path / "var")
    planted = [n for n, e in expected.items() if e["kind"] == "shift"]
    assert planted == [
        f"model.layers.1.mlp.experts.{e}.up_proj.weight" for e in range(TINY_SPEC.experts)
    ]


def test_spec_json_round_trip():
    spec = mm.FixtureSpec(
        perturbations=(mm.PerturbationSpec("attention", "gaussian", 0.1),)
    )
    obj = spec.to_json_obj()
    again = mm.FixtureSpec.from_json_obj(obj)
    assert again == spec
    with pytest.raises(FixtureError, match="unknown fixture spec keys"):
        mm.FixtureSpec.from_json_obj({"layers": 2, "lambda": 1})


def test_spec_validation():
    with pytest.raises(FixtureError, match="dense_layers"):
        mm.FixtureSpec(layers=2, dense_layers=3)
    with pytest.raises(FixtureError, match="unknown perturbation kind"):
        mm.PerturbationSpec("attention", "scale", 2.0)
    with pytest.raises(FixtureError):
        mm.FixtureSpec(dtypes={"default": "F8_E4M3"})


def test_entry_iteration_order_matches_layout(tiny_base):
    index, manifest = tiny_base
    assert [m["name"] for m in manifest] == index.layout_names()
    assert [name for name, _, _ in iter_tensor_entries(TINY_SPEC)] == index.layout_names()

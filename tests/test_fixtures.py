import hashlib
import json
import math
import threading

import pytest

import moemerge as mm
from moemerge import fixtures, merge_core
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


@pytest.mark.parametrize("sizes, key", [
    ({"layers": -1, "dense_layers": -2}, "layers"),
    ({"dense_layers": -1}, "dense_layers"),
    ({"experts": -3}, "experts"),
    ({"shared_experts": -1}, "shared_experts"),
])
def test_negative_sizes_are_refused(sizes, key):
    with pytest.raises(FixtureError, match=f"^{key} must be >= 0"):
        mm.FixtureSpec(**sizes)


@pytest.mark.parametrize("kind", ["shift", "gaussian"])
@pytest.mark.parametrize("magnitude", [math.nan, math.inf, -math.inf])
def test_non_finite_magnitudes_are_refused(kind, magnitude):
    with pytest.raises(FixtureError, match="must be finite"):
        mm.PerturbationSpec("attention", kind, magnitude)


# Tensors on both sides of merge_core._RUN_TENSOR_ELEMS, so both the pool
# and the writing thread draw: routed and shared experts (136 x 128), the
# embedding and head (256 x 128) go to workers; attention, norms and the
# dense MLP (64 x 128) are drawn inline.
MIXED_SPEC = mm.FixtureSpec(
    layers=2, dense_layers=1, experts=2, vocab=256, hidden=128, intermediate=64,
    moe_intermediate=136, q_lora_rank=16, kv_lora_rank=16, attn_inner=32,
    dtypes={"default": "BF16", "embedding_norm_head": "F32"}, seed=5,
    max_shard_bytes=1 << 18,
)
PAIRS = {
    "tiny": (TINY_SPEC, (mm.PerturbationSpec("routed_expert_mlp", "shift", 0.01),
                         mm.PerturbationSpec("attention", "gaussian", 0.02))),
    "mixed": (MIXED_SPEC, (mm.PerturbationSpec("routed_expert_mlp", "gaussian", 0.01),
                           mm.PerturbationSpec("attention", "shift", 0.002))),
}
# sha256 of every file each pair writes, computed before generation ran on
# a worker pool: the bytes must never depend on how the draws are run.
GOLDEN = {
    "tiny": {
        "base": {
            "fixture_manifest.json":
                "84e1979334234829823cdf40b1ba1ab87729152b671556234db5bffd9f8f89b6",
            "model-00001-of-00002.safetensors":
                "7b7aaf5094611f4bb419ad4172383683920065fe04c09cd1bc8900c4fe9ad2a6",
            "model-00002-of-00002.safetensors":
                "d53956850e385a915d05a90f5a5f9aa5da107ba1b4a248804a23061c5edf7029",
            "model.safetensors.index.json":
                "2d19a30c1ba757cbb843af1cedaca5832d521671f33c2b0aff4a11ac37bc941f",
        },
        "variant": {
            "expected_diffs.json":
                "a2ee655f08bede5296f56ee30fe0afbf45efac6e0c90981c36937db073bbc4e7",
            "model-00001-of-00002.safetensors":
                "15cf873c5d9fa6a0916a5edbc2dd6ca30edf83fb5e992b14f8087b1fcb893c32",
            "model-00002-of-00002.safetensors":
                "595e6ead00db562c93ae25a1c9fe92956a39a5a9415a0cdcb2c255aaef13301a",
            "model.safetensors.index.json":
                "2d19a30c1ba757cbb843af1cedaca5832d521671f33c2b0aff4a11ac37bc941f",
        },
    },
    "mixed": {
        "base": {
            "fixture_manifest.json":
                "54d2641269aa7eed31b24d393b1d8a83d1aed93e5e30ed0d115a7238aefef38a",
            "model-00001-of-00003.safetensors":
                "b21fb4d010d53385232557e54b99cc248aa8143edae396ffde83fac1872689ed",
            "model-00002-of-00003.safetensors":
                "c3cea375dc13f5e08199c7391684c721a9e66583bd52313a2ab2d975066c070a",
            "model-00003-of-00003.safetensors":
                "8f54d9280ed44889ea5ddee07d65138aa6164ebd45ba6ab5f1c34817791db185",
            "model.safetensors.index.json":
                "713e9a65fe5d645b9273cfdd37d6a6cdedac443251ba6c4b13ad924f7454b25e",
        },
        "variant": {
            "expected_diffs.json":
                "ca38e61dacdb66298de94c2bd7e9f1d1cf433f42603a05ffede33a56d99862cc",
            "model-00001-of-00003.safetensors":
                "abfb0f7e4cce58889004f579a6e3da4aa0348fa0e62835ea3ac42419d159b6c9",
            "model-00002-of-00003.safetensors":
                "4f1990303de80749696c27901ede2b2fb31d0ced63b5aeb77024addeff1324ce",
            "model-00003-of-00003.safetensors":
                "8f54d9280ed44889ea5ddee07d65138aa6164ebd45ba6ab5f1c34817791db185",
            "model.safetensors.index.json":
                "713e9a65fe5d645b9273cfdd37d6a6cdedac443251ba6c4b13ad924f7454b25e",
        },
    },
}


def digests(root):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("workers", [None, 1, 3], ids=["default", "1", "3"])
@pytest.mark.parametrize("pair", sorted(PAIRS))
def test_generated_bytes_match_golden_digests_at_any_worker_count(
    tmp_path, monkeypatch, pair, workers
):
    if workers is not None:
        monkeypatch.setattr(fixtures, "_workers", lambda: workers)
    spec, perts = PAIRS[pair]
    mm.generate_base(spec, tmp_path / "base")
    mm.generate_variant(spec, perts, tmp_path / "variant")
    got = {kind: digests(tmp_path / kind) for kind in ("base", "variant")}
    assert got == GOLDEN[pair]


def pool_threads():
    return {t for t in threading.enumerate() if t.name.startswith("ThreadPoolExecutor")}


def test_unmatched_selector_writes_nothing_and_stops_the_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(fixtures, "_workers", lambda: 3)
    before = pool_threads()
    perts = (*PAIRS["mixed"][1], mm.PerturbationSpec("name:no.such.tensor.*", "shift", 0.01))
    with pytest.raises(FixtureError, match="matched nothing"):
        mm.generate_variant(MIXED_SPEC, perts, tmp_path / "var")
    assert list(tmp_path.iterdir()) == []
    assert pool_threads() == before


def test_an_error_mid_stream_writes_nothing_and_stops_the_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(fixtures, "_workers", lambda: 3)
    real, seen = fixtures.tensor_math.encode, []

    def encode(values, dtype):
        seen.append(values.size)
        if values.size >= merge_core._RUN_TENSOR_ELEMS and len(seen) > 3:
            assert pool_threads() - before, "the pool never started"
            raise OSError("disk full")
        return real(values, dtype)

    before = pool_threads()
    monkeypatch.setattr(fixtures.tensor_math, "encode", encode)
    # The traceback is held, so only an explicit stop, not garbage
    # collection of the frames, can have ended the pool.
    with pytest.raises(OSError, match="disk full") as error:
        mm.generate_base(MIXED_SPEC, tmp_path / "base")
    assert list(tmp_path.iterdir()) == []
    assert pool_threads() == before
    assert error.traceback

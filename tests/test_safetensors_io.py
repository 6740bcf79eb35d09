import dataclasses
import hashlib
import io
import json
import os
import stat
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import moemerge as mm
from moemerge.cli import main
from moemerge.errors import FormatError
from moemerge.safetensors_io import _serialize_header, header_fingerprint

from conftest import TINY_SPEC, build_raw, build_safetensors, hidden_siblings, read_values, tree_bytes
from test_fuzz_headers import definitely_malformed_cases, valid_bytes


def f32(*values) -> bytes:
    return np.array(values, dtype="<f4").tobytes()


# --- read_header ----------------------------------------------------------------


def test_read_header_minimal_file():
    raw = build_safetensors([("a", "F32", [2, 2], f32(1, 2, 3, 4))], pad_to_8=False)
    size, tensors, metadata = mm.read_header(io.BytesIO(raw))
    assert metadata is None
    assert list(tensors) == ["a"]
    info = tensors["a"]
    assert info.dtype is mm.DType.F32
    assert info.shape == (2, 2)
    assert info.data_offsets == (0, 16)
    assert info.numel == 4 and info.nbytes == 16


def test_read_header_size_mismatch():
    raw = build_raw({"a": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]}}, b"\0" * 8)
    with pytest.raises(FormatError, match="size mismatch"):
        mm.read_header(io.BytesIO(raw))


def test_read_header_unknown_dtype():
    raw = build_raw({"a": {"dtype": "F13", "shape": [1], "data_offsets": [0, 2]}}, b"\0" * 2)
    with pytest.raises(FormatError, match="unknown dtype"):
        mm.read_header(io.BytesIO(raw))


def test_read_header_fp8_is_clean_unsupported():
    raw = build_raw({"a": {"dtype": "F8_E4M3", "shape": [4], "data_offsets": [0, 4]}}, b"\0" * 4)
    with pytest.raises(FormatError, match="FP8"):
        mm.read_header(io.BytesIO(raw))


def test_read_header_duplicate_names():
    payload = b'{"a":{"dtype":"U8","shape":[1],"data_offsets":[0,1]},"a":{"dtype":"U8","shape":[1],"data_offsets":[1,2]}}'
    raw = struct.pack("<Q", len(payload)) + payload + b"\0\0"
    with pytest.raises(FormatError, match="duplicate"):
        mm.read_header(io.BytesIO(raw))


def test_read_header_length_beyond_file():
    raw = struct.pack("<Q", 1 << 40) + b"{}"
    with pytest.raises(FormatError, match="exceeds"):
        mm.read_header(io.BytesIO(raw))


def test_read_header_truncated():
    with pytest.raises(FormatError, match="truncated"):
        mm.read_header(io.BytesIO(b"\x08\x00\x00"))


def test_read_header_bad_json():
    payload = b'{"a": nope}'
    raw = struct.pack("<Q", len(payload)) + payload
    with pytest.raises(FormatError, match="JSON"):
        mm.read_header(io.BytesIO(raw))


def test_read_header_scalar_tensor():
    raw = build_safetensors([("s", "F64", [], np.float64(3.5).tobytes())])
    _, tensors, _ = mm.read_header(io.BytesIO(raw))
    assert tensors["s"].shape == ()
    assert tensors["s"].numel == 1


def test_read_header_preserves_order():
    entries = [(f"t{i}", "U8", [1], bytes([i])) for i in (3, 1, 2, 0)]
    raw = build_safetensors(entries)
    _, tensors, _ = mm.read_header(io.BytesIO(raw))
    assert list(tensors) == ["t3", "t1", "t2", "t0"]


def test_read_header_roundtrip_against_manifest(tiny_base):
    index, manifest = tiny_base
    by_name = {m["name"]: m for m in manifest}
    assert set(index.tensors) == set(by_name)
    for name, info in index.tensors.items():
        assert list(info.shape) == by_name[name]["shape"]
        assert info.dtype.code == by_name[name]["dtype"]


# --- open_checkpoint --------------------------------------------------------------


def test_open_single_file_equals_one_shard_dir(tmp_path):
    raw = build_safetensors([("a", "F32", [2], f32(5, 6))])
    single = tmp_path / "m.safetensors"
    single.write_bytes(raw)
    as_dir = tmp_path / "dir"
    as_dir.mkdir()
    (as_dir / "m.safetensors").write_bytes(raw)
    one = mm.open_checkpoint(single)
    two = mm.open_checkpoint(as_dir)
    assert set(one.tensors) == set(two.tensors) == {"a"}
    assert one.tensors["a"].data_offsets == two.tensors["a"].data_offsets


def test_open_sharded_with_index(tiny_base):
    index, manifest = tiny_base
    assert index.index_name is not None
    assert len(index.shards) >= 2
    assert len(index.tensors) == len(manifest)


def test_open_missing_shard(tmp_path):
    raw = build_safetensors([("a", "U8", [1], b"\x01")])
    (tmp_path / "s1.safetensors").write_bytes(raw)
    (tmp_path / "model.safetensors.index.json").write_text(
        json.dumps({"metadata": {}, "weight_map": {"a": "s1.safetensors", "b": "gone.safetensors"}})
    )
    with pytest.raises(FormatError, match="missing shard"):
        mm.open_checkpoint(tmp_path)


@pytest.mark.parametrize("layout", ["file", "indexed", "index-less"])
def test_header_fingerprint_equals_the_opened_fingerprint(tiny_base, tmp_path, layout):
    index, _ = tiny_base
    path = index.root
    if layout == "file":
        path = tmp_path / "one.safetensors"
        path.write_bytes(build_safetensors([("a", "F32", [2], f32(1, 2))], metadata={"k": "v"}))
    elif layout == "index-less":
        (path / index.index_name).unlink()
    opened = mm.open_checkpoint(path)
    assert (opened.index_name is None) == (layout != "indexed")
    assert header_fingerprint(path) == opened.fingerprint()


def test_open_duplicate_across_shards(tmp_path):
    raw = build_safetensors([("a", "U8", [1], b"\x01")])
    (tmp_path / "s1.safetensors").write_bytes(raw)
    (tmp_path / "s2.safetensors").write_bytes(raw)
    with pytest.raises(FormatError, match="appears in both"):
        mm.open_checkpoint(tmp_path)


def test_open_empty_dir(tmp_path):
    with pytest.raises(FormatError, match="no .safetensors"):
        mm.open_checkpoint(tmp_path)


def test_open_rejects_overlap(tmp_path):
    header = {
        "a": {"dtype": "U8", "shape": [2], "data_offsets": [0, 2]},
        "b": {"dtype": "U8", "shape": [2], "data_offsets": [1, 3]},
    }
    p = tmp_path / "m.safetensors"
    p.write_bytes(build_raw(header, b"\0" * 3))
    with pytest.raises(FormatError, match="overlaps"):
        mm.open_checkpoint(p)


def test_open_rejects_range_past_data_end(tmp_path):
    p = tmp_path / "m.safetensors"
    p.write_bytes(build_raw({"a": {"dtype": "U8", "shape": [4], "data_offsets": [0, 4]}}, b"\0"))
    with pytest.raises(FormatError, match="exceeds data region"):
        mm.open_checkpoint(p)


# --- read_tensor -------------------------------------------------------------------


def test_read_tensor_values(tmp_path):
    p = tmp_path / "m.safetensors"
    p.write_bytes(build_safetensors([("x", "F32", [2], f32(1.0, 2.0))]))
    index = mm.open_checkpoint(p)
    assert read_values(index, "x").tolist() == [1.0, 2.0]
    assert mm.read_tensor_raw(index, "x") == f32(1.0, 2.0)


def test_read_tensor_bf16_one(tmp_path):
    p = tmp_path / "m.safetensors"
    p.write_bytes(build_safetensors([("x", "BF16", [1], struct.pack("<H", 0x3F80))]))
    assert read_values(mm.open_checkpoint(p), "x").tolist() == [1.0]


def test_read_tensor_matches_generator_values(tiny_base):
    index, _ = tiny_base
    from moemerge.fixtures import _base_values
    from moemerge import tensor_math

    for name in list(index.tensors)[:5]:
        info = index.tensors[name]
        want = tensor_math.decode(
            tensor_math.encode(_base_values(TINY_SPEC, name, info.numel), info.dtype),
            info.dtype,
        )
        got = read_values(index, name)
        assert np.array_equal(got, want)


def test_read_tensor_absent(tiny_base):
    index, _ = tiny_base
    with pytest.raises(KeyError, match="nope"):
        mm.read_tensor_raw(index, "nope")


def test_read_a_run_of_adjacent_tensors(tmp_path):
    p = tmp_path / "m.safetensors"
    entries = [("a", "F32", [2], f32(1.0, 2.0)), ("b", "F32", [1], f32(3.0)),
               ("c", "F32", [3], f32(4.0, 5.0, 6.0))]
    p.write_bytes(build_safetensors(entries))
    index = mm.open_checkpoint(p)
    assert mm.read_tensor_raw(index, "a", last="c") == f32(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
    assert mm.read_tensor_raw(index, "b", last="b") == f32(3.0)
    with pytest.raises(ValueError, match="does not follow"):
        mm.read_tensor_raw(index, "b", last="a")
    p.write_bytes(p.read_bytes()[:-5])  # cut inside "c"
    with pytest.raises(FormatError, match="m.safetensors: tensor 'c' byte range ends past"):
        mm.read_tensor_raw(index, "a", last="c")


def test_read_tensor_memory_is_tensor_sized(tmp_path):
    big = np.zeros(2_000_000, dtype="<f4").tobytes()  # 8 MB shard
    small = f32(*range(8))
    p = tmp_path / "m.safetensors"
    p.write_bytes(build_safetensors([("big", "F32", [2_000_000], big), ("small", "F32", [8], small)]))
    index = mm.open_checkpoint(p)
    del big
    tracemalloc.start()
    mm.read_tensor_raw(index, "small")
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 512 * 1024, f"read_tensor_raw allocated {peak} bytes for a 32-byte tensor"


# --- write_checkpoint ---------------------------------------------------------------


def stream_of(index):
    for name in index.layout_names():
        yield index.tensors[name], mm.read_tensor_raw(index, name)


def test_write_roundtrip_bytes_identical(tiny_base, tmp_path):
    index, _ = tiny_base
    out = mm.write_checkpoint(stream_of(index), tmp_path / "copy", base=index)
    assert set(out.tensors) == set(index.tensors)
    for name in index.tensors:
        assert mm.read_tensor_raw(out, name) == mm.read_tensor_raw(index, name)
        assert out.tensors[name].dtype is index.tensors[name].dtype
        assert out.tensors[name].shape == index.tensors[name].shape


def test_write_mirror_is_byte_identical_except_metadata(tiny_base, tmp_path):
    index, _ = tiny_base
    out_dir = tmp_path / "mirrored"
    out = mm.write_checkpoint(
        stream_of(index), out_dir, base=index, metadata={"aoe.base": "x"}
    )
    assert [s.name for s in out.shards] == [s.name for s in index.shards]
    for ours, theirs in zip(out.shards, index.shards):
        ours_bytes = ours.path.read_bytes()[ours.data_start :]
        theirs_bytes = theirs.path.read_bytes()[theirs.data_start :]
        assert ours_bytes == theirs_bytes  # data region untouched
        assert ours.metadata == {"aoe.base": "x"}
    # without extra metadata the whole shard files are byte-identical
    out2 = mm.write_checkpoint(stream_of(index), tmp_path / "plain", base=index)
    for ours, theirs in zip(out2.shards, index.shards):
        assert ours.path.read_bytes() == theirs.path.read_bytes()


def test_write_second_write_is_byte_stable(tiny_base, tmp_path):
    index, _ = tiny_base
    first = mm.write_checkpoint(stream_of(index), tmp_path / "w1", base=index)
    second = mm.write_checkpoint(stream_of(first), tmp_path / "w2", base=first)
    for a, b in zip(first.shards, second.shards):
        assert a.path.read_bytes() == b.path.read_bytes()
    assert (tmp_path / "w1" / first.index_name).read_text() == (
        tmp_path / "w2" / second.index_name
    ).read_text()


def test_write_pack_shard_arithmetic(tmp_path):
    infos = [
        mm.TensorInfo(f"t{i}", mm.DType.U8, (1024,), (0, 1024)) for i in range(3)
    ]
    stream = ((info, bytes(1024)) for info in infos)
    out = mm.write_checkpoint(stream, tmp_path / "packed", base=infos, max_shard_bytes=2048)
    assert len(out.shards) == 2
    assert [s.name for s in out.shards] == [
        "model-00001-of-00002.safetensors",
        "model-00002-of-00002.safetensors",
    ]


def test_write_pack_tensor_larger_than_shard(tmp_path):
    info = mm.TensorInfo("t", mm.DType.U8, (4096,), (0, 4096))
    with pytest.raises(FormatError, match="exceeds"):
        mm.write_checkpoint(
            iter([(info, bytes(4096))]), tmp_path / "p", base=[info], max_shard_bytes=1024
        )


def test_write_duplicate_name_in_stream(tmp_path):
    info = mm.TensorInfo("t", mm.DType.U8, (1,), (0, 1))
    with pytest.raises(FormatError, match="duplicate"):
        mm.write_checkpoint(
            iter([(info, b"\x01"), (info, b"\x02")]), tmp_path / "d.safetensors",
            base=[info, info],
        )


def test_write_mirror_rejects_wrong_order(tiny_base, tmp_path):
    index, _ = tiny_base
    names = index.layout_names()
    swapped = [names[1], names[0]] + names[2:]

    def stream():
        for name in swapped:
            yield index.tensors[name], mm.read_tensor_raw(index, name)

    with pytest.raises(FormatError, match="order"):
        mm.write_checkpoint(stream(), tmp_path / "bad", base=index)


def test_write_empty_stream(tmp_path):
    with pytest.raises(FormatError, match="empty"):
        mm.write_checkpoint(iter([]), tmp_path / "e.safetensors", base=[])


# --- golden bytes: the writer's output is pinned file by file ---------------------


GOLDEN_TENSORS = [
    ("model.embed_tokens.weight", mm.DType.BF16, (6, 8)),
    ("model.layers.0.mlp.gate_proj.weight", mm.DType.F32, (5, 7)),
    ("model.layers.0.input_layernorm.weight", mm.DType.F16, (16,)),
    ("model.layers.1.mlp.experts.0.up_proj.weight", mm.DType.U8, (9, 11)),
    ("model.layers.1.mlp.gate.e_score_correction_bias", mm.DType.I64, (3,)),
    ("lm_head.weight", mm.DType.BF16, (8, 6)),
]


def golden_stream():
    """Deterministic (info, bytes) pairs; no RNG, so no numpy version moves them."""
    for i, (name, dtype, shape) in enumerate(GOLDEN_TENSORS):
        n = dtype.byte_width * int(np.prod(shape))
        data = bytes((7 * i + k) % 256 for k in range(n))
        yield mm.TensorInfo(name, dtype, shape, (0, n)), data


def golden_infos():
    return [info for info, _ in golden_stream()]


def file_hashes(root):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(root.iterdir())}


def golden_indexed_base(root, with_index=True):
    """A hand-built indexed base: two shards with their own metadata blocks."""
    root.mkdir()
    pairs = list(golden_stream())
    for shard, part, meta in (
        ("b-1.safetensors", pairs[:4], {"format": "pt", "shard": "1"}),
        ("b-2.safetensors", pairs[4:], {"format": "pt"}),
    ):
        entries = [(i.name, i.dtype.code, i.shape, d) for i, d in part]
        (root / shard).write_bytes(build_safetensors(entries, metadata=meta))
    weight_map = {i.name: ("b-1.safetensors" if k < 4 else "b-2.safetensors")
                  for k, (i, _) in enumerate(pairs)}
    if with_index:
        (root / "b.safetensors.index.json").write_text(
            json.dumps({"metadata": {"total_size": 1}, "weight_map": weight_map})
        )
    return mm.open_checkpoint(root)


def test_golden_pack_with_count_template(tmp_path):
    out = tmp_path / "packed"
    mm.write_checkpoint(golden_stream(), out, base=golden_infos(),
                        metadata={"aoe.note": "golden"}, max_shard_bytes=200)
    assert file_hashes(out) == {
        "model.safetensors.index.json": "91882643861f6544bc2066c80f0069697eb98b8a189798ac109e31b628f1c85e",
        "model-00001-of-00004.safetensors": "3f29bdfdee75fd3d44422401dc467915f77a3a2e8390c0c5298ddc373e601cdd",
        "model-00002-of-00004.safetensors": "b508005463da2781d23cf5a6ceefcdd8ea755d5b18dbe459490632cbfe478e1d",
        "model-00003-of-00004.safetensors": "ce1d883d47239cfaab5afe986e9a2b66c64e4e8d60cb4a6d158987a4648a2f41",
        "model-00004-of-00004.safetensors": "c079c0c5ca60512537ebc0e1d50307e04ef6e47e4c3e4c5f438a4fcd2d85ab3a",
    }


@pytest.mark.parametrize("metadata", [None, {"aoe.note": "extra"}], ids=["plain", "extra"])
@pytest.mark.parametrize("layout", ["mirror-indexed", "mirror-index-less", "pack-12"])
def test_write_returns_the_index_open_reads_back(tmp_path, layout, metadata):
    base = golden_indexed_base(tmp_path / "base", with_index=layout != "mirror-index-less")
    stream, out = stream_of(base), tmp_path / "out"
    if layout == "pack-12":
        # 9 to 12 bytes each, so no two share a 12-byte shard
        infos = [mm.TensorInfo(f"t{i}", mm.DType.U8, (9 + i % 4,), (0, 9 + i % 4)) for i in range(12)]
        stream = ((info, bytes([i]) * info.nbytes) for i, info in enumerate(infos))
        base = infos
    # a mirror ignores the limit: its tensors are larger than 12 bytes
    written = mm.write_checkpoint(stream, out, base=base, metadata=metadata, max_shard_bytes=12)
    assert written == mm.open_checkpoint(out)
    if layout == "pack-12":
        assert [s.name for s in written.shards] == [
            f"model-{i:05d}-of-00012.safetensors" for i in range(1, 13)
        ]


def test_write_copies_ranges_like_the_bytes_they_name(tmp_path):
    base = golden_indexed_base(tmp_path / "base")
    names = base.layout_names()
    expected = mm.write_checkpoint(stream_of(base), tmp_path / "bytes", base=base)
    with mm.safetensors_io.shard_handles([base]) as (handles,):
        # ranges and bytes interleaved, so runs break and restart
        mixed = (
            (base.tensors[n], mm.read_tensor_raw(base, n) if i == 2
             else mm.safetensors_io.tensor_range(base, n, handles=handles))
            for i, n in enumerate(names)
        )
        got = mm.write_checkpoint(mixed, tmp_path / "mixed", base=base)
    assert [s.path.read_bytes() for s in got.shards] == [
        s.path.read_bytes() for s in expected.shards
    ]


def test_write_checks_a_range_length(tmp_path):
    base = golden_indexed_base(tmp_path / "base")
    first = base.layout_names()[0]
    with mm.safetensors_io.shard_handles([base]) as (handles,):
        whole = mm.safetensors_io.tensor_range(base, first, handles=handles)
        short = dataclasses.replace(whole, length=whole.length - 1)
        with pytest.raises(FormatError, match="bytes, expected"):
            mm.write_checkpoint(iter([(base.tensors[first], short)]), tmp_path / "o", base=base)
    assert not (tmp_path / "o").exists()
    assert hidden_siblings(tmp_path / "o") == []


def test_golden_mirror_of_indexed_base(tmp_path):
    base = golden_indexed_base(tmp_path / "base")

    def stream():
        for name in base.layout_names():
            yield base.tensors[name], mm.read_tensor_raw(base, name)

    out = tmp_path / "mirror"
    mm.write_checkpoint(stream(), out, base=base, metadata={"aoe.delta": "0.5"})
    assert file_hashes(out) == {
        "b-1.safetensors": "52b2b96cac87e42fd278ffc55e622be3b54bd5843dc4c898cd1994a69144f674",
        "b-2.safetensors": "841998aa4ffdd8b3c38ccca46d35ea295a651a479093da6e2ec0320dc474c316",
        "b.safetensors.index.json": "ccaa6239a45473d436b03233603762e2a23966c67f21cb35498597c0ade7d8c9",
    }


def test_write_refuses_a_single_file_output(tmp_path):
    base = golden_indexed_base(tmp_path / "base")
    before = tree_bytes(tmp_path)
    out = tmp_path / "one.safetensors"

    def stream():
        raise AssertionError("a tensor was requested")
        yield

    with pytest.raises(ValueError, match="single-file output"):
        mm.write_checkpoint(stream(), out, base=base)
    assert tree_bytes(tmp_path) == before


def test_write_failure_mid_pack_leaves_only_complete_shards(tmp_path):
    infos = [mm.TensorInfo(f"t{i}", mm.DType.U8, (100,), (0, 100)) for i in range(6)]

    def stream():
        for info in infos[:3]:  # shard 1 holds t0, t1; shard 2 fails after t2
            yield info, bytes(100)
        raise OSError("disk went away")

    out = tmp_path / "packed"
    with pytest.raises(OSError, match="disk went away"):
        mm.write_checkpoint(stream(), out, base=infos, max_shard_bytes=200)
    assert list(tmp_path.iterdir()) == []


def test_pack_rerun_with_more_shards_replaces_the_output(tmp_path):
    infos = [mm.TensorInfo(f"t{i}", mm.DType.U8, (100,), (0, 100)) for i in range(6)]
    out = tmp_path / "packed"
    for max_shard_bytes, count in ((200, 3), (100, 6)):
        stream = ((info, bytes([i]) * 100) for i, info in enumerate(infos))
        mm.write_checkpoint(stream, out, base=infos, max_shard_bytes=max_shard_bytes)
        shards = [f"model-{i:05d}-of-{count:05d}.safetensors" for i in range(1, count + 1)]
        assert sorted(p.name for p in out.iterdir()) == [*shards, "model.safetensors.index.json"]
    assert hidden_siblings(out) == []


def test_write_restores_the_earlier_output_when_the_swap_fails(tmp_path, monkeypatch):
    infos = [mm.TensorInfo("t", mm.DType.U8, (4,), (0, 4))]
    out = tmp_path / "packed"
    mm.write_checkpoint(iter([(infos[0], b"old!")]), out, base=infos)
    before = tree_bytes(out)
    real = os.rename

    def rename(src, dst):
        if Path(dst) == out and not str(src).endswith(".old"):
            raise OSError("rename refused")
        return real(src, dst)

    monkeypatch.setattr(os, "rename", rename)
    with pytest.raises(OSError, match="rename refused"):
        mm.write_checkpoint(iter([(infos[0], b"new!")]), out, base=infos)
    assert tree_bytes(out) == before
    assert hidden_siblings(out) == []


def test_output_directory_gets_the_mode_of_a_plain_mkdir(tmp_path):
    info = mm.TensorInfo("t", mm.DType.U8, (1,), (0, 1))
    out = tmp_path / "out"
    mm.write_checkpoint(iter([(info, b"\x01")]), out, base=[info])
    (tmp_path / "plain").mkdir()
    assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE((tmp_path / "plain").stat().st_mode)


@pytest.mark.parametrize(
    "infos, match",
    [
        ([mm.TensorInfo("t", mm.DType.U8, (4096,), (0, 4096))], "exceeds"),
        ([], "empty"),
        ([mm.TensorInfo("t", mm.DType.U8, (1,), (0, 1))] * 2, "duplicate"),
    ],
    ids=["too-large", "empty", "duplicate"],
)
def test_write_layout_errors_create_no_file(tmp_path, infos, match):
    out = tmp_path / "out"
    out.mkdir()
    stream = ((info, bytes(info.nbytes)) for info in infos)
    with pytest.raises(FormatError, match=match):
        mm.write_checkpoint(stream, out, base=infos, max_shard_bytes=1024)
    assert list(out.iterdir()) == []



def test_write_rejects_a_tensor_unlike_its_planned_entry(tiny_base, tmp_path):
    index, _ = tiny_base
    first = index.layout_names()[0]
    info = index.tensors[first]
    wrong = mm.TensorInfo(first, mm.DType.U8, (info.nbytes,), (0, info.nbytes))

    def stream():
        yield wrong, mm.read_tensor_raw(index, first)

    with pytest.raises(FormatError, match="planned"):
        mm.write_checkpoint(stream(), tmp_path / "w", base=index)
    assert not (tmp_path / "w").exists()
    assert hidden_siblings(tmp_path / "w") == []


@pytest.mark.parametrize("out", [".", "..", "sub/.."])
def test_write_refuses_an_output_without_a_name_of_its_own(tiny_base, tmp_path, monkeypatch, out):
    index, _ = tiny_base
    cwd = tmp_path / "parent" / "cwd"
    (cwd / "sub").mkdir(parents=True)
    (cwd / "keep.txt").write_text("mine")
    monkeypatch.chdir(cwd)
    before = tree_bytes(tmp_path)

    def stream():
        raise AssertionError("a tensor was requested")
        yield

    with pytest.raises(ValueError, match="by its own path"):
        mm.write_checkpoint(stream(), out, base=index)
    assert tree_bytes(tmp_path) == before


def test_header_serialization_is_padded_and_compact():
    info = mm.TensorInfo("a", mm.DType.F32, (2,), (0, 8))
    header = _serialize_header([info], None)
    assert (8 + len(header)) % 8 == 0
    assert json.loads(header.decode()) == {
        "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]}
    }


# --- validate_checkpoint -------------------------------------------------------------


def test_validate_clean_fixture(tiny_base):
    index, _ = tiny_base
    assert mm.validate_checkpoint(index) == []
    assert mm.validate_checkpoint(index.root) == []


def test_validate_reports_size_mismatch(tmp_path):
    # end offset reduced by 4: the lenient scanner reports instead of raising
    header = {
        "a": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]},
    }
    p = tmp_path / "m.safetensors"
    p.write_bytes(build_raw(header, b"\0" * 8))
    issues = mm.validate_checkpoint(p)
    assert len(issues) == 1
    assert issues[0].kind == "size_mismatch"


def test_validate_reports_gap_and_overlap(tmp_path):
    header = {
        "a": {"dtype": "U8", "shape": [2], "data_offsets": [0, 2]},
        "b": {"dtype": "U8", "shape": [2], "data_offsets": [4, 6]},
        "c": {"dtype": "U8", "shape": [3], "data_offsets": [5, 8]},
    }
    p = tmp_path / "m.safetensors"
    p.write_bytes(build_raw(header, b"\0" * 8))
    kinds = {i.kind for i in mm.validate_checkpoint(p)}
    assert "gap" in kinds and "overlap" in kinds


def test_validate_reports_missing_shard(tmp_path):
    (tmp_path / "s1.safetensors").write_bytes(build_safetensors([("a", "U8", [1], b"\0")]))
    (tmp_path / "model.safetensors.index.json").write_text(
        json.dumps({"metadata": {}, "weight_map": {"a": "s1.safetensors", "b": "x.safetensors"}})
    )
    kinds = {i.kind for i in mm.validate_checkpoint(tmp_path)}
    assert "missing_shard" in kinds


def test_cross_validation_of_fixture_pair(tiny_pair):
    # two checkpoints generated from one manifest agree on names/shapes/dtypes
    assert mm.validate_compatibility([tiny_pair["base"], tiny_pair["variant"]]) == []


# --- metadata and fingerprints --------------------------------------------------------


def test_metadata_preserved_and_extended(tiny_base, tmp_path):
    index, _ = tiny_base
    first = mm.write_checkpoint(
        stream_of(index), tmp_path / "w1", base=index, metadata={"origin": "unit-test"}
    )
    assert first.metadata == {"origin": "unit-test"}
    second = mm.write_checkpoint(
        stream_of(first), tmp_path / "w2", base=first, metadata={"aoe.delta": "0.0"}
    )
    assert second.metadata == {"origin": "unit-test", "aoe.delta": "0.0"}


def test_fingerprint_tracks_header_changes(tiny_base, tmp_path):
    index, _ = tiny_base
    same = mm.open_checkpoint(index.root)
    assert index.fingerprint() == same.fingerprint()
    other = mm.write_checkpoint(
        stream_of(index), tmp_path / "w", base=index, metadata={"k": "v"}
    )
    assert other.fingerprint() != index.fingerprint()


# --- one scanner: open and validate agree --------------------------------------------


def metadata_only_file(root):
    """A single file whose header holds only ``__metadata__``."""
    root.mkdir(parents=True)
    p = root / "meta.safetensors"
    p.write_bytes(build_raw({"__metadata__": {"k": "v"}}))
    return p


def unmapped_tensor_dir(root):
    """An indexed directory whose shard holds a tensor the weight map omits."""
    root.mkdir(parents=True)
    (root / "s1.safetensors").write_bytes(
        build_safetensors([("a", "U8", [1], b"\x01"), ("b", "U8", [1], b"\x02")])
    )
    (root / "model.safetensors.index.json").write_text(
        json.dumps({"metadata": {}, "weight_map": {"a": "s1.safetensors"}})
    )
    return root


def test_validate_rejects_metadata_only_file(tmp_path, capsys):
    p = metadata_only_file(tmp_path / "m")
    assert [i.kind for i in mm.validate_checkpoint(p)] == ["empty"]
    assert main(["validate", str(p)]) == 2
    assert "[empty]" in capsys.readouterr().out


def test_validate_rejects_tensor_missing_from_weight_map(tmp_path, capsys):
    root = unmapped_tensor_dir(tmp_path / "d")
    issues = mm.validate_checkpoint(root)
    assert [(i.kind, i.name) for i in issues] == [("unmapped", "b")]
    assert main(["validate", str(root)]) == 2
    assert "[unmapped] s1.safetensors:b" in capsys.readouterr().out


def test_unreferenced_shard_is_outside_an_indexed_checkpoint(tmp_path):
    root = unmapped_tensor_dir(tmp_path / "d")
    (root / "model.safetensors.index.json").write_text(
        json.dumps({"weight_map": {"a": "s1.safetensors", "b": "s1.safetensors"}})
    )
    (root / "stray.safetensors").write_bytes(b"not a safetensors file")
    assert mm.validate_checkpoint(root) == []
    assert [s.name for s in mm.open_checkpoint(root).shards] == ["s1.safetensors"]


def directory_cases(root):
    """Checkpoint-level constructions: each directory is malformed."""
    one = build_safetensors([("a", "U8", [1], b"\x01")])
    cases = [metadata_only_file(root / "meta"), unmapped_tensor_dir(root / "unmapped")]

    def make(name, files):
        d = root / name
        d.mkdir(parents=True)
        for fname, data in files.items():
            (d / fname).write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
        cases.append(d)

    make("empty", {})
    make("duplicate", {"s1.safetensors": one, "s2.safetensors": one})
    make("missing_shard", {
        "s1.safetensors": one,
        "m.safetensors.index.json": {"weight_map": {"a": "s1.safetensors", "b": "gone.safetensors"}},
    })
    make("dangling", {
        "s1.safetensors": one,
        "m.safetensors.index.json": {"weight_map": {"a": "s1.safetensors", "z": "s1.safetensors"}},
    })
    make("two_indexes", {
        "s1.safetensors": one,
        "a.safetensors.index.json": {"weight_map": {"a": "s1.safetensors"}},
        "b.safetensors.index.json": {"weight_map": {"a": "s1.safetensors"}},
    })
    make("bad_index", {"s1.safetensors": one, "m.safetensors.index.json": b"{nope"})
    make("no_weight_map", {"s1.safetensors": one, "m.safetensors.index.json": {"metadata": {}}})
    make("bad_shard_in_dir", {"s1.safetensors": one, "s2.safetensors": b"\x01\x02"})
    return cases


def test_open_raises_iff_validate_reports_a_non_gap_issue(tmp_path):
    # the malformed corpus and the random mutations of the fuzz suite, plus
    # checkpoint-level cases; some mutations are well-formed and must open
    files = definitely_malformed_cases()
    base = valid_bytes()
    rng = np.random.default_rng(99)
    for _ in range(600):
        raw = bytearray(base)
        for _ in range(int(rng.integers(1, 4))):
            pos = int(rng.integers(0, len(raw)))
            raw[pos] = int(rng.integers(0, 256))
        files.append(bytes(raw))
    paths = []
    for i, raw in enumerate(files):
        p = tmp_path / f"case{i}.safetensors"
        p.write_bytes(raw)
        paths.append(p)
    paths += directory_cases(tmp_path / "dirs")

    disagree, opened = [], 0
    for p in paths:
        rejected = any(i.kind != "gap" for i in mm.validate_checkpoint(p))
        try:
            mm.open_checkpoint(p)
            raised = False
            opened += 1
        except FormatError:
            raised = True
        if raised != rejected:
            disagree.append(p.name)
    assert not disagree, f"open and validate disagree on {disagree[:10]}"
    assert 0 < opened < len(paths)


def test_strict_error_is_the_first_issue(tmp_path):
    header = {
        "a": {"dtype": "U8", "shape": [2], "data_offsets": [0, 2]},
        "b": {"dtype": "U8", "shape": [2], "data_offsets": [4, 6]},
        "c": {"dtype": "U8", "shape": [3], "data_offsets": [5, 8]},
    }
    p = tmp_path / "m.safetensors"
    p.write_bytes(build_raw(header, b"\0" * 8))
    issues = mm.validate_checkpoint(p)
    assert [i.kind for i in issues] == ["gap", "overlap"]
    with pytest.raises(FormatError) as exc:
        mm.open_checkpoint(p)
    assert str(exc.value) == str(issues[1])


def test_header_hash_is_sha256_of_prefix_and_header(tiny_base):
    index, _ = tiny_base
    for shard in index.shards:
        head = shard.path.read_bytes()[: shard.data_start]
        assert shard.header_hash == hashlib.sha256(head).hexdigest()

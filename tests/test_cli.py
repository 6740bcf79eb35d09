import json
from pathlib import Path

import numpy as np
import pytest

import moemerge as mm
from moemerge.cli import main

from conftest import TINY_SPEC, build_safetensors


@pytest.fixture()
def workdir(tmp_path, tiny_pair):
    """Recipe + diff cache wired against the session fixture pair."""
    recipe = {
        "models": [str(tiny_pair["base"].root), str(tiny_pair["variant"].root)],
        "lambdas": [0.5, 0.5],
    }
    recipe_path = tmp_path / "recipe.json"
    recipe_path.write_text(json.dumps(recipe))
    return {"tmp": tmp_path, "recipe": recipe_path, "pair": tiny_pair}


def read_all_bytes(root: Path) -> dict[str, bytes]:
    index = mm.open_checkpoint(root)
    return {n: mm.read_tensor_raw(index, n) for n in index.tensors}


# --- diff ---------------------------------------------------------------------


def test_diff_identical_fixtures_all_zero(tmp_path, capsys):
    a, _ = mm.generate_base(TINY_SPEC, tmp_path / "a")
    b, _ = mm.generate_base(TINY_SPEC, tmp_path / "b")
    out = tmp_path / "cache.json"
    assert main(["diff", str(a.root), str(b.root), "--out", str(out)]) == 0
    records, _ = mm.load_diff_cache(out)
    assert all(r.max_diff == 0.0 for r in records)
    summary = capsys.readouterr().out
    assert "attention" in summary


def test_diff_planted_pair_summary_matches_expected(workdir, capsys):
    pair = workdir["pair"]
    out = workdir["tmp"] / "cache.json"
    code = main([
        "diff", str(pair["base"].root), str(pair["variant"].root),
        "--out", str(out), "--json",
    ])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    by_group = {row["group"]: row for row in summary["by_group"]}
    assert by_group["routed_expert_mlp"]["max"] == pytest.approx(0.01, rel=1e-4)
    assert by_group["attention"]["max"] == pytest.approx(0.02, rel=1e-4)
    assert by_group["dense_mlp"]["max"] == 0.0


def test_diff_incompatible_pair_exits_2(tmp_path, capsys):
    f32 = np.zeros(4, dtype="<f4").tobytes()
    a = tmp_path / "a.safetensors"
    b = tmp_path / "b.safetensors"
    a.write_bytes(build_safetensors([("x", "F32", [4], f32)]))
    b.write_bytes(build_safetensors([("y", "F32", [4], f32)]))
    code = main(["diff", str(a), str(b), "--out", str(tmp_path / "c.json")])
    assert code == 2
    assert "incompatible" in capsys.readouterr().err


# --- plan ----------------------------------------------------------------------


def test_plan_writes_inspectable_json(workdir, capsys):
    plan_path = workdir["tmp"] / "plan.json"
    code = main(["plan", "--recipe", str(workdir["recipe"]), "--out", str(plan_path)])
    assert code == 0
    obj = json.loads(plan_path.read_text())
    assert obj["version"] == 1
    assert {d["action"] for d in obj["decisions"]} <= {"merge", "copy_base"}
    table = capsys.readouterr().out
    assert "merged" in table and "group" in table


def test_plan_experts_only_copies_non_experts(workdir):
    recipe = json.loads(workdir["recipe"].read_text())
    recipe["subset"] = "experts-only"
    rp = workdir["tmp"] / "experts.json"
    rp.write_text(json.dumps(recipe))
    plan_path = workdir["tmp"] / "plan.json"
    assert main(["plan", "--recipe", str(rp), "--out", str(plan_path)]) == 0
    obj = json.loads(plan_path.read_text())
    for d in obj["decisions"]:
        if d["group"] != "routed_expert_mlp":
            assert d["action"] == "copy_base"
            assert d["reason"] == "not_in_subset"


def test_plan_base_one_hot_annotated(workdir):
    plan_path = workdir["tmp"] / "plan.json"
    code = main([
        "plan", "--recipe", str(workdir["recipe"]), "--out", str(plan_path),
        "--lambdas", "1.0,0.0",
    ])
    assert code == 0
    obj = json.loads(plan_path.read_text())
    assert all(d["base_preserving"] for d in obj["decisions"])


def test_plan_delta_above_everything_copies_all(workdir):
    plan_path = workdir["tmp"] / "plan.json"
    code = main([
        "plan", "--recipe", str(workdir["recipe"]), "--out", str(plan_path),
        "--delta", "999.0",
    ])
    assert code == 0
    obj = json.loads(plan_path.read_text())
    assert all(d["action"] == "copy_base" for d in obj["decisions"])


def test_plan_invalid_recipe_names_field(workdir, capsys):
    rp = workdir["tmp"] / "bad.json"
    rp.write_text(json.dumps({"models": ["a", "b"], "lambdas": [0.5, 0.5], "detla": 1}))
    code = main(["plan", "--recipe", str(rp), "--out", str(workdir["tmp"] / "p.json")])
    assert code == 2
    assert "detla" in capsys.readouterr().err


# --- merge ----------------------------------------------------------------------


def test_merge_from_recipe_end_to_end(workdir):
    out = workdir["tmp"] / "merged"
    assert main(["merge", "--recipe", str(workdir["recipe"]), "--out", str(out)]) == 0
    assert (out / "merge_report.json").exists()
    assert (out / "merge_plan.json").exists()
    index = mm.open_checkpoint(out)
    assert set(index.tensors) == set(workdir["pair"]["base"].tensors)


def test_merge_rerun_is_byte_identical(workdir):
    out1 = workdir["tmp"] / "m1"
    out2 = workdir["tmp"] / "m2"
    assert main(["merge", "--recipe", str(workdir["recipe"]), "--out", str(out1)]) == 0
    assert main(["merge", "--recipe", str(workdir["recipe"]), "--out", str(out2)]) == 0
    a = {p.name: p.read_bytes() for p in sorted(out1.glob("*.safetensors"))}
    b = {p.name: p.read_bytes() for p in sorted(out2.glob("*.safetensors"))}
    assert a == b


def test_merge_from_plan_file(workdir):
    plan_path = workdir["tmp"] / "plan.json"
    assert main(["plan", "--recipe", str(workdir["recipe"]), "--out", str(plan_path)]) == 0
    out = workdir["tmp"] / "merged"
    assert main(["merge", "--plan", str(plan_path), "--out", str(out)]) == 0
    assert mm.open_checkpoint(out)


def test_merge_expert_transplant(workdir):
    recipe = json.loads(workdir["recipe"].read_text())
    recipe.update({"lambdas": [0.0, 1.0], "subset": "experts-only", "delta": 0.0})
    rp = workdir["tmp"] / "transplant.json"
    rp.write_text(json.dumps(recipe))
    out = workdir["tmp"] / "transplant"
    assert main(["merge", "--recipe", str(rp), "--out", str(out)]) == 0
    pair = workdir["pair"]
    merged = read_all_bytes(out)
    base = read_all_bytes(pair["base"].root)
    variant = read_all_bytes(pair["variant"].root)
    for entry in pair["manifest"]:
        name = entry["name"]
        if entry["group"] == "routed_expert_mlp":
            assert merged[name] == variant[name]
        else:
            assert merged[name] == base[name]


def test_merge_dry_run_writes_nothing(workdir, capsys):
    out = workdir["tmp"] / "dry"
    code = main([
        "merge", "--recipe", str(workdir["recipe"]), "--out", str(out), "--dry-run",
    ])
    assert code == 0
    assert not out.exists()
    stdout = capsys.readouterr().out
    skeleton = json.loads(stdout[stdout.index("{"):])
    assert skeleton["output_files"] == []
    assert skeleton["counts"]["tensors"] == len(workdir["pair"]["base"].tensors)


def test_merge_refuses_nonempty_out_without_force(workdir, capsys):
    out = workdir["tmp"] / "occupied"
    out.mkdir()
    (out / "keep.txt").write_text("x")
    code = main(["merge", "--recipe", str(workdir["recipe"]), "--out", str(out)])
    assert code == 1
    assert "--force" in capsys.readouterr().err
    assert main([
        "merge", "--recipe", str(workdir["recipe"]), "--out", str(out), "--force",
    ]) == 0


def test_merge_force_rewrites_own_output_but_refuses_foreign_shards(workdir, capsys):
    out = workdir["tmp"] / "m"
    merge = ["merge", "--recipe", str(workdir["recipe"]), "--out", str(out), "--force"]
    assert main(merge) == 0
    assert main(merge) == 0
    (out / "old-leftover.safetensors").write_bytes(
        build_safetensors([("junk.weight", "F32", [1], bytes(4))])
    )
    capsys.readouterr()
    assert main(merge) == 1
    assert "old-leftover.safetensors" in capsys.readouterr().err
    assert "junk.weight" not in mm.open_checkpoint(out).tensors


def test_merge_recipe_with_stale_diff_cache_exits_1(workdir, capsys):
    pair = workdir["pair"]
    cache = workdir["tmp"] / "cache.json"
    assert main(["diff", str(pair["base"].root), str(pair["variant"].root),
                 "--out", str(cache)]) == 0
    obj = json.loads(cache.read_text())
    obj["models"] = ["0" * 64, "1" * 64]
    cache.write_text(json.dumps(obj))
    out = workdir["tmp"] / "m"
    code = main(["merge", "--recipe", str(workdir["recipe"]), "--diffs", str(cache),
                 "--out", str(out)])
    assert code == 1
    assert "changed since planning" in capsys.readouterr().err


def test_merge_stale_plan_exits_1(workdir, tmp_path):
    plan_path = workdir["tmp"] / "plan.json"
    assert main(["plan", "--recipe", str(workdir["recipe"]), "--out", str(plan_path)]) == 0
    obj = json.loads(plan_path.read_text())
    obj["models"] = ["0" * 64, "1" * 64]
    plan_path.write_text(json.dumps(obj))
    code = main(["merge", "--plan", str(plan_path), "--out", str(tmp_path / "m")])
    assert code == 1


def test_merge_requires_exactly_one_source(workdir):
    assert main(["merge", "--out", str(workdir["tmp"] / "m")]) == 2


@pytest.mark.parametrize("with_diffs", [False, True], ids=["fused", "diffs"])
def test_merge_recipe_incompatible_parents_exits_2(tmp_path, capsys, with_diffs):
    f32 = np.zeros(4, dtype="<f4").tobytes()
    a = tmp_path / "a.safetensors"
    b = tmp_path / "b.safetensors"
    a.write_bytes(build_safetensors([("x", "F32", [4], f32)]))
    b.write_bytes(build_safetensors([("y", "F32", [4], f32)]))
    recipe = tmp_path / "r.json"
    recipe.write_text(json.dumps({"models": [str(a), str(b)], "lambdas": [0.5, 0.5]}))
    extra = []
    if with_diffs:
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps({"version": 1, "models": ["0" * 64] * 2, "records": []}))
        extra = ["--diffs", str(cache)]
    out = tmp_path / "m"
    assert main(["merge", "--recipe", str(recipe), "--out", str(out), *extra]) == 2
    err = capsys.readouterr().err
    assert "incompatible" in err and "'x' missing in model 2" in err
    assert not out.exists()


@pytest.mark.parametrize("with_diffs", [False, True], ids=["fused", "diffs"])
def test_merge_recipe_opens_each_parent_once(workdir, monkeypatch, with_diffs):
    extra = []
    if with_diffs:
        cache = workdir["tmp"] / "cache.json"
        pair = workdir["pair"]
        assert main(["diff", str(pair["base"].root), str(pair["variant"].root),
                     "--out", str(cache)]) == 0
        extra = ["--diffs", str(cache)]
    opened = []

    def counting(module):
        real = module.open_checkpoint

        def wrapper(path):
            opened.append(Path(path).name)
            return real(path)

        monkeypatch.setattr(module, "open_checkpoint", wrapper)

    from moemerge import cli, merge_core

    counting(cli)
    counting(merge_core)
    out = workdir["tmp"] / "merged"
    assert main(["merge", "--recipe", str(workdir["recipe"]), "--out", str(out), *extra]) == 0
    assert sorted(opened) == ["base", "variant"]


# --- sweep -----------------------------------------------------------------------


def test_sweep_csv_monotone(workdir, capsys):
    code = main([
        "sweep", "--recipe", str(workdir["recipe"]), "--deltas", "0,0.005,0.015,1",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "delta" and header[-1] == "total"
    totals = [int(line.split(",")[-1]) for line in lines[1:]]
    assert totals == sorted(totals, reverse=True)
    assert totals[-1] == 0


def test_sweep_delta_zero_counts_all_in_subset(workdir):
    out = workdir["tmp"] / "sweep.csv"
    code = main([
        "sweep", "--recipe", str(workdir["recipe"]), "--deltas", "0", "--out", str(out),
    ])
    assert code == 0
    line = out.read_text().strip().splitlines()[1].split(",")
    pair = workdir["pair"]
    diffs = mm.compute_diffs([pair["base"], pair["variant"]])
    assert int(line[-1]) == sum(1 for r in diffs if r.max_diff > 0)


# --- report ----------------------------------------------------------------------


@pytest.fixture()
def diff_cache(workdir):
    pair = workdir["pair"]
    cache = workdir["tmp"] / "cache.json"
    code = main([
        "diff", str(pair["base"].root), str(pair["variant"].root), "--out", str(cache),
    ])
    assert code == 0
    return cache


def test_report_heatmap(diff_cache, workdir):
    out = workdir["tmp"] / "heat.csv"
    code = main(["report", "--diffs", str(diff_cache), "--kind", "heatmap", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("layer,")
    assert len(lines) == 1 + TINY_SPEC.layers


def test_report_histogram(diff_cache, workdir):
    out = workdir["tmp"] / "hist.csv"
    code = main([
        "report", "--diffs", str(diff_cache), "--kind", "histogram",
        "--edges", "0.001,0.015,0.05", "--out", str(out),
    ])
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "category,bin_lo,bin_hi,count"
    table = {}
    for row in rows[1:]:
        cat, lo, hi, count = row.split(",")
        table[(cat, float(lo))] = int(count)
    spec = TINY_SPEC
    routed_total = (spec.layers - spec.dense_layers) * spec.experts * 3
    attn_total = spec.layers * 7
    assert table[("routed_expert_mlp", 0.001)] == routed_total
    assert table[("attention", 0.015)] == attn_total


def test_report_missing_cache_errors(workdir):
    code = main([
        "report", "--diffs", str(workdir["tmp"] / "absent.json"), "--kind", "heatmap",
    ])
    assert code == 1


# --- think-freq -------------------------------------------------------------------


def write_transcript(path, responses):
    path.write_text(
        "\n".join(json.dumps({"id": f"r{i}", "response": r}) for i, r in enumerate(responses))
    )


@pytest.mark.parametrize(
    "responses,want",
    [
        (["<think>x</think>done"] * 8, 1.0),
        (["no tags here"] * 8, 0.0),
        (["<think>x</think>y"] * 5 + ["nope"] * 3, 0.625),
    ],
)
def test_think_freq_endpoints(tmp_path, capsys, responses, want):
    transcript = tmp_path / "t.ndjson"
    write_transcript(transcript, responses)
    assert main(["think-freq", str(transcript)]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["frequency"] == want


def test_think_freq_custom_tags(tmp_path, capsys):
    transcript = tmp_path / "t.ndjson"
    write_transcript(transcript, ["<r>z</r>"])
    assert main([
        "think-freq", str(transcript), "--open-tag", "<r>", "--close-tag", "</r>",
    ]) == 0
    assert json.loads(capsys.readouterr().out)["frequency"] == 1.0


# --- validate / fixture --------------------------------------------------------------


def test_validate_clean_and_corrupt(tmp_path, capsys, tiny_pair):
    assert main(["validate", str(tiny_pair["base"].root)]) == 0
    bad = tmp_path / "bad.safetensors"
    from conftest import build_raw

    bad.write_bytes(build_raw({"a": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]}}, b"\0" * 8))
    assert main(["validate", str(bad)]) == 2
    assert "size_mismatch" in capsys.readouterr().out


def test_fixture_command_base_and_variant(tmp_path):
    spec_obj = TINY_SPEC.to_json_obj()
    spec_obj["perturbations"] = [
        {"selector": "attention", "kind": "shift", "magnitude": 0.25}
    ]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_obj))
    base_dir = tmp_path / "base"
    var_dir = tmp_path / "var"
    assert main(["fixture", "--spec", str(spec_path), "--out", str(base_dir)]) == 0
    assert main(["fixture", "--spec", str(spec_path), "--out", str(var_dir), "--variant"]) == 0
    base = mm.open_checkpoint(base_dir)
    var = mm.open_checkpoint(var_dir)
    diffs = {r.name: r.max_diff for r in mm.compute_diffs([base, var])}
    attn = [d for n, d in diffs.items() if mm.classify(n).group is mm.TensorGroup.ATTENTION]
    assert all(abs(d - 0.25) / 0.25 < 1e-4 for d in attn)
    assert (base_dir / "fixture_manifest.json").exists()
    assert (var_dir / "expected_diffs.json").exists()


def test_cli_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_diff_reuses_up_to_date_cache(workdir, capsys):
    pair = workdir["pair"]
    cache = workdir["tmp"] / "c.json"
    argv = ["diff", str(pair["base"].root), str(pair["variant"].root), "--out", str(cache)]
    assert main(argv) == 0
    first = cache.read_bytes()
    assert main(argv) == 0
    assert "up to date" in capsys.readouterr().err
    assert cache.read_bytes() == first


def test_merge_pack_output_mode(workdir):
    recipe = json.loads(workdir["recipe"].read_text())
    recipe["output"] = {"mode": "pack", "max_shard_bytes": 8 * 1024}
    rp = workdir["tmp"] / "pack.json"
    rp.write_text(json.dumps(recipe))
    out = workdir["tmp"] / "packed"
    assert main(["merge", "--recipe", str(rp), "--out", str(out)]) == 0
    index = mm.open_checkpoint(out)
    assert len(index.shards) > len(workdir["pair"]["base"].shards)
    # payloads unaffected by the layout policy
    mirror_out = workdir["tmp"] / "mirror"
    assert main(["merge", "--recipe", str(workdir["recipe"]), "--out", str(mirror_out)]) == 0
    assert read_all_bytes(out) == read_all_bytes(mirror_out)


# --- fused merge and diff progress ---------------------------------------------------


@pytest.mark.parametrize(
    "flags",
    [
        ["--threads", "1"],
        ["--threads", "2"],
        ["--threads", "8"],
        ["--threads", "8", "--max-resident-bytes", "65536"],
    ],
)
def test_merge_recipe_matches_plan_then_merge_plan(tmp_path, tiny_trio, flags):
    recipe = {
        "models": [str(m.root) for m in tiny_trio["models"]],
        "lambdas": [0.5, 0.25, 0.25],
        "delta": 0.005,
    }
    rp = tmp_path / "recipe.json"
    rp.write_text(json.dumps(recipe))
    plan_path = tmp_path / "plan.json"
    assert main(["plan", "--recipe", str(rp), "--out", str(plan_path)]) == 0
    assert main(["merge", "--plan", str(plan_path), "--out", str(tmp_path / "planned")]) == 0
    assert main(["merge", "--recipe", str(rp), "--out", str(tmp_path / "fused"), *flags]) == 0

    def outputs(root):
        return {p.name: p.read_bytes() for p in root.iterdir() if p.name != "merge_report.json"}

    fused = outputs(tmp_path / "fused")
    assert fused == outputs(tmp_path / "planned")
    assert fused["merge_plan.json"] == plan_path.read_bytes()
    reports = [json.loads((tmp_path / d / "merge_report.json").read_text()) for d in ("fused", "planned")]
    assert reports[0]["counts"] == reports[1]["counts"]
    assert reports[0]["counts"]["merged"] > 0 and reports[0]["counts"]["copied"] > 0


def test_diff_prints_progress(workdir, capsys):
    pair = workdir["pair"]
    cache = workdir["tmp"] / "c.json"
    assert main(["diff", str(pair["base"].root), str(pair["variant"].root), "--out", str(cache)]) == 0
    total = len(pair["base"].tensors)
    lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("diffed")]
    assert lines[-1] == f"diffed {total}/{total} tensors"
    assert lines[:-1] == [f"diffed {n}/{total} tensors" for n in range(50, total, 50)]

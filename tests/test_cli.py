import dataclasses
import json
import math
import os
import shutil
import statistics
import struct
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import moemerge as mm
from moemerge import merge_core, safetensors_io
from moemerge.cli import main
from moemerge.errors import FormatError

from conftest import TINY_SPEC, build_safetensors, fail_encode_after, hidden_siblings, tree_bytes


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


def recipe_with(workdir, name, **fields):
    """A second recipe file beside the workdir's, with ``fields`` changed."""
    recipe = json.loads(workdir["recipe"].read_text())
    recipe.update(fields)
    path = workdir["tmp"] / name
    path.write_text(json.dumps(recipe))
    return path


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
    rp = recipe_with(workdir, "experts.json", subset="experts-only")
    plan_path = workdir["tmp"] / "plan.json"
    assert main(["plan", "--recipe", str(rp), "--out", str(plan_path)]) == 0
    obj = json.loads(plan_path.read_text())
    for d in obj["decisions"]:
        if d["group"] != "routed_expert_mlp":
            assert d["action"] == "copy_base"
            assert d["reason"] == "not_in_subset"


def test_plan_summary_is_over_finite_diffs_and_counts_the_nulls(workdir, capsys):
    rp = recipe_with(workdir, "experts.json", subset="experts-only")
    plan_path = workdir["tmp"] / "plan.json"
    assert main(["plan", "--recipe", str(rp), "--out", str(plan_path)]) == 0
    plan = mm.load_plan(plan_path)
    nulls = [d for d in plan.decisions if d.max_diff is None]
    diffed = sorted(d.max_diff for d in plan.decisions if d.max_diff is not None)
    assert nulls and all(d.reason == "not_in_subset" for d in nulls) and diffed
    line = capsys.readouterr().out.splitlines()[-1]
    assert line == (
        f"max_diff over tensors: min {diffed[0]:.6g}  "
        f"median {statistics.median(diffed):.6g}  max {diffed[-1]:.6g}  "
        f"(null or non-finite {len(nulls)})"
    )


def test_diff_summary_does_not_depend_on_where_a_nan_sits():
    from moemerge.cli import _summarize_diffs

    category = mm.classify("model.layers.3.mlp.experts.0.up_proj.weight")
    diffs = [0.5, 0.25, 2.0, math.inf, 1.0]
    rows = []
    for values in ([math.nan, *diffs], [*diffs, math.nan]):
        records = [mm.DiffRecord(f"t{i}", category, (d,), d) for i, d in enumerate(values)]
        rows.append(_summarize_diffs(records))
    want = {"group": "routed_expert_mlp", "tensors": 6, "min": 0.25, "median": 0.75,
            "max": 2.0, "nonfinite": 2}
    assert rows == [[want], [want]]
    nan_only = [mm.DiffRecord("t", category, (math.nan,), math.nan)]
    assert _summarize_diffs(nan_only) == [
        {"group": "routed_expert_mlp", "tensors": 1, "min": None, "median": None,
         "max": None, "nonfinite": 1}
    ]


def test_plan_base_one_hot_annotated(workdir):
    rp = recipe_with(workdir, "one_hot.json", lambdas=[1.0, 0.0])
    plan_path = workdir["tmp"] / "plan.json"
    assert main(["plan", "--recipe", str(rp), "--out", str(plan_path)]) == 0
    obj = json.loads(plan_path.read_text())
    assert obj["config"]["lambdas"] == [1.0, 0.0]
    assert any(d["action"] == "merge" for d in obj["decisions"])


def test_plan_delta_above_everything_copies_all(workdir):
    rp = recipe_with(workdir, "high_delta.json", delta=999.0)
    plan_path = workdir["tmp"] / "plan.json"
    assert main(["plan", "--recipe", str(rp), "--out", str(plan_path)]) == 0
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


def test_merge_plan_from_a_base_truncated_after_planning_exits_2(tiny_pair, tmp_path, capsys):
    for key in ("base", "variant"):
        shutil.copytree(tiny_pair[key].root, tmp_path / key)
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps({"models": [str(tmp_path / "base"), str(tmp_path / "variant")],
                                  "lambdas": [0.5, 0.5]}))
    plan, out = tmp_path / "plan.json", tmp_path / "merged"
    assert main(["plan", "--recipe", str(recipe), "--out", str(plan)]) == 0
    assert main(["merge", "--plan", str(plan), "--out", str(out)]) == 0
    before = tree_bytes(out)
    base = mm.open_checkpoint(tmp_path / "base")
    shard = base.shards[-1]
    last = max((info for info in base.tensors.values() if info.shard == shard.name),
               key=lambda info: info.data_offsets[0])
    os.truncate(shard.path, shard.data_start + last.data_offsets[0] + 1)
    capsys.readouterr()
    assert main(["merge", "--plan", str(plan), "--out", str(out), "--force"]) == 2
    err = capsys.readouterr().err
    assert shard.name in err and last.name in err
    assert tree_bytes(out) == before
    assert hidden_siblings(out) == []


def test_merge_expert_transplant(workdir):
    rp = recipe_with(
        workdir, "transplant.json", lambdas=[0.0, 1.0], subset="experts-only", delta=0.0
    )
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


def test_merge_refuses_nonempty_out_without_force(workdir, capsys):
    out = workdir["tmp"] / "occupied"
    out.mkdir()
    (out / "keep.txt").write_text("x")
    code = main(["merge", "--recipe", str(workdir["recipe"]), "--out", str(out)])
    assert code == 1
    assert "--force" in capsys.readouterr().err
    # --force replaces only an earlier output, never a directory of other files
    assert main([
        "merge", "--recipe", str(workdir["recipe"]), "--out", str(out), "--force",
    ]) == 1
    assert "keep.txt" in capsys.readouterr().err
    assert tree_bytes(out) == {"keep.txt": b"x"}


def test_merge_force_replaces_own_output_and_its_leftover_shards(workdir):
    out = workdir["tmp"] / "m"
    merge = ["merge", "--recipe", str(workdir["recipe"]), "--out", str(out), "--force"]
    assert main(merge) == 0
    first = tree_bytes(out)
    assert main(merge) == 0
    (out / "old-leftover.safetensors").write_bytes(
        build_safetensors([("junk.weight", "F32", [1], bytes(4))])
    )
    assert main(merge) == 0
    assert "junk.weight" not in mm.open_checkpoint(out).tensors
    assert tree_bytes(out).keys() == first.keys()
    assert hidden_siblings(out) == []


@pytest.mark.parametrize("entry", ["config.json", "subdir"])
def test_merge_force_refuses_an_out_holding_other_entries(workdir, capsys, entry):
    out = workdir["tmp"] / "m"
    merge = ["merge", "--recipe", str(workdir["recipe"]), "--out", str(out), "--force"]
    assert main(merge) == 0
    if entry == "subdir":
        (out / entry).mkdir()
    else:
        (out / entry).write_text("{}")
    before = tree_bytes(out)
    other = recipe_with(workdir, "other_weights.json", lambdas=[0.2, 0.8])
    capsys.readouterr()
    assert main(["merge", "--recipe", str(other), "--out", str(out), "--force"]) == 1
    assert entry in capsys.readouterr().err
    assert tree_bytes(out) == before
    assert hidden_siblings(out) == []


def test_failed_force_rerun_leaves_the_earlier_output_intact(workdir, monkeypatch, capsys):
    out = workdir["tmp"] / "m"
    merge = ["merge", "--recipe", str(workdir["recipe"]), "--out", str(out), "--force"]
    assert main(merge) == 0
    before = tree_bytes(out)
    # the tensors form one run per shard; the second run's encode fails
    # after the first shard is written
    fail_encode_after(monkeypatch, 1)
    other = recipe_with(workdir, "other_weights.json", lambdas=[0.2, 0.8])
    assert main(["merge", "--recipe", str(other), "--out", str(out), "--force"]) == 1
    assert "disk full" in capsys.readouterr().err
    assert tree_bytes(out) == before
    assert hidden_siblings(out) == []
    index = mm.open_checkpoint(out)
    report = json.loads((out / "merge_report.json").read_text())
    plan = json.loads((out / "merge_plan.json").read_text())
    assert report["output_files"] == [s.name for s in index.shards]
    assert report["config"]["lambdas"] == plan["config"]["lambdas"] == [0.5, 0.5]
    assert json.loads(index.metadata["aoe.lambdas"]) == [0.5, 0.5]


def test_merge_to_a_single_file_exits_2_before_reading_a_tensor(workdir, monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("a tensor was read")

    monkeypatch.setattr(merge_core, "read_tensor_raw", unreachable)
    out = workdir["tmp"] / "child.safetensors"
    assert main(["merge", "--recipe", str(workdir["recipe"]), "--out", str(out)]) == 2
    assert "single-file output" in capsys.readouterr().err
    assert not out.exists()
    assert hidden_siblings(out) == []


def test_merge_force_into_dot_exits_2_before_reading_a_tensor(workdir, monkeypatch, capsys):
    def unreachable(*args):
        raise AssertionError("a tensor was read")

    monkeypatch.setattr(merge_core, "read_tensor_raw", unreachable)
    cwd = workdir["tmp"] / "child"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    before = tree_bytes(workdir["tmp"])
    assert main(["merge", "--recipe", str(workdir["recipe"]), "--out", ".", "--force"]) == 2
    assert "name the output directory by its own path" in capsys.readouterr().err
    assert tree_bytes(workdir["tmp"]) == before


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


def _first(obj, action):
    return next(d for d in obj["decisions"] if d["action"] == action)


def _with_decision_lambdas(obj):
    """A plan as written before its config echo held the only weights."""
    for d in obj["decisions"]:
        d["lambdas"] = obj["config"]["lambdas"] if d["action"] == "merge" else None


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda obj: obj.update(config=5), "plan config must be a JSON object"),
        (lambda obj: obj["config"].update(lamdas=[0.5, 0.5]),
         "unknown plan config keys ['lamdas']"),
        (lambda obj: obj["config"].update(lambdas="half"), "lambdas must be a list of numbers"),
        (lambda obj: _first(obj, "copy_base").update(action="frobnicate"),
         "unknown action 'frobnicate'"),
        (lambda obj: _first(obj, "copy_base").update(reason="whim"), "unknown reason 'whim'"),
        (lambda obj: obj["config"].update(output={"mode": "mirror"}),
         "unknown plan config keys ['output']"),
        (_with_decision_lambdas, "unknown keys ['lambdas']"),
    ],
    ids=[
        "echo-not-an-object", "echo-unknown-key", "lambdas-not-a-list",
        "decision-unknown-action", "decision-unknown-copy-reason", "echo-removed-output-key",
        "plan-with-decision-lambdas",
    ],
)
def test_merge_plan_config_is_validated_like_a_recipe(workdir, capsys, edit, message):
    """The config echo and every decision are checked before anything is written."""
    plan_path = workdir["tmp"] / "plan.json"
    assert main(["plan", "--recipe", str(workdir["recipe"]), "--out", str(plan_path)]) == 0
    obj = json.loads(plan_path.read_text())
    edit(obj)
    plan_path.write_text(json.dumps(obj))
    capsys.readouterr()
    out = workdir["tmp"] / "m"
    assert main(["merge", "--plan", str(plan_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "output",
    [
        {"mode": "pack", "shard_template": "../esc-{index}.safetensors"},
        {"mode": "pack", "index_name": "p.safetensors.index.json"},
        {"mode": "mirror"},
    ],
    ids=["shard_template", "index_name", "mode"],
)
def test_recipe_naming_a_removed_output_key_exits_2_and_writes_nothing(workdir, capsys, output):
    """A child takes its base's layout, so a recipe names no output settings at all."""
    rp = recipe_with(workdir, "named.json", output=output)
    out = workdir["tmp"] / "m"
    out.mkdir()
    before = tree_bytes(workdir["tmp"])
    assert main(["merge", "--recipe", str(rp), "--out", str(out), "--force"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "unknown recipe keys ['output']" in err
    assert tree_bytes(workdir["tmp"]) == before


@pytest.mark.parametrize("flag", ["--lambdas", "--delta"])
@pytest.mark.parametrize("command", ["plan", "merge"])
def test_recipe_fields_have_no_flags(workdir, capsys, command, flag):
    """The recipe file is the only way to state a config."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--recipe", str(workdir["recipe"]), "--out", str(workdir["tmp"] / "out"),
              flag, "0.5"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err


def test_merge_plan_refuses_diffs(workdir, capsys):
    plan_path = workdir["tmp"] / "plan.json"
    assert main(["plan", "--recipe", str(workdir["recipe"]), "--out", str(plan_path)]) == 0
    out = workdir["tmp"] / "m"
    code = main(["merge", "--plan", str(plan_path), "--diffs", str(plan_path), "--out", str(out)])
    assert code == 2
    assert "--diffs" in capsys.readouterr().err
    assert not out.exists()


# --- one gate, classified with the recipe's scheme ---------------------------------------


@pytest.fixture()
def experts_to_other(workdir):
    """An experts-only recipe whose scheme sends routed experts to `other`,
    next to a diff cache written under the default scheme."""
    tmp, pair = workdir["tmp"], workdir["pair"]
    scheme = [{"pattern": "model.layers.{layer}.mlp.experts.**", "group": "other"}]
    (tmp / "scheme.json").write_text(json.dumps(scheme + mm.DEFAULT_SCHEME.to_json_obj()))
    rp = recipe_with(workdir, "experts.json", subset="experts-only", scheme="scheme.json")
    cache = tmp / "default_diffs.json"
    assert main(["diff", str(pair["base"].root), str(pair["variant"].root),
                 "--out", str(cache)]) == 0
    return {"tmp": tmp, "recipe": rp, "scheme": tmp / "scheme.json", "cache": cache, "pair": pair}


def test_plan_with_and_without_diffs_classifies_with_the_recipe_scheme(experts_to_other):
    w = experts_to_other
    computed, cached = w["tmp"] / "computed.json", w["tmp"] / "cached.json"
    assert main(["plan", "--recipe", str(w["recipe"]), "--out", str(computed)]) == 0
    assert main(["plan", "--recipe", str(w["recipe"]), "--diffs", str(w["cache"]),
                 "--out", str(cached)]) == 0
    assert computed.read_bytes() == cached.read_bytes()
    plan = mm.MergePlan.from_json_obj(json.loads(cached.read_text()))
    assert plan.counts()["merged"] == 0


def test_merge_and_sweep_with_diffs_classify_with_the_recipe_scheme(experts_to_other):
    w = experts_to_other
    recipe, cache = str(w["recipe"]), str(w["cache"])
    assert main(["merge", "--recipe", recipe, "--out", str(w["tmp"] / "fused")]) == 0
    assert main(["merge", "--recipe", recipe, "--diffs", cache,
                 "--out", str(w["tmp"] / "cached")]) == 0

    def outputs(root):
        return {p.name: p.read_bytes() for p in root.iterdir() if p.name != "merge_report.json"}

    assert outputs(w["tmp"] / "fused") == outputs(w["tmp"] / "cached")
    for d in ("fused", "cached"):
        report = json.loads((w["tmp"] / d / "merge_report.json").read_text())
        assert report["counts"]["merged"] == 0
    sweep = w["tmp"] / "sweep.csv"
    assert main(["sweep", "--recipe", recipe, "--diffs", cache, "--deltas", "0",
                 "--out", str(sweep)]) == 0
    assert sweep.read_text().splitlines()[1].split(",")[-1] == "0"


def test_diff_recomputes_a_cache_classified_under_another_scheme(experts_to_other):
    w = experts_to_other
    pair = w["pair"]
    argv = ["diff", str(pair["base"].root), str(pair["variant"].root),
            "--out", str(w["cache"]), "--scheme", str(w["scheme"])]
    assert main(argv) == 0
    records, _ = mm.load_diff_cache(w["cache"])
    groups = {r.category.group.value for r in records if ".mlp.experts." in r.name}
    assert groups == {"other"}


def test_diff_over_a_stale_out_recomputes(workdir):
    """Header hashes cannot tell same-architecture weights apart, so --out is never reused."""
    base, variant = str(workdir["pair"]["base"].root), str(workdir["pair"]["variant"].root)
    stale, fresh = workdir["tmp"] / "stale.json", workdir["tmp"] / "fresh.json"
    assert main(["diff", base, base, "--out", str(stale)]) == 0
    assert main(["diff", base, variant, "--out", str(stale)]) == 0
    assert main(["diff", base, variant, "--out", str(fresh)]) == 0
    assert stale.read_bytes() == fresh.read_bytes()


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


@pytest.mark.parametrize("deltas", ["0.01,nan", "0.01,-1", "-0.5"])
def test_sweep_refuses_a_delta_a_recipe_refuses(workdir, capsys, deltas):
    out = workdir["tmp"] / "sweep.csv"
    code = main([
        "sweep", "--recipe", str(workdir["recipe"]), "--deltas", deltas, "--out", str(out),
    ])
    assert code == 2
    assert "error: delta must be a number >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_checks_its_deltas_before_it_opens_a_parent(tmp_path, capsys):
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps({"models": ["missing-a", "missing-b"], "lambdas": [0.5, 0.5]}))
    assert main(["sweep", "--recipe", str(recipe), "--deltas", "nan"]) == 2
    assert "error: delta must be a number >= 0" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "flags", [["--edges", "0.01,nan"], ["--edges", "nan,0.01,0.02"], ["--cutoff", "nan"]],
    ids=["nan-last-edge", "nan-first-edge", "nan-cutoff"],
)
def test_report_histogram_refuses_nan(diff_cache, workdir, capsys, flags):
    out = workdir["tmp"] / "hist.csv"
    code = main([
        "report", "--diffs", str(diff_cache), "--kind", "histogram", *flags, "--out", str(out),
    ])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_report_missing_cache_errors(workdir):
    code = main([
        "report", "--diffs", str(workdir["tmp"] / "absent.json"), "--kind", "heatmap",
    ])
    assert code == 1


# --- malformed input documents ------------------------------------------------------


@pytest.fixture(scope="module")
def documents(tiny_pair, tmp_path_factory):
    """A valid recipe, diff cache, plan and fixture spec, parsed, for the tiny pair."""
    root = tmp_path_factory.mktemp("documents")
    recipe = {"models": [str(tiny_pair["base"].root), str(tiny_pair["variant"].root)],
              "lambdas": [0.5, 0.5]}
    (root / "recipe.json").write_text(json.dumps(recipe))
    assert main(["diff", *recipe["models"], "--out", str(root / "cache.json")]) == 0
    assert main(["plan", "--recipe", str(root / "recipe.json"), "--out", str(root / "plan.json"),
                 "--diffs", str(root / "cache.json")]) == 0
    spec = dict(TINY_SPEC.to_json_obj(),
                perturbations=[{"selector": "attention", "kind": "shift", "magnitude": 0.1}])
    return {"root": root, "recipe": recipe, "spec": spec,
            "cache": json.loads((root / "cache.json").read_text()),
            "plan": json.loads((root / "plan.json").read_text())}


def _with(obj, **changes):
    return {**obj, **changes}


def _without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


def _first_entry(obj, key, entry):
    return {**obj, key: [entry(obj[key][0]), *obj[key][1:]]}


def _edit_first(obj, key, match, entry):
    """``obj`` with the first entry of ``obj[key]`` that ``match``es edited."""
    i = next(i for i, e in enumerate(obj[key]) if match(e))
    return {**obj, key: [*obj[key][:i], entry(obj[key][i]), *obj[key][i + 1:]]}


_CACHE_EDITS = {
    "list": lambda o: [o],
    "string-max-diff": lambda o: _first_entry(o, "records", lambda r: _with(r, max_diff="0.5")),
    "int-per-model-diff": lambda o: _first_entry(
        o, "records", lambda r: _with(r, per_model_diff=0)),
    "no-records": lambda o: _without(o, "records"),
}
_MALFORMED = [
    *[(f"cache-{name}-{reader.split()[0]}", reader, "cache", edit)
      for name, edit in _CACHE_EDITS.items() for reader in ("plan --diffs", "report")],
    ("spec-string-layers", "fixture", "spec", lambda o: _with(o, layers="x")),
    ("spec-perturbation-without-kind", "fixture", "spec", lambda o: _with(
        o, perturbations=[{"selector": "attention", "magnitude": 0.1}])),
    ("spec-int-perturbations", "fixture", "spec", lambda o: _with(o, perturbations=5)),
    ("spec-string-dtypes", "fixture", "spec", lambda o: _with(o, dtypes="F32")),
    ("spec-zero-max-shard-bytes", "fixture", "spec", lambda o: _with(o, max_shard_bytes=0)),
    ("spec-negative-layers", "fixture", "spec", lambda o: _with(o, layers=-1, dense_layers=-2)),
    ("spec-negative-dense-layers", "fixture", "spec", lambda o: _with(o, dense_layers=-1)),
    ("spec-negative-experts", "fixture", "spec", lambda o: _with(o, experts=-3)),
    ("spec-negative-shared-experts", "fixture", "spec", lambda o: _with(o, shared_experts=-1)),
    *[(f"spec-{value}-{kind}-magnitude", "fixture", "spec", lambda o, kind=kind, value=value: _with(
        o, perturbations=[{"selector": "attention", "kind": kind, "magnitude": value}]))
      for kind in ("shift", "gaussian") for value in (math.nan, math.inf, -math.inf)],
    ("plan-list", "merge --plan", "plan", lambda o: [o]),
    ("plan-int-decisions", "merge --plan", "plan", lambda o: _with(o, decisions=5)),
    ("plan-decision-without-name", "merge --plan", "plan",
     lambda o: _first_entry(o, "decisions", lambda d: _without(d, "name"))),
    ("plan-unknown-key", "merge --plan", "plan", lambda o: _with(o, comment="x")),
    ("plan-string-base-preserving", "merge --plan", "plan",
     lambda o: _first_entry(o, "decisions", lambda d: _with(d, base_preserving="yes"))),
    ("plan-bool-max-diff", "merge --plan", "plan",
     lambda o: _first_entry(o, "decisions", lambda d: _with(d, max_diff=True))),
    ("plan-null-max-diff-on-a-merge", "merge --plan", "plan", lambda o: _edit_first(
        o, "decisions", lambda d: d["action"] == "merge", lambda d: _with(d, max_diff=None))),
    ("plan-null-max-diff-below-threshold", "merge --plan", "plan", lambda o: _edit_first(
        o, "decisions", lambda d: d["reason"] == "below_threshold",
        lambda d: _with(d, max_diff=None))),
    ("recipe-huge-lambda", "plan --recipe", "recipe", lambda o: _with(o, lambdas=[10**400, 0])),
    ("recipe-huge-delta", "plan --recipe", "recipe", lambda o: _with(o, delta=10**400)),
    ("recipe-nan-lambda", "plan --recipe", "recipe",
     lambda o: _with(o, lambdas=[math.nan, math.nan])),
    ("recipe-nan-delta", "plan --recipe", "recipe", lambda o: _with(o, delta=math.nan)),
]


@pytest.mark.parametrize(
    "reader, kind, edit", [case[1:] for case in _MALFORMED], ids=[case[0] for case in _MALFORMED]
)
def test_a_malformed_document_exits_2_with_an_error_line(
    documents, tmp_path, capsys, reader, kind, edit
):
    doc, out = tmp_path / f"{kind}.json", str(tmp_path / "out")
    doc.write_text(json.dumps(edit(documents[kind])))
    recipe = str(documents["root"] / "recipe.json")
    argv = {
        "plan --diffs": ["plan", "--recipe", recipe, "--diffs", str(doc), "--out", out],
        "report": ["report", "--diffs", str(doc), "--kind", "heatmap"],
        "fixture": ["fixture", "--spec", str(doc), "--out", out],
        "merge --plan": ["merge", "--plan", str(doc), "--out", out],
        "plan --recipe": ["plan", "--recipe", str(doc), "--out", out],
    }[reader]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_a_null_max_diff_loads_only_on_a_not_in_subset_copy(workdir, capsys):
    rp = recipe_with(workdir, "experts.json", subset="experts-only")
    plan_path, tmp = workdir["tmp"] / "plan.json", workdir["tmp"]
    assert main(["plan", "--recipe", str(rp), "--out", str(plan_path)]) == 0
    assert main(["merge", "--recipe", str(rp), "--out", str(tmp / "fused")]) == 0
    assert main(["merge", "--plan", str(plan_path), "--out", str(tmp / "reviewed")]) == 0
    # a plan written before not_in_subset copies had a null max_diff still loads
    plan = json.loads(plan_path.read_text())
    older = [_with(d, max_diff=0.0) if d["max_diff"] is None else d for d in plan["decisions"]]
    assert older != plan["decisions"]
    (tmp / "older.json").write_text(json.dumps(_with(plan, decisions=older)))
    assert main(["merge", "--plan", str(tmp / "older.json"), "--out", str(tmp / "older")]) == 0
    fused = read_all_bytes(tmp / "fused")
    assert read_all_bytes(tmp / "reviewed") == fused == read_all_bytes(tmp / "older")
    assert (tmp / "fused" / "merge_plan.json").read_bytes() == plan_path.read_bytes()


# --- plan and sweep from a diff cache ----------------------------------------------


def cached_outputs(tmp, recipe, cache):
    """Exit codes of `plan --diffs` and `sweep --diffs`, and the bytes each
    wrote (None for a file not written)."""
    plan, sweep = tmp / "cached_plan.json", tmp / "cached_sweep.csv"
    for path in (plan, sweep):
        path.unlink(missing_ok=True)
    codes = (
        main(["plan", "--recipe", str(recipe), "--diffs", str(cache), "--out", str(plan)]),
        main(["sweep", "--recipe", str(recipe), "--diffs", str(cache),
              "--deltas", "0,0.005,1", "--out", str(sweep)]),
    )
    return codes, [path.read_bytes() if path.exists() else None for path in (plan, sweep)]


def test_plan_and_sweep_with_diffs_parse_no_parent_header(diff_cache, workdir, monkeypatch):
    codes, want = cached_outputs(workdir["tmp"], workdir["recipe"], diff_cache)
    assert codes == (0, 0)

    def refuse(*args):
        raise AssertionError("a parent header entry was parsed")

    monkeypatch.setattr(safetensors_io, "_check_entry", refuse)
    assert cached_outputs(workdir["tmp"], workdir["recipe"], diff_cache) == ((0, 0), want)


def test_plan_and_sweep_refuse_a_cache_from_other_parents(workdir, capsys):
    other = mm.generate_base(dataclasses.replace(TINY_SPEC, vocab=32), workdir["tmp"] / "other")
    cache = workdir["tmp"] / "other_diffs.json"
    assert main(["diff", str(other[0].root), str(other[0].root), "--out", str(cache)]) == 0
    capsys.readouterr()
    assert cached_outputs(workdir["tmp"], workdir["recipe"], cache) == ((1, 1), [None, None])
    assert capsys.readouterr().err.count("computed from different checkpoints") == 2


def truncate_prefix(shard):
    shard.write_bytes(shard.read_bytes()[:5])


def length_past_end(shard):
    raw = shard.read_bytes()
    shard.write_bytes(struct.pack("<Q", len(raw)) + raw[8:])


@pytest.mark.parametrize("corrupt", [truncate_prefix, length_past_end, Path.unlink],
                         ids=["truncated-prefix", "length-past-end", "missing-shard"])
def test_plan_and_sweep_with_diffs_refuse_an_unreadable_parent_like_open(
    diff_cache, workdir, capsys, corrupt
):
    tmp, pair = workdir["tmp"], workdir["pair"]
    base = tmp / "corrupt_base"
    shutil.copytree(pair["base"].root, base)
    corrupt(base / pair["base"].shards[-1].name)
    with pytest.raises(FormatError) as opened:
        mm.open_checkpoint(base)
    recipe = recipe_with(workdir, "corrupt.json", models=[str(base), str(pair["variant"].root)])
    capsys.readouterr()
    assert cached_outputs(tmp, recipe, diff_cache) == ((2, 2), [None, None])
    assert capsys.readouterr().err == f"error: {opened.value}\n" * 2


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


def test_think_freq_refuses_an_empty_close_tag(tmp_path, capsys):
    """Every string contains the empty string, so the frequency would read 1.0."""
    transcript = tmp_path / "t.ndjson"
    write_transcript(transcript, ["no tags here", "none here either"])
    out = tmp_path / "stats.json"
    assert main(["think-freq", str(transcript), "--close-tag", "", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_think_freq_refuses_an_empty_open_tag(tmp_path, capsys):
    """An empty opening tag is refused like an empty closing tag, not read as absent."""
    transcript = tmp_path / "t.ndjson"
    write_transcript(transcript, ["<think>x</think>y"])
    out = tmp_path / "stats.json"
    assert main(["think-freq", str(transcript), "--open-tag", "", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: the opening tag")
    assert not out.exists()


# --- validate / fixture --------------------------------------------------------------


def test_validate_clean_and_corrupt(tmp_path, capsys, tiny_pair):
    assert main(["validate", str(tiny_pair["base"].root)]) == 0
    bad = tmp_path / "bad.safetensors"
    from conftest import build_raw

    bad.write_bytes(build_raw({"a": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]}}, b"\0" * 8))
    assert main(["validate", str(bad)]) == 2
    assert "size_mismatch" in capsys.readouterr().out


def test_validate_scans_each_shard_header_once(monkeypatch, capsys, tiny_pair):
    scanned = Counter()
    real = safetensors_io._scan_header

    def counting(f, shard=""):
        scanned[shard] += 1
        return real(f, shard)

    monkeypatch.setattr(safetensors_io, "_scan_header", counting)
    base = tiny_pair["base"]
    assert main(["validate", str(base.root)]) == 0
    assert "tensors" in capsys.readouterr().out  # the census
    assert scanned == {shard.name: 1 for shard in base.shards}


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


# --- fused merge and diff progress ---------------------------------------------------


@pytest.mark.parametrize(
    "flags",
    [
        ["--threads", "1"],
        ["--threads", "2"],
        ["--threads", "8"],
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


def test_a_merge_from_a_config_built_in_code_re_executes_to_the_same_bytes(
    tmp_path, tiny_pair, monkeypatch
):
    """Paths like ./base and integer weights are canonical from the start, so
    the shard metadata and plan match what the plan's echo parses back to."""
    for name in ("base", "variant"):
        shutil.copytree(tiny_pair[name].root, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    config = mm.MergeConfig(models=("./base", "./variant"), lambdas=(0, 1))
    merge_core.execute_merge(None, config, "child")
    assert main(["merge", "--plan", "child/merge_plan.json", "--out", "again"]) == 0
    child, again = tmp_path / "child", tmp_path / "again"
    written = sorted(p.name for p in child.iterdir())
    assert "merge_plan.json" in written and any(n.endswith(".index.json") for n in written)
    for name in written:
        if name != "merge_report.json":
            assert (again / name).read_bytes() == (child / name).read_bytes()


def test_diff_prints_progress(workdir, capsys):
    pair = workdir["pair"]
    cache = workdir["tmp"] / "c.json"
    assert main(["diff", str(pair["base"].root), str(pair["variant"].root), "--out", str(cache)]) == 0
    total = len(pair["base"].tensors)
    lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("diffed")]
    assert lines[-1] == f"diffed {total}/{total} tensors"
    assert lines[:-1] == [f"diffed {n}/{total} tensors" for n in range(50, total, 50)]


@pytest.mark.parametrize("threads", ["0", "-1"])
@pytest.mark.parametrize("command", ["diff", "plan", "merge", "sweep"])
def test_threads_below_one_exits_2_naming_the_flag(workdir, capsys, command, threads):
    argv = {
        "diff": ["diff", str(workdir["pair"]["base"].root), "--out", str(workdir["tmp"] / "d.json")],
        "plan": ["plan", "--recipe", str(workdir["recipe"]), "--out", str(workdir["tmp"] / "p.json")],
        "merge": ["merge", "--recipe", str(workdir["recipe"]), "--out", str(workdir["tmp"] / "m")],
        "sweep": ["sweep", "--recipe", str(workdir["recipe"]), "--deltas", "0"],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert sorted(p.name for p in workdir["tmp"].iterdir()) == ["recipe.json"]

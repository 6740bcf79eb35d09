"""Tests of the benchmark itself: its checks, its seeds and its metric names.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import check  # noqa: E402
import run  # noqa: E402
from moemerge import fixtures  # noqa: E402

CONFIG = json.loads((BENCH / "workloads.json").read_text("utf-8"))
TINY_SPEC = {"layers": 3, "dense_layers": 1, "experts": 4, "hidden": 16, "moe_intermediate": 8,
             "intermediate": 32, "vocab": 64, "q_lora_rank": 8, "kv_lora_rank": 8, "attn_inner": 16}


def make_workload(tmp_path: Path, name: str, seed: int, spec: dict | None = None) -> run.Workload:
    """A workload rooted in tmp_path, whose src/ points at this repository's sources."""
    root = tmp_path / f"{name}-{seed}"
    root.mkdir()
    (root / "src").symlink_to(REPO / "src")
    config = json.loads(json.dumps(CONFIG))
    if spec is not None:
        cfg = config["workloads"][name]
        cfg["spec"] = spec
        entries = list(fixtures.iter_tensor_entries(fixtures.FixtureSpec(**spec)))
        merged = sum(group.value == "routed_expert_mlp" for _, group, _ in entries)
        cfg["expected"] = {
            "merge": {"merged": merged, "copied": len(entries) - merged},
            "copy": {"merged": 0, "copied": len(entries)},
        }
    workload = run.Workload(root, name, config, seed)
    workload.setup()
    workload.prepare()
    return workload


def corrupt_tensor(out: Path, name: str) -> None:
    _, _, path, offset, _ = check.Checkpoint(out).tensors[name]
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)
        f.seek(offset)
        f.write(bytes([byte[0] ^ 0x01]))


def test_checker_flags_one_corrupted_byte(tmp_path):
    w = make_workload(tmp_path, "many-tensors", seed=3, spec=TINY_SPEC)
    for op in ("diff", "merge", "plan", "copy"):
        assert w.run_op(op, traced=False).problems == []
    merged_name = sorted(w.merged_names)[0]
    corrupt_tensor(w.ops_dir / "merged", merged_name)
    assert any(merged_name in p for p in w.check("merge", False))
    copied_name = "model.embed_tokens.weight"
    corrupt_tensor(w.ops_dir / "copied", copied_name)
    assert any(copied_name in p for p in w.check("copy", False))


def test_checker_flags_a_wrong_diff_record(tmp_path):
    w = make_workload(tmp_path, "many-tensors", seed=4, spec=TINY_SPEC)
    assert w.run_op("diff", traced=False).problems == []
    cache = w.ops_dir / "diffs.json"
    obj = json.loads(cache.read_text("utf-8"))
    obj["records"][0]["per_model_diff"][0] += 1e-9
    cache.write_text(json.dumps(obj), "utf-8")
    assert check.check_diff_cache(cache, w.expected_diffs)


def test_two_seeds_give_different_bytes_and_the_same_plan_counts(tmp_path):
    digests, counts = [], []
    for seed in (1, 2):
        w = make_workload(tmp_path, "many-tensors", seed)
        for op in ("diff", "merge"):
            assert w.run_op(op, traced=False).problems == []
        digests.append(check.digest(w.ops_dir / "merged"))
        plan = json.loads((w.ops_dir / "merged" / "merge_plan.json").read_text("utf-8"))
        merged = sum(d["action"] == "merge" for d in plan["decisions"])
        counts.append((merged, len(plan["decisions"]) - merged))
    assert digests[0] != digests[1]
    expected = CONFIG["workloads"]["many-tensors"]["expected"]["merge"]
    assert counts == [(expected["merged"], expected["copied"])] * 2


def test_traced_cycle_matches_untraced_and_accounts_for_wall_time(tmp_path):
    w = make_workload(tmp_path, "transplant", seed=5, spec=TINY_SPEC)
    plain = w.cycle(False)
    traced = w.cycle(True)
    assert all(not r.problems for r in list(plain.values()) + list(traced.values()))
    for op in ("merge", "copy"):
        assert w.digests[(op, True)] == w.digests[(op, False)]
    metrics = w.layer_metrics(traced)
    layers = ("safetensors_io", "tensor_math", "taxonomy", "merge_core", "analysis")
    accounted = sum(metrics[f"{layer}.main_self_s"] for layer in layers)
    accounted += metrics["cli.overhead_s"] + metrics["cli.startup_s"]
    assert accounted == pytest.approx(metrics["cli.op_wall_s"], rel=1e-9)
    assert set(metrics) | {"fixtures.generate_s", "ref.filecopy_MBps",
                           "safetensors_io.copy_vs_filecopy", "trace.overhead_frac"} == set(run.PER_LAYER_UNITS)
    assert metrics["merge_core.merged_tensors"] == w.cfg["expected"]["merge"]["merged"]


def test_metric_and_workload_names_match_benchmark_json():
    bench = json.loads((REPO / "BENCHMARK.json").read_text("utf-8"))
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {
        name: cfg["why"] for name, cfg in CONFIG["workloads"].items()
    }
    assert all(len(w["why"]) <= 200 for w in bench["workloads"])
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "transplant", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""

"""moemerge benchmark: one workload, one seed, end-to-end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload transplant --seed 1 --seconds 10 --trace 0

Set-up generates the workload's parent checkpoints from ``--seed`` with
``moemerge.fixtures`` (several times, reporting the median). Then, for
``--seconds``, after an untimed warm-up, it runs cycles of the
user-facing commands one after another, each as a fresh
``python3 -m moemerge.cli`` child process (a closed loop with one client):
``diff``, ``merge --recipe``, ``plan``, ``sweep``, ``report --kind
heatmap``, ``report --kind histogram`` and a copy-only ``merge --plan``.
Every output, the warm-up's too, is checked outside the timed region by
``check.py``. Peak RSS comes from each child's own rusage.

With ``--trace 1`` the cycles alternate between plain and traced children;
a traced child (``opchild.py``) wraps the calls each module makes into the
next (``spans.py``), the per-layer metrics come from those spans, and the
spans are written to ``.perfbench_spans/``. The last stdout line is the
JSON result; the line before it holds the per-op samples. Workloads are in
workloads.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402

OP_TIMEOUT_S = 60  # far above any op here, so a hung op cannot stall the run
WORK_DIR = ".perfbench_work"
SPANS_DIR = ".perfbench_spans"  # traced runs leave their spans here
MANIFEST = "fixture_manifest.json"  # fixture bookkeeping, not part of the checkpoint
ANALYSIS_OPS = ("plan", "sweep", "heatmap", "histogram")
WARMUP_OPS = ("diff", "merge", "plan", "copy")  # plan writes the copy op's input
MB = 1e6

END_TO_END_UNITS = {
    "setup_s": "s",
    "diff_MBps": "MB/s",
    "merge_MBps": "MB/s",
    "copy_MBps": "MB/s",
    "analysis_s": "s",
    "peak_rss_MB": "MB",
}

PER_LAYER_UNITS = {
    "fixtures.generate_s": "s",
    "safetensors_io.open_s": "s",
    "safetensors_io.open_calls": "count",
    "safetensors_io.read_s": "s",
    "safetensors_io.read_calls": "count",
    "safetensors_io.read_MB": "MB",
    "safetensors_io.write_self_s": "s",
    "safetensors_io.write_wait_s": "s",
    "safetensors_io.rchar_per_input_byte": "ratio",
    "safetensors_io.wchar_per_output_byte": "ratio",
    "ref.filecopy_MBps": "MB/s",
    "safetensors_io.copy_vs_filecopy": "ratio",
    "tensor_math.decode_s": "s",
    "tensor_math.decode_Melem": "Melem",
    "tensor_math.encode_s": "s",
    "tensor_math.encode_Melem": "Melem",
    "tensor_math.combine_s": "s",
    "tensor_math.combine_Melem": "Melem",
    "tensor_math.diff_s": "s",
    "tensor_math.diff_Melem": "Melem",
    "tensor_math.decodes_per_merged_input": "ratio",
    "merge_core.diff_s": "s",
    "merge_core.plan_s": "s",
    "merge_core.execute_s": "s",
    "merge_core.diff_useful_ratio": "ratio",
    "merge_core.worker_busy_frac": "ratio",
    "merge_core.peak_rss_per_largest_merged": "ratio",
    "merge_core.merged_tensors": "count",
    "merge_core.copied_tensors": "count",
    "merge_core.sweep_s": "s",
    "merge_core.cache_save_s": "s",
    "merge_core.cache_load_s": "s",
    "taxonomy.classify_s": "s",
    "taxonomy.classify_calls": "count",
    "taxonomy.in_subset_s": "s",
    "analysis.heatmap_s": "s",
    "analysis.histogram_s": "s",
    "cli.overhead_s": "s",
    "cli.startup_s": "s",
    "cli.op_wall_s": "s",
    "safetensors_io.main_self_s": "s",
    "tensor_math.main_self_s": "s",
    "taxonomy.main_self_s": "s",
    "merge_core.main_self_s": "s",
    "analysis.main_self_s": "s",
    "trace.overhead_frac": "ratio",
}


class OpResult:
    def __init__(self, wall, maxrss, report, problems):
        self.wall = wall  # seconds, as the parent saw it: spawn to reap
        self.maxrss = maxrss  # bytes
        self.report = report  # the traced child's report, or None
        self.problems = problems


def spawn(cmd: list[str], env: dict, out_dir: Path) -> tuple[float, int, int, str]:
    """Run a child to completion; returns (wall_s, exit_code, peak_rss_bytes, stderr)."""
    err_path = out_dir / "stderr.txt"
    with open(out_dir / "stdout.txt", "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss * 1024, err_path.read_text("utf-8", "replace")


def sync_tree(root: Path) -> None:
    """fsync every file under root, so no write-back of one step runs during the next."""
    for dirpath, _, files in os.walk(root):
        for name in files:
            fd = os.open(os.path.join(dirpath, name), os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)


class Workload:
    """One workload's parents, commands and checks, inside a work directory."""

    def __init__(self, root: Path, name: str, config: dict, seed: int):
        self.root = root
        self.name = name
        self.common = config["common"]
        self.cfg = config["workloads"][name]
        self.seed = seed
        self.work = root / WORK_DIR
        self.ops_dir = self.work / "ops"
        self.parents = [self.work / "parents" / "base"] + [
            self.work / "parents" / f"variant{i + 1}" for i in range(len(self.cfg["variants"]))
        ]
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.verified: dict[str, str] = {}  # op -> digest of an output that passed the full check
        self.digests: dict[tuple[str, bool], str] = {}  # (op, traced) -> last output digest
        self.records: list[dict] = []

    # -- set-up -----------------------------------------------------------

    def setup(self) -> float:
        """Generate every parent from the seed; returns the generation wall time."""
        from moemerge import fixtures

        shutil.rmtree(self.work, ignore_errors=True)
        self.ops_dir.mkdir(parents=True)
        spec = fixtures.FixtureSpec(
            **self.cfg["spec"],
            dtypes=self.common["dtypes"],
            seed=self.seed,
            max_shard_bytes=self.common["max_shard_bytes"],
        )
        start = time.perf_counter()
        fixtures.generate_base(spec, self.parents[0])
        for path, perts in zip(self.parents[1:], self.cfg["variants"]):
            fixtures.generate_variant(spec, [fixtures.PerturbationSpec(**p) for p in perts], path)
        elapsed = time.perf_counter() - start
        sync_tree(self.work)
        return elapsed

    def prepare(self) -> None:
        """Recipes and the sizes the metrics and checks need (not timed)."""
        models = [str(p) for p in self.parents]
        recipe = dict(self.cfg["recipe"], models=models)
        copy_recipe = dict(recipe, **self.common["copy_recipe"])
        (self.work / "recipe.json").write_text(json.dumps(recipe), "utf-8")
        (self.work / "copy_recipe.json").write_text(json.dumps(copy_recipe), "utf-8")
        self.expected_diffs = [
            json.loads((p / "expected_diffs.json").read_text("utf-8")) for p in self.parents[1:]
        ]
        ckpts = [check.Checkpoint(p) for p in self.parents]
        base = ckpts[0]
        subset, delta = self.cfg["recipe"]["subset"], self.cfg["recipe"]["delta"]
        merged = {n for n in base.tensors if check.expected_merged(n, self.expected_diffs, subset, delta)}
        self.merged_names = merged
        self.base_bytes = base.data_bytes()
        self.parents_bytes = sum(c.data_bytes() for c in ckpts)
        self.needed_bytes = sum(
            sum(c.tensors[n][4] for c in ckpts) if n in merged else base.tensors[n][4]
            for n in base.tensors
        )
        self.largest_merged = max((base.tensors[n][4] for n in merged), default=1)
        self.in_subset = sum(1 for n in base.tensors if check.in_subset(n, subset))

    # -- commands ---------------------------------------------------------

    def argv(self, op: str) -> list[str]:
        w, threads = self.ops_dir, str(self.cfg["threads"])
        recipe, copy_recipe = str(self.work / "recipe.json"), str(self.work / "copy_recipe.json")
        diffs = str(w / "diffs.json")
        if op == "diff":
            return ["diff", *map(str, self.parents), "--out", diffs, "--threads", threads]
        if op == "merge":
            return ["merge", "--recipe", recipe, "--out", str(w / "merged"), "--threads", threads]
        if op == "plan":
            return ["plan", "--recipe", copy_recipe, "--diffs", diffs, "--out", str(w / "copy_plan.json")]
        if op == "sweep":
            deltas = ",".join(repr(d) for d in self.common["sweep_deltas"])
            return ["sweep", "--recipe", recipe, "--diffs", diffs, "--deltas", deltas,
                    "--out", str(w / "sweep.csv")]
        if op == "heatmap":
            return ["report", "--diffs", diffs, "--kind", "heatmap", "--out", str(w / "heatmap.csv")]
        if op == "histogram":
            hist = self.common["histogram"]
            return ["report", "--diffs", diffs, "--kind", "histogram",
                    "--edges", ",".join(repr(e) for e in hist["edges"]),
                    "--cutoff", repr(hist["cutoff"]), "--out", str(w / "histogram.csv")]
        if op == "copy":
            return ["merge", "--plan", str(w / "copy_plan.json"), "--out", str(w / "copied"),
                    "--threads", "1"]
        raise ValueError(op)

    def clear_output(self, op: str) -> None:
        if op == "diff":
            (self.ops_dir / "diffs.json").unlink(missing_ok=True)
        elif op in ("merge", "copy"):
            shutil.rmtree(self.ops_dir / ("merged" if op == "merge" else "copied"), ignore_errors=True)

    def run_op(self, op: str, traced: bool) -> OpResult:
        self.clear_output(op)
        report_path = self.ops_dir / "trace.json"
        report_path.unlink(missing_ok=True)
        if traced:
            cmd = [sys.executable, str(HERE / "opchild.py"), str(report_path), *self.argv(op)]
        else:
            cmd = [sys.executable, "-m", "moemerge.cli", *self.argv(op)]
        wall, code, maxrss, stderr = spawn(cmd, self.env, self.ops_dir)
        sync_tree(self.ops_dir)
        report = None
        if code != 0:
            problems = [f"{op}: exit code {code}: {stderr.strip()[-500:]}"]
        else:
            problems = self.check(op, traced)
            if traced:
                report = json.loads(report_path.read_text("utf-8"))
        return OpResult(wall, maxrss, report, problems)

    # -- checks -----------------------------------------------------------

    def check(self, op: str, traced: bool) -> list[str]:
        w, exp, common = self.ops_dir, self.cfg["expected"], self.common
        subset = self.cfg["recipe"]["subset"]
        if op == "diff":
            problems = check.check_diff_cache(w / "diffs.json", self.expected_diffs)
            self.records = json.loads((w / "diffs.json").read_text("utf-8"))["records"]
            return problems
        if op == "merge":
            return check.check_plan_counts(w / "merged" / "merge_plan.json", exp["merge"]) + self.check_checkpoint(
                op, traced, w / "merged", lambda n: n in self.merged_names, exp["merge"])
        if op == "plan":
            return check.check_plan_counts(w / "copy_plan.json", exp["copy"])
        if op == "sweep":
            return check.check_sweep(w / "sweep.csv", self.records, common["sweep_deltas"], subset)
        if op == "heatmap":
            return check.check_heatmap(w / "heatmap.csv", self.records)
        if op == "histogram":
            hist = common["histogram"]
            return check.check_histogram(w / "histogram.csv", self.records, hist["edges"], hist["cutoff"])
        return check.check_plan_counts(w / "copied" / "merge_plan.json", exp["copy"]) + self.check_checkpoint(
            op, traced, w / "copied", lambda n: False, exp["copy"])

    def check_checkpoint(self, op, traced, out, should_merge, counts) -> list[str]:
        """Full recomputation once per distinct output; later outputs must match its digest."""
        digest = check.digest(out)
        self.digests[(op, traced)] = digest
        if self.verified.get(op) == digest:
            return []
        problems = check.check_merged(out, self.parents, self.cfg["recipe"]["lambdas"], should_merge, counts)
        if not problems:
            self.verified[op] = digest
        return problems

    def cycle(self, traced: bool) -> dict[str, OpResult]:
        return {op: self.run_op(op, traced) for op in self.common["ops"]}

    # -- traced metrics ---------------------------------------------------

    def layer_metrics(self, cycle: dict[str, OpResult]) -> dict[str, float]:
        """Per-layer totals over one traced cycle, plus the merge op's ratios.

        Layer totals (``*_s``, calls, amounts) cover every thread. The
        ``*.main_self_s`` self times cover each op's main thread only, so that
        they, ``cli.overhead_s`` and ``cli.startup_s`` add up to ``cli.op_wall_s``;
        work on pool threads shows in the totals and in worker_busy_frac.
        """
        total, self_time, calls, amount = (defaultdict(float) for _ in range(4))
        layer_self = defaultdict(float)
        overhead = startup = op_wall = 0.0
        for result in cycle.values():
            rep = result.report
            spans = rep["spans"]
            child_time = defaultdict(float)
            for sid, parent, name, thread, start, end, amt in spans:
                if parent is not None:
                    child_time[parent] += end - start
            roots = 0.0
            for sid, parent, name, thread, start, end, amt in spans:
                own = end - start - child_time[sid]
                total[name] += end - start
                self_time[name] += own
                calls[name] += 1
                amount[name] += amt
                if thread == rep["main_thread"]:
                    # A write wait's own time runs merge_core's stream generator.
                    layer = "merge_core" if name == "safetensors_io.write_wait" else name.split(".")[0]
                    layer_self[layer] += own
                    if parent is None:
                        roots += end - start
            overhead += rep["main_wall_s"] - roots
            startup += result.wall - rep["main_wall_s"]
            op_wall += result.wall

        merge = cycle["merge"].report
        parents = len(self.parents)
        execute = [s for s in merge["spans"] if s[2] == "merge_core.execute"][0]
        task_names = ("safetensors_io.read", "tensor_math.decode", "tensor_math.combine", "tensor_math.encode")
        busy = sum(
            s[5] - s[4] for s in merge["spans"]
            if s[2] in task_names and s[4] >= execute[4] and s[5] <= execute[5]
        )
        merge_decodes = sum(1 for s in merge["spans"] if s[2] == "tensor_math.decode")
        merge_diffs = sum(1 for s in merge["spans"] if s[2] == "tensor_math.diff")
        plan = json.loads((self.ops_dir / "merged" / "merge_plan.json").read_text("utf-8"))
        merged = sum(d["action"] == "merge" for d in plan["decisions"])
        return {
            "safetensors_io.open_s": total["safetensors_io.open"],
            "safetensors_io.open_calls": calls["safetensors_io.open"],
            "safetensors_io.read_s": total["safetensors_io.read"],
            "safetensors_io.read_calls": calls["safetensors_io.read"],
            "safetensors_io.read_MB": amount["safetensors_io.read"] / MB,
            "safetensors_io.write_self_s": self_time["safetensors_io.write"],
            "safetensors_io.write_wait_s": total["safetensors_io.write_wait"],
            "safetensors_io.rchar_per_input_byte": merge["rchar"] / self.needed_bytes,
            "safetensors_io.wchar_per_output_byte": merge["wchar"] / self.base_bytes,
            "tensor_math.decode_s": total["tensor_math.decode"],
            "tensor_math.decode_Melem": amount["tensor_math.decode"] / 1e6,
            "tensor_math.encode_s": total["tensor_math.encode"],
            "tensor_math.encode_Melem": amount["tensor_math.encode"] / 1e6,
            "tensor_math.combine_s": total["tensor_math.combine"],
            "tensor_math.combine_Melem": amount["tensor_math.combine"] / 1e6,
            "tensor_math.diff_s": total["tensor_math.diff"],
            "tensor_math.diff_Melem": amount["tensor_math.diff"] / 1e6,
            "tensor_math.decodes_per_merged_input": merge_decodes / max(merged * parents, 1),
            "merge_core.diff_s": total["merge_core.diff"],
            "merge_core.plan_s": total["merge_core.plan"],
            "merge_core.execute_s": total["merge_core.execute"],
            "merge_core.diff_useful_ratio": self.in_subset / max(merge_diffs / max(parents - 1, 1), 1),
            "merge_core.worker_busy_frac": busy / (self.cfg["threads"] * (execute[5] - execute[4])),
            "merge_core.peak_rss_per_largest_merged": (merge["maxrss"] - merge["rss_before"]) / self.largest_merged,
            "merge_core.merged_tensors": merged,
            "merge_core.copied_tensors": len(plan["decisions"]) - merged,
            "merge_core.sweep_s": total["merge_core.sweep"],
            "merge_core.cache_save_s": total["merge_core.cache_save"],
            "merge_core.cache_load_s": total["merge_core.cache_load"],
            "taxonomy.classify_s": total["taxonomy.classify"],
            "taxonomy.classify_calls": calls["taxonomy.classify"],
            "taxonomy.in_subset_s": total["taxonomy.in_subset"],
            "analysis.heatmap_s": total["analysis.heatmap"],
            "analysis.histogram_s": total["analysis.histogram"],
            "cli.overhead_s": overhead,
            "cli.startup_s": startup,
            "cli.op_wall_s": op_wall,
            **{f"{layer}.main_self_s": layer_self[layer]
               for layer in ("safetensors_io", "tensor_math", "taxonomy", "merge_core", "analysis")},
        }

    def filecopy_s(self) -> float:
        """shutil.copytree of the base checkpoint: the machine's copy ceiling."""
        dest = self.work / "filecopy"
        shutil.rmtree(dest, ignore_errors=True)
        start = time.perf_counter()
        shutil.copytree(self.parents[0], dest, ignore=shutil.ignore_patterns(MANIFEST))
        elapsed = time.perf_counter() - start
        shutil.rmtree(dest)
        return elapsed


def write_spans(workload: Workload, traced: list[dict[str, OpResult]]) -> None:
    """Every span of the traced cycles, one entry per op, for later inspection.

    A span is [id, parent id, name, thread id, start s, end s, amount]; ids
    and times are local to the op's process.
    """
    out_dir = workload.root / SPANS_DIR
    out_dir.mkdir(exist_ok=True)
    ops = [
        {"op_id": f"{i}.{op}", "argv": workload.argv(op), "wall_s": r.wall, **r.report}
        for i, cycle in enumerate(traced)
        for op, r in cycle.items()
        if r.report is not None
    ]
    path = out_dir / f"{workload.name}-seed{workload.seed}.json"
    path.write_text(json.dumps({"workload": workload.name, "seed": workload.seed, "ops": ops}), "utf-8")


def median(values):
    return statistics.median(values) if values else 0.0


def run(workload: Workload, seconds: float, trace: bool) -> dict:
    setup_times = [workload.setup() for _ in range(1 if trace else workload.common["setup_repeats"])]
    workload.prepare()
    filecopy = [workload.filecopy_s() for _ in range(3)] if trace else []

    # One untimed (but checked) pass over the ops that read and write
    # checkpoints: their first run after set-up is measurably slower on the
    # workloads with large tensors, and timing it would make each median
    # depend on how many cycles fit into the run.
    warmup = {op: workload.run_op(op, False) for op in WARMUP_OPS}
    plain: list[dict[str, OpResult]] = []
    traced: list[dict[str, OpResult]] = []
    start = time.perf_counter()
    while True:
        plain.append(workload.cycle(False))
        if trace:
            traced.append(workload.cycle(True))
        loop_s = time.perf_counter() - start
        if loop_s >= seconds:
            break

    if trace:
        write_spans(workload, traced)
    timed = [r for c in plain + traced for r in c.values()]
    results = list(warmup.values()) + timed
    problems = [p for r in results for p in r.problems]
    mismatched = [
        f"{op}: traced output differs from untraced output"
        for op in ("merge", "copy")
        if trace and workload.digests.get((op, True)) != workload.digests.get((op, False))
    ]
    problems += mismatched

    def walls(op, cycles=plain):
        return [c[op].wall for c in cycles if not c[op].problems]

    analysis = [sum(c[op].wall for op in ANALYSIS_OPS) for c in plain
                if not any(c[op].problems for op in ANALYSIS_OPS)]
    if trace:
        layers = [workload.layer_metrics(c) for c in traced if not any(r.problems for r in c.values())]
        metrics = {name: median([m[name] for m in layers]) for name in layers[0]} if layers else {}
        traced_wall = median([sum(r.wall for r in c.values()) for c in traced])
        plain_wall = median([sum(r.wall for r in c.values()) for c in plain])
        copy_mbps = workload.base_bytes / MB / median(walls("copy")) if walls("copy") else 0.0
        filecopy_mbps = workload.base_bytes / MB / median(filecopy)
        metrics.update({
            "fixtures.generate_s": setup_times[0],
            "ref.filecopy_MBps": filecopy_mbps,
            "safetensors_io.copy_vs_filecopy": copy_mbps / filecopy_mbps,
            "trace.overhead_frac": traced_wall / plain_wall - 1.0,
        })
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": median(setup_times),
            "diff_MBps": workload.parents_bytes / MB / median(walls("diff")) if walls("diff") else 0.0,
            "merge_MBps": workload.base_bytes / MB / median(walls("merge")) if walls("merge") else 0.0,
            "copy_MBps": workload.base_bytes / MB / median(walls("copy")) if walls("copy") else 0.0,
            "analysis_s": median(analysis),
            "peak_rss_MB": max(r.maxrss for r in timed) / MB,
        }
        units = END_TO_END_UNITS

    detail = {
        "workload": workload.name,
        "seed": workload.seed,
        "cycles": len(plain),
        "traced_cycles": len(traced),
        "setup_samples": [round(t, 4) for t in setup_times],
        "op_samples_s": {op: [round(t, 4) for t in walls(op)] for op in workload.common["ops"]},
        "samples_per_op": len(plain),
        "loop_s": round(loop_s, 3),
        "op_s": round(sum(r.wall for r in timed), 3),
        "problems": problems[:20],
    }
    print(json.dumps(detail))
    return {
        "correct": not problems,
        "attempted": len(results),
        "failed": sum(1 for r in results if r.problems) + len(mismatched),
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "moemerge" / "__init__.py").is_file():
        print(f"error: no moemerge sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    config = json.loads((HERE / "workloads.json").read_text("utf-8"))
    if args.workload not in config["workloads"]:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(config['workloads'])}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workload = Workload(root, args.workload, config, args.seed)
    try:
        result = run(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workload.work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

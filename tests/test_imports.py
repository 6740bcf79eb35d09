"""The commands that decode no weights, and the package itself, never import numpy.

Each check runs in a fresh interpreter with ``sys.modules["numpy"] = None``,
so any ``import numpy`` raises ImportError and the command fails loudly.
"""

import ast
import hashlib
import importlib
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import moemerge as mm
from moemerge.cli import main

from conftest import hidden_siblings, tree_bytes

SRC = str(Path(mm.__file__).resolve().parent.parent)

NO_NUMPY = """
import sys
sys.modules["numpy"] = None
from moemerge.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
assert sys.modules["numpy"] is None
assert not [m for m in sys.modules if m.startswith("numpy.")]
sys.exit(code)
"""


def run_fresh(code, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
    )


@pytest.fixture(scope="module")
def inputs(tiny_pair, tmp_path_factory):
    """A recipe, a diff cache and a transcript for the tiny pair."""
    root = tmp_path_factory.mktemp("no_numpy")
    models = [str(tiny_pair["base"].root), str(tiny_pair["variant"].root)]
    recipe = root / "recipe.json"
    recipe.write_text(json.dumps({"models": models, "lambdas": [0.5, 0.5]}))
    diffs = root / "diffs.json"
    assert main(["diff", *models, "--out", str(diffs)]) == 0
    transcript = root / "transcript.jsonl"
    transcript.write_text('{"id": 1, "response": "<think>a</think>b"}\n')
    return {"root": root, "models": models, "recipe": str(recipe), "diffs": str(diffs),
            "transcript": str(transcript)}


COMMANDS = {
    "version": lambda i: ["--version"],
    "plan": lambda i: ["plan", "--recipe", i["recipe"], "--diffs", i["diffs"],
                       "--out", str(i["root"] / "plan.json")],
    "sweep": lambda i: ["sweep", "--recipe", i["recipe"], "--diffs", i["diffs"],
                        "--deltas", "0,0.01"],
    "heatmap": lambda i: ["report", "--diffs", i["diffs"], "--kind", "heatmap"],
    "histogram": lambda i: ["report", "--diffs", i["diffs"], "--kind", "histogram"],
    "merge-dry-run": lambda i: ["merge", "--dry-run", "--recipe", i["recipe"],
                                "--diffs", i["diffs"], "--out", str(i["root"] / "m")],
    "validate": lambda i: ["validate", i["models"][0]],
    "think-freq": lambda i: ["think-freq", i["transcript"]],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_that_reads_no_weights_never_imports_numpy(inputs, command):
    result = run_fresh(NO_NUMPY, *COMMANDS[command](inputs))
    assert result.returncode == 0, result.stderr


def test_a_command_that_reads_weights_fails_loudly_without_numpy(inputs, tmp_path):
    cache = tmp_path / "fresh.json"
    result = run_fresh(NO_NUMPY, "diff", *inputs["models"], "--out", str(cache))
    assert result.returncode != 0
    assert "numpy" in result.stderr
    assert not cache.exists()


@pytest.fixture(scope="module")
def plans(inputs):
    """A reviewed plan whose every decision is a copy, and one that merges."""
    root = inputs["root"]
    copy_recipe = root / "copy_recipe.json"
    copy_recipe.write_text(json.dumps(
        {"models": inputs["models"], "lambdas": [0.5, 0.5], "delta": 1e9}))
    found = {}
    for kind, recipe in (("copy", str(copy_recipe)), ("merge", inputs["recipe"])):
        path = root / f"{kind}_plan.json"
        assert main(["plan", "--recipe", recipe, "--diffs", inputs["diffs"],
                     "--out", str(path)]) == 0
        found[kind] = str(path)
    actions = {kind: {d["action"] for d in json.loads(Path(path).read_text())["decisions"]}
               for kind, path in found.items()}
    assert actions == {"copy": {"copy_base"}, "merge": {"copy_base", "merge"}}
    return found


def digests(root):
    """sha256 of every output file, the report's without ``elapsed_seconds``."""
    found = {}
    for path in sorted(root.iterdir()):
        data = path.read_bytes()
        if path.name == "merge_report.json":
            report = json.loads(data)
            del report["elapsed_seconds"]
            data = json.dumps(report, sort_keys=True).encode()
        found[path.name] = hashlib.sha256(data).hexdigest()
    return found


NO_NUMPY_NO_POOL = NO_NUMPY.replace(
    "sys.exit(code)", 'assert "concurrent.futures" not in sys.modules\nsys.exit(code)')


def test_copy_only_merge_plan_never_imports_numpy_or_a_thread_pool(plans, tmp_path):
    blocked, plain = tmp_path / "blocked", tmp_path / "plain"
    result = run_fresh(NO_NUMPY_NO_POOL, "merge", "--plan", plans["copy"], "--out", str(blocked))
    assert result.returncode == 0, result.stderr
    assert main(["merge", "--plan", plans["copy"], "--out", str(plain)]) == 0
    assert digests(blocked) == digests(plain)


def test_a_merge_plan_that_combines_fails_loudly_without_numpy(plans, tmp_path):
    out = tmp_path / "child"
    assert main(["merge", "--plan", plans["copy"], "--out", str(out)]) == 0
    before = tree_bytes(out)
    result = run_fresh(NO_NUMPY, "merge", "--plan", plans["merge"], "--out", str(out), "--force")
    assert result.returncode != 0
    assert "numpy" in result.stderr
    assert tree_bytes(out) == before
    assert hidden_siblings(out) == []


def test_import_merge_core_loads_no_kernels_and_no_thread_pool():
    code = """
import sys
import moemerge.merge_core
assert "numpy" not in sys.modules
assert "moemerge.tensor_math" not in sys.modules
assert "concurrent.futures" not in sys.modules
"""
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr


def test_kernel_wrappers_installed_before_the_first_pass_see_every_call(tiny_pair, tmp_path):
    """A tracer wraps merge_core's kernels by attribute, as the bench's does."""
    code = """
import sys
from moemerge import merge_core
from moemerge.planning import MergeConfig

calls = {}

def wrap(name, fn):
    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)
    return wrapper

names = ["decode", "encode", "linear_combination", "squared_diff_sum"]
wrappers = {}
for name in names:
    wrappers[name] = wrap(name, getattr(merge_core, name))
    setattr(merge_core, name, wrappers[name])
config = MergeConfig(models=tuple(sys.argv[1:3]), lambdas=(0.5, 0.5))
for out in sys.argv[3:]:
    calls.clear()
    _, report = merge_core.execute_merge(None, config, out)
    assert report.counts["merged"] > 0
    assert sorted(calls) == sorted(names), calls
    assert all(getattr(merge_core, n) is wrappers[n] for n in names)
"""
    result = run_fresh(code, str(tiny_pair["base"].root), str(tiny_pair["variant"].root),
                       str(tmp_path / "first"), str(tmp_path / "second"))
    assert result.returncode == 0, result.stderr


def test_import_moemerge_never_imports_numpy():
    code = """
import sys
sys.modules["numpy"] = None
import moemerge
from moemerge.planning import MergeConfig
assert moemerge.__version__
assert moemerge.MergeConfig is MergeConfig
assert sys.modules["numpy"] is None
"""
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr


# Public values that are not classes or functions, and so carry no __module__.
CONSTANT_HOMES = {
    "__version__": "moemerge._version",
    "DEFAULT_SCHEME": "moemerge.taxonomy",
    "EXPERTS_ONLY_SUBSET": "moemerge.taxonomy",
    "FULL_SUBSET": "moemerge.taxonomy",
}


def test_every_public_name_is_the_object_its_module_defines():
    for name in mm.__all__:
        value = getattr(mm, name)
        if isinstance(value, (type, types.FunctionType)):
            home = value.__module__
        else:
            home = CONSTANT_HOMES[name]
        assert getattr(importlib.import_module(home), name) is value, name


def test_dir_lists_every_public_name_before_it_is_loaded():
    code = """
import sys
sys.modules["numpy"] = None
import moemerge
assert set(moemerge.__all__) <= set(dir(moemerge)), set(moemerge.__all__) - set(dir(moemerge))
assert sys.modules["numpy"] is None
"""
    result = run_fresh(code)
    assert result.returncode == 0, result.stderr


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mm.no_such_name


def test_the_naive_oracle_imports_nothing_from_moemerge():
    """The acceptance oracle stays independent of the code it checks."""
    tree = ast.parse((Path(__file__).parent / "naive_oracle.py").read_text("utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
    assert imported
    assert [m for m in imported if m.split(".")[0] in ("moemerge", "")] == []

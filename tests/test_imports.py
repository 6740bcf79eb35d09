"""The commands that read no weights, and the package itself, never import numpy.

Each check runs in a fresh interpreter with ``sys.modules["numpy"] = None``,
so any ``import numpy`` raises ImportError and the command fails loudly.
"""

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


def run_without_numpy(code, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True
    )


@pytest.fixture(scope="module")
def inputs(tiny_pair, tmp_path_factory):
    """A recipe, an up-to-date diff cache and a transcript for the tiny pair."""
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
    "diff-up-to-date": lambda i: ["diff", *i["models"], "--out", i["diffs"]],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_that_reads_no_weights_never_imports_numpy(inputs, command):
    result = run_without_numpy(NO_NUMPY, *COMMANDS[command](inputs))
    assert result.returncode == 0, result.stderr
    if command == "diff-up-to-date":
        assert "up to date" in result.stderr


def test_a_command_that_reads_weights_fails_loudly_without_numpy(inputs, tmp_path):
    cache = tmp_path / "fresh.json"
    result = run_without_numpy(NO_NUMPY, "diff", *inputs["models"], "--out", str(cache))
    assert result.returncode != 0
    assert "numpy" in result.stderr
    assert not cache.exists()


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
    result = run_without_numpy(code)
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
    result = run_without_numpy(code)
    assert result.returncode == 0, result.stderr


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        mm.no_such_name

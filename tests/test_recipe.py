import dataclasses
import json
import math
from pathlib import Path

import pytest

import moemerge as mm
from moemerge.errors import RecipeError
from moemerge.planning import MergeConfig, load_recipe
from moemerge.taxonomy import SubsetSpec, TensorGroup, resolve_scheme


def minimal_obj(**overrides):
    obj = {"models": ["base", "other"], "lambdas": [0.5, 0.5]}
    obj.update(overrides)
    return obj


def test_recipe_round_trip():
    obj = {
        "models": ["base", "other"],
        "lambdas": [0.3, 0.7],
        "delta": 0.001,
        "subset": {"groups": ["attention"], "patterns": [{"pattern": "lm_head.**", "include": True}]},
        "scheme": [{"pattern": "model.layers.{layer}.attn.**", "group": "attention"}],
        "convex_required": True,
    }
    config = MergeConfig.from_json_obj(obj)
    assert MergeConfig.from_json_obj(json.loads(json.dumps(config.to_json_obj()))) == config


def test_recipe_unknown_key_is_an_error():
    with pytest.raises(RecipeError, match="lamdas"):
        MergeConfig.from_json_obj(minimal_obj(lamdas=[1.0]))
    # a child takes its base's layout, so there is nothing to set about the output
    with pytest.raises(RecipeError, match=r"unknown recipe keys \['output'\]"):
        MergeConfig.from_json_obj(minimal_obj(output={"mode": "mirror"}))


def test_recipe_missing_required_key():
    with pytest.raises(RecipeError, match="'models'"):
        MergeConfig.from_json_obj({"lambdas": [1.0]})
    with pytest.raises(RecipeError, match="'lambdas'"):
        MergeConfig.from_json_obj({"models": ["a"]})


def test_recipe_field_types_checked():
    with pytest.raises(RecipeError, match="models"):
        MergeConfig.from_json_obj(minimal_obj(models="base"))
    with pytest.raises(RecipeError, match="lambdas"):
        MergeConfig.from_json_obj(minimal_obj(lambdas=[0.5, "x"]))
    with pytest.raises(RecipeError, match="delta"):
        MergeConfig.from_json_obj(minimal_obj(delta="small"))
    with pytest.raises(RecipeError, match="convex_required"):
        MergeConfig.from_json_obj(minimal_obj(convex_required="yes"))
    with pytest.raises(RecipeError, match="must be a JSON object"):
        MergeConfig.from_json_obj([minimal_obj()])


def test_recipe_resolves_relative_paths(tmp_path):
    (tmp_path / "r.json").write_text(json.dumps(minimal_obj(models=["base", "/abs/other"])))
    config = load_recipe(tmp_path / "r.json")
    assert isinstance(config, MergeConfig)
    assert config.models == (str(tmp_path / "base"), "/abs/other")
    assert mm.load_recipe is load_recipe


def test_recipe_resolve_validates_config():
    with pytest.raises(RecipeError, match="sum to 1"):
        MergeConfig.from_json_obj(minimal_obj(lambdas=[0.9, 0.9]))


@pytest.mark.parametrize(
    "edit, message",
    [
        (dict(lambdas=[math.nan, math.nan]), "must be finite"),
        (dict(lambdas=[math.nan, 1.0], convex_required=False), "must be finite"),
        (dict(lambdas=[math.inf, 0.0], convex_required=False), "must be finite"),
        (dict(delta=math.nan), "delta must be a number >= 0"),
    ],
    ids=["lambdas-nan", "lambdas-nan-affine", "lambdas-inf-affine", "delta-nan"],
)
def test_recipe_refuses_nonfinite_weights_and_a_nan_threshold(tmp_path, edit, message):
    """json.loads accepts NaN and Infinity, so a recipe file can carry them."""
    (tmp_path / "r.json").write_text(json.dumps(minimal_obj(**edit)))
    with pytest.raises(RecipeError, match=message):
        load_recipe(tmp_path / "r.json")


def test_recipe_custom_subset_and_inline_scheme():
    obj = minimal_obj(
        subset={"groups": ["attention"], "patterns": [{"pattern": "lm_head.**", "include": True}]},
        scheme=[{"pattern": "model.layers.{layer}.attn.**", "group": "attention"}],
    )
    config = MergeConfig.from_json_obj(obj)
    assert config.subset == SubsetSpec(frozenset({TensorGroup.ATTENTION}), (("lm_head.**", True),))
    assert mm.classify("model.layers.3.attn.q.weight", config.scheme).group is TensorGroup.ATTENTION
    assert mm.classify("model.embed_tokens.weight", config.scheme).group is TensorGroup.OTHER


def test_recipe_scheme_from_file(tmp_path):
    rules = [{"pattern": "foo.{layer}.bar", "group": "dense_mlp"}]
    (tmp_path / "scheme.json").write_text(json.dumps(rules))
    config = MergeConfig.from_json_obj(minimal_obj(scheme="scheme.json"), tmp_path)
    assert mm.classify("foo.4.bar", config.scheme).layer == 4


def test_recipe_overrides():
    config = MergeConfig.from_json_obj(minimal_obj())
    changed = dataclasses.replace(config, lambdas=(0.0, 1.0), delta=0.25)
    changed.validate()
    assert changed.lambdas == (0.0, 1.0)
    assert changed.delta == 0.25
    assert config.lambdas == (0.5, 0.5)  # original untouched
    with pytest.raises(RecipeError, match="must be finite"):
        dataclasses.replace(config, lambdas=(math.nan, math.nan)).validate()
    with pytest.raises(RecipeError, match="must be finite"):  # too large for a float
        dataclasses.replace(config, lambdas=(10**400, 0)).validate()


def test_config_is_canonical_when_made():
    config = MergeConfig(models=["./base", Path("dir/../other")], lambdas=[0, 1], delta=0)
    assert config.models == ("base", "dir/../other")
    assert config.lambdas == (0.0, 1.0) and all(type(x) is float for x in config.lambdas)
    assert type(config.delta) is float
    assert MergeConfig.from_json_obj(config.to_json_obj()) == config
    # ill-typed values are left for validate() to refuse
    for bad, message in (
        (dict(models="ab"), "models must be a list of paths"),
        (dict(models=("base", 5)), "models must be a list of paths"),
        (dict(lambdas=("0.5", 0.5)), "must be a list of numbers"),
        (dict(lambdas=(True, False)), "must be a list of numbers"),
        (dict(delta="small"), "delta must be a number >= 0"),
        (dict(delta=10**400), "delta must be a number >= 0"),
        (dict(convex_required="yes"), "convex_required must be a boolean"),
    ):
        with pytest.raises(RecipeError, match=message):
            dataclasses.replace(config, **bad).validate()


def test_recipe_file_errors(tmp_path):
    with pytest.raises(RecipeError, match="recipe file not found"):
        load_recipe(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(RecipeError, match="recipe file .* is not valid JSON"):
        load_recipe(bad)
    with pytest.raises(RecipeError, match="scheme file not found"):
        resolve_scheme("missing.json", tmp_path)
    with pytest.raises(RecipeError, match="scheme file .* is not valid JSON"):
        resolve_scheme(str(bad))

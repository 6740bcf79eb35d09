import json

import pytest

import moemerge as mm
from moemerge.errors import RecipeError
from moemerge.recipe import Recipe, load_recipe
from moemerge.taxonomy import SubsetMode, TensorGroup


def minimal_obj(**overrides):
    obj = {"models": ["base", "other"], "lambdas": [0.5, 0.5]}
    obj.update(overrides)
    return obj


def test_recipe_round_trip():
    obj = {
        "models": ["base", "other"],
        "lambdas": [0.3, 0.7],
        "delta": 0.001,
        "subset": "experts-only",
        "scheme": None,
        "convex_required": True,
        "output": {"mode": "mirror"},
    }
    recipe = Recipe.from_json_obj(obj)
    assert Recipe.from_json_obj(recipe.to_json_obj()) == recipe


def test_recipe_unknown_key_is_an_error():
    with pytest.raises(RecipeError, match="lamdas"):
        Recipe.from_json_obj(minimal_obj(lamdas=[1.0]))
    with pytest.raises(RecipeError, match="unknown output keys.*compress"):
        Recipe.from_json_obj(minimal_obj(output={"mode": "pack", "compress": True}))


def test_recipe_missing_required_key():
    with pytest.raises(RecipeError, match="'models'"):
        Recipe.from_json_obj({"lambdas": [1.0]})
    with pytest.raises(RecipeError, match="'lambdas'"):
        Recipe.from_json_obj({"models": ["a"]})


def test_recipe_field_types_checked():
    with pytest.raises(RecipeError, match="models"):
        Recipe.from_json_obj(minimal_obj(models="base"))
    with pytest.raises(RecipeError, match="lambdas"):
        Recipe.from_json_obj(minimal_obj(lambdas=[0.5, "x"]))
    with pytest.raises(RecipeError, match="delta"):
        Recipe.from_json_obj(minimal_obj(delta="small"))
    with pytest.raises(RecipeError, match="convex_required"):
        Recipe.from_json_obj(minimal_obj(convex_required="yes"))


def test_recipe_resolves_relative_paths(tmp_path):
    (tmp_path / "r.json").write_text(json.dumps(minimal_obj()))
    recipe = load_recipe(tmp_path / "r.json")
    config = recipe.resolve(tmp_path)
    assert config.models == (str(tmp_path / "base"), str(tmp_path / "other"))


def test_recipe_resolve_validates_config():
    recipe = Recipe.from_json_obj(minimal_obj(lambdas=[0.9, 0.9]))
    with pytest.raises(RecipeError, match="sum to 1"):
        recipe.resolve(".")


def test_recipe_custom_subset_and_inline_scheme():
    obj = minimal_obj(
        subset={"groups": ["attention"], "patterns": [{"pattern": "lm_head.**", "include": True}]},
        scheme=[{"pattern": "model.layers.{layer}.attn.**", "group": "attention"}],
    )
    config = Recipe.from_json_obj(obj).resolve(".")
    assert config.subset.mode is SubsetMode.CUSTOM
    assert mm.classify("model.layers.3.attn.q.weight", config.scheme).group is TensorGroup.ATTENTION
    assert mm.classify("model.embed_tokens.weight", config.scheme).group is TensorGroup.OTHER


def test_recipe_scheme_from_file(tmp_path):
    rules = [{"pattern": "foo.{layer}.bar", "group": "dense_mlp"}]
    (tmp_path / "scheme.json").write_text(json.dumps(rules))
    config = Recipe.from_json_obj(minimal_obj(scheme="scheme.json")).resolve(tmp_path)
    assert mm.classify("foo.4.bar", config.scheme).layer == 4


def test_recipe_overrides():
    recipe = Recipe.from_json_obj(minimal_obj())
    changed = recipe.with_overrides(lambdas=(0.0, 1.0), delta=0.25)
    assert changed.lambdas == (0.0, 1.0)
    assert changed.delta == 0.25
    assert recipe.lambdas == (0.5, 0.5)  # original untouched


def test_recipe_file_errors(tmp_path):
    with pytest.raises(RecipeError, match="not found"):
        load_recipe(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(RecipeError, match="not valid JSON"):
        load_recipe(bad)

"""Declarative merge recipes.

A recipe is a single JSON document that pins everything a merge needs, so
the file itself is the reproducibility record:

.. code-block:: json

    {
      "models": ["base_ckpt", "other_ckpt"],
      "lambdas": [0.5, 0.5],
      "delta": 0.0,
      "subset": "full",
      "scheme": null,
      "convex_required": true,
      "output": {"mode": "mirror"}
    }

``models[0]`` is the base model; relative paths resolve against the recipe
file's directory. ``subset`` is ``"full"``, ``"experts-only"``, or a custom
object (see taxonomy). ``scheme`` is ``null`` (built-in DeepSeek-V3 rules),
a path to a rule file, or an inline rule list. Unknown keys anywhere are
an error: a typo must never silently change a merge.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

from .errors import RecipeError
from .planning import MergeConfig
from .safetensors_io import OutputPolicy
from .taxonomy import DEFAULT_SCHEME, NamingScheme, subset_from_json_obj

_RECIPE_KEYS = {
    "models", "lambdas", "delta", "subset", "scheme", "convex_required", "output",
}
_OUTPUT_KEYS = {"mode", "max_shard_bytes", "shard_template", "index_name"}


@dataclass(frozen=True)
class Recipe:
    """Parsed recipe document, still unresolved (paths as written)."""

    models: tuple[str, ...]
    lambdas: tuple[float, ...]
    delta: float = 0.0
    subset_obj: str | dict = "full"
    scheme_obj: str | list | None = None
    convex_required: bool = True
    output_obj: dict | None = None

    @classmethod
    def from_json_obj(cls, obj: object) -> "Recipe":
        if not isinstance(obj, dict):
            raise RecipeError("recipe must be a JSON object")
        unknown = set(obj) - _RECIPE_KEYS
        if unknown:
            raise RecipeError(f"unknown recipe keys {sorted(unknown)}")
        for required in ("models", "lambdas"):
            if required not in obj:
                raise RecipeError(f"recipe is missing the {required!r} key")
        models = obj["models"]
        if (
            not isinstance(models, list)
            or not models
            or any(not isinstance(m, str) for m in models)
        ):
            raise RecipeError("'models' must be a non-empty list of paths")
        lambdas = obj["lambdas"]
        if not isinstance(lambdas, list) or any(
            not isinstance(x, (int, float)) or isinstance(x, bool) for x in lambdas
        ):
            raise RecipeError("'lambdas' must be a list of numbers")
        delta = obj.get("delta", 0.0)
        if not isinstance(delta, (int, float)) or isinstance(delta, bool):
            raise RecipeError("'delta' must be a number")
        convex = obj.get("convex_required", True)
        if not isinstance(convex, bool):
            raise RecipeError("'convex_required' must be a boolean")
        scheme_obj = obj.get("scheme")
        if scheme_obj is not None and not isinstance(scheme_obj, (str, list)):
            raise RecipeError("'scheme' must be null, a path string, or a rule list")
        output_obj = obj.get("output")
        if output_obj is not None:
            if not isinstance(output_obj, dict):
                raise RecipeError("'output' must be an object")
            unknown = set(output_obj) - _OUTPUT_KEYS
            if unknown:
                raise RecipeError(f"unknown output keys {sorted(unknown)}")
        return cls(
            models=tuple(models),
            lambdas=tuple(float(x) for x in lambdas),
            delta=float(delta),
            subset_obj=obj.get("subset", "full"),
            scheme_obj=scheme_obj,
            convex_required=convex,
            output_obj=output_obj,
        )

    def to_json_obj(self) -> dict:
        return {
            "models": list(self.models),
            "lambdas": list(self.lambdas),
            "delta": self.delta,
            "subset": self.subset_obj,
            "scheme": self.scheme_obj,
            "convex_required": self.convex_required,
            "output": dict(self.output_obj) if self.output_obj is not None else None,
        }

    def with_overrides(
        self,
        lambdas: tuple[float, ...] | None = None,
        delta: float | None = None,
    ) -> "Recipe":
        recipe = self
        if lambdas is not None:
            recipe = replace(recipe, lambdas=lambdas)
        if delta is not None:
            recipe = replace(recipe, delta=delta)
        return recipe

    def resolve(self, base_dir: str | Path = ".") -> MergeConfig:
        """Turn the document into a validated MergeConfig.

        Relative model and scheme paths resolve against ``base_dir``
        (normally the recipe file's directory).
        """
        base_dir = Path(base_dir)
        models = tuple(
            str(p if (p := Path(m)).is_absolute() else base_dir / m)
            for m in self.models
        )
        output = OutputPolicy()
        if self.output_obj is not None:
            output = OutputPolicy(**self.output_obj)
        config = MergeConfig(
            models=models,
            lambdas=self.lambdas,
            delta=self.delta,
            subset=subset_from_json_obj(self.subset_obj),
            scheme=resolve_scheme(self.scheme_obj, base_dir),
            convex_required=self.convex_required,
            output=output,
        )
        config.validate()
        return config


def resolve_scheme(
    scheme_obj: str | list | None, base_dir: str | Path = "."
) -> NamingScheme:
    """Resolve a scheme reference: inline rules, a path, or the default.

    ``None`` is the built-in DeepSeek-V3 scheme.
    """
    if scheme_obj is None:
        return DEFAULT_SCHEME
    if isinstance(scheme_obj, str):
        path = Path(scheme_obj)
        if not path.is_absolute():
            path = Path(base_dir) / path
        return load_scheme_file(path)
    return NamingScheme.from_json_obj(scheme_obj)


def load_scheme_file(path: str | Path) -> NamingScheme:
    try:
        obj = json.loads(Path(path).read_text("utf-8"))
    except FileNotFoundError:
        raise RecipeError(f"scheme file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise RecipeError(f"scheme file {path} is not valid JSON: {exc}") from exc
    return NamingScheme.from_json_obj(obj)


def load_recipe(path: str | Path) -> Recipe:
    try:
        obj = json.loads(Path(path).read_text("utf-8"))
    except FileNotFoundError:
        raise RecipeError(f"recipe file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise RecipeError(f"recipe file {path} is not valid JSON: {exc}") from exc
    return Recipe.from_json_obj(obj)

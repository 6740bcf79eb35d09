#!/usr/bin/env python3
"""Expert transplant: take only the routed experts from the second parent.

The extreme configuration lambda = (0, 1) with the experts-only subset
builds a child that inherits every routed-expert tensor from model 2 while
keeping the base model's attention, shared experts, router gates, norms,
and embeddings — checked tensor by tensor below.

Equivalent CLI:  moemerge merge --recipe transplant.json --out child/ --force
"""

import json
from pathlib import Path

import moemerge as mm
from moemerge.cli import main as cli

OUT = Path(__file__).parent / "demo_out" / "04_transplant"


def main():
    spec = mm.FixtureSpec(
        layers=5, dense_layers=2, experts=4, vocab=256, hidden=64,
        intermediate=96, moe_intermediate=32, q_lora_rank=16,
        kv_lora_rank=16, attn_inner=64, seed=9,
    )
    base, manifest = mm.generate_base(spec, OUT / "base")
    variant, _ = mm.generate_variant(
        spec,
        [
            mm.PerturbationSpec("routed_expert_mlp", "gaussian", 0.05),
            mm.PerturbationSpec("attention", "gaussian", 0.05),
        ],
        OUT / "variant",
    )

    recipe = {
        "models": [str(OUT / "base"), str(OUT / "variant")],
        "lambdas": [0.0, 1.0],
        "subset": "experts-only",
        "delta": 0.0,
    }
    (OUT / "recipe.json").write_text(json.dumps(recipe, indent=2))
    # --force: a rerun replaces the previous run's child/ as a whole, and only
    # once the new child is complete
    code = cli([
        "merge", "--recipe", str(OUT / "recipe.json"), "--out", str(OUT / "child"), "--force",
    ])
    assert code == 0

    child = mm.open_checkpoint(OUT / "child")
    from_variant = from_base = 0
    for entry in manifest:
        name = entry["name"]
        got = mm.read_tensor_raw(child, name)
        if entry["group"] == "routed_expert_mlp":
            assert got == mm.read_tensor_raw(variant, name), name
            from_variant += 1
        else:
            assert got == mm.read_tensor_raw(base, name), name
            from_base += 1
    print(f"child inherits {from_variant} routed-expert tensors from model 2")
    print(f"and keeps {from_base} tensors (attention, gates, shared experts, "
          f"norms, embeddings) from the base")

    report = json.loads((OUT / "child" / "merge_report.json").read_text())
    print("report counts:", report["counts"]["merged_by_group"])


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""A 50/50 weighted-average merge, planned first and audited, then executed.

Shows the two-pass workflow: diff -> plan (inspectable JSON) -> execute
(streaming, bounded memory). Checks the arithmetic identities that make
this surgery trustworthy: one-hot weights reproduce the base bit-exactly,
and merging a model with itself is a fixed point.

Equivalent CLI:
  moemerge plan  --recipe recipe.json --out plan.json
  moemerge merge --plan plan.json --out merged/
"""

from pathlib import Path

import moemerge as mm

OUT = Path(__file__).parent / "demo_out" / "03_merge"


def checkpoint_bytes(path):
    index = mm.open_checkpoint(path)
    return {n: mm.read_tensor_raw(index, n) for n in index.tensors}


def main():
    spec = mm.FixtureSpec(
        layers=4, dense_layers=2, experts=4, vocab=256, hidden=64,
        intermediate=96, moe_intermediate=32, q_lora_rank=16,
        kv_lora_rank=16, attn_inner=64, seed=3,
    )
    base, _ = mm.generate_base(spec, OUT / "base")
    variant, _ = mm.generate_variant(
        spec, [mm.PerturbationSpec("routed_expert_mlp", "gaussian", 0.05)], OUT / "variant"
    )

    config = mm.MergeConfig(
        models=(str(OUT / "base"), str(OUT / "variant")),
        lambdas=(0.5, 0.5),
    )
    diffs = mm.compute_diffs([base, variant])
    fingerprints = [base.fingerprint(), variant.fingerprint()]
    plan = mm.plan_merge(config, diffs, fingerprints)
    (OUT / "plan.json").write_text(plan.to_json_text())
    counts = plan.counts()
    print(f"plan: merge {counts['merged']}, copy {counts['copied']} "
          f"of {counts['tensors']} tensors (audit saved to plan.json)")

    merged, report = mm.execute_merge(plan, config, OUT / "merged", workers=4)
    print(f"merged checkpoint: {len(merged.shards)} shards, "
          f"{report.elapsed_seconds:.2f}s, provenance keys: "
          f"{sorted(k for k in merged.metadata if k.startswith('aoe.'))}")

    # identity: lambda = (1, 0) must reproduce the base exactly
    id_config = mm.MergeConfig(models=config.models, lambdas=(1.0, 0.0))
    id_plan = mm.plan_merge(id_config, diffs, fingerprints)
    id_out, _ = mm.execute_merge(id_plan, id_config, OUT / "identity")
    print("one-hot base identity bit-exact:",
          checkpoint_bytes(OUT / "identity") == checkpoint_bytes(OUT / "base"))

    # fixed point: merging the base with itself changes nothing
    self_config = mm.MergeConfig(
        models=(str(OUT / "base"), str(OUT / "base")), lambdas=(0.5, 0.5)
    )
    self_diffs = mm.compute_diffs([base, base])
    self_plan = mm.plan_merge(self_config, self_diffs, [base.fingerprint()] * 2)
    mm.execute_merge(self_plan, self_config, OUT / "selfmerge")
    print("self-merge fixed point bit-exact:",
          checkpoint_bytes(OUT / "selfmerge") == checkpoint_bytes(OUT / "base"))


if __name__ == "__main__":
    main()

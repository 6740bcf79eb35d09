"""Batch command-line interface.

Commands: ``diff``, ``plan``, ``merge``, ``sweep``, ``report``,
``think-freq``, ``validate``, ``fixture``. Every command is deterministic
given identical inputs and flags. Progress and notices go to stderr;
machine-readable output goes to files or, with ``--json``, to stdout.

Exit codes are a stable scripting contract: 0 success, 1 operational
error (I/O, stale plan), 2 validation or compatibility failure (bad
recipe, malformed checkpoint, incompatible parents).

Only the passes that decode tensor values need numpy. ``merge_core`` and
``fixtures`` are imported only inside the code paths that read or write
tensors, and ``merge_core`` loads numpy only when a pass decodes. So
``plan``, ``sweep``, ``report``, the other commands that work from a
diff cache or a plan, and a ``merge --plan`` whose every decision is a
copy start without it.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

from ._version import __version__
from . import analysis, planning
from .errors import (
    CompatibilityError,
    FixtureError,
    FormatError,
    MoemergeError,
    RecipeError,
)
from .safetensors_io import _scan_checkpoint, header_fingerprint, open_checkpoint
from .taxonomy import GROUP_ORDER, TensorGroup, census, resolve_scheme

EXIT_OK = 0
EXIT_OPERATIONAL = 1
EXIT_VALIDATION = 2


def _msg(text: str) -> None:
    print(text, file=sys.stderr)


def _floats_csv(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _worker_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_worker_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=_worker_count, default=1, metavar="N",
                   help="worker threads for per-tensor work, at least 1 (default 1); at most "
                        "2 x N tensors are in flight")


def _progress(verb: str):
    """Progress callback printing every 50 tensors and at the end."""

    def report(done: int, total: int) -> None:
        if done == total or done % 50 == 0:
            _msg(f"{verb} {done}/{total} tensors")

    return report


def _finite_stats(values) -> dict:
    """Minimum, median and maximum over the finite values, and a count of the rest.

    NaN, infinities and nulls (a ``not_in_subset`` decision has no
    ``max_diff``) are only counted, so the statistics do not depend on
    where they sit. With no finite value the statistics are None.
    """
    finite = sorted(v for v in values if v is not None and math.isfinite(v))
    return {
        "min": finite[0] if finite else None,
        "median": statistics.median(finite) if finite else None,
        "max": finite[-1] if finite else None,
        "nonfinite": len(values) - len(finite),
    }


def _fmt(value: float | None, width: int = 0) -> str:
    return f"{'-' if value is None else format(value, '.6g'):>{width}}"


def _summarize_diffs(records) -> list[dict]:
    by_group: dict[str, list[float]] = {}
    for r in records:
        by_group.setdefault(r.category.group.value, []).append(r.max_diff)
    return [
        {"group": group, "tensors": len(by_group[group]), **_finite_stats(by_group[group])}
        for group in sorted(by_group, key=lambda v: GROUP_ORDER[TensorGroup(v)])
    ]


def _diffs(paths, scheme, threads: int, cache: str | None = None):
    """Load ``cache`` (hash-checked) or open the parents and compute the diffs.

    A cache reads no weights and parses no parent header: its fingerprints
    pin the headers whose compatibility ``compute_diffs`` checked, so each
    parent's header bytes are only hashed.
    """
    if cache:
        fingerprints = [header_fingerprint(p) for p in paths]
        records, _ = planning.load_diff_cache(cache, fingerprints)
        return records, fingerprints
    models = [open_checkpoint(p) for p in paths]
    fingerprints = [m.fingerprint() for m in models]
    from . import merge_core

    records = merge_core.compute_diffs(
        models, scheme, workers=threads, progress=_progress("diffed")
    )
    return records, fingerprints


def cmd_diff(args) -> int:
    records, fingerprints = _diffs(args.models, resolve_scheme(args.scheme), args.threads)
    planning.save_diff_cache(records, args.out, fingerprints)
    _msg(f"wrote {len(records)} diff records to {args.out}")
    summary = _summarize_diffs(records)
    if args.json:
        print(json.dumps({"records": len(records), "by_group": summary}, indent=2))
    else:
        print(f"{'group':<22}{'tensors':>8}{'min':>14}{'median':>14}{'max':>14}{'nonfinite':>11}")
        for row in summary:
            print(
                f"{row['group']:<22}{row['tensors']:>8}{_fmt(row['min'], 14)}"
                f"{_fmt(row['median'], 14)}{_fmt(row['max'], 14)}{row['nonfinite']:>11}"
            )
    return EXIT_OK


def _print_plan_table(plan) -> None:
    counts = plan.counts()
    print(
        f"tensors {counts['tensors']}  merged {counts['merged']}  "
        f"copied {counts['copied']} "
        f"(not in subset {counts['copied_by_reason']['not_in_subset']}, "
        f"below threshold {counts['copied_by_reason']['below_threshold']})"
    )
    groups = sorted(
        set(counts["merged_by_group"]) | set(counts["copied_by_group"]),
        key=lambda v: GROUP_ORDER[TensorGroup(v)],
    )
    print(f"{'group':<22}{'merged':>8}{'copied':>8}")
    for g in groups:
        print(
            f"{g:<22}{counts['merged_by_group'].get(g, 0):>8}"
            f"{counts['copied_by_group'].get(g, 0):>8}"
        )
    if plan.decisions:
        stats = _finite_stats([d.max_diff for d in plan.decisions])
        print(
            f"max_diff over tensors: min {_fmt(stats['min'])}  "
            f"median {_fmt(stats['median'])}  max {_fmt(stats['max'])}  "
            f"(null or non-finite {stats['nonfinite']})"
        )


def cmd_plan(args) -> int:
    config = planning.load_recipe(args.recipe)
    records, fingerprints = _diffs(config.models, config.scheme, args.threads, args.diffs)
    plan = planning.plan_merge(config, records, fingerprints)
    Path(args.out).write_text(plan.to_json_text(), "utf-8")
    _msg(f"wrote plan to {args.out}")
    _print_plan_table(plan)
    return EXIT_OK


def cmd_merge(args) -> int:
    if bool(args.recipe) == bool(args.plan):
        raise RecipeError("give exactly one of --recipe or --plan")
    if args.plan:
        if args.diffs:
            raise RecipeError("--diffs requires --recipe, not --plan")
        plan = planning.load_plan(args.plan)
        config = plan.config
    else:
        config = planning.load_recipe(args.recipe)
        plan = None
        if args.diffs:
            # Plan with the cache's own fingerprints: execute_merge opens the
            # parents once and refuses them if they no longer match.
            records, fingerprints = planning.load_diff_cache(args.diffs)
            plan = planning.plan_merge(config, records, fingerprints)

    out = Path(args.out)
    if out.exists() and not args.force and (out.is_file() or any(out.iterdir())):
        raise MoemergeError(f"output {out} exists and is not empty (use --force)")

    from . import merge_core

    # execute_merge opens and compat-checks the parents; without a plan it
    # also gates inside its single pass.
    index, _ = merge_core.execute_merge(
        plan,
        config,
        out,
        workers=args.threads,
        progress=_progress("merged"),
    )
    _msg(
        f"wrote merged checkpoint to {out} "
        f"({len(index.shards)} shard(s), report in merge_report.json)"
    )
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = planning.load_recipe(args.recipe)
    planning.check_deltas(args.deltas)  # before any weights are read
    records, _ = _diffs(config.models, config.scheme, args.threads, args.diffs)
    rows = planning.threshold_sweep(records, config, args.deltas)
    groups = [g.value for g in TensorGroup]
    lines = ["delta," + ",".join(groups) + ",total"]
    for row in rows:
        lines.append(
            f"{row.delta!r},"
            + ",".join(str(row.by_group[g]) for g in groups)
            + f",{row.total}"
        )
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, "utf-8")
        _msg(f"wrote sweep to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_report(args) -> int:
    records, _ = planning.load_diff_cache(args.diffs)
    if args.kind == "heatmap":
        table = analysis.emit_heatmap(records, aggregate=args.aggregate)
        text = table.to_csv()
    else:
        spec = analysis.HistogramSpec(edges=tuple(args.edges), cutoff=args.cutoff)
        result = analysis.emit_histogram(records, spec)
        text = result.to_csv()
        _msg(
            f"excluded {result.excluded} records "
            f"({result.excluded_below_cutoff} below cutoff, "
            f"{result.excluded_out_of_range} outside bin range)"
        )
    if args.out:
        Path(args.out).write_text(text, "utf-8")
        _msg(f"wrote {args.kind} CSV to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_think_freq(args) -> int:
    with open(args.transcripts, "r", encoding="utf-8") as f:
        stats = analysis.reasoning_frequency(
            f, open_tag=args.open_tag, close_tag=args.close_tag
        )
    text = json.dumps(stats.to_json_obj(), indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text, "utf-8")
        _msg(f"wrote stats to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_validate(args) -> int:
    index, issues = _scan_checkpoint(Path(args.path))  # one scan of each shard header
    if issues:
        for issue in issues:
            print(str(issue))
        return EXIT_VALIDATION
    _msg(f"{args.path}: OK")
    for row in census(index):
        layer = "-" if row.layer is None else row.layer
        print(f"layer {layer:>4}  {row.group.value:<22} {row.tensors:>6} tensors")
    return EXIT_OK


def cmd_fixture(args) -> int:
    from . import fixtures

    spec_obj = json.loads(Path(args.spec).read_text("utf-8"))
    spec = fixtures.FixtureSpec.from_json_obj(spec_obj)
    if args.variant:
        if not spec.perturbations:
            raise FixtureError("--variant requires 'perturbations' in the spec file")
        index, expected = fixtures.generate_variant(spec, spec.perturbations, args.out)
        _msg(
            f"wrote variant fixture ({len(index.tensors)} tensors, "
            f"{len(index.shards)} shards) with expected-diff table to {args.out}"
        )
    else:
        index, manifest = fixtures.generate_base(spec, args.out)
        _msg(
            f"wrote base fixture ({len(manifest)} tensors, "
            f"{len(index.shards)} shards) with manifest to {args.out}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moemerge",
        description="Checkpoint surgery: diff, plan, and merge safetensors MoE parents.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diff", help="compute per-tensor diffs between checkpoints")
    p.add_argument("models", nargs="+", help="checkpoint paths, first is the base")
    p.add_argument("--out", required=True, help="diff cache JSON to write")
    p.add_argument("--scheme", default=None, help="naming-scheme rule file")
    p.add_argument("--json", action="store_true", help="print summary as JSON")
    _add_worker_flags(p)
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser("plan", help="resolve a recipe into an auditable merge plan")
    p.add_argument("--recipe", required=True)
    p.add_argument("--diffs", default=None, help="reuse a diff cache (hash-checked)")
    p.add_argument("--out", required=True, help="plan JSON to write")
    _add_worker_flags(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("merge", help="execute a merge from a recipe or plan")
    p.add_argument("--recipe", default=None)
    p.add_argument("--plan", default=None, help="pre-computed plan JSON")
    p.add_argument("--out", required=True, help="output checkpoint directory")
    p.add_argument("--diffs", default=None, help="reuse a diff cache (hash-checked)")
    p.add_argument("--force", action="store_true",
                   help="replace an earlier output in a non-empty --out as a whole; "
                        "other files or subdirectories there are refused")
    _add_worker_flags(p)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("sweep", help="would-merge tensor counts over a threshold grid")
    p.add_argument("--recipe", required=True)
    p.add_argument("--deltas", type=_floats_csv, required=True, metavar="D1,D2,...")
    p.add_argument("--diffs", default=None, help="reuse a diff cache (hash-checked)")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    _add_worker_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="emit heatmap/histogram CSV from a diff cache")
    p.add_argument("--diffs", required=True, help="diff cache JSON")
    p.add_argument("--kind", choices=("heatmap", "histogram"), required=True)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.add_argument("--aggregate", choices=("mean", "max"), default="mean",
                   help="expert aggregation for heatmaps")
    p.add_argument("--edges", type=_floats_csv,
                   default=[0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1],
                   metavar="E1,E2,...", help="histogram bin edges")
    p.add_argument("--cutoff", type=float, default=1e-3,
                   help="minimum diff included in histograms")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("think-freq", help="closing-think-tag frequency of a transcript")
    p.add_argument("transcripts", help="newline-delimited JSON transcript file")
    p.add_argument("--open-tag", default=analysis.DEFAULT_OPEN_TAG)
    p.add_argument("--close-tag", default=analysis.DEFAULT_CLOSE_TAG)
    p.add_argument("--out", default=None, help="stats JSON path (default: stdout)")
    p.set_defaults(func=cmd_think_freq)

    p = sub.add_parser("validate", help="scan a checkpoint for format violations")
    p.add_argument("path", help="checkpoint file or directory")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("fixture", help="generate a deterministic test checkpoint")
    p.add_argument("--spec", required=True, help="fixture spec JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--variant", action="store_true",
                   help="apply the spec's perturbations (write the variant sibling)")
    p.set_defaults(func=cmd_fixture)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RecipeError, CompatibilityError, FormatError, FixtureError, ValueError) as exc:
        _msg(f"error: {exc}")
        return EXIT_VALIDATION
    except (MoemergeError, OSError, KeyError) as exc:
        _msg(f"error: {exc}")
        return EXIT_OPERATIONAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()

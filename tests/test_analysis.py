import json

import pytest

import moemerge as mm
from moemerge.analysis import HistogramSpec, emit_heatmap, emit_histogram, reasoning_frequency
from moemerge.planning import DiffRecord
from moemerge.taxonomy import TensorCategory, TensorGroup


def rec(name, group, layer, diff, expert=None, proj=None):
    return DiffRecord(
        name=name,
        category=TensorCategory(group, layer=layer, expert=expert, projection=proj),
        per_model_diff=(diff,),
        max_diff=diff,
    )


# --- heatmap -------------------------------------------------------------------


def planted_diffs():
    records = []
    for layer in range(3):
        for expert in range(4):
            for proj in ("gate", "up", "down"):
                records.append(
                    rec(
                        f"model.layers.{layer}.mlp.experts.{expert}.{proj}_proj.weight",
                        TensorGroup.ROUTED_EXPERT_MLP, layer, 0.002, expert, proj,
                    )
                )
        records.append(
            rec(f"model.layers.{layer}.self_attn.o_proj.weight",
                TensorGroup.ATTENTION, layer, 0.0, proj="o")
        )
    records.append(
        rec("model.embed_tokens.weight", TensorGroup.EMBEDDING_NORM_HEAD, None, 0.5)
    )
    return records


def test_heatmap_planted_uniform_expert_diff():
    table = emit_heatmap(planted_diffs(), aggregate="mean")
    for layer in range(3):
        for proj in ("gate", "up", "down"):
            assert table.cells[(layer, f"routed_expert_mlp.{proj}")] == 0.002
        assert table.cells[(layer, "attention.o")] == 0.0
    assert table.layers == [0, 1, 2]


def test_heatmap_single_layer_single_row():
    records = [rec("model.layers.0.self_attn.o_proj.weight", TensorGroup.ATTENTION, 0, 0.1, proj="o")]
    table = emit_heatmap(records)
    csv = table.to_csv()
    assert csv.splitlines()[0] == "layer,attention.o"
    assert len(csv.splitlines()) == 2


def test_heatmap_max_at_least_mean_with_outlier():
    records = []
    for expert in range(4):
        diff = 0.01 if expert == 3 else 0.001
        records.append(
            rec(f"model.layers.0.mlp.experts.{expert}.up_proj.weight",
                TensorGroup.ROUTED_EXPERT_MLP, 0, diff, expert, "up")
        )
    mean_t = emit_heatmap(records, aggregate="mean")
    max_t = emit_heatmap(records, aggregate="max")
    key = (0, "routed_expert_mlp.up")
    assert max_t.cells[key] >= mean_t.cells[key]
    assert max_t.cells[key] == 0.01


def test_heatmap_absent_cells_are_empty_not_zero():
    records = [
        rec("model.layers.0.self_attn.o_proj.weight", TensorGroup.ATTENTION, 0, 0.1, proj="o"),
        rec("model.layers.1.mlp.up_proj.weight", TensorGroup.DENSE_MLP, 1, 0.2, proj="up"),
    ]
    csv = emit_heatmap(records).to_csv()
    lines = csv.splitlines()
    assert lines[0] == "layer,attention.o,dense_mlp.up"
    assert lines[1] == "0,0.1,"
    assert lines[2] == "1,,0.2"


def test_heatmap_regeneration_is_byte_identical():
    records = planted_diffs()
    assert emit_heatmap(records).to_csv() == emit_heatmap(records).to_csv()


def test_heatmap_fixture_pair_matches_planted(tiny_pair):
    diffs = mm.compute_diffs([tiny_pair["base"], tiny_pair["variant"]])
    table = emit_heatmap(diffs, aggregate="mean")
    spec = tiny_pair["spec"]
    for layer in range(spec.dense_layers, spec.layers):
        for proj in ("gate", "up", "down"):
            got = table.cells[(layer, f"routed_expert_mlp.{proj}")]
            assert got == pytest.approx(0.01, rel=1e-4)


# --- histogram ------------------------------------------------------------------


def test_histogram_all_below_cutoff():
    records = [rec(f"t{i}", TensorGroup.ATTENTION, 0, 1e-5) for i in range(7)]
    result = emit_histogram(records, HistogramSpec(edges=(0.001, 0.01)))
    assert all(count == 0 for _, _, _, count in result.rows)
    assert result.excluded == 7


def test_histogram_one_record_per_bin():
    spec = HistogramSpec(edges=(0.001, 0.003, 0.005), cutoff=1e-3)
    records = [
        rec("a", TensorGroup.ATTENTION, 0, 0.002),
        rec("b", TensorGroup.ATTENTION, 0, 0.004),
    ]
    result = emit_histogram(records, spec)
    assert [(lo, hi, c) for _, lo, hi, c in result.rows] == [
        (0.001, 0.003, 1),
        (0.003, 0.005, 1),
    ]


def test_histogram_planted_mixture():
    spec = HistogramSpec(edges=(0.001, 0.003, 0.005))
    records = [
        rec(f"r{i}", TensorGroup.ROUTED_EXPERT_MLP, 0, 0.002, expert=i) for i in range(100)
    ] + [rec(f"a{i}", TensorGroup.ATTENTION, 0, 0.004) for i in range(50)]
    result = emit_histogram(records, spec)
    table = {(cat, lo): count for cat, lo, hi, count in result.rows}
    assert table[("routed_expert_mlp", 0.001)] == 100
    assert table[("routed_expert_mlp", 0.003)] == 0
    assert table[("attention", 0.003)] == 50
    assert table[("attention", 0.001)] == 0
    assert result.excluded == 0


def test_histogram_counts_plus_excluded_equals_total():
    spec = HistogramSpec(edges=(0.001, 0.01), cutoff=1e-3)
    records = (
        [rec(f"x{i}", TensorGroup.ATTENTION, 0, 1e-5) for i in range(3)]  # below cutoff
        + [rec(f"y{i}", TensorGroup.ATTENTION, 0, 5.0) for i in range(2)]  # above range
        + [rec(f"z{i}", TensorGroup.ATTENTION, 0, 0.005) for i in range(4)]
    )
    result = emit_histogram(records, spec)
    binned = sum(count for _, _, _, count in result.rows)
    assert binned + result.excluded == len(records)
    assert result.excluded_below_cutoff == 3
    assert result.excluded_out_of_range == 2


def test_histogram_excludes_nan_and_inf_as_out_of_range():
    spec = HistogramSpec(edges=(0.001, 0.01), cutoff=1e-3)
    records = [
        rec("nan", TensorGroup.ATTENTION, 0, float("nan")),
        rec("inf", TensorGroup.ATTENTION, 0, float("inf")),
        rec("in", TensorGroup.ATTENTION, 0, 0.005),
    ]
    result = emit_histogram(records, spec)
    assert [c for _, _, _, c in result.rows] == [1]
    assert result.excluded_out_of_range == 2
    assert result.excluded_below_cutoff == 0
    binned = sum(count for _, _, _, count in result.rows)
    assert binned + result.excluded == len(records)


def test_histogram_last_bin_inclusive():
    spec = HistogramSpec(edges=(0.001, 0.01))
    records = [rec("edge", TensorGroup.ATTENTION, 0, 0.01)]
    result = emit_histogram(records, spec)
    assert result.rows[0][3] == 1


def test_histogram_rejects_bad_edges():
    with pytest.raises(ValueError, match="strictly increasing"):
        HistogramSpec(edges=(0.01, 0.01))
    with pytest.raises(ValueError, match="two bin edges"):
        HistogramSpec(edges=(0.01,))


# --- reasoning frequency -----------------------------------------------------------


def lines(responses):
    return [json.dumps({"id": f"r{i}", "response": r}) for i, r in enumerate(responses)]


def test_frequency_all_tagged_is_one():
    stats = reasoning_frequency(lines(["<think>x</think> answer"] * 6))
    assert stats.frequency == 1.0


def test_frequency_none_tagged_is_zero():
    stats = reasoning_frequency(lines(["plain answer"] * 4))
    assert stats.frequency == 0.0


def test_frequency_five_of_eight():
    responses = ["<think>a</think>done"] * 5 + ["still thinking..."] * 3
    stats = reasoning_frequency(lines(responses))
    assert stats.total == 8
    assert stats.with_closing_tag == 5
    assert stats.frequency == 0.625


def test_frequency_order_invariant():
    responses = ["<think>a</think>x", "nope", "<think>b</think>y"]
    fwd = reasoning_frequency(lines(responses))
    rev = reasoning_frequency(lines(responses[::-1]))
    assert fwd.frequency == rev.frequency


def test_frequency_reports_first_close_position():
    stats = reasoning_frequency(lines(["ab</think>cd</think>"]))
    assert stats.close_positions == [("r0", 2)]


def test_frequency_malformed_records_skipped_and_counted():
    good = json.dumps({"id": "a", "response": "<think>x</think>"})
    bad = ["{not json", json.dumps({"id": "b"}), json.dumps({"id": "c", "response": 7}), ""]
    stats = reasoning_frequency([good] + bad)
    assert stats.total == 1
    assert stats.malformed == 3  # blank line is skipped silently, not malformed
    assert stats.frequency == 1.0


def test_frequency_custom_tags():
    stats = reasoning_frequency(
        lines(["<scratch>x</scratch>done"]), open_tag="<scratch>", close_tag="</scratch>"
    )
    assert stats.frequency == 1.0


def test_frequency_empty_is_undefined():
    with pytest.raises(ValueError, match="undefined"):
        reasoning_frequency([])

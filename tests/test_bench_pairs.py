"""The summary of tools/bench_pairs.py on synthetic pair records."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "op_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]


def _record(ops, p90, rss=50.0, first=None):
    rec = {"correct": True, "attempted": 10, "failed": 0,
           "metrics": {"ops_per_s": ops, "op_p90_ms": p90, "op_p50_ms": 1.0,
                       "peak_rss_mb": rss, "setup_s": 0.1}}
    if first is not None:
        rec["first_pass_s"] = first
    return rec


def _pairs(parent_ops, change_ops, parent_p90, change_p90):
    return [
        {"seed": 100 + i, "first": "change" if i % 2 else "parent",
         "parent": _record(po, pp, first=3.0),
         "change": _record(co, cp, rss=49.0, first=2.5)}
        for i, (po, co, pp, cp) in enumerate(
            zip(parent_ops, change_ops, parent_p90, change_p90))
    ]


def test_worse_by_is_positive_when_the_change_is_worse():
    # ops_per_s falls (higher is better) and op_p90_ms rises (lower is
    # better): both are worse, so both read positive.
    block = bench_pairs.summarise(
        _pairs([10, 10, 10, 10], [8, 8, 8, 8], [100] * 4, [120] * 4),
        END_TO_END)
    m = block["metrics"]
    assert m["ops_per_s"]["change_worse_by"] == pytest.approx(0.2)
    assert m["op_p90_ms"]["change_worse_by"] == pytest.approx(0.2)
    assert m["ops_per_s"]["change_wins"] == "0 of 4"
    assert m["op_p90_ms"]["change_wins"] == "0 of 4"


def test_worse_by_is_negative_when_the_change_is_better():
    block = bench_pairs.summarise(
        _pairs([10, 10, 10, 10], [12, 9, 13, 14], [100] * 4, [80] * 4),
        END_TO_END)
    m = block["metrics"]
    assert m["ops_per_s"]["change_wins"] == "3 of 4"
    assert m["ops_per_s"]["change_worse_by"] == pytest.approx(-0.25)
    assert m["op_p90_ms"]["change_worse_by"] == pytest.approx(-0.2)
    assert m["peak_rss_mb"]["change_worse_by"] == pytest.approx(-0.02)
    assert m["setup_s"]["change_wins"] == "0 of 4"  # ties are no win
    assert m["setup_s"]["change_worse_by"] == 0


def test_summary_quartiles_totals_and_per_pair():
    block = bench_pairs.summarise(
        _pairs([1, 2, 3, 4, 5], [2, 3, 4, 5, 6], [9] * 5, [9] * 5),
        END_TO_END)
    stats = block["metrics"]["ops_per_s"]["parent"]
    assert stats == {"median": 3, "q1": 1.5, "q3": 4.5}
    assert block["seeds"] == "100-104" and block["pairs"] == 5
    assert block["parent_attempted"] == 50 and block["change_failed"] == 0
    assert block["parent_correct"] and block["change_correct"]
    pair = block["per_pair"]["101"]
    assert pair["first"] == "change"
    assert pair["parent"]["ops_per_s"] == 2
    assert pair["change"]["first_pass_s"] == 2.5
    assert set(pair["change"]) == set(bench_pairs.PAIR_FIGURES) | {
        "first_pass_s"}


def test_claim_needs_nine_in_ten_and_a_gain_beyond_the_parent_iqr():
    parent = [10.0, 10.5, 11.0, 9.5, 10.2, 9.8, 10.1, 10.4, 9.9, 10.3]
    better = [p * 1.3 for p in parent]
    block = bench_pairs.summarise(
        _pairs(parent, better, [1] * 10, [1] * 10), END_TO_END)
    assert bench_pairs.claim(block, "w", "ops_per_s")["met"]
    # Eight of ten pairs is too few, however large the gain.
    mixed = better[:8] + [p * 0.9 for p in parent[8:]]
    block = bench_pairs.summarise(
        _pairs(parent, mixed, [1] * 10, [1] * 10), END_TO_END)
    assert not bench_pairs.claim(block, "w", "ops_per_s")["met"]
    # Ten of ten, but by less than the parent's quartile spread.
    slight = [p + 0.01 for p in parent]
    block = bench_pairs.summarise(
        _pairs(parent, slight, [1] * 10, [1] * 10), END_TO_END)
    assert not bench_pairs.claim(block, "w", "ops_per_s")["met"]


def test_first_pass_sums_the_first_round_of_criteria():
    stderr = "\n".join([
        "criterion_01: 1.000 s of 120 s budget, PASS",
        "criterion_02: 0.250 s of 20 s budget, PASS",
        "some other line",
        "criterion_01: 0.900 s of 120 s budget, PASS",
    ])
    assert bench_pairs.first_pass_s(stderr) == 1.25
    assert bench_pairs.first_pass_criteria(stderr) == {"01": 1.0, "02": 0.25}
    assert bench_pairs.first_pass_s("no criteria here") is None


def test_summary_keeps_each_criterion_of_the_first_pass():
    pairs = _pairs([1, 2, 3], [2, 3, 4], [9] * 3, [9] * 3)
    for i, p in enumerate(pairs):
        p["parent"]["first_pass_criteria_s"] = {"01": 1.0 + i, "02": 0.5}
        p["change"]["first_pass_criteria_s"] = {"01": 0.5 + i, "02": 0.1}
    block = bench_pairs.summarise(pairs, END_TO_END)
    assert block["per_pair"]["102"]["change"]["first_pass_criteria_s"] == {
        "01": 2.5, "02": 0.1}
    assert block["first_pass_criteria_s_median"] == {
        "parent": {"01": 2.0, "02": 0.5}, "change": {"01": 1.5, "02": 0.1}}

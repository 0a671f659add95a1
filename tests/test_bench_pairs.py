"""The pair summary of tools/bench_pairs.py, on synthetic run entries and
on the runs of a recorded BENCH file; no benchmark is started."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "pass_s", "better": "lower", "bound": 0.25},
    {"name": "success_ratio", "better": "higher", "bound": 0.01},
]


def _entry(workload, seed, side, pass_s, success=1.0, digest="d", digests=None):
    return {
        "workload": workload,
        "seed": seed,
        "side": side,
        "record": {"digests": digests or {"q": digest}},
        "result": {"metrics": {"pass_s": {"value": pass_s}, "success_ratio": {"value": success}}},
    }


def test_quartiles_wins_and_losses():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 3.0, 1.0, 0.0]
    runs = [_entry("w", 100 + k, "parent", v) for k, v in enumerate(parent)]
    runs += [_entry("w", 100 + k, "change", v, success=0.5 if k == 4 else 1.0) for k, v in enumerate(change)]
    s = bench_pairs.summarize(runs, END_TO_END)["w"]
    assert s["pairs"] == 5 and s["digests_identical_in_every_pair"]
    assert s["pass_s"]["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert s["pass_s"]["change"] == {"median": 1.0, "q1": 0.5, "q3": 2.5}
    # lower is better: pairs 0, 3, 4 win, pair 1 loses, pair 2 ties
    assert s["pass_s"]["change_wins_losses"] == [3, 1]
    # higher is better: the one lower success_ratio is a loss
    assert s["success_ratio"]["change_wins_losses"] == [0, 1]
    # medians 3.0 -> 1.0 differ by the parent's IQR of 2.0, not more;
    # the success_ratio medians agree
    assert s["pass_s"]["beyond_parent_iqr"] is False
    assert s["success_ratio"]["beyond_parent_iqr"] is False


def test_beyond_parent_iqr():
    def summary(parent, change):
        runs = [_entry("w", k, "parent", v) for k, v in enumerate(parent)]
        runs += [_entry("w", k, "change", v) for k, v in enumerate(change)]
        return bench_pairs.summarize(runs, END_TO_END)["w"]["pass_s"]

    parent = [1.0, 1.25, 1.5, 1.75, 2.0]  # median 1.5, IQR 0.5
    assert summary(parent, [0.5, 0.75, 0.875, 1.0, 1.0])["beyond_parent_iqr"] is True
    assert summary(parent, [2.5, 2.0, 2.25, 1.5, 2.5])["beyond_parent_iqr"] is True
    # a gap equal to the IQR is not beyond it
    assert summary(parent, [1.0, 1.0, 1.0, 1.0, 1.0])["beyond_parent_iqr"] is False
    # ten pairs that all win by less than the IQR: wins alone, not a claim
    step = summary([1.0 + k / 8 for k in range(10)], [0.9375 + k / 8 for k in range(10)])
    assert step["change_wins_losses"] == [10, 0] and step["beyond_parent_iqr"] is False


def test_no_regression_half():
    def summary(parent, change, better="lower"):
        runs = [_entry("w", k, "parent", v) for k, v in enumerate(parent)]
        runs += [_entry("w", k, "change", v) for k, v in enumerate(change)]
        metric = {"name": "pass_s", "better": better, "bound": 0.25}
        return bench_pairs.summarize(runs, [metric])["w"]["pass_s"]

    narrow = [1.9, 1.95, 2.0, 2.05, 2.1]  # median 2.0, IQR 0.1; the bound's share is 0.5
    # worse by exactly the share is within the bound
    assert summary(narrow, [2.5] * 5)["worse_beyond_bound"] is False
    assert summary(narrow, [2.6] * 5)["worse_beyond_bound"] is True
    assert summary(narrow, [1.0] * 5)["worse_beyond_bound"] is False
    # higher is better: the same drop is a regression
    assert summary(narrow, [1.4] * 5, better="higher")["worse_beyond_bound"] is True
    assert summary(narrow, [2.6] * 5, better="higher")["worse_beyond_bound"] is False
    assert summary(narrow, [2.0] * 5)["unresolved"] is False
    wide = [1.0, 1.5, 2.0, 2.5, 3.0]  # median 2.0, IQR 1.0, wider than the share
    assert summary(wide, [2.0] * 5)["unresolved"] is True
    # unless every change run beats every parent run
    assert summary(wide, [0.9] * 5)["unresolved"] is False
    assert summary(wide, [0.9, 0.9, 0.9, 0.9, 1.0])["unresolved"] is True
    assert summary(wide, [3.1] * 5, better="higher")["unresolved"] is False


def test_digests_and_incomplete_pairs():
    runs = [
        _entry("a", 1, "parent", 1.0),
        _entry("a", 1, "change", 1.0, digest="other"),
        _entry("b", 7, "parent", 2.0),
        _entry("b", 7, "change", 1.0),
        _entry("b", 8, "change", 1.0),  # its parent run is missing
    ]
    runs += [
        _entry("c", 1, "parent", 1.0, digests={"z": "1", "m": "1", "k": "1"}),
        _entry("c", 1, "change", 1.0, digests={"z": "2", "m": "1", "k": "2"}),
        _entry("c", 2, "parent", 1.0, digests={"z": "1", "m": "1", "k": "1"}),
        _entry("c", 2, "change", 1.0, digests={"z": "1", "m": "2", "k": "1"}),
    ]
    s = bench_pairs.summarize(runs, END_TO_END)
    assert s["a"]["digests_identical_in_every_pair"] is False
    assert s["a"]["digest_mismatches"] == ["q"]
    # every label that differs in some pair, sorted
    assert s["c"]["digest_mismatches"] == ["k", "m", "z"]
    assert s["b"]["pairs"] == 1 and s["b"]["digests_identical_in_every_pair"]
    assert "digest_mismatches" not in s["b"]
    assert s["b"]["pass_s"]["change"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert s["b"]["pass_s"]["change_wins_losses"] == [1, 0]


def test_per_query_medians_and_ratios():
    def run(seed, side, latency, factors=(1.0,)):
        record = {"latency_ms": latency, "speed_factor_each": list(factors)}
        return {"workload": "w", "seed": seed, "side": side, "record": record}

    runs = [
        # the outlier factor 9.0 moves the mean, not the median 0.5
        run(1, "parent", {"a": 10.0, "b": 0.0}, [0.5, 0.4, 9.0]),
        run(1, "change", {"a": 8.0, "b": 1.0}),
        run(2, "change", {"a": 4.0, "b": 1.0, "c": 2.0}, [0.5, 0.5]),
        run(2, "parent", {"a": 20.0, "b": 0.0}, [2.0, 2.0, 0.1]),
        run(3, "parent", {"a": 30.0, "b": 0.0}, [2.0]),
        run(3, "change", {"a": 12.0, "b": 1.0}, [0.9, 1.1]),
        run(4, "parent", {"a": 1.0}),  # its change run is missing
    ]
    rows = bench_pairs.per_query(runs)["w"]
    assert list(rows) == ["a", "b", "c"]
    # scaled: parent [5, 40, 60], change [8, 2, 12]
    assert rows["a"] == {
        "parent": 20.0, "change": 8.0, "change_over_parent": 0.4,
        "parent_scaled": 40.0, "change_scaled": 8.0, "scaled_change_over_parent": 0.2,
    }
    # a parent median of 0 gives no ratio
    assert rows["b"] == {
        "parent": 0.0, "change": 1.0, "change_over_parent": None,
        "parent_scaled": 0.0, "change_scaled": 1.0, "scaled_change_over_parent": None,
    }
    # a label one side never ran has no median there
    assert rows["c"] == {
        "parent": None, "change": 2.0, "change_over_parent": None,
        "parent_scaled": None, "change_scaled": 1.0, "scaled_change_over_parent": None,
    }


def test_setup_wall_quartiles_and_run_factor():
    def run(seed, side, wall, scaled, workload="w"):
        record = {"wall": {"setup_s": wall}}
        return {"workload": workload, "seed": seed, "side": side, "record": record,
                "result": {"metrics": {"setup_s": {"value": scaled}}}}

    runs = [
        run(1, "parent", 0.020, 0.024), run(1, "change", 0.020, 0.030),
        run(2, "change", 0.010, 0.015), run(2, "parent", 0.040, 0.040),
        run(3, "parent", 0.030, 0.033), run(3, "change", 0.030, 0.036),
        run(4, "parent", 0.050, 0.050),  # its change run is missing
        run(1, "parent", 0.020, 0.020, workload="v"),  # a workload with no complete pair
    ]
    rows = bench_pairs.setup_wall(runs)
    assert list(rows) == ["w"]
    assert rows["w"]["parent"]["wall_setup_s"] == {"q1": 0.025, "median": 0.030, "q3": 0.035}
    assert rows["w"]["change"]["wall_setup_s"] == {"q1": 0.015, "median": 0.020, "q3": 0.025}
    # run factors: parent 1.2, 1.0, 1.1; change 1.5, 1.5, 1.2
    assert rows["w"]["parent"]["run_factor"] == pytest.approx({"q1": 1.05, "median": 1.1, "q3": 1.15})
    assert rows["w"]["change"]["run_factor"] == pytest.approx({"q1": 1.35, "median": 1.5, "q3": 1.5})


def test_src_lines_per_side():
    def run(side, lines):
        return {"side": side, "record": {"provenance": {"src_lines": lines}}}

    runs = [run("parent", 3850), run("change", 3820), run("parent", 3850), run("change", 3820)]
    assert bench_pairs.src_lines(runs) == {"parent": 3850, "change": 3820}
    assert bench_pairs.src_lines(runs[:1]) == {"parent": 3850}
    # a tree edited between its runs reports two counts
    with pytest.raises(ValueError, match=r"change runs report src_lines \[3820, 3821\]"):
        bench_pairs.src_lines(runs + [run("change", 3821)])
    recorded = json.loads((ROOT / "BENCH_19.json").read_text())
    assert bench_pairs.src_lines(recorded["runs"] + recorded["traced"]) == {"parent": 3871, "change": 3850}


def test_reproduces_a_recorded_summary():
    """BENCH_12.json predates beyond_parent_iqr, worse_beyond_bound and
    unresolved: every other field is reproduced, and the new ones are
    computed from the recorded quartiles and runs."""
    recorded = json.loads((ROOT / "BENCH_12.json").read_text())
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    summary = bench_pairs.summarize(recorded["runs"], end_to_end)
    for workload, rows in summary.items():
        for metric in end_to_end:
            row = rows[metric["name"]]
            old = recorded["summary"][workload][metric["name"]]
            spread = old["parent"]["q3"] - old["parent"]["q1"]
            gap = old["change"]["median"] - old["parent"]["median"]
            assert row.pop("beyond_parent_iqr") is (abs(gap) > spread)
            sign = 1 if metric["better"] == "higher" else -1
            share = metric["bound"] * abs(old["parent"]["median"])
            assert row.pop("worse_beyond_bound") is (sign * gap < -share)
            signed = {
                side: [sign * r["result"]["metrics"][metric["name"]]["value"] for r in recorded["runs"]
                       if r["workload"] == workload and r["side"] == side]
                for side in ("parent", "change")
            }
            beats_all = min(signed["change"]) > max(signed["parent"])
            assert row.pop("unresolved") is (spread > share and not beats_all)
    assert summary == recorded["summary"]

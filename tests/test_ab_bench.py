"""tools/ab_bench.py: summaries of alternating parent/change runs."""

import importlib.util
import json
import os
import statistics
import textwrap

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "tools", "ab_bench.py")
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)

PARENT = [0.70, 0.72, 0.69, 0.75, 0.71, 0.73, 0.70, 0.74, 0.72, 0.71]


def test_clear_gain_is_shown():
    """Every pair 15% faster, far beyond the parent's 3% spread."""
    out = ab_bench.summarize(PARENT, [0.85 * v for v in PARENT], "lower", 0.25)
    q1, _, q3 = statistics.quantiles(PARENT, n=4)
    assert out["parent"]["median"] == statistics.median(PARENT)
    assert (out["parent"]["q1"], out["parent"]["q3"]) == (q1, q3)
    assert out["parent_iqr"] == q3 - q1
    assert out["parent_iqr_over_median"] == (q3 - q1) / statistics.median(PARENT)
    assert out["change_wins"] == 10 and out["ties"] == 0
    assert out["change_over_parent"] == pytest.approx(0.85)
    assert out["verdict"] == "within bound" and out["gain_shown"]
    assert out["parent"]["runs"] == PARENT


def test_eight_wins_show_no_gain():
    """Nine wins in ten are needed, however large the median gain."""
    change = [0.5 * v for v in PARENT]
    change[0] = change[1] = 1.0
    out = ab_bench.summarize(PARENT, change, "lower", 0.25)
    assert out["change_wins"] == 8 and not out["gain_shown"]


def test_gain_within_parent_spread_is_not_shown():
    """Ten wins, but a median gain below the parent's IQR shows nothing."""
    change = [v - 0.001 for v in PARENT]
    out = ab_bench.summarize(PARENT, change, "lower", 0.25)
    assert out["change_wins"] == 10 and not out["gain_shown"]
    assert out["verdict"] == "within bound"


def test_regression_past_the_bound():
    out = ab_bench.summarize(PARENT, [1.3 * v for v in PARENT], "lower", 0.25)
    assert out["verdict"] == "regressed" and out["change_wins"] == 0
    out = ab_bench.summarize(PARENT, [1.2 * v for v in PARENT], "lower", 0.25)
    assert out["verdict"] == "within bound"


def test_parent_spread_over_the_bound_is_unresolved():
    """A 5% bound cannot be judged when the parent's runs spread 8%."""
    parent = [76.3, 82.5, 76.3, 82.5, 76.2, 82.6, 76.4, 82.4, 76.3, 82.5]
    out = ab_bench.summarize(parent, parent[::-1], "lower", 0.05)
    assert out["verdict"].startswith("unresolved")
    assert out["parent_iqr_over_median"] > 0.05


def test_every_run_better_resolves_a_wide_spread():
    """A parent spread over the bound does not leave the metric unresolved
    when every run of the change beats every run of the parent."""
    parent = [76.3, 82.5, 76.3, 82.5, 76.2, 82.6, 76.4, 82.4, 76.3, 82.5]
    out = ab_bench.summarize(parent, [v - 7.0 for v in parent], "lower", 0.05)
    assert out["parent_iqr_over_median"] > 0.05
    assert out["verdict"] == "within bound"
    change = [70.0] * 9 + [76.2]
    out = ab_bench.summarize(parent, change, "lower", 0.05)
    assert out["verdict"].startswith("unresolved")


def test_higher_is_better():
    """ok_frac: equal runs tie; a lower share of passing runs regresses."""
    ones = [1.0] * 10
    out = ab_bench.summarize(ones, ones, "higher", 0.01)
    assert out["ties"] == 10 and out["change_wins"] == 0
    assert out["verdict"] == "within bound" and not out["gain_shown"]
    assert out["parent_iqr_over_median"] == 0.0
    out = ab_bench.summarize(ones, [0.98] * 10, "higher", 0.01)
    assert out["verdict"] == "regressed"
    out = ab_bench.summarize([0.9] * 10, ones, "higher", 0.01)
    assert out["change_wins"] == 10 and out["gain_shown"]


def test_zero_medians():
    """A metric that reads 0 on the parent cannot divide by its median."""
    out = ab_bench.summarize([0.0] * 4, [0.0] * 4, "lower", 0.05)
    assert out["verdict"] == "within bound" and out["change_over_parent"] is None
    out = ab_bench.summarize([0.0] * 4, [1.0] * 4, "lower", 0.05)
    assert out["verdict"] == "regressed"


def test_unpaired_runs_are_refused():
    with pytest.raises(ValueError):
        ab_bench.summarize([1.0, 2.0], [1.0], "lower", 0.25)
    with pytest.raises(ValueError):
        ab_bench.summarize([], [], "lower", 0.25)


def test_workload_totals():
    spec = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}

    def result(wall, failed=0, correct=True):
        return {"correct": correct, "attempted": 8, "failed": failed,
                "metrics": {"wall_s": wall}}

    runs = [(5, result(1.0), result(0.8, failed=1)), (6, result(1.1), result(0.9))]
    out = ab_bench.summarize_workload(runs, spec)
    assert out["seeds"] == [5, 6] and out["pairs"] == 2 and out["correct"]
    assert out["failed"] == {"parent": 0, "change": 1}
    assert out["attempted"] == {"parent": 16, "change": 16}
    assert out["metrics"]["wall_s"]["change_wins"] == 2
    runs[1] = (6, result(1.1, correct=False), result(0.9))
    assert not ab_bench.summarize_workload(runs, spec)["correct"]


def test_more_failures_show_no_gain():
    """A clear gain is not shown when the change fails more operations."""
    spec = {"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}]}

    def result(wall, failed):
        return {"correct": True, "attempted": 8, "failed": failed,
                "metrics": {"wall_s": wall}}

    runs = [(i, result(p, 1), result(0.85 * p, 1)) for i, p in enumerate(PARENT)]
    assert ab_bench.summarize_workload(runs, spec)["metrics"]["wall_s"]["gain_shown"]
    runs[3] = (3, result(PARENT[3], 1), result(0.85 * PARENT[3], 2))
    out = ab_bench.summarize_workload(runs, spec)
    assert out["failed"] == {"parent": 10, "change": 11}
    assert not out["metrics"]["wall_s"]["gain_shown"]


def _fake_checkout(root, wall, log):
    """A checkout whose perfbench/run.py logs its call and prints one result."""
    os.makedirs(os.path.join(root, "perfbench"))
    with open(os.path.join(root, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump({"run_seconds": 3, "end_to_end": [
            {"name": "wall_s", "better": "lower", "bound": 0.25}]}, fh)
    with open(os.path.join(root, "perfbench", "run.py"), "w", encoding="utf-8") as fh:
        fh.write(textwrap.dedent(f"""\
            import json, sys
            with open({log!r}, "a") as fh:
                fh.write({os.path.basename(root)!r} + " " + " ".join(sys.argv[1:]) + "\\n")
            print("wall_s 1.0 s")
            print(json.dumps({{"correct": True, "attempted": 4, "failed": 0,
                              "metrics": {{"wall_s": {{"value": {wall}, "unit": "s"}}}}}}))
            """))


def test_main_alternates_checkouts(tmp_path):
    """Parent first in even pairs, change first in odd ones, seeds counted
    on across workloads, the run length of BENCHMARK.json, and the summary
    written as JSON."""
    log = str(tmp_path / "calls.log")
    _fake_checkout(str(tmp_path / "parent"), 1.0, log)
    _fake_checkout(str(tmp_path / "change"), 0.8, log)
    out = tmp_path / "ab.json"
    assert ab_bench.main(["--parent", str(tmp_path / "parent"),
                          "--change", str(tmp_path / "change"), "--workload", "levels",
                          "--workload", "scan", "--pairs", "2", "--first-seed", "7",
                          "-o", str(out)]) == 0
    calls = [line.split() for line in open(log, encoding="utf-8")]
    assert [(c[0], c[2], c[4]) for c in calls] == [
        ("parent", "levels", "7"), ("change", "levels", "7"),
        ("change", "levels", "8"), ("parent", "levels", "8"),
        ("parent", "scan", "9"), ("change", "scan", "9"),
        ("change", "scan", "10"), ("parent", "scan", "10")]
    assert all(c[5:] == ["--seconds", "3.0", "--trace", "0"] for c in calls)
    report = json.loads(out.read_text())
    wall = report["workloads"]["scan"]["metrics"]["wall_s"]
    assert report["workloads"]["scan"]["seeds"] == [9, 10]
    assert wall["change_wins"] == 2 and wall["change_over_parent"] == 0.8


def test_failed_run_stops_with_its_error(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("import sys; sys.exit('no workload')\n")
    with pytest.raises(RuntimeError, match="no workload"):
        ab_bench.run_once(str(tmp_path), "levels", 1, 1.0)

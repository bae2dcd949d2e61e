"""``tools/bench_pairs.py``'s summaries and verdicts on synthetic run results:
no benchmark is run and no subprocess started."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]


def results(values, name="apply_ms_p90", unit="ms", failed=0):
    return [{"metrics": {name: {"value": v, "unit": unit}}, "correct": True,
             "attempted": 5, "failed": failed} for v in values]


def test_bounds_come_from_the_benchmark_declaration():
    bounds = bench_pairs.load_bounds()
    assert bounds["apply_ms_p90"] == ("lower", 0.25)
    assert bounds["peak_rss_mb"] == ("lower", 0.1)


def test_side_summary_gives_median_quartiles_and_operation_counts():
    out = bench_pairs.side_summary(results([1.0, 2.0, 3.0, 4.0, 5.0], failed=1))
    assert out["metrics"]["apply_ms_p90"] == {"median": 3.0, "q1": 2.0, "q3": 4.0, "unit": "ms"}
    assert (out["correct"], out["attempted"], out["failed"]) == (True, 25, 5)


@pytest.mark.parametrize("change, want", [
    ([v * 0.8 for v in PARENT], "better"),
    ([v * 1.01 for v in PARENT], "no worse"),
    # better in every pair, but by less than the parent's q3 - q1
    ([v - 0.05 for v in PARENT], "no worse"),
    ([v * 1.3 for v in PARENT], "worse"),
], ids=["better", "no-worse", "gain-inside-the-spread", "worse"])
def test_verdicts_within_the_bound(change, want):
    cmp = bench_pairs.compare(results(PARENT), results(change), {"apply_ms_p90": ("lower", 0.25)})
    v = cmp["verdicts"]["apply_ms_p90"]
    assert v["verdict"] == want and v["bound"] == 0.25
    assert v["parent_spread"] == pytest.approx(0.175 / 10.05)


def test_spread_above_the_bound_is_unresolved_unless_every_change_run_is_better():
    wide = [10.0, 14.0, 6.0, 12.0, 8.0, 13.0, 7.0, 11.0, 9.0, 10.0]
    bounds = {"apply_ms_p90": ("lower", 0.25)}
    v = bench_pairs.compare(results(wide), results([x * 0.9 for x in wide]), bounds)
    assert v["verdicts"]["apply_ms_p90"]["parent_spread"] > 0.25
    assert v["verdicts"]["apply_ms_p90"]["verdict"] == "unresolved"
    v = bench_pairs.compare(results(wide), results([x / 4 for x in wide]), bounds)
    assert v["verdicts"]["apply_ms_p90"]["verdict"] == "better"


def test_higher_is_better_metrics_read_the_other_way():
    bounds = {"live_frac": ("higher", 0.1)}
    base = [0.5, 0.51, 0.49, 0.5, 0.5, 0.52, 0.48, 0.5, 0.51, 0.5]
    for scale, want in ((1.5, "better"), (0.5, "worse"), (1.0, "no worse")):
        cmp = bench_pairs.compare(results(base, "live_frac", "frac"),
                                  results([x * scale for x in base], "live_frac", "frac"),
                                  bounds)
        assert cmp["verdicts"]["live_frac"]["verdict"] == want


def test_metrics_without_a_bound_get_no_verdict():
    cmp = bench_pairs.compare(results(PARENT, "other"), results(PARENT, "other"), {})
    assert cmp["verdicts"] == {} and cmp["change_lower_in_pairs"] == {"other": 0}


def test_each_pair_line_names_every_bounded_metric():
    def run(value):
        return {"metrics": {"apply_ms_p90": {"value": value, "unit": "ms"},
                            "wall_s_p90": {"value": 2 * value, "unit": "s"},
                            "other": {"value": 1.0, "unit": "count"}}}

    line = bench_pairs.pair_line("w seed 0", 3, run(0.5), run(0.25), bench_pairs.load_bounds())
    assert line == "w seed 0 pair 3: wall_s_p90 1 -> 0.5, apply_ms_p90 0.5 -> 0.25"


def test_the_note_says_medians_compare_only_within_one_file():
    assert "compare medians only within this file" in bench_pairs.NOTE

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "wall_rel", "unit": "ratio", "better": "lower", "bound": 0.25},
              {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]


def _result(wall, setup, attempted=4, failed=0):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {"wall_rel": {"value": wall, "unit": "ratio"},
                        "setup_s": {"value": setup, "unit": "s"}}}


def test_summary_of_fake_pairs_keeps_a_failed_invocation():
    results = {
        "parent": [_result(10.0, 0.3), _result(12.0, 0.2), _result(11.0, 0.4, failed=1),
                   _result(13.0, 0.3)],
        "change": [_result(9.0, 0.31), None, _result(10.5, 0.2), _result(12.5, 0.3, attempted=5)],
    }
    out = bench_pairs.summarize(range(7, 11), results, END_TO_END)
    assert out["seeds"] == [7, 8, 9, 10] and out["pairs"] == 4
    # a failed invocation is one attempted and one failed run of its side
    assert out["attempted"] == {"parent": 16, "change": 14}
    assert out["failed"] == {"parent": 1, "change": 1}
    wall = out["wall_rel"]
    assert wall["unit"] == "ratio"
    assert wall["parent"] == {"median": 11.5, "q1": 10.75, "q3": 12.25,
                              "runs": [10.0, 12.0, 11.0, 13.0]}
    assert wall["change"] == {"median": 10.5, "q1": 9.75, "q3": 11.5,
                              "runs": [9.0, None, 10.5, 12.5]}
    # pairs with a failed side do not count; the change is lower in all three others
    assert wall["change_lower_in"] == "3/3 pairs"
    # a tie is no win
    assert out["setup_s"]["change_lower_in"] == "1/3 pairs"
    # 3/3 wins, but the medians differ by 1.0, within the parent's q3 - q1 of 1.5
    assert wall["verdict"] == "within_bound"


def test_summary_of_a_side_with_no_result():
    results = {"parent": [None], "change": [_result(1.0, 0.5)]}
    out = bench_pairs.summarize([1], results, END_TO_END)
    assert out["wall_rel"]["parent"] == {"median": None, "q1": None, "q3": None, "runs": [None]}
    assert out["wall_rel"]["change"] == {"median": 1.0, "q1": 1.0, "q3": 1.0, "runs": [1.0]}
    assert out["wall_rel"]["change_lower_in"] == "0/0 pairs"
    assert out["wall_rel"]["verdict"] is None


def _ten_pairs(parent_walls, change_walls):
    results = {"parent": [_result(w, 0.3) for w in parent_walls],
               "change": [_result(w, 0.3) for w in change_walls]}
    return bench_pairs.summarize(range(1, 11), results, END_TO_END)


PARENT_WALLS = [3.5, 3.6, 3.6, 3.7, 3.7, 3.7, 3.8, 3.8, 3.9, 4.0]


def test_verdict_gain_needs_nine_wins_in_ten_and_a_gap_past_the_parent_quartiles():
    # 9/10 wins, medians 3.7 and 2.3, the parent's q3 - q1 0.175
    change = [2.2, 2.2, 2.3, 2.3, 2.3, 2.3, 2.4, 2.4, 2.5, 4.5]
    assert _ten_pairs(PARENT_WALLS, change)["wall_rel"]["verdict"] == "gain"
    # 8/10 wins is not enough
    change = [2.2, 2.2, 2.3, 2.3, 2.3, 2.3, 2.4, 2.4, 4.5, 4.5]
    assert _ten_pairs(PARENT_WALLS, change)["wall_rel"]["verdict"] == "within_bound"
    # 10/10 wins by a gap inside the parent's quartiles
    change = [w - 0.05 for w in PARENT_WALLS]
    assert _ten_pairs(PARENT_WALLS, change)["wall_rel"]["verdict"] == "within_bound"
    # equal setups: no win and no loss
    assert _ten_pairs(PARENT_WALLS, change)["setup_s"]["verdict"] == "within_bound"


def test_verdict_worse_past_the_bound_times_the_parent_median():
    # the bound is 0.25: a median above 1.25 x 3.7 = 4.625 is worse
    assert _ten_pairs(PARENT_WALLS, [4.7] * 10)["wall_rel"]["verdict"] == "worse"
    assert _ten_pairs(PARENT_WALLS, [4.6] * 10)["wall_rel"]["verdict"] == "within_bound"


def test_verdict_of_a_metric_where_higher_is_better():
    metric = [{"name": "wall_rel", "unit": "ratio", "better": "higher", "bound": 0.25}]
    results = {"parent": [_result(w, 0.3) for w in PARENT_WALLS],
               "change": [_result(w + 1.0, 0.3) for w in PARENT_WALLS]}
    out = bench_pairs.summarize(range(1, 11), results, metric)
    assert out["wall_rel"]["change_higher_in"] == "10/10 pairs"
    assert out["wall_rel"]["verdict"] == "gain"
    results["change"] = [_result(1.0, 0.3)] * 10
    assert bench_pairs.summarize(range(1, 11), results, metric)["wall_rel"]["verdict"] == "worse"

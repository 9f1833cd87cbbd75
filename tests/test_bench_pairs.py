"""Unit tests of tools/bench_pairs.py's summary, on fixed numbers; no benchmark is run."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
summarise = bench_pairs.summarise

PARENT = [10.0, 12.0, 11.0, 13.0, 14.0, 10.5, 12.5, 11.5, 13.5, 14.5]


class TestSummarise:
    def test_quartiles_interpolate_between_order_statistics(self):
        got = summarise(PARENT, PARENT)
        # sorted: 10 10.5 11 11.5 12 12.5 13 13.5 14 14.5; q1 at rank 2.25, q3 at 6.75
        assert got["parent_q1_median_q3"] == [11.125, 12.25, 13.375]
        assert got["parent_iqr"] == 2.25
        assert got["change_over_parent_median"] == 1.0

    def test_ties_count_as_neither_win_nor_loss(self):
        got = summarise(PARENT, PARENT)
        assert (got["change_wins"], got["change_losses"], got["claim_met"]) == (0, 0, False)

    def test_a_clear_gain_meets_the_claim(self):
        change = [v - 3.0 for v in PARENT]
        got = summarise(PARENT, change)
        assert (got["change_wins"], got["change_losses"]) == (10, 0)
        assert got["change_q1_median_q3"] == [8.125, 9.25, 10.375]
        assert got["claim_met"]

    def test_nine_wins_in_ten_suffice_but_eight_do_not(self):
        change = [v - 3.0 for v in PARENT]
        change[0] = PARENT[0] + 1.0
        assert summarise(PARENT, change)["change_wins"] == 9
        assert summarise(PARENT, change)["claim_met"]
        change[1] = PARENT[1] + 1.0
        got = summarise(PARENT, change)
        assert (got["change_wins"], got["change_losses"], got["claim_met"]) == (8, 2, False)

    def test_every_pair_won_by_less_than_the_iqr_is_no_claim(self):
        change = [v - 1.0 for v in PARENT]
        got = summarise(PARENT, change)
        assert got["change_wins"] == 10
        assert not got["claim_met"]

    def test_higher_is_better_flips_the_direction(self):
        change = [v + 3.0 for v in PARENT]
        assert summarise(PARENT, change, "higher")["claim_met"]
        got = summarise(PARENT, change, "lower")
        assert (got["change_wins"], got["change_losses"], got["claim_met"]) == (0, 10, False)

    def test_one_pair_and_mismatched_sides(self):
        got = summarise([2.0], [1.0])
        assert got["parent_q1_median_q3"] == [2.0, 2.0, 2.0]
        assert got["parent_iqr"] == 0.0
        assert got["claim_met"]
        with pytest.raises(ValueError):
            summarise([1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            summarise([], [])


class TestWithinBound:
    """The no-regression verdict: the change's median is worse by at most ``bound`` of the parent's."""

    def test_no_bound_gives_no_verdict(self):
        assert summarise(PARENT, PARENT)["within_bound"] is None

    def test_a_loss_up_to_the_bound_is_within_it(self):
        # parent median 12.25; 10 % of it is 1.225
        assert summarise(PARENT, [v + 1.0 for v in PARENT], "lower", 0.1)["within_bound"]
        assert summarise(PARENT, [v + 1.225 for v in PARENT], "lower", 0.1)["within_bound"]
        assert not summarise(PARENT, [v + 1.5 for v in PARENT], "lower", 0.1)["within_bound"]

    def test_a_gain_is_always_within_the_bound(self):
        assert summarise(PARENT, [v - 5.0 for v in PARENT], "lower", 0.0)["within_bound"]
        assert summarise(PARENT, PARENT, "lower", 0.0)["within_bound"]

    def test_higher_is_better_flips_the_direction(self):
        assert summarise(PARENT, [v + 5.0 for v in PARENT], "higher", 0.1)["within_bound"]
        assert not summarise(PARENT, [v - 1.5 for v in PARENT], "higher", 0.1)["within_bound"]

    def test_a_spread_wider_than_the_bound_is_unresolved(self):
        # parent IQR 2.25 against 10 % of its median 12.25, 1.225; 30 % is 3.675
        assert summarise(PARENT, PARENT)["unresolved"] is None
        assert summarise(PARENT, PARENT, "lower", 0.1)["unresolved"]
        assert not summarise(PARENT, PARENT, "lower", 0.3)["unresolved"]
        # every change run better than every parent run (below 10) resolves it; one at 10 does not
        assert not summarise(PARENT, [v - 5.0 for v in PARENT], "lower", 0.1)["unresolved"]
        assert summarise(PARENT, [9.0] * 9 + [10.0], "lower", 0.1)["unresolved"]
        assert not summarise(PARENT, [15.0] * 10, "higher", 0.1)["unresolved"]
        assert summarise(PARENT, [15.0] * 10, "lower", 0.1)["unresolved"]

    def test_rules_read_direction_and_bound(self, tmp_path):
        (tmp_path / "BENCHMARK.json").write_text(
            '{"end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}, {"name": "rate"}]}'
        )
        assert bench_pairs.rules(tmp_path) == {"wall_s": ("lower", 0.25), "rate": ("lower", None)}
        assert bench_pairs.rules(tmp_path / "missing") == {}

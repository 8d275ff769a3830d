"""The verdicts `tools/bench_pair.py` writes per metric, on made-up runs."""

import importlib.util
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_pair.py"
_spec = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pair)

# ten parent runs: median 1.0, quartiles 0.965 and 1.035 (IQR 0.07)
PARENT = [0.9, 0.95, 0.96, 0.98, 0.99, 1.01, 1.02, 1.04, 1.05, 1.1]


def verdict(change, parent=PARENT, better="lower", bound=0.25):
    return bench_pair._summary(parent, change, better, bound)["verdict"]


class TestVerdict:

    def test_gain_needs_nine_wins_and_a_gap_beyond_the_iqr(self):
        assert verdict([p - 0.2 for p in PARENT]) == "gain"
        # nine wins of ten still count
        assert verdict([p - 0.2 for p in PARENT[:9]] + [2.0]) == "gain"
        # eight do not
        assert verdict([p - 0.2 for p in PARENT[:8]] + [2.0, 2.0]) == "level"
        # every pair won, but the medians differ by less than the IQR
        assert verdict([p - 0.05 for p in PARENT]) == "level"

    def test_direction_follows_better(self):
        faster = [p + 0.2 for p in PARENT]
        assert verdict(faster, better="higher") == "gain"
        assert verdict(faster, better="lower") == "level"

    def test_worse_is_beyond_the_bound_of_the_parent_median(self):
        assert verdict([p + 0.26 for p in PARENT]) == "worse"
        assert verdict([p + 0.24 for p in PARENT]) == "level"
        assert verdict([p - 0.26 for p in PARENT], better="higher") == "worse"

    def test_unresolved_when_the_parent_spreads_wider_than_the_bound(self):
        wide = [0.5, 0.6, 0.7, 0.8, 0.9, 1.1, 1.2, 1.3, 1.4, 1.5]
        mixed = [p - 0.01 if i % 2 else p + 0.01 for i, p in enumerate(wide)]
        assert verdict(mixed, parent=wide) == "unresolved"
        # a side that wins every pair resolves it
        assert verdict([p + 0.01 for p in wide], parent=wide) == "level"

    def test_wide_parent_spread_is_unresolved_before_worse(self):
        # cli-suite setup_s of BENCH_30.json: the parent's IQR (0.061) is
        # wider than the bound (0.25 x 0.159 = 0.040), and the parent won
        # two pairs of three, so a median 46% higher is noise, not worse
        parent = [0.15412, 0.15929, 0.27587]
        change = [0.23244, 0.26726, 0.16408]
        assert verdict(change, parent=parent) == "unresolved"

    def test_zero_bound_makes_any_rise_worse(self):
        # fail_frac: no failures at the parent, one failed run here
        assert verdict([0.0] * 9 + [0.1], parent=[0.0] * 10,
                       bound=0.0) == "level"
        assert verdict([0.1] * 10, parent=[0.0] * 10, bound=0.0) == "worse"


@pytest.mark.parametrize("spec,want", [("cauchy-385:10", ("cauchy-385", 10)),
                                       ("cli-suite:3", ("cli-suite", 3))])
def test_workload_spec(spec, want):
    assert bench_pair._pairs(spec) == want

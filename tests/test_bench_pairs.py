"""The verdicts of tools/bench_pairs.py on synthetic runs: the gain rule
(better in at least 9 of 10 pairs, and a median better by more than the
parent's quartile spread), the bound (a median no worse than the parent's
by more than the metric's relative bound) and whether the change's failed
share is no larger than the parent's."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# median 1.02, quartiles 1.01 and 1.03: a spread of 0.02
PARENT = [1.00, 1.01, 1.02, 1.03, 1.04, 1.00, 1.01, 1.02, 1.03, 1.04]


def verdicts(change, better="lower", bound=0.25):
    out = bench_pairs.summarize(PARENT, change, better, bound)
    return out["gain_rule_met"], out["within_bound"]


def test_a_clear_gain_meets_the_rule_in_every_pair():
    out = bench_pairs.summarize(PARENT, [p - 0.1 for p in PARENT], "lower", 0.25)
    assert out["q1_q3_parent"] == [1.01, 1.03]
    assert out["change_better_in_pairs"] == "10/10"
    assert out["gain_rule_met"] and out["within_bound"]


def test_nine_pairs_of_ten_are_enough_and_eight_are_not():
    change = [p - 0.1 for p in PARENT]
    change[0] = PARENT[0] + 0.01
    assert verdicts(change) == (True, True)
    change[1] = PARENT[1] + 0.01
    assert verdicts(change) == (False, True)


def test_a_gain_inside_the_parent_spread_does_not_meet_the_rule():
    assert verdicts([p - 0.005 for p in PARENT]) == (False, True)


def test_the_verdicts_follow_the_metric_direction():
    higher = [p + 0.1 for p in PARENT]
    assert verdicts(higher, better="higher") == (True, True)
    # about 10% worse where lower is better: inside 0.25, outside 0.05
    assert verdicts(higher) == (False, True)
    assert verdicts(higher, bound=0.05) == (False, False)
    assert verdicts([p - 0.3 for p in PARENT], better="higher") == (False, False)


def test_the_bound_is_relative_to_the_parent_median():
    assert verdicts([p * 1.24 for p in PARENT]) == (False, True)
    assert verdicts([p * 1.26 for p in PARENT]) == (False, False)
    assert verdicts([p * 1.09 for p in PARENT], bound=0.1) == (False, True)
    assert verdicts([p * 1.11 for p in PARENT], bound=0.1) == (False, False)


def test_the_failed_share_may_not_grow():
    attempted = {"parent": [10, 10], "change": [10, 10]}
    same = bench_pairs.failed_share({"parent": [1, 0], "change": [0, 1]},
                                    attempted)
    assert same == {"parent": 0.05, "change": 0.05, "no_larger": True}
    # one more failure in twenty operations is a larger share
    more = bench_pairs.failed_share({"parent": [1, 0], "change": [1, 1]},
                                    attempted)
    assert (more["change"], more["no_larger"]) == (0.1, False)
    # the share, not the count: 2 of 40 is no larger than 1 of 20
    assert bench_pairs.failed_share(
        {"parent": [1, 0], "change": [1, 1]},
        {"parent": [10, 10], "change": [20, 20]})["no_larger"]
    # a side that attempted nothing has no share, and no verdict is met
    assert bench_pairs.failed_share(
        {"parent": [0], "change": [0]},
        {"parent": [4], "change": [0]}) == {"parent": 0.0, "change": None,
                                           "no_larger": False}

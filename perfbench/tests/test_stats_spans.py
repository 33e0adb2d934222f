"""Self-time arithmetic and the timing-summary rule."""

import pytest

from spans import self_times
from stats import median, percentile, quartile_spread, summary, tail


def test_self_time_of_a_span_tree():
    # 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; 2 has child 3 [6, 7].
    start = [0.0, 1.0, 5.0, 6.0]
    end = [10.0, 4.0, 9.0, 7.0]
    parent = [-1, 0, 0, 2]
    assert self_times(start, end, parent) == pytest.approx([3.0, 3.0, 3.0, 1.0])


def test_self_time_counts_overlapping_children_once_and_clips():
    # Children overlap each other ([1, 5] and [3, 6]) and one runs past the
    # parent's end ([8, 12] is clipped to [8, 10]).
    start = [0.0, 1.0, 3.0, 8.0]
    end = [10.0, 5.0, 6.0, 12.0]
    parent = [-1, 0, 0, 0]
    own = self_times(start, end, parent)
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1:] == pytest.approx([4.0, 3.0, 4.0])


def test_self_times_sum_to_root_duration():
    start = [0.0, 0.5, 0.6, 2.0, 2.5]
    end = [4.0, 1.5, 1.0, 3.5, 3.0]
    parent = [-1, 0, 1, 0, 3]
    assert sum(self_times(start, end, parent)) == pytest.approx(4.0)


def test_median_and_nearest_rank_percentile():
    values = list(range(1, 101))
    assert median(values) == 50.5
    assert percentile(values, 90) == 90
    assert percentile(values, 99.9) == 100
    assert percentile([7.0], 50) == 7.0


@pytest.mark.parametrize("n, expected_p", [
    (19, None),      # p50 would leave only 9 samples beyond it
    (20, 50.0),
    (40, 75.0),
    (100, 90.0),
    (199, 90.0),
    (200, 95.0),
    (1000, 99.0),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected_p):
    values = [float(i) for i in range(n)]
    t = tail(values)
    if expected_p is None:
        assert t is None
    else:
        p, v = t
        assert p == expected_p
        assert sum(1 for x in values if x > v) >= 10


def test_summary_reports_sample_count():
    assert "n=5" in summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert "no tail percentile" in summary([1.0, 2.0, 3.0])
    line = summary([float(i) for i in range(100)])
    assert "n=100" in line and "p90=" in line


def test_quartile_spread_is_relative_to_median():
    assert quartile_spread([10.0] * 10) == 0.0
    assert quartile_spread([9.0, 10.0, 10.0, 11.0, 10.0]) == pytest.approx(0.1)

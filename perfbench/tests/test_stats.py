"""The tail-percentile rule: the highest percentile, capped at p99, with
at least ten samples above it."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from run import tail_percentile  # noqa: E402


def samples_above(values, value):
    return sum(1 for v in values if v > value)


def test_p99_once_there_are_a_thousand_samples():
    values = list(range(1, 2001))
    p, value = tail_percentile(values)
    assert p == 0.99
    assert value == 1980
    assert samples_above(values, value) == 20


def test_fewer_samples_keep_ten_above():
    for n in (11, 50, 600, 999):
        values = [float(v) for v in range(n)]
        p, value = tail_percentile(values)
        assert samples_above(values, value) == 10, n
        assert p == (n - 10) / n


def test_exactly_a_thousand_is_p99_with_ten_above():
    values = list(range(1000))
    p, value = tail_percentile(values)
    assert (p, samples_above(values, value)) == (0.99, 10)


def test_ten_or_fewer_samples_report_the_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (1.0, 3.0)


def test_order_of_input_does_not_matter():
    values = [5.0, 1.0, 9.0] * 10
    assert tail_percentile(values) == tail_percentile(sorted(values))

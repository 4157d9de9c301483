"""The p50 / tail rules and the failure-as-infinity rule, on fixed samples."""

import math

import pytest

from perfbench.stats import FAILED, pass_mean_median, summarize


def test_tail_has_exactly_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 81)]
    s = summarize(list(reversed(samples)))
    assert s.n == 80
    assert s.tail == 70.0  # values 71..80 lie beyond it
    assert s.tail_pct == pytest.approx(87.5)
    assert s.p50 == pytest.approx(40.5)


def test_smallest_sample_count_puts_the_tail_on_the_minimum():
    s = summarize([5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0])
    assert s.tail == 1.0
    with pytest.raises(ValueError):
        summarize([1.0] * 10)


def test_cadence_population_holds_the_tail_at_128_epochs_but_not_at_80():
    # Every 8th epoch is slow (fresh solve + checkpoint): 12.5% of samples.
    def epochs(n):
        return [3.0 if (i + 1) % 8 == 0 else 1.0 + i / 1000 for i in range(n)]

    assert summarize(epochs(80)).tail < 3.0  # the slowest ordinary epoch
    ordered = sorted(epochs(128))
    idx = len(ordered) - 11
    assert summarize(ordered).tail == 3.0
    assert ordered[idx - 1] == 3.0  # inside the slow population, not on its edge


def test_failures_count_as_infinite_latency():
    s = summarize([1.0] * 17 + [FAILED] * 3)
    assert s.failed == 3
    assert s.tail == 1.0  # fewer than eleven failures stay beyond the tail
    s = summarize([1.0] * 9 + [FAILED] * 11)
    assert s.failed == 11
    assert math.isinf(s.tail)
    assert math.isinf(s.p50)


def test_pass_mean_median_weighs_every_kind_of_a_mix():
    # Six fast and six slow kinds: the pooled median falls in the gap and
    # moves with the slowest fast kind; the pass mean does not.
    passes = [[1.0] * 5 + [1.0 + d] + [3.0] * 6 for d in (0.0, 0.5, 1.0)]
    pooled = [s for p in passes for s in p]
    assert summarize(pooled).p50 == pytest.approx(2.5)  # between 2.0 and the slow kind
    assert pass_mean_median(passes) == pytest.approx((5 + 1.5 + 18) / 12)
    assert pass_mean_median(passes[:2]) == pytest.approx((5 + 1.25 + 18) / 12)


def test_a_failed_operation_makes_its_pass_mean_infinite():
    assert pass_mean_median([[1.0, 2.0], [1.0, FAILED], [1.0, 1.0]]) == pytest.approx(1.5)
    assert math.isinf(pass_mean_median([[1.0, FAILED], [FAILED, 1.0]]))
    with pytest.raises(ValueError):
        pass_mean_median([[1.0], []])


def test_host_speed_adjustment_scales_by_the_median_kernel_time():
    from perfbench.hostspeed import NOMINAL_S, adjust

    slow_host = [2 * NOMINAL_S, 2 * NOMINAL_S, 9 * NOMINAL_S]  # one kernel read disturbed
    assert adjust([1.0, 3.0, FAILED], slow_host)[:2] == pytest.approx([0.5, 1.5])
    assert math.isinf(adjust([FAILED], slow_host)[0])

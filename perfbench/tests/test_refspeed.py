"""Reference-speed arithmetic and the percentile tail rule."""

import time

import pytest

import refspeed
from refspeed import (Sample, operation_seconds, percentile, reference_seconds,
                      replay_medians, speed_factor, stolen_share, tail_fraction)


def test_snippet_wall_is_subtracted_and_factor_comes_from_cpu_time():
    # Two probe runs inside the phase: each took 3 ms of wall time (it
    # waited for the GIL) but only 2 ms of thread CPU time.
    samples = [Sample(1.0, 1.003, 0.002), Sample(5.0, 5.003, 0.002)]
    (seconds,), factor = reference_seconds([(0.0, 10.0)], samples, nominal=0.001)
    assert factor == pytest.approx(0.5)            # nominal / mean CPU, not wall
    assert seconds == pytest.approx((10.0 - 0.006) * 0.5)


def test_only_samples_overlapping_the_phase_set_its_factor():
    samples = [Sample(1.0, 1.001, 0.001), Sample(20.0, 20.001, 0.004)]
    assert speed_factor([(0.0, 10.0)], samples, nominal=0.002) == pytest.approx(2.0)
    # A phase no sample overlaps falls back to every sample.
    assert speed_factor([(30.0, 31.0)], samples, nominal=0.002) == \
        pytest.approx(0.002 / 0.0025)
    with pytest.raises(ValueError):
        speed_factor([(0.0, 1.0)], [], nominal=0.001)


def test_stolen_cpu_time_slows_the_factor():
    # The host took a quarter of the CPUs' ticks.
    samples = [Sample(1.0, 1.001, 0.001, ticks=10, stolen=2),
               Sample(2.0, 2.001, 0.001, ticks=10, stolen=3)]
    assert stolen_share([(0.0, 3.0)], samples) == pytest.approx(0.25)
    (seconds,), factor = reference_seconds([(0.0, 3.0)], samples, nominal=0.001)
    assert factor == pytest.approx(0.75)
    assert seconds == pytest.approx((3.0 - 0.002) * 0.75)
    (short,) = operation_seconds([(1.5, 1.6)], samples, nominal=0.001)
    assert short == pytest.approx(0.1 * 0.75)
    # No tick passed between two samples: nothing was stolen.
    assert speed_factor([(0.0, 3.0)], [Sample(1.0, 1.001, 0.002)],
                        nominal=0.001) == pytest.approx(0.5)


def test_probe_straddling_a_phase_boundary_loses_only_its_overlap():
    samples = [Sample(9.999, 10.003, 0.002)]
    (seconds,), factor = reference_seconds([(0.0, 10.0)], samples, nominal=0.002)
    assert factor == pytest.approx(1.0)
    assert seconds == pytest.approx(10.0 - 0.001)


def test_pooled_intervals_share_one_factor():
    samples = [Sample(0.5, 0.501, 0.001), Sample(2.5, 2.501, 0.003)]
    seconds, factor = reference_seconds([(0.0, 1.0), (2.0, 3.0)], samples,
                                        nominal=0.002)
    assert factor == pytest.approx(1.0)
    assert seconds == pytest.approx([0.999, 0.999])


def test_probe_samples_on_sigalrm_ticks():
    probe = refspeed.SpeedProbe(period=0.05)
    probe.start()
    try:
        deadline = time.perf_counter() + 0.4
        while time.perf_counter() < deadline:
            pass
    finally:
        probe.stop()
    assert len(probe.samples) >= 3
    assert all(sample.cpu > 0 and sample.end > sample.start
               and sample.ticks >= sample.stolen >= 0 for sample in probe.samples)
    assert sum(sample.ticks for sample in probe.samples) > 0   # 0.4 s passed


def test_percentile_keeps_ten_samples_beyond_it():
    values = list(range(1, 1001))
    assert percentile(values, 0.99) == 990          # 10 samples beyond
    assert percentile(values, 0.50) == 500
    with pytest.raises(ValueError, match="at least 10"):
        percentile(list(range(999)), 0.99)           # only 9 beyond
    with pytest.raises(ValueError):
        percentile(list(range(19)), 0.50)
    assert percentile(list(range(20)), 0.50) == 9


def test_tail_fraction_is_the_highest_percentile_the_rule_allows():
    assert tail_fraction(3000) == 0.99
    assert tail_fraction(1000) == 0.99
    assert tail_fraction(999) == 0.98
    assert tail_fraction(202) == 0.95
    with pytest.raises(ValueError):
        tail_fraction(50)


def test_replay_medians_drop_a_stall_that_hits_one_replay():
    replays = [[1.0, 2.0, 9.0], [1.2, 7.0, 3.0], [0.9, 2.2, 3.2]]
    assert replay_medians(replays) == [1.0, 2.2, 3.2]
    with pytest.raises(ValueError, match="same operations"):
        replay_medians([[1.0, 2.0], [1.0]])


def test_operations_take_the_factor_of_nearby_samples():
    # The host runs at nominal speed for the first 10 s, then at half speed.
    samples = ([Sample(at, at + 0.001, 0.001) for at in range(10)]
               + [Sample(at, at + 0.002, 0.002) for at in range(10, 20)])
    early, late = operation_seconds([(4.2, 4.7), (15.2, 15.7)], samples,
                                    nominal=0.001)
    assert early == pytest.approx(0.5)
    assert late == pytest.approx(0.25)
    # With no sample nearby, every sample sets the factor.
    (lonely,) = operation_seconds([(40.0, 40.5)], samples, nominal=0.001)
    assert lonely == pytest.approx(0.5 / 1.5)


def test_cpu_timed_operations_lose_probe_cpu_and_ignore_steal():
    # The host stole half of the ticks; an operation timed by its thread's
    # CPU clock has no stolen time in it, so only the snippet term applies.
    samples = [Sample(1.0, 1.004, 0.002, ticks=10, stolen=5),
               Sample(1.2, 1.204, 0.002, ticks=10, stolen=5)]
    # 30 ms of wall time, 10 ms of CPU time, 2 ms of it the probe's.
    (cpu_timed,) = operation_seconds([(0.99, 1.02, 0.010)], samples, nominal=0.001)
    assert cpu_timed == pytest.approx(0.008 * 0.5)
    (wall_timed,) = operation_seconds([(0.99, 1.02)], samples, nominal=0.001)
    assert wall_timed == pytest.approx((0.030 - 0.004) * 0.5 * 0.5)

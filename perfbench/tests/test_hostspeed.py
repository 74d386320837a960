import pytest

from perfbench import hostspeed
from perfbench.hostspeed import REFERENCE_S, Gauge, Watch, scaled


class FixedGauge:
    """Reads the given values in turn, as a host changing speed would."""

    def __init__(self, *readings):
        self.readings = []
        self._next = iter(readings)

    def read(self):
        reading = next(self._next)
        self.readings.append(reading)
        return reading


def test_a_host_at_reference_speed_leaves_times_unscaled():
    assert scaled(0.25, REFERENCE_S, REFERENCE_S) == pytest.approx(0.25)


def test_a_host_at_half_speed_halves_the_scaled_time():
    assert scaled(0.5, 2 * REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(0.25)


def test_the_gauge_around_an_operation_is_the_mean_of_both_readings():
    assert scaled(0.3, REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(0.2)


def test_each_operation_is_scaled_by_the_readings_around_it(monkeypatch):
    ticks = iter([0.0, 1.0, 5.0, 6.0])
    monkeypatch.setattr(hostspeed, "clock", lambda: next(ticks))
    watch = Watch(FixedGauge(REFERENCE_S, REFERENCE_S, 3 * REFERENCE_S))
    watch.start()
    assert watch.stop() == pytest.approx((1.0, 1.0))
    watch.start()
    # readings REFERENCE_S before and 3 * REFERENCE_S after: mean 2x
    assert watch.stop() == pytest.approx((1.0, 0.5))


def test_without_a_gauge_the_watch_gives_wall_time(monkeypatch):
    ticks = iter([2.0, 2.5])
    monkeypatch.setattr(hostspeed, "clock", lambda: next(ticks))
    watch = Watch(None)
    watch.start()
    assert watch.stop() == (0.5, 0.5)


def test_a_gauge_reading_is_positive_and_recorded():
    gauge = Gauge()
    reading = gauge.read()
    assert reading > 0.0
    assert gauge.readings == [reading]

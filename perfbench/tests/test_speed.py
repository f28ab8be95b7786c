"""The speed probe samples while active, and only then."""

import signal
import time

import speed


def _busy(seconds):
    end = time.process_time() + seconds
    while time.process_time() < end:
        pass


def test_probe_samples_cpu_work_and_restores_the_timer():
    before = signal.getsignal(signal.SIGPROF)
    with speed.Probe() as probe:
        _busy(0.55)
    assert probe.units >= 3
    assert 0 < probe.ref_s < 0.55
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is before
    units = probe.units
    _busy(0.25)
    assert probe.units == units


def test_at_nominal_scales_by_the_mean_unit_time():
    # units twice as slow as nominal: the work ran at half speed
    ref_s = 10 * 2 * speed.NOMINAL_UNIT_S
    assert abs(speed.at_nominal(4.0, ref_s, 10) - 2.0) < 1e-12
    assert speed.at_nominal(4.0, 0.0, 0) == 4.0

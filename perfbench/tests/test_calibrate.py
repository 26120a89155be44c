"""Scaling by the reference loop."""

import pytest

import calibrate


@pytest.fixture
def loop_times(monkeypatch):
    times = []

    def fake():
        return times.pop(0)

    monkeypatch.setattr(calibrate, "loop_seconds", fake)
    return times


def test_work_is_scaled_by_the_loops_just_before_it(loop_times):
    ref = calibrate.REFERENCE_S
    # warm-up, then one loop at half speed
    loop_times.extend([1.0, 2 * ref])
    cal = calibrate.Calibration()
    cal.maybe_run()
    assert cal.scaled(1.0) == pytest.approx(0.5)
    # after 1 s of work the loop is far below its share: a batch of
    # loops restores it, and the next stretch is scaled by their mean
    loop_times.extend([ref] * 1000)
    cal.maybe_run()
    batch = 1000 - len(loop_times)
    assert batch > 1
    assert cal.loop_s >= calibrate.SHARE * (cal.loop_s + cal.work_s)
    assert cal.scaled(1.0) == pytest.approx(1.0)
    assert cal.scale == pytest.approx(ref / ((2 * ref + batch * ref) / (1 + batch)))


def test_loop_runs_once_per_share(loop_times):
    loop_times.extend([0.0, 0.02])
    cal = calibrate.Calibration()
    cal.maybe_run()
    cal.scaled(0.001)  # far below the share: no loop is due
    cal.maybe_run()
    assert cal.loops == 1

"""``Clock.reference_seconds`` on calibrations placed by hand."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from clock import REFERENCE_CALIBRATION_S as REF, Clock  # noqa: E402


def _clock(*windows):
    c = Clock()
    for w in windows:
        c.windows.append(w)
        c._starts.append(w[0])
    return c


def test_without_calibrations_the_raw_length_is_kept():
    assert Clock().reference_seconds(1.0, 3.5) == 2.5


def test_a_stretch_is_scaled_by_the_mean_of_the_calibrations_around_it():
    c = _clock((0.0, 1.0, REF), (3.0, 4.0, 3 * REF))
    assert c.reference_seconds(1.5, 2.5) == pytest.approx(0.5)


def test_calibrations_inside_an_interval_count_as_no_time():
    c = _clock((0.0, 1.0, REF), (2.0, 3.0, REF), (4.0, 5.0, REF))
    assert c.reference_seconds(1.0, 4.0) == pytest.approx(2.0)


def test_outside_the_calibrations_the_nearest_one_sets_the_speed():
    c = _clock((10.0, 11.0, 2 * REF), (12.0, 13.0, 4 * REF))
    assert c.reference_seconds(8.0, 10.0) == pytest.approx(1.0)
    assert c.reference_seconds(13.0, 17.0) == pytest.approx(1.0)


def test_a_machine_half_as_fast_reads_the_same():
    fast = _clock((0.0, 0.1, REF), (1.1, 1.2, REF))
    slow = _clock((0.0, 0.1, 2 * REF), (2.1, 2.2, 2 * REF))
    assert fast.reference_seconds(0.1, 1.1) == pytest.approx(slow.reference_seconds(0.1, 2.1))

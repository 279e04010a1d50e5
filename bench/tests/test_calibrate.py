"""Scaling by the calibration kernel keeps the ratio of op time to kernel time."""

import pytest

import calibrate


def test_scale_by_local_kernel_median():
    ref = calibrate.REFERENCE_S
    # the host runs at reference speed, then at half speed for the second half
    kernel_s = [ref] * 10 + [2 * ref] * 10
    timings = [0.1] * 10 + [0.2] * 10
    scaled = calibrate.scale(timings, kernel_s)
    assert all(s == pytest.approx(0.1) for s in scaled[:7] + scaled[-7:])


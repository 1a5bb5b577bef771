"""The counted block scan and reduce equal their kernels.

These are the scan- and reduce-only cases of the count-only parity
harness in ``tests/test_gpusim_counted.py``: its case strategy, report
and fault-point check, drawn on the two summing primitives.  A counted
call on a plain device must leave the values, counter book, peak memory,
allocations, array tallies, h2d bytes, typed errors and fault-point hits
of the same call on ``Device(sanitize=True)``, which launches.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro.errors import KernelError
from repro.gpusim.device import Device
from repro.gpusim.primitives import device_reduce
from tests.test_gpusim_counted import (
    SUM_PRIMS,
    _outcome,
    cases,
    check_counted,
    check_fault_point_hits,
)


@settings(max_examples=120, derandomize=True, deadline=None, database=None,
          suppress_health_check=list(HealthCheck))
@given(cases(SUM_PRIMS))
def test_fast_path_equals_kernel_path(case):
    check_counted(case)


@pytest.mark.parametrize("sanitize", [False, True])
def test_empty_reduce_raises_kernel_error(sanitize):
    """An empty reduce is a ``KernelError`` on either path, leaving what
    the sanitizing call leaves."""

    def call(device):
        return device_reduce(device, device.alloc(0, np.int64, "e"))

    report = _outcome(Device(sanitize=sanitize), call)
    assert report["value"][0] is KernelError
    assert report == _outcome(Device(sanitize=True), call)


@pytest.mark.parametrize("prim", SUM_PRIMS)
def test_recording_call_hits_only_the_kernel_paths_fault_points(prim):
    check_fault_point_hits((prim,))

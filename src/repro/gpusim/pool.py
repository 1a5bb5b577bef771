"""The one construction site of simulated devices.

The paper evaluates a single Tesla M2050, but its cluster-scale results
(Tables I/IV) assume many such devices working on one genome at once.
SOAP3-dp is the precedent for splitting a short-read workload across
several GPUs *and* the host CPU; here such a pool is simply N devices
acquired from :func:`acquire_device` with stable ``device_id`` 0..N-1,
one per pool lane of :mod:`repro.exec.executor`.  Each device books its
own host<->device traffic in its
:class:`~repro.gpusim.device.TransferLog`; the shared PCIe/host link is a
*model* that :class:`~repro.gpusim.costmodel.PoolCostModel` applies to the
lanes' summed traffic, not a second ledger.

This module is the only place in ``repro`` that calls ``Device(...)``:
serial pipelines, pool lanes, benchmark arms and probes all obtain their
devices here (a test scans the package for other construction sites).
"""

from __future__ import annotations

from .device import Device


def acquire_device(sanitize: bool = False, device_id: int = 0) -> Device:
    """Obtain a simulated Tesla M2050.

    ``device_id`` is the device's identity within a pool (0 for a
    standalone device); residency keys include it, so two pool devices
    never alias each other's uploads.
    """
    return Device(sanitize=sanitize, device_id=device_id)


__all__ = ["acquire_device"]

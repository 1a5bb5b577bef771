"""Shared fixtures: small simulated datasets and derived pipeline inputs.

Session-scoped because dataset generation and p_matrix calibration are the
expensive parts; tests treat them as read-only.
"""

from __future__ import annotations

import sys
import types

import numpy as np
import pytest

from repro.align.records import AlignmentBatch
from repro.formats.window import Window, WindowReader
from repro.gpusim.device import Device
from repro.seqsim.datasets import DatasetSpec, generate_dataset
from repro.soapsnp.model import CallingParams
from repro.soapsnp.observe import extract_observations
from repro.soapsnp.p_matrix import build_p_matrix, flatten_p_matrix


@pytest.fixture(scope="session")
def small_dataset():
    """~4k sites, depth 12, full pipeline-speed friendly."""
    spec = DatasetSpec(
        name="chrTest", n_sites=4000, depth=12.0, coverage=0.9, seed=101
    )
    return generate_dataset(spec)


@pytest.fixture(scope="session")
def tiny_dataset():
    """~800 sites for expensive per-site oracle comparisons."""
    spec = DatasetSpec(
        name="chrTiny", n_sites=800, depth=14.0, coverage=1.0, seed=202
    )
    return generate_dataset(spec)


@pytest.fixture(scope="session")
def small_batch(small_dataset):
    return AlignmentBatch.from_read_set(small_dataset.reads)


@pytest.fixture(scope="session")
def small_params(small_batch):
    return CallingParams(read_len=small_batch.read_len)


@pytest.fixture(scope="session")
def small_pm_flat(small_dataset, small_batch, small_params):
    pm = build_p_matrix(small_batch, small_dataset.reference, small_params)
    return flatten_p_matrix(pm)


@pytest.fixture(scope="session")
def small_penalty(small_params):
    return small_params.penalty_table()


@pytest.fixture(scope="session")
def small_window(small_dataset, small_batch):
    return Window(
        start=0, end=small_dataset.n_sites, reads=small_batch
    )


@pytest.fixture(scope="session")
def small_obs(small_window):
    return extract_observations(small_window)


@pytest.fixture()
def device():
    return Device()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(params=["class", "module"])
def stale_class(request, monkeypatch):
    """``(Payload, gone)``: a picklable class of an older build, and a call
    that removes it — the class alone (unpickling then raises
    ``AttributeError``) or its whole module (``ModuleNotFoundError``)."""
    module = types.ModuleType("repro_older_build")

    class Payload:
        pass

    Payload.__module__, Payload.__qualname__ = module.__name__, "Payload"
    module.Payload = Payload
    monkeypatch.setitem(sys.modules, module.__name__, module)

    def gone():
        if request.param == "class":
            del module.Payload
        else:
            del sys.modules[module.__name__]

    return Payload, gone

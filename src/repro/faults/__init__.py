"""Chaos engineering layer: deterministic fault injection, crash-safe
checkpoint/resume, and the graceful-degradation ladder.

Three submodules, importable without pulling in the pipeline:

* :mod:`repro.faults.plan` — the fault-site registry, :class:`FaultSpec`
  schedules and the seeded, picklable :class:`FaultPlan`;
* :mod:`repro.faults.degrade` — :class:`DegradationWarning` and the
  :func:`degrade` reporter for the four ladder rungs;
* :mod:`repro.faults.journal` — atomic output files, sealed records, the
  job ledger, and the shard journal backing ``--resume``, keyed by the
  job's content address (:func:`repro.api.job_key`).

The fault schedules these serve are exercised by ``tests/test_faults.py``
and the fault axis of ``tests/test_job_matrix.py``.
"""

from .degrade import RUNGS, DegradationWarning, degrade
from .journal import JournalError, ShardJournal, atomic_output
from .plan import (
    KINDS,
    SITES,
    FaultClock,
    FaultPlan,
    FaultSpec,
    fault_plan,
    fault_point,
    scope,
)

__all__ = [
    "DegradationWarning",
    "FaultClock",
    "FaultPlan",
    "FaultSpec",
    "JournalError",
    "KINDS",
    "RUNGS",
    "SITES",
    "ShardJournal",
    "atomic_output",
    "degrade",
    "fault_plan",
    "fault_point",
    "scope",
]

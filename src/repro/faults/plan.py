"""Deterministic fault injection: the registry, the plan and the clock.

Production genomics runs last hours over billions of sites; the only way
to trust the retry/degradation machinery that keeps such a run alive is to
exercise it on purpose.  This module is the chaos-engineering substrate:

* :data:`SITES` — the closed registry of named injection points.  Code
  under test calls :func:`fault_point` at each site; a tier-1 scan of
  the source tree (``tests/test_analyze_lint.py``) checks that no fault
  ever enters the system any other way (no ad-hoc ``if FAULT:`` flags).
* :class:`FaultSpec` — one scheduled fault: *where* (site + key), *when*
  (which hit ordinals fire) and *what* (crash, error, slow, alloc,
  truncate).
* :class:`FaultPlan` — an immutable, picklable schedule of specs plus a
  :class:`FaultClock` of per-spec hit counters.  Plans are seeded and
  deterministic: :meth:`FaultPlan.generate` builds the same schedule for
  the same seed, and firing decisions depend only on hit ordinals — never
  on wall clock or randomness at fire time.

A plan belongs to one job.  The active ``(plan, ambient context)`` pair
is one :class:`~contextvars.ContextVar`, set by :func:`fault_plan` for a
job and narrowed by :func:`scope` for a shard, so concurrent jobs on
other threads never see it (a new thread starts with no plan).  With no
plan active, :func:`fault_point` is a dictionary lookup, a context-variable
read and an ``is None`` test — cheap enough to leave in hot paths
permanently.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import AllocationError, InjectedFault

#: The closed registry of injection sites.  ``fault_point`` rejects names
#: outside this table; a tier-1 scan flags call sites that bypass it.
SITES: dict[str, str] = {
    "exec.worker.crash": "worker process dies mid-shard (pool rebuild path)",
    "exec.shard.error": "shard body raises a PipelineError (retry path)",
    "exec.shard.slow": "shard body stalls (deadline/timeout path)",
    "gpusim.device.alloc": "device allocation raises AllocationError "
    "(device-degraded rung: a fresh fusion=False pipeline)",
    "gpusim.device.fail": "a pool device dies outright mid-run "
    "(device-failed rung: the lane retires and surviving lanes/CPU "
    "steal its remaining shards)",
    "formats.soap.record": "a SOAP input line arrives truncated "
    "(FormatError with coordinates; quarantine rung)",
}

#: Fault kinds a spec may schedule at a site.
KINDS = ("error", "crash", "slow", "alloc", "truncate")

#: Sites whose hit ordinal is the executor's retry attempt (the same shard
#: may land on different workers between attempts, so a worker-local
#: counter would re-fire after a crash).  All other sites count hits on
#: the plan's own clock.
_ATTEMPT_ORDERED = ("exec.",)


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Fires at ``site`` for hits with ordinal in ``[after, after + times)``
    whose key matches ``key`` (``None`` = any key).  The ordinal is the
    executor retry attempt for ``exec.*`` sites and the per-spec hit count
    (from the :class:`FaultClock`) everywhere else.
    """

    site: str
    kind: str = "error"
    key: Optional[object] = None
    after: int = 0
    times: int = 1
    #: ``slow``: stall seconds.  ``truncate``: fraction of bytes kept.
    arg: Optional[float] = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; registered sites: "
                + ", ".join(sorted(SITES))
            )
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; valid kinds: "
                + ", ".join(KINDS)
            )
        if self.times < 0 or self.after < 0:
            raise ValueError("after/times must be non-negative")

    def matches(self, key, ctx: dict) -> bool:
        if self.key is None:
            return True
        return self.key == key or self.key == ctx.get("shard")

    def fires_at(self, ordinal: int) -> bool:
        return self.after <= ordinal < self.after + self.times


class FaultClock:
    """Per-spec hit counters — the deterministic notion of "when"."""

    def __init__(self, n_specs: int) -> None:
        self.counts = [0] * n_specs

    def tick(self, spec_idx: int) -> int:
        """Count one hit for a spec; returns the hit's 0-based ordinal."""
        n = self.counts[spec_idx]
        self.counts[spec_idx] = n + 1
        return n


class FaultPlan:
    """A picklable, seeded schedule of :class:`FaultSpec` entries.

    Plain data: the plan ships to worker processes inside the executor's
    worker state, and each process enters its copy with
    :func:`fault_plan`.  Ambient context (shard index, retry attempt) is
    pushed by the executor with :func:`scope`, so deep sites — a device
    allocation five frames below the shard body — still fire against the
    right shard and attempt.
    """

    def __init__(self, specs=(), seed: Optional[int] = None) -> None:
        self.specs: tuple[FaultSpec, ...] = tuple(specs)
        self.seed = seed
        self.clock = FaultClock(len(self.specs))
        self.parent_pid = os.getpid()
        #: Sites that fired, as (site, key, ordinal, kind) — audit trail.
        self.fired: list[tuple] = []

    # -- construction ------------------------------------------------------

    @classmethod
    def generate(
        cls,
        seed: int,
        n_shards: int,
        sites=("exec.worker.crash", "exec.shard.error", "gpusim.device.alloc"),
        max_faults: int = 3,
    ) -> "FaultPlan":
        """Seeded random schedule over ``sites`` targeting ``n_shards``.

        Same seed, same schedule — the CI seed matrix replays bit-for-bit.
        Every generated fault is transient (``times`` ≤ the executor's
        default retry budget), so a hardened pipeline must absorb all of
        them and still produce fault-free bytes.
        """
        rng = np.random.default_rng(seed)
        specs = []
        n = int(rng.integers(1, max_faults + 1))
        for _ in range(n):
            site = str(sites[int(rng.integers(0, len(sites)))])
            shard = int(rng.integers(0, max(1, n_shards)))
            kind = {
                "exec.worker.crash": "crash",
                "exec.shard.error": "error",
                "exec.shard.slow": "slow",
                "gpusim.device.alloc": "alloc",
                "formats.soap.record": "truncate",
            }[site]
            specs.append(
                FaultSpec(
                    site=site, kind=kind, key=shard,
                    times=int(rng.integers(1, 3)),
                    arg=0.05 if kind == "slow" else None,
                )
            )
        return cls(specs, seed=seed)

    def in_worker_process(self) -> bool:
        return os.getpid() != self.parent_pid

    # -- firing ------------------------------------------------------------

    def check(self, site: str, key, value, ctx: dict):
        """Run every matching spec for one hit under the ambient ``ctx``;
        returns (possibly transformed) ``value``.  Faults raise;
        ``truncate`` transforms."""
        for idx, spec in enumerate(self.specs):
            if spec.site != site or not spec.matches(key, ctx):
                continue
            if spec.kind == "alloc" and ctx.get("degraded"):
                # The degraded rerun models a smaller device footprint:
                # allocation succeeds there, or the ladder could never
                # terminate.
                continue
            if site.startswith(_ATTEMPT_ORDERED) and "attempt" in ctx:
                ordinal = int(ctx["attempt"])
            else:
                ordinal = self.clock.tick(idx)
            if not spec.fires_at(ordinal):
                continue
            self.fired.append((site, key, ordinal, spec.kind))
            value = self._fire(spec, site, key, ordinal, value)
        return value

    def _fire(self, spec: FaultSpec, site: str, key, ordinal: int, value):
        where = f"{site}[key={key!r}, hit={ordinal}]"
        if spec.kind == "crash":
            if self.in_worker_process():
                # A real worker process dies outright, exactly like a
                # segfault/OOM-kill: the parent sees a broken pool.
                os._exit(113)
            raise InjectedFault(
                f"injected worker crash at {where}", site=site, key=key
            )
        if spec.kind == "alloc":
            raise AllocationError(f"injected allocation failure at {where}")
        if spec.kind == "slow":
            time.sleep(float(spec.arg or 0.05))
            return value
        if spec.kind == "truncate":
            if isinstance(value, (bytes, bytearray)):
                keep = float(spec.arg) if spec.arg is not None else 0.5
                return bytes(value[: max(0, int(len(value) * keep))])
            return value
        raise InjectedFault(
            f"injected shard failure at {where}", site=site, key=key
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FaultPlan(seed={self.seed}, specs={list(self.specs)!r})"


#: The running job's plan and the ambient context its sites see.
_CURRENT: ContextVar[tuple[Optional[FaultPlan], dict]] = ContextVar(
    "gsnp_fault_plan", default=(None, {})
)


@contextmanager
def fault_plan(plan: Optional[FaultPlan]):
    """``with fault_plan(plan): ...`` — ``plan`` (``None``: no plan) is
    the block's only plan, with no ambient context; restored on exit."""
    token = _CURRENT.set((plan, {}))
    try:
        yield plan
    finally:
        _CURRENT.reset(token)


@contextmanager
def scope(**ctx):
    """Ambient context for the block's deep fault sites."""
    plan, ambient = _CURRENT.get()
    token = _CURRENT.set((plan, {**ambient, **ctx}))
    try:
        yield
    finally:
        _CURRENT.reset(token)


def fault_point(site: str, key=None, value=None, **ctx):
    """The single gate every injected fault passes through.

    Call at a registered site with a stable ``key`` (shard index, line
    number...).  Returns ``value`` unchanged unless an active plan
    schedules a ``truncate`` here; scheduled faults raise or stall
    instead.  With no plan active this is a no-op.
    """
    if site not in SITES:
        raise ValueError(f"unregistered fault site {site!r}")
    plan, ambient = _CURRENT.get()
    if plan is None:
        return value
    return plan.check(site, key, value, {**ambient, **ctx})


def site_planned(site: str) -> bool:
    """True when the running job's plan has a spec at ``site``: a hot
    loop checks once, and calls :func:`fault_point` per item only then."""
    plan, _ = _CURRENT.get()
    return plan is not None and any(s.site == site for s in plan.specs)


__all__ = [
    "FaultClock",
    "FaultPlan",
    "FaultSpec",
    "KINDS",
    "SITES",
    "fault_plan",
    "fault_point",
    "scope",
    "site_planned",
]

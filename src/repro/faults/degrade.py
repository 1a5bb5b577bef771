"""The graceful-degradation ladder: every downgrade announces itself.

The hardening rule this module enforces is *no silent fallbacks*: when the
system steps down a rung — broken pool to serial executor, device fault to
a fresh per-window pipeline, malformed record to quarantine — it must say so
in a form both humans (log line) and machines (typed warning with
structured fields) can consume.

Rungs, from least to most degraded:

========================  =================================================
rung                      trigger -> action
========================  =================================================
``pool-serial-fallback``  multiprocessing unavailable/broken -> run the
                          identical work in-process, serially
``shard-retry``           shard failure/timeout -> deterministic
                          exponential backoff, then re-dispatch
``device-degraded``       device ``AllocationError`` -> re-run the shard
                          in place on a fresh ``fusion=False`` pipeline,
                          released after the shard
``device-failed``         a pool device dies mid-run (multi-device
                          scheduler) -> retire its lane; surviving
                          device/CPU lanes steal the remaining shards, and
                          if every lane dies the coordinator finishes the
                          leftovers on a fresh host-engine pipeline
``record-quarantine``     malformed input record -> append it (with
                          file/line/reason coordinates) to the quarantine
                          file and keep parsing
========================  =================================================

Every rung preserves result semantics except ``record-quarantine``, which
by construction drops data — which is why it is opt-in (``--quarantine``)
and why each quarantined record carries enough coordinates to be replayed.
"""

from __future__ import annotations

import logging
import warnings

logger = logging.getLogger("repro.faults")

#: Known ladder rungs (documentation + validation).
RUNGS = (
    "pool-serial-fallback",
    "shard-retry",
    "device-degraded",
    "device-failed",
    "record-quarantine",
)


class DegradationWarning(UserWarning):
    """A structured "the system stepped down a rung" notice.

    Attributes
    ----------
    rung:
        One of :data:`RUNGS`.
    action:
        What the system is doing instead of the fast path.
    reason:
        Why — including the triggering exception's repr when there is one.
    context:
        Extra machine-readable fields (shard index, file/line, ...).
    """

    def __init__(
        self, rung: str, action: str, reason: str, **context
    ) -> None:
        self.rung = rung
        self.action = action
        self.reason = reason
        self.context = dict(context)
        ctx = "".join(f" {k}={v!r}" for k, v in sorted(self.context.items()))
        super().__init__(f"[{rung}] {action} — {reason}{ctx}")


def degrade(rung: str, action: str, reason: str, **context) -> None:
    """Emit one downgrade notice as a warning *and* a log record."""
    if rung not in RUNGS:
        raise ValueError(
            f"unknown degradation rung {rung!r}; valid rungs: "
            + ", ".join(RUNGS)
        )
    w = DegradationWarning(rung, action, reason, **context)
    warnings.warn(w, stacklevel=2)
    logger.warning(str(w))


__all__ = ["DegradationWarning", "RUNGS", "degrade", "logger"]

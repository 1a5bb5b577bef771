"""Exception hierarchy for the GSNP reproduction."""

from __future__ import annotations


class GsnpError(Exception):
    """Base class for all errors raised by this package."""


class DeviceError(GsnpError):
    """Raised on invalid use of the simulated GPU device."""


class AllocationError(DeviceError):
    """Raised when a device allocation exceeds the configured memory."""


class KernelError(DeviceError):
    """Raised when a simulated kernel is launched with an invalid config."""


class SanitizerError(DeviceError):
    """Raised by ``Device(sanitize=True)`` when a kernel violates the
    simulator's memory discipline (races, hazards, uninitialized reads).

    Carries the structured :class:`repro.analyze.sanitize.SanitizerIssue`
    list so tooling can report warp/lane pairs without parsing messages.
    """

    def __init__(self, message: str, issues=()):
        super().__init__(message)
        self.issues = list(issues)


class FormatError(GsnpError):
    """Raised when an input file does not conform to its declared format."""


class CodecError(GsnpError):
    """Raised when compressed data cannot be decoded.

    ``offset`` is the byte position of the damaged region in the buffer
    being decoded and ``column`` names the region (a container column, or
    a header field); both are part of the message when known, so a
    corrupt result file can be located without a debugger.
    """

    def __init__(
        self, reason: str, *, offset: int | None = None,
        column: str | None = None,
    ) -> None:
        where = [f"column {column!r}"] if column is not None else []
        if offset is not None:
            where.append(f"byte {offset}")
        super().__init__(
            f"{', '.join(where)}: {reason}" if where else reason
        )
        self.reason = reason
        self.offset = offset
        self.column = column


class PipelineError(GsnpError):
    """Raised when pipeline components are used out of order."""


class InjectedFault(GsnpError):
    """A fault deliberately raised by the chaos layer (:mod:`repro.faults`).

    Carries the registered injection ``site`` and the ``key`` (shard
    index, line number, ...) it fired at, so harnesses can assert which
    scheduled faults actually triggered.
    """

    def __init__(self, message: str, *, site: str = "", key=None) -> None:
        super().__init__(message)
        self.site = site
        self.key = key


class ShardTimeout(GsnpError):
    """A shard overran its deadline; the executor killed and retried it."""

    def __init__(
        self, message: str, *, shard_index: int = -1, deadline: float = 0.0
    ) -> None:
        super().__init__(message)
        self.shard_index = shard_index
        self.deadline = deadline


class ShardError(GsnpError):
    """Raised when a shard keeps failing after its retry budget.

    Carries the shard context so operators can pinpoint the genomic range
    that poisoned the run.
    """

    def __init__(
        self, message: str, *, shard_index: int = -1,
        site_range: tuple[int, int] = (0, 0), attempts: int = 0,
    ) -> None:
        super().__init__(message)
        self.shard_index = shard_index
        self.site_range = site_range
        self.attempts = attempts

"""gsnp-serve: a resident SNP-calling service behind the JobSpec API.

The one-shot CLI pays the paper's setup costs — input parsing, the
``cal_p_matrix`` calibration pass, the device score-table upload — on
every invocation.  This package keeps a daemon resident so those costs
are paid once per *dataset*: :class:`GsnpServer` listens on a Unix
socket, admits :class:`~repro.api.JobSpec` jobs through a multi-tenant
priority scheduler, executes them on worker threads with cross-job
caches (:class:`ResidentRunner`), and streams results back to
:class:`ServeClient` (``gsnp submit``).

Guarantees: served output is bitwise identical to the one-shot CLI
(jobs route through the sharded executor's parity-checked path), and a
daemon killed mid-job resumes it on restart from the job ledger plus
shard journal — still bitwise identical.
"""

from .client import ServeClient, SubmitResult, wait_for_server
from .daemon import GsnpServer, ServeConfig
from .protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_chunk,
    encode_chunks,
    read_message,
    write_message,
)
from .runner import (
    CalibrationCache,
    DatasetCache,
    ResidentRunner,
    RunOutcome,
    job_summary,
    write_job_output,
)
from .scheduler import AdmissionError, Job, JobScheduler, JobState

__all__ = [
    "AdmissionError",
    "CalibrationCache",
    "DatasetCache",
    "GsnpServer",
    "Job",
    "JobScheduler",
    "JobState",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ResidentRunner",
    "RunOutcome",
    "ServeClient",
    "ServeConfig",
    "SubmitResult",
    "decode_chunk",
    "encode_chunks",
    "job_summary",
    "read_message",
    "wait_for_server",
    "write_job_output",
    "write_message",
]

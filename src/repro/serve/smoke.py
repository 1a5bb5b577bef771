"""Self-contained serve smoke test (the CI ``serve-smoke`` job).

``gsnp-serve --smoke`` runs a full service scenario in-process against a
freshly simulated dataset and asserts the tentpole guarantees:

* two identical jobs (different tenants) produce output bytes **bitwise
  identical** to a one-shot ``gsnp call`` over the same inputs;
* an over-quota submission is rejected at admission with ``code=quota``;
* a repeated job hits the resident caches — nonzero calibration-cache and
  device score-table hit counters in ``/stats``;
* the daemon drains and shuts down cleanly (socket removed).

Everything runs in a temporary directory with one worker thread, so the
scenario is deterministic: the first job carries a short injected
``exec.shard.slow`` stall, guaranteeing it is still live when the same
tenant's second submission arrives.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from ..faults.plan import FaultPlan, FaultSpec

#: Window used by every smoke job (3 shards over the smoke dataset).
SMOKE_WINDOW = 400

#: Sites in the simulated smoke dataset.
SMOKE_SITES = 1200


def _write_inputs(root: Path) -> tuple[str, str, str]:
    from ..align.records import AlignmentBatch
    from ..formats.fasta import write_fasta
    from ..formats.prior import write_prior
    from ..formats.soap import write_soap
    from ..seqsim.datasets import DatasetSpec, generate_dataset

    ds = generate_dataset(DatasetSpec(
        name="chrServe", n_sites=SMOKE_SITES, depth=8.0, coverage=0.9,
        read_len=60, seed=11,
    ))
    fasta = str(root / "smoke.fa")
    soap = str(root / "smoke.soap")
    prior = str(root / "smoke.prior")
    write_fasta(fasta, [ds.reference])
    write_soap(soap, AlignmentBatch.from_read_set(ds.reads))
    write_prior(prior, ds.reference.name, ds.prior)
    return fasta, soap, prior


def run_smoke(keep_dir=None, verbose: bool = True) -> dict:
    """Run the serve smoke scenario; returns a report with ``ok``."""
    from ..api import JobSpec
    from ..cli import main_call
    from .client import ServeClient, wait_for_server
    from .daemon import GsnpServer, ServeConfig

    root = Path(keep_dir) if keep_dir else Path(tempfile.mkdtemp(
        prefix="gsnp-serve-smoke-"
    ))
    root.mkdir(parents=True, exist_ok=True)
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, passed: bool, detail: str = "") -> None:
        checks.append((name, bool(passed), detail))
        if verbose:
            print(f"  [{'ok' if passed else 'FAIL'}] {name}"
                  + (f" — {detail}" if detail else ""))

    server = None
    try:
        fasta, soap, prior = _write_inputs(root)

        # One-shot CLI reference bytes (the parity baseline).
        ref_out = str(root / "ref.cns")
        rc = main_call([
            fasta, soap, "--prior", prior,
            "--window", str(SMOKE_WINDOW), "-o", ref_out,
        ])
        check("one-shot gsnp call", rc == 0)
        ref_bytes = Path(ref_out).read_bytes()

        sock = str(root / "s.sock")
        server = GsnpServer(ServeConfig(
            socket_path=sock,
            state_dir=str(root / "state"),
            workers=1,
            max_queued=8,
            tenant_quota=1,
        ))
        server.start()
        check("daemon up", wait_for_server(sock, timeout=10.0))
        client = ServeClient(sock)

        def spec_for(out_name, faults=None) -> JobSpec:
            return JobSpec(
                fasta=fasta, soap=soap, prior=prior,
                window=SMOKE_WINDOW, output=str(root / out_name),
                faults=faults,
            )

        # Job 1 (tenant alpha) carries a short injected stall so it is
        # still live when alpha's second submission arrives.
        stall = FaultPlan((FaultSpec(
            site="exec.shard.slow", kind="slow", key=0, times=1, arg=0.5,
        ),))
        r1 = client.submit(spec_for("out1.cns", faults=stall),
                           tenant="alpha", wait=False)
        check("job1 accepted", r1.status == "accepted", r1.error or "")
        over = client.submit(spec_for("out3.cns"), tenant="alpha",
                             wait=False)
        check(
            "over-quota rejected",
            over.status == "rejected" and over.code == "quota",
            f"status={over.status} code={over.code}",
        )
        r2 = client.submit(spec_for("out2.cns"), tenant="beta", wait=False)
        check("job2 accepted", r2.status == "accepted", r2.error or "")
        w1 = client.wait(r1.job_id)
        w2 = client.wait(r2.job_id)
        check("job1 done", w1.status == "done", w1.error or "")
        check("job2 done", w2.status == "done", w2.error or "")

        # Repeated job: same dataset, third tenant — must hit the caches.
        r4 = client.submit(spec_for("out4.cns"), tenant="gamma")
        check("repeat job done", r4.status == "done", r4.error or "")

        for name in ("out1.cns", "out2.cns", "out4.cns"):
            served = (root / name).read_bytes()
            check(
                f"parity {name}",
                served == ref_bytes,
                f"{len(served)} vs {len(ref_bytes)} bytes",
            )

        stats = client.stats()
        cal = stats["runner"]["calibration"]
        check(
            "calibration cache hit",
            cal["hits"] >= 1,
            f"hits={cal['hits']} misses={cal['misses']}",
        )
        resident = stats["resident"]
        check(
            "score-table residency hit",
            resident["table_hits"] >= 1,
            f"hits={resident['table_hits']} "
            f"misses={resident['table_misses']}",
        )
        sched = stats["scheduler"]
        check(
            "scheduler counters",
            sched["completed"] == 3 and sched["rejected"] == 1,
            f"completed={sched['completed']} rejected={sched['rejected']}",
        )

        bye = client.shutdown(drain=True)
        check("clean shutdown", bye.get("event") == "bye")
        server.close()
        server = None
        check("socket removed", not Path(sock).exists())
    finally:
        if server is not None:
            server.close()
        if keep_dir is None:
            shutil.rmtree(root, ignore_errors=True)

    ok = all(passed for _, passed, _ in checks)
    return {
        "ok": ok,
        "checks": [
            {"name": n, "ok": p, "detail": d} for n, p, d in checks
        ],
        "dir": str(root) if keep_dir else None,
    }


__all__ = ["SMOKE_SITES", "SMOKE_WINDOW", "run_smoke"]

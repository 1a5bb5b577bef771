"""The four benchmark workloads: frozen sizes, seeded inputs, one job each.

Why each workload exists is recorded once, in ``BENCHMARK.json``'s ``why``
lines and the README table.  Every workload runs ``engine="gsnp"`` and leaves every ``JobSpec`` field it
does not name at the default *of the commit under test*, so a later
"change the default" PR shows up as a gain instead of being masked.

Sizes are frozen here (and quoted in ``BENCHMARK.json``'s ``why`` lines).
They were shrunk from the issue's prototype sizes until one repetition
takes 1-2.5 s on the 2-core sandbox, so that five set-ups plus 1 cold + 7
timed repetitions fit the driver's per-run budget; window sizes, the
sample count and the repetition count were kept.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

#: Sequencing regimes of the paper's Table II (depth, coverage ratio).
REGIMES = {"ch1": (11.0, 0.87), "ch21": (9.6, 0.67)}

#: Planted SNP density: 3x the human rate.  At 1/1000 scale the default
#: 1e-3 plants a few dozen SNPs, and recall then jumps ~3 % per missed site
#: between seeds; depth, coverage and the quality profile are untouched.
SNP_RATE = 3e-3

#: Reported SNP calls are those with consensus quality >= this (the
#: ``gsnp-call`` default ``--min-quality``).
CALL_MIN_QUALITY = 13


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: inputs to generate and the job to run."""

    name: str
    regime: str
    n_sites: int
    #: JobSpec fields that differ from the defaults (in-memory workloads),
    #: or the ``gsnp-call`` flags (file workload).
    job: dict = field(default_factory=dict)
    n_samples: int = 1
    via_files: bool = False
    #: Accuracy floors (precision, recall) at full size; calls are scored
    #: against planted SNPs at covered sites.  Set ~0.1 below the lowest
    #: value seen over seeds 0-19 so only a real accuracy loss trips them.
    floors: tuple = (0.0, 0.0)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solo-smallwin",
            regime="ch1",
            n_sites=36_000,
            job={"window": 3_000},
            floors=(0.90, 0.70),
        ),
        Workload(
            name="solo-bigwin",
            regime="ch1",
            n_sites=60_000,
            job={},
            floors=(0.90, 0.70),
        ),
        Workload(
            name="cohort-pool",
            regime="ch1",
            n_sites=12_000,
            job={
                "window": 1_500, "fusion": True, "devices": 2,
                "cpu_steal": True,
            },
            n_samples=4,
            floors=(0.90, 0.65),
        ),
        Workload(
            name="files-sharded",
            regime="ch21",
            n_sites=48_000,
            job={"window": 3_000, "workers": 2},
            via_files=True,
            floors=(0.90, 0.65),
        ),
    )
}


@dataclass
class Inputs:
    """Seeded inputs of one workload (what the program receives)."""

    workload: Workload
    n_sites: int
    dataset: object
    #: Cohort alignment batches, sample 0 first (None for solo jobs).
    batches: Optional[list] = None
    fasta: Optional[Path] = None
    soap: Optional[Path] = None
    out: Optional[Path] = None


@dataclass
class Outcome:
    """What one repetition delivered to its user."""

    #: The library's result object (GsnpResult or CohortResult).
    result: object
    #: Per-sample result tables as the user receives them (decoded from
    #: the written file for the file workload).
    tables: list
    #: Per-sample compressed output streams.
    blobs: list
    #: The output file the job wrote, if any.
    out_path: Optional[Path] = None


def sizes(workload: Workload) -> dict:
    """The frozen sizes of a workload (run-record form)."""
    return {
        "regime": workload.regime,
        "n_sites": workload.n_sites,
        "n_samples": workload.n_samples,
        "job": dict(workload.job),
    }


def prepare(workload: Workload, seed: int, scale: int, workdir: Path) -> Inputs:
    """Generate (and for the file workload, write) the seeded inputs."""
    from repro.align.records import AlignmentBatch
    from repro.seqsim import DatasetSpec, generate_dataset, simulate_reads

    depth, coverage = REGIMES[workload.regime]
    n_sites = workload.n_sites // scale
    dataset = generate_dataset(DatasetSpec(
        name=f"{workload.regime}-bench", n_sites=n_sites, depth=depth,
        coverage=coverage, snp_rate=SNP_RATE, seed=seed,
    ))
    inputs = Inputs(workload=workload, n_sites=n_sites, dataset=dataset)
    if workload.n_samples > 1:
        # Sample 0 is the dataset's own reads; the others re-sequence the
        # same individual with read seeds derived from --seed.
        read_sets = [dataset.reads] + [
            simulate_reads(
                dataset.diploid, depth=depth, coverage=coverage,
                seed=seed * 7 + 3 + 101 * i,
            )
            for i in range(1, workload.n_samples)
        ]
        inputs.batches = [AlignmentBatch.from_read_set(r) for r in read_sets]
    if workload.via_files:
        from repro.formats.fasta import write_fasta
        from repro.formats.soap import write_soap

        inputs.fasta = workdir / "ref.fa"
        inputs.soap = workdir / "reads.soap"
        inputs.out = workdir / "calls.gsnp"
        write_fasta(inputs.fasta, [dataset.reference])
        write_soap(inputs.soap, AlignmentBatch.from_read_set(dataset.reads))
    return inputs


@contextlib.contextmanager
def _captured_job_result():
    """Hand the result object ``gsnp-call`` builds back to the benchmark.

    ``main_call`` returns only an exit code, and the modeled clock and the
    simulated counters live on the result, so tap the public
    ``write_job_output`` it passes the result to.
    """
    import repro.serve.runner as runner

    inner = runner.write_job_output
    box: list = []

    def tap(result, spec):
        box.append(result)
        return inner(result, spec)

    runner.write_job_output = tap
    try:
        yield box
    finally:
        runner.write_job_output = inner


def run_job(inputs: Inputs) -> Outcome:
    """Run one complete calling job (the timed region)."""
    workload = inputs.workload
    if workload.via_files:
        from repro.cli import main_call
        from repro.compress.reader import CompressedResultReader

        argv = [str(inputs.fasta), str(inputs.soap)]
        for key, value in workload.job.items():
            argv += [f"--{key.replace('_', '-')}", str(value)]
        argv += ["--compressed", "-o", str(inputs.out)]
        with _captured_job_result() as box:
            with contextlib.redirect_stdout(io.StringIO()):
                code = main_call(argv)
        if code != 0 or len(box) != 1:
            raise RuntimeError(f"gsnp-call exited {code}")
        decoded = CompressedResultReader(inputs.out).read_all()
        result = box[0]
        return Outcome(
            result=result, tables=[decoded],
            blobs=[result.compressed_output], out_path=inputs.out,
        )

    from repro import GsnpDetector
    from repro.api import JobSpec

    detector = GsnpDetector(spec=JobSpec(**workload.job))
    detector.sample_batches = inputs.batches
    result = detector.run(inputs.dataset)
    members = result.samples if inputs.batches is not None else [result]
    return Outcome(
        result=result,
        tables=[m.table for m in members],
        blobs=[m.compressed_output for m in members],
    )

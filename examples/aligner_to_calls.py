#!/usr/bin/env python
"""Full substrate path: raw machine reads -> aligner -> SNP calls.

The benchmark datasets feed simulation-derived alignments straight into the
callers; this example instead exercises the *alignment* substrate: it takes
the reads as the sequencer emitted them (machine orientation, no
positions), aligns them with the pigeonhole k-mer aligner, writes/reads the
SOAP text format, and calls SNPs from that — the same file-level contract
the original SOAPsnp/GSNP operate under.

Run:  python examples/aligner_to_calls.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro import DatasetSpec, Engine, GsnpDetector, generate_dataset
from repro.align import Aligner
from repro.core.detector import dataset_from_alignments
from repro.formats.soap import read_soap, write_soap
from repro.seqsim.reads import reverse_complement_view


def main() -> None:
    dataset = generate_dataset(
        DatasetSpec(name="chrAln", n_sites=15_000, depth=12.0, coverage=1.0,
                    snp_rate=1.5e-3, multihit_fraction=0.0, seed=44)
    )

    # 1. Recover the machine-orientation reads (what a FASTQ would hold).
    rs = dataset.reads
    machine_reads = np.empty_like(rs.bases)
    machine_quals = np.empty_like(rs.quals)
    for i in range(rs.n_reads):
        machine_reads[i], machine_quals[i] = reverse_complement_view(rs, i)

    # 2. Align them against the reference from scratch.
    aligner = Aligner(dataset.reference, seed_len=13, max_mismatches=3)
    batch = aligner.align_batch(machine_reads, machine_quals)
    print(
        f"aligned {batch.n_reads}/{rs.n_reads} reads "
        f"({100 * batch.n_reads / rs.n_reads:.1f}%); "
        f"{int((batch.hits == 1).sum())} unique"
    )
    placed = np.isin(batch.pos, rs.pos).mean()
    print(f"placement agreement with simulation truth: {100 * placed:.1f}%")

    # 3. Round-trip through the SOAP alignment text format.
    workdir = Path(tempfile.mkdtemp(prefix="gsnp_aln_"))
    soap_path = workdir / "aligned.soap"
    nbytes = write_soap(soap_path, batch)
    print(f"wrote {nbytes} bytes of SOAP alignments to {soap_path}")
    batch2 = read_soap(soap_path)

    # 4. Call SNPs from the aligner's output (dataset_from_alignments
    # wraps the parsed batch; parsed inputs carry no truth), then score
    # the calls against the simulated dataset that planted the SNPs.
    aligned_dataset = dataset_from_alignments(
        dataset.reference, batch2, prior=dataset.prior
    )
    detector = GsnpDetector(engine=Engine.GSNP_CPU, min_quality=13)
    result = detector.run(aligned_dataset)
    acc = detector.score(result.table, dataset, min_quality=13)
    print(
        f"\ncalls from aligner output: precision={acc.precision:.2f} "
        f"recall={acc.recall:.2f} "
        f"(TP={acc.true_positives} FP={acc.false_positives} "
        f"FN={acc.false_negatives})"
    )


if __name__ == "__main__":
    main()

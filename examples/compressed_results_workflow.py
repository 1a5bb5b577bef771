#!/usr/bin/env python
"""Downstream workflow on compressed GSNP output (Section V-B).

Runs GSNP, writes the compressed result file, then uses the decompression
APIs the way a downstream analysis would: sequential scan, range queries,
SNP-only extraction — and compares storage against SOAPsnp text and gzip.

Run:  python examples/compressed_results_workflow.py
"""

import tempfile
import time
from pathlib import Path

from repro import DatasetSpec, GsnpDetector, generate_dataset
from repro.compress import CompressedResultReader, gzip_compress
from repro.constants import BASES, GENOTYPES, GENOTYPE_IUPAC
from repro.formats.cns import format_rows
from repro.serve import write_job_output


def main() -> None:
    dataset = generate_dataset(
        DatasetSpec(name="chrC", n_sites=40_000, depth=10.0, coverage=0.88,
                    seed=21)
    )
    workdir = Path(tempfile.mkdtemp(prefix="gsnp_demo_"))
    out_path = workdir / "result.gsnp"

    detector = GsnpDetector(
        engine="gsnp", window=8000, output=str(out_path), compressed=True
    )
    result = detector.run(dataset)
    write_job_output(result, detector.spec)

    # --- storage comparison (Fig 9a shape) -------------------------------
    text = format_rows(result.table)
    gz = gzip_compress(text)
    print("output storage:")
    print(f"  SOAPsnp text : {len(text):>9d} bytes")
    print(f"  text + gzip  : {len(gz):>9d} bytes "
          f"({len(text) / len(gz):.1f}x smaller)")
    print(f"  GSNP columnar: {result.output_bytes:>9d} bytes "
          f"({len(text) / result.output_bytes:.1f}x smaller)")

    # --- sequential scan ---------------------------------------------------
    reader = CompressedResultReader(out_path)
    t0 = time.perf_counter()
    n_rows = sum(t.n_sites for t in reader)
    dt = time.perf_counter() - t0
    print(f"\nsequential scan: {n_rows} rows decoded in {dt * 1000:.1f} ms")

    # --- range query ---------------------------------------------------------
    window = reader.query_range(10_000, 10_050)
    print(f"\nrange [10000, 10050): {window.n_sites} rows, "
          f"mean depth {window.depth.mean():.1f}")

    # --- SNP extraction ---------------------------------------------------
    snps = reader.query_snps()
    print(f"\n{snps.n_sites} SNP rows:")
    for i in range(min(snps.n_sites, 10)):
        g = GENOTYPE_IUPAC[GENOTYPES[int(snps.genotype[i])]]
        print(
            f"  pos {int(snps.pos[i]):>7d}  "
            f"{BASES[int(snps.ref_base[i])]} -> {g}  "
            f"q={int(snps.quality[i])}  known={int(snps.known_snp[i])}"
        )
    print(f"\n(files under {workdir})")


if __name__ == "__main__":
    main()

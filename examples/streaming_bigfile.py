#!/usr/bin/env python
"""Stream a large SOAP alignment file window by window.

The production input is hundreds of gigabytes — far beyond memory.  This
example writes a SOAP file to disk, then processes it with
:class:`~repro.formats.stream.StreamingSoapReader`: only the reads
overlapping the current window are ever resident, and the per-window
results are compressed and appended incrementally, so peak memory is
O(window), not O(file).

Run:  python examples/streaming_bigfile.py
"""

import tempfile
from pathlib import Path

from repro import DatasetSpec, generate_dataset
from repro.compress import CompressedResultReader, encode_table
from repro.formats.soap import write_soap
from repro.formats.stream import StreamingSoapReader
from repro.soapsnp import (
    CallingParams,
    build_p_matrix,
    extract_observations,
    flatten_p_matrix,
    is_snp_call,
    summarize_window,
    window_type_likely,
)


def main() -> None:
    dataset = generate_dataset(
        DatasetSpec(name="chrBig", n_sites=60_000, depth=10.0,
                    coverage=0.9, seed=55)
    )
    workdir = Path(tempfile.mkdtemp(prefix="gsnp_stream_"))
    soap_path = workdir / "aligned.soap"
    batch = dataset.reads
    nbytes = write_soap(soap_path, batch)
    print(f"input file: {nbytes / 1e6:.1f} MB, {batch.n_reads} reads")

    # Pass 1 (cal_p_matrix): calibrate from the full input.
    params = CallingParams(read_len=batch.read_len)
    pm_flat = flatten_p_matrix(
        build_p_matrix(batch, dataset.reference, params)
    )
    penalty = params.penalty_table()

    # Pass 2 (read_site): stream windows, call, compress, append.
    out_path = workdir / "result.gsnp"
    reader = StreamingSoapReader(soap_path, dataset.n_sites, 8000)
    n_snps = 0
    max_resident = 0
    with open(out_path, "wb") as out:
        for window in reader:
            max_resident = max(max_resident, window.reads.n_reads)
            obs = extract_observations(window)
            tl = window_type_likely(obs, pm_flat, penalty)
            table = summarize_window(
                obs, window.start,
                dataset.reference.codes[window.start : window.end],
                dataset.prior, tl, params, chrom=dataset.reference.name,
            )
            n_snps += int(is_snp_call(table).sum())
            out.write(encode_table(table))
    print(
        f"streamed {reader.n_windows} windows "
        f"(max {max_resident} reads resident of {batch.n_reads} total); "
        f"{n_snps} SNP rows"
    )
    print(
        f"compressed result: {out_path.stat().st_size / 1e6:.2f} MB "
        f"({nbytes / out_path.stat().st_size:.1f}x smaller than the input)"
    )

    # Downstream query straight off the compressed file.
    snps = CompressedResultReader(out_path).query_snps()
    print(f"reader confirms {snps.n_sites} SNP rows; files in {workdir}")
    assert snps.n_sites == n_snps


if __name__ == "__main__":
    main()

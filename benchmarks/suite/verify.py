"""Per-repetition output verification against an independent engine.

The oracle is the serial ``gsnp_cpu`` engine (§IV-G: every engine must
produce identical tables), computed once per workload in set-up.  Each
repetition is then checked four ways: the delivered table equals the
oracle's, the compressed stream decodes back to the same table, the file
on disk is byte-identical to that stream, and the calls score at or above
the workload's accuracy floors against the planted SNPs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from workloads import CALL_MIN_QUALITY, Inputs, Outcome


@dataclass
class Score:
    precision: float
    recall: float


def build_oracle(inputs: Inputs) -> list:
    """Per-sample oracle tables from a serial ``gsnp_cpu`` run.

    Cohort members are called solo against the *pooled* calibration —
    exactly what the cohort path promises each member.  The file workload
    parses the written files itself, so the oracle sees what the job saw
    (no prior file, reference name from the FASTA header).
    """
    from repro.api import JobSpec, create_pipeline

    pipe = create_pipeline(spec=JobSpec(engine="gsnp_cpu"))
    if inputs.batches is not None:
        from repro.core.cohort import pooled_batch

        cal = pipe.calibrate(inputs.dataset, reads=pooled_batch(inputs.batches))
        return [
            pipe.run(inputs.dataset, calibration=cal, reads=batch).table
            for batch in inputs.batches
        ]
    dataset = inputs.dataset
    if inputs.workload.via_files:
        from repro.core.detector import dataset_from_files

        dataset = dataset_from_files(inputs.fasta, inputs.soap)
    return [pipe.run(dataset).table]


def decode_stream(blob: bytes):
    """Decode a compressed result stream (window blocks back to back)."""
    from repro.compress.columnar import decode_table

    table, offset = decode_table(blob, 0)
    while offset < len(blob):
        block, offset = decode_table(blob, offset)
        table = table.concat(block)
    return table


def score_calls(table, dataset) -> Score:
    """Precision/recall of reported calls vs planted SNPs at covered sites."""
    from repro.soapsnp.posterior import is_snp_call

    called = np.zeros(dataset.n_sites, dtype=bool)
    mask = is_snp_call(table) & (table.quality >= CALL_MIN_QUALITY)
    called[table.pos[mask] - 1] = True
    covered = np.zeros(dataset.n_sites, dtype=bool)
    covered[table.pos[table.depth > 0] - 1] = True
    truth = np.zeros(dataset.n_sites, dtype=bool)
    truth[dataset.diploid.snp_positions] = True
    truth &= covered
    tp = int((called & truth).sum())
    n_called = int(called.sum())
    n_truth = int(truth.sum())
    return Score(
        precision=tp / n_called if n_called else 1.0,
        recall=tp / n_truth if n_truth else 1.0,
    )


def check(outcome: Outcome, oracle: list, inputs: Inputs,
          enforce_floors: bool) -> tuple[list, Score]:
    """Verify one repetition; returns (failure messages, mean score)."""
    failures = []
    if len(outcome.tables) != len(oracle):
        return [f"{len(outcome.tables)} samples, expected {len(oracle)}"], Score(0.0, 0.0)
    for i, (table, blob, want) in enumerate(
        zip(outcome.tables, outcome.blobs, oracle)
    ):
        if not table.equals(want):
            failures.append(f"sample {i}: table differs from gsnp_cpu oracle")
        try:
            if not decode_stream(blob).equals(want):
                failures.append(f"sample {i}: compressed_output decodes to "
                                "a different table")
        except Exception as exc:  # any decoder failure is a failed repetition
            failures.append(f"sample {i}: compressed_output does not decode: "
                            f"{exc!r}")
    if outcome.out_path is not None:
        if outcome.out_path.read_bytes() != outcome.blobs[0]:
            failures.append("file on disk differs from compressed_output")
    scores = [score_calls(t, inputs.dataset) for t in outcome.tables]
    score = Score(
        precision=float(np.mean([s.precision for s in scores])),
        recall=float(np.mean([s.recall for s in scores])),
    )
    if enforce_floors:
        p_floor, r_floor = inputs.workload.floors
        if score.precision < p_floor:
            failures.append(f"snp_precision {score.precision:.3f} below "
                            f"floor {p_floor}")
        if score.recall < r_floor:
            failures.append(f"snp_recall {score.recall:.3f} below "
                            f"floor {r_floor}")
    return failures, score

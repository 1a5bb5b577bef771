"""Runtime calibration of the static coalescing verdicts.

``gsnp audit --calibrate`` is the soundness test that keeps the static
analyzer honest: it installs a per-op observer on the simulator
(:func:`repro.gpusim.kernel.set_op_observer`), replays the tier-1 kernel
surface — the GSNP pipeline in its optimized and fused configurations
plus direct micro-probes of every device primitive — under the runtime
sanitizer, and asserts that **every op the audit proved coalesced stays
within the transaction bound its verdict implies**:

* stride 0 (broadcast): at most ``1`` segment transaction per active
  warp (elements never straddle 128-byte segments — ``segment_bytes``
  is a multiple of every itemsize);
* stride ``±1``: the warp's footprint spans
  ``(warp_size - 1) * |s| + 1`` elements, i.e. at most
  ``ceil(span_bytes / segment_bytes) + 1`` segments per active warp
  (the ``+1`` covers arbitrary alignment of the warp's base address).

Observed transactions above the bound mean the abstract interpretation
claimed an access pattern the hardware model disagrees with — a bug in
the analyzer, by definition, since ``count_transactions`` *is* the
ground truth the paper's Table III numbers come from.  Gather/strided/
unproven verdicts make no upper-bound claim and are not checked.

Static ops the replay never executes are reported as coverage notes,
not failures: the audit is exactly as useful on launch paths the tier-1
datasets skip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from ..gpusim.kernel import OpRecord, set_op_observer
from ..gpusim.pool import acquire_device
from .dataflow import OpVerdict, VERDICT_COALESCED, collect_op_verdicts

#: Line-distance tolerance when matching a runtime frame to a static op
#: (multi-line call expressions report the opening line in both, but the
#: tolerance keeps the match robust to formatting).
_LINE_TOLERANCE = 3


@dataclass(frozen=True)
class CalibrationMismatch:
    """One proven-coalesced op that exceeded its transaction bound."""

    file: str
    line: int
    kind: str
    array: str
    kernel: str
    stride: int
    tx: int
    bound: int
    warps: int

    def format(self) -> str:
        return (
            f"{self.file}:{self.line}: {self.kind} on '{self.array}' in "
            f"kernel '{self.kernel}' proven coalesced (stride {self.stride}) "
            f"but issued {self.tx} transactions across {self.warps} warps "
            f"(bound {self.bound})"
        )


@dataclass
class CalibrationReport:
    """Outcome of one calibration replay."""

    records: int = 0            # runtime op records observed
    matched: int = 0            # records matched to a static op
    checked: int = 0            # records checked against a coalesced bound
    agreements: int = 0
    mismatches: list[CalibrationMismatch] = field(default_factory=list)
    coalesced_ops: int = 0      # static coalesced ops in the audited paths
    observed_ops: int = 0       # of those, ops hit by at least one record
    unobserved: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches and self.checked > 0

    def summary(self) -> str:
        cov = (
            f"{self.observed_ops}/{self.coalesced_ops}"
            if self.coalesced_ops else "0/0"
        )
        return (
            f"calibration: {self.records} runtime ops, {self.matched} "
            f"matched to static ops, {self.checked} checked against "
            f"coalescing bounds, {self.agreements} within bound, "
            f"{len(self.mismatches)} mismatches; static coalesced-op "
            f"coverage {cov}"
        )

    def to_dict(self) -> dict[str, object]:
        return {
            "records": self.records,
            "matched": self.matched,
            "checked": self.checked,
            "agreements": self.agreements,
            "mismatches": [m.format() for m in self.mismatches],
            "coalesced_op_coverage": [self.observed_ops, self.coalesced_ops],
            "unobserved": list(self.unobserved),
            "ok": self.ok,
        }


def transaction_bound(
    stride: int, warp_size: int, itemsize: int, segment_bytes: int,
) -> int:
    """Max 128-byte-segment transactions one active warp can issue for a
    coalesced access of the given concrete |stride|."""
    if stride == 0:
        return 1
    span_bytes = ((warp_size - 1) * stride + 1) * itemsize
    return -(-span_bytes // segment_bytes) + 1


def _match_static(
    verdicts: dict[tuple[str, int], list[OpVerdict]],
    rec: OpRecord,
) -> Optional[OpVerdict]:
    """Find the static op a runtime record corresponds to."""
    fname = str(Path(rec.file).resolve())
    exact = verdicts.get((fname, rec.line))
    if exact:
        for v in exact:
            if v.kind == rec.kind:
                return v
        return exact[0]
    for delta in range(1, _LINE_TOLERANCE + 1):
        for line in (rec.line - delta, rec.line + delta):
            near = verdicts.get((fname, line))
            if near:
                for v in near:
                    if v.kind == rec.kind:
                        return v
    return None


# ---------------------------------------------------------------------------
# Tier-1 workload replay
# ---------------------------------------------------------------------------

def _run_pipeline_workloads(n_sites: int, seed: int) -> None:
    """The end-to-end tier-1 surface: optimized, fused, and baseline."""
    from ..core.likelihood import BASELINE, OPTIMIZED
    from ..core.pipeline import GsnpPipeline
    from ..seqsim.datasets import DatasetSpec, generate_dataset

    dataset = generate_dataset(DatasetSpec(
        name="chrCal", n_sites=n_sites, depth=10.0, coverage=0.9,
        seed=seed,
    ))
    window = max(256, n_sites // 4)
    for variant, fusion in ((OPTIMIZED, False), (OPTIMIZED, True),
                            (BASELINE, False)):
        # Calibration probes run one isolated sanitized device per
        # variant on purpose; pool link accounting is irrelevant here.
        device = acquire_device(sanitize=True)
        GsnpPipeline(
            window_size=window, mode="gpu", variant=variant, device=device,
            fusion=fusion,
        ).run(dataset)


def _run_primitive_probes(seed: int) -> None:
    """Direct launches of every device primitive the pipeline composes,
    including paths tier-1 datasets may skip (global-memory bitonic,
    standalone scan/reduce/search)."""
    from ..compress.rle_dict import rle_dict_encode_gpu
    from ..gpusim.primitives.reduce import device_reduce, segmented_reduce
    from ..gpusim.primitives.scan import device_exclusive_scan
    from ..gpusim.primitives.search import device_binary_search
    from ..gpusim.primitives.segmented import segmented_dict_indices
    from ..gpusim.primitives.sort import device_radix_sort
    from ..gpusim.primitives.unique import device_unique
    from ..sortnet.batch import batch_sort

    rng = np.random.default_rng(seed)
    # Isolated sanitized probe device: microbenchmark counters must not
    # mix with any pool's shared-link or residency state.
    device = acquire_device(sanitize=True)

    keys = rng.integers(0, 1 << 20, size=2000).astype(np.uint32)
    keys_dev = device.to_device(keys, "cal_keys")
    device_radix_sort(device, keys_dev)

    sorted_keys = np.sort(keys)
    sorted_dev = device.to_device(sorted_keys, "cal_sorted")
    uniq = device_unique(device, sorted_dev)
    needles = device.to_device(
        rng.choice(np.unique(sorted_keys), size=500), "cal_needles"
    )
    device_binary_search(device, needles, uniq)

    vals = device.to_device(
        rng.integers(0, 100, size=1500).astype(np.uint32), "cal_vals"
    )
    device_reduce(device, vals)
    device_exclusive_scan(device, vals)

    bounds = np.sort(rng.choice(np.arange(1, 1500), size=30, replace=False))
    offsets = device.to_device(
        np.concatenate([[0], bounds, [1500]]).astype(np.int64), "cal_offs"
    )
    segmented_reduce(device, vals, offsets)
    segmented_dict_indices(device, [
        rng.integers(0, 64, size=200).astype(np.uint32) for _ in range(4)
    ])

    rle_dict_encode_gpu(
        device, np.repeat(rng.integers(0, 6, size=60), 25).astype(np.uint8)
    )

    # Oversized rows force the global-memory bitonic path (shared tile
    # capacity is 48 KB; 16384 * 4 bytes exceeds it).
    big = rng.integers(0, 1 << 30, size=(2, 16384)).astype(np.uint32)
    batch_sort(device, big, elem_bytes=4)
    # Small rows take the shared-memory tile path.
    small = rng.integers(0, 1 << 16, size=(8, 64)).astype(np.uint32)
    batch_sort(device, small, elem_bytes=4)


def run_calibration(
    paths: Sequence[Union[str, Path]],
    n_sites: int = 1500,
    seed: int = 20110711,
    workloads: bool = True,
    probes: bool = True,
) -> CalibrationReport:
    """Replay tier-1 kernels and check every proven coalescing verdict.

    ``paths`` are the audited sources (the same argument ``gsnp audit``
    received); runtime ops from files outside them are ignored.
    """
    verdicts = collect_op_verdicts(paths)
    records: list[OpRecord] = []
    prev = set_op_observer(records.append)
    try:
        if workloads:
            _run_pipeline_workloads(n_sites, seed)
        if probes:
            _run_primitive_probes(seed)
    finally:
        set_op_observer(prev)

    report = CalibrationReport(records=len(records))
    observed_keys: set[tuple[str, int, int]] = set()
    for rec in records:
        v = _match_static(verdicts, rec)
        if v is None:
            continue
        report.matched += 1
        observed_keys.add((str(Path(v.path).resolve()), v.line, v.col))
        if v.verdict != VERDICT_COALESCED or v.stride is None:
            continue
        if rec.kind == "cload":
            continue  # constant cache: no transaction counting to check
        bound = rec.warps * transaction_bound(
            v.stride, rec.warp_size, rec.itemsize, rec.segment_bytes
        )
        report.checked += 1
        if rec.tx <= bound:
            report.agreements += 1
        else:
            report.mismatches.append(CalibrationMismatch(
                file=rec.file, line=rec.line, kind=rec.kind,
                array=rec.array, kernel=rec.kernel, stride=v.stride,
                tx=rec.tx, bound=bound, warps=rec.warps,
            ))

    for (fname, line), ops in sorted(verdicts.items()):
        for v in ops:
            if v.verdict != VERDICT_COALESCED or v.kind == "cload":
                continue
            report.coalesced_ops += 1
            if (fname, line, v.col) in observed_keys:
                report.observed_ops += 1
            else:
                report.unobserved.append(
                    f"{v.path}:{v.line} {v.kind} on '{v.array}' "
                    f"in '{v.kernel}'"
                )
    return report


__all__ = [
    "CalibrationMismatch",
    "CalibrationReport",
    "run_calibration",
    "transaction_bound",
]

"""Experiment drivers for every table and figure of the evaluation.

Each ``exp_*`` function reproduces one artifact of Section VI: it runs the
relevant pipelines/kernels on scaled Table-II replica datasets, extrapolates
event counts to full scale, and returns a structure that ``gsnp bench``
writes as CSV and ``tests/test_paper_figures.py`` pins.  Results are cached
per (dataset, fraction) so the exports and the tests share work.

``fraction`` further shrinks a dataset below its 1/1000 default scale while
*raising* the extrapolation factor to compensate, so full-scale modeled
numbers stay comparable no matter how small the bench run is.
"""

from __future__ import annotations

from dataclasses import replace
from functools import lru_cache

import numpy as np

from ..api import Engine, JobSpec, create_pipeline
from ..compress.columnar import encode_alignments, encode_table
from ..compress.gzipcodec import (
    GZIP_COMPRESS_BW,
    GZIP_DECOMPRESS_BW,
    gzip_compress,
)
from ..constants import BASE_OCC_SIZE
from ..core.base_word import words_from_observations
from ..core.likelihood import (
    ALL_VARIANTS,
    GsnpTables,
    gpu_dense_likelihood_counters,
    gsnp_likelihood_comp,
    gsnp_likelihood_sort,
)
from ..core.pipeline import GsnpPipeline
from ..gpusim.spec import CPU_COMPRESS_BW
from ..formats.cns import format_rows
from ..formats.soap import soap_line_bytes
from ..formats.window import Window, WindowReader
from ..gpusim.costmodel import CpuCostModel, CpuEvents, DiskEvents, DiskModel, GpuCostModel
from ..gpusim.pool import acquire_device
from ..gpusim.spec import BGI_PLATFORM
from ..seqsim.datasets import (
    CH1_SPEC,
    CH21_SPEC,
    DatasetSpec,
    SimulatedDataset,
    dataset_summary,
    generate_dataset,
    whole_genome_specs,
)
from ..soapsnp.base_occ import nonzero_counts, sparsity_histogram
from ..soapsnp.model import CallingParams
from ..soapsnp.observe import extract_observations
from ..soapsnp.p_matrix import build_p_matrix, flatten_p_matrix
from ..soapsnp.pipeline import SoapsnpPipeline
from ..sortnet.batch import batch_sort
from ..sortnet.cpu_sort import ParallelCpuSortModel, quicksort_per_site
from ..sortnet.multipass import multipass_sort, nonequal_sort, singlepass_sort
from .events import RunProfile
from .scale import TABLE1_PAPER, TABLE4_PAPER, extrapolate

#: Default bench fractions keep the simulated-GPU runs to a few seconds;
#: ``genome`` shrinks each of Fig. 12's 24 chromosomes.
DEFAULT_FRACTIONS = {"ch1-sim": 0.2, "ch21-sim": 0.5, "genome": 0.05}

_SPECS = {"ch1-sim": CH1_SPEC, "ch21-sim": CH21_SPEC}


def shrink(spec: DatasetSpec, fraction: float) -> DatasetSpec:
    """``spec`` at ``fraction`` of its sites (at least 2000), with the
    extrapolation factor raised so full scale stays the same."""
    n_sites = max(int(spec.n_sites * fraction), 2000)
    return replace(
        spec,
        n_sites=n_sites,
        scale_factor=spec.scale_factor * spec.n_sites / n_sites,
    )


def bench_spec(name: str, fraction: float | None = None) -> DatasetSpec:
    """A further-shrunk spec whose extrapolation still hits full scale."""
    frac = fraction if fraction is not None else DEFAULT_FRACTIONS[name]
    return shrink(_SPECS[name], frac)


@lru_cache(maxsize=8)
def bench_dataset(name: str, fraction: float | None = None) -> SimulatedDataset:
    return generate_dataset(bench_spec(name, fraction))


@lru_cache(maxsize=8)
def soapsnp_result(name: str, fraction: float | None = None):
    ds = bench_dataset(name, fraction)
    return SoapsnpPipeline(window_size=4000).run(ds)


@lru_cache(maxsize=8)
def gsnp_result(name: str, mode: str = "gpu", fraction: float | None = None):
    ds = bench_dataset(name, fraction)
    window = min(256_000, ds.n_sites)
    # Paper tables/figures measure the paper's system: the per-window
    # launch chain, not this repo's fused megabatch default.
    return GsnpPipeline(window_size=window, mode=mode, fusion=False).run(ds)


@lru_cache(maxsize=8)
def window_words(name: str, fraction: float | None = None):
    """(words, offsets, tables-ready inputs) of the whole dataset as one
    window — shared by the kernel-level experiments."""
    ds = bench_dataset(name, fraction)
    reads = ds.reads
    params = CallingParams(read_len=reads.read_len)
    pm_flat = flatten_p_matrix(build_p_matrix(reads, ds.reference, params))
    penalty = params.penalty_table()
    window = Window(start=0, end=ds.n_sites, reads=reads)
    obs = extract_observations(window)
    words, offsets = words_from_observations(obs, arrival_order=True)
    return ds, obs, words, offsets, pm_flat, penalty


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


def exp_table1(name: str, fraction: float | None = None) -> dict:
    """Table I: SOAPsnp component breakdown, paper vs modeled."""
    res = soapsnp_result(name, fraction)
    fs = extrapolate(res.profile, bench_spec(name, fraction))
    return {
        "paper": TABLE1_PAPER[name],
        "model": {**fs.components, "total": fs.total},
        "wall_scaled": res.profile.total_wall(),
    }


def exp_table2(fraction: float | None = None) -> dict:
    """Table II: dataset characteristics of the scaled replicas."""
    out = {}
    for name in _SPECS:
        ds = bench_dataset(name, fraction)
        summary = dataset_summary(ds)
        reads = ds.reads
        summary["input_bytes"] = reads.n_reads * soap_line_bytes(reads.read_len)
        out[name] = summary
    return out


@lru_cache(maxsize=4)
def exp_table3(name: str = "ch1-sim", fraction: float | None = None) -> dict:
    """Table III: likelihood_comp hardware counters for the 4 variants.

    Cached: Figure 8 reprices the same counters, so the kernel sweep runs
    once per (dataset, fraction).
    """
    ds, obs, words, offsets, pm_flat, penalty = window_words(name, fraction)
    out = {}
    results = {}
    for variant in ALL_VARIANTS:
        # Table III counters come from one isolated device per variant;
        # pooling would mix link charges into the per-kernel numbers.
        device = acquire_device()
        tables = GsnpTables.load(device, pm_flat, penalty)
        wsorted, _ = gsnp_likelihood_sort(device, words, offsets)
        device.reset_counters()  # isolate the comp kernel
        tl = gsnp_likelihood_comp(device, wsorted, offsets, tables, variant)
        results[variant.name] = tl
        total = device.counters.total()
        out[variant.name] = total.as_dict()
        out[variant.name]["time"] = GpuCostModel().kernel_time(total)
    # All variants must agree bitwise (§IV-G).
    ref = results["optimized"]
    for vname, tl in results.items():
        assert np.array_equal(tl, ref), f"variant {vname} diverged"
    return out


def exp_table4(name: str, fraction: float | None = None) -> dict:
    """Table IV: GSNP breakdown + speedup vs SOAPsnp (both modeled)."""
    gs = gsnp_result(name, "gpu", fraction)
    so = soapsnp_result(name, fraction)
    spec = bench_spec(name, fraction)
    fs_g = extrapolate(gs.profile, spec)
    fs_s = extrapolate(so.profile, spec)
    speedups = {
        c: fs_s.components.get(c, 0.0) / t if t > 0 else float("inf")
        for c, t in fs_g.components.items()
    }
    return {
        "paper": TABLE4_PAPER[name],
        "model": {**fs_g.components, "total": fs_g.total},
        "speedup_model": {**speedups, "total": fs_s.total / fs_g.total},
        "consistent": gs.table.equals(so.table),
    }


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------


def exp_fig4a(name: str, fraction: float | None = None) -> dict:
    """Fig 4a: Formula-1 estimate vs modeled likelihood/recycle time."""
    res = soapsnp_result(name, fraction)
    spec = bench_spec(name, fraction)
    fs = extrapolate(res.profile, spec)
    n_sites_full = spec.n_sites * spec.scale_factor
    est = CpuCostModel().base_occ_scan_time(int(n_sites_full), BASE_OCC_SIZE)
    return {
        "estimate_scan": est,
        "likelihood": fs.components["likelihood"],
        "recycle": fs.components["recycle"],
        "scan_share_likelihood": est / fs.components["likelihood"],
        "scan_share_recycle": est / fs.components["recycle"],
    }


def exp_fig4b(name: str, fraction: float | None = None) -> dict:
    """Fig 4b: % of sites by number of non-zero base_occ cells."""
    ds = bench_dataset(name, fraction)
    # The windows soapsnp_result runs over.
    nnz = np.concatenate([
        nonzero_counts(extract_observations(w))
        for w in WindowReader(ds.reads, ds.n_sites, 4000)
    ])
    return {
        "histogram": sparsity_histogram(nnz),
        "mean_nnz": float(nnz.mean()),
        "nonzero_pct": 100.0 * float(nnz.mean()) / BASE_OCC_SIZE,
    }


def exp_fig5(name: str, fraction: float | None = None) -> dict:
    """Fig 5: likelihood time across the four implementations."""
    spec = bench_spec(name, fraction)
    factor = spec.scale_factor
    so = soapsnp_result(name, fraction)
    soap_t = extrapolate(so.profile, spec).components["likelihood"]
    cpu_t = extrapolate(
        gsnp_result(name, "cpu", fraction).profile, spec
    ).components["likelihood"]
    gpu_t = extrapolate(
        gsnp_result(name, "gpu", fraction).profile, spec
    ).components["likelihood"]
    # GPU-dense strawman: analytic counters on a fresh device.
    ds, obs, words, offsets, pm_flat, penalty = window_words(name, fraction)
    # Strawman counter probe on a deliberately unpooled device.
    device = acquire_device()
    gpu_dense_likelihood_counters(device, obs.n_sites, words.size)
    dense_counters = device.counters.get("likelihood_gpu_dense")
    model = GpuCostModel()
    dense_t = model.kernel_time(dense_counters) * factor
    return {
        "SOAPsnp": soap_t,
        "GPU_dense": dense_t,
        "GSNP_CPU": cpu_t,
        "GSNP": gpu_t,
    }


def exp_fig6(name: str, fraction: float | None = None) -> dict:
    """Fig 6: likelihood_sort vs likelihood_comp, CPU vs GPU."""
    ds, obs, words, offsets, pm_flat, penalty = window_words(name, fraction)
    spec = bench_spec(name, fraction)
    factor = spec.scale_factor
    # Single-kernel microbenchmark: isolated device, no link accounting.
    device = acquire_device()
    tables = GsnpTables.load(device, pm_flat, penalty)
    wsorted, _ = gsnp_likelihood_sort(device, words, offsets)
    sort_counters = device.counters.total()
    device.reset_counters()
    gsnp_likelihood_comp(device, wsorted, offsets, tables, ALL_VARIANTS[3])
    comp_counters = device.counters.total()
    model = GpuCostModel()
    # CPU side: quicksort model + sparse-table comp events.
    lens = np.diff(offsets)
    nl = lens[lens > 1]
    m = words.size
    cpu = CpuCostModel()
    cpu_sort = cpu.time(
        CpuEvents(
            instructions=int((nl * np.log2(nl) * 12).sum()),
            random_accesses=m,
            seq_read_bytes=4 * m,
        )
    )
    cpu_comp = cpu.time(
        CpuEvents(
            instructions=30 * m,
            random_accesses=12 * m,
            seq_read_bytes=8 * m,
        )
    )
    return {
        "gpu_sort": model.kernel_time(sort_counters) * factor,
        "gpu_comp": model.kernel_time(comp_counters) * factor,
        "cpu_sort": cpu_sort * factor,
        "cpu_comp": cpu_comp * factor,
    }


@lru_cache(maxsize=4)
def exp_fig7a(sizes=(4, 8, 16, 32, 64, 128, 256), n_arrays=2048) -> dict:
    """Fig 7a: batch-sort throughput of three implementations."""
    rng = np.random.default_rng(42)
    model = GpuCostModel()
    cpu_model = ParallelCpuSortModel()
    out = {}
    for m in sizes:
        batch = rng.integers(0, 2**17, (n_arrays, m)).astype(np.uint32)
        # Sort microbenchmark measures one device's kernel counters only.
        device = acquire_device()
        batch_sort(device, batch.copy(), name="fig7a_batch")
        t_gpu = model.kernel_time(device.counters.total())
        # Sequential radix: per-array launches underutilize the chip; a
        # small sample extrapolates linearly in array count.
        sample = min(n_arrays, 32)
        # Second isolated device keeps the strawman's counters separate.
        dev2 = acquire_device()
        from ..gpusim.primitives.sort import sequential_radix_sort_batches

        sequential_radix_sort_batches(
            dev2, batch[:sample], np.full(sample, m)
        )
        t_radix = model.kernel_time(dev2.counters.total()) * (
            n_arrays / sample
        )
        out[m] = {
            "cpu_parallel": cpu_model.throughput(n_arrays, m),
            "gpu_batch_bitonic": n_arrays * m / t_gpu if t_gpu else 0.0,
            "gpu_seq_radix": n_arrays * m / t_radix if t_radix else 0.0,
        }
    return out


def exp_fig7b(name: str = "ch1-sim", fraction: float | None = None) -> dict:
    """Fig 7b: multipass vs single-pass vs non-equal bitonic sorting."""
    ds, obs, words, offsets, pm_flat, penalty = window_words(name, fraction)
    spec = bench_spec(name, fraction)
    factor = spec.scale_factor
    model = GpuCostModel()
    out = {}
    for fn, label in (
        (multipass_sort, "bitonic_MP"),
        (singlepass_sort, "bitonic_SP"),
        (nonequal_sort, "bitonic_noneq"),
    ):
        # Per-algorithm counter isolation for the sort comparison figure.
        device = acquire_device()
        sorted_words, stats = fn(words, offsets, device=device)
        t = model.kernel_time(device.counters.total())
        out[label] = {
            "time": t * factor,
            "padded_elements": stats.padded_elements,
            "padding_ratio": stats.padding_ratio,
            "compare_exchanges": stats.compare_exchanges,
        }
    return out


def exp_fig8(name: str, fraction: float | None = None) -> dict:
    """Fig 8: likelihood_comp time for the four optimization variants."""
    counters = exp_table3(name, fraction)
    spec = bench_spec(name, fraction)
    return {
        v: c["time"] * spec.scale_factor for v, c in counters.items()
    }


def exp_fig9(name: str, fraction: float | None = None) -> dict:
    """Fig 9: output size and output speed, three schemes."""
    so = soapsnp_result(name, fraction)
    gs = gsnp_result(name, "gpu", fraction)
    spec = bench_spec(name, fraction)
    factor = spec.scale_factor
    text = format_rows(so.table)
    gz, _ = gzip_compress(text)
    sizes = {
        "SOAPsnp": len(text) * factor,
        "SOAPsnp_gzip": len(gz) * factor,
        "GSNP": gs.output_bytes * factor,
    }
    disk = DiskModel()
    cpu = CpuCostModel()
    speeds = {
        "SOAPsnp": disk.time(
            DiskEvents(write_bytes=len(text), formatted_bytes=len(text))
        )
        * factor,
        "SOAPsnp_gzip": (
            disk.time(DiskEvents(write_bytes=len(gz)))
            + len(text) / GZIP_COMPRESS_BW
        )
        * factor,
        "GSNP_CPU": (
            disk.time(DiskEvents(write_bytes=gs.output_bytes))
            + cpu.time(
                CpuEvents(
                    instructions=int(
                        so.table.n_sites * 40 * (2.0e9 / CPU_COMPRESS_BW)
                    )
                )
            )
        )
        * factor,
        "GSNP": extrapolate(gs.profile, spec).components["output"],
    }
    return {"sizes": sizes, "speeds": speeds}


def exp_fig10(name: str, fraction: float | None = None) -> dict:
    """Fig 10: decompression speed and temporary input size."""
    so = soapsnp_result(name, fraction)
    gs = gsnp_result(name, "gpu", fraction)
    spec = bench_spec(name, fraction)
    factor = spec.scale_factor
    text = format_rows(so.table)
    gz, _ = gzip_compress(text)
    disk = DiskModel()
    # Sequential read of the original text (disk + per-byte text parsing)
    # vs load-compressed + lightweight in-memory decode ("most algorithms
    # only need a sequential scan of the data", §V-B).
    decomp = {
        "SOAPsnp": disk.time(
            DiskEvents(read_bytes=len(text), parsed_bytes=len(text))
        )
        * factor,
        "SOAPsnp_gzip": (
            disk.time(DiskEvents(read_bytes=len(gz)))
            + len(text) / GZIP_DECOMPRESS_BW
        )
        * factor,
        "GSNP": (
            disk.time(DiskEvents(read_bytes=gs.output_bytes))
            + gs.output_bytes / (4 * CPU_COMPRESS_BW)
        )
        * factor,
    }
    # Temporary input file.
    ds = bench_dataset(name, fraction)
    reads = ds.reads
    raw = reads.n_reads * soap_line_bytes(reads.read_len)
    soap_text_approx = raw
    temp = gs.samples[0].temp_input_bytes
    # gzip on an approximation of the SOAP text.
    from ..formats.soap import write_soap
    import io, zlib, tempfile, os

    gz_ratio = None
    with tempfile.NamedTemporaryFile(suffix=".soap", delete=False) as f:
        path = f.name
    try:
        nbytes = write_soap(path, reads.slice(0, min(2000, reads.n_reads)))
        with open(path, "rb") as f:
            sample = f.read()
        gz_ratio = len(zlib.compress(sample, 6)) / max(len(sample), 1)
    finally:
        os.unlink(path)
    return {
        "decompression": decomp,
        "input_sizes": {
            "original": soap_text_approx * factor,
            "GSNP_temp": temp * factor,
            "gzip": soap_text_approx * gz_ratio * factor,
        },
    }


@lru_cache(maxsize=4)
def exp_fig11(
    name: str = "ch1-sim",
    fraction: float | None = None,
    windows=(2000, 4000, 8000, 16000, 32000, 49000),
) -> dict:
    """Fig 11: elapsed time and memory vs window size."""
    ds = bench_dataset(name, fraction)
    spec = bench_spec(name, fraction)
    out = {}
    for w in windows:
        w = min(w, ds.n_sites)
        # Per-window chain: megabatching would flatten the figure.
        res = GsnpPipeline(window_size=w, mode="gpu", fusion=False).run(ds)
        fs = extrapolate(res.profile, spec)
        out[w] = {
            "time": fs.total,
            "gpu_bytes": res.extras["peak_gpu_bytes"],
            "windows": -(-ds.n_sites // w),
        }
        if w >= ds.n_sites:
            break
    return out


@lru_cache(maxsize=2)
def exp_fig12(
    fraction: float | None = None, engines=("soapsnp", "gsnp_cpu", "gsnp")
) -> dict:
    """Fig 12: end-to-end time for all 24 chromosomes, three systems.

    Engines dispatch through :func:`repro.api.create_pipeline`, labeled
    by their ``Engine.label``.
    """
    frac = fraction if fraction is not None else DEFAULT_FRACTIONS["genome"]
    out = {}
    for spec in whole_genome_specs():
        small = shrink(spec, frac)
        ds = generate_dataset(small)
        row = {}
        for engine in engines:
            pipe = create_pipeline(
                spec=JobSpec(engine=engine, window=ds.n_sites, fusion=False)
            )
            res = pipe.run(ds)
            row[Engine(engine).label] = extrapolate(
                res.profile, small
            ).total
        out[spec.name] = row
    return out

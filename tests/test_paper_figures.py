"""Section VI as an exact contract: every table and figure of the paper,
pinned to the harness arm that reproduces it.

Tier-1 runs each paper arm of :mod:`repro.bench.harness` at ``FRACTION``
(the datasets ``test_export`` builds) and pins every modeled quantity as a
literal.  The modeled clock and the byte counts are deterministic, so a
change that moves a paper number fails ``test_arm_is_pinned[<figure>]``
and has to re-pin it with a reason.  Quantities computed from zlib output
depend on the zlib build; the figure tests hold them to bands instead.

The figure tests assert the paper's orderings and bands.  Each runs at
``FRACTION`` where the claim holds there, and under ``-m tier2`` at the
harness default fractions: the numbers ``gsnp bench`` writes and
EXPERIMENTS.md prints.  Tier-2 also checks every number in EXPERIMENTS.md's
tables against the arms, rounded as printed.
"""

import csv
import re
from functools import cache, partial
from pathlib import Path

import numpy as np
import pytest

from repro.bench.accuracy import best_f1, quality_sweep
from repro.bench.events import COMPONENTS
from repro.bench.export import DATASETS, export_all
from repro.bench.harness import (
    bench_dataset,
    bench_spec,
    exp_fig4a,
    exp_fig4b,
    exp_fig5,
    exp_fig6,
    exp_fig7a,
    exp_fig7b,
    exp_fig8,
    exp_fig9,
    exp_fig10,
    exp_fig11,
    exp_fig12,
    exp_table1,
    exp_table2,
    exp_table3,
    exp_table4,
    gsnp_result,
    soapsnp_result,
    window_words,
)
from repro.bench.scale import extrapolate
from repro.compress import dict_encode, rle_dict_encode, rle_encode
from repro.compress.columnar import RLE_DICT_COLUMNS, _quantize100
from repro.core.base_word import canonical_keys, decode_keys
from repro.core.likelihood import OPTIMIZED, GsnpTables, gsnp_likelihood_comp
from repro.core.pipeline import GsnpPipeline
from repro.gpusim.costmodel import CpuCostModel, DiskModel
from repro.gpusim.device import Device
from repro.seqsim.datasets import TABLE2_FULL
from repro.soapsnp import CallingParams, SoapsnpPipeline
from repro.soapsnp.likelihood import window_type_likely
from repro.sortnet.multipass import multipass_sort

FRACTION = 0.05

#: A figure test's two profiles: tier-1 at ``FRACTION``, tier-2 at the
#: harness default fractions (``None``).
PROFILES = [
    pytest.param(FRACTION, id="tier1"),
    pytest.param(None, id="default", marks=pytest.mark.tier2),
]

PER_DATASET = {
    "table1": exp_table1, "table4": exp_table4, "fig4a": exp_fig4a,
    "fig4b": exp_fig4b, "fig5": exp_fig5, "fig6": exp_fig6,
    "fig8": exp_fig8, "fig9": exp_fig9, "fig10": exp_fig10,
}

#: Every paper arm, keyed by the id its pin and its failures carry.
ARMS = {
    **{f"{fig}-{name}": partial(arm, name)
       for fig, arm in PER_DATASET.items() for name in DATASETS},
    "table2": exp_table2,
    "table3": partial(exp_table3, "ch1-sim"),
    "fig7a": lambda fraction: exp_fig7a(),
    "fig7b": partial(exp_fig7b, "ch1-sim"),
    "fig11": partial(exp_fig11, "ch1-sim"),
}


@cache
def run(arm: str, fraction: float | None) -> dict:
    """One arm's result, shared by its pin and its figure test."""
    return ARMS[arm](fraction)


#: Leaves that are not modeled quantities: the paper's own numbers, the
#: measured wall clock, the consistency verdict (asserted on its own).
UNPINNED = {"paper", "wall_scaled", "consistent"}

#: Leaves computed from zlib output, held to bands by the figure tests.
ZLIB = {"sizes.SOAPsnp_gzip", "speeds.SOAPsnp_gzip",
        "decompression.SOAPsnp_gzip", "input_sizes.gzip"}


def numbers(tree: dict, prefix: str = "") -> dict:
    """An arm's pinned leaves, keyed by dotted path."""
    out = {}
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if key in UNPINNED or path in ZLIB:
            continue
        if isinstance(value, dict):
            out |= numbers(value, f"{path}.")
        else:
            out[path] = int(value) if isinstance(value, (int, np.integer)) \
                else float(value)
    return out


#: Every arm's modeled quantities at ``FRACTION``.
PINNED = {
    "table1-ch1-sim": {
        "model.cal_p_matrix": 143.04267166666662, "model.read_site": 44.695805,
        "model.counting": 339.50000499999993,
        "model.likelihood": 11622.201909761905,
        "model.posterior": 86.45000499999999, "model.output": 406.616005,
        "model.recycle": 7708.405409761905, "model.total": 20350.911811190475,
    },
    "table1-ch21-sim": {
        "model.cal_p_matrix": 23.805338333333335, "model.read_site": 7.241045,
        "model.counting": 56.500004999999994,
        "model.likelihood": 2094.918100238095, "model.posterior": 16.450005,
        "model.output": 76.67707166666666, "model.recycle": 1466.7816002380953,
        "model.total": 3742.3731654761905,
    },
    "table4-ch1-sim": {
        "model.cal_p_matrix": 188.28604588888888,
        "model.read_site": 8.437978333333332,
        "model.counting": 25.341642926829266,
        "model.likelihood": 60.50048858536586,
        "model.posterior": 8.988913170731706, "model.output": 75.6452659403794,
        "model.recycle": 0.6361014634146341, "model.total": 367.8364363089431,
        "speedup_model.cal_p_matrix": 0.7597093613144268,
        "speedup_model.read_site": 5.29698029958598,
        "speedup_model.counting": 13.396921658957256,
        "speedup_model.likelihood": 192.10095953792245,
        "speedup_model.posterior": 9.617403501180208,
        "speedup_model.output": 5.37530009241396,
        "speedup_model.recycle": 12118.201030984399,
        "speedup_model.total": 55.32598133942852,
    },
    "table4-ch21-sim": {
        "model.cal_p_matrix": 57.40693477777778,
        "model.read_site": 1.3623516666666668,
        "model.counting": 6.425428292682927,
        "model.likelihood": 10.513505560975611,
        "model.posterior": 1.589108292682927,
        "model.output": 48.00366755555556,
        "model.recycle": 0.19824780487804877,
        "model.total": 125.49924395121953,
        "speedup_model.cal_p_matrix": 0.4146770494798893,
        "speedup_model.read_site": 5.31510708811112,
        "speedup_model.counting": 8.793188940313971,
        "speedup_model.likelihood": 199.2597129556942,
        "speedup_model.posterior": 10.351720569167185,
        "speedup_model.output": 1.5973169462088876,
        "speedup_model.recycle": 7398.728077419971,
        "speedup_model.total": 29.819886141551727,
    },
    "fig4a-ch1-sim": {
        "estimate_scan": 7708.281904761905, "likelihood": 11622.201909761905,
        "recycle": 7708.405409761905,
        "scan_share_likelihood": 0.6632376519192497,
        "scan_share_recycle": 0.999983977879544,
    },
    "fig4a-ch21-sim": {
        "estimate_scan": 1466.7580952380952, "likelihood": 2094.918100238095,
        "recycle": 1466.7816002380953,
        "scan_share_likelihood": 0.7001505667793851,
        "scan_share_recycle": 0.9999839751194068,
    },
    "fig4b-ch1-sim": {
        "histogram.[0,1)": 14.210526315789474,
        "histogram.[1,8)": 16.94736842105263,
        "histogram.[8,16)": 44.955465587044536,
        "histogram.[16,32)": 23.88663967611336, "histogram.[32,64)": 0.0,
        "histogram.[64,128)": 0.0, "histogram.[128,inf)": 0.0,
        "mean_nnz": 10.4017004048583, "nonzero_pct": 0.007935867618452682,
    },
    "fig4b-ch21-sim": {
        "histogram.[0,1)": 42.42553191489362,
        "histogram.[1,8)": 11.74468085106383,
        "histogram.[8,16)": 19.06382978723404,
        "histogram.[16,32)": 24.893617021276597,
        "histogram.[32,64)": 1.872340425531915, "histogram.[64,128)": 0.0,
        "histogram.[128,inf)": 0.0, "mean_nnz": 8.690212765957448,
        "nonzero_pct": 0.006630106175199469,
    },
    "fig5-ch1-sim": {
        "SOAPsnp": 11622.201909761905, "GPU_dense": 528.4340487804878,
        "GSNP_CPU": 1968.6763378571427, "GSNP": 60.50048858536586,
    },
    "fig5-ch21-sim": {
        "SOAPsnp": 2094.918100238095, "GPU_dense": 96.65570731707317,
        "GSNP_CPU": 317.0033359523809, "GSNP": 10.513505560975611,
    },
    "fig6-ch1-sim": {
        "gpu_sort": 1.3111155279503104, "gpu_comp": 51.35527024390244,
        "cpu_sort": 216.60776142857142, "cpu_comp": 1910.0571428571427,
    },
    "fig6-ch21-sim": {
        "gpu_sort": 0.5894310559006212, "gpu_comp": 8.699555121951219,
        "cpu_sort": 35.80714047619047, "cpu_comp": 306.5523809523809,
    },
    "fig8-ch1-sim": {
        "baseline": 162.268643902439, "w_shared": 84.6553756097561,
        "w_new_table": 128.96853853658536, "optimized": 51.35527024390244,
    },
    "fig8-ch21-sim": {
        "baseline": 26.63416585365854, "w_shared": 14.069248780487802,
        "w_new_table": 21.264472195121954, "optimized": 8.699555121951219,
    },
    "fig9-ch1-sim": {
        "sizes.SOAPsnp": 13069800000.0, "sizes.GSNP": 914140000.0,
        "speeds.SOAPsnp": 406.616, "speeds.GSNP_CPU": 119.9348811111111,
        "speeds.GSNP": 75.6452659403794,
    },
    "fig9-ch21-sim": {
        "sizes.SOAPsnp": 2464620000.0, "sizes.GSNP": 168080000.0,
        "speeds.SOAPsnp": 76.67706666666668,
        "speeds.GSNP_CPU": 22.756435555555555,
        "speeds.GSNP": 48.00366755555556,
    },
    "fig10-ch1-sim": {
        "decompression.SOAPsnp": 275.918,
        "decompression.GSNP": 12.696388888888887,
        "input_sizes.original": 6518400000.0,
        "input_sizes.GSNP_temp": 1249400000.0,
    },
    "fig10-ch21-sim": {
        "decompression.SOAPsnp": 52.030866666666675,
        "decompression.GSNP": 2.3344444444444448,
        "input_sizes.original": 1084800000.0,
        "input_sizes.GSNP_temp": 201640000.0,
    },
    "table2": {
        "ch1-sim.sites": 12350.0, "ch1-sim.depth": 10.995951417004049,
        "ch1-sim.reads": 1358.0, "ch1-sim.coverage": 0.8578947368421053,
        "ch1-sim.snps_planted": 12.0, "ch1-sim.known_prior_sites": 15.0,
        "ch1-sim.input_bytes": 325920, "ch21-sim.sites": 2350.0,
        "ch21-sim.depth": 9.617021276595745, "ch21-sim.reads": 226.0,
        "ch21-sim.coverage": 0.5774468085106383, "ch21-sim.snps_planted": 2.0,
        "ch21-sim.known_prior_sites": 3.0, "ch21-sim.input_bytes": 54240,
    },
    "table3": {
        "baseline.inst_pw": 71171.0, "baseline.g_load": 3759255.0,
        "baseline.g_store": 1425600.0, "baseline.s_load_pw": 0.0,
        "baseline.s_store_pw": 0.0, "baseline.time": 0.00811343219512195,
        "w_shared.inst_pw": 64853.142857142855, "w_shared.g_load": 2463255.0,
        "w_shared.g_store": 235550.0, "w_shared.s_load_pw": 3515.714285714286,
        "w_shared.s_store_pw": 3277.8571428571427,
        "w_shared.time": 0.004232768780487805, "w_new_table.inst_pw": 48226.0,
        "w_new_table.g_load": 2692611.0, "w_new_table.g_store": 1425600.0,
        "w_new_table.s_load_pw": 0.0, "w_new_table.s_store_pw": 0.0,
        "w_new_table.time": 0.006448426926829268,
        "optimized.inst_pw": 41908.142857142855, "optimized.g_load": 1396611.0,
        "optimized.g_store": 235550.0,
        "optimized.s_load_pw": 3515.714285714286,
        "optimized.s_store_pw": 3277.8571428571427,
        "optimized.time": 0.002567763512195122,
    },
    "fig7a": {
        "4.cpu_parallel": 1523809523.8095236,
        "4.gpu_batch_bitonic": 1412603882.7764878,
        "4.gpu_seq_radix": 99865.79012108118,
        "8.cpu_parallel": 1207547169.8113205,
        "8.gpu_batch_bitonic": 2228117714.6332397,
        "8.gpu_seq_radix": 199642.59106867216,
        "16.cpu_parallel": 962406015.0375938,
        "16.gpu_batch_bitonic": 2568125085.1879973,
        "16.gpu_seq_radix": 399041.3275423677,
        "32.cpu_parallel": 787692307.6923077,
        "32.gpu_batch_bitonic": 2327991598.196083,
        "32.gpu_seq_radix": 797533.4818172092,
        "64.cpu_parallel": 662354463.1306597,
        "64.gpu_batch_bitonic": 1882674032.2816632,
        "64.gpu_seq_radix": 1589771.179581134,
        "128.cpu_parallel": 569838619.9220923,
        "128.gpu_batch_bitonic": 1481197559.0616398,
        "128.gpu_seq_radix": 3157033.5434813993,
        "256.cpu_parallel": 499390392.5871738,
        "256.gpu_batch_bitonic": 1173808049.7766979,
        "256.gpu_seq_radix": 6214342.7219484225,
    },
    "fig7b": {
        "bitonic_MP.time": 1.3111155279503104,
        "bitonic_MP.padded_elements": 186311,
        "bitonic_MP.padding_ratio": 1.4375848765432098,
        "bitonic_MP.compare_exchanges": 1069800,
        "bitonic_SP.time": 2.8921739130434783,
        "bitonic_SP.padded_elements": 395200,
        "bitonic_SP.padding_ratio": 3.049382716049383,
        "bitonic_SP.compare_exchanges": 2964000,
        "bitonic_noneq.time": 1.4946385093167702,
        "bitonic_noneq.padded_elements": 182181,
        "bitonic_noneq.padding_ratio": 1.4057175925925927,
        "bitonic_noneq.compare_exchanges": 1351245,
    },
    "fig11": {
        "2000.time": 628.1886789322494, "2000.gpu_bytes": 9924952,
        "2000.windows": 7, "4000.time": 499.819854401084,
        "4000.gpu_bytes": 12234928, "4000.windows": 4,
        "8000.time": 415.5055851761517, "8000.gpu_bytes": 15781132,
        "8000.windows": 2, "12350.time": 367.8364363089431,
        "12350.gpu_bytes": 20477056, "12350.windows": 1,
    },
}


@pytest.mark.parametrize("arm", ARMS)
def test_arm_is_pinned(arm):
    assert numbers(run(arm, FRACTION)) == pytest.approx(PINNED[arm], rel=1e-9)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fraction", PROFILES)
@pytest.mark.parametrize("name", DATASETS)
def test_table1_breakdown(name, fraction):
    """SOAPsnp: likelihood dominates, recycle second (both scan the dense
    ``base_occ``); the total lands within 3x of the paper's."""
    d = run(f"table1-{name}", fraction)
    model = d["model"]
    assert sorted(COMPONENTS, key=model.get)[-2:] == ["recycle", "likelihood"]
    assert 0.3 < model["total"] / d["paper"]["total"] < 3.0


@pytest.mark.parametrize("fraction", PROFILES)
def test_table2_datasets(fraction):
    for name, s in run("table2", fraction).items():
        assert abs(s["depth"] - TABLE2_FULL[name]["depth"]) < 0.5, name


@pytest.mark.tier2
def test_table2_coverage_matches_the_paper():
    """Needs the default fractions: at 0.05 ch21-sim's 2 350 sites cover
    0.58, against the paper's 0.68."""
    for name, s in run("table2", None).items():
        assert abs(s["coverage"] - TABLE2_FULL[name]["coverage"]) < 0.05, name


#: Paper Table III (Ch.1), each counter as a ratio to the baseline.
TABLE3_PAPER = {
    "baseline": {"inst_pw": 1.0, "g_load": 1.0, "g_store": 1.0},
    "w_shared": {"inst_pw": 0.94, "g_load": 0.70, "g_store": 0.68},
    "w_new_table": {"inst_pw": 0.73, "g_load": 0.64, "g_store": 0.97},
    "optimized": {"inst_pw": 0.70, "g_load": 0.36, "g_store": 0.65},
}


@pytest.mark.parametrize("fraction", PROFILES)
def test_table3_counters(fraction):
    d = run("table3", fraction)
    g = {v: c["g_load"] for v, c in d.items()}
    i = {v: c["inst_pw"] for v, c in d.items()}
    assert g["optimized"] < g["w_shared"] < g["baseline"]
    assert g["optimized"] < g["w_new_table"] < g["baseline"]
    assert i["optimized"] <= i["w_new_table"] < i["baseline"]
    assert i["w_shared"] < i["baseline"]
    for v in ("w_shared", "optimized"):
        assert abs(g[v] / g["baseline"] - TABLE3_PAPER[v]["g_load"]) < 0.15, v
    assert d["baseline"]["s_load_pw"] == 0 < d["optimized"]["s_load_pw"]
    # Known deviation (EXPERIMENTS.md): the baseline charges ten global
    # type_likely stores per element as Algorithm 1 implies, so sharing
    # them cuts g_store to 0.17x, not the paper's 0.68x.
    assert d["w_shared"]["g_store"] / d["baseline"]["g_store"] < 0.3


@pytest.mark.parametrize("fraction", PROFILES)
@pytest.mark.parametrize("name", DATASETS)
def test_table4_breakdown(name, fraction):
    """GSNP: bitwise consistent with SOAPsnp; likelihood collapses by two
    orders of magnitude and recycle by more."""
    d = run(f"table4-{name}", fraction)
    sp = d["speedup_model"]
    assert d["consistent"]
    assert sp["total"] > 25
    assert sp["recycle"] > 100
    assert sp["likelihood"] > 50
    assert 0.3 < d["model"]["total"] / d["paper"]["total"] < 3.0


@pytest.mark.tier2
@pytest.mark.parametrize("name", DATASETS)
def test_table4_speedup_in_the_papers_band(name):
    """40-70x end to end (paper: 42x and 50x)."""
    assert 40 < run(f"table4-{name}", None)["speedup_model"]["total"] < 70


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fraction", PROFILES)
@pytest.mark.parametrize("name", DATASETS)
def test_fig4a_memory_estimate(name, fraction):
    """Formula (1)'s scan explains 65-70% of likelihood, 89-92% of recycle
    (bands widened for the synthetic substrate)."""
    d = run(f"fig4a-{name}", fraction)
    assert 0.55 <= d["scan_share_likelihood"] <= 0.85
    assert 0.80 <= d["scan_share_recycle"] <= 1.05


@pytest.mark.parametrize("fraction", PROFILES)
@pytest.mark.parametrize("name", DATASETS)
def test_fig4b_sparsity(name, fraction):
    """Most sites have tens of non-zeros; the share stays below 0.1%."""
    d = run(f"fig4b-{name}", fraction)
    assert d["nonzero_pct"] < 0.1
    tens = ("[1,8)", "[8,16)", "[16,32)", "[32,64)")
    assert sum(d["histogram"][k] for k in tens) > 50.0


@pytest.mark.parametrize("fraction", PROFILES)
@pytest.mark.parametrize("name", DATASETS)
def test_fig5_likelihood_impls(name, fraction):
    """Paper: GSNP_CPU 4-5x, GSNP two orders of magnitude, GPU-dense
    14-17x slower than GSNP."""
    d = run(f"fig5-{name}", fraction)
    soap = d["SOAPsnp"]
    assert d["GSNP"] < d["GSNP_CPU"] < soap
    assert d["GSNP"] < d["GPU_dense"] < soap
    assert 2 < soap / d["GSNP_CPU"] < 12
    assert soap / d["GSNP"] > 50
    assert d["GPU_dense"] / d["GSNP"] > 4


@pytest.mark.parametrize("fraction", PROFILES)
@pytest.mark.parametrize("name", DATASETS)
def test_fig6_sort_vs_comp(name, fraction):
    d = run(f"fig6-{name}", fraction)
    sort = d["cpu_sort"] / d["gpu_sort"]
    comp = d["cpu_comp"] / d["gpu_comp"]
    assert sort > 10
    assert 15 < comp < 100  # paper ~40x
    assert d["gpu_comp"] > d["gpu_sort"]
    # Known deviation (EXPERIMENTS.md): the paper's sort gains 22x, less
    # than comp's 40x; the analytic model prices the batch bitonic near
    # the hardware optimum, so ours gains more than comp.
    assert sort > comp


def test_fig7a_batchsort():
    """Sequential per-array radix collapses; batch bitonic keeps up with
    the 16-thread CPU sort; throughput falls as arrays grow."""
    d = run("fig7a", FRACTION)
    for m, v in d.items():
        assert v["gpu_seq_radix"] < v["gpu_batch_bitonic"] / 10, m
    assert d[8]["gpu_batch_bitonic"] > 0.5 * d[8]["cpu_parallel"]
    assert d[256]["gpu_batch_bitonic"] < d[8]["gpu_batch_bitonic"]


@pytest.mark.parametrize("fraction", PROFILES)
def test_fig7b_multipass(fraction):
    """Single-pass pads ~4x more and runs slower; non-equal sorting wastes
    compare-exchanges on lockstep imbalance."""
    d = run("fig7b", fraction)
    mp, sp, ne = d["bitonic_MP"], d["bitonic_SP"], d["bitonic_noneq"]
    assert mp["time"] < sp["time"]
    assert mp["padded_elements"] < sp["padded_elements"]
    assert sp["padding_ratio"] / mp["padding_ratio"] > 1.5
    assert mp["compare_exchanges"] <= ne["compare_exchanges"]


@pytest.mark.parametrize("fraction", PROFILES)
@pytest.mark.parametrize("name", DATASETS)
def test_fig8_comp_variants(name, fraction):
    """Both optimizations help, shared memory more; combined ~2.4x."""
    d = run(f"fig8-{name}", fraction)
    base = d["baseline"]
    assert d["optimized"] < d["w_shared"] < base
    assert d["optimized"] < d["w_new_table"] < base
    assert 1.5 < base / d["optimized"] < 4.5
    assert d["w_shared"] <= d["w_new_table"] * 1.1


@pytest.mark.parametrize("fraction", PROFILES)
@pytest.mark.parametrize("name", DATASETS)
def test_fig9_output(name, fraction):
    """9a: SOAPsnp text is >8x GSNP's output (paper 14-16x), gzip'd text
    1.1-2.5x (paper ~1.5x); 9b: gzip is the slowest scheme to write."""
    d = run(f"fig9-{name}", fraction)
    sizes, speeds = d["sizes"], d["speeds"]
    assert sizes["SOAPsnp"] / sizes["GSNP"] > 8
    assert 1.1 < sizes["SOAPsnp_gzip"] / sizes["GSNP"] < 2.5
    assert max(speeds, key=speeds.get) == "SOAPsnp_gzip"


@pytest.mark.tier2
@pytest.mark.parametrize("name", DATASETS)
def test_fig9b_output_speed(name):
    """Needs the default fractions: the output phase's launch overhead
    grows with the scale factor, and at 0.05 ch21-sim's GSNP output
    (48.0 s) is slower than GSNP_CPU's (22.8 s)."""
    speeds = run(f"fig9-{name}", None)["speeds"]
    assert speeds["GSNP"] < speeds["GSNP_CPU"] < speeds["SOAPsnp_gzip"]
    # Known deviation (EXPERIMENTS.md): under the paper's 13-15x, since
    # the output phase's ~550 launches per run are extrapolated with the
    # scale factor, each paying the modeled launch overhead.
    assert 5 < speeds["SOAPsnp"] / speeds["GSNP"] < 13


@pytest.mark.parametrize("fraction", PROFILES)
@pytest.mark.parametrize("name", DATASETS)
def test_fig10_decompression_and_input(name, fraction):
    """10a: reading GSNP's output beats gzip and raw text (paper ~6x and
    ~40x); 10b: the compressed temporary input is under half the original,
    and gzip does better on that more general data."""
    d = run(f"fig10-{name}", fraction)
    dec, size = d["decompression"], d["input_sizes"]
    assert dec["GSNP"] < dec["SOAPsnp_gzip"] < dec["SOAPsnp"]
    assert dec["SOAPsnp"] / dec["GSNP"] > 8
    assert size["GSNP_temp"] / size["original"] < 0.45
    assert size["gzip"] < size["GSNP_temp"]


@pytest.mark.parametrize("fraction", PROFILES)
def test_fig11_window_size(fraction):
    """Time falls toward flat as the window grows (launch overhead
    amortizes) and memory grows with it."""
    d = run("fig11", fraction)
    times = [d[w]["time"] for w in sorted(d)]
    drops = [a - b for a, b in zip(times, times[1:])]
    assert all(drop > 0 for drop in drops)
    assert drops == sorted(drops, reverse=True)
    assert times[-1] > 0.85 * times[-2]
    gpu = [d[w]["gpu_bytes"] for w in sorted(d)]
    assert gpu == sorted(gpu)


@pytest.mark.tier2
def test_fig12_end_to_end(tmp_path):
    """Every chromosome: GSNP < GSNP_CPU < SOAPsnp and >20x (paper
    >=40x); the genome takes days on SOAPsnp and hours on GSNP."""
    d = exp_fig12(None)  # the call export_all makes: one cached run
    for chrom, v in d.items():
        assert v["GSNP"] < v["GSNP_CPU"] < v["SOAPsnp"], chrom
        assert v["SOAPsnp"] / v["GSNP"] > 20, chrom
    total = {k: sum(v[k] for v in d.values()) for k in ("SOAPsnp", "GSNP")}
    assert total["SOAPsnp"] / total["GSNP"] > 20
    assert total["SOAPsnp"] > 1e5
    assert total["GSNP"] < 5e4
    (path,) = export_all(tmp_path, include=("fig12",))
    with open(path) as f:
        assert len(list(csv.reader(f))) == 1 + len(d)


# ---------------------------------------------------------------------------
# Ablations and extensions
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fraction", PROFILES)
def test_ablation_sort_key(fraction):
    """The canonical key (score field inverted) reproduces the dense
    likelihoods; a plain ascending sort visits low-quality duplicates first
    and changes them (§IV-B)."""
    _, obs, words, offsets, pm_flat, penalty = window_words("ch21-sim",
                                                            fraction)
    device = Device()
    tables = GsnpTables.load(device, pm_flat, penalty)
    canonical = decode_keys(multipass_sort(canonical_keys(words), offsets)[0])
    plain = multipass_sort(words, offsets)[0]
    good = gsnp_likelihood_comp(device, canonical, offsets, tables, OPTIMIZED)
    bad = gsnp_likelihood_comp(device, plain, offsets, tables, OPTIMIZED)
    assert np.array_equal(good, window_type_likely(obs, pm_flat, penalty))
    assert not np.array_equal(good, bad)


@pytest.mark.parametrize("fraction", PROFILES)
def test_ablation_multipass_bounds(fraction):
    """The paper's six size classes pad far less than one class, and eight
    classes barely pad less than six."""
    _, _, words, offsets, _, _ = window_words("ch1-sim", fraction)
    keys = canonical_keys(words)

    def padding(bounds):
        return multipass_sort(keys, offsets, bounds=bounds)[1].padding_ratio

    paper = padding((1, 8, 16, 32, 64))
    assert paper < padding(()) / 1.5
    assert padding((1, 2, 4, 8, 16, 32, 64, 128)) > 0.8 * paper


@pytest.mark.parametrize("fraction", PROFILES)
def test_ablation_codecs(fraction):
    """RLE-DICT never expands a quality column and beats either of its
    levels alone: why the paper composes them (§V-B)."""
    table = soapsnp_result("ch21-sim", fraction).table
    for name in RLE_DICT_COLUMNS:
        col = getattr(table, name)
        if col.dtype.kind == "f":
            col = _quantize100(col)
        values, lengths = rle_encode(col)
        rle = values.nbytes + lengths.astype(np.uint32).nbytes
        size = len(rle_dict_encode(col))
        assert size <= col.nbytes, name
        assert size <= 1.05 * min(len(dict_encode(col)), rle), name


#: The parameters the paper leaves unspecified, each moved off DESIGN.md's
#: value: the PCR dependency coefficient, the ti/tv ratio, the calibration
#: pseudo-count.
UNSPECIFIED = [
    CallingParams(), CallingParams(pcr_dependency=1.0),
    CallingParams(pcr_dependency=0.25), CallingParams(titv=2.0),
    CallingParams(calibration_pseudo=500.0),
]


@pytest.mark.tier2
def test_ablation_params():
    """No headline result hinges on DESIGN.md's guesses: under every
    setting the engines agree bitwise and F1 at q>=13 moves < 0.15."""
    ds = bench_dataset("ch21-sim")
    f1 = []
    for params in UNSPECIFIED:
        soap = SoapsnpPipeline(params=params, window_size=4000).run(ds)
        gsnp = GsnpPipeline(
            params=params, window_size=ds.n_sites, mode="gpu"
        ).run(ds)
        assert soap.table.equals(gsnp.table), params
        f1.append(quality_sweep(soap.table, ds, thresholds=(13,))[0].f1)
    assert min(f1) > f1[0] - 0.15


@pytest.mark.parametrize("fraction", PROFILES)
@pytest.mark.parametrize("name", DATASETS)
def test_ext_accuracy(name, fraction):
    """Against planted truth: F1 > 0.7 and genotype concordance > 0.8 at
    the best quality threshold; the unfiltered point recalls > 0.8."""
    points = quality_sweep(soapsnp_result(name, fraction).table,
                           bench_dataset(name, fraction))
    best = best_f1(points)
    assert best.f1 > 0.7
    assert best.genotype_concordance > 0.8
    assert points[0].recall > 0.8


@pytest.mark.parametrize("fraction", PROFILES)
@pytest.mark.parametrize("name", DATASETS)
def test_ext_multithreaded_soapsnp(name, fraction):
    """§VI-A aside: 16 SOAPsnp threads gain 3-4x, capped by memory
    bandwidth (2.5-4.5x accepted), and stay >10x slower than GSNP."""
    spec = bench_spec(name, fraction)
    scaled = soapsnp_result(name, fraction).profile.scaled(spec.scale_factor)
    cpu, disk = CpuCostModel(), DiskModel()
    records = [scaled.records[c] for c in COMPONENTS]
    single = sum(cpu.time(r.cpu) + disk.time(r.disk) for r in records)
    multi = sum(cpu.time_parallel(r.cpu, threads=16) + disk.time(r.disk)
                for r in records)
    gsnp = extrapolate(gsnp_result(name, "gpu", fraction).profile, spec)
    assert 2.5 < single / multi < 4.5
    assert multi / gsnp.total > 10


# ---------------------------------------------------------------------------
# EXPERIMENTS.md
# ---------------------------------------------------------------------------

EXPERIMENTS = Path(__file__).parents[1] / "EXPERIMENTS.md"

#: Paper Table IV's speedups, in parentheses there.
TABLE4_PAPER_SPEEDUP = {
    "ch1-sim": {"read_site": 5, "counting": 4, "likelihood": 204,
                "posterior": 7, "output": 13, "recycle": 2738, "total": 42},
    "ch21-sim": {"read_site": 4, "counting": 4, "likelihood": 231,
                 "posterior": 6, "output": 15, "recycle": 1603, "total": 50},
}

#: Paper Fig. 8, each variant as a fraction of the baseline's time.
FIG8_PAPER = {"baseline": 1.0, "w_shared": 0.55, "w_new_table": 0.78,
              "optimized": 0.42}


def table1_rows() -> dict:
    rows = {}
    for c in (*COMPONENTS, "total"):
        for name in DATASETS:
            d = run(f"table1-{name}", None)
            paper, model = d["paper"][c], d["model"][c]
            rows.setdefault(c, []).extend([paper, model, model / paper])
    return rows


def table3_rows() -> dict:
    d = run("table3", None)
    return {
        v: [x for k in ("inst_pw", "g_load", "g_store")
            for x in (c[k] / d["baseline"][k], TABLE3_PAPER[v][k])]
        for v, c in d.items()
    }


def table4_rows() -> dict:
    rows = {}
    for c in (*COMPONENTS, "total"):
        for name in DATASETS:
            d = run(f"table4-{name}", None)
            paper_speedup = TABLE4_PAPER_SPEEDUP[name].get(c)
            rows.setdefault(c, []).extend(
                [d["paper"][c], d["model"][c], d["speedup_model"][c]]
                + ([paper_speedup] if paper_speedup else [])
            )
    return rows


def fig5_rows() -> dict:
    rows = {}
    for name in DATASETS:
        d = run(f"fig5-{name}", None)
        for impl, t in d.items():
            rows.setdefault(impl, []).extend([t, d["SOAPsnp"] / t])
    return rows


def fig8_rows() -> dict:
    rows = {}
    for name in DATASETS:
        d = run(f"fig8-{name}", None)
        for v, t in d.items():
            rows.setdefault(v, []).extend([t, t / d["baseline"]])
    return {v: values + [FIG8_PAPER[v]] for v, values in rows.items()}


#: EXPERIMENTS.md heading (up to its dash) -> the values its table prints,
#: per row label, in reading order.
PRINTED = {"Table I": table1_rows, "Table III": table3_rows,
           "Table IV": table4_rows, "Figure 5": fig5_rows,
           "Figure 8": fig8_rows}


def printed_numbers(heading: str) -> dict:
    """Row label -> the numbers printed in its other cells, for the first
    table under ``heading``."""
    section = EXPERIMENTS.read_text().partition(f"\n## {heading} —")[2]
    assert section, heading
    table = []
    for line in section.splitlines()[1:]:
        if line.startswith("|"):
            table.append(line)
        elif table:
            break
    rows = {}
    for line in table[2:]:  # after the header and its rule
        label, *cells = (c.strip(" *") for c in line.strip().strip("|")
                         .split("|"))
        rows[label] = re.findall(r"\d+(?:\.\d+)?", " ".join(cells))
    return rows


@pytest.mark.tier2
@pytest.mark.parametrize("heading", PRINTED)
def test_experiments_md_prints_the_arms(heading):
    printed, want = printed_numbers(heading), PRINTED[heading]()
    assert printed.keys() == want.keys()
    for label, values in want.items():
        tokens = printed[label]
        assert len(tokens) == len(values), (label, tokens)
        for token, value in zip(tokens, values):
            decimals = len(token.partition(".")[2])
            assert f"{value:.{decimals}f}" == token, (label, token, value)

#!/usr/bin/env python
"""Profile the likelihood kernel variants on the simulated GPU.

Reproduces the Table III / Figure 8 methodology at example scale: run the
four ``likelihood_comp`` configurations, read back the hardware counters,
and price them with the M2050 roofline model — while verifying all four
produce bitwise identical likelihoods.

Run:  python examples/gpu_kernel_profiling.py
"""

import numpy as np

from repro import DatasetSpec, generate_dataset
from repro.core import (
    ALL_VARIANTS,
    GsnpTables,
    gsnp_likelihood_comp,
    gsnp_likelihood_sort,
    words_from_observations,
)
from repro.formats.window import Window
from repro.gpusim import Device, GpuCostModel
from repro.soapsnp import (
    CallingParams,
    build_p_matrix,
    extract_observations,
    flatten_p_matrix,
)


def main() -> None:
    dataset = generate_dataset(
        DatasetSpec(name="chrP", n_sites=20_000, depth=11.0, coverage=0.88,
                    seed=33)
    )
    reads = dataset.reads
    params = CallingParams(read_len=reads.read_len)
    pm_flat = flatten_p_matrix(
        build_p_matrix(reads, dataset.reference, params)
    )
    penalty = params.penalty_table()
    obs = extract_observations(
        Window(start=0, end=dataset.n_sites, reads=reads)
    )
    words, offsets = words_from_observations(obs)
    model = GpuCostModel()

    print(f"{'variant':<12s} {'inst_PW':>10s} {'g_load':>9s} {'g_store':>9s} "
          f"{'s_load_PW':>10s} {'modeled us':>11s}  vs baseline")
    results = {}
    base_time = None
    for variant in ALL_VARIANTS:
        device = Device()
        tables = GsnpTables.load(device, pm_flat, penalty)
        wsorted, _ = gsnp_likelihood_sort(device, words, offsets)
        device.reset_counters()  # profile only the comp kernel
        tl = gsnp_likelihood_comp(device, wsorted, offsets, tables, variant)
        results[variant.name] = tl
        c = device.counters.total()
        t = model.kernel_time(c)
        if base_time is None:
            base_time = t
        print(
            f"{variant.name:<12s} {c.inst_pw:>10.3g} {c.g_load:>9.3g} "
            f"{c.g_store:>9.3g} {c.s_load_pw:>10.3g} {t * 1e6:>11.1f}  "
            f"{base_time / t:.2f}x"
        )

    ref = results["baseline"]
    for name, tl in results.items():
        assert np.array_equal(tl, ref), name
    print("\nall four variants are bitwise identical "
          "(the paper's consistency requirement, Section IV-G)")
    print("paper Table III load ratios: shared 0.70, table 0.64, "
          "optimized 0.36 of baseline")


if __name__ == "__main__":
    main()

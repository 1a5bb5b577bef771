"""Export experiment data as CSV for external plotting.

``gsnp bench`` (or :func:`export_all`) re-runs the evaluation drivers and
writes one CSV per table/figure into a results directory — the series a
plotting script needs to redraw the paper's figures from this
reproduction's numbers.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .harness import (
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
)

#: Dataset names the experiments run over.
DATASETS = ("ch1-sim", "ch21-sim")

#: Experiment ids, one per table/figure of the evaluation.
EXPERIMENTS = (
    "table1", "table2", "table3", "table4",
    "fig4a", "fig4b", "fig5", "fig6", "fig7a", "fig7b", "fig8",
    "fig9", "fig10", "fig11", "fig12",
)


def _write(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(header)
        w.writerows(rows)


def export_all(
    out_dir: str | Path,
    fraction: float | None = None,
    include: tuple[str, ...] = EXPERIMENTS,
) -> list[Path]:
    """Run the selected experiments and write their CSVs.

    Returns the list of files written.  ``fraction`` further shrinks the
    bench datasets (None = harness defaults).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def emit(name: str, header, rows):
        path = out / f"{name}.csv"
        _write(path, header, rows)
        written.append(path)

    if "table1" in include or "table4" in include:
        for name in DATASETS:
            if "table1" in include:
                d = exp_table1(name, fraction)
                emit(
                    f"table1_{name}",
                    ["component", "paper_s", "model_s"],
                    [
                        [c, d["paper"].get(c), round(v, 2)]
                        for c, v in d["model"].items()
                    ],
                )
            if "table4" in include:
                d = exp_table4(name, fraction)
                emit(
                    f"table4_{name}",
                    ["component", "paper_s", "model_s", "speedup_model"],
                    [
                        [c, d["paper"].get(c), round(v, 2),
                         round(d["speedup_model"].get(c, 0), 1)]
                        for c, v in d["model"].items()
                    ],
                )
    if "table2" in include:
        d = exp_table2(fraction)
        emit(
            "table2",
            ["dataset", "sites", "depth", "coverage", "reads",
             "input_bytes"],
            [
                [name, s["sites"], round(s["depth"], 2),
                 round(s["coverage"], 3), s["reads"], s["input_bytes"]]
                for name, s in d.items()
            ],
        )
    if "table3" in include:
        d = exp_table3("ch1-sim", fraction)
        emit(
            "table3_ch1-sim",
            ["variant", "inst_pw", "g_load", "g_store", "s_load_pw",
             "s_store_pw", "modeled_s"],
            [
                [v, c["inst_pw"], c["g_load"], c["g_store"],
                 c["s_load_pw"], c["s_store_pw"], c["time"]]
                for v, c in d.items()
            ],
        )
    for name in DATASETS:
        if "fig4a" in include:
            d = exp_fig4a(name, fraction)
            emit(
                f"fig4a_{name}", ["quantity", "seconds"],
                [[k, round(v, 2)] for k, v in d.items()],
            )
        if "fig4b" in include:
            d = exp_fig4b(name, fraction)
            emit(
                f"fig4b_{name}", ["bucket", "percent_of_sites"],
                [[k, round(v, 3)] for k, v in d["histogram"].items()],
            )
        if "fig5" in include:
            d = exp_fig5(name, fraction)
            emit(
                f"fig5_{name}", ["implementation", "seconds"],
                [[k, round(v, 2)] for k, v in d.items()],
            )
        if "fig6" in include:
            d = exp_fig6(name, fraction)
            emit(
                f"fig6_{name}", ["step", "seconds"],
                [[k, round(v, 3)] for k, v in d.items()],
            )
        if "fig8" in include:
            d = exp_fig8(name, fraction)
            emit(
                f"fig8_{name}", ["variant", "seconds"],
                [[k, round(v, 2)] for k, v in d.items()],
            )
        if "fig9" in include:
            d = exp_fig9(name, fraction)
            emit(
                f"fig9_{name}",
                ["scheme", "size_bytes", "speed_seconds"],
                [
                    [k, round(d["sizes"].get(k, 0)), round(v, 2)]
                    for k, v in d["speeds"].items()
                ],
            )
        if "fig10" in include:
            d = exp_fig10(name, fraction)
            emit(
                f"fig10a_{name}", ["scheme", "read_seconds"],
                [[k, round(v, 2)] for k, v in d["decompression"].items()],
            )
            emit(
                f"fig10b_{name}", ["scheme", "bytes"],
                [[k, round(v)] for k, v in d["input_sizes"].items()],
            )
    if "fig7a" in include:
        d = exp_fig7a()
        emit(
            "fig7a",
            ["array_size", "cpu_parallel", "gpu_batch_bitonic",
             "gpu_seq_radix"],
            [
                [m, v["cpu_parallel"], v["gpu_batch_bitonic"],
                 v["gpu_seq_radix"]]
                for m, v in d.items()
            ],
        )
    if "fig7b" in include:
        d = exp_fig7b("ch1-sim", fraction)
        emit(
            "fig7b_ch1-sim",
            ["strategy", "seconds", "padded_elements", "padding_ratio",
             "compare_exchanges"],
            [
                [k, round(v["time"], 3), v["padded_elements"],
                 round(v["padding_ratio"], 3), v["compare_exchanges"]]
                for k, v in d.items()
            ],
        )
    if "fig11" in include:
        d = exp_fig11("ch1-sim", fraction)
        emit(
            "fig11_ch1-sim",
            ["window_sites", "windows", "model_s", "gpu_bytes"],
            [
                [w, v["windows"], round(v["time"], 1), v["gpu_bytes"]]
                for w, v in d.items()
            ],
        )
    if "fig12" in include:
        d = exp_fig12(fraction)
        emit(
            "fig12",
            ["sequence", "SOAPsnp_s", "GSNP_CPU_s", "GSNP_s"],
            [
                [seq, round(v["SOAPsnp"]), round(v["GSNP_CPU"]),
                 round(v["GSNP"], 1)]
                for seq, v in d.items()
            ],
        )
    return written

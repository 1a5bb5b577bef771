"""CSV export of experiment data (gsnp bench)."""

import csv

import pytest

from repro.bench.export import export_all
from repro.cli import main_bench


class TestExportAll:
    @pytest.fixture(scope="class")
    def exported(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("results")
        files = export_all(
            out, fraction=0.05,
            include=("table2", "fig4b", "fig5", "fig7a"),
        )
        return out, files

    def test_files_written(self, exported):
        out, files = exported
        names = {f.name for f in files}
        assert "table2.csv" in names
        assert "fig4b_ch1-sim.csv" in names
        assert "fig5_ch21-sim.csv" in names
        assert "fig7a.csv" in names

    def test_csv_parses_with_header(self, exported):
        out, files = exported
        for f in files:
            with open(f) as fh:
                rows = list(csv.reader(fh))
            assert len(rows) >= 2, f.name
            assert all(len(r) == len(rows[0]) for r in rows), f.name

    def test_fig5_orderings_in_csv(self, exported):
        out, _ = exported
        with open(out / "fig5_ch1-sim.csv") as fh:
            rows = {r[0]: float(r[1]) for r in list(csv.reader(fh))[1:]}
        assert rows["GSNP"] < rows["GSNP_CPU"] < rows["SOAPsnp"]

    def test_cli_entry_point(self, tmp_path):
        rc = main_bench(
            ["-o", str(tmp_path / "r"), "--fraction", "0.05",
             "--only", "table2"]
        )
        assert rc == 0
        assert (tmp_path / "r" / "table2.csv").exists()

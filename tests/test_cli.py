"""CLI entry points, end to end through real files."""

import importlib
import os
import tomllib
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import ACTIONS, main, main_call, main_decompress, main_simulate
from repro.errors import FormatError
from repro.formats.cns import read_cns


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    cwd = os.getcwd()
    os.chdir(d)
    yield d
    os.chdir(cwd)


@pytest.fixture(scope="module")
def simulated(workdir):
    rc = main_simulate(
        ["--sites", "6000", "--depth", "9", "--prefix", "demo", "--seed", "8"]
    )
    assert rc == 0
    return workdir


class TestSimulate:
    def test_files_written(self, simulated):
        for ext in (".fa", ".soap", ".prior", ".truth"):
            assert (simulated / f"demo{ext}").stat().st_size > 0

    def test_truth_has_positions(self, simulated):
        truth = np.loadtxt(simulated / "demo.truth", skiprows=1)
        assert truth.shape[1] == 3


class TestCall:
    def test_text_output(self, simulated):
        rc = main_call(
            ["demo.fa", "demo.soap", "--prior", "demo.prior",
             "--engine", "gsnp_cpu", "-o", "out.cns"]
        )
        assert rc == 0
        table = read_cns(simulated / "out.cns")
        assert table.n_sites == 6000

    def test_engines_agree_via_files(self, simulated):
        main_call(["demo.fa", "demo.soap", "--prior", "demo.prior",
                   "--engine", "soapsnp", "-o", "a.cns"])
        main_call(["demo.fa", "demo.soap", "--prior", "demo.prior",
                   "--engine", "gsnp", "-o", "b.cns", "--window", "6000"])
        assert read_cns(simulated / "a.cns").equals(
            read_cns(simulated / "b.cns")
        )

    def test_compressed_output(self, simulated):
        rc = main_call(
            ["demo.fa", "demo.soap", "--engine", "gsnp", "-o", "out.gsnp",
             "--compressed", "--window", "6000"]
        )
        assert rc == 0
        assert (simulated / "out.gsnp").stat().st_size < (
            simulated / "out.cns"
        ).stat().st_size


    @pytest.mark.parametrize("flags, message", [
        (["--window", "0", "--workers", "2"], "window must be >= 1"),
        (["--window", "0"], "window must be >= 1"),
        (["--shard-size", "0"], "shard_size must be >= 1"),
        (["--shard-timeout", "0", "--workers", "2"], "shard_timeout must be"),
        (["--no-cache"], "unrecognized arguments: --no-cache"),
        (["--no-prefetch"], "unrecognized arguments: --no-prefetch"),
    ])
    def test_out_of_range_flags_are_usage_errors(
        self, simulated, capsys, flags, message
    ):
        with pytest.raises(SystemExit) as exc:
            main_call(["demo.fa", "demo.soap", *flags])
        assert exc.value.code == 2
        assert f"gsnp call: error: {message}" in capsys.readouterr().err


class TestInputsMeetReference:
    """A job's reads are checked against its reference before any pass
    indexes the reference with them: a typed error on every path."""

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        from repro.formats.fasta import write_fasta
        from repro.formats.soap import write_soap
        from repro.seqsim import DatasetSpec, generate_dataset

        d = tmp_path_factory.mktemp("fit")
        ds = generate_dataset(DatasetSpec(
            name="chrFit", n_sites=1500, depth=6.0, coverage=1.0,
            read_len=50, seed=4,
        ))
        ref = ds.reference
        write_fasta(d / "ref.fa", [ref])
        write_fasta(d / "other.fa", [replace(ref, name="chrOther")])
        write_soap(d / "reads.soap", ds.reads)
        # The same reads placed 100 sites further right: the last ones
        # run past the reference end.
        write_soap(d / "past.soap", replace(ds.reads, pos=ds.reads.pos + 100))
        return {name: str(d / name) for name in (
            "ref.fa", "other.fa", "reads.soap", "past.soap")}

    def test_reads_past_the_reference_end_fail_typed(self, inputs, tmp_path):
        from repro.api import JobSpec
        from repro.serve.runner import ResidentRunner

        ref, past = inputs["ref.fa"], inputs["past.soap"]
        for engine in ("soapsnp", "gsnp_cpu", "gsnp"):
            with pytest.raises(FormatError, match="sample 0: read .* runs "
                               "past the end of the 1500-site reference"):
                main_call([ref, past, "--engine", engine])
        # Every cohort sample is checked, and named.
        with pytest.raises(FormatError, match="sample 1: read"):
            main_call([ref, inputs["reads.soap"], "--samples", past])
        runner = ResidentRunner(tmp_path / "state")
        job = SimpleNamespace(spec=JobSpec(fasta=ref, soap=past),
                              job_id="past-end", recovered=False)
        with runner.pipelines() as pipelines:
            with pytest.raises(FormatError, match="sample 0: read"):
                runner.run_job(job, pipelines)

    def test_reads_of_another_chromosome_are_refused(self, inputs):
        with pytest.raises(FormatError, match="'chrFit', but the reference "
                           "is 'chrOther'"):
            main_call([inputs["other.fa"], inputs["reads.soap"]])
        assert main_call([inputs["ref.fa"], inputs["reads.soap"]]) == 0


class TestDecompress:
    def test_full_roundtrip(self, simulated):
        main_call(["demo.fa", "demo.soap", "--prior", "demo.prior",
                   "--engine", "gsnp", "-o", "c.gsnp", "--compressed",
                   "--window", "6000"])
        main_call(["demo.fa", "demo.soap", "--prior", "demo.prior",
                   "--engine", "gsnp", "-o", "c.cns", "--window", "6000"])
        rc = main_decompress(["c.gsnp", "-o", "d.cns"])
        assert rc == 0
        assert read_cns(simulated / "d.cns").equals(
            read_cns(simulated / "c.cns")
        )

    def test_range_query(self, simulated):
        rc = main_decompress(["c.gsnp", "--range", "100:200", "-o", "r.cns"])
        assert rc == 0
        t = read_cns(simulated / "r.cns")
        assert t.n_sites == 100

    @pytest.mark.parametrize("bad", ["5", "a:b", "1:2:3"])
    def test_malformed_range_is_a_usage_error(self, simulated, capsys, bad):
        with pytest.raises(SystemExit) as exc:
            main_decompress(["c.gsnp", "--range", bad])
        assert exc.value.code == 2
        assert "--range takes LO:HI" in capsys.readouterr().err

    def test_snps_only(self, simulated, capsys):
        rc = main_decompress(["c.gsnp", "--snps-only", "-o", "s.cns"])
        assert rc == 0


class TestActionTable:
    """``gsnp <action>``: one console script dispatching one table."""

    def test_every_action_is_a_documented_main_function(self):
        assert len(ACTIONS) == 8
        for name, fn in ACTIONS.items():
            assert fn.__name__ == f"main_{name}"
            assert fn.__doc__ and fn.__doc__.strip()

    def test_bare_gsnp_prints_the_table(self, capsys):
        assert main([]) == 2
        listed = [
            line.split()[0]
            for line in capsys.readouterr().out.splitlines()
            if line.startswith("  ")
        ]
        assert listed == list(ACTIONS)
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.count("\n  ") == len(ACTIONS)

    def test_unknown_action_is_a_usage_error(self, capsys):
        assert main(["demo.fa", "demo.soap"]) == 2
        assert "unknown action 'demo.fa'" in capsys.readouterr().err
        assert main(["lint", "src/repro"]) == 2  # every rule is in `audit`
        assert "unknown action 'lint'" in capsys.readouterr().err
        # The acceptance harnesses are tests now, not actions or flags.
        assert main(["chaos", "--seeds", "0"]) == 2
        assert "unknown action 'chaos'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_:
            main(["serve", "--smoke"])
        assert exit_.value.code == 2

    def test_dispatch_writes_the_bytes_main_call_writes(self, simulated):
        argv = ["demo.fa", "demo.soap", "--engine", "gsnp_cpu", "-o"]
        assert main(["call", *argv, "dispatched.cns"]) == 0
        assert main_call([*argv, "direct.cns"]) == 0
        assert (simulated / "dispatched.cns").read_bytes() == (
            simulated / "direct.cns"
        ).read_bytes()

    def test_console_script_is_the_table(self):
        # The package is not installed in the sandbox, so nothing else
        # would notice a dangling entry point.
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        assert scripts == {"gsnp": "repro.cli:main"}
        module, _, attr = scripts["gsnp"].partition(":")
        assert getattr(importlib.import_module(module), attr) is main

"""Command-line front end: ``gsnp <action> [args]``.

One console script over one table (:data:`ACTIONS`) of the
``main_<action>(argv)`` functions below; bare ``gsnp`` (or ``python -m
repro.cli``) prints it.  The actions mirror how the original system is
operated:

* ``gsnp simulate`` — generate a synthetic dataset (reference FASTA, SOAP
  alignment file, known-SNP prior file).
* ``gsnp call`` — run SNP detection over those files with any engine
  (``gsnp``, ``gsnp_cpu`` or ``soapsnp``) and write text or compressed
  output.  Every knob is one :class:`~repro.api.JobSpec` field; the
  argument groups here derive from the dataclass metadata.
* ``gsnp serve`` / ``gsnp submit`` — the resident calling service: a
  daemon that keeps calibration and device state warm across jobs, and
  the client that submits :class:`~repro.api.JobSpec` jobs to it.
* ``gsnp decompress`` — the decompression tool of Section V-B: convert a
  compressed result back to SOAPsnp text, optionally filtered.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from .api import JobSpec
from .compress.reader import CompressedResultReader
from .core.detector import GsnpDetector
from .formats.cns import write_cns
from .formats.fasta import write_fasta
from .formats.prior import write_prior
from .formats.soap import write_soap
from .seqsim.datasets import DatasetSpec, generate_dataset


def _parser(action, **kwargs) -> argparse.ArgumentParser:
    """One action's parser: ``gsnp <action>``, described by its docstring."""
    name = action.__name__.removeprefix("main_")
    return argparse.ArgumentParser(
        prog=f"gsnp {name}", description=action.__doc__, **kwargs
    )


def main_simulate(argv=None) -> int:
    """Generate a synthetic dataset and write its three input files."""
    p = _parser(main_simulate)
    p.add_argument("--name", default="chrSim")
    p.add_argument("--sites", type=int, default=50_000)
    p.add_argument("--depth", type=float, default=10.0)
    p.add_argument("--coverage", type=float, default=0.85)
    p.add_argument("--read-len", type=int, default=100)
    p.add_argument("--snp-rate", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--prefix", default="simdata", help="output file prefix")
    args = p.parse_args(argv)

    spec = DatasetSpec(
        name=args.name,
        n_sites=args.sites,
        depth=args.depth,
        coverage=args.coverage,
        read_len=args.read_len,
        snp_rate=args.snp_rate,
        seed=args.seed,
    )
    ds = generate_dataset(spec)
    write_fasta(f"{args.prefix}.fa", [ds.reference])
    write_soap(f"{args.prefix}.soap", ds.reads)
    write_prior(f"{args.prefix}.prior", ds.reference.name, ds.prior)
    np.savetxt(
        f"{args.prefix}.truth",
        np.column_stack(
            [ds.diploid.snp_positions + 1, ds.diploid.snp_genotypes]
        ),
        fmt="%d",
        header="pos allele1 allele2",
    )
    print(
        f"wrote {args.prefix}.fa / .soap / .prior / .truth "
        f"({ds.reads.n_reads} reads, {ds.diploid.n_snps} planted SNPs)"
    )
    return 0


def main_call(argv=None) -> int:
    """Run SNP detection over (fasta, soap, prior) input files."""
    p = _parser(main_call)
    JobSpec.add_cli_args(p)
    args = p.parse_args(argv)
    try:
        spec = JobSpec.from_cli_args(args).validate(require_inputs=True)
    except ValueError as exc:
        p.error(str(exc))

    det = GsnpDetector.from_files(spec.fasta, spec.soap, spec.prior, spec=spec)
    t0 = time.perf_counter()
    result = det.run()
    wall = time.perf_counter() - t0

    # Output rendering and the summary line are shared with gsnp-serve:
    # served bytes are bitwise identical to these by construction.
    from .serve.runner import job_summary, write_job_output

    if spec.output:
        write_job_output(result, spec)
    print(
        job_summary(result, spec, wall)
        + (f" -> {spec.output}" if spec.output else "")
    )
    return 0


def main_serve(argv=None) -> int:
    """Run the resident gsnp-serve daemon on a Unix socket."""
    p = _parser(main_serve)
    p.add_argument(
        "--socket", default="gsnp-serve.sock",
        help="Unix socket path to listen on (the OS caps it at ~107 bytes)",
    )
    p.add_argument(
        "--state-dir", default="gsnp-serve-state",
        help="durable state: job ledger, shard journals, calibration store",
    )
    p.add_argument(
        "--workers", type=int, default=2,
        help="worker threads (each keeps its own resident device state)",
    )
    p.add_argument(
        "--max-queued", type=int, default=16,
        help="admission cap on live (queued + running) jobs",
    )
    p.add_argument(
        "--tenant-quota", type=int, default=None,
        help="admission cap on live jobs per tenant (default: unlimited)",
    )
    p.add_argument(
        "--max-datasets", type=int, default=4,
        help="parsed-dataset and in-memory calibration LRU size",
    )
    args = p.parse_args(argv)

    import signal

    from .serve import GsnpServer, ServeConfig

    server = GsnpServer(ServeConfig(
        socket_path=args.socket,
        state_dir=args.state_dir,
        workers=args.workers,
        max_queued=args.max_queued,
        tenant_quota=args.tenant_quota,
        max_datasets=args.max_datasets,
    ))

    def _stop(signum, frame):
        server.shutdown(drain=False)

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    server.start()
    if server.recovered_jobs:
        print(
            f"recovered {len(server.recovered_jobs)} pending job(s): "
            + ", ".join(server.recovered_jobs),
            flush=True,
        )
    print(
        f"gsnp-serve: listening on {args.socket} "
        f"({args.workers} worker(s), state in {args.state_dir})",
        flush=True,
    )
    server.serve_forever()
    print("gsnp-serve: bye")
    return 0


def main_submit(argv=None) -> int:
    """Submit a calling job to a running gsnp-serve daemon."""
    p = _parser(main_submit)
    p.add_argument(
        "--socket", default="gsnp-serve.sock",
        help="Unix socket of the daemon",
    )
    p.add_argument("--tenant", default="default", help="tenant id for quotas")
    p.add_argument(
        "--priority", type=int, default=0,
        help="scheduling priority (higher runs first)",
    )
    p.add_argument(
        "--no-wait", dest="wait", action="store_false",
        help="return right after admission instead of streaming the job",
    )
    p.add_argument(
        "--stats", action="store_true",
        help="print the daemon's scheduler/cache counters and exit",
    )
    p.add_argument("--ping", action="store_true", help="liveness probe")
    p.add_argument(
        "--shutdown", action="store_true",
        help="ask the daemon to drain live jobs and stop",
    )
    JobSpec.add_cli_args(p)
    args = p.parse_args(argv)

    import json

    from .serve.client import ServeClient
    from .serve.protocol import ProtocolError

    client = ServeClient(args.socket)
    try:
        if args.ping:
            print(json.dumps(client.ping(), sort_keys=True))
            return 0
        if args.stats:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if args.shutdown:
            client.shutdown(drain=True)
            print("gsnp submit: daemon stopping")
            return 0
        try:
            spec = JobSpec.from_cli_args(args).validate(require_inputs=True)
        except ValueError as exc:
            p.error(str(exc))
        result = client.submit(
            spec, tenant=args.tenant, priority=args.priority, wait=args.wait
        )
    except (OSError, ProtocolError) as exc:
        print(f"gsnp submit: {exc}", file=sys.stderr)
        return 1
    if result.status == "rejected":
        print(
            f"gsnp submit: rejected ({result.code}): {result.error}",
            file=sys.stderr,
        )
        return 1
    if result.status == "accepted":
        print(f"accepted: {result.job_id}")
        return 0
    if result.status != "done":
        print(
            f"gsnp submit: job {result.job_id} failed: {result.error}",
            file=sys.stderr,
        )
        return 1
    if result.output is not None:
        # Inline job: the result bytes stream to stdout, summary to stderr.
        sys.stdout.buffer.write(result.output)
        sys.stdout.buffer.flush()
        print(result.summary, file=sys.stderr)
    else:
        print(f"{result.summary} -> {spec.output}")
    return 0


def main_decompress(argv=None) -> int:
    """Decompress a GSNP result file back to SOAPsnp text."""
    p = _parser(main_decompress)
    p.add_argument("input")
    p.add_argument("-o", "--output", default=None, help="default: stdout")
    p.add_argument("--snps-only", action="store_true")
    p.add_argument(
        "--range",
        default=None,
        help="1-based position range LO:HI (half-open)",
    )
    args = p.parse_args(argv)

    reader = CompressedResultReader(args.input)
    if args.range:
        try:
            lo, hi = (int(x) for x in args.range.split(":"))
        except ValueError:
            p.error("--range takes LO:HI")
        table = reader.query_range(lo, hi)
    elif args.snps_only:
        table = reader.query_snps()
    else:
        table = reader.read_all()
    if args.output:
        nbytes = write_cns(args.output, table)
        print(f"wrote {table.n_sites} rows ({nbytes} bytes) to {args.output}")
    else:
        from .formats.cns import format_rows

        sys.stdout.write(format_rows(table).decode())
    return 0


def main_bench(argv=None) -> int:
    """Regenerate the paper's tables/figures as CSV files."""
    p = _parser(main_bench)
    p.add_argument("-o", "--out-dir", default="results")
    p.add_argument(
        "--fraction", type=float, default=None,
        help="dataset shrink factor (default: harness defaults)",
    )
    from .bench.export import EXPERIMENTS, export_all

    p.add_argument(
        "--only", default=None,
        help="comma-separated experiment ids out of "
        + ",".join(EXPERIMENTS),
    )
    args = p.parse_args(argv)

    include = tuple(args.only.split(",")) if args.only else EXPERIMENTS
    unknown = [i for i in include if i not in EXPERIMENTS]
    if unknown:
        p.error(
            f"unknown experiment id(s) {','.join(unknown)}; "
            f"valid: {','.join(EXPERIMENTS)}"
        )
    written = export_all(args.out_dir, fraction=args.fraction, include=include)
    for path in written:
        print(f"wrote {path}")
    return 0


def main_verify(argv=None) -> int:
    """Run the cross-engine consistency audit on a simulated dataset."""
    p = _parser(main_verify)
    p.add_argument("--sites", type=int, default=10_000)
    p.add_argument("--depth", type=float, default=10.0)
    p.add_argument("--coverage", type=float, default=0.9)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--windows", default="1000,4096",
        help="comma-separated window sizes to check invariance over",
    )
    args = p.parse_args(argv)

    from .validate import verify_engines

    ds = generate_dataset(
        DatasetSpec(
            name="chrVerify", n_sites=args.sites, depth=args.depth,
            coverage=args.coverage, seed=args.seed,
        )
    )
    windows = tuple(int(w) for w in args.windows.split(","))
    report = verify_engines(ds, window_sizes=windows)
    print(report.summary())
    return 0 if report.passed else 1


def main_audit(argv=None) -> int:
    """Check kernel code statically: SIMT discipline, coalescing, races.

    Lowers every kernel to a per-kernel IR and answers each rule as a
    query over it: raw accesses, runtime logs, per-thread loops, dropped
    masks and NumPy device indexing (GSNP101-105), the coalescing class
    of every routed memory op (GSNP201 notes), provable races (GSNP202),
    static uninit reads (GSNP203), missing-barrier hazards (GSNP204) and
    unprovable indices (GSNP205).
    """
    p = _parser(
        main_audit, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    p.add_argument(
        "paths", nargs="+", help="python files or directories to check"
    )
    p.add_argument(
        "--select", default=None,
        help="comma-separated rule ids/names to check (default: all)",
    )
    p.add_argument(
        "--ignore", default=None,
        help="comma-separated rule ids/names to skip",
    )
    p.add_argument(
        "--format", default="text", choices=("text", "json", "github"),
        dest="fmt",
        help="output format: text (default), json, or github "
        "(per-line CI annotations)",
    )
    p.add_argument(
        "--list-rules", action="store_true", help="print the rule table"
    )
    p.add_argument(
        "-v", "--verbose", action="store_true",
        help="also print per-op GSNP201 verdict notes (text format)",
    )
    args = p.parse_args(argv)

    from .analyze import RULES
    from .analyze.dataflow import audit_paths
    from .analyze.report import render_diagnostics

    if args.list_rules:
        for rid, rname in RULES.items():
            print(f"{rid}  {rname}")
        return 0
    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    try:
        mods = audit_paths(args.paths, select=select, ignore=ignore)
    except ValueError as exc:
        p.error(str(exc))

    diags = [d for m in mods for d in m.diagnostics]
    errors = [d for d in diags if d.severity == "error"]
    verdicts = [v for m in mods for v in m.verdicts]
    counts: dict[str, int] = {}
    for v in verdicts:
        counts[v.verdict] = counts.get(v.verdict, 0) + 1
    kernels = sum(len(m.kernels) for m in mods)

    shown = diags if (args.verbose or args.fmt != "text") else errors
    out = render_diagnostics(shown, args.fmt, extra={
        "kernels": kernels,
        "verdicts": counts,
        "ops": [v.to_dict() for v in verdicts],
    })
    if out:
        print(out)
    if args.fmt == "text":
        summary = ", ".join(
            f"{counts.get(k, 0)} {k}"
            for k in ("coalesced", "strided", "gather", "unproven")
        )
        print(
            f"audited {kernels} kernel(s), {len(verdicts)} memory op(s): "
            f"{summary}",
            file=sys.stderr,
        )
    if errors:
        print(f"{len(errors)} problem(s) found", file=sys.stderr)
    return 1 if errors else 0


#: The ``gsnp <action>`` table, in help order: action name (the function's
#: name minus ``main_``) -> entry function.
ACTIONS = {fn.__name__.removeprefix("main_"): fn for fn in (
    main_simulate, main_call, main_decompress, main_verify, main_bench,
    main_audit, main_serve, main_submit,
)}


def main(argv=None) -> int:
    """Dispatch ``gsnp <action> [args]`` over the :data:`ACTIONS` table."""
    action, *rest = (sys.argv[1:] if argv is None else argv) or [None]
    if action in ACTIONS:
        return ACTIONS[action](rest)
    help_asked = action in ("-h", "--help")
    if action is not None and not help_asked:
        print(f"gsnp: unknown action {action!r}", file=sys.stderr)
    print("usage: gsnp <action> [args]   (gsnp <action> -h for its flags)\n")
    for name, fn in ACTIONS.items():
        print(f"  {name:<12}{fn.__doc__.strip().splitlines()[0]}")
    return 0 if help_asked else 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

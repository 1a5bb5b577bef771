"""Outside-in layer tracer: timing wrappers around the layers' public functions.

One declared boundary table maps ``module:function`` / ``module:Class.method``
names to span names.  Installing the tracer replaces every ``repro.*`` module
attribute (or class attribute) that *is* the original object with a wrapper
that records a span — name, start, end, the span that caused it, thread and
job id — in memory; uninstalling restores the originals.  Nothing under
``src/`` is edited: tracing inside the program is ROADMAP item 1.

``self`` time of a span is its duration minus the time its direct child
spans (same thread) cover; ``busy`` time is the inclusive duration.

Worker *processes* are not traced into the parent: a forked worker inherits
the wrappers but its spans die with it.  Lane *threads* (the multi-device
scheduler) are traced; their spans are roots of their own thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

#: (span name, target).  Several targets may share one span name when they
#: are the same layer operation (e.g. alloc and free, or the unfused and
#: fused spelling of one kernel chain).
BOUNDARIES = (
    # gpusim: host cost of simulating
    ("gpusim.launch", "repro.gpusim.device:Device.launch"),
    ("gpusim.count_transactions", "repro.gpusim.memory:count_transactions"),
    ("gpusim.alloc_free", "repro.gpusim.device:Device.alloc"),
    ("gpusim.alloc_free", "repro.gpusim.device:Device.free"),
    ("gpusim.transfer", "repro.gpusim.device:Device.to_device"),
    ("gpusim.transfer", "repro.gpusim.device:Device.from_device"),
    # core: the GSNP kernel chains (Fig. 6 splits likelihood into sort/comp)
    ("core.counting", "repro.core.counting:gsnp_counting"),
    ("core.likelihood_sort", "repro.core.likelihood:gsnp_likelihood_sort"),
    ("core.likelihood_comp", "repro.core.likelihood:gsnp_likelihood_comp"),
    ("core.likelihood_comp",
     "repro.core.fused:gsnp_likelihood_posterior_fused"),
    ("core.posterior", "repro.core.posterior:gsnp_posterior"),
    ("core.posterior", "repro.core.fused:fused_posterior_tail"),
    ("core.merge_observations", "repro.core.fused:merge_observations"),
    ("core.tables_load", "repro.core.likelihood:GsnpTables.load"),
    ("core.recycle", "repro.core.recycle:gsnp_recycle"),
    ("core.recycle", "repro.core.fused:gsnp_recycle_fused"),
    ("core.pipeline", "repro.core.pipeline:GsnpPipeline.run"),
    ("core.pipeline", "repro.core.pipeline:GsnpPipeline.run_cohort"),
    ("core.detector", "repro.core.detector:GsnpDetector.run"),
    ("sortnet.multipass_sort", "repro.sortnet.multipass:multipass_sort"),
    # soapsnp: host code GSNP reuses
    ("soapsnp.build_p_matrix", "repro.soapsnp.p_matrix:build_p_matrix"),
    ("soapsnp.extract_observations",
     "repro.soapsnp.observe:extract_observations"),
    ("soapsnp.summarize_window", "repro.soapsnp.posterior:summarize_window"),
    # compress
    ("compress.encode_alignments", "repro.compress.columnar:encode_alignments"),
    ("compress.encode_table", "repro.compress.columnar:encode_table"),
    ("compress.encode_tables_fused",
     "repro.compress.fusedcodec:encode_tables_fused"),
    ("compress.decode", "repro.compress.reader:CompressedResultReader.read_all"),
    # formats / cli / serve.runner: the file path
    ("formats.read_soap", "repro.formats.soap:read_soap"),
    ("formats.read_fasta", "repro.formats.fasta:read_fasta"),
    ("cli.dataset_from_files", "repro.core.detector:dataset_from_files"),
    ("cli.main_call", "repro.cli:main_call"),
    ("serve.write_job_output", "repro.serve.runner:write_job_output"),
    # exec
    ("exec.calibrate", "repro.core.pipeline:GsnpPipeline.calibrate"),
    ("exec.execute", "repro.exec.executor:execute"),
    ("exec.merge", "repro.exec.merge:merge_shard_results"),
)

# Span record layout (a list, mutated in place on exit).
_NAME, _START, _END, _CHILD, _PARENT, _THREAD, _JOB = range(7)


class BoundaryError(RuntimeError):
    """A declared boundary no longer resolves (renamed or removed)."""


def _resolve(target: str):
    """(owner, attribute name, raw attribute) of one boundary target."""
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    # vars() keeps staticmethod/classmethod objects intact for re-wrapping.
    return owner, attr, vars(owner)[attr]


def resolve_boundaries(boundaries=BOUNDARIES) -> list:
    """Resolve every boundary, or raise naming all the missing ones.

    Run before the first repetition so a later rename cannot silently
    zero a layer.
    """
    resolved, missing = [], []
    for name, target in boundaries:
        try:
            resolved.append((name, *_resolve(target)))
        except (ImportError, AttributeError, KeyError) as exc:
            missing.append(f"{target} ({exc!r})")
    if missing:
        raise BoundaryError(
            "trace boundaries do not resolve: " + "; ".join(missing)
        )
    return resolved


class Tracer:
    """In-memory span recorder over the declared boundaries."""

    def __init__(self, boundaries=BOUNDARIES) -> None:
        self._resolved = resolve_boundaries(boundaries)
        self.names = sorted({name for name, *_ in self._resolved})
        self.spans: list = []
        #: Id of the repetition currently running; spans carry it.
        self.job = 0
        self._tls = threading.local()
        self._patches: list = []

    # -- wrapping ----------------------------------------------------------

    def _wrapper(self, name: str, fn):
        spans, tls, clock = self.spans, self._tls, time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                stack = tls.stack
            except AttributeError:
                stack = tls.stack = []
            parent = stack[-1] if stack else None
            rec = [name, 0.0, 0.0, 0.0, parent, get_ident(), self.job]
            spans.append(rec)
            stack.append(rec)
            rec[_START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = rec[_END] = clock()
                stack.pop()
                if parent is not None:
                    parent[_CHILD] += end - rec[_START]

        return traced

    def install(self) -> None:
        for name, owner, attr, raw in self._resolved:
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrapper(name, raw.__func__))
            else:
                wrapped = self._wrapper(name, raw)
            if isinstance(owner, type):
                setattr(owner, attr, wrapped)
                self._patches.append((owner, attr, raw))
                continue
            # A module function: ``from x import f`` copies the reference,
            # so patch every repro module that holds this very object.
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (
                    mod_name == "repro" or mod_name.startswith("repro.")
                ):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is raw:
                        setattr(mod, key, wrapped)
                        self._patches.append((mod, key, raw))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- aggregation -------------------------------------------------------

    def aggregate(self) -> dict:
        """Per span name: call count, inclusive and self seconds."""
        out = {name: {"n": 0, "busy_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for rec in self.spans:
            dur = rec[_END] - rec[_START]
            row = out[rec[_NAME]]
            row["n"] += 1
            row["busy_s"] += dur
            row["self_s"] += dur - rec[_CHILD]
        return out

    def self_seconds(self, thread: int) -> float:
        """Total self time of one thread's spans (for trace coverage)."""
        return sum(
            rec[_END] - rec[_START] - rec[_CHILD]
            for rec in self.spans if rec[_THREAD] == thread
        )

    def dump(self, path) -> None:
        """Write the raw spans: name, start, end, parent index, thread, job."""
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        rows = [
            [rec[_NAME], rec[_START], rec[_END],
             index[id(rec[_PARENT])] if rec[_PARENT] is not None else None,
             rec[_THREAD], rec[_JOB]]
            for rec in self.spans
        ]
        with open(path, "w") as f:
            json.dump({
                "columns": ["name", "start", "end", "parent", "thread", "job"],
                "spans": rows,
            }, f)

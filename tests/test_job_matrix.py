"""One generated parity matrix: any JobSpec yields the oracle's bytes or a
typed error — the paper's §IV-G identity, for every way a job can run.

One axis table over JobSpec fields and one property over it: a spec
``validate`` refuses makes the run raise the same ``ValueError`` and
write nothing; any other spec gives every sample the suite's ``gsnp_cpu``
oracle table (``verify.check``), the serial run's bytes and the file
``compressed`` asks for; a faulted run may instead raise a ``GsnpError``
and leave no file, and a poisoned-shard kill resumes to the oracle's
bytes.  On regions of the table, event
counters depend on the launch chain alone and executor/pool bookkeeping
accounts for every shard.  The suite's accuracy is pinned here too.

The content keys (``repro.api.job_key``) are derived from the same table:
every field a key keeps changes it, and every field it leaves out is
proven harmless for the reason its group names — a byte-invariant axis
gives the same bytes at every value, a field ``calibrate()`` never reads
leaves the calibration alone.
"""

import sys
import tempfile
import typing
import warnings
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.api import (
    KEY_EXCLUSIONS, JobSpec, create_pipeline, effective_window, job_key,
)
from repro.compress.columnar import encode_table
from repro.constants import DEFAULT_WINDOW_GSNP
from repro.core.cohort import cohort_output_path, pooled_batch
from repro.core.detector import GsnpDetector
from repro.errors import GsnpError
from repro.exec import calibrate_job, plan_shards
from repro.exec.executor import SHARD_KEY_EXCLUDES
from repro.gpusim.launchplan import MEGABATCH_WINDOWS
from repro.faults import FaultPlan, FaultSpec
from repro.formats.cns import format_rows
from repro.formats.soap import read_soap, write_soap
from repro.seqsim.datasets import DatasetSpec, generate_dataset
from repro.seqsim.reads import simulate_reads
from repro.serve.runner import CALIBRATION_KEY_EXCLUDES, write_job_output

# The suite's oracle check, imported as its own tests import it (appended:
# the suite's trace.py must not shadow the standard library's).
sys.path.append(str(Path(__file__).parents[1] / "benchmarks" / "suite"))
import verify  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Inputs, Outcome, Workload, prepare, run_job,
)

N_SITES = 1600

#: JobSpec field -> values, the first is the one a case shrinks to.
#: ``samples`` is the cohort size S, ``faults`` a ``FaultPlan.generate``
#: seed, ``resume`` a journal, a poisoned-shard kill and a resume.
AXES = {
    "engine": ("gsnp", "gsnp_cpu", "soapsnp"),
    "variant": ("optimized", "baseline", "w_shared", "w_new_table"),
    "window": (256, 450, DEFAULT_WINDOW_GSNP),
    "fusion": (True, False),
    "workers": (1, 2), "shard_size": (None, 600),
    "devices": (1, 2, 4), "cpu_steal": (False, True),
    "sanitize": (False, True), "samples": (1, 2, 4),
    "faults": (None, 0, 1, 2, 3), "resume": (False, True),
    "compressed": (True, False),
}
#: Further values of the tier-2 profile.
WIDE = {"window": (100, 1600, 4000), "workers": (4,),
        "shard_size": (256, 1024, 5000), "devices": (3,),
        "faults": tuple(range(4, 64))}
WIDE_AXES = {a: v + WIDE.get(a, ()) for a, v in AXES.items()}


def case(**values):
    return {axis: options[0] for axis, options in AXES.items()} | values


class Env:
    """The dataset, the cohort's sample files, the memoised oracles."""

    def __init__(self, root: Path) -> None:
        self.ds = generate_dataset(DatasetSpec(
            name="matrix", n_sites=N_SITES, depth=6.0, coverage=0.92,
            read_len=40, seed=31,
        ))
        self.batches = [self.ds.reads]
        self.paths = [str(root / f"sample{i}.soap") for i in (1, 2, 3)]
        for i, path in enumerate(self.paths, 1):
            write_soap(path, simulate_reads(
                self.ds.diploid, depth=6.0, coverage=0.92, read_len=40,
                seed=1000 + i,
            ))
            self.batches.append(read_soap(path))
        self.memo: dict = {}
        self.counters: dict = {}  # launch-chain key -> first events seen

    def inputs(self, s: int) -> Inputs:
        return Inputs(Workload("job-matrix", "ch1", N_SITES), N_SITES,
                      self.ds, self.batches[:s] if s > 1 else None)

    def oracle(self, s: int) -> list:
        """Per-sample tables of the suite's ``gsnp_cpu`` oracle."""
        if s not in self.memo:
            self.memo[s] = verify.build_oracle(self.inputs(s))
        return self.memo[s]

    def serial_streams(self, window: int, s: int) -> list:
        """Per-sample compressed streams of the serial run at ``window``,
        calibrated once over a cohort's pooled reads."""
        if (window, s) not in self.memo:
            pipe = create_pipeline(spec=JobSpec(engine="gsnp_cpu",
                                                window=window))
            reads = pooled_batch(self.batches[:s]) if s > 1 else None
            cal = pipe.calibrate(self.ds, reads=reads)
            self.memo[window, s] = [
                pipe.run(self.ds, calibration=cal, reads=b).compressed_output
                for b in self.batches[:s]
            ]
        return self.memo[window, s]


@pytest.fixture(scope="module")
def env(tmp_path_factory):
    return Env(tmp_path_factory.mktemp("matrix"))


def shard_bounds(spec: JobSpec) -> tuple:
    """The shards the executor plans for the job's lanes (a pool's, else
    ``workers``): a serial job is one shard, or one megabatch of windows
    per shard when journaled."""
    window = effective_window(spec.engine, spec.window)
    lanes = spec.devices + spec.cpu_steal if spec.uses_pool else spec.workers
    size = spec.shard_size
    if size is None and lanes == 1:
        size = MEGABATCH_WINDOWS * window if spec.journal else N_SITES
    return tuple((s.start, s.end)
                 for s in plan_shards(N_SITES, window, size, lanes))


def counter_key(spec: JobSpec, s: int, bounds: tuple):
    """What event counters are a function of; ``None`` off that region
    (pool lanes hand shards to the host engine, and a fault's degraded
    rung reruns a fused shard per window).  Per-window and host chains sum
    per window, so sharding, retries and resumes drop out; a fused chain
    cuts megabatches at shard boundaries too."""
    fused = spec.engine == "gsnp" and spec.fusion
    if spec.uses_pool or (fused and spec.faults is not None):
        return None
    key = (spec.engine, effective_window(spec.engine, spec.window), s)
    if spec.engine != "soapsnp":
        key += (spec.variant_name,)
    return key + ((bounds,) if fused else ())


def run(env: Env, spec: JobSpec, sample_batches=None):
    """Run the job and deliver its files (when ``spec.output`` names one)
    as ``gsnp call`` does."""
    detector = GsnpDetector(spec=spec)
    detector.sample_batches = sample_batches
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # degradation rungs, unused toggles
        result = detector.run(env.ds)
    write_job_output(result, spec)
    return result


def events(profile) -> dict:
    """Per-phase event records, the measured wall clock blanked."""
    return {k: replace(r, wall=0.0) for k, r in profile.records.items()}


def check_job(env: Env, c: dict) -> set:
    """The property for one case; returns what it exercised."""
    with tempfile.TemporaryDirectory(prefix="gsnp-matrix-") as tmp:
        root = Path(tmp)
        out, journal = root / "out", root / "journal"
        spec = JobSpec(
            **{k: c[k] for k in AXES
               if k not in ("samples", "faults", "resume")},
            samples=env.paths[: c["samples"] - 1],
            journal=str(journal) if c["resume"] else None,
            output=str(out),
        )
        try:
            spec.validate()
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                run(env, spec)
            assert str(raised.value) == str(exc)
            assert not list(root.iterdir())
            return {"rejected"}
        bounds = shard_bounds(spec)
        done = {(axis, c[axis]) for axis in AXES} | {"oracle"}

        def faults():  # fresh per run: a plan counts its own hits
            if c["faults"] is not None:
                return FaultPlan.generate(c["faults"], len(bounds))

        committed = 0
        if c["resume"]:
            poison = FaultSpec(site="exec.shard.error",
                               key=len(bounds) - 1, times=99)
            with pytest.raises(GsnpError):
                run(env, replace(spec, faults=(faults() or FaultPlan())
                                 .with_spec(poison)))
            assert not list(root.glob("out*"))
            committed = len(list(journal.rglob("shard-*.pkl")))
            done |= {"typed-error"} | ({"resumed"} if committed else set())
            spec = replace(spec, resume=True)
        spec = replace(spec, faults=faults())
        try:
            res = run(env, spec)
        except GsnpError:
            assert spec.faults is not None, "only a faulted run may fail"
            assert not list(root.glob("out*"))
            return (done - {"oracle"}) | {"typed-error"}

        s, text = c["samples"], spec.engine == "soapsnp"
        members = res.samples
        blobs = [encode_table(m.table) if text else m.compressed_output
                 for m in members]
        failures, _ = verify.check(
            Outcome(res, [m.table for m in members], blobs,
                    out if spec.compressed else None),
            env.oracle(s), env.inputs(s), enforce_floors=False,
        )
        assert failures == []
        # The engine's own output (text rows for the dense baseline, the
        # serial run's blob otherwise), and the file the spec asks for.
        native = [format_rows(env.oracle(1)[0])] if text else \
            env.serial_streams(effective_window(spec.engine, spec.window), s)
        if not spec.compressed:
            want = [format_rows(t) for t in env.oracle(s)]
        elif text:
            want = [encode_table(env.oracle(1)[0])]
        else:
            want = native
        for i, member in enumerate(members):
            assert text or member.compressed_output == native[i]
            assert cohort_output_path(out, i).read_bytes() == want[i]
            assert member.output_bytes == len(native[i])
        assert len(list(root.glob("out*"))) == s

    key = counter_key(spec, s, bounds)
    if key is not None:
        assert env.counters.setdefault(key, events(res.profile)) \
            == events(res.profile), key
    meta = res.extras["exec"]
    whole_job = meta["pool"] == "serial" and len(bounds) == 1
    if whole_job and s == 1 and not text and spec.faults is None \
            and not spec.journal:  # a solo run is a cohort of one
        one = run(env, replace(spec, output=None),
                  sample_batches=env.batches[:1])
        assert events(one.profile) == events(res.profile)
        assert one.samples[0].table.equals(res.samples[0].table)
        for field in ("compressed_output", "sort_stats",
                      "temp_input_bytes"):
            assert getattr(one.samples[0], field) \
                == getattr(res.samples[0], field)
    ran = len(bounds) - committed
    assert (meta["resumed"], meta["n_shards"], meta["samples"]) \
        == (committed, len(bounds), s)
    assert meta["pool"] == ("hetero" if spec.uses_pool else "process"
                            if spec.workers > 1 else "serial")
    if spec.uses_pool:
        h = meta["hetero"]
        assert (h["devices"], h["cpu_steal"], len(h["per_device"])) \
            == (spec.devices, spec.cpu_steal, spec.devices)
        assert sum(h["initial_split"]) == ran
        assert sum(lane["shards"] for lane in h["lanes"]) == ran
        assert all(lane["wall"] > 0 for lane in h["lanes"] if lane["shards"])
    return done


#: Cases every tier-1 run checks: the corners of hand-written parity
#: matrices this table replaced, then cases that cross axes no such matrix
#: crosses; together they give every axis value and every outcome.
PINNED = [
    # the fused chain at window 256, on process lanes, under the sanitizer
    case(), case(workers=2, shard_size=600), case(sanitize=True),
    # a cohort on a pool, sanitized and faulted; a journaled pool with a
    # steal lane killed, then resumed; a journaled cohort on process lanes
    case(samples=4, devices=2, sanitize=True, faults=1),
    case(resume=True, devices=2, cpu_steal=True, faults=3),
    case(resume=True, workers=2, samples=2, faults=2),
    # a kernel variant on four devices; fused cohort megabatches cut at
    # shard bounds (inside a megabatch); a sanitized cohort one window
    # per launch batch
    case(variant="baseline", window=450, fusion=False, devices=4,
         cpu_steal=True, workers=2),
    case(variant="w_shared", shard_size=600, samples=2),
    case(fusion=False, sanitize=True, samples=4),
    # a cohort of two one window per launch batch on the serial lane
    case(fusion=False, samples=2),
    # a fused cohort of four on the serial lane over several shards
    case(samples=4, shard_size=600),
    # the host engine sharded and faulted, then serial (same counters);
    # the dense baseline on process lanes; two rejections
    case(engine="gsnp_cpu", variant="w_new_table", window=DEFAULT_WINDOW_GSNP,
         shard_size=600, faults=0),
    case(engine="gsnp_cpu", variant="w_new_table", window=DEFAULT_WINDOW_GSNP),
    case(engine="soapsnp", window=450, workers=2),
    case(window=0), case(engine="soapsnp", devices=2),
    # the file a spec asks for, whatever the engine's own output: text
    # from the fused chain, a columnar blob from the dense baseline
    case(compressed=False),
    case(engine="soapsnp", compressed=True, window=450),
]


def profile(axes, n, pinned=(), derandomize=True):
    """``@given`` over ``axes``, plus the ``pinned`` examples."""
    strategy = st.fixed_dictionaries(
        {a: st.sampled_from(v) for a, v in axes.items()})
    fuzz = settings(max_examples=n, derandomize=derandomize, deadline=None,
                    database=None, suppress_health_check=list(HealthCheck))

    def decorate(fn):
        for c in pinned:
            fn = example(c)(fn)
        return fuzz(given(strategy)(fn))
    return decorate


class TestJobMatrix:
    def test_any_spec_is_oracle_bytes_or_typed_error(self, env):
        exercised: set = set()

        @profile(AXES, n=4, pinned=PINNED)
        def prop(c):
            exercised.update(check_job(env, c))

        prop()
        wanted = {(a, v) for a, values in AXES.items() for v in values}
        assert not wanted - exercised, sorted(wanted - exercised, key=str)
        assert {"oracle", "rejected", "typed-error", "resumed"} <= exercised

    @pytest.mark.tier2
    def test_any_spec_is_oracle_bytes_or_typed_error_wide(self, env):
        @profile(WIDE_AXES, n=400, derandomize=False)
        def prop(c):
            check_job(env, c)

        prop()


#: Each content key -> the reasons it leaves fields out, and what a stale
#: hit would splice: a run's bytes, or a calibration.
KEYS = {
    "journal and resident pipeline": (SHARD_KEY_EXCLUDES, "bytes"),
    "calibration": (CALIBRATION_KEY_EXCLUDES, "calibration"),
}
#: A value of each field type other than the default; ``None`` defaults
#: take their annotation's type.
TYPED = {bool: lambda d: not d, int: lambda d: d + 1,
         float: lambda d: 1.5, str: lambda d: "other",
         tuple: lambda d: ("other",), FaultPlan: lambda d: FaultPlan()}


def perturbations(name: str, axes: dict, base: JobSpec) -> list:
    """Values of field ``name`` other than ``base``'s: the ``axes``
    table's where it holds field values, else one derived from the
    field's type."""
    default = getattr(base, name)
    if name in axes and name not in ("samples", "faults"):
        values = axes[name]
    else:
        hint = typing.get_type_hints(JobSpec)[name]
        kind = next(t for t in typing.get_args(hint) or (hint,)
                    if t is not type(None))
        values = (TYPED[kind](default),)
    return [v for v in values if v != default]


def job_bytes(env: Env, spec: JobSpec) -> list:
    """Every sample's text rows and compressed stream."""
    res = run(env, spec)
    return [(format_rows(m.table), m.compressed_output)
            for m in res.samples]


def calibration_of(env: Env, spec: JobSpec) -> tuple:
    """What a stored calibration holds, the measured wall clock blanked."""
    cal = calibrate_job(env.ds, spec, [env.ds.reads])
    return (cal.digest, cal.temp_len, cal.total_reads,
            replace(cal.record, wall=0.0), cal.new_p_flat is None)


def left_out(excludes) -> set:
    return set().union(*(KEY_EXCLUSIONS[r] for r in excludes))


def to_prove(spliced: str, axes: dict, base: JobSpec) -> list:
    """(key, field, value) for every field a key splicing ``spliced``
    leaves out, at every value but ``base``'s: paths and run control have
    their own proofs."""
    own = KEY_EXCLUSIONS["paths"] | KEY_EXCLUSIONS["run control"]
    return [(name, f, v) for name, (excludes, what) in KEYS.items()
            if what == spliced
            for f in sorted(left_out(excludes) - own)
            for v in perturbations(f, axes, base)]


TABLES = [pytest.param(AXES, id="axes"),
          pytest.param(WIDE_AXES, id="wide", marks=pytest.mark.tier2)]


class TestContentAddress:
    @pytest.mark.parametrize("name", list(KEYS))
    def test_key_changes_with_every_field_it_keeps(self, name):
        excludes, _ = KEYS[name]
        base = JobSpec()
        kept = [f.name for f in fields(JobSpec)
                if f.name not in left_out(excludes)]
        assert kept
        for field in kept:
            for value in perturbations(field, WIDE_AXES, base):
                other = replace(base, **{field: value})
                assert job_key(other, excludes) != job_key(base, excludes), \
                    (field, value)

    def test_every_exclusion_is_one_named_reason(self):
        names = {f.name for f in fields(JobSpec)}
        seen: set = set()
        for reason, group in KEY_EXCLUSIONS.items():
            assert group <= names, reason
            assert not group & seen, reason
            seen |= group
        for excludes, _ in KEYS.values():
            assert set(excludes) <= set(KEY_EXCLUSIONS)

    def test_paths_are_the_fields_validate_reads_as_paths(self):
        def is_path(name):
            try:
                replace(JobSpec(), **{
                    name: (3,) if name == "samples" else 3,
                }).validate()
            except ValueError as exc:
                return f"{name} must be a path" in str(exc)
            return False

        path_fields = {f.name for f in fields(JobSpec) if is_path(f.name)}
        assert KEY_EXCLUSIONS["paths"] \
            == path_fields - KEY_EXCLUSIONS["run control"]

    def test_run_control_is_what_a_kill_and_resume_set(self):
        plain = JobSpec(fasta="ref.fa", soap="reads.soap")
        poison = FaultSpec(site="exec.shard.error", key=0, times=99)
        killed = replace(plain, journal="j",
                         faults=FaultPlan().with_spec(poison))
        resumed = replace(plain, journal="j", resume=True)
        changed = {f.name for f in fields(JobSpec)
                   for spec in (killed, resumed)
                   if getattr(spec, f.name) != getattr(plain, f.name)}
        assert KEY_EXCLUSIONS["run control"] == changed
        assert job_key(killed, SHARD_KEY_EXCLUDES) \
            == job_key(resumed, SHARD_KEY_EXCLUDES)

    @pytest.mark.parametrize("axes", TABLES)
    def test_byte_invariant_exclusions_keep_bytes(self, env, axes):
        """Each is an axis of the matrix, and every value of it gives
        the bytes of the default."""
        base = JobSpec(**{a: v for a, v in case().items()
                          if a not in ("samples", "faults", "resume")})
        want = job_bytes(env, base)
        for name, field, value in to_prove("bytes", axes, base):
            assert field in AXES, (name, field)
            other = replace(base, **{field: value})
            assert job_bytes(env, other) == want, (name, field, value)

    @pytest.mark.parametrize("axes", TABLES)
    def test_calibration_key_exclusions_keep_the_calibration(self, env, axes):
        base = JobSpec(engine="gsnp", window=256)
        want = calibration_of(env, base)
        for name, field, value in to_prove("calibration", axes, base):
            other = replace(base, **{field: value})
            assert calibration_of(env, other) == want, (name, field, value)


#: (precision, recall) of each suite workload at seed 0, scale 8: exact
#: for a seed, so pinned rather than floored.
ACCURACY = {
    "solo-smallwin": (1.0, 0.9),
    "solo-bigwin": (1.0, 0.8),
    "cohort-pool": (1.0, 0.8541666666666666),
    "files-sharded": (1.0, 0.7857142857142857),
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_suite_workload_accuracy_is_pinned(name, tmp_path):
    inputs = prepare(WORKLOADS[name], seed=0, scale=8, workdir=tmp_path)
    failures, score = verify.check(run_job(inputs),
                                   verify.build_oracle(inputs), inputs,
                                   enforce_floors=True)
    assert failures == []
    assert (score.precision, score.recall) == ACCURACY[name]

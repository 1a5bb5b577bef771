"""Static and runtime analysis enforcing the simulator's SIMT discipline.

Two complementary layers guard the property every paper-level claim
rests on — that *all* simulated kernel memory traffic is routed through
:class:`~repro.gpusim.kernel.KernelContext` and follows the lockstep idiom:

* ``gsnp audit`` — one static analyzer over one IR.
  :mod:`repro.analyze.ir` lowers every kernel body to its routed memory
  ops plus a record of each construct the routed model cannot express;
  :mod:`repro.analyze.dataflow` runs abstract interpretation over an
  affine-in-tid lattice and answers every kernel rule as a query over
  that IR: raw accesses, runtime logs, per-thread loops, dropped masks
  and NumPy device indexing (GSNP101-105), the coalescing class of each
  memory op (GSNP201), provable static races (GSNP202), uninitialized
  global reads (GSNP203), missing-barrier hazards (GSNP204), and
  ``unproven`` said out loud (GSNP205).  :mod:`repro.analyze.lint` holds
  the shared rule table, diagnostics and suppression grammar.
* :mod:`repro.analyze.sanitize` — the runtime sanitizer behind
  ``Device(sanitize=True)`` (compute-sanitizer/racecheck-style): data
  races, read-after-write hazards, store/atomic mixing, uninitialized
  reads, and device-teardown leak checks.

Kernel discovery (definitions, launch sites, and aliases) lives in
:mod:`repro.analyze.discover`; output formats (text / json / github) in
:mod:`repro.analyze.report`.  The replay that checks every proven
coalescing verdict against the simulator's runtime transaction counters
is a test (``tests/test_analyze_audit.py``, ``TestCalibration``).
"""

from .dataflow import (
    AbstractValue,
    KernelAudit,
    ModuleAudit,
    OpVerdict,
    audit_file,
    audit_paths,
    audit_source,
)
from .discover import DiscoveredKernels, discover_kernels, iter_python_files
from .ir import KernelIR, KernelOp, Site, extract_kernel_ir, extract_module_ir
from .lint import Diagnostic, RULES
from .report import FORMATS, render_diagnostics
from .sanitize import Sanitizer, SanitizerIssue

__all__ = [
    "AbstractValue",
    "Diagnostic",
    "DiscoveredKernels",
    "FORMATS",
    "KernelAudit",
    "KernelIR",
    "KernelOp",
    "ModuleAudit",
    "OpVerdict",
    "RULES",
    "Sanitizer",
    "SanitizerIssue",
    "Site",
    "audit_file",
    "audit_paths",
    "audit_source",
    "discover_kernels",
    "extract_kernel_ir",
    "extract_module_ir",
    "iter_python_files",
    "render_diagnostics",
]

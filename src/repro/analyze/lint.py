"""``gsnp-lint``: static AST enforcement of the SIMT kernel discipline.

Every paper-level claim this repo reproduces (Table III counters, the
82 vs 3.2 GB/s coalescing gap, bitwise CPU/GPU score consistency) is only
valid if every simulated kernel routes its memory traffic through
:class:`~repro.gpusim.kernel.KernelContext` and follows the lockstep
idiom.  This linter discovers kernel bodies — functions named
``*_kernel`` or passed to ``Device.launch`` / ``DeviceStream.enqueue`` —
and flags violations:

========  ====================  ==============================================
rule id   name                  what it catches
========  ====================  ==============================================
GSNP100   parse-error           file does not parse (reported, not raised)
GSNP101   kernel-data-access    direct ``.data`` / ``flat_view()`` /
                                ``copy_to_host()`` access inside a kernel —
                                traffic the transaction counters never see
GSNP102   kernel-log-call       ``np.log*`` / ``math.log*`` in a kernel body;
                                scores must come from the precomputed
                                ``log_table`` (the paper's contribution 3)
GSNP103   per-thread-loop       Python loops over ``ctx.tid`` /
                                ``range(ctx.n_threads)`` — the anti-lockstep
                                pattern (one iteration per thread)
GSNP104   dropped-active-mask   ``gstore`` / ``gatomic_add`` without an
                                ``active`` argument while a live mask is in
                                scope (write ``active=None`` to assert a
                                deliberate full-warp store)
GSNP105   device-fancy-index    NumPy subscripting of a device array inside
                                a kernel instead of ``ctx.gload``/``gstore``
GSNP106   adhoc-fault-site      fault injection outside the chaos registry:
                                ``fault_point`` with a non-literal or
                                unregistered site, ad-hoc ``if FAULT:``-style
                                flags, or ``FAULT``/``CHAOS`` environment
                                lookups (module-level rule, not kernel-scoped)
GSNP107   fusable-in-window-loop  a launcher registered in
                                ``repro.gpusim.launchplan.FUSABLE_LAUNCHERS``
                                called inside a per-window loop — per-window
                                kernel chains belong on the fused megabatch
                                path (module-level rule, not kernel-scoped)
GSNP109   suppression-without-rationale  a ``# gsnp-lint: disable=`` comment
                                with no explanatory comment on the same line
                                or within two lines (opt-in via
                                ``--require-rationale``; enforced in CI)
GSNP110   direct-device-instantiation  ``Device(...)`` constructed directly
                                instead of acquired through
                                ``repro.gpusim.pool`` (``acquire_device`` /
                                ``DevicePool``) — bare devices bypass the
                                shared-link accounting and the pool's
                                residency keying (module-level rule)
GSNP111   per-sample-launcher-loop  a launcher registered in
                                ``FUSABLE_LAUNCHERS`` called inside a
                                per-sample/cohort loop; the sample-major
                                cohort launch plan batches all samples into
                                one launch chain — a Python loop over samples
                                reintroduces O(S x megabatches) launches
                                (module-level rule)
========  ====================  ==============================================

Rules GSNP201–GSNP205 are registered here but emitted by the static
dataflow auditor (:mod:`repro.analyze.dataflow`, the ``gsnp-audit`` CLI);
see that module for their semantics.  All rules share one id space, one
``RULES`` registry, and one suppression mechanism.

Suppress a finding with ``# gsnp-lint: disable=GSNP101`` (rule ids or
names, comma-separated, or ``all``) on the offending line; suppressions
are expected to carry a rationale comment nearby (GSNP109 enforces this
when asked).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .discover import discover_kernels, iter_python_files

#: rule id -> short name (shared by gsnp-lint and gsnp-audit)
RULES: dict[str, str] = {
    "GSNP100": "parse-error",
    "GSNP101": "kernel-data-access",
    "GSNP102": "kernel-log-call",
    "GSNP103": "per-thread-loop",
    "GSNP104": "dropped-active-mask",
    "GSNP105": "device-fancy-index",
    "GSNP106": "adhoc-fault-site",
    "GSNP107": "fusable-in-window-loop",
    "GSNP109": "suppression-without-rationale",
    "GSNP110": "direct-device-instantiation",
    "GSNP111": "per-sample-launcher-loop",
    # -- emitted by gsnp-audit (repro.analyze.dataflow) --------------------
    "GSNP201": "access-pattern-verdict",
    "GSNP202": "static-race",
    "GSNP203": "static-uninit-read",
    "GSNP204": "missing-barrier-hazard",
    "GSNP205": "unproven-access",
}

#: Rules emitted by ``gsnp-lint`` itself (the rest belong to ``gsnp-audit``).
LINT_RULES: frozenset[str] = frozenset(
    r for r in RULES if r < "GSNP200"
)

#: Rules emitted by ``gsnp-audit`` (the dataflow analyzer).
AUDIT_RULES: frozenset[str] = frozenset(
    r for r in RULES if r >= "GSNP200"
)

_RULE_BY_NAME = {name: rid for rid, name in RULES.items()}

_SUPPRESS_RE = re.compile(r"#\s*gsnp-lint:\s*disable=([A-Za-z0-9_\-, ]+)")

_LOG_FUNCS = {"log", "log10", "log2", "log1p"}
_LOG_MODULES = {"np", "numpy", "math"}
_CTX_STORES = {"gstore", "gatomic_add"}
_CTX_MEM = {"gload", "cload", "gstore", "gatomic_add"}
_RAW_ACCESSORS = {"flat_view", "copy_to_host"}
_THREAD_ATTRS = {"tid", "n_threads"}


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding, pointing at ``path:line:col``.

    ``severity`` is ``"error"`` for findings that fail the build and
    ``"note"`` for informational verdicts (GSNP201 access-pattern
    classifications).  Notes never affect exit codes.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = field(default="error", compare=False)

    def format(self) -> str:
        tag = "" if self.severity == "error" else f" {self.severity}:"
        return (
            f"{self.path}:{self.line}:{self.col}:{tag} "
            f"{self.rule} [{RULES.get(self.rule, '?')}] {self.message}"
        )

    def to_dict(self) -> dict[str, Union[str, int]]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "name": RULES.get(self.rule, "?"),
            "severity": self.severity,
            "message": self.message,
        }


def normalize_rules(rules: Optional[Iterable[str]]) -> Optional[set[str]]:
    """Map a mix of rule ids and names to a set of rule ids."""
    if rules is None:
        return None
    out = set()
    for r in rules:
        r = r.strip()
        if not r:
            continue
        if r in RULES:
            out.add(r)
        elif r in _RULE_BY_NAME:
            out.add(_RULE_BY_NAME[r])
        else:
            raise ValueError(
                f"unknown lint rule {r!r}; valid rules: "
                + ", ".join(f"{k} ({v})" for k, v in RULES.items())
            )
    return out


def _suppressions(source: str) -> dict[int, set[str]]:
    """line number -> set of suppressed rule tokens (``all`` wildcard)."""
    out: dict[int, set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(text)
        if m:
            toks = {t.strip() for t in m.group(1).split(",") if t.strip()}
            out[lineno] = toks
    return out


def _is_suppressed(
    diag: Diagnostic, suppressions: dict[int, set[str]]
) -> bool:
    toks = suppressions.get(diag.line)
    if not toks:
        return False
    return (
        "all" in toks
        or diag.rule in toks
        or RULES.get(diag.rule, "") in toks
    )


def _annotation_names(node: Optional[ast.expr]) -> set[str]:
    if node is None:
        return set()
    return {
        n.id for n in ast.walk(node) if isinstance(n, ast.Name)
    } | {
        n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
    }


def _call_is_ctx_mem(node: ast.Call) -> Optional[str]:
    """Return the method name when ``node`` is a ``<recv>.g{load,store,...}``
    routed-memory call."""
    if isinstance(node.func, ast.Attribute) and node.func.attr in _CTX_MEM:
        return node.func.attr
    return None


class _KernelChecker:
    """Scan one kernel body in source order (pre-order traversal)."""

    def __init__(self, kernel: ast.FunctionDef, path: str) -> None:
        self.kernel = kernel
        self.path = path
        self.diags: list[Diagnostic] = []
        self.mask_names = self._collect_mask_names()
        args = kernel.args
        self.param_ids = {
            a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
        }
        self.device_names = self._collect_device_names()
        self.seen_masks: list[str] = []

    # -- pre-passes --------------------------------------------------------

    def _collect_mask_names(self) -> set[str]:
        """Names ever passed as ``active=<name>`` in a routed call, plus the
        conventional name ``active`` itself."""
        names = {"active"}
        for node in ast.walk(self.kernel):
            if isinstance(node, ast.Call) and _call_is_ctx_mem(node):
                for kw in node.keywords:
                    if kw.arg == "active" and isinstance(kw.value, ast.Name):
                        names.add(kw.value.id)
        return names

    def _collect_device_names(self) -> set[str]:
        """Kernel parameters that are device arrays: annotated DeviceArray,
        or used as the array operand of a routed memory call."""
        args = self.kernel.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        names = {
            a.arg
            for a in params
            if "DeviceArray" in _annotation_names(a.annotation)
        }
        for node in ast.walk(self.kernel):
            if isinstance(node, ast.Call) and _call_is_ctx_mem(node):
                if node.args and isinstance(node.args[0], ast.Name):
                    if node.args[0].id in self.param_ids:
                        names.add(node.args[0].id)
        return names

    # -- reporting ---------------------------------------------------------

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.diags.append(Diagnostic(
            path=self.path,
            line=getattr(node, "lineno", self.kernel.lineno),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule,
            message=message,
        ))

    # -- traversal ---------------------------------------------------------

    def run(self) -> list[Diagnostic]:
        for stmt in self.kernel.body:
            self._visit(stmt)
        return self.diags

    def _note_mask_binding(self, target: ast.AST) -> None:
        for n in ast.walk(target):
            if isinstance(n, ast.Name) and n.id in self.mask_names:
                if n.id not in self.seen_masks:
                    self.seen_masks.append(n.id)

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Nested defs are kernel helper code: scan their bodies too.
            for stmt in node.body:
                self._visit(stmt)
            return
        if isinstance(node, ast.Assign):
            for t in node.targets:
                self._note_mask_binding(t)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            self._note_mask_binding(node.target)
        elif isinstance(node, ast.NamedExpr):
            self._note_mask_binding(node.target)
        elif isinstance(node, ast.For):
            self._check_for(node)
        elif isinstance(node, ast.Call):
            self._check_call(node)
        elif isinstance(node, ast.Attribute):
            self._check_attribute(node)
        elif isinstance(node, ast.Subscript):
            self._check_subscript(node)
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    # -- rules -------------------------------------------------------------

    def _check_attribute(self, node: ast.Attribute) -> None:
        if node.attr == "data":
            self._flag(
                node, "GSNP101",
                "direct '.data' access inside kernel "
                f"'{self.kernel.name}' bypasses transaction counting; "
                "route the access through ctx.gload/ctx.gstore",
            )

    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in _RAW_ACCESSORS:
                self._flag(
                    node, "GSNP101",
                    f"'{func.attr}()' inside kernel '{self.kernel.name}' "
                    "bypasses transaction counting; route the access "
                    "through ctx.gload/ctx.gstore",
                )
            if (
                func.attr in _LOG_FUNCS
                and isinstance(func.value, ast.Name)
                and func.value.id in _LOG_MODULES
            ):
                self._flag(
                    node, "GSNP102",
                    f"'{func.value.id}.{func.attr}' in kernel "
                    f"'{self.kernel.name}': scores must come from the "
                    "precomputed log_table (ctx.cload), not runtime logs",
                )
            if func.attr in _CTX_STORES:
                self._check_store_mask(node, func.attr)
        elif isinstance(func, ast.Name) and func.id in _LOG_FUNCS:
            self._flag(
                node, "GSNP102",
                f"'{func.id}' call in kernel '{self.kernel.name}': scores "
                "must come from the precomputed log_table (ctx.cload), "
                "not runtime logs",
            )

    def _check_store_mask(self, node: ast.Call, method: str) -> None:
        has_active = len(node.args) >= 4 or any(
            kw.arg == "active" for kw in node.keywords
        )
        if not has_active and self.seen_masks:
            live = ", ".join(repr(m) for m in self.seen_masks)
            self._flag(
                node, "GSNP104",
                f"'{method}' drops the live active mask ({live}) in kernel "
                f"'{self.kernel.name}'; pass active=<mask>, or active=None "
                "to assert a deliberate full-warp store",
            )

    def _check_for(self, node: ast.For) -> None:
        offenders = [
            n for n in ast.walk(node.iter)
            if isinstance(n, ast.Attribute) and n.attr in _THREAD_ATTRS
        ]
        if offenders:
            self._flag(
                node, "GSNP103",
                f"per-thread Python loop in kernel '{self.kernel.name}' "
                "(iterates over ctx.tid / ctx.n_threads); write the body "
                "as one lockstep vector operation instead",
            )

    def _check_subscript(self, node: ast.Subscript) -> None:
        if not isinstance(node.value, ast.Name):
            return
        # Either a known device array, or any kernel parameter indexed by a
        # per-thread expression (the subscript itself is the evidence).
        tid_indexed = node.value.id in self.param_ids and any(
            isinstance(n, ast.Attribute) and n.attr == "tid"
            for n in ast.walk(node.slice)
        )
        if node.value.id in self.device_names or tid_indexed:
            self._flag(
                node, "GSNP105",
                f"NumPy indexing of device array '{node.value.id}' in "
                f"kernel '{self.kernel.name}' bypasses coalescing "
                "analysis; use ctx.gload/ctx.gstore with an index vector",
            )


class _FaultSiteChecker(ast.NodeVisitor):
    """GSNP106: every fault enters through the chaos registry.

    Module-level (not kernel-scoped).  Flags:

    * ``fault_point(site, ...)`` where ``site`` is not a string literal —
      the registry cannot be audited statically otherwise;
    * a literal site not present in :data:`repro.faults.plan.SITES`;
    * ad-hoc injection flags: an ``if`` test referencing an ALL-CAPS name
      starting with ``FAULT``/``CHAOS``/``INJECT``;
    * ``os.environ`` / ``os.getenv`` lookups of ``FAULT``/``CHAOS``/
      ``INJECT`` keys — environment-driven fault switches are
      nondeterministic by construction.

    Lowercase uses (``config.faults``, ``inject_failures=...``) are fine:
    those are the registry's own plumbing, not bypasses.
    """

    _FLAG_RE = re.compile(r"^(FAULT|CHAOS|INJECT)")
    _ENV_RE = re.compile(r"FAULT|CHAOS|INJECT", re.IGNORECASE)

    def __init__(self, path: str) -> None:
        self.path = path
        self.diags: list[Diagnostic] = []

    def _flag(self, node: ast.AST, message: str) -> None:
        self.diags.append(Diagnostic(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule="GSNP106",
            message=message,
        ))

    @staticmethod
    def _is_environ(node: ast.expr) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "environ"

    def _check_env_key(self, key: Optional[ast.expr], node: ast.AST) -> None:
        if (
            isinstance(key, ast.Constant)
            and isinstance(key.value, str)
            and self._ENV_RE.search(key.value)
        ):
            self._flag(
                node,
                f"environment-driven fault switch {key.value!r}; schedule "
                "faults through a FaultPlan and fault_point() instead",
            )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name == "fault_point":
            self._check_fault_point(node)
        elif name == "getenv":
            self._check_env_key(node.args[0] if node.args else None, node)
        elif (
            isinstance(func, ast.Attribute)
            and func.attr == "get"
            and self._is_environ(func.value)
        ):
            self._check_env_key(node.args[0] if node.args else None, node)
        self.generic_visit(node)

    def _check_fault_point(self, node: ast.Call) -> None:
        site = node.args[0] if node.args else None
        for kw in node.keywords:
            if kw.arg == "site":
                site = kw.value
        if not (isinstance(site, ast.Constant) and isinstance(site.value, str)):
            self._flag(
                node,
                "fault_point() site must be a string literal from the "
                "repro.faults.plan.SITES registry (found a computed site)",
            )
            return
        from ..faults.plan import SITES

        if site.value not in SITES:
            self._flag(
                node,
                f"fault_point() site {site.value!r} is not in the "
                "repro.faults.plan.SITES registry; register it there "
                "before injecting",
            )

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if self._is_environ(node.value):
            self._check_env_key(node.slice, node)
        self.generic_visit(node)

    def visit_If(self, node: ast.If) -> None:
        for n in ast.walk(node.test):
            nm = None
            if isinstance(n, ast.Name):
                nm = n.id
            elif isinstance(n, ast.Attribute):
                nm = n.attr
            if nm and self._FLAG_RE.match(nm) and nm.isupper():
                self._flag(
                    n,
                    f"ad-hoc fault flag {nm!r}; inject through "
                    "fault_point() at a registered site so schedules stay "
                    "deterministic and auditable",
                )
        self.generic_visit(node)


class _FusableLoopChecker(ast.NodeVisitor):
    """GSNP107: fusable launchers must not run once per window.

    Module-level (not kernel-scoped).  A *window loop* is a ``for`` whose
    target binds a window-like name (``for window in ...``) or whose
    iterable is a bare name/attribute containing ``window``
    (``for w in windows``).  Calls inside such a loop to any launcher in
    :data:`repro.gpusim.launchplan.FUSABLE_LAUNCHERS` are flagged: that
    device work has a megabatch equivalent on the fused path, and a
    per-window launch chain silently reintroduces the launch-granularity
    cost the launch-plan scheduler exists to remove.  (The per-window
    parity oracle is a launch batch of one on the same plan-driven loop,
    not a window loop of its own.)
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.diags: list[Diagnostic] = []

    @staticmethod
    def _is_window_loop(node: ast.For) -> bool:
        names = [
            n.id for n in ast.walk(node.target) if isinstance(n, ast.Name)
        ]
        it = node.iter
        if isinstance(it, ast.Name):
            names.append(it.id)
        elif isinstance(it, ast.Attribute):
            names.append(it.attr)
        return any("window" in nm.lower() for nm in names)

    def visit_For(self, node: ast.For) -> None:
        if self._is_window_loop(node):
            from ..gpusim.launchplan import FUSABLE_LAUNCHERS

            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                name = None
                if isinstance(func, ast.Name):
                    name = func.id
                elif isinstance(func, ast.Attribute):
                    name = func.attr
                if name in FUSABLE_LAUNCHERS:
                    self.diags.append(Diagnostic(
                        path=self.path,
                        line=getattr(sub, "lineno", node.lineno),
                        col=getattr(sub, "col_offset", 0) + 1,
                        rule="GSNP107",
                        message=(
                            f"fusable launcher '{name}' called inside a "
                            "per-window loop; route this work through the "
                            "megabatch launch plan "
                            "(repro.gpusim.launchplan) instead of "
                            "launching once per window"
                        ),
                    ))
        self.generic_visit(node)


class _SampleLoopChecker(ast.NodeVisitor):
    """GSNP111: fusable launchers must not run once per cohort sample.

    Module-level (not kernel-scoped); the cohort-mode sibling of GSNP107.
    A *sample loop* is a ``for`` whose target binds a sample-like name
    (``for sample in ...``) or whose iterable is a bare name/attribute
    containing ``sample`` or ``cohort`` (``for b in sample_reads``).
    Calls inside such a loop to any launcher in
    :data:`repro.gpusim.launchplan.FUSABLE_LAUNCHERS` are flagged: the
    sample-major launch plan (``build_launch_plan(..., samples=)``) runs all
    S samples in one launch chain per megabatch, so a Python loop over
    samples around device launches silently reintroduces the
    O(S x megabatches) launch cost the cohort mode exists to remove.
    """

    _LOOP_WORDS = ("sample", "cohort")

    def __init__(self, path: str) -> None:
        self.path = path
        self.diags: list[Diagnostic] = []

    @classmethod
    def _is_sample_loop(cls, node: ast.For) -> bool:
        names = [
            n.id for n in ast.walk(node.target) if isinstance(n, ast.Name)
        ]
        it = node.iter
        if isinstance(it, ast.Name):
            names.append(it.id)
        elif isinstance(it, ast.Attribute):
            names.append(it.attr)
        return any(
            word in nm.lower() for nm in names for word in cls._LOOP_WORDS
        )

    def visit_For(self, node: ast.For) -> None:
        if self._is_sample_loop(node):
            from ..gpusim.launchplan import FUSABLE_LAUNCHERS

            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                func = sub.func
                name = None
                if isinstance(func, ast.Name):
                    name = func.id
                elif isinstance(func, ast.Attribute):
                    name = func.attr
                if name in FUSABLE_LAUNCHERS:
                    self.diags.append(Diagnostic(
                        path=self.path,
                        line=getattr(sub, "lineno", node.lineno),
                        col=getattr(sub, "col_offset", 0) + 1,
                        rule="GSNP111",
                        message=(
                            f"fusable launcher '{name}' called inside a "
                            "per-sample loop; build a sample-major cohort "
                            "launch plan (build_launch_plan(..., samples=)) "
                            "so all samples share one launch chain per "
                            "megabatch"
                        ),
                    ))
        self.generic_visit(node)


class _DeviceInstantiationChecker(ast.NodeVisitor):
    """GSNP110: devices are acquired from the pool, not constructed.

    Module-level (not kernel-scoped).  Flags any call spelled
    ``Device(...)`` or ``<mod>.Device(...)``: a bare device has no
    :class:`~repro.gpusim.pool.HostLink` (its transfers escape the
    shared-link contention accounting) and no pool device id (its
    residency cache can collide with a pool device's).  Acquire through
    :func:`repro.gpusim.pool.acquire_device` or
    :class:`repro.gpusim.pool.DevicePool` instead; the pool module's own
    constructor calls carry explicit suppressions, as do harness/test
    sites that deliberately measure an unpooled device.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self.diags: list[Diagnostic] = []

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name == "Device":
            self.diags.append(Diagnostic(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                rule="GSNP110",
                message=(
                    "direct Device(...) instantiation bypasses the device "
                    "pool; acquire through repro.gpusim.pool.acquire_device"
                    " (or DevicePool) so transfers share the modeled host "
                    "link and residency is keyed by device identity"
                ),
            ))
        self.generic_visit(node)


_MIN_RATIONALE_WORDS = 3
_RATIONALE_WINDOW_ABOVE = 2
_RATIONALE_WINDOW_BELOW = 1
_WORD_RE = re.compile(r"[A-Za-z0-9']+")


def _comment_words(text: str) -> int:
    """Count rationale words in the comment portion of a source line,
    excluding any suppression directive itself."""
    hash_pos = text.find("#")
    if hash_pos < 0:
        return 0
    comment = text[hash_pos:]
    comment = _SUPPRESS_RE.sub("", comment)
    return len(_WORD_RE.findall(comment))


def rationale_diagnostics(source: str, path: str) -> list[Diagnostic]:
    """GSNP109: every suppression directive must carry a rationale.

    A rationale is a comment with at least :data:`_MIN_RATIONALE_WORDS`
    words on the directive's own line (after the directive) or within two
    lines above / one line below it.  Suppressing a rule without saying
    why leaves the next reader unable to tell a sound exemption from a
    stale one.
    """
    lines = source.splitlines()
    diags: list[Diagnostic] = []
    for lineno, text in enumerate(lines, start=1):
        m = _SUPPRESS_RE.search(text)
        if not m:
            continue
        if _comment_words(text) >= _MIN_RATIONALE_WORDS:
            continue
        lo = max(1, lineno - _RATIONALE_WINDOW_ABOVE)
        hi = min(len(lines), lineno + _RATIONALE_WINDOW_BELOW)
        neighbors = [
            lines[i - 1] for i in range(lo, hi + 1) if i != lineno
        ]
        if any(
            _comment_words(nb) >= _MIN_RATIONALE_WORDS for nb in neighbors
        ):
            continue
        diags.append(Diagnostic(
            path=path, line=lineno, col=text.find("#") + 2,
            rule="GSNP109",
            message=(
                f"suppression '{m.group(0).strip()}' has no nearby "
                "rationale; add a comment (same line or within two lines) "
                "explaining why the rule does not apply here"
            ),
        ))
    return diags


def lint_source(
    source: str,
    path: str = "<string>",
    require_rationale: bool = False,
) -> list[Diagnostic]:
    """Lint one module's source; returns sorted, suppression-filtered
    diagnostics (a syntax error yields a single GSNP100 diagnostic)."""
    suppressions = _suppressions(source)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        parse_diag = Diagnostic(
            path=path, line=exc.lineno or 1, col=(exc.offset or 0) + 1,
            rule="GSNP100", message=f"file does not parse: {exc.msg}",
        )
        if _is_suppressed(parse_diag, suppressions):
            return []
        return [parse_diag]
    diags: set[Diagnostic] = set()
    for kernel in discover_kernels(tree).kernels:
        for d in _KernelChecker(kernel, path).run():
            if not _is_suppressed(d, suppressions):
                diags.add(d)
    for checker in (
        _FaultSiteChecker(path),
        _FusableLoopChecker(path),
        _SampleLoopChecker(path),
        _DeviceInstantiationChecker(path),
    ):
        checker.visit(tree)
        for d in checker.diags:
            if not _is_suppressed(d, suppressions):
                diags.add(d)
    if require_rationale:
        for d in rationale_diagnostics(source, path):
            if not _is_suppressed(d, suppressions):
                diags.add(d)
    return sorted(diags)


def lint_file(
    path: Union[str, Path], require_rationale: bool = False
) -> list[Diagnostic]:
    """Lint one ``.py`` file."""
    p = Path(path)
    return lint_source(
        p.read_text(encoding="utf-8"), str(p),
        require_rationale=require_rationale,
    )


def lint_paths(
    paths: Sequence[Union[str, Path]],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    require_rationale: bool = False,
) -> list[Diagnostic]:
    """Lint files and/or directory trees of ``.py`` files.

    ``select`` restricts to, and ``ignore`` drops, the given rule ids or
    names (e.g. ``["GSNP104"]`` or ``["dropped-active-mask"]``).
    ``require_rationale`` additionally fires GSNP109 on suppression
    directives with no nearby explanatory comment.
    """
    sel = normalize_rules(select)
    ign = normalize_rules(ignore) or set()
    out: list[Diagnostic] = []
    for f in iter_python_files(paths):
        for d in lint_file(f, require_rationale=require_rationale):
            if sel is not None and d.rule not in sel:
                continue
            if d.rule in ign:
                continue
            out.append(d)
    return out

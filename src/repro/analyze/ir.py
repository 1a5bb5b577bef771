"""Per-kernel IR extraction for ``gsnp audit``.

The analyzer does not query raw ASTs: it first lowers every kernel
body into a flat list of :class:`KernelOp` records — one per routed
memory operation (``ctx.gload`` / ``ctx.gstore`` / ``ctx.gatomic_add`` /
``ctx.cload``), shared-memory note (``ctx.note_shared``) and barrier
(``ctx.syncthreads``) — annotated with

* the *symbolic index expression* (the untouched AST of the index
  operand, plus its source text for messages),
* the *active mask* discipline (absent, explicit ``active=None``
  full-warp assertion, or a real mask expression), plus the mask names
  already bound when the op runs,
* the *barrier region* (a counter that increments at every
  ``syncthreads`` on the same straight-line path),
* the innermost containing loop (and whether that loop body contains a
  barrier — the cross-iteration hazard criterion), and
* the conditional-branch path (which arm of which ``if`` the op sits
  in; host-uniform branches are mutually exclusive within one launch).

Beside the ops, every construct the routed-op model *cannot* express is
one :class:`Site` record: a raw ``.data`` / ``flat_view()`` /
``copy_to_host()`` access, NumPy indexing of a device array, a runtime
``log*`` call, or a Python loop over ``ctx.tid`` / ``ctx.n_threads``.

Helper defs nested in a kernel body are kernel code too: their sites
and ops are recorded, but their ops are marked ``in_helper`` and carry
no verdict (their indices are bound by the helper's own parameters).

The abstract interpreter and the rule queries in
:mod:`repro.analyze.dataflow` consume this IR.  Extraction is purely
syntactic: no values are evaluated here.

One simulator-specific subtlety handled here is *ctx-method aliasing*::

    probe = ctx.cload if haystack.space == "constant" else ctx.gload
    v = probe(haystack, idx, active=active)

The binary-search kernel uses exactly this pattern; ``probe(...)`` is
recorded as a routed load (kind ``gload``, the conservative choice for
coalescing analysis) with the alias noted.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Optional

from .discover import discover_kernels

#: Routed memory methods on :class:`repro.gpusim.kernel.KernelContext`.
CTX_MEM_METHODS: frozenset[str] = frozenset(
    {"gload", "gstore", "gatomic_add", "cload"}
)
#: Methods that read global/constant memory.
CTX_LOADS: frozenset[str] = frozenset({"gload", "cload"})
#: Methods that write global memory.
CTX_STORES: frozenset[str] = frozenset({"gstore", "gatomic_add"})

#: Positional index of the ``active`` argument per method.
_ACTIVE_ARG_POS: dict[str, int] = {
    "gload": 2, "cload": 2, "gstore": 3, "gatomic_add": 3,
}

#: Sentinel mask kinds.
MASK_FULL_DEFAULT = "full-default"   # no active argument at all
MASK_FULL_ASSERT = "full-assert"     # explicit active=None
MASK_MASKED = "masked"               # a real mask expression

_RAW_ACCESSORS = frozenset({"flat_view", "copy_to_host"})
_LOG_FUNCS = frozenset({"log", "log10", "log2", "log1p"})
_LOG_MODULES = frozenset({"np", "numpy", "math"})
_THREAD_ATTRS = frozenset({"tid", "n_threads"})


@dataclass(frozen=True)
class MaskInfo:
    """How one op addresses warp divergence."""

    kind: str   # one of the MASK_* sentinels
    text: str   # source text of the mask expression ("" when full)
    node: Optional[ast.expr] = field(default=None, compare=False)

    @property
    def is_full(self) -> bool:
        return self.kind != MASK_MASKED


@dataclass
class KernelOp:
    """One routed memory / barrier operation inside a kernel body."""

    kind: str                      # gload|gstore|gatomic_add|cload|
                                   # syncthreads|note_shared
    line: int
    col: int
    array_text: str = ""           # source text of the array operand
    array_param: Optional[str] = None  # param name when operand is a param
    index: Optional[ast.expr] = None   # symbolic index expression (AST)
    index_text: str = ""
    mask: MaskInfo = field(
        default_factory=lambda: MaskInfo(MASK_FULL_DEFAULT, "")
    )
    region: int = 0                # barrier region id (increments at sync)
    loop_id: Optional[int] = None  # id of innermost containing loop node
    loop_line: Optional[int] = None
    loop_has_barrier: bool = False
    branch_path: tuple[tuple[int, int], ...] = ()
    alias_of: Optional[str] = None  # local name when called via an alias
    live_masks: tuple[str, ...] = ()  # mask names bound before this op
    in_helper: bool = False        # inside a def nested in the kernel

    @property
    def is_load(self) -> bool:
        return self.kind in CTX_LOADS

    @property
    def is_store(self) -> bool:
        return self.kind in CTX_STORES


@dataclass(frozen=True)
class Site:
    """One construct the routed-op model cannot express."""

    kind: str       # data (``x.data``) | raw-call (``flat_view()`` /
                    # ``copy_to_host()``) | subscript (NumPy indexing of
                    # a device array) | log (``np.log*``) | bare-log
                    # (``log*(...)``) | thread-loop (``for`` over tid)
    line: int
    col: int
    text: str = ""  # the accessor, log function or array it names


@dataclass
class KernelIR:
    """The lowered form of one kernel body."""

    name: str
    path: str
    line: int
    ctx_name: str
    params: list[str]
    ops: list[KernelOp]
    n_barriers: int
    func: ast.FunctionDef = field(repr=False)
    sites: list[Site] = field(default_factory=list)

    def mem_ops(self) -> list[KernelOp]:
        """The kernel's own routed memory ops (the ones given verdicts)."""
        return [
            op for op in self.ops
            if op.kind in CTX_MEM_METHODS and not op.in_helper
        ]


def source_text(node: Optional[ast.AST]) -> str:
    """Source text of a node for messages; never raises (an int past the
    str-conversion digit limit, say, prints as ``<unprintable>``)."""
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except Exception:
        return "<unprintable>"


class _CtxAliasCollector(ast.NodeVisitor):
    """Map local names bound to ctx memory methods.

    Handles ``probe = ctx.gload``, ``probe = ctx.cload if cond else
    ctx.gload`` and chains thereof.  The mapped value is the *set* of
    methods the alias may denote.
    """

    def __init__(self, ctx_name: str) -> None:
        self.ctx_name = ctx_name
        self.aliases: dict[str, frozenset[str]] = {}

    def _methods_of(self, node: ast.expr) -> frozenset[str]:
        if (
            isinstance(node, ast.Attribute)
            and node.attr in CTX_MEM_METHODS
            and isinstance(node.value, ast.Name)
            and node.value.id == self.ctx_name
        ):
            return frozenset({node.attr})
        if isinstance(node, ast.IfExp):
            return self._methods_of(node.body) | self._methods_of(node.orelse)
        if isinstance(node, ast.Name):
            return self.aliases.get(node.id, frozenset())
        return frozenset()

    def visit_Assign(self, node: ast.Assign) -> None:
        methods = self._methods_of(node.value)
        if methods:
            for t in node.targets:
                if isinstance(t, ast.Name):
                    self.aliases[t.id] = methods
        self.generic_visit(node)


def _pick_alias_kind(methods: frozenset[str]) -> str:
    """Collapse an alias's possible methods to one op kind.

    Prefer the *global*-memory interpretation: for coalescing analysis a
    gload is the conservative choice (cloads are broadcast-cached and
    never counted as transactions)."""
    for kind in ("gstore", "gatomic_add", "gload", "cload"):
        if kind in methods:
            return kind
    return "gload"


class _IRExtractor:
    """Walk one kernel body in source order, emitting ops and sites."""

    def __init__(self, func: ast.FunctionDef, path: str) -> None:
        self.func = func
        self.path = path
        args = func.args
        params = [a.arg for a in args.posonlyargs + args.args]
        self.ctx_name = params[0] if params else "ctx"
        self.params = params[1:]
        collector = _CtxAliasCollector(self.ctx_name)
        collector.visit(func)
        self.ctx_aliases = collector.aliases
        every_arg = args.posonlyargs + args.args + args.kwonlyargs
        self.param_ids = {a.arg for a in every_arg}
        routed = [
            n for n in ast.walk(func)
            if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr in CTX_MEM_METHODS
        ]
        # A mask is ``active`` or any name ever passed as ``active=<name>``.
        self.mask_names = {"active"} | {
            kw.value.id for c in routed for kw in c.keywords
            if kw.arg == "active" and isinstance(kw.value, ast.Name)
        }
        # Device-array params: annotated DeviceArray, or the array operand
        # of a routed call.
        self.device_params = {
            a.arg for a in every_arg
            if "DeviceArray" in source_text(a.annotation)
        } | {
            c.args[0].id for c in routed
            if c.args and isinstance(c.args[0], ast.Name)
            and c.args[0].id in self.param_ids
        }
        self.ops: list[KernelOp] = []
        self.sites: list[Site] = []
        self.live_masks: list[str] = []
        self.in_helper = False
        self.region = 0
        self.n_barriers = 0
        self.loop_stack: list[ast.AST] = []
        self.branch_stack: list[tuple[int, int]] = []
        self._loops_with_barrier: set[int] = set()

    # -- op emission -------------------------------------------------------

    def _emit(self, node: ast.AST, kind: str, **kw: object) -> KernelOp:
        loop = self.loop_stack[-1] if self.loop_stack else None
        op = KernelOp(
            kind=kind,
            line=getattr(node, "lineno", self.func.lineno),
            col=getattr(node, "col_offset", 0) + 1,
            region=self.region,
            loop_id=id(loop) if loop is not None else None,
            loop_line=getattr(loop, "lineno", None),
            branch_path=tuple(self.branch_stack),
            live_masks=tuple(self.live_masks),
            in_helper=self.in_helper,
            **kw,  # type: ignore[arg-type]
        )
        self.ops.append(op)
        return op

    def _site(self, node: ast.AST, kind: str, text: str = "") -> None:
        self.sites.append(Site(
            kind,
            line=getattr(node, "lineno", self.func.lineno),
            col=getattr(node, "col_offset", 0) + 1,
            text=text,
        ))

    def _note_masks(self, target: ast.AST) -> None:
        for n in ast.walk(target):
            if (
                isinstance(n, ast.Name)
                and n.id in self.mask_names
                and n.id not in self.live_masks
            ):
                self.live_masks.append(n.id)

    def _mask_info(self, call: ast.Call, kind: str) -> MaskInfo:
        active: Optional[ast.expr] = None
        present = False
        pos = _ACTIVE_ARG_POS.get(kind)
        if pos is not None and len(call.args) > pos:
            active = call.args[pos]
            present = True
        for kw in call.keywords:
            if kw.arg == "active":
                active = kw.value
                present = True
        if not present:
            return MaskInfo(MASK_FULL_DEFAULT, "")
        if isinstance(active, ast.Constant) and active.value is None:
            return MaskInfo(MASK_FULL_ASSERT, "None")
        return MaskInfo(MASK_MASKED, source_text(active), node=active)

    def _emit_mem(self, call: ast.Call, kind: str,
                  alias_of: Optional[str] = None) -> None:
        arr = call.args[0] if call.args else None
        idx = call.args[1] if len(call.args) > 1 else None
        for kw in call.keywords:
            if kw.arg in ("arr", "array"):
                arr = kw.value
            elif kw.arg in ("idx", "index"):
                idx = kw.value
        array_param: Optional[str] = None
        if isinstance(arr, ast.Name) and arr.id in self.params:
            array_param = arr.id
        self._emit(
            call, kind,
            array_text=source_text(arr),
            array_param=array_param,
            index=idx,
            index_text=source_text(idx),
            mask=self._mask_info(call, kind),
            alias_of=alias_of,
        )

    # -- traversal ---------------------------------------------------------

    def run(self) -> KernelIR:
        for stmt in self.func.body:
            self._visit(stmt)
        ops = self.ops
        for op in ops:
            if op.loop_id is not None:
                op.loop_has_barrier = op.loop_id in self._loops_with_barrier
        return KernelIR(
            name=self.func.name,
            path=self.path,
            line=self.func.lineno,
            ctx_name=self.ctx_name,
            params=list(self.params),
            ops=ops,
            n_barriers=self.n_barriers,
            func=self.func,
            sites=self.sites,
        )

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A helper nested in the kernel body runs as kernel code.
            outer, self.in_helper = self.in_helper, True
            for stmt in node.body:
                self._visit(stmt)
            self.in_helper = outer
            return
        if isinstance(node, ast.Assign):
            for t in node.targets:
                self._note_masks(t)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.NamedExpr)):
            self._note_masks(node.target)
        elif isinstance(node, ast.Attribute) and node.attr == "data":
            self._site(node, "data")
        elif isinstance(node, ast.Subscript):
            self._visit_subscript(node)
        if isinstance(node, (ast.For, ast.While)):
            self._visit_loop(node)
            return
        if isinstance(node, ast.If):
            self._visit_if(node)
            return
        if isinstance(node, ast.Call):
            self._visit_call(node)  # recurses into children itself
            return
        for child in ast.iter_child_nodes(node):
            self._visit(child)

    def _visit_subscript(self, node: ast.Subscript) -> None:
        base = node.value
        if not isinstance(base, ast.Name) or base.id not in self.param_ids:
            return
        # A known device array, or any param indexed per thread (the
        # subscript itself is the evidence).
        tid_indexed = any(
            isinstance(n, ast.Attribute) and n.attr == "tid"
            for n in ast.walk(node.slice)
        )
        if base.id in self.device_params or tid_indexed:
            self._site(node, "subscript", base.id)

    def _visit_loop(self, node: ast.AST) -> None:
        self.loop_stack.append(node)
        barriers_before = self.n_barriers
        body = getattr(node, "body", [])
        orelse = getattr(node, "orelse", [])
        if isinstance(node, ast.For):
            if any(
                isinstance(n, ast.Attribute) and n.attr in _THREAD_ATTRS
                for n in ast.walk(node.iter)
            ):
                self._site(node, "thread-loop")
            self._visit(node.iter)
        elif isinstance(node, ast.While):
            self._visit(node.test)
        for stmt in body:
            self._visit(stmt)
        if self.n_barriers > barriers_before:
            self._loops_with_barrier.add(id(node))
        self.loop_stack.pop()
        for stmt in orelse:
            self._visit(stmt)

    def _visit_if(self, node: ast.If) -> None:
        self._visit(node.test)
        # Each arm gets a distinct (if-node, arm) tag so the conflict
        # checker can treat sibling arms as mutually exclusive.  Barriers
        # inside an arm still advance the global region counter: a
        # barrier under a host-uniform condition either runs for the
        # whole launch or not at all, and advancing the region in both
        # cases only ever *merges* fewer op pairs (conservative).
        self.branch_stack.append((id(node), 0))
        for stmt in node.body:
            self._visit(stmt)
        self.branch_stack.pop()
        self.branch_stack.append((id(node), 1))
        for stmt in node.orelse:
            self._visit(stmt)
        self.branch_stack.pop()

    def _visit_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in CTX_MEM_METHODS:
                self._emit_mem(node, func.attr)
            elif func.attr == "syncthreads":
                self._emit(node, "syncthreads")
                if not self.in_helper:  # not on the kernel's own path
                    self.n_barriers += 1
                    self.region += 1
            elif func.attr == "note_shared":
                self._emit(
                    node, "note_shared",
                    mask=self._mask_info(node, "note_shared"),
                )
            elif func.attr in _RAW_ACCESSORS:
                self._site(node, "raw-call", func.attr)
            elif (
                func.attr in _LOG_FUNCS
                and isinstance(func.value, ast.Name)
                and func.value.id in _LOG_MODULES
            ):
                self._site(node, "log", f"{func.value.id}.{func.attr}")
        elif isinstance(func, ast.Name):
            if func.id in self.ctx_aliases:
                kind = _pick_alias_kind(self.ctx_aliases[func.id])
                self._emit_mem(node, kind, alias_of=func.id)
            elif func.id in _LOG_FUNCS:
                self._site(node, "bare-log", func.id)
        for child in ast.iter_child_nodes(node):
            self._visit(child)


def extract_kernel_ir(func: ast.FunctionDef, path: str) -> KernelIR:
    """Lower one kernel body to its IR."""
    return _IRExtractor(func, path).run()


def extract_module_ir(tree: ast.Module, path: str) -> list[KernelIR]:
    """Lower every discovered kernel in a parsed module."""
    return [
        extract_kernel_ir(func, path)
        for func in discover_kernels(tree).kernels
    ]


__all__ = [
    "CTX_MEM_METHODS",
    "CTX_LOADS",
    "CTX_STORES",
    "MASK_FULL_DEFAULT",
    "MASK_FULL_ASSERT",
    "MASK_MASKED",
    "MaskInfo",
    "KernelOp",
    "KernelIR",
    "Site",
    "source_text",
    "extract_kernel_ir",
    "extract_module_ir",
]

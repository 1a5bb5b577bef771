"""Abstract interpretation and rule queries over kernel IR: ``gsnp audit``.

The paper's throughput claims rest on *provable* memory-access
structure: §IV's coalescing discipline (82 vs 3.2 GB/s), Table III's
transaction counts, and the bitwise CPU/GPU score parity that the
barrier discipline protects.  The runtime sanitizer only checks the
schedules it executes; this module proves the properties for **all**
launches of a kernel, from the source alone.

Abstract domain
---------------
Every kernel-local value is classified on a small lattice:

``Affine(stride, offset)``
    ``value[t] = stride * t + offset`` for thread id ``t``.  ``stride``
    and ``offset`` are concrete ints when provable, ``None`` when
    symbolic (a host scalar such as a window size).  ``clamped=True``
    marks an affine expression passed through ``np.minimum`` /
    ``np.maximum`` / ``.clip`` against thread-uniform bounds — the
    memory span can only shrink.  ``stride == 0`` with one concrete
    value per launch is exactly a *thread-uniform* (host) scalar, so
    uniforms are affine values; the lockstep execution model guarantees
    any pure function of uniforms is uniform.

``TidPerm``
    a non-affine but *deterministic per-thread* function of ``tid``
    (``tid % m``, ``col ^ j``): a permutation-style gather.

``DataDep``
    derived from loaded data or host-provided vectors: a data-dependent
    gather.

``Unknown``
    nothing provable.  Memory ops indexed by Unknown are reported as
    GSNP205 ``unproven`` — the analyzer never silently passes them.

Verdicts (GSNP201, severity *note*): an affine index with stride 0
(broadcast) or ±1 is **coalesced**; any other affine stride is
**strided**; TidPerm/DataDep are **gather**; Unknown is **unproven**.
Only *coalesced* verdicts are load-bearing claims: the replay in
``tests/test_analyze_audit.py`` (``TestCalibration``) runs tier-1
kernels under the op observer and asserts the runtime transaction
counters stay within the proven bound for every one of them.

Static checks (severity *error*).  GSNP101-105 are queries over the
IR's sites and store ops; GSNP202-205 are proofs over the lattice:

========  =====================  ==========================================
GSNP100   parse-error            the file does not decode or parse
GSNP101   kernel-data-access     ``.data``/``flat_view()``/``copy_to_host()``
GSNP102   kernel-log-call        ``np.log*``/``math.log*`` (not ``log_table``)
GSNP103   per-thread-loop        a loop over ``ctx.tid``/``ctx.n_threads``
GSNP104   dropped-active-mask    a store with no ``active`` after a mask binds
GSNP105   device-fancy-index     NumPy indexing of a device array
GSNP202   static-race            two ops on the same array in the same
                                 barrier region (or across iterations of a
                                 barrier-free loop) with *provably*
                                 overlapping affine index sets, at least
                                 one a store — a WW or RAW race witnessed
                                 by concrete thread ids
GSNP203   static-uninit-read     a load from an ``alloc(..., init=False)``
                                 allocation with no dominating store to
                                 that parameter (tracked interprocedurally
                                 through launch sites)
GSNP204   missing-barrier-hazard a masked store followed by a full-warp
                                 load of the same array in the same
                                 barrier region, when the load is not
                                 provably same-lane
GSNP205   unproven-access        an index the lattice cannot classify
========  =====================  ==========================================

Races and hazards are reported only when *provable* (concrete witness
thread ids); everything symbolic stays the runtime sanitizer's job —
the two layers are complementary by design, and DESIGN.md documents the
soundness contract.  :func:`audit_source` runs every rule.
"""

from __future__ import annotations

import ast
import tokenize
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

from .discover import KernelFinder, iter_python_files, launch_target
from .ir import (
    CTX_MEM_METHODS,
    MASK_FULL_DEFAULT,
    MASK_MASKED,
    KernelIR,
    KernelOp,
    Site,
    extract_module_ir,
    source_text,
)
from .lint import (
    Diagnostic,
    _is_suppressed,
    _suppressions,
    normalize_rules,
)

# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------

AFFINE = "affine"
TIDPERM = "tidperm"
DATADEP = "datadep"
UNKNOWN = "unknown"

#: Witness search space for provable race pairs.  Conflicts between
#: concrete affine index maps, if they exist at all, show up among the
#: first few hundred thread ids.
_WITNESS_RANGE = 257

#: Largest |int| the evaluator folds, and the largest shift it folds.
#: Strides and offsets only ever address memory; a value past the bound
#: is ``unknown`` (GSNP205), never an unbounded int.
_MAX_FOLD = 1 << 64
_MAX_SHIFT = 64


@dataclass(frozen=True)
class AbstractValue:
    """One point on the audit lattice (see module docstring)."""

    kind: str
    stride: Optional[int] = None     # concrete stride, None = symbolic
    offset: Optional[int] = None     # concrete offset, None = symbolic
    clamped: bool = False
    why: str = ""                    # provenance, used in messages

    @property
    def is_affine(self) -> bool:
        return self.kind == AFFINE

    @property
    def is_uniform(self) -> bool:
        """Thread-uniform: affine with provably zero stride."""
        return self.kind == AFFINE and self.stride == 0

    @property
    def concrete(self) -> bool:
        return (
            self.kind == AFFINE
            and self.stride is not None
            and self.offset is not None
        )

    def describe(self) -> str:
        if self.kind == AFFINE:
            s = "?" if self.stride is None else str(self.stride)
            o = "?" if self.offset is None else str(self.offset)
            tag = ", clamped" if self.clamped else ""
            return f"affine(stride={s}, offset={o}{tag})"
        return self.kind if not self.why else f"{self.kind} ({self.why})"


def uniform(value: Optional[int] = None, why: str = "") -> AbstractValue:
    """A warp-uniform value: affine with stride 0 (offset = the value)."""
    return affine(0, value, why=why)


def affine(stride: Optional[int], offset: Optional[int],
           clamped: bool = False, why: str = "") -> AbstractValue:
    """An affine-in-tid value ``stride * ctx.tid + offset``."""
    if any(v is not None and abs(v) > _MAX_FOLD for v in (stride, offset)):
        return unknown("constant folded past 2**64")
    return AbstractValue(AFFINE, stride=stride, offset=offset,
                         clamped=clamped, why=why)


def tidperm(why: str) -> AbstractValue:
    """A tid-derived but non-affine value (e.g. ``tid % m``)."""
    return AbstractValue(TIDPERM, why=why)


def datadep(why: str) -> AbstractValue:
    """A value that flows from memory contents or array parameters."""
    return AbstractValue(DATADEP, why=why)


def unknown(why: str) -> AbstractValue:
    """Top: nothing provable about the value (opaque call)."""
    return AbstractValue(UNKNOWN, why=why)


_TID = affine(1, 0, why="ctx.tid")

_SEVERITY = {DATADEP: 3, TIDPERM: 2, AFFINE: 1}


def _worst(*values: AbstractValue) -> AbstractValue:
    """The most conservative non-affine classification among operands."""
    out: Optional[AbstractValue] = None
    for v in values:
        if v.kind == UNKNOWN:
            return v
        if out is None or _SEVERITY[v.kind] > _SEVERITY[out.kind]:
            out = v
    return out if out is not None else unknown("no operands")


def join(a: AbstractValue, b: AbstractValue) -> AbstractValue:
    """Least upper bound of two control-flow-merged values."""
    if a == b:
        return a
    if a.kind == UNKNOWN or b.kind == UNKNOWN:
        return unknown(a.why or b.why)
    if a.is_affine and b.is_affine:
        stride = a.stride if a.stride == b.stride else None
        offset = a.offset if a.offset == b.offset else None
        if stride is not None or offset is not None or (
            a.stride is None and b.stride is None
        ):
            return affine(stride, offset,
                          clamped=a.clamped or b.clamped,
                          why=a.why or b.why)
        return affine(None, None, why=a.why or b.why)
    return _worst(a, b)


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------

#: NumPy constructors whose results are thread-uniform (one value or a
#: broadcast fill per launch).
_UNIFORM_CTORS = frozenset({
    "zeros", "ones", "full", "empty", "zeros_like", "ones_like",
    "full_like", "empty_like",
})
#: NumPy clamp functions: affine in, affine (clamped) out.
_CLAMP_FUNCS = frozenset({"minimum", "maximum", "clip"})
#: ctx attributes that are thread-uniform scalars.
_CTX_UNIFORM_ATTRS = frozenset({
    "n_threads", "warp_size", "block_size", "n_warps", "device",
})
#: Attributes of any object that are host-side uniform scalars.
_UNIFORM_OBJ_ATTRS = frozenset({
    "size", "itemsize", "nbytes", "ndim", "dtype", "space", "shape",
})


class ExprEvaluator:
    """Evaluate one expression to an abstract value under an environment."""

    def __init__(self, env: dict[str, AbstractValue], ctx_name: str) -> None:
        self.env = env
        self.ctx_name = ctx_name

    def eval(self, node: Optional[ast.expr]) -> AbstractValue:
        if node is None:
            return unknown("missing expression")
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is None:
            return unknown(f"unsupported syntax {type(node).__name__}")
        out: AbstractValue = method(node)
        return out

    # -- leaves ------------------------------------------------------------

    def _eval_Constant(self, node: ast.Constant) -> AbstractValue:
        if isinstance(node.value, bool) or not isinstance(
            node.value, (int, float)
        ):
            return uniform(why=f"constant {node.value!r}")
        if isinstance(node.value, int):
            if abs(node.value) > _MAX_FOLD:
                return unknown("integer constant past 2**64")
            return uniform(node.value, why=f"constant {node.value}")
        return uniform(why=f"constant {node.value!r}")

    def _eval_Name(self, node: ast.Name) -> AbstractValue:
        if node.id in self.env:
            return self.env[node.id]
        if node.id.isupper():
            # Module-level UPPER_CASE constants (imported or local) are
            # host-side launch-uniform scalars by repo convention.
            return uniform(why=f"constant {node.id}")
        return unknown(f"unbound name '{node.id}'")

    def _eval_Attribute(self, node: ast.Attribute) -> AbstractValue:
        if isinstance(node.value, ast.Name) and node.value.id == self.ctx_name:
            if node.attr == "tid":
                return _TID
            if node.attr in _CTX_UNIFORM_ATTRS:
                return uniform(why=f"ctx.{node.attr}")
            return unknown(f"ctx.{node.attr}")
        if node.attr in _UNIFORM_OBJ_ATTRS:
            return uniform(why=f"host scalar .{node.attr}")
        base = self.eval(node.value)
        if base.kind == UNKNOWN:
            # An attribute of a host object (params object, tables
            # bundle) is host data: data-dependent, never tid-affine.
            return datadep(f"host attribute '{source_text(node)}'")
        return _worst(base)

    # -- arithmetic --------------------------------------------------------

    def _eval_BinOp(self, node: ast.BinOp) -> AbstractValue:
        left = self.eval(node.left)
        right = self.eval(node.right)
        if left.kind == UNKNOWN or right.kind == UNKNOWN:
            return _worst(left, right)
        if not (left.is_affine and right.is_affine):
            return _worst(left, right)
        op = node.op
        if isinstance(op, ast.Add):
            return self._affine_add(left, right, 1)
        if isinstance(op, ast.Sub):
            return self._affine_add(left, right, -1)
        if isinstance(op, ast.Mult):
            return self._affine_mul(left, right)
        if isinstance(op, ast.LShift):
            if right.is_uniform:
                if right.offset is not None and left.stride is not None:
                    if not 0 <= right.offset <= _MAX_SHIFT:
                        return unknown(f"shift by {right.offset}")
                    return affine(
                        left.stride << right.offset,
                        None if left.offset is None
                        else left.offset << right.offset,
                        clamped=left.clamped, why=left.why,
                    )
                if left.is_uniform:
                    return uniform(why="uniform shift")
                return affine(None, None, why="symbolic shift")
            return _worst(left, right)
        if isinstance(op, (ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
                           ast.BitAnd, ast.BitOr, ast.BitXor, ast.RShift)):
            if left.is_uniform and right.is_uniform:
                return uniform(why="uniform arithmetic")
            # A non-linear op applied to a tid-affine value yields a
            # deterministic per-thread permutation, not an affine map.
            return tidperm(f"'{source_text(node)}' is non-affine in tid")
        return _worst(left, right)

    @staticmethod
    def _affine_add(a: AbstractValue, b: AbstractValue,
                    sign: int) -> AbstractValue:
        def add(x: Optional[int], y: Optional[int]) -> Optional[int]:
            if x is None or y is None:
                return None
            return x + sign * y
        stride = add(a.stride, b.stride)
        if a.stride == 0 and b.stride is None:
            stride = None  # symbolic-stride term survives
        if stride is None and a.stride == 0 and b.stride == 0:
            stride = 0
        return affine(stride, add(a.offset, b.offset),
                      clamped=a.clamped or b.clamped,
                      why=a.why or b.why)

    @staticmethod
    def _affine_mul(a: AbstractValue, b: AbstractValue) -> AbstractValue:
        if a.is_uniform or b.is_uniform:
            u, v = (a, b) if a.is_uniform else (b, a)
            if u.offset is not None and v.stride is not None:
                return affine(
                    v.stride * u.offset,
                    None if v.offset is None else v.offset * u.offset,
                    clamped=v.clamped, why=v.why,
                )
            if v.is_uniform:
                return uniform(why="uniform product")
            return affine(None, None, why="symbolic scale")
        return tidperm("product of two tid-varying terms")

    def _eval_UnaryOp(self, node: ast.UnaryOp) -> AbstractValue:
        val = self.eval(node.operand)
        if isinstance(node.op, ast.USub) and val.is_affine:
            return affine(
                None if val.stride is None else -val.stride,
                None if val.offset is None else -val.offset,
                clamped=val.clamped, why=val.why,
            )
        if val.is_affine:
            return val if isinstance(node.op, ast.UAdd) else _worst(
                val, tidperm("unary op on tid-varying value")
                if not val.is_uniform else uniform(why=val.why)
            )
        return val

    # -- comparisons / boolean masks --------------------------------------

    def _mask_like(self, *parts: AbstractValue) -> AbstractValue:
        w = _worst(*parts)
        if w.kind == AFFINE and not w.is_uniform:
            return tidperm("boolean mask over tid")
        if w.is_uniform:
            return uniform(why="uniform predicate")
        return w

    def _eval_Compare(self, node: ast.Compare) -> AbstractValue:
        parts = [self.eval(node.left)] + [
            self.eval(c) for c in node.comparators
        ]
        return self._mask_like(*parts)

    def _eval_BoolOp(self, node: ast.BoolOp) -> AbstractValue:
        return self._mask_like(*[self.eval(v) for v in node.values])

    # -- structured expressions -------------------------------------------

    def _eval_IfExp(self, node: ast.IfExp) -> AbstractValue:
        cond = self.eval(node.test)
        body = self.eval(node.body)
        orelse = self.eval(node.orelse)
        if cond.is_uniform:
            return join(body, orelse)
        return _worst(cond, body, orelse)

    def _eval_Tuple(self, node: ast.Tuple) -> AbstractValue:
        return _worst(*[self.eval(e) for e in node.elts])

    def _eval_List(self, node: ast.List) -> AbstractValue:
        return _worst(*[self.eval(e) for e in node.elts])

    def _eval_Subscript(self, node: ast.Subscript) -> AbstractValue:
        base = self.eval(node.value)
        if base.kind == UNKNOWN:
            return base
        parts = [base]
        for n in ast.walk(node.slice):
            if isinstance(n, ast.expr) and not isinstance(
                n, (ast.Slice, ast.Tuple)
            ):
                parts.append(self.eval(n))
                break
        w = _worst(*parts)
        if w.is_affine and not w.is_uniform:
            # arr[affine-in-tid] is a per-thread selection from host
            # data: data-dependent, not affine.
            return datadep(f"subscript '{source_text(node)}'")
        return w

    def _eval_Call(self, node: ast.Call) -> AbstractValue:
        func = node.func
        fname = ""
        if isinstance(func, ast.Attribute):
            fname = func.attr
        elif isinstance(func, ast.Name):
            fname = func.id
        args = [self.eval(a) for a in node.args]
        kwargs = [self.eval(kw.value) for kw in node.keywords]

        # Routed loads produce data-dependent values.
        if fname in CTX_MEM_METHODS:
            arr = source_text(node.args[0]) if node.args else "?"
            return datadep(f"loaded from '{arr}'")
        if isinstance(func, ast.Name) and func.id in self.env:
            aliased = self.env[func.id]
            if aliased.kind == DATADEP and aliased.why.startswith("ctx-mem"):
                arr = source_text(node.args[0]) if node.args else "?"
                return datadep(f"loaded from '{arr}'")

        if fname in _CLAMP_FUNCS:
            # np.minimum/np.maximum(affine, uniform) and
            # affine_expr.clip(...) keep the affine map, clamped.
            base_parts: list[AbstractValue] = list(args)
            if isinstance(func, ast.Attribute) and fname == "clip":
                base_parts = [self.eval(func.value)] + base_parts
            affines = [v for v in base_parts if v.is_affine
                       and not v.is_uniform]
            others = [v for v in base_parts if not (v.is_affine
                                                   and not v.is_uniform)]
            if len(affines) == 1 and all(o.is_uniform for o in others):
                return replace(affines[0], clamped=True)
            if all(v.is_uniform for v in base_parts):
                return uniform(why="uniform clamp")
            return _worst(*base_parts)

        if fname in _UNIFORM_CTORS:
            # np.zeros(n_threads), np.full(n, c, ...): one broadcast
            # value per launch.
            fill = None
            if fname == "full" and len(node.args) >= 2:
                fv = self.eval(node.args[1])
                fill = fv.offset if fv.is_uniform else None
            elif fname in ("zeros", "zeros_like"):
                fill = 0
            elif fname in ("ones", "ones_like"):
                fill = 1
            return uniform(fill, why=f"np.{fname}")

        if fname == "arange":
            # idx[t] = start + step * t when indexed per-thread.
            start, step = 0, 1
            vals = [self.eval(a) for a in node.args]
            if len(vals) >= 2 and vals[0].is_uniform:
                start = vals[0].offset if vals[0].offset is not None else None
            if len(vals) >= 3 and vals[2].is_uniform:
                step = vals[2].offset if vals[2].offset is not None else None
            return affine(step, start if len(vals) >= 2 else 0,
                          why="np.arange")

        if fname == "where":
            if len(args) == 3:
                cond, a, b = args
                if cond.is_uniform:
                    return join(a, b)
                merged = join(a, b)
                if merged == a and merged == b:
                    return merged  # both arms identical: selection moot
                return _worst(datadep("np.where selection"), *args) \
                    if any(v.kind == DATADEP for v in (cond, a, b)) \
                    else tidperm("np.where over tid-varying condition")
            return _worst(*args) if args else unknown("np.where()")

        if fname == "astype" and isinstance(func, ast.Attribute):
            return self.eval(func.value)

        # Generic call: uniform in, uniform out (lockstep host math);
        # any tid-varying or data input degrades the result.
        parts = args + kwargs
        if isinstance(func, ast.Attribute):
            recv = self.eval(func.value)
            if not (isinstance(func.value, ast.Name)
                    and func.value.id == self.ctx_name):
                parts = [recv] + parts
        if parts and all(v.is_uniform for v in parts):
            return uniform(why=f"uniform call '{fname}'")
        if not parts:
            # A nullary call of an unknown function can return anything,
            # including a per-thread vector.
            return unknown(f"opaque call '{fname}()'")
        w = _worst(*parts)
        if w.kind == AFFINE:
            # A function of a tid-affine value is not provably affine.
            return tidperm(f"call '{fname}' of tid-varying value")
        return w

    def _eval_Starred(self, node: ast.Starred) -> AbstractValue:
        return self.eval(node.value)

    def _eval_NamedExpr(self, node: ast.NamedExpr) -> AbstractValue:
        val = self.eval(node.value)
        if isinstance(node.target, ast.Name):
            self.env[node.target.id] = val
        return val


# ---------------------------------------------------------------------------
# Kernel-level analysis
# ---------------------------------------------------------------------------

_INT_ANNOTATIONS = frozenset({"int", "float", "bool", "np.integer"})


def _param_value(arg: ast.arg) -> AbstractValue:
    """Initial abstract value for one kernel parameter."""
    ann = arg.annotation
    if ann is not None:
        text = source_text(ann)
        if text in _INT_ANNOTATIONS:
            return uniform(why=f"scalar param '{arg.arg}'")
        if "ndarray" in text or "DeviceArray" in text:
            return datadep(f"vector param '{arg.arg}'")
        return datadep(f"param '{arg.arg}' ({text})")
    # Unannotated non-ctx params: host data, conservatively
    # data-dependent (a uniform misread as datadep only widens a
    # coalesced claim to gather — sound for calibration).
    return datadep(f"param '{arg.arg}'")


class KernelAnalysis:
    """Abstract-interpret one kernel body and attach verdicts to its ops."""

    def __init__(self, kir: KernelIR) -> None:
        self.ir = kir
        func = kir.func
        self.env: dict[str, AbstractValue] = {}
        args = func.args
        params = args.posonlyargs + args.args
        for a in params[1:]:
            self.env[a.arg] = _param_value(a)
        for a in args.kwonlyargs:
            self.env[a.arg] = _param_value(a)
        self.evaluator = ExprEvaluator(self.env, kir.ctx_name)
        self.index_values: dict[int, AbstractValue] = {}

    # -- environment construction -----------------------------------------

    def run(self) -> None:
        # Two passes: the first discovers loop-carried rebindings
        # (``lo = np.where(...)`` feeding back into ``mid``), the second
        # evaluates every op's index under the stabilized environment.
        # Joins only move up the lattice, so two passes reach the
        # fixpoint for the loop-free-in-the-lattice bodies kernels have.
        for _ in range(2):
            self._exec_block(self.ir.func.body)
        for op in self.ir.mem_ops():
            self.index_values[id(op)] = self.evaluator.eval(op.index)

    def _assign(self, target: ast.expr, value: AbstractValue) -> None:
        if isinstance(target, ast.Name):
            prev = self.env.get(target.id)
            self.env[target.id] = value if prev is None else join(prev, value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._assign(elt, value)
        elif isinstance(target, ast.Subscript):
            # Writing through a subscript makes the base data-dependent.
            if isinstance(target.value, ast.Name):
                name = target.value.id
                prev = self.env.get(name)
                mutated = datadep(f"mutated '{name}'")
                self.env[name] = mutated if prev is None else join(
                    prev, mutated
                )

    def _exec_block(self, stmts: Sequence[ast.stmt]) -> None:
        for stmt in stmts:
            self._exec_stmt(stmt)

    def _exec_stmt(self, stmt: ast.stmt) -> None:
        ev = self.evaluator
        if isinstance(stmt, ast.Assign):
            value = ev.eval(stmt.value)
            for t in stmt.targets:
                self._assign(t, value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign(stmt.target, ev.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                # ``x op= v`` is ``x = x op v``: the operator decides.
                self.env[stmt.target.id] = ev.eval(ast.BinOp(
                    left=ast.Name(id=stmt.target.id, ctx=ast.Load()),
                    op=stmt.op, right=stmt.value,
                ))
            else:
                self._assign(stmt.target, ev.eval(stmt.value))
        elif isinstance(stmt, ast.For):
            self._assign(stmt.target, self._loop_target_value(stmt))
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.While):
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.If):
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, ast.With):
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Expr):
            ev.eval(stmt.value) if isinstance(stmt.value, ast.expr) else None
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # helper ops carry no verdict (see KernelOp.in_helper)
        elif isinstance(stmt, (ast.Try,)):
            self._exec_block(stmt.body)
            for h in stmt.handlers:
                self._exec_block(h.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)

    def _loop_target_value(self, stmt: ast.For) -> AbstractValue:
        """Loop targets over host iterables are launch-uniform scalars.

        Lockstep semantics: every thread sees the same ``j`` in
        ``for j in range(...)`` / ``enumerate(GENOTYPES)`` — the loop is
        host control flow, not per-thread iteration (GSNP103 enforces
        that separately)."""
        it_val = self.evaluator.eval(stmt.iter)
        if it_val.kind in (DATADEP, TIDPERM):
            return _worst(it_val)
        return uniform(why="host loop variable")


# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------

VERDICT_COALESCED = "coalesced"
VERDICT_STRIDED = "strided"
VERDICT_GATHER = "gather"
VERDICT_UNPROVEN = "unproven"


@dataclass(frozen=True)
class OpVerdict:
    """The audit's classification of one memory op."""

    kernel: str
    path: str
    line: int
    col: int
    kind: str            # gload|gstore|gatomic_add|cload
    array: str
    verdict: str
    detail: str
    stride: Optional[int] = None   # concrete |stride| when proven
    clamped: bool = False
    masked: bool = False

    def to_dict(self) -> dict[str, object]:
        return {
            "kernel": self.kernel,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "op": self.kind,
            "array": self.array,
            "verdict": self.verdict,
            "detail": self.detail,
            "stride": self.stride,
            "clamped": self.clamped,
            "masked": self.masked,
        }


def classify(av: AbstractValue) -> tuple[str, Optional[int]]:
    """Map an abstract index value to (verdict, concrete |stride|)."""
    if av.kind == AFFINE:
        if av.stride is None:
            return VERDICT_STRIDED, None
        if av.stride in (0, 1, -1):
            return VERDICT_COALESCED, abs(av.stride)
        return VERDICT_STRIDED, abs(av.stride)
    if av.kind in (TIDPERM, DATADEP):
        return VERDICT_GATHER, None
    return VERDICT_UNPROVEN, None


@dataclass
class KernelAudit:
    """Everything the audit proved about one kernel."""

    ir: KernelIR
    verdicts: list[OpVerdict]
    diagnostics: list[Diagnostic]


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _branches_compatible(a: KernelOp, b: KernelOp) -> bool:
    """False when the two ops sit in sibling arms of the same ``if`` —
    host-uniform conditions make the arms mutually exclusive within one
    launch."""
    for (ia, aa), (ib, ab) in zip(a.branch_path, b.branch_path):
        if ia == ib and aa != ab:
            return False
        if ia != ib:
            break
    return True


def _same_region(a: KernelOp, b: KernelOp) -> bool:
    if a.region == b.region:
        return True
    # Ops in the same barrier-free loop body re-execute every iteration
    # with no intervening sync, so distinct static regions still collide
    # across iterations.
    if (
        a.loop_id is not None
        and a.loop_id == b.loop_id
        and not a.loop_has_barrier
    ):
        return True
    return False


def _find_witness(
    sa: int, ca: int, sb: int, cb: int
) -> Optional[tuple[int, int]]:
    """Distinct thread ids (ta, tb) with ``sa*ta + ca == sb*tb + cb``."""
    for ta in range(_WITNESS_RANGE):
        lhs = sa * ta + ca
        if lhs < 0:
            continue
        if sb == 0:
            if lhs == cb and ta != 0:
                return (ta, 0)
            continue
        num = lhs - cb
        if num % sb == 0:
            tb = num // sb
            if 0 <= tb < _WITNESS_RANGE and tb != ta:
                return (ta, tb)
    return None


_BYPASS = (
    "bypasses transaction counting; route the access through "
    "ctx.gload/ctx.gstore"
)
_NO_LOGS = (
    "scores must come from the precomputed log_table (ctx.cload), not "
    "runtime logs"
)

#: Site kind -> (rule, message); ``{text}`` is the site's accessor, log
#: function or array, ``{kernel}`` the kernel's name.
_SITE_RULES: dict[str, tuple[str, str]] = {
    "data": (
        "GSNP101", "direct '.data' access inside kernel '{kernel}' " + _BYPASS
    ),
    "raw-call": (
        "GSNP101", "'{text}()' inside kernel '{kernel}' " + _BYPASS
    ),
    "log": ("GSNP102", "'{text}' in kernel '{kernel}': " + _NO_LOGS),
    "bare-log": (
        "GSNP102", "'{text}' call in kernel '{kernel}': " + _NO_LOGS
    ),
    "thread-loop": (
        "GSNP103",
        "per-thread Python loop in kernel '{kernel}' (iterates over ctx.tid "
        "/ ctx.n_threads); write the body as one lockstep vector operation "
        "instead",
    ),
    "subscript": (
        "GSNP105",
        "NumPy indexing of device array '{text}' in kernel '{kernel}' "
        "bypasses coalescing analysis; use ctx.gload/ctx.gstore with an "
        "index vector",
    ),
}


class _AuditChecks:
    """GSNP101-105 and GSNP202/204/205 checks over one analyzed kernel."""

    def __init__(self, analysis: KernelAnalysis) -> None:
        self.ir = analysis.ir
        self.values = analysis.index_values
        self.diags: list[Diagnostic] = []

    def _flag(self, op: Union[KernelOp, Site], rule: str,
              message: str) -> None:
        self.diags.append(Diagnostic(
            path=self.ir.path, line=op.line, col=op.col,
            rule=rule, message=message,
        ))

    def run(self) -> list[Diagnostic]:
        mem = self.ir.mem_ops()
        self._check_sites()
        self._check_dropped_masks()
        self._check_unproven(mem)
        self._check_races(mem)
        self._check_missing_barrier(mem)
        return self.diags

    # -- GSNP101/102/103/105 -----------------------------------------------

    def _check_sites(self) -> None:
        for site in self.ir.sites:
            rule, message = _SITE_RULES[site.kind]
            self._flag(
                site, rule, message.format(text=site.text, kernel=self.ir.name)
            )

    # -- GSNP104 -----------------------------------------------------------

    def _check_dropped_masks(self) -> None:
        for op in self.ir.ops:
            if (
                op.is_store
                and op.mask.kind == MASK_FULL_DEFAULT
                and op.live_masks
            ):
                live = ", ".join(repr(m) for m in op.live_masks)
                self._flag(
                    op, "GSNP104",
                    f"'{op.kind}' drops the live active mask ({live}) in "
                    f"kernel '{self.ir.name}'; pass active=<mask>, or "
                    "active=None to assert a deliberate full-warp store",
                )

    # -- GSNP205 -----------------------------------------------------------

    def _check_unproven(self, mem: list[KernelOp]) -> None:
        for op in mem:
            av = self.values[id(op)]
            if classify(av)[0] == VERDICT_UNPROVEN:
                self._flag(
                    op, "GSNP205",
                    f"{op.kind} on '{op.array_text}' in kernel "
                    f"'{self.ir.name}' has an unprovable index "
                    f"'{op.index_text}' ({av.describe()}); restructure the "
                    "index to be affine in ctx.tid or a routed gather so "
                    "the audit can classify it",
                )

    # -- GSNP202 -----------------------------------------------------------

    def _check_races(self, mem: list[KernelOp]) -> None:
        for i, a in enumerate(mem):
            av = self.values[id(a)]
            # Full-warp broadcast store: every live thread writes the
            # same element — a self-race needing no second op.
            if (
                a.is_store
                and av.is_uniform
                and a.mask.is_full
                and a.kind != "gatomic_add"
            ):
                self._flag(
                    a, "GSNP202",
                    f"full-warp {a.kind} on '{a.array_text}' in kernel "
                    f"'{self.ir.name}' writes one element "
                    f"('{a.index_text}' is thread-uniform) from every "
                    "thread: a write-write race; mask to one lane or use "
                    "ctx.gatomic_add",
                )
            for b in mem[i + 1:]:
                self._check_pair(a, b)

    def _check_pair(self, a: KernelOp, b: KernelOp) -> None:
        if a.array_text != b.array_text or not a.array_text:
            return
        if not (a.is_store or b.is_store):
            return
        if a.kind == "gatomic_add" and b.kind == "gatomic_add":
            return  # atomics serialize against each other
        if not _same_region(a, b):
            return
        if not _branches_compatible(a, b):
            return
        if not (a.mask.is_full and b.mask.is_full):
            return  # masked pairs are the runtime sanitizer's job
        va, vb = self.values[id(a)], self.values[id(b)]
        if not (va.concrete and vb.concrete):
            return
        assert va.stride is not None and va.offset is not None
        assert vb.stride is not None and vb.offset is not None
        if (va.stride, va.offset) == (vb.stride, vb.offset):
            # Same-lane accesses never cross threads.  (The degenerate
            # shared broadcast store case is handled above.)
            return
        witness = _find_witness(va.stride, va.offset, vb.stride, vb.offset)
        if witness is None:
            return
        ta, tb = witness
        kind = "write-write" if a.is_store and b.is_store else "read-write"
        cross = (
            " across iterations of the barrier-free loop at line "
            f"{a.loop_line}" if a.region != b.region else ""
        )
        self._flag(
            b, "GSNP202",
            f"static {kind} race on '{a.array_text}' in kernel "
            f"'{self.ir.name}': index '{a.index_text}' (line {a.line}) and "
            f"'{b.index_text}' collide at element "
            f"{va.stride * ta + va.offset} for threads t={ta} and t={tb} "
            f"in the same barrier region{cross}; separate the accesses "
            "with ctx.syncthreads()",
        )

    # -- GSNP204 -----------------------------------------------------------

    def _check_missing_barrier(self, mem: list[KernelOp]) -> None:
        for i, store in enumerate(mem):
            if not store.is_store or store.mask.kind != MASK_MASKED:
                continue
            vs = self.values[id(store)]
            for load in mem[i + 1:]:
                if not load.is_load:
                    continue
                if load.array_text != store.array_text:
                    continue
                if not load.mask.is_full:
                    continue
                if load.region != store.region:
                    continue
                if not _branches_compatible(store, load):
                    continue
                vl = self.values[id(load)]
                if (
                    vs.concrete and vl.concrete
                    and (vs.stride, vs.offset) == (vl.stride, vl.offset)
                ):
                    continue  # provably same-lane: each thread reads its own
                self._flag(
                    load, "GSNP204",
                    f"full-warp {load.kind} of '{load.array_text}' in "
                    f"kernel '{self.ir.name}' may read lanes the masked "
                    f"{store.kind} at line {store.line} (mask "
                    f"'{store.mask.text}') skipped or wrote concurrently; "
                    "insert ctx.syncthreads() between them",
                )


# ---------------------------------------------------------------------------
# GSNP203: interprocedural uninit-read tracking
# ---------------------------------------------------------------------------

def _uninit_alloc_names(tree: ast.Module) -> set[str]:
    """Names bound to ``<device>.alloc(..., init=False)`` results."""
    out: set[str] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Assign):
            continue
        call = node.value
        if not (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "alloc"
        ):
            continue
        uninit = any(
            kw.arg == "init"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is False
            for kw in call.keywords
        )
        if not uninit:
            continue
        for t in node.targets:
            if isinstance(t, ast.Name):
                out.add(t.id)
    return out


def _launch_bindings(
    tree: ast.Module, kernels_by_name: dict[str, KernelIR]
) -> list[tuple[KernelIR, dict[str, str]]]:
    """For each launch site, map kernel param name -> argument name.

    Only simple ``Name`` arguments are tracked; anything computed is out
    of scope for the static uninit check (the runtime shadow bitmap
    covers it).
    """
    finder = KernelFinder()
    finder.visit(tree)
    out: list[tuple[KernelIR, dict[str, str]]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        target = launch_target(node)
        kname: Optional[str] = None
        if isinstance(target, ast.Name):
            kname = finder.resolve(target.id)
        elif isinstance(target, ast.Attribute):
            kname = target.attr
        if kname is None or kname not in kernels_by_name:
            continue
        kir = kernels_by_name[kname]
        binding: dict[str, str] = {}
        # launch(kernel, n_threads, *kernel_args): positional kernel
        # args start at call position 2 and map onto params after ctx.
        pos_args = node.args[2:]
        for param, arg in zip(kir.params, pos_args):
            if isinstance(arg, ast.Name):
                binding[param] = arg.id
        for kw in node.keywords:
            if kw.arg in kir.params and isinstance(kw.value, ast.Name):
                binding[kw.arg] = kw.value.id
        out.append((kir, binding))
    return out


def _check_uninit_reads(
    tree: ast.Module, kernel_irs: list[KernelIR]
) -> list[Diagnostic]:
    uninit = _uninit_alloc_names(tree)
    if not uninit:
        return []
    diags: list[Diagnostic] = []
    by_name = {k.name: k for k in kernel_irs}
    for kir, binding in _launch_bindings(tree, by_name):
        tainted = {p for p, arg in binding.items() if arg in uninit}
        if not tainted:
            continue
        stored: set[str] = set()
        for op in kir.mem_ops():
            if op.array_param in tainted:
                if op.is_store:
                    stored.add(op.array_param)
                elif op.is_load and op.array_param not in stored:
                    diags.append(Diagnostic(
                        path=kir.path, line=op.line, col=op.col,
                        rule="GSNP203",
                        message=(
                            f"{op.kind} of param '{op.array_param}' in "
                            f"kernel '{kir.name}' reads an "
                            "alloc(init=False) allocation "
                            f"('{binding[op.array_param]}') with no "
                            "dominating store; initialize the allocation "
                            "or store before loading"
                        ),
                    ))
    return diags


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def audit_kernel(kir: KernelIR) -> KernelAudit:
    """Analyze one kernel: verdicts for every mem op + GSNP101-105 and
    GSNP202/204/205."""
    analysis = KernelAnalysis(kir)
    analysis.run()
    verdicts: list[OpVerdict] = []
    diags: list[Diagnostic] = []
    for op in kir.mem_ops():
        av = analysis.index_values[id(op)]
        verdict, stride = classify(av)
        ov = OpVerdict(
            kernel=kir.name, path=kir.path, line=op.line, col=op.col,
            kind=op.kind, array=op.array_text, verdict=verdict,
            detail=av.describe(), stride=stride,
            clamped=av.is_affine and av.clamped,
            masked=op.mask.kind == MASK_MASKED,
        )
        verdicts.append(ov)
        diags.append(Diagnostic(
            path=kir.path, line=op.line, col=op.col, rule="GSNP201",
            severity="note",
            message=(
                f"{op.kind} on '{op.array_text}' in kernel '{kir.name}' "
                f"is {verdict} ({av.describe()})"
            ),
        ))
    diags.extend(_AuditChecks(analysis).run())
    return KernelAudit(ir=kir, verdicts=verdicts, diagnostics=diags)


@dataclass
class ModuleAudit:
    """Audit results for one source file."""

    path: str
    kernels: list[KernelAudit] = field(default_factory=list)
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def verdicts(self) -> list[OpVerdict]:
        return [v for k in self.kernels for v in k.verdicts]


def _gsnp100(path: str, message: str, line: int = 1,
             col: int = 1) -> Diagnostic:
    return Diagnostic(path=path, line=line, col=col, rule="GSNP100",
                      message=message)


def audit_source(source: str, path: str = "<string>") -> ModuleAudit:
    """Audit one module's source: every rule, suppression-filtered.

    Never raises on what it is given: a module that does not parse, or
    that nests deeper than the analyzer can recurse, is one GSNP100.
    """
    suppressions = _suppressions(source)
    mod = ModuleAudit(path=path)
    try:
        tree = ast.parse(source, filename=path)
        for kir in extract_module_ir(tree, path):
            mod.kernels.append(audit_kernel(kir))
        diags = [d for k in mod.kernels for d in k.diagnostics]
        diags += _check_uninit_reads(tree, [k.ir for k in mod.kernels])
    except SyntaxError as exc:
        diags = [_gsnp100(path, f"file does not parse: {exc.msg}",
                          exc.lineno or 1, (exc.offset or 0) + 1)]
    except RecursionError:
        mod.kernels = []
        diags = [_gsnp100(path, "file nests too deeply to analyse")]
    mod.diagnostics = sorted(
        d for d in diags if not _is_suppressed(d, suppressions)
    )
    return mod


def audit_file(path: Union[str, Path]) -> ModuleAudit:
    """Audit one ``.py`` file, decoded as Python decodes it (PEP 263).

    A file that does not decode is a GSNP100 at ``path:1:1``.
    """
    p = Path(path)
    try:
        with tokenize.open(p) as fh:
            source = fh.read()
    except (SyntaxError, UnicodeDecodeError) as exc:
        return ModuleAudit(path=str(p), diagnostics=[
            _gsnp100(str(p), f"file does not decode: {exc}")
        ])
    return audit_source(source, str(p))


def audit_paths(
    paths: Sequence[Union[str, Path]],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> list[ModuleAudit]:
    """Audit files / directory trees.

    ``select`` restricts to, and ``ignore`` drops, the given rule ids or
    names (e.g. ``["GSNP104"]`` or ``["dropped-active-mask"]``); an
    unknown rule is a ``ValueError``.
    """
    sel = normalize_rules(select)
    ign = normalize_rules(ignore) or set()
    out: list[ModuleAudit] = []
    for f in iter_python_files(paths):
        mod = audit_file(f)
        mod.diagnostics = [
            d for d in mod.diagnostics
            if (sel is None or d.rule in sel) and d.rule not in ign
        ]
        out.append(mod)
    return out


__all__ = [
    "AFFINE", "TIDPERM", "DATADEP", "UNKNOWN",
    "AbstractValue", "ExprEvaluator", "KernelAnalysis",
    "VERDICT_COALESCED", "VERDICT_STRIDED", "VERDICT_GATHER",
    "VERDICT_UNPROVEN",
    "OpVerdict", "KernelAudit", "ModuleAudit",
    "classify", "join",
    "audit_kernel", "audit_source", "audit_file", "audit_paths",
]

"""The rule table, diagnostics and suppressions of ``gsnp audit``.

Every paper-level claim this repo reproduces (Table III counters, the
82 vs 3.2 GB/s coalescing gap, bitwise CPU/GPU score consistency) is only
valid if every simulated kernel routes its memory traffic through
:class:`~repro.gpusim.kernel.KernelContext` and follows the lockstep
idiom.  ``gsnp audit`` is the one analyzer that checks it; this module
holds what all of its rules share — the :data:`RULES` table, the
:class:`Diagnostic` record and the ``# gsnp-lint: disable=`` suppression
grammar — plus the two module-level rules, which look at a whole file
rather than at a kernel body:

========  =============================  =====================================
rule id   name                           what it catches
========  =============================  =====================================
GSNP106   adhoc-fault-site               fault injection outside the chaos
                                         registry: ``fault_point`` with a
                                         non-literal or unregistered site,
                                         ad-hoc ``if FAULT:``-style flags, or
                                         ``FAULT``/``CHAOS`` environment
                                         lookups
GSNP109   suppression-without-rationale  a ``# gsnp-lint: disable=`` comment
                                         with no explanatory comment on the
                                         same line or within two lines
========  =============================  =====================================

The entry points in :mod:`repro.analyze.dataflow` report GSNP100 (a
file that does not decode or parse) and answer the kernel rules
GSNP101-105 and GSNP201-205 as queries over the kernel IR.

Suppress a finding with ``# gsnp-lint: disable=GSNP101`` (rule ids or
names, comma-separated, or ``all``) on the offending line, with a
rationale comment nearby (GSNP109).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

#: rule id -> short name
RULES: dict[str, str] = {
    "GSNP100": "parse-error",
    "GSNP101": "kernel-data-access",
    "GSNP102": "kernel-log-call",
    "GSNP103": "per-thread-loop",
    "GSNP104": "dropped-active-mask",
    "GSNP105": "device-fancy-index",
    "GSNP106": "adhoc-fault-site",
    "GSNP109": "suppression-without-rationale",
    "GSNP201": "access-pattern-verdict",
    "GSNP202": "static-race",
    "GSNP203": "static-uninit-read",
    "GSNP204": "missing-barrier-hazard",
    "GSNP205": "unproven-access",
}

_RULE_BY_NAME = {name: rid for rid, name in RULES.items()}

_SUPPRESS_RE = re.compile(r"#\s*gsnp-lint:\s*disable=([A-Za-z0-9_\-, ]+)")


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


def _rationale_diagnostics(source: str, path: str) -> list[Diagnostic]:
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


def module_diagnostics(
    tree: ast.Module, source: str, path: str
) -> list[Diagnostic]:
    """The module-level rules: GSNP106 over the tree, GSNP109 over the
    suppression comments (unfiltered; the caller applies suppressions)."""
    checker = _FaultSiteChecker(path)
    checker.visit(tree)
    return checker.diags + _rationale_diagnostics(source, path)

"""The rule table, diagnostics and suppressions of ``gsnp audit``.

Every paper-level claim this repo reproduces (Table III counters, the
82 vs 3.2 GB/s coalescing gap, bitwise CPU/GPU score consistency) is only
valid if every simulated kernel routes its memory traffic through
:class:`~repro.gpusim.kernel.KernelContext` and follows the lockstep
idiom.  ``gsnp audit`` is the one analyzer that checks it; this module
holds what all of its rules share: the :data:`RULES` table, the
:class:`Diagnostic` record and the ``# gsnp-lint: disable=`` suppression
grammar.  The entry points in :mod:`repro.analyze.dataflow` report
GSNP100 (a file that does not decode or parse) and answer the kernel
rules GSNP101-105 and GSNP201-205 as queries over the kernel IR.

Suppress a finding with a ``# gsnp-lint: disable=GSNP101`` comment (rule
ids or names, comma-separated, or ``all``) on the offending line, with a
rationale comment nearby.  Only comment tokens count: the same text
inside a string literal suppresses nothing.
"""

from __future__ import annotations

import io
import re
import tokenize
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
    "GSNP201": "access-pattern-verdict",
    "GSNP202": "static-race",
    "GSNP203": "static-uninit-read",
    "GSNP204": "missing-barrier-hazard",
    "GSNP205": "unproven-access",
}

_RULE_BY_NAME = {name: rid for rid, name in RULES.items()}

#: ``disable=`` takes comma-separated rule ids, names or ``all``; the
#: list ends at the first other word, where the rationale begins.
_SUPPRESS_RE = re.compile(
    r"#\s*gsnp-lint:\s*disable=([\w\-]+(?:\s*,\s*[\w\-]+)*)"
)


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


def _comments(source: str) -> dict[int, str]:
    """line number -> text of the comment token on that line.

    Reads tokens up to the first tokenize error, so a module that does
    not parse still yields the comments before the error (a GSNP100 can
    be suppressed on its own line)."""
    out: dict[int, str] = {}
    try:
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type == tokenize.COMMENT:
                out[tok.start[0]] = tok.string
    except (tokenize.TokenError, SyntaxError):
        pass
    return out


def _suppressions(source: str) -> dict[int, set[str]]:
    """line number -> set of suppressed rule tokens (``all`` wildcard)."""
    out: dict[int, set[str]] = {}
    for lineno, text in _comments(source).items():
        m = _SUPPRESS_RE.search(text)
        if m:
            out[lineno] = {t.strip() for t in m.group(1).split(",")}
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

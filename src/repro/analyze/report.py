"""Diagnostic output formats for ``gsnp audit``.

Three formats, selected with ``--format``:

``text``
    the classic ``path:line:col: RULE [name] message`` lines;
``json``
    one machine-readable document (``{"tool", "diagnostics", "count"}``
    plus the audit's extras) for dashboards and scripted gates;
``github``
    GitHub Actions workflow commands (``::error file=...,line=...``) so
    CI failures render as per-line annotations on the PR diff instead of
    a wall of log text.  Severity ``note`` maps to ``::notice``.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from .lint import RULES, Diagnostic

FORMATS: tuple[str, ...] = ("text", "json", "github")


def _github_line(diag: Diagnostic) -> str:
    level = "error" if diag.severity == "error" else "notice"
    name = RULES.get(diag.rule, "?")
    # Workflow-command property values must escape their separators.
    message = (
        diag.message.replace("%", "%25")
        .replace("\r", "%0D")
        .replace("\n", "%0A")
    )
    return (
        f"::{level} file={diag.path},line={diag.line},col={diag.col},"
        f"title={diag.rule} [{name}]::{message}"
    )


def render_diagnostics(
    diags: Sequence[Diagnostic],
    fmt: str = "text",
    extra: Optional[dict[str, object]] = None,
) -> str:
    """Render diagnostics in the requested format (one printable blob).

    ``extra`` is merged into the JSON document (e.g. the audit's verdict
    summary or calibration report); other formats ignore it.
    """
    if fmt == "json":
        doc: dict[str, object] = {
            "tool": "gsnp-audit",
            "diagnostics": [d.to_dict() for d in diags],
            "count": sum(1 for d in diags if d.severity == "error"),
        }
        if extra:
            doc.update(extra)
        return json.dumps(doc, indent=2, sort_keys=True)
    if fmt == "github":
        return "\n".join(_github_line(d) for d in diags)
    if fmt == "text":
        return "\n".join(d.format() for d in diags)
    raise ValueError(
        f"unknown format {fmt!r}; valid formats: {', '.join(FORMATS)}"
    )


__all__ = ["FORMATS", "render_diagnostics"]

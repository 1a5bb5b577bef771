"""Kernel discovery for ``gsnp audit``.

Every kernel rule of the audit needs the same answer to "which functions
in this module are simulated kernel bodies?".  A kernel is

* any function whose name ends in ``_kernel`` (the naming convention), or
* any function passed to ``Device.launch(...)`` — whether positionally
  (the first argument), by keyword (``launch(kernel=...)``), or through
  a local alias (``body = my_kernel; device.launch(body, ...)``).

The runtime sanitizer (:mod:`repro.analyze.sanitize`) hooks the same
launch sites dynamically; this module is the static mirror of that
contract, so the static and runtime layers never drift apart on what
counts as a kernel.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence, Union

#: Maximum alias-chain length followed during resolution (cycle guard).
_MAX_ALIAS_DEPTH = 8


def launch_target(node: ast.Call) -> ast.expr | None:
    """The kernel argument of a ``*.launch(...)`` call — ``kernel=`` if
    given, else the first positional — or ``None`` for any other call."""
    func = node.func
    if not (isinstance(func, ast.Attribute) and func.attr == "launch"):
        return None
    for kw in node.keywords:
        if kw.arg == "kernel":
            return kw.value
    return node.args[0] if node.args else None


def _callable_name(node: ast.expr) -> str | None:
    """The name a launch-site argument refers to, if it is a simple ref."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@dataclass
class DiscoveredKernels:
    """The kernel inventory of one module."""

    #: Names referenced at launch sites, before alias resolution.
    launched: set[str] = field(default_factory=set)
    #: Simple ``alias = target`` assignments seen in the module.
    aliases: dict[str, str] = field(default_factory=dict)
    #: The function definitions classified as kernel bodies.
    kernels: list[ast.FunctionDef] = field(default_factory=list)


class KernelFinder(ast.NodeVisitor):
    """Collect function defs, launch-site kernel refs, and name aliases."""

    def __init__(self) -> None:
        self.defs: list[ast.FunctionDef] = []
        self.launched: set[str] = set()
        self.aliases: dict[str, str] = {}

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.defs.append(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Assign(self, node: ast.Assign) -> None:
        # A simple ``alias = name`` (or ``alias = mod.attr``) binding: a
        # launch site may refer to the kernel through the alias.
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            target_name = _callable_name(node.value)
            if target_name is not None:
                self.aliases[node.targets[0].id] = target_name
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        target = launch_target(node)
        if target is not None:
            name = _callable_name(target)
            if name is not None:
                self.launched.add(name)
        self.generic_visit(node)

    def resolve(self, name: str) -> str:
        """Follow ``alias = target`` chains to the final referenced name."""
        seen = {name}
        for _ in range(_MAX_ALIAS_DEPTH):
            nxt = self.aliases.get(name)
            if nxt is None or nxt in seen:
                return name
            seen.add(nxt)
            name = nxt
        return name


def discover_kernels(tree: ast.AST) -> DiscoveredKernels:
    """Classify every kernel body in a parsed module."""
    finder = KernelFinder()
    finder.visit(tree)
    resolved = {finder.resolve(n) for n in finder.launched} | finder.launched
    kernels = [
        d
        for d in finder.defs
        if d.name.endswith("_kernel") or d.name in resolved
    ]
    return DiscoveredKernels(
        launched=finder.launched,
        aliases=dict(finder.aliases),
        kernels=kernels,
    )


def iter_python_files(
    paths: Sequence[Union[str, Path]],
) -> Iterator[Path]:
    """Yield ``.py`` files from a mix of files and directory trees."""
    for p in paths:
        path = Path(p)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


__all__ = [
    "DiscoveredKernels",
    "KernelFinder",
    "discover_kernels",
    "iter_python_files",
    "launch_target",
]

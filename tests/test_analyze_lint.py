"""gsnp audit's rule table: every rule fires, lands, and suppresses.

Seeds each rule's violation into synthetic source and checks the
diagnostic lands on the right file:line with the right rule id — plus
kernel discovery, suppression comments, rule filtering, undecodable
files, output formats, the CLI exit codes, and the acceptance gate that
the repo's own code audits clean.  Three source-tree hygiene checks are
scans here rather than audit rules: every fault enters through the
``faults.plan.SITES`` registry, no job or daemon state lives in a module
global, and every suppression says why.
"""

import ast
import re
import textwrap
import tokenize

import pytest

from repro.analyze import (
    Diagnostic,
    RULES,
    audit_paths,
    audit_source,
    iter_python_files,
)
from repro.analyze.lint import _SUPPRESS_RE, _comments
from repro.cli import main_audit
from repro.faults.plan import SITES


def _errors(diags):
    return [d for d in diags if d.severity == "error"]


def _audit(src):
    return _errors(
        audit_source(textwrap.dedent(src), "test.py").diagnostics
    )


def _tree_errors(paths, **kw):
    return _errors(
        [d for m in audit_paths(paths, **kw) for d in m.diagnostics]
    )


class TestKernelDiscovery:
    def test_suffix_named_function_is_a_kernel(self):
        diags = _audit(
            """
            def scatter_kernel(ctx, out):
                x = out.data
            """
        )
        assert [d.rule for d in diags] == ["GSNP101"]

    def test_launch_argument_is_a_kernel(self):
        diags = _audit(
            """
            def body(ctx, out):
                x = out.data

            def run(device, out):
                device.launch(body, 32, out)
            """
        )
        assert [d.rule for d in diags] == ["GSNP101"]
        assert "body" in diags[0].message

    def test_host_code_is_not_linted(self):
        diags = _audit(
            """
            import numpy as np

            def stage(device, host):
                arr = device.to_device(host)
                print(arr.data, np.log(host))
                for x in arr.data:
                    pass
            """
        )
        assert diags == []


class TestRules:
    def test_gsnp101_data_access(self):
        diags = _audit(
            """
            def bad_kernel(ctx, arr):
                v = arr.data[0]
            """
        )
        assert diags[0].rule == "GSNP101"
        assert diags[0].line == 3
        assert "transaction counting" in diags[0].message

    def test_gsnp101_flat_view(self):
        diags = _audit(
            """
            def bad_kernel(ctx, arr):
                v = arr.flat_view()
            """
        )
        assert [d.rule for d in diags] == ["GSNP101"]

    def test_gsnp102_module_log(self):
        diags = _audit(
            """
            import numpy as np

            def bad_kernel(ctx, arr, out):
                v = ctx.gload(arr, ctx.tid)
                w = np.log10(v)
            """
        )
        assert [d.rule for d in diags] == ["GSNP102"]
        assert diags[0].line == 6
        assert "log_table" in diags[0].message

    def test_gsnp102_bare_log(self):
        diags = _audit(
            """
            from math import log

            def bad_kernel(ctx, v):
                return log(v)
            """
        )
        assert [d.rule for d in diags] == ["GSNP102"]

    def test_gsnp103_loop_over_tid(self):
        diags = _audit(
            """
            def bad_kernel(ctx, arr):
                for t in ctx.tid:
                    pass
            """
        )
        assert [d.rule for d in diags] == ["GSNP103"]
        assert diags[0].line == 3

    def test_gsnp103_range_n_threads(self):
        diags = _audit(
            """
            def bad_kernel(ctx, arr):
                for t in range(ctx.n_threads):
                    pass
            """
        )
        assert [d.rule for d in diags] == ["GSNP103"]

    def test_gsnp103_lockstep_width_loop_is_fine(self):
        diags = _audit(
            """
            def good_kernel(ctx, arr, width, lens):
                for j in range(width):
                    active = j < lens
            """
        )
        assert diags == []

    def test_gsnp104_dropped_mask(self):
        diags = _audit(
            """
            def bad_kernel(ctx, out, n):
                active = ctx.tid < n
                v = ctx.gload(out, ctx.tid, active=active)
                ctx.gstore(out, ctx.tid, v)
            """
        )
        assert [d.rule for d in diags] == ["GSNP104"]
        assert diags[0].line == 5
        assert "'active'" in diags[0].message

    def test_gsnp104_explicit_none_suppresses(self):
        diags = _audit(
            """
            def good_kernel(ctx, out, n):
                active = ctx.tid < n
                v = ctx.gload(out, ctx.tid, active=active)
                ctx.gstore(out, ctx.tid, v, active=None)
            """
        )
        assert diags == []

    def test_gsnp104_no_mask_in_scope_is_fine(self):
        diags = _audit(
            """
            def good_kernel(ctx, out):
                ctx.gstore(out, ctx.tid, ctx.tid)
            """
        )
        assert diags == []

    def test_gsnp104_tracks_custom_mask_names(self):
        diags = _audit(
            """
            def bad_kernel(ctx, out, flags, n):
                emit = ctx.tid < n
                v = ctx.gload(flags, ctx.tid, active=emit)
                ctx.gatomic_add(out, v, 1)
            """
        )
        assert [d.rule for d in diags] == ["GSNP104"]
        assert "'emit'" in diags[0].message

    def test_gsnp105_fancy_index(self):
        diags = _audit(
            """
            def bad_kernel(ctx, src, out):
                v = ctx.gload(src, ctx.tid, active=None)
                out[ctx.tid] = v
            """
        )
        assert [d.rule for d in diags] == ["GSNP105"]
        assert diags[0].line == 4
        assert "'out'" in diags[0].message

    def test_gsnp105_annotation_marks_device_array(self):
        diags = _audit(
            """
            def bad_kernel(ctx, table: DeviceArray):
                v = table[0]
            """
        )
        assert [d.rule for d in diags] == ["GSNP105"]

    def test_gsnp105_plain_numpy_param_is_fine(self):
        diags = _audit(
            """
            def good_kernel(ctx, acc, out):
                v = ctx.gload(out, ctx.tid, active=None)
                acc[:, 0] = v
            """
        )
        assert diags == []

    def test_gsnp100_syntax_error(self):
        diags = audit_source("def broken(:\n", "bad.py").diagnostics
        assert [d.rule for d in diags] == ["GSNP100"]

    def test_violation_in_nested_helper_fires(self):
        """A helper def nested in a kernel body is kernel code too."""
        diags = _audit(
            """
            def bad_kernel(ctx, arr, out):
                def helper(i):
                    return arr.data[i]
                ctx.gstore(out, ctx.tid, helper(ctx.tid), active=None)
            """
        )
        assert [(d.rule, d.line) for d in diags] == [("GSNP101", 4)]
        assert "'bad_kernel'" in diags[0].message

    def test_five_distinct_rules_in_one_kernel(self):
        diags = _audit(
            """
            import numpy as np

            def awful_kernel(ctx, arr, out, n):
                active = ctx.tid < n
                raw = arr.data
                v = np.log(raw)
                for t in ctx.tid:
                    pass
                ctx.gstore(out, ctx.tid, v)
                out[0] = 1.0
            """
        )
        assert {d.rule for d in diags} == {
            "GSNP101", "GSNP102", "GSNP103", "GSNP104", "GSNP105"
        }
        # Every diagnostic is addressable: real line, 1-based column.
        assert all(d.line > 1 and d.col >= 1 for d in diags)


class TestSuppression:
    def test_line_comment_suppresses_by_id(self):
        diags = _audit(
            """
            def ok_kernel(ctx, arr):
                v = arr.data  # gsnp-lint: disable=GSNP101 (host staging copy)
            """
        )
        assert diags == []

    def test_line_comment_suppresses_by_name(self):
        diags = _audit(
            """
            def ok_kernel(ctx, arr):
                v = arr.data  # gsnp-lint: disable=kernel-data-access (host staging copy)
            """
        )
        assert diags == []

    def test_suppression_is_rule_specific(self):
        diags = _audit(
            """
            import numpy as np

            def bad_kernel(ctx, arr):
                v = np.log(arr.data)  # gsnp-lint: disable=GSNP102 (baseline variant cost)
            """
        )
        assert [d.rule for d in diags] == ["GSNP101"]

    def test_rule_list_ends_where_the_rationale_begins(self):
        diags = _audit(
            """
            def ok_kernel(ctx, arr):
                v = arr.data  # gsnp-lint: disable=GSNP101 because host staging
            """
        )
        assert diags == []

    def test_spaced_rule_list_suppresses_every_rule(self):
        diags = _audit(
            """
            import numpy as np

            def ok_kernel(ctx, arr):
                v = np.log(arr.data)  # gsnp-lint: disable=GSNP101, GSNP102 two rules
            """
        )
        assert diags == []

    def test_directive_in_a_string_literal_does_not_suppress(self):
        diags = _audit(
            """
            def bad_kernel(ctx, arr):
                v = arr.data; s = "# gsnp-lint: disable=GSNP101"
            """
        )
        assert [d.rule for d in diags] == ["GSNP101"]

    def test_disable_all(self):
        diags = _audit(
            """
            import numpy as np

            def ok_kernel(ctx, arr):
                v = np.log(arr.data)  # gsnp-lint: disable=all (host debug dump)
            """
        )
        assert diags == []


class TestPathsAndFilters:
    @pytest.fixture
    def tree(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "def a_kernel(ctx, arr):\n    return arr.data\n"
        )
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "b.py").write_text(
            "import numpy as np\n"
            "def b_kernel(ctx, v):\n    return np.log(v)\n"
        )
        return tmp_path

    def test_directory_recursion(self, tree):
        diags = _tree_errors([tree])
        assert {d.rule for d in diags} == {"GSNP101", "GSNP102"}
        assert {d.path.endswith("a.py") for d in diags} == {True, False}

    def test_select(self, tree):
        diags = _tree_errors([tree], select=["GSNP102"])
        assert [d.rule for d in diags] == ["GSNP102"]

    def test_ignore_by_name(self, tree):
        diags = _tree_errors([tree], ignore=["kernel-log-call"])
        assert [d.rule for d in diags] == ["GSNP101"]

    def test_unknown_rule_raises(self, tree):
        with pytest.raises(ValueError, match="GSNP999"):
            audit_paths([tree], select=["GSNP999"])

    def test_cli_exit_codes(self, tree, capsys):
        assert main_audit([str(tree)]) == 1
        out = capsys.readouterr().out
        assert "GSNP101" in out and "a.py" in out
        assert main_audit([str(tree), "--select", "GSNP104"]) == 0

    def test_undecodable_file_is_a_finding_not_an_abort(self, tree, capsys):
        """A file that does not decode is one GSNP100 at its own path;
        the rest of the tree is still audited (exit 1, not a usage
        error)."""
        (tree / "latin.py").write_bytes(b"x = '\xff'\n")
        (tree / "late.py").write_bytes(b"x = 1\ny = 2\nz = '\xff'\n")
        (tree / "cookie.py").write_bytes(
            b"# -*- coding: latin-1 -*-\nx = '\xff'\n"
        )
        assert main_audit([str(tree)]) == 1
        out = capsys.readouterr().out
        assert "latin.py:1:1: GSNP100" in out
        assert "late.py:1:1: GSNP100" in out
        assert "GSNP101" in out and "a.py" in out
        assert "cookie.py" not in out  # PEP 263 cookie decodes

    def test_repo_kernels_lint_clean(self):
        """The acceptance gate: the repo's own kernel code passes."""
        assert _tree_errors(["src/repro"]) == []


# ---------------------------------------------------------------------------
# Source-tree hygiene scans: fault sites, module state and suppression
# rationales
# ---------------------------------------------------------------------------

_FLAG_RE = re.compile(r"^(FAULT|CHAOS|INJECT)")
_ENV_KEY_RE = re.compile(r"FAULT|CHAOS|INJECT", re.IGNORECASE)
_WORD_RE = re.compile(r"[A-Za-z0-9']+")
_MIN_RATIONALE_WORDS = 3


def _is_str(node):
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _is_environ(node):
    """``os.environ``, or an ``environ`` imported by name."""
    return (
        isinstance(node, ast.Attribute) and node.attr == "environ"
        or isinstance(node, ast.Name) and node.id == "environ"
    )


def fault_site_findings(source):
    """``(line, message)`` for each way a fault bypasses the registry:
    a ``fault_point`` site that is not a literal ``faults.plan.SITES`` key,
    an ALL-CAPS ``FAULT``/``CHAOS``/``INJECT`` flag in an ``if`` test, or
    an environment lookup of such a key.  Lowercase plumbing
    (``config.faults``, ``inject_failures=``) is the registry's own."""
    out = []
    for node in ast.walk(ast.parse(textwrap.dedent(source))):
        env_key = None
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            first = node.args[0] if node.args else None
            if name == "fault_point":
                site = next(
                    (kw.value for kw in node.keywords if kw.arg == "site"),
                    first,
                )
                if not _is_str(site):
                    out.append((node.lineno, "computed fault_point() site"))
                elif site.value not in SITES:
                    out.append(
                        (node.lineno, f"unregistered site {site.value!r}")
                    )
            elif name == "getenv" or (
                name == "get" and isinstance(func, ast.Attribute)
                and _is_environ(func.value)
            ):
                env_key = first
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            env_key = node.slice
        elif isinstance(node, ast.If):
            for n in ast.walk(node.test):
                flag = getattr(n, "id", getattr(n, "attr", ""))
                if _FLAG_RE.match(flag) and flag.isupper():
                    out.append((n.lineno, f"ad-hoc fault flag {flag!r}"))
        if _is_str(env_key) and _ENV_KEY_RE.search(env_key.value):
            out.append(
                (node.lineno, f"environment fault switch {env_key.value!r}")
            )
    return sorted(out)


def bare_suppressions(source):
    """Lines of ``# gsnp-lint: disable=`` comments without a rationale: a
    comment of three or more words (the directive itself not counted) on
    the directive's line, up to two lines above, or one line below.
    Only comment tokens count, never string literals."""
    comments = _comments(textwrap.dedent(source))
    words = {
        line: len(_WORD_RE.findall(_SUPPRESS_RE.sub("", text)))
        for line, text in comments.items()
    }
    return [
        line for line, text in sorted(comments.items())
        if _SUPPRESS_RE.search(text) and not any(
            words.get(line + d, 0) >= _MIN_RATIONALE_WORDS
            for d in (-2, -1, 0, 1)
        )
    ]


def _tree_sources():
    files = list(iter_python_files(["src/repro"]))
    assert files
    for f in files:
        with tokenize.open(f) as fh:
            yield f, fh.read()


class TestGsnp106FaultSites:
    """Fault injection goes through the chaos registry: the fault-site
    scan over synthetic and in-tree source."""

    def test_computed_site_flagged(self):
        findings = fault_site_findings(
            """
            from repro.faults.plan import fault_point
            site = "exec." + "shard.error"
            fault_point(site, key=1)
            """
        )
        assert findings == [(4, "computed fault_point() site")]

    def test_unregistered_literal_site_flagged(self):
        findings = fault_site_findings(
            """
            from repro.faults.plan import fault_point
            fault_point("formats.vcf.record", key=1)
            """
        )
        assert findings == [(3, "unregistered site 'formats.vcf.record'")]

    def test_registered_site_is_fine(self):
        assert fault_site_findings(
            """
            from repro.faults.plan import fault_point
            fault_point("exec.shard.error", key=1)
            fault_point(site="gpusim.device.alloc", key="buf")
            """
        ) == []

    def test_adhoc_fault_flag_flagged(self):
        findings = fault_site_findings(
            """
            FAULT_CRASH = True
            def f():
                if FAULT_CRASH:
                    raise RuntimeError
            """
        )
        assert findings == [(4, "ad-hoc fault flag 'FAULT_CRASH'")]

    def test_environment_switch_flagged(self):
        findings = fault_site_findings(
            """
            import os
            from os import environ
            a = os.environ.get("GSNP_CHAOS")
            b = os.environ["FAULT_MODE"]
            c = os.getenv("INJECT_ALLOC")
            d = environ.get("FAULT_MODE")
            e = environ["CHAOS"]
            """
        )
        assert [line for line, _ in findings] == [4, 5, 6, 7, 8]
        assert all("environment fault switch" in m for _, m in findings)

    def test_lowercase_plumbing_is_fine(self):
        assert fault_site_findings(
            """
            import os
            def run(config, inject_failures=None):
                if config.faults:
                    pass
                if inject_failures:
                    pass
                return os.environ.get("HOME")
            """
        ) == []

    def test_suppression_comment_hides_nothing(self):
        """The scan is a test, not an audit rule: no directive exempts a
        bypass from it."""
        assert fault_site_findings(
            """
            import os
            x = os.getenv("FAULT_LEGACY")  # gsnp-lint: disable=all (legacy)
            """
        ) == [(3, "environment fault switch 'FAULT_LEGACY'")]

    def test_repo_fault_sites_are_registered(self):
        """Tier-1 gate: no in-tree fault bypasses the registry."""
        assert [
            (str(f), line, message)
            for f, source in _tree_sources()
            for line, message in fault_site_findings(source)
        ] == []


#: The module state ``src/repro`` may keep, as ``<module>.<name>``, each
#: with why it is not job or daemon state.
MODULE_STATE_ALLOWED: dict = {}

_EMPTY_FACTORIES = ("dict", "set", "list", "OrderedDict")


def _is_call_to(node, *names):
    return isinstance(node, ast.Call) and getattr(
        node.func, "id", getattr(node.func, "attr", None)) in names


def _is_empty_container(node):
    return (
        isinstance(node, ast.Dict) and not node.keys
        or isinstance(node, ast.List) and not node.elts
        or _is_call_to(node, *_EMPTY_FACTORIES) and not node.args
        or _is_call_to(node, "defaultdict", "local")
    )


def module_state_findings(source):
    """``(line, name, kind)`` for each piece of mutable module state: a
    ``global`` statement, a module-level binding to an empty container
    (``{}``, ``[]``, ``dict()``, ``set()``...) or a ``threading.local``,
    and a map keyed by ``threading.get_ident()`` (directly or through a
    name bound to it)."""
    tree = ast.parse(textwrap.dedent(source))
    out = []
    for node in tree.body:
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        if targets and _is_empty_container(node.value):
            out += [(node.lineno, t.id, "empty module container")
                    for t in targets if isinstance(t, ast.Name)]
    idents = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            out += [(node.lineno, name, "global statement")
                    for name in node.names]
        elif isinstance(node, ast.Assign) and _is_call_to(
                node.value, "get_ident"):
            idents |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Subscript):
            table, key = node.value, node.slice
        elif (_is_call_to(node, "get", "setdefault", "pop")
              and isinstance(node.func, ast.Attribute) and node.args):
            table, key = node.func.value, node.args[0]
        else:
            continue
        if _is_call_to(key, "get_ident") or (
                isinstance(key, ast.Name) and key.id in idents):
            out.append((node.lineno, ast.unparse(table), "thread-keyed map"))
    return sorted(out)


class TestModuleState:
    """Job and daemon state lives in a job's context or its owner, never
    in a module global: the module-state scan over synthetic and in-tree
    source."""

    def test_global_statement_flagged(self):
        assert module_state_findings(
            """
            _COUNT = 0
            def bump():
                global _COUNT
                _COUNT += 1
            """
        ) == [(4, "_COUNT", "global statement")]

    def test_empty_module_containers_flagged(self):
        findings = module_state_findings(
            """
            import threading
            from collections import defaultdict
            _A = {}
            _B: list = []
            _C = dict()
            _D = set()
            _E = defaultdict(int)
            _F = threading.local()
            """
        )
        assert [(line, name) for line, name, _ in findings] == [
            (4, "_A"), (5, "_B"), (6, "_C"), (7, "_D"), (8, "_E"), (9, "_F"),
        ]

    def test_constant_tables_and_local_state_are_fine(self):
        assert module_state_findings(
            """
            SITES = {"a": "why"}
            KINDS = ("error",)
            _EMPTY = ()
            class Runner:
                cache = {}
                def __init__(self):
                    self.jobs = []
            def f():
                seen = set()
                return seen
            """
        ) == []

    def test_thread_keyed_map_flagged(self):
        findings = module_state_findings(
            """
            import threading
            def mine(registry, per_thread):
                ident = threading.get_ident()
                registry.setdefault(ident, {})
                return per_thread[threading.get_ident()]
            """
        )
        assert findings == [
            (5, "registry", "thread-keyed map"),
            (6, "per_thread", "thread-keyed map"),
        ]

    def test_thread_ident_in_a_name_is_fine(self):
        assert module_state_findings(
            """
            import os, threading
            def part(path):
                return f"{path}.{os.getpid()}-{threading.get_ident()}.part"
            """
        ) == []

    def test_repo_module_state_is_allowlisted(self):
        """Tier-1 gate: the only module state in ``src/repro`` is on the
        allowlist, and every allowlisted name still exists."""
        found = {
            (f"{f.stem}.{name}", kind)
            for f, source in _tree_sources()
            for _, name, kind in module_state_findings(source)
        }
        assert {q for q, _ in found} == set(MODULE_STATE_ALLOWED), found


class TestGsnp109Rationale:
    """Suppressions say why: the rationale scan over synthetic and
    in-tree source."""

    def test_bare_suppression_fires(self):
        assert bare_suppressions(
            """
            def k_kernel(ctx, arr):
                v = arr.data  # gsnp-lint: disable=GSNP101
            """
        ) == [3]

    def test_same_line_rationale_is_fine(self):
        assert bare_suppressions(
            """
            def k_kernel(ctx, arr):
                v = arr.data  # gsnp-lint: disable=GSNP101 (host-side debug dump)
            """
        ) == []

    def test_nearby_comment_rationale_is_fine(self):
        assert bare_suppressions(
            """
            def k_kernel(ctx, arr):
                # Reads the staging copy before upload, not device memory.
                v = arr.data  # gsnp-lint: disable=GSNP101
            """
        ) == []

    def test_short_rationale_still_fires(self):
        assert bare_suppressions(
            """
            def k_kernel(ctx, arr):
                # ok
                v = arr.data  # gsnp-lint: disable=GSNP101
            """
        ) == [4]

    def test_string_literal_is_not_a_rationale(self):
        assert bare_suppressions(
            """
            def k_kernel(ctx, arr):
                v = arr.data; s = "# one two three"  # gsnp-lint: disable=GSNP101
            """
        ) == [3]

    def test_repo_suppressions_carry_rationale(self):
        """Tier-1 gate: in-tree suppressions all explain themselves."""
        directives, bare = 0, []
        for f, source in _tree_sources():
            directives += sum(
                bool(_SUPPRESS_RE.search(c))
                for c in _comments(source).values()
            )
            bare += [(str(f), line) for line in bare_suppressions(source)]
        assert directives > 0
        assert bare == []


# One (fire, suppress) source pair per rule id.  The fire source produces
# at least one diagnostic with the rule; the suppress source is the same
# violation with a `# gsnp-lint: disable=` directive on the flagged line.
_RULE_CASES = {
    "GSNP100": (
        "def broken(:\n",
        "def broken(:  # gsnp-lint: disable=GSNP100\n",
    ),
    "GSNP101": (
        """
        def k_kernel(ctx, arr):
            v = arr.data
        """,
        """
        def k_kernel(ctx, arr):
            v = arr.data  # gsnp-lint: disable=GSNP101
        """,
    ),
    "GSNP102": (
        """
        import numpy as np
        def k_kernel(ctx, v):
            return np.log(v)
        """,
        """
        import numpy as np
        def k_kernel(ctx, v):
            return np.log(v)  # gsnp-lint: disable=GSNP102
        """,
    ),
    "GSNP103": (
        """
        def k_kernel(ctx, arr):
            for t in ctx.tid:
                pass
        """,
        """
        def k_kernel(ctx, arr):
            for t in ctx.tid:  # gsnp-lint: disable=GSNP103
                pass
        """,
    ),
    "GSNP104": (
        """
        def k_kernel(ctx, out, n):
            active = ctx.tid < n
            ctx.gstore(out, ctx.tid, 1)
        """,
        """
        def k_kernel(ctx, out, n):
            active = ctx.tid < n
            ctx.gstore(out, ctx.tid, 1)  # gsnp-lint: disable=GSNP104
        """,
    ),
    "GSNP105": (
        """
        def k_kernel(ctx, out):
            v = ctx.gload(out, ctx.tid, active=None)
            out[ctx.tid] = v
        """,
        """
        def k_kernel(ctx, out):
            v = ctx.gload(out, ctx.tid, active=None)
            out[ctx.tid] = v  # gsnp-lint: disable=GSNP105
        """,
    ),
    "GSNP201": (
        """
        def k_kernel(ctx, buf):
            v = ctx.gload(buf, ctx.tid, active=None)
        """,
        """
        def k_kernel(ctx, buf):
            v = ctx.gload(buf, ctx.tid, active=None)  # gsnp-lint: disable=GSNP201
        """,
    ),
    "GSNP202": (
        """
        def k_kernel(ctx, buf):
            v = ctx.gload(buf, ctx.tid + 1, active=None)
            ctx.gstore(buf, ctx.tid, v, active=None)
        """,
        """
        def k_kernel(ctx, buf):
            v = ctx.gload(buf, ctx.tid + 1, active=None)
            ctx.gstore(buf, ctx.tid, v, active=None)  # gsnp-lint: disable=GSNP202
        """,
    ),
    "GSNP203": (
        """
        scratch = device.alloc(64, init=False)

        def k_kernel(ctx, buf):
            v = ctx.gload(buf, ctx.tid, active=None)

        device.launch(k_kernel, 64, scratch)
        """,
        """
        scratch = device.alloc(64, init=False)

        def k_kernel(ctx, buf):
            v = ctx.gload(buf, ctx.tid, active=None)  # gsnp-lint: disable=GSNP203

        device.launch(k_kernel, 64, scratch)
        """,
    ),
    "GSNP204": (
        """
        def k_kernel(ctx, buf, n):
            active = ctx.tid < n
            ctx.gstore(buf, ctx.tid, ctx.tid, active=active)
            v = ctx.gload(buf, ctx.tid + 1, active=None)
        """,
        """
        def k_kernel(ctx, buf, n):
            active = ctx.tid < n
            ctx.gstore(buf, ctx.tid, ctx.tid, active=active)
            v = ctx.gload(buf, ctx.tid + 1, active=None)  # gsnp-lint: disable=GSNP204
        """,
    ),
    "GSNP205": (
        """
        def k_kernel(ctx, buf):
            idx = mystery()
            v = ctx.gload(buf, idx, active=None)
        """,
        """
        def k_kernel(ctx, buf):
            idx = mystery()
            v = ctx.gload(buf, idx, active=None)  # gsnp-lint: disable=GSNP205
        """,
    ),
}


def _rules_fired(src):
    """The rule ids the audit reports on ``src``."""
    return {
        d.rule
        for d in audit_source(textwrap.dedent(src), "test.py").diagnostics
    }


class TestEveryRuleFiresAndSuppresses:
    """Each registered rule has a witnessed fire case and a working
    suppression — the registry can't grow decorative entries."""

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_rule_fires(self, rule):
        fire_src, _ = _RULE_CASES[rule]
        assert rule in _rules_fired(fire_src)

    @pytest.mark.parametrize("rule", sorted(RULES))
    def test_rule_suppresses(self, rule):
        _, suppress_src = _RULE_CASES[rule]
        assert rule not in _rules_fired(suppress_src)

    def test_every_rule_has_a_case(self):
        assert set(_RULE_CASES) == set(RULES)


class TestDiagnostic:
    def test_format_is_file_line_col(self):
        d = Diagnostic(path="x.py", line=3, col=5,
                       rule="GSNP101", message="m")
        assert d.format() == "x.py:3:5: GSNP101 [kernel-data-access] m"

    def test_note_severity_format(self):
        d = Diagnostic(path="x.py", line=3, col=5, rule="GSNP201",
                       message="m", severity="note")
        assert d.format() == (
            "x.py:3:5: note: GSNP201 [access-pattern-verdict] m"
        )

    def test_to_dict_roundtrips_fields(self):
        d = Diagnostic(path="x.py", line=3, col=5,
                       rule="GSNP101", message="m")
        assert d.to_dict() == {
            "path": "x.py", "line": 3, "col": 5, "rule": "GSNP101",
            "name": "kernel-data-access", "severity": "error",
            "message": "m",
        }

    def test_rule_table_complete(self):
        assert set(RULES) == {
            "GSNP100", "GSNP101", "GSNP102", "GSNP103", "GSNP104",
            "GSNP105",
            "GSNP201", "GSNP202", "GSNP203", "GSNP204", "GSNP205",
        }


class TestOutputFormats:
    @pytest.fixture
    def diags(self):
        return [
            Diagnostic(path="a.py", line=2, col=3, rule="GSNP101",
                       message="bad access"),
            Diagnostic(path="a.py", line=5, col=1, rule="GSNP201",
                       message="is coalesced", severity="note"),
        ]

    def test_json_document(self, diags):
        import json

        from repro.analyze import render_diagnostics

        doc = json.loads(
            render_diagnostics(diags, "json", extra={"kernels": 2})
        )
        assert doc["tool"] == "gsnp-audit"
        assert doc["kernels"] == 2
        assert doc["count"] == 1  # notes don't count as problems
        assert [d["rule"] for d in doc["diagnostics"]] == [
            "GSNP101", "GSNP201"
        ]

    def test_github_annotations(self, diags):
        from repro.analyze import render_diagnostics

        lines = render_diagnostics(diags, "github").splitlines()
        assert lines[0].startswith(
            "::error file=a.py,line=2,col=3,title=GSNP101"
        )
        assert lines[1].startswith("::notice file=a.py,line=5")

    def test_github_escapes_newlines(self):
        from repro.analyze import render_diagnostics

        d = Diagnostic(path="a.py", line=1, col=1, rule="GSNP101",
                       message="two\nlines % done")
        out = render_diagnostics([d], "github")
        assert "\n" not in out
        assert "two%0Alines %25 done" in out

    def test_unknown_format_raises(self, diags):
        from repro.analyze import render_diagnostics

        with pytest.raises(ValueError, match="sarif"):
            render_diagnostics(diags, "sarif")

    def test_cli_format_flags(self, tmp_path, capsys):
        import json

        (tmp_path / "a.py").write_text(
            "def a_kernel(ctx, arr):\n    return arr.data\n"
        )
        assert main_audit([str(tmp_path), "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 1
        assert main_audit([str(tmp_path), "--format", "github"]) == 1
        assert capsys.readouterr().out.startswith("::error ")

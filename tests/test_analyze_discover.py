"""Shared kernel discovery: definitions, launch sites, and aliases.

Regression tests for the discovery contract every audit rule builds on
— naming convention, positional and keyword launch arguments, and local
alias chains — so the rules can never drift apart on what counts as a
kernel.
"""

import ast
import textwrap

from repro.analyze import discover_kernels, iter_python_files


def _discover(src):
    return discover_kernels(ast.parse(textwrap.dedent(src)))


class TestNamingConvention:
    def test_kernel_suffix(self):
        found = _discover(
            """
            def scatter_kernel(ctx, out):
                pass

            def helper(x):
                pass
            """
        )
        assert [k.name for k in found.kernels] == ["scatter_kernel"]

    def test_nested_defs_are_scanned(self):
        found = _discover(
            """
            def make():
                def inner_kernel(ctx, out):
                    pass
                return inner_kernel
            """
        )
        assert "inner_kernel" in [k.name for k in found.kernels]


class TestLaunchSites:
    def test_positional_launch(self):
        found = _discover(
            """
            def body(ctx, out):
                pass

            def run(device, out):
                device.launch(body, 32, out)
            """
        )
        assert [k.name for k in found.kernels] == ["body"]
        assert "body" in found.launched

    def test_keyword_launch(self):
        found = _discover(
            """
            def body(ctx, out):
                pass

            def run(device, out):
                device.launch(kernel=body, n_threads=32, args=(out,))
            """
        )
        assert [k.name for k in found.kernels] == ["body"]

    def test_enqueue_fn_keyword(self):
        """``kernel=`` is the one keyword spelling: ``fn=`` names no
        kernel, not even on ``launch``."""
        found = _discover(
            """
            def body(ctx, out):
                pass

            def run(device, stream, out):
                device.launch(fn=body, n_threads=32, args=(out,))
                stream.enqueue(fn=body, n_threads=32, args=(out,))
            """
        )
        assert [k.name for k in found.kernels] == []

    def test_enqueue_positional(self):
        """``launch`` is the one launch method: nothing routes kernels
        through an ``enqueue`` queue."""
        found = _discover(
            """
            def body(ctx, out):
                pass

            def run(stream, out):
                stream.enqueue(body, 32, out)
            """
        )
        assert [k.name for k in found.kernels] == []

    def test_unrelated_calls_ignored(self):
        found = _discover(
            """
            def body(ctx, out):
                pass

            def run(pool, out):
                pool.submit(body, out)
            """
        )
        assert found.kernels == []


class TestAliases:
    def test_local_alias(self):
        found = _discover(
            """
            def body(ctx, out):
                pass

            chosen = body

            def run(device, out):
                device.launch(chosen, 32, out)
            """
        )
        assert [k.name for k in found.kernels] == ["body"]
        assert found.aliases["chosen"] == "body"

    def test_transitive_alias_chain(self):
        found = _discover(
            """
            def body(ctx, out):
                pass

            a = body
            b = a

            def run(device, out):
                device.launch(b, 32, out)
            """
        )
        assert [k.name for k in found.kernels] == ["body"]

    def test_alias_cycle_terminates(self):
        found = _discover(
            """
            a = b
            b = a

            def run(device, out):
                device.launch(a, 32, out)
            """
        )
        # No matching def: nothing discovered, and resolution terminates.
        assert found.kernels == []

    def test_keyword_launch_through_alias(self):
        found = _discover(
            """
            def body(ctx, out):
                pass

            chosen = body

            def run(device, out):
                device.launch(n_threads=32, kernel=chosen)
            """
        )
        assert [k.name for k in found.kernels] == ["body"]


class TestIterPythonFiles:
    def test_mixed_files_and_dirs(self, tmp_path):
        (tmp_path / "a.py").write_text("x = 1\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "b.py").write_text("y = 2\n")
        (sub / "notes.txt").write_text("not python\n")
        lone = tmp_path / "c.py"
        lone.write_text("z = 3\n")

        files = list(iter_python_files([tmp_path / "sub", lone]))
        assert [f.name for f in files] == ["b.py", "c.py"]


class TestLintIntegration:
    def test_keyword_launched_kernel_is_linted(self):
        from repro.analyze import audit_source

        diags = audit_source(textwrap.dedent(
            """
            def body(ctx, arr):
                x = arr.data

            def run(device, arr):
                device.launch(kernel=body, n_threads=32, args=(arr,))
            """
        ), "t.py").diagnostics
        assert [d.rule for d in diags] == ["GSNP101"]

    def test_aliased_kernel_is_linted(self):
        from repro.analyze import audit_source

        diags = audit_source(textwrap.dedent(
            """
            def body(ctx, arr):
                x = arr.data

            chosen = body

            def run(device, arr):
                device.launch(chosen, 32, arr)
            """
        ), "t.py").diagnostics
        assert [d.rule for d in diags] == ["GSNP101"]

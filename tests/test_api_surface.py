"""Public API surface: exports, their reach, docstrings, version."""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]

PACKAGES = [
    "repro",
    "repro.align",
    "repro.api",
    "repro.bench",
    "repro.compress",
    "repro.core",
    "repro.exec",
    "repro.formats",
    "repro.gpusim",
    "repro.gpusim.primitives",
    "repro.seqsim",
    "repro.serve",
    "repro.soapsnp",
    "repro.sortnet",
    "repro.stats",
]


#: ``__all__`` names that nothing but tests reaches, each with the test
#: module relying on it: the headline API (``detect_snps``, ``read_cns``),
#: test oracles and helpers behind paper claims.
ORACLES = {
    "repro.compress.decode_alignments": "test_compress_columnar.py",
    "repro.compress.mean_run_length": "test_paper_claims.py",
    "repro.core.detect_snps": "test_core_detector.py",
    "repro.detect_snps": "test_core_detector.py",
    "repro.formats.read_cns": "test_formats.py",
    "repro.read_cns": "test_formats.py",
    "repro.seqsim.TABLE2_FULL": "test_paper_figures.py",
    "repro.serve.wait_for_server": "test_serve.py",
    "repro.soapsnp.build_base_occ": "test_soapsnp_observe.py",
    "repro.soapsnp.build_base_occ_site": "test_soapsnp_likelihood.py",
    "repro.soapsnp.likelihood_site_reference": "test_soapsnp_likelihood.py",
    "repro.sortnet.compare_exchange_count": "test_sortnet_bitonic.py",
    "repro.stats.rank_sum_pvalue": "test_stats.py",
}


def _statement_references(path):
    """``(defined name, referenced names)`` per top-level statement of a
    file: names loaded, read as attributes or imported."""
    out = []
    for stmt in ast.parse(path.read_text()).body:
        refs = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and not isinstance(
                    node.ctx, ast.Store):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                refs.update(a.name for a in node.names)
        owner = getattr(stmt, "name", None)
        out.append((owner, refs))
    return out


class TestReach:
    def test_every_export_is_reached_or_an_oracle(self):
        """Every ``__all__`` name is used outside its own definition by a
        non-``__init__`` module of ``src/``, an example or a benchmark,
        or is an :data:`ORACLES` entry."""
        sources = [
            p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"
        ]
        sources += [*(ROOT / "examples").glob("*.py"),
                    *(ROOT / "benchmarks").rglob("*.py")]
        statements = [s for p in sources for s in _statement_references(p)]
        unreached = {
            f"{pkg_name}.{name}"
            for pkg_name in PACKAGES
            for name in importlib.import_module(pkg_name).__all__
            if not any(name in refs for owner, refs in statements
                       if owner != name)
        }
        assert unreached == set(ORACLES)

    def test_oracles_name_the_test_relying_on_them(self):
        for qualified, module in ORACLES.items():
            name = qualified.rsplit(".", 1)[1]
            text = (ROOT / "tests" / module).read_text()
            assert re.search(rf"\b{name}\b", text), qualified


class TestExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for pkg_name in PACKAGES:
            pkg = importlib.import_module(pkg_name)
            for name in getattr(pkg, "__all__", []):
                assert hasattr(pkg, name), f"{pkg_name}.{name}"

    def test_all_sorted_for_readability(self):
        for pkg_name in PACKAGES:
            pkg = importlib.import_module(pkg_name)
            names = [n for n in getattr(pkg, "__all__", [])]
            assert names == sorted(names), pkg_name

    def test_headline_api_importable(self):
        from repro import (  # noqa: F401
            CH1_SPEC,
            CH21_SPEC,
            Device,
            GsnpDetector,
            GsnpPipeline,
            SoapsnpPipeline,
            detect_snps,
            generate_dataset,
            verify_engines,
        )


class TestDocumentation:
    def _public_members(self, module):
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if getattr(obj, "__module__", "").startswith("repro"):
                    yield name, obj

    def test_every_module_documented(self):
        for _, mod_name, _ in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            mod = importlib.import_module(mod_name)
            assert mod.__doc__, f"{mod_name} lacks a module docstring"

    def test_every_public_item_documented(self):
        undocumented = []
        for _, mod_name, _ in pkgutil.walk_packages(
            repro.__path__, prefix="repro."
        ):
            mod = importlib.import_module(mod_name)
            for name, obj in self._public_members(mod):
                if obj.__module__ != mod_name:
                    continue  # re-export; documented at its home
                if not inspect.getdoc(obj):
                    undocumented.append(f"{mod_name}.{name}")
        assert not undocumented, undocumented

    def test_public_classes_document_methods(self):
        """Public methods of headline classes carry docstrings."""
        from repro.core.detector import GsnpDetector
        from repro.core.pipeline import GsnpPipeline
        from repro.gpusim.device import Device
        from repro.gpusim.kernel import KernelContext

        for cls in (GsnpDetector, GsnpPipeline, Device, KernelContext):
            for name, member in vars(cls).items():
                if name.startswith("_") or not callable(member):
                    continue
                assert inspect.getdoc(member), f"{cls.__name__}.{name}"

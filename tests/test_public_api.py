"""Public-API hygiene: every exported name resolves and is documented."""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PACKAGES = [
    "repro",
    "repro.core",
    "repro.graphs",
    "repro.trace",
    "repro.sim",
    "repro.sched",
    "repro.profiling",
    "repro.optim",
    "repro.inference",
    "repro.analysis",
    "repro.serve",
    "repro.faults",
]


@pytest.mark.parametrize("package_name", PACKAGES)
class TestExports:
    def test_all_names_resolve(self, package_name):
        package = importlib.import_module(package_name)
        for name in package.__all__:
            assert hasattr(package, name), f"{package_name}.{name} missing"

    def test_all_sorted_uniquely(self, package_name):
        package = importlib.import_module(package_name)
        assert len(set(package.__all__)) == len(package.__all__)

    def test_package_docstring(self, package_name):
        package = importlib.import_module(package_name)
        assert package.__doc__, f"{package_name} lacks a docstring"


class TestPublicCallablesDocumented:
    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_exports_have_docstrings(self, package_name):
        package = importlib.import_module(package_name)
        undocumented = []
        for name in package.__all__:
            obj = getattr(package, name)
            if not callable(obj) or not isinstance(obj, type) and not (
                hasattr(obj, "__module__")
            ):
                continue
            # typing aliases (e.g. OptimizationPass) carry no docstring.
            if type(obj).__module__ == "typing":
                continue
            if callable(obj) and not getattr(obj, "__doc__", None):
                undocumented.append(name)
        assert not undocumented, (
            f"{package_name} exports lack docstrings: {undocumented}"
        )


class TestVersion:
    def test_version_string(self):
        import repro

        assert repro.__version__.count(".") == 2

    def test_pyproject_declares_the_package_version(self):
        # A regex rather than tomllib, which Python 3.9 lacks.
        def declared(path, pattern):
            text = (ROOT / path).read_text(encoding="utf-8")
            return re.search(pattern, text, re.MULTILINE).group(1)

        assert declared(
            "pyproject.toml", r'^version = "([^"]+)"$'
        ) == declared("src/repro/__init__.py", r'^__version__ = "([^"]+)"$')

"""Public-API hygiene: every exported name resolves, is documented and
has a caller outside the tests."""

import ast
import functools
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


#: Where a call of a ``src/`` name counts.  ``tests/`` does not: a name
#: only tests call is either dead or a test helper.
CALLER_DIRS = ("src", "bench", "tools", "examples", "benchmarks")

#: Public names nothing in the repo calls by name, and why they stay.
ALLOWLIST = {
    # http.server dispatches a request to do_<METHOD> by name.
    "repro.serve.server._Handler.do_GET": "http.server dispatch",
    "repro.serve.server._Handler.do_POST": "http.server dispatch",
    "repro.serve.server._Handler.log_message": "http.server logging hook",
    "repro.sched.predictor._PresetSeedSequence.generate_state": (
        "numpy's ISeedSequence protocol"
    ),
    "repro.lint.engine.lint_source": "the repro.lint library API",
    "repro.lint.engine.assert_clean": "the repro.lint library API",
    # Moving it into tests would make tests write a private global.
    "repro.obs.core.reset_obs": "test hook over process-global state",
}


def _public_definitions(path, tree):
    """``(qualified name, node)`` of module-level public functions and
    classes, and of the public methods and properties of every class."""
    module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, kinds[:2]) and not node.name.startswith("_"):
                yield f"{module}.{cls.name}.{node.name}", node


def _references():
    """Every ``Name`` id and ``Attribute`` attr, with where it occurs.

    Import aliases and ``__all__`` strings are neither, so a re-export
    alone is not a caller.
    """
    where = {}
    for directory in CALLER_DIRS:
        if not (ROOT / directory).is_dir():
            continue
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                where.setdefault(name, []).append((path, node.lineno))
    return where


@functools.lru_cache(maxsize=None)
def _uncalled_public_names():
    """``{qualified name: "file:line"}`` of every public name in
    ``src/repro`` that nothing references outside its own body."""
    references = _references()
    rules = ROOT / "src" / "repro" / "lint" / "rules"
    uncalled = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        if rules in path.parents:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualified, node in _public_definitions(path, tree):
            if not any(
                where != path or not node.lineno <= line <= node.end_lineno
                for where, line in references.get(node.name, ())
            ):
                uncalled[qualified] = f"{path.relative_to(ROOT)}:{node.lineno}"
    return uncalled


class TestEveryPublicNameHasACaller:
    """A public function, class, method or property in ``src/repro`` is
    referenced somewhere outside its own body in ``src/``, ``bench/``,
    ``tools/``, ``examples/`` or ``benchmarks/``; otherwise it goes, or
    moves into the tests that use it.

    The scan matches by name alone, so a name shared with any other
    attribute or variable counts as called: it can only undercount.
    ``repro.lint.rules`` is skipped, because its rule classes are
    registered by decorator and never named.
    """

    def test_no_uncalled_public_names(self):
        uncalled = [
            f"{where} {name}"
            for name, where in sorted(_uncalled_public_names().items())
            if name not in ALLOWLIST
        ]
        assert not uncalled, "public names with no caller:\n" + "\n".join(
            uncalled
        )

    def test_allowlist_holds_only_uncalled_names(self):
        # A stale entry would hide a name that gained a caller or moved.
        assert sorted(set(ALLOWLIST) - set(_uncalled_public_names())) == []

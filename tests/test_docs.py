"""Documentation health: intra-repo links resolve, public surface is
docstringed and doctested.

CI runs the same checks standalone (``tools/check_links.py`` plus ``pytest
--doctest-modules`` in the docs job); these tests keep them enforced in the
tier-1 suite so a broken link or an undocumented public symbol fails fast
locally too.
"""

from __future__ import annotations

import doctest
import importlib
import inspect
import pathlib
import pkgutil
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "tools") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_links  # noqa: E402
import repro  # noqa: E402

#: The packages (or plain modules) whose public surface must be documented
#: and carry runnable examples.
DOCUMENTED_PACKAGES = (
    "repro.api",
    "repro.queries",
    "repro.serve",
    "repro.continual",
    "repro.ingest",
    "repro.sketch",
    "repro.stream.scenarios",
)

#: Every module of the package, found by walking it rather than listed.
ALL_MODULES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, prefix="repro.")
)


def _iter_modules(package_name: str):
    package = importlib.import_module(package_name)
    yield package
    # Plain modules (e.g. repro.stream.scenarios) have no __path__ to walk.
    for info in pkgutil.iter_modules(getattr(package, "__path__", ()),
                                     prefix=package_name + "."):
        yield importlib.import_module(info.name)


class TestIntraRepoLinks:
    def test_readme_and_docs_links_resolve(self):
        errors = check_links.check_paths(
            [REPO_ROOT / "README.md", REPO_ROOT / "docs", REPO_ROOT / "ROADMAP.md"]
        )
        assert errors == []

    def test_checker_catches_broken_target(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("see [missing](./nope.md) and [ok](./page.md)")
        errors = check_links.check_file(page)
        assert len(errors) == 1 and "nope.md" in errors[0]

    def test_checker_catches_broken_anchor(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("# Real Heading\n\n[bad](#missing-heading) [good](#real-heading)")
        errors = check_links.check_file(page)
        assert len(errors) == 1 and "missing-heading" in errors[0]

    def test_checker_skips_external_and_code_blocks(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text(
            "[site](https://example.com/x)\n```\n[fake](./inside-code.md)\n```\n"
        )
        assert check_links.check_file(page) == []

    def test_architecture_doc_exists_and_names_the_boundary(self):
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        assert "PRIVACY BOUNDARY" in text
        assert "repro.serve" in text


class TestEveryExportResolves:
    """Every module imports and every name in its ``__all__`` exists, so a
    deleted name cannot linger in an export list."""

    @pytest.mark.parametrize("module_name", ALL_MODULES)
    def test_module_imports_and_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert missing == []


class TestPublicSurfaceIsDocumented:
    @pytest.mark.parametrize("package_name", DOCUMENTED_PACKAGES)
    def test_every_public_symbol_has_a_docstring(self, package_name):
        undocumented = []
        for module in _iter_modules(package_name):
            if not (module.__doc__ or "").strip():
                undocumented.append(module.__name__)
            for name in getattr(module, "__all__", []):
                member = getattr(module, name)
                if inspect.isclass(member) or inspect.isfunction(member):
                    if not (inspect.getdoc(member) or "").strip():
                        undocumented.append(f"{module.__name__}.{name}")
        assert undocumented == []

    @pytest.mark.parametrize("package_name", DOCUMENTED_PACKAGES)
    def test_every_module_carries_runnable_examples(self, package_name):
        """Each non-package module must define at least one doctest (the CI
        docs job executes them; this pins that they exist at all)."""
        finder = doctest.DocTestFinder(exclude_empty=True)
        missing = []
        for module in _iter_modules(package_name):
            # Package __init__ modules only re-export; plain modules must
            # still carry their own examples.
            if module.__name__ == package_name and hasattr(module, "__path__"):
                continue
            examples = [test for test in finder.find(module) if test.examples]
            if not examples:
                missing.append(module.__name__)
        assert missing == []

    def test_doctests_in_documented_packages_pass(self):
        """A cheap in-suite doctest sweep of the lightweight modules (the CI
        docs job runs the full --doctest-modules pass)."""
        for module_name in (
            "repro.queries.support",
            "repro.serve.cache",
            "repro.serve.batch",
            "repro.experiments.runner",
            "repro.stream.generators",
            "repro.stream.scenarios",
        ):
            module = importlib.import_module(module_name)
            result = doctest.testmod(module, verbose=False)
            assert result.failed == 0, module_name


class TestMatrixRunnerDocs:
    """The experiment-matrix runner is public surface: documented + doctested
    (it lives in ``repro.experiments``, which is otherwise internal plumbing,
    so it gets targeted coverage instead of package-wide enforcement)."""

    MODULES = ("repro.experiments.runner", "repro.stream.generators")

    @pytest.mark.parametrize("module_name", MODULES)
    def test_public_surface_has_docstrings(self, module_name):
        module = importlib.import_module(module_name)
        assert (module.__doc__ or "").strip()
        undocumented = []
        for name in module.__all__:
            member = getattr(module, name)
            if inspect.isclass(member) or inspect.isfunction(member):
                if not (inspect.getdoc(member) or "").strip():
                    undocumented.append(f"{module_name}.{name}")
        assert undocumented == []

    @pytest.mark.parametrize("module_name", MODULES)
    def test_module_carries_runnable_examples(self, module_name):
        module = importlib.import_module(module_name)
        finder = doctest.DocTestFinder(exclude_empty=True)
        examples = [test for test in finder.find(module) if test.examples]
        assert examples

    def test_architecture_doc_covers_the_matrix_runner(self):
        text = (REPO_ROOT / "docs" / "ARCHITECTURE.md").read_text()
        assert "Experiment matrix" in text
        assert "results.jsonl" in text

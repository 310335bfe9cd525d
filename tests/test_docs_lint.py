"""The docs lint's drift checks: the README layout table and the module census.

Each check is run on the repository itself (it must pass) and on a small
synthetic tree whose docs have drifted (it must name the drift).
"""

import importlib.util
import pathlib

import pytest

DOCS_LINT = pathlib.Path(__file__).parent.parent / "tools" / "docs_lint.py"


@pytest.fixture(scope="module")
def docs_lint():
    spec = importlib.util.spec_from_file_location("docs_lint", DOCS_LINT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tree(tmp_path, docs_lint, monkeypatch):
    """A tree with two packages, ``a/`` (one module) and ``b/`` (two)."""
    for name in ("a/__init__.py", "a/one.py", "b/__init__.py", "b/two.py", "b/three.py"):
        path = tmp_path / "src" / "repro" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("")
    (tmp_path / "docs").mkdir()
    monkeypatch.setattr(docs_lint, "REPO_ROOT", tmp_path)
    return tmp_path


def write_census(root, rows, heading="## Module census"):
    table = "\n".join(f"| `{row}` | callers |" for row in rows)
    (root / "docs" / "architecture.md").write_text(
        f"# Architecture\n\n{heading}\n\n| Module | Callers |\n| --- | --- |\n"
        f"{table}\n\n## Next section\n\n| `a/gone.py` | outside the census |\n"
    )


class TestModuleCensus:
    def test_repository_census_matches_the_tree(self, docs_lint):
        assert docs_lint.check_module_census() == []

    def test_complete_census_passes(self, docs_lint, tree):
        write_census(tree, ["a/one.py", "b/two.py", "b/three.py"])
        assert docs_lint.check_module_census() == []

    def test_missing_module_is_named(self, docs_lint, tree):
        write_census(tree, ["a/one.py", "b/two.py"])
        assert docs_lint.check_module_census() == [
            "docs/architecture.md: census lacks b/three.py"
        ]

    def test_module_that_does_not_exist_is_named(self, docs_lint, tree):
        write_census(tree, ["a/one.py", "a/http.py", "b/two.py", "b/three.py"])
        assert docs_lint.check_module_census() == [
            "docs/architecture.md: census lists a/http.py, which does not exist"
        ]

    def test_module_listed_twice_is_named(self, docs_lint, tree):
        write_census(tree, ["a/one.py", "b/two.py", "b/three.py", "a/one.py"])
        assert docs_lint.check_module_census() == [
            "docs/architecture.md: census lists a/one.py twice"
        ]

    def test_missing_section_is_named(self, docs_lint, tree):
        write_census(tree, ["a/one.py", "b/two.py", "b/three.py"], heading="## Modules")
        assert docs_lint.check_module_census() == [
            "docs/architecture.md: no '## Module census' section"
        ]


class TestReadmePackages:
    def test_repository_readme_names_every_package(self, docs_lint):
        assert docs_lint.check_readme_packages(docs_lint.REPO_ROOT / "README.md") == []

    def test_missing_package_is_named(self, docs_lint, tree):
        readme = tree / "README.md"
        readme.write_text(
            "| Path | What |\n| --- | --- |\n| `src/repro/a/` | package a |\n"
            "\nProse naming `src/repro/b/` outside the table does not count.\n"
        )
        assert docs_lint.check_readme_packages(readme) == [
            "README.md: layout table does not name src/repro/b/"
        ]

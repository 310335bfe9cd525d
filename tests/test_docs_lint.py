"""The docs lint's drift checks: the README layout table and paper-claims
table, the module and test censuses, module references in the docs and in
``src/`` roles, and the documents ``src/`` names.

Each check is run on the repository itself (it must pass) and on a small
synthetic tree whose docs have drifted (it must name the drift).
"""

import importlib.util
import pathlib
import sys

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


def write_test_census(root, rows):
    table = "\n".join(f"| `{row}` | 1 | 0.1 | 0 | 0 |" for row in rows)
    (root / "docs" / "architecture.md").write_text(
        "# Architecture\n\n## Test census\n\n| Test file | lines | tier-1 s | only | only |\n"
        f"| --- | ---: | ---: | ---: | ---: |\n{table}\n"
    )


class TestTestCensus:
    @pytest.fixture
    def tests_tree(self, tree):
        for name in ("tests/test_a.py", "tests/helper.py", "benchmarks/e2e/test_smoke.py"):
            (tree / name).parent.mkdir(parents=True, exist_ok=True)
            (tree / name).write_text("")
        return tree

    def test_repository_census_matches_the_tree(self, docs_lint):
        assert docs_lint.check_test_census() == []

    def test_complete_census_passes(self, docs_lint, tests_tree):
        write_test_census(tests_tree, ["tests/test_a.py", "benchmarks/e2e/test_smoke.py"])
        assert docs_lint.check_test_census() == []

    def test_missing_row_is_named(self, docs_lint, tests_tree):
        write_test_census(tests_tree, ["tests/test_a.py"])
        assert docs_lint.check_test_census() == [
            "docs/architecture.md: test census lacks benchmarks/e2e/test_smoke.py"
        ]

    def test_row_for_a_deleted_file_is_named(self, docs_lint, tests_tree):
        write_test_census(
            tests_tree, ["tests/test_a.py", "tests/test_gone.py", "benchmarks/e2e/test_smoke.py"]
        )
        assert docs_lint.check_test_census() == [
            "docs/architecture.md: test census lists tests/test_gone.py, which does not exist"
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


def write_claims(root, readme_ids):
    (root / "tests").mkdir()
    (root / "tests" / "test_paper_claims.py").write_text(
        "CLAIMS = [\n"
        '    Claim("COST-A", "abstract", "cheap", measure, bound),\n'
        '    Claim("UC-B", "use case", "works", lambda: 1, lambda v: v == 1),\n'
        "]\n"
    )
    rows = "\n".join(f"| `{claim}` | where | what |" for claim in readme_ids)
    readme = root / "README.md"
    readme.write_text(
        f"# Repo\n\n## Paper claims\n\n| Id | Paper | Checked |\n| --- | --- | --- |\n"
        f"{rows}\n\n## Benchmarks\n\n| `UC-C` | outside the claims table |\n"
    )
    return readme


class TestPaperClaims:
    def test_repository_readme_names_every_claim(self, docs_lint):
        assert docs_lint.check_paper_claims(docs_lint.REPO_ROOT / "README.md") == []

    def test_complete_table_passes(self, docs_lint, tree):
        assert docs_lint.check_paper_claims(write_claims(tree, ["COST-A", "UC-B"])) == []

    def test_missing_id_is_named(self, docs_lint, tree):
        assert docs_lint.check_paper_claims(write_claims(tree, ["COST-A"])) == [
            "README.md: claims table lacks UC-B"
        ]

    def test_unknown_id_is_named(self, docs_lint, tree):
        readme = write_claims(tree, ["COST-A", "UC-B", "UC-GONE"])
        assert docs_lint.check_paper_claims(readme) == [
            "README.md: claims table names UC-GONE, which "
            "tests/test_paper_claims.py does not check"
        ]

    def test_duplicate_id_is_named(self, docs_lint, tree):
        readme = write_claims(tree, ["COST-A", "UC-B", "COST-A"])
        assert docs_lint.check_paper_claims(readme) == [
            "README.md: claims table names COST-A twice"
        ]

    def test_renamed_table_is_named(self, docs_lint, tree):
        readme = write_claims(tree, [])
        claims = tree / "tests" / "test_paper_claims.py"
        claims.write_text(claims.read_text().replace("CLAIMS =", "ROWS ="))
        assert docs_lint.check_paper_claims(readme) == [
            "tests/test_paper_claims.py: no CLAIMS table of Claim(...) rows"
        ]


class TestModulePaths:
    def test_repository_module_paths_exist(self, docs_lint):
        assert docs_lint.check_module_paths() == []

    def test_missing_module_path_is_named(self, docs_lint, tree):
        (tree / "README.md").write_text("Modules `src/repro/a/one.py` and `repro/a/gone.py`.\n")
        (tree / "docs" / "guide.md").write_text("See `repro/b/two.py` and `src/repro/b/four.py`.\n")
        (tree / "benchmarks").mkdir()
        (tree / "benchmarks" / "EXPERIMENTS.md").write_text("Then `repro/a/old.py` was deleted.\n")
        assert docs_lint.check_module_paths() == [
            "README.md: names missing module repro/a/gone.py",
            "docs/guide.md: names missing module repro/b/four.py",
        ]


class TestModuleRoles:
    def test_repository_roles_resolve(self, docs_lint):
        assert docs_lint.check_module_roles() == []

    def test_unresolved_role_is_named(self, docs_lint, tree, monkeypatch):
        monkeypatch.setattr(sys, "path", list(sys.path))
        (tree / "src" / "repro" / "a" / "one.py").write_text(
            '"""Roles resolved against the importable ``repro`` package.\n\n'
            ":mod:`repro.legacy.fdb`, :class:`~repro.legacy.switch\n"
            "    .LegacySwitch`, :attr:`repro.legacy.switch.LegacySwitch.fdb`,\n"
            ":mod:`repro.legacy.gone`, :mod:`repro.legacy.switch.LegacySwitch`,\n"
            ':meth:`repro.netsim.link.Link.set_dwn`.\n"""\n'
            "#: Also in comments: :class:`repro.legacy.gone\n"
            "#: .Meter`.\n"
        )
        assert docs_lint.check_module_roles() == [
            "src/repro/a/one.py: :mod:`repro.legacy.gone` does not resolve",
            "src/repro/a/one.py: :mod:`repro.legacy.switch.LegacySwitch` does not resolve",
            "src/repro/a/one.py: :meth:`repro.netsim.link.Link.set_dwn` does not resolve",
            "src/repro/a/one.py: :class:`repro.legacy.gone.Meter` does not resolve",
        ]


class TestMarkdownNames:
    def test_repository_names_only_existing_documents(self, docs_lint):
        assert docs_lint.check_markdown_names() == []

    def test_missing_document_is_named(self, docs_lint, tree):
        (tree / "docs" / "guide.md").write_text("# Guide\n")
        (tree / "src" / "repro" / "a" / "one.py").write_text(
            '"""Substitutions are in DESIGN.md; the layers in docs/guide.md."""\n'
            "# (see docs/gone.md)\n"
        )
        assert docs_lint.check_markdown_names() == [
            "src/repro/a/one.py: names missing document DESIGN.md",
            "src/repro/a/one.py: names missing document docs/gone.md",
        ]

"""Docs lint: every local markdown link must resolve.

Scans the repository's markdown files (root, docs/, benchmarks/) for
inline links and images, and fails if a link that points into the
repository targets a file or directory that does not exist.  External
links (http/https/mailto) and pure in-page anchors are skipped;
``path#anchor`` links are checked for the path part only.

Also checks the README's repo-layout table: every backticked path in a
table row (any token containing a ``/``) must exist in the repository,
so the table cannot drift as modules are added or renamed; and every
package ``src/repro/<package>/`` must have a row.

And the module census in ``docs/architecture.md``: its table must list
every module under ``src/repro/`` (package ``__init__.py`` files only
re-export and are left out) and no module that does not exist.  Its
test census (``tools/test_census.py``) must list every test file that
tier-1 collects, once, and no file that does not exist.

And a README claim that used to rot: the bench table must name every
``benchmarks/bench_*.py``.

And the README's "Paper claims" table: it must name every claim id of
``CLAIMS`` in ``tests/test_paper_claims.py`` exactly once, and no other
id, so the published claim list cannot drift from what tier-1 checks.
The ids are read from the test file's syntax tree; ``tests/`` is not
imported.

And the other direction: every ``bench_*.py`` named in a CI workflow
or the README must exist under ``benchmarks/``, so deleting a bench
cannot leave a step pointing at nothing.

And names: a backticked ``Class.attr`` (or ``Class.method()``) in
``docs/architecture.md`` or the README whose ``Class`` is a class of the
``repro`` package must name an attribute that class has — on the class,
as a dataclass field, or assigned as ``self.attr`` in its source or a
``repro`` base's — so deleting a method cannot leave the prose naming it.

And module references: every backticked ``repro/…/x.py`` path (with or
without a leading ``src/``) in the README and ``docs/*.md`` must be a
module under ``src/``, and every ``:mod:``/``:class:``/``:func:``/
``:meth:``/``:attr:`` role naming ``repro.…`` in ``src/repro/`` must
resolve: its module imports and each name after it exists.  So deleting
a module cannot leave prose or a docstring pointing at it.
(``benchmarks/EXPERIMENTS.md`` is a lab notebook of past runs and
names deleted modules on purpose; it is left out.)

And markdown names: every ``*.md`` a ``src/`` file names (in its
docstrings or comments) must exist as a path from the repository root,
so a docstring cannot send its reader to a document that is not there.

Run from the repository root (CI does)::

    python tools/docs_lint.py
"""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Where markdown worth checking lives (avoids vendored/venv noise).
MARKDOWN_GLOBS = ("*.md", "docs/*.md", "benchmarks/*.md", "examples/*.md")

#: Generated reference dumps (paper/snippet retrieval) — not repo docs.
EXCLUDE_NAMES = {"PAPERS.md", "SNIPPETS.md"}

#: Inline markdown links/images: [text](target) — target without spaces.
LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")


def iter_markdown_files():
    seen = set()
    for pattern in MARKDOWN_GLOBS:
        for path in sorted(REPO_ROOT.glob(pattern)):
            if path.name in EXCLUDE_NAMES:
                continue
            if path not in seen:
                seen.add(path)
                yield path


def check_file(path: pathlib.Path) -> "list[str]":
    problems = []
    text = path.read_text(encoding="utf-8")
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(SKIP_PREFIXES):
            continue
        target_path = target.split("#", 1)[0]
        if not target_path:
            continue
        resolved = (path.parent / target_path).resolve()
        try:
            resolved.relative_to(REPO_ROOT)
        except ValueError:
            problems.append(f"{path.relative_to(REPO_ROOT)}: link escapes repo: {target}")
            continue
        if not resolved.exists():
            problems.append(
                f"{path.relative_to(REPO_ROOT)}: broken link: {target}"
            )
    return problems


#: Backticked tokens inside markdown table rows.
TABLE_CODE_RE = re.compile(r"`([^`]+)`")


def check_repo_layout(readme: pathlib.Path) -> "list[str]":
    """Every backticked path in a README table row must exist.

    Only tokens containing ``/`` are treated as paths (plain file names
    like ``bench_cost.py`` and glob-ish shorthands are left alone).
    """
    problems = []
    for line in readme.read_text(encoding="utf-8").splitlines():
        if not line.lstrip().startswith("|"):
            continue
        for token in TABLE_CODE_RE.findall(line):
            if "/" not in token or any(ch in token for ch in "{*<| "):
                continue
            if not (REPO_ROOT / token.rstrip("/")).exists():
                problems.append(
                    f"{readme.relative_to(REPO_ROOT)}: "
                    f"layout table names missing path: {token}"
                )
    return problems


def check_readme_packages(readme: pathlib.Path) -> "list[str]":
    """Every ``src/repro/<package>/`` must be named in a README table row."""
    named = set()
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.lstrip().startswith("|"):
            named.update(TABLE_CODE_RE.findall(line))
    return [
        f"{readme.relative_to(REPO_ROOT)}: layout table does not name {package}"
        for package in sorted(
            f"src/repro/{init.parent.name}/"
            for init in (REPO_ROOT / "src" / "repro").glob("*/__init__.py")
        )
        if package not in named
    ]


#: The census section of ``docs/architecture.md`` (up to the next
#: heading); its table rows start with a backticked module path
#: relative to ``src/repro/``.
CENSUS_DOC = "docs/architecture.md"
CENSUS_HEADING = "## Module census"
CENSUS_ROW_RE = re.compile(r"^\|\s*`([\w/]+\.py)`")


def check_census(heading: str, label: str, expected: "set[str]") -> "list[str]":
    """The table under *heading* in the census doc lists every name of
    *expected* once, and nothing else."""
    path = REPO_ROOT / CENSUS_DOC
    text = path.read_text(encoding="utf-8")
    start = text.find(f"\n{heading}\n")
    if start < 0:
        return [f"{CENSUS_DOC}: no '{heading}' section"]
    section = text[start + 1:]
    end = section.find("\n#")
    listed: "list[str]" = []
    for line in section[: end if end >= 0 else None].splitlines():
        match = CENSUS_ROW_RE.match(line)
        if match:
            listed.append(match.group(1))
    problems = [f"{CENSUS_DOC}: {label} lacks {name}" for name in sorted(expected - set(listed))]
    problems += [
        f"{CENSUS_DOC}: {label} lists {name}, which does not exist"
        for name in sorted(set(listed) - expected)
    ]
    problems += [
        f"{CENSUS_DOC}: {label} lists {name} twice"
        for name in sorted({name for name in listed if listed.count(name) > 1})
    ]
    return problems


def check_module_census() -> "list[str]":
    """The census table lists every module under ``src/repro/``, once."""
    root = REPO_ROOT / "src" / "repro"
    modules = {
        module.relative_to(root).as_posix()
        for module in root.rglob("*.py")
        if module.name != "__init__.py"
    }
    return check_census(CENSUS_HEADING, "census", modules)


#: The test census (``tools/test_census.py --write-doc``) has one row per
#: test file that tier-1 collects.
TEST_CENSUS_HEADING = "## Test census"
TEST_FILE_GLOBS = ("tests/test_*.py", "benchmarks/e2e/test_*.py")


def check_test_census() -> "list[str]":
    """The test census table lists every tier-1 test file, once."""
    files = {
        path.relative_to(REPO_ROOT).as_posix()
        for pattern in TEST_FILE_GLOBS
        for path in REPO_ROOT.glob(pattern)
    }
    return check_census(TEST_CENSUS_HEADING, "test census", files)


def check_bench_table(readme: pathlib.Path) -> "list[str]":
    """The README's bench table must name every bench in the tree."""
    text = readme.read_text(encoding="utf-8")
    name = readme.relative_to(REPO_ROOT)
    problems = []
    named = set()
    table = "\n".join(
        line for line in text.splitlines() if line.lstrip().startswith("|")
    )
    for token in TABLE_CODE_RE.findall(table):
        brace = re.fullmatch(r"(.*)\{([^}]*)\}(.*)", token)
        if brace:
            head, options, tail = brace.groups()
            named.update(head + option + tail for option in options.split(","))
        else:
            named.add(token)
    for bench in sorted((REPO_ROOT / "benchmarks").glob("bench_*.py")):
        if bench.name not in named:
            problems.append(f"{name}: bench table does not mention {bench.name}")
    return problems


#: The tier-1 claims table and the README section that publishes it;
#: its rows start with a backticked claim id.
CLAIMS_TEST = "tests/test_paper_claims.py"
CLAIMS_HEADING = "## Paper claims"
CLAIM_ROW_RE = re.compile(r"^\|\s*`([A-Z][\w-]*)`")


def claim_ids() -> "list[str]":
    """The first argument of each ``Claim(...)`` in ``CLAIMS = [...]``."""
    tree = ast.parse((REPO_ROOT / CLAIMS_TEST).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "CLAIMS"
            for target in node.targets
        ):
            return [
                row.args[0].value
                for row in getattr(node.value, "elts", ())
                if isinstance(row, ast.Call)
                and row.args
                and isinstance(row.args[0], ast.Constant)
            ]
    return []


def check_paper_claims(readme: pathlib.Path) -> "list[str]":
    """The README's claims table names every ``CLAIMS`` id, once."""
    name = readme.relative_to(REPO_ROOT)
    text = readme.read_text(encoding="utf-8")
    start = text.find(f"\n{CLAIMS_HEADING}\n")
    if start < 0:
        return [f"{name}: no '{CLAIMS_HEADING}' section"]
    section = text[start + 1:]
    end = section.find("\n#")
    listed = [
        match.group(1)
        for line in section[: end if end >= 0 else None].splitlines()
        if (match := CLAIM_ROW_RE.match(line))
    ]
    checked = claim_ids()
    if not checked:
        return [f"{CLAIMS_TEST}: no CLAIMS table of Claim(...) rows"]
    problems = [
        f"{name}: claims table lacks {claim}"
        for claim in checked
        if claim not in listed
    ]
    problems += [
        f"{name}: claims table names {claim}, which {CLAIMS_TEST} does not check"
        for claim in sorted(set(listed) - set(checked))
    ]
    problems += [
        f"{name}: claims table names {claim} twice"
        for claim in sorted({claim for claim in listed if listed.count(claim) > 1})
    ]
    return problems


#: Files that tell people (or CI) to run a bench by path.
BENCH_REFERENCE_GLOBS = (".github/workflows/*.yml", "README.md")
#: A bare ``bench_x.py`` or ``benchmarks/bench_x.py`` (not ``tools/bench_…``).
BENCH_NAME_RE = re.compile(r"(?:(?<![\w/])|(?<=benchmarks/))bench_\w+\.py")


def check_bench_references() -> "list[str]":
    """Every ``bench_*.py`` a workflow or the README names must be in
    ``benchmarks/``."""
    problems = []
    for pattern in BENCH_REFERENCE_GLOBS:
        for path in sorted(REPO_ROOT.glob(pattern)):
            text = path.read_text(encoding="utf-8")
            for bench in sorted(set(BENCH_NAME_RE.findall(text))):
                if not (REPO_ROOT / "benchmarks" / bench).exists():
                    problems.append(
                        f"{path.relative_to(REPO_ROOT)}: names missing bench {bench}"
                    )
    return problems


#: Docs whose ``Class.attr`` names must exist.
ATTRIBUTE_DOCS = ("docs/architecture.md", "README.md")
#: A backticked ``Class.attr`` or ``Class.method()``.
CLASS_ATTR_RE = re.compile(r"`([A-Z]\w*)\.([A-Za-z_]\w*)(?:\(\))?`")


def repro_classes() -> "dict[str, list[type]]":
    """Every class the ``repro`` package defines, by name."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    import repro

    classes: "dict[str, list[type]]" = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == info.name:
                classes.setdefault(value.__name__, []).append(value)
    return classes


def has_attribute(cls: type, attr: str) -> bool:
    if hasattr(cls, attr) or attr in getattr(cls, "__dataclass_fields__", {}):
        return True
    assigned = re.compile(rf"\bself\.{attr}\s*(?::[^=\n]+)?=(?!=)")
    return any(
        assigned.search(inspect.getsource(klass))
        for klass in cls.__mro__
        if klass.__module__.startswith("repro.")
    )


def check_class_attributes() -> "list[str]":
    """Every backticked ``Class.attr`` of a ``repro`` class must exist."""
    classes = repro_classes()
    problems = []
    for name in ATTRIBUTE_DOCS:
        path = REPO_ROOT / name
        for owner, attr in sorted(set(CLASS_ATTR_RE.findall(path.read_text(encoding="utf-8")))):
            candidates = classes.get(owner)
            if candidates and not any(has_attribute(cls, attr) for cls in candidates):
                problems.append(f"{name}: `{owner}.{attr}` names no attribute of {owner}")
    return problems


#: Docs whose backticked module paths must exist.
MODULE_PATH_GLOBS = ("README.md", "docs/*.md")
#: A backticked ``repro/…/x.py``, optionally under ``src/``.
MODULE_PATH_RE = re.compile(r"`(?:src/)?(repro/[\w/]+\.py)`")
#: A Sphinx role naming something in ``repro``; the target may wrap
#: onto a continuation line (``#:`` comments included).
ROLE_RE = re.compile(r":(mod|class|func|meth|attr):`~?(repro\.[^`]+)`")
ROLE_WRAP_RE = re.compile(r"\s+(?:#:\s*)?")


def check_module_paths() -> "list[str]":
    """Every backticked ``repro/…/x.py`` in the README and docs exists."""
    problems = []
    for pattern in MODULE_PATH_GLOBS:
        for path in sorted(REPO_ROOT.glob(pattern)):
            for module in MODULE_PATH_RE.findall(path.read_text(encoding="utf-8")):
                if not (REPO_ROOT / "src" / module).is_file():
                    problems.append(
                        f"{path.relative_to(REPO_ROOT)}: names missing module {module}"
                    )
    return problems


def resolve_role(role: str, target: str) -> bool:
    """Whether *target* names a module (``mod``) or something in one."""
    parts = target.split(".")
    for split in range(len(parts), 0, -1):
        try:
            value = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        break
    else:
        return False
    rest = parts[split:]
    if role == "mod":
        return not rest
    for index, name in enumerate(rest):
        last = index == len(rest) - 1
        if hasattr(value, name):
            value = getattr(value, name)
        elif last and role == "attr" and isinstance(value, type):
            return has_attribute(value, name)
        else:
            return False
    return bool(rest)


def check_module_roles() -> "list[str]":
    """Every ``repro.…`` role in a ``src/repro/`` file resolves."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    problems = []
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        for role, target in ROLE_RE.findall(path.read_text(encoding="utf-8")):
            target = ROLE_WRAP_RE.sub("", target)
            if not resolve_role(role, target):
                problems.append(
                    f"{path.relative_to(REPO_ROOT)}: :{role}:`{target}` does not resolve"
                )
    return problems


#: A ``*.md`` name, with or without its directory.
MARKDOWN_NAME_RE = re.compile(r"(?<![\w./-])([\w./-]*\w\.md)\b")


def check_markdown_names() -> "list[str]":
    """Every ``*.md`` a ``src/`` file names exists, from the repo root."""
    problems = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        names = set(MARKDOWN_NAME_RE.findall(path.read_text(encoding="utf-8")))
        problems += [
            f"{path.relative_to(REPO_ROOT)}: names missing document {name}"
            for name in sorted(names)
            if not (REPO_ROOT / name).is_file()
        ]
    return problems


def main() -> int:
    files = list(iter_markdown_files())
    problems = []
    for path in files:
        problems.extend(check_file(path))
    readme = REPO_ROOT / "README.md"
    if readme.exists():
        problems.extend(check_repo_layout(readme))
        problems.extend(check_readme_packages(readme))
        problems.extend(check_bench_table(readme))
        problems.extend(check_paper_claims(readme))
    problems.extend(check_bench_references())
    problems.extend(check_class_attributes())
    problems.extend(check_module_census())
    problems.extend(check_test_census())
    problems.extend(check_module_paths())
    problems.extend(check_module_roles())
    problems.extend(check_markdown_names())
    print(f"docs-lint: checked {len(files)} markdown file(s)")
    if problems:
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        print(f"FAIL: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("PASS: links, named benches, modules, documents and class attributes resolve, "
          "the README bench table, the paper-claims table, the module census and the "
          "test census match the tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())

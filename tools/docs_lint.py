"""Docs lint: every local markdown link must resolve.

Scans the repository's markdown files (root, docs/, benchmarks/) for
inline links and images, and fails if a link that points into the
repository targets a file or directory that does not exist.  External
links (http/https/mailto) and pure in-page anchors are skipped;
``path#anchor`` links are checked for the path part only.

Also checks the README's repo-layout table: every backticked path in a
table row (any token containing a ``/``) must exist in the repository,
so the table cannot drift as modules are added or renamed.

And two README claims that used to rot: the number of CI-gated
``*.json`` artefacts (the files under ``benchmarks/baselines/``), and
the bench table, which must name every ``benchmarks/bench_*.py``.

And the other direction: every ``bench_*.py`` named in a CI workflow,
the README or ``check_regression.py``'s docstring must exist under
``benchmarks/``, so deleting a bench cannot leave a step or a refresh recipe
pointing at nothing.

And names: a backticked ``Class.attr`` (or ``Class.method()``) in
``docs/architecture.md`` or the README whose ``Class`` is a class of the
``repro`` package must name an attribute that class has — on the class,
as a dataclass field, or assigned as ``self.attr`` in its source or a
``repro`` base's — so deleting a method cannot leave the prose naming it.

Run from the repository root (CI does)::

    python tools/docs_lint.py
"""

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


def check_readme_counts(readme: pathlib.Path) -> "list[str]":
    """The README's gated-artefact count and bench table must agree
    with the tree."""
    text = readme.read_text(encoding="utf-8")
    name = readme.relative_to(REPO_ROOT)
    problems = []

    baselines = len(list((REPO_ROOT / "benchmarks" / "baselines").glob("*.json")))
    claimed = re.search(r"the (\d+) `\*\.json` artefacts", text)
    if claimed is None or int(claimed.group(1)) != baselines:
        problems.append(
            f"{name}: should say 'the {baselines} `*.json` artefacts' "
            f"(files under benchmarks/baselines/), found "
            f"{claimed.group(0) if claimed else 'no such claim'!r}"
        )

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


#: Files that tell people (or CI) to run a bench by path.
BENCH_REFERENCE_GLOBS = (
    ".github/workflows/*.yml", "README.md", "benchmarks/check_regression.py",
)
#: A bare ``bench_x.py`` or ``benchmarks/bench_x.py`` (not ``tools/bench_…``).
BENCH_NAME_RE = re.compile(r"(?:(?<![\w/])|(?<=benchmarks/))bench_\w+\.py")


def check_bench_references() -> "list[str]":
    """Every ``bench_*.py`` a workflow, the README or the regression
    gate's refresh recipe names must be in ``benchmarks/``."""
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


def main() -> int:
    files = list(iter_markdown_files())
    problems = []
    for path in files:
        problems.extend(check_file(path))
    readme = REPO_ROOT / "README.md"
    if readme.exists():
        problems.extend(check_repo_layout(readme))
        problems.extend(check_readme_counts(readme))
    problems.extend(check_bench_references())
    problems.extend(check_class_attributes())
    print(f"docs-lint: checked {len(files)} markdown file(s)")
    if problems:
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        print(f"FAIL: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("PASS: links, named benches and class attributes resolve, "
          "README counts match the tree")
    return 0


if __name__ == "__main__":
    sys.exit(main())

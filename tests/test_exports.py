"""Every name the package exports has a reader other than the tests.

A name in ``kgraphkms.__all__`` that is not a module must be read by package
code outside its own definition, named by the benchmark (an import, an
attribute chain or a tracer target, as ``test_perfbench_names`` reads
them), or named in the README's Library example. Everything is read with
``ast``; nothing is imported from the package.
"""

import ast
import re
from pathlib import Path

import pytest

from test_perfbench_names import PACKAGE_NAMES, TARGETS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kgraphkms"


def _exports() -> list[str]:
    """The public names ``__init__.py`` imports from the package's modules."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return sorted(
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    )


def _read_names(node) -> set[str]:
    """Names loaded, and attributes read, anywhere under ``node``."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            found.add(sub.attr)
    return found


def _package_readers() -> dict[str, set[str]]:
    """For each name that package code reads, the top-level definitions (or ``""``) that read it."""
    readers: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            defines = getattr(stmt, "name", "") if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else ""
            for name in _read_names(stmt):
                readers.setdefault(name, set()).add(defines)
    return readers


def _benchmark_names() -> set[str]:
    named = {attr.split(".")[0] for _, attr in TARGETS}
    named.update(part for _, dotted in PACKAGE_NAMES for part in dotted.split(".")[1:])
    return named


def _readme_example_names() -> set[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    library = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    tree = ast.parse(code)
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    return imported | _read_names(tree)


EXPORTS = _exports()
READERS = _package_readers()
BENCHMARK = _benchmark_names()
README_EXAMPLE = _readme_example_names()


def test_the_exports_are_found():
    assert len(EXPORTS) >= 30
    assert {"Skeleton", "phase_diagram", "extreme_states_at", "emit_report"} <= set(EXPORTS)


@pytest.mark.parametrize("name", EXPORTS)
def test_every_export_has_a_reader(name):
    read_by_package = bool(READERS.get(name, set()) - {name})
    assert read_by_package or name in BENCHMARK or name in README_EXAMPLE, (
        f"{name} is exported, but no package code outside its definition, no benchmark script "
        "and no README Library example reads it"
    )

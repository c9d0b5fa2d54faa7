"""Every name the benchmark binds in ``kgraphkms`` exists.

``perfbench/tracer.py`` wraps each of its ``TARGETS`` by module and
attribute name, and the benchmark scripts import from the package, so a
function renamed or deleted here would otherwise surface only when the
benchmark runs. Both are read with ``ast``; no benchmark module is imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer_targets() -> list[tuple[str, str]]:
    tree = ast.parse((PERFBENCH / "tracer.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise AssertionError("perfbench/tracer.py assigns no TARGETS")


def _dotted(node) -> str | None:
    """``a.b.c`` for a chain of attribute reads on a plain name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else None


def _package_names() -> list[tuple[str, str]]:
    """(script, dotted name) for every name a benchmark script takes from ``kgraphkms``.

    That is each ``from kgraphkms... import name``, each ``import
    kgraphkms...``, and each attribute chain read on such an import, under
    its alias if it has one.
    """
    found = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        roots = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kgraphkms":
                found.update((path.name, f"{node.module}.{alias.name}") for alias in node.names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "kgraphkms":
                        found.add((path.name, alias.name))
                        roots[alias.asname or "kgraphkms"] = alias.name if alias.asname else "kgraphkms"
        for node in ast.walk(tree):
            dotted = _dotted(node) if isinstance(node, ast.Attribute) else None
            if dotted and dotted.split(".")[0] in roots:
                head, _, rest = dotted.partition(".")
                found.add((path.name, f"{roots[head]}.{rest}"))
    return sorted(found)


def _resolve(dotted: str):
    """The object a dotted name reaches, importing submodules on the way."""
    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], 2):
        obj = getattr(obj, part) if hasattr(obj, part) else importlib.import_module(".".join(parts[:i]))
    return obj


TARGETS = _tracer_targets()
PACKAGE_NAMES = _package_names()


def test_the_benchmark_binds_names():
    assert len(TARGETS) >= 10
    assert {script for script, _ in PACKAGE_NAMES} >= {"harness.py", "oracle.py", "workloads.py"}


@pytest.mark.parametrize("module, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_tracer_target_resolves(module, attr):
    assert callable(_resolve(f"kgraphkms.{module}.{attr}"))


@pytest.mark.parametrize("script, dotted", PACKAGE_NAMES, ids=[f"{s}:{d}" for s, d in PACKAGE_NAMES])
def test_benchmark_import_resolves(script, dotted):
    _resolve(dotted)

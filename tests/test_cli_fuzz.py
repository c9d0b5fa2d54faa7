"""Fuzzed input documents: the CLI ends every run with exit code 0, 1 or 2, never a traceback.

Each example takes one of the small golden input documents and applies a
few mutations: a value swapped for one of another JSON type (including
integers beyond the float range, infinities and NaN), a list entry or a
field dropped, which leaves ragged or missing rows and absent fields, or a
list entry duplicated. ``validate``, ``components`` and ``phase`` then run
in process on the mutated text.
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgraphkms.cli import main

DATA = Path(__file__).parent / "data"
DOCUMENTS = [json.loads((DATA / f"{stem}.json").read_text()) for stem in ("example1", "example2", "dumbbell3")]

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 9),
    st.floats(),
    st.text(max_size=3),
    st.sampled_from([10**400, -(10**400), 2**64, 2**53 + 1]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=4,
)


def paths(value, prefix=()):
    """Every path into ``value``, parents before children; ``()`` is the document itself."""
    yield prefix
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield from paths(child, prefix + (key,))


def at(value, path):
    for key in path:
        value = value[key]
    return value


@st.composite
def mutated(draw):
    """A golden document after one to three mutations, as JSON text."""
    doc = json.loads(json.dumps(draw(st.sampled_from(DOCUMENTS))))
    for _ in range(draw(st.integers(1, 3))):
        # Depth first, so that a whole grid or field is as likely a target as one entry.
        by_depth: dict[int, list] = {}
        for path in paths(doc):
            by_depth.setdefault(len(path), []).append(path)
        path = draw(st.sampled_from(by_depth[draw(st.sampled_from(sorted(by_depth)))]))
        action = draw(st.sampled_from(["swap", "drop", "duplicate"])) if path else "swap"
        if action == "swap":
            if not path:
                doc = draw(VALUES)
                continue
            at(doc, path[:-1])[path[-1]] = draw(VALUES)
        elif action == "drop":
            del at(doc, path[:-1])[path[-1]]
        elif isinstance(at(doc, path[:-1]), list):
            at(doc, path[:-1]).insert(path[-1], json.loads(json.dumps(at(doc, path))))
    return json.dumps(doc)


def run(argv, text):
    """``main(argv)`` reading ``text`` from standard input, with its output captured."""
    stdin, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return main(argv)
    finally:
        sys.stdin = stdin


@given(mutated(), st.sampled_from(["validate", "components", "phase"]), st.booleans())
@example('{"vertices": ["a"], "matrices": [5]}', "validate", False)
@settings(max_examples=300, deadline=None)
def test_mutated_documents_end_with_an_exit_code(text, command, allow):
    argv = [command, "-"] + (["--allow-violations"] if allow else [])
    assert run(argv, text) in (0, 1, 2)

"""Standing report check: CLI reports against recorded outputs.

``data/golden`` holds the standard output of every case below, one file
each, and ``data/golden/exits.json`` their exit codes and standard error.
Cases without a recorded output are recorded with

    PYTHONPATH=src python tests/test_golden.py --write

which leaves every recorded case as it is.

Structure, strings, integers and exit codes must match exactly. Floats may
differ by 1e-12 relative, so that the check holds across BLAS builds. Text
reports print 12 significant digits, so there a number may in addition move
by one unit in its last printed digit.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"
EXITS = GOLDEN / "exits.json"
FLOAT_RTOL = 1e-12
TEXT_DIGITS = 12

INPUTS = ("example1", "example2", "dumbbell3")
COMMANDS = {
    "validate": ("validate",),
    "components": ("components",),
    "spectra": ("spectra",),
    "phase": ("phase",),
    "phase-text": ("phase", "--format", "text"),
    "kms": ("kms", "--beta", "1.3"),
}
CASES = [(stem, name, COMMANDS[name]) for stem in INPUTS for name in COMMANDS]
# Chain-20 (``conftest.chain``, offsets 0 and 3) runs the removal recursion
# through 20 pieces, and ``conftest.product_skeleton`` is one 54-vertex
# component; each is checked by its phase report and by the states at an
# inverse temperature inside an interval.
CASES += [
    ("chain20-b0", "phase", ("phase",)),
    ("chain20-b0", "kms", ("kms", "--beta", "0.8")),
    ("chain20-b3", "phase", ("phase",)),
    ("chain20-b3", "kms", ("kms", "--beta", "0.8")),
    ("product", "phase", ("phase",)),
    ("product", "kms", ("kms", "--beta", "1.3")),
]

# A number in a text report: integer, decimal or fraction, optionally marked
# approximate; not part of a label such as ``c12``.
NUMBER = re.compile(r"(?<![\w.])(≈?-?\d+(?:\.\d+)?(?:e[+-]?\d+)?(?:/\d+)?)(?![\w.])")


def case_id(stem: str, name: str) -> str:
    return f"{stem}.{name}"


def stdout_file(stem: str, name: str, argv) -> Path:
    suffix = "txt" if "--format" in argv else "json"
    return GOLDEN / f"{case_id(stem, name)}.{suffix}"


def run_case(stem: str, argv) -> tuple[int, str, str]:
    from kgraphkms.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([argv[0], str(DATA / f"{stem}.json"), *argv[1:]])
    return code, out.getvalue(), err.getvalue()


def _close(a: float, b: float, slack: float = 0.0) -> bool:
    return abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b)) + slack


def assert_json_matches(got, want, where="$"):
    assert type(got) is type(want), f"{where}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            assert_json_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{where}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_matches(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert _close(got, want), f"{where}: {got!r} != {want!r}"
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def _text_value(token: str) -> tuple[float, float]:
    """Value of a printed number and the size of one unit in its last printed digit."""
    approximate = token.startswith("≈")
    value = float(Fraction(token.lstrip("≈")))
    if not approximate or value == 0.0:
        return value, 0.0
    exponent = int(f"{abs(value):e}".split("e")[1])
    return value, 10.0 ** (exponent - (TEXT_DIGITS - 1))


def assert_text_matches(got: str, want: str):
    got_parts, want_parts = NUMBER.split(got), NUMBER.split(want)
    assert len(got_parts) == len(want_parts), "text reports differ in shape"
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        if i % 2 == 0:
            assert g == w, f"text differs: {g!r} != {w!r}"
            continue
        (gv, gu), (wv, wu) = _text_value(g), _text_value(w)
        assert _close(gv, wv, max(gu, wu)), f"number differs: {g} != {w}"


@pytest.mark.parametrize("stem,name,argv", CASES, ids=[case_id(s, n) for s, n, _ in CASES])
def test_report_matches_golden(stem, name, argv):
    code, out, err = run_case(stem, argv)
    recorded = json.loads(EXITS.read_text(encoding="utf-8"))[case_id(stem, name)]
    assert code == recorded["exit"]
    assert err == recorded["stderr"]
    path = stdout_file(stem, name, argv)
    want = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        # The bytes are canonical JSON; the values match the recorded ones.
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
        assert_json_matches(json.loads(out), json.loads(want))
    else:
        assert_text_matches(out, want)


def test_text_comparison_allows_only_the_last_digit():
    assert_text_matches("beta: ≈0.671187741471\n", "beta: ≈0.671187741472\n")
    with pytest.raises(AssertionError):
        assert_text_matches("beta: ≈0.671187741471\n", "beta: ≈0.671187741473\n")
    with pytest.raises(AssertionError):
        assert_text_matches("m: 5/11\n", "m: 6/11\n")


def write_golden() -> None:
    """Record every case that has no output file yet."""
    GOLDEN.mkdir(parents=True, exist_ok=True)
    exits = json.loads(EXITS.read_text(encoding="utf-8")) if EXITS.exists() else {}
    for stem, name, argv in CASES:
        path = stdout_file(stem, name, argv)
        if path.exists():
            continue
        code, out, err = run_case(stem, argv)
        path.write_text(out, encoding="utf-8")
        exits[case_id(stem, name)] = {"exit": code, "stderr": err}
    EXITS.write_text(json.dumps(exits, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    write_golden()

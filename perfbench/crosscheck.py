"""Cross-check the tracer's call counts against cProfile.

Runs ``kgraphkms phase`` in process on chain-40 with offset 0 twice, once
under cProfile and once under the tracer, and compares the call count of
every traced function. Chain-40 is the size of the reference counts in
README.md (242 ``decompose``, 10478 ``spectral_radius`` calls). Run from the root of a checkout:

    PYTHONPATH=src python3 perfbench/crosscheck.py

Exits 1 if any count differs.
"""

from __future__ import annotations

import contextlib
import cProfile
import importlib
import io
import pstats
import sys
import tempfile
from pathlib import Path

from tracer import TARGETS, Tracer, span_name
from workloads import chain_skeleton, document

CROSSCHECK_N = 40


def target_code(module: str, attr: str):
    obj = importlib.import_module(f"kgraphkms.{module}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj.__code__


def phase(doc_path: str) -> None:
    import kgraphkms.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = kgraphkms.cli.main(["phase", doc_path, "--format", "json"])
    if code != 0:
        raise RuntimeError(f"phase exited with {code}")


def compare(n: int, offset: int) -> list[tuple[str, int, int]]:
    """(span name, tracer count, cProfile count) for every traced function."""
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "chain.json"
        doc.write_text(document(chain_skeleton(n, offset)), encoding="utf-8")
        profile = cProfile.Profile()
        profile.runcall(phase, str(doc))
        tracer = Tracer()
        tracer.install()
        try:
            phase(str(doc))
        finally:
            tracer.uninstall()
    stats = pstats.Stats(profile).stats
    by_code = {(f, line, name): nc for (f, line, name), (_, nc, *_) in stats.items()}
    calls, _, _ = tracer.summary()
    rows = []
    for module, attr in TARGETS:
        code = target_code(module, attr)
        profiled = by_code.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        rows.append((span_name(module, attr), calls[span_name(module, attr)], profiled))
    return rows


def main() -> int:
    rows = compare(CROSSCHECK_N, 0)
    for name, traced, profiled in rows:
        print(f"{name:34s} tracer {traced:8d} cProfile {profiled:8d}{'' if traced == profiled else '  MISMATCH'}")
    return 0 if all(t == p for _, t, p in rows) else 1


if __name__ == "__main__":
    sys.exit(main())

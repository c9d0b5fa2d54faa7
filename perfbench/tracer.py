"""Span tracer that wraps the program's public functions from outside.

``Tracer.install`` replaces each target function with a timing wrapper in
every loaded ``kgraphkms`` module that binds it, so calls made through a
``from .components import decompose`` binding, a lazy import inside a
function body or the package namespace are all seen. ``Skeleton`` is traced
through its ``__post_init__``, which every construction runs. Spans are
kept in memory as (id, parent id, name, start, end) and written out once,
when the traced run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (module, attribute) pairs; a dotted attribute names a method of a class.
TARGETS = (
    ("skeleton", "Skeleton.__post_init__"),
    ("skeleton", "validate_skeleton"),
    ("components", "decompose"),
    ("components", "check_assumptions"),
    ("components", "restrict"),
    ("components", "split_isolated"),
    ("_digraph", "tarjan_sccs"),
    ("_digraph", "transitive_closure"),
    ("spectral", "spectral_radius"),
    ("spectral", "common_pf_eigenvector"),
    ("spectral", "extend_eigenvector"),
    ("spectral", "check_spectral_ordering"),
    ("engine", "normalize_dynamics"),
    ("engine", "removal_set"),
    ("engine", "psi_state"),
    ("engine", "supercritical_extremes"),
    ("engine", "verify_state"),
    ("engine", "phase_diagram"),
    ("engine", "extreme_states_at"),
    ("formats", "parse_input"),
    ("formats", "emit_report"),
    ("cli", "main"),
    ("dumbbell", "fuzz_ordering"),
    ("dumbbell", "sample_dumbbell3"),
)

# Per-call tallies of a target's result, summed over the run.
TALLIES = {
    "engine.phase_diagram": lambda diagram: len(diagram.pieces),
    "engine.supercritical_extremes": len,
    "engine.psi_state": lambda state: 1,
}


def span_name(module: str, attr: str) -> str:
    """Metric prefix of a target: ``_digraph`` is reported as ``digraph``."""
    return f"{module.lstrip('_')}.{attr.split('.')[0]}"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.tallies: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        stack = self._stack
        span = [len(self.spans), stack[-1] if stack else -1, name, time.perf_counter(), 0.0]
        self.spans.append(span)
        stack.append(span[0])
        return span

    def _close(self, span: list) -> None:
        self._stack.pop()
        span[4] = time.perf_counter()

    def _wrap(self, name: str, fn):
        tally = TALLIES.get(name)

        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if tally is not None:
                self.tallies[name] += tally(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """Root span around one benchmark operation (one request)."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for module, attr in TARGETS:
            mod = importlib.import_module(f"kgraphkms.{module}")
            name = span_name(module, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._restore.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(name, fn))
                continue
            fn = getattr(mod, attr)
            wrapper = self._wrap(name, fn)
            for mod_name, loaded in list(sys.modules.items()):
                if mod_name != "kgraphkms" and not mod_name.startswith("kgraphkms."):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is fn:
                        self._restore.append((loaded, key, fn))
                        setattr(loaded, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._restore):
            setattr(owner, key, fn)
        self._restore.clear()

    def summary(self, keep=lambda root: True) -> tuple[Counter, dict, dict]:
        """Calls, self seconds and inclusive seconds per span name.

        Only spans under a root span whose name passes ``keep`` count. Self
        time is a span's duration minus that of its direct children.
        Inclusive time counts only the outermost span of a name, so nested
        calls of one function are not counted twice.
        """
        calls: Counter = Counter()
        self_s: dict = defaultdict(float)
        total_s: dict = defaultdict(float)
        names, roots = {}, {}
        for sid, parent, name, start, end in self.spans:
            names[sid] = (name, parent)
            roots[sid] = roots[parent] if parent >= 0 else name
            if not keep(roots[sid]):
                continue
            calls[name] += 1
            self_s[name] += end - start
            if parent >= 0:
                self_s[names[parent][0]] -= end - start
            ancestor = parent
            while ancestor >= 0 and names[ancestor][0] != name:
                ancestor = names[ancestor][1]
            if ancestor < 0:
                total_s[name] += end - start
        return calls, self_s, total_s

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, name, start, end in self.spans:
                out.write(json.dumps({"id": sid, "parent": parent, "name": name, "start": start, "end": end}))
                out.write("\n")


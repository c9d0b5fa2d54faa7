"""Closed-loop measurement of CLI children and in-process library passes."""

from __future__ import annotations

import itertools
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy

import kgraphkms as kg
from oracle import Oracle
from workloads import FUZZ_COUNT, FUZZ_SEED, check_chain_pieces, document

SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "phase_s": "s",
    "kms_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "graphs_per_s": "1/s",
    "fuzz_s": "s",
}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


class Run:
    """Operation counts and samples of one benchmark run."""

    def __init__(self, work, workdir: Path, src: Path, launcher):
        self.work = work
        self.launcher = launcher
        self.workdir = workdir
        self.oracles = [Oracle(g) for g in work.graphs]
        self.cli_oracles = [self.oracles[work.graphs.index(g)] for g in work.cli_graphs]
        self.docs = []
        for i, skel in enumerate(work.cli_graphs):
            path = workdir / f"doc{i}.json"
            path.write_text(document(skel), encoding="utf-8")
            self.docs.append(str(path))
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list[float]] = {name: [] for name in END_TO_END_UNITS}
        self.fuzz_calls = 0

    def record(self, errors: list[str], what: str) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            for e in errors[:3]:
                log(f"FAIL {what}: {e}")

    # -- child processes -------------------------------------------------

    def child(self, argv: list[str]) -> tuple[float, int, float, bytes]:
        """Run one child; return (seconds, exit code, peak RSS in MB, stdout).

        Peak RSS comes from ``wait4`` on this child alone, not from the
        running maximum over all children.
        """
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        request = {"argv": argv, "env": self.env, "stdout": str(out_path), "stderr": str(err_path)}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        if reply["code"] != 0:
            log(err_path.read_text(encoding="utf-8", errors="replace")[-2000:])
        return reply["seconds"], reply["code"], reply["maxrss_kib"] * 1024 / 1e6, out_path.read_bytes()

    def cli(self, *args: str):
        return self.child([sys.executable, "-m", "kgraphkms.cli", *args])

    def validate(self, i: int) -> float:
        elapsed, code, _, out = self.cli("validate", self.docs[i])
        self.record(check_validate(code, out), "validate")
        return elapsed

    def phase(self, i: int) -> None:
        elapsed, code, rss, out = self.cli("phase", self.docs[i], "--format", "json")
        self.samples["phase_s"].append(elapsed)
        self.samples["peak_rss_mb"].append(rss)
        self.record(check_report(code, out, self.cli_oracles[i].check_phase_report), "phase")

    def kms(self, i: int) -> None:
        beta = self.cli_oracles[i].exp.interior_beta()
        elapsed, code, _, out = self.cli("kms", self.docs[i], "--beta", repr(beta))
        self.samples["kms_s"].append(elapsed)
        self.record(
            check_report(code, out, lambda r: self.cli_oracles[i].check_kms_report(r, beta)), "kms"
        )

    def fuzz(self) -> None:
        elapsed, code, _, out = self.cli(*fuzz_args(self.fuzz_calls))
        self.fuzz_calls += 1
        self.samples["fuzz_s"].append(elapsed)
        self.record(check_report(code, out, check_fuzz), "fuzz")

    # -- in-process library ----------------------------------------------

    def library(self, i: int) -> None:
        """Analyse the i-th share of the graphs; time only the library calls."""
        share = len(self.docs)
        elapsed = 0.0
        for skel, oracle in zip(self.work.graphs[i::share], self.oracles[i::share]):
            start = time.perf_counter()
            try:
                diagram, evaluations = analyse(skel, oracle.exp)
            except Exception as exc:  # every failure of the program is counted
                elapsed += time.perf_counter() - start
                self.record([f"{type(exc).__name__}: {exc}"], "library")
                continue
            elapsed += time.perf_counter() - start
            check_chain_pieces(self.work, diagram)
            self.record(oracle.check_library(diagram, evaluations), "library")
        self.samples["graphs_per_s"].append(len(self.work.graphs[i::share]) / elapsed)


def analyse(skel, exp):
    """The library calls a user makes: dynamics, diagram, states at many betas."""
    dyn = kg.normalize_dynamics(skel)
    diagram = kg.phase_diagram(skel, dyn)
    betas = [*diagram.critical_betas, exp.interior_beta(), exp.above_terminal_beta()]
    return diagram, {b: kg.extreme_states_at(skel, dyn, b, diagram=diagram) for b in betas}


def fuzz_args(call: int) -> list[str]:
    """Arguments of the ``call``-th fuzz child of a run."""
    return ["fuzz", "--seed", str(FUZZ_SEED + call), "--count", str(FUZZ_COUNT)]


def check_validate(code: int, out: bytes) -> list[str]:
    return check_report(
        code, out, lambda r: [] if r["validation"]["passed"] else [f"validation: {r['validation']}"]
    )


def check_fuzz(report: dict) -> list[str]:
    fuzz = report["fuzz"]
    errors = []
    if fuzz["samples"] != FUZZ_COUNT:
        errors.append(f"fuzz: {fuzz['samples']} samples, expected {FUZZ_COUNT}")
    if fuzz["contradictions"]:
        errors.append(f"fuzz: contradictions {fuzz['contradictions'][:3]}")
    return errors


def check_report(code: int, out, check) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    try:
        report = json.loads(out)
        return check(report)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]


def environment(blas_threads: str) -> str:
    return (
        f"python {platform.python_version()}, numpy {numpy.__version__}, "
        f"nproc {os.cpu_count()}, BLAS threads {blas_threads}"
    )


def measure(run: Run, seconds: float) -> dict:
    """Closed loop, one client: each call starts when the previous one ends."""
    run.validate(0)  # warm-up child: fills the page cache, result discarded
    run.samples["setup_s"] = [run.validate(i % len(run.docs)) for i in range(SETUP_REPEATS)]
    # One slice of every operation per CLI document, so that each metric
    # gets samples spread over the whole run.
    cycle = [
        op
        for i in range(len(run.docs))
        for op in (lambda i=i: run.phase(i), lambda i=i: run.kms(i), lambda i=i: run.library(i), run.fuzz)
    ]
    # After one whole cycle, stop at the first operation that ends past the
    # deadline rather than finishing the cycle, which on dumbbell-batch would
    # overrun by up to 12 s. Sample counts then differ by at most one.
    deadline = time.perf_counter() + seconds
    for done, op in enumerate(itertools.cycle(cycle), 1):
        op()
        if done >= len(cycle) and time.perf_counter() >= deadline:
            break
    metrics = {name: statistics.median(values) for name, values in run.samples.items()}
    counts = {name: len(values) for name, values in run.samples.items()}
    for name, unit in END_TO_END_UNITS.items():
        print(f"{run.work.name:15s} {name:13s} {metrics[name]:12.6g} {unit:4s} median of {counts[name]}")
    print(f"{run.work.name:15s} {'error_rate':13s} {run.failed / run.attempted:12.6g} 1    {run.failed}/{run.attempted} operations")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

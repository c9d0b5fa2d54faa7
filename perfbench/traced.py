"""Per-layer metrics: one fixed in-process pass, traced between two untraced.

The pass makes the same operations as a measured run, once each, through
``kgraphkms.cli.main`` and the library, so call counts repeat exactly for a
given seed. The program is single-process with no queues, so no layer ever
waits for another: only call counts and busy (self) times are reported.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
import time

import kgraphkms.cli
from harness import analyse, check_fuzz, check_report, check_validate, fuzz_args
from tracer import Tracer
from workloads import FUZZ_COUNT, check_chain_pieces

IMPORT_REPEATS = 3
FUZZ_OP = "op.fuzz"
IMPORT_PROBE = "import time; t = time.perf_counter(); import kgraphkms.cli; print(time.perf_counter() - t)"

COUNTS = (
    "skeleton.Skeleton",
    "components.decompose",
    "components.check_assumptions",
    "components.restrict",
    "digraph.tarjan_sccs",
    "digraph.transitive_closure",
    "spectral.spectral_radius",
    "spectral.extend_eigenvector",
    "engine.removal_set",
    "engine.psi_state",
    "engine.supercritical_extremes",
    "engine.verify_state",
)
SELF_TIMES = (
    "skeleton.Skeleton",
    "skeleton.validate_skeleton",
    "components.decompose",
    "components.check_assumptions",
    "components.restrict",
    "components.split_isolated",
    "digraph.transitive_closure",
    "spectral.spectral_radius",
    "spectral.common_pf_eigenvector",
    "spectral.extend_eigenvector",
    "engine.normalize_dynamics",
    "engine.supercritical_extremes",
    "engine.verify_state",
    "formats.parse_input",
    "formats.emit_report",
    "cli.main",
)
# Functions that only the fuzz run calls; their self times come from it.
FUZZ_SELF_TIMES = ("spectral.check_spectral_ordering",)
OTHER_UNITS = {
    "components.decompose.per_piece": "calls/piece",
    "engine.verify_state.per_state": "calls/state",
    "engine.phase_diagram.total_s": "s",
    "engine.pieces": "count",
    "formats.report_bytes": "bytes",
    "cli.import_s": "s",
    "dumbbell.fuzz_ordering.total_s": "s",
    "dumbbell.sample_acceptance": "ratio",
    "trace.overhead": "ratio",
}
PER_LAYER_UNITS = {
    **{f"{name}.calls": "count" for name in COUNTS},
    **{f"{name}.self_s": "s" for name in SELF_TIMES + FUZZ_SELF_TIMES},
    **OTHER_UNITS,
}


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = kgraphkms.cli.main(argv)
    return code, out.getvalue()


def one_pass(run, tracer: Tracer | None):
    """Run every operation once; return (wall seconds, outputs to check)."""
    span = tracer.span if tracer else lambda name: contextlib.nullcontext()
    outputs = []
    start = time.perf_counter()
    for i, doc in enumerate(run.docs):
        beta = run.cli_oracles[i].exp.interior_beta()
        for kind, argv in (
            ("validate", ["validate", doc]),
            ("phase", ["phase", doc, "--format", "json"]),
            ("kms", ["kms", doc, "--beta", repr(beta)]),
        ):
            with span(f"op.{kind}"):
                outputs.append((kind, i, _cli(argv)))
    for j, (skel, oracle) in enumerate(zip(run.work.graphs, run.oracles)):
        with span("op.library"):
            try:
                outputs.append(("library", j, analyse(skel, oracle.exp)))
            except Exception as exc:  # every failure of the program is counted
                outputs.append(("library", j, exc))
    with span(FUZZ_OP):
        outputs.append(("fuzz", 0, _cli(fuzz_args(0))))
    return time.perf_counter() - start, outputs


def check_outputs(run, outputs) -> None:
    for kind, i, out in outputs:
        if isinstance(out, Exception):
            run.record([f"{type(out).__name__}: {out}"], kind)
        elif kind == "library":
            check_chain_pieces(run.work, out[0])
            run.record(run.oracles[i].check_library(*out), kind)
        elif kind == "validate":
            run.record(check_validate(*out), kind)
        elif kind == "phase":
            run.record(check_report(*out, run.cli_oracles[i].check_phase_report), kind)
        elif kind == "kms":
            beta = run.cli_oracles[i].exp.interior_beta()
            run.record(check_report(*out, lambda r: run.cli_oracles[i].check_kms_report(r, beta)), kind)
        else:
            run.record(check_report(*out, check_fuzz), kind)


def import_seconds(run) -> float:
    times = []
    for _ in range(IMPORT_REPEATS):
        _, code, _, out = run.child([sys.executable, "-c", IMPORT_PROBE])
        run.record([] if code == 0 else [f"import probe exit code {code}"], "import")
        times.append(float(out) if code == 0 else float("nan"))
    return statistics.median(times)


def traced_pass(run, trace_path) -> dict:
    import_s = import_seconds(run)
    before_s, outputs = one_pass(run, None)
    check_outputs(run, outputs)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, outputs = one_pass(run, tracer)
    finally:
        tracer.uninstall()
    check_outputs(run, outputs)
    tracer.write(trace_path)
    # Untraced passes on both sides of the traced one cancel a linear drift
    # in machine speed out of the overhead ratio.
    after_s, untraced_outputs = one_pass(run, None)
    check_outputs(run, untraced_outputs)
    untraced_s = (before_s + after_s) / 2

    # The fuzz run is the same operation on every workload; its spans feed
    # only the fuzz-path metrics, so the others describe the workload's own
    # phase, kms, validate and library calls.
    calls, self_s, total_s = tracer.summary(lambda root: root != FUZZ_OP)
    fuzz_calls, fuzz_self_s, fuzz_total_s = tracer.summary(lambda root: root == FUZZ_OP)
    pieces = tracer.tallies["engine.phase_diagram"]
    states = tracer.tallies["engine.psi_state"] + tracer.tallies["engine.supercritical_extremes"]
    metrics = {f"{name}.calls": calls[name] for name in COUNTS}
    metrics.update({f"{name}.self_s": self_s[name] for name in SELF_TIMES})
    metrics.update({f"{name}.self_s": fuzz_self_s[name] for name in FUZZ_SELF_TIMES})
    metrics.update(
        {
            "components.decompose.per_piece": calls["components.decompose"] / pieces,
            "engine.verify_state.per_state": calls["engine.verify_state"] / states,
            "engine.phase_diagram.total_s": total_s["engine.phase_diagram"],
            "engine.pieces": pieces,
            "formats.report_bytes": sum(
                len(out[1].encode()) for kind, _, out in outputs if kind == "phase"
            ),
            "cli.import_s": import_s,
            "dumbbell.fuzz_ordering.total_s": fuzz_total_s["dumbbell.fuzz_ordering"],
            "dumbbell.sample_acceptance": FUZZ_COUNT / fuzz_calls["dumbbell.sample_dumbbell3"],
            "trace.overhead": traced_s / untraced_s,
        }
    )
    for name, unit in PER_LAYER_UNITS.items():
        print(f"{run.work.name:15s} {name:36s} {metrics[name]:14.6g} {unit}")
    print(f"# untraced pass {untraced_s:.3f} s, traced pass {traced_s:.3f} s; spans in {trace_path}")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}

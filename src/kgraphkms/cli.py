"""Command line interface: validation, spectra, state computation, fuzzing.

Exit codes: 0 on success with a clean graph, 2 when validation or the
connectivity assumptions fail (suppressed by --allow-violations), 1 on
parse or computation errors.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from pathlib import Path

from . import __version__
from .components import analysed, check_assumptions
from .dumbbell import (
    Dumbbell2Params,
    DumbbellBounds,
    figure3_params,
    fuzz_ordering,
    make_dumbbell2,
    make_dumbbell3,
    matrices_2,
    matrices_3,
    CommutationError,
)
from .engine import (
    AssumptionError,
    Dynamics,
    ExtremeState,
    STATE_TOL,
    extreme_states_at,
    normalize_dynamics,
    phase_diagram,
    verify_states,
)
from .formats import InputDocument, LabelledRow, ParseError, emit_report, input_payload, parse_input
from .skeleton import Skeleton, validate_skeleton

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VIOLATION = 2


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _print_report(report: dict, fmt: str = "json") -> None:
    """Write a report to standard output as it is formatted, then a newline.

    ``sys.stdout`` is looked up on each call, so a replaced stream (a
    captured one, say) receives the report.
    """
    out = sys.stdout
    emit_report(report, fmt, out.write)
    out.write("\n")


def _common_sections(doc: InputDocument, tol: float) -> dict:
    return {
        "tool": {"name": "kgraphkms", "version": __version__},
        "tolerances": {"state": tol},
        "attestations": {"rationally_independent": doc.rationally_independent},
        "warnings": list(doc.warnings),
    }


def _validation_section(report) -> dict:
    return {
        "passed": report.passed,
        "violations": [
            {"rule": v.rule, "message": v.message, "where": list(v.where)}
            for v in report.violations
        ],
    }


def _build_dynamics(skel: Skeleton, doc: InputDocument) -> Dynamics:
    if doc.dynamics_type == "preferred":
        return normalize_dynamics(skel, "preferred", doc.rationally_independent)
    return normalize_dynamics(
        skel, doc.r, doc.rationally_independent, rescale=doc.normalize
    )


def _state_payloads(
    skel: Skeleton, dyn: Dynamics, beta: float, states: tuple[ExtremeState, ...], tol: float
) -> list[dict]:
    """Report entries for the states at one inverse temperature.

    The states are checked once more here, as one batch in the frame of the
    whole graph: the only check of the vectors the engine embedded. Each
    state's weights are written straight from its row.
    """
    for check in verify_states(skel, dyn, beta, [state.m for state in states], tol=tol):
        if not check.passed:
            raise RuntimeError(f"state failed verification at emission: {check}")
    return [
        {
            "beta": state.beta,
            "m": LabelledRow(skel.vertex_labels, state.m),
            "kind": state.kind,
            "anchor": list(state.anchor),
            "depth": state.depth,
            "factors_through_ck": state.factors_through_ck,
        }
        for state in states
    ]


def _components_section(skel: Skeleton) -> dict:
    decomp = analysed(skel)._analysis
    return {
        "order": [[skel.vertex_labels[v] for v in comp] for comp in decomp.components],
        "trivial": list(decomp.trivial),
        "coordinatewise_irreducible": list(decomp.coordinatewise_irreducible),
        "radii": [list(r) for r in decomp.radii],
    }


def _spectra_section(skel: Skeleton) -> dict:
    decomp = analysed(skel)._analysis
    components = []
    for comp, radii, irreducible, vector in zip(
        decomp.components, decomp.radii, decomp.coordinatewise_irreducible, decomp.vectors
    ):
        entry = {"vertices": [skel.vertex_labels[v] for v in comp], "radii": list(radii)}
        if irreducible:
            entry["pf_vector"] = vector.tolist()
        components.append(entry)
    return {"global_radii": [decomp.global_radius(i) for i in range(skel.k)], "components": components}


def _dynamics_section(dyn: Dynamics) -> dict:
    return {
        "r": list(dyn.r),
        "normalization_factor": dyn.normalization_factor,
        "preferred": dyn.preferred,
        "critical_colours": sorted(dyn.critical_colours),
        "log_radii": list(dyn.log_radii),
    }


def _phase_section(skel: Skeleton, dyn: Dynamics, diagram, tol: float) -> dict:
    return {
        "critical_betas": [
            {
                "value": b,
                "symbolic": sym,
                "extreme_states": _state_payloads(skel, dyn, b, states, tol),
            }
            for b, sym, states in zip(
                diagram.critical_betas, diagram.symbolic_betas, diagram.critical_points
            )
        ],
        "intervals": [
            {
                "lo": iv.lo,
                "hi": None if math.isinf(iv.hi) else iv.hi,
                "extreme_count": iv.extreme_count,
                "pieces": [list(labels) for labels in iv.piece_labels],
            }
            for iv in diagram.intervals
        ],
        "terminal_beta": diagram.terminal_beta,
    }


def _prepare(args) -> tuple[dict, InputDocument, Skeleton | None, int]:
    """Parse, validate and build; shared entry for the graph subcommands.

    The skeleton is the one validation built, present unless a violation
    makes the input no skeleton at all.
    """
    doc = parse_input(_read_input(args.input))
    report = _common_sections(doc, args.tol)
    validation = validate_skeleton(doc.vertices, doc.matrices)
    report["validation"] = _validation_section(validation)
    skel = validation.skeleton
    code = EXIT_OK if validation.passed or (args.allow_violations and skel is not None) else EXIT_VIOLATION
    return report, doc, skel, code


def _cmd_validate(args) -> int:
    report, _, _, code = _prepare(args)
    _print_report(report, args.format)
    return code


def _cmd_components(args) -> int:
    report, _, skel, code = _prepare(args)
    if skel is not None:
        skel = analysed(skel)  # one analysis for both sections
        report["components"] = _components_section(skel)
        assumptions = check_assumptions(skel)
        report["assumptions"] = asdict(assumptions)
        if not assumptions.all_pass and not args.allow_violations:
            code = EXIT_VIOLATION
    _print_report(report, args.format)
    return code


def _cmd_spectra(args) -> int:
    report, _, skel, code = _prepare(args)
    if skel is not None:
        report["spectra"] = _spectra_section(skel)
    _print_report(report, args.format)
    return code


def _prepare_solve(args) -> tuple[dict, Skeleton | None, Dynamics | None, int]:
    """Shared start of ``kms`` and ``phase``: build, normalise, check assumptions.

    Returns ``skel`` None when the report is already final. Past this point
    the assumptions hold or are waived, so the sweep need not check them again.
    """
    report, doc, skel, code = _prepare(args)
    if skel is None or (code and not args.allow_violations):
        return report, None, None, code
    skel = analysed(skel)  # one analysis for every later step
    dyn = _build_dynamics(skel, doc)
    report["dynamics"] = _dynamics_section(dyn)
    assumptions = check_assumptions(skel)
    report["assumptions"] = asdict(assumptions)
    if not assumptions.all_pass and not args.allow_violations:
        return report, None, None, EXIT_VIOLATION
    return report, skel, dyn, code


def _diagram(report: dict, skel: Skeleton, dyn: Dynamics):
    """The phase diagram, with every piece's degenerate-criticality warnings added to the report's, once each."""
    diagram = phase_diagram(skel, dyn, allow_violations=True)
    report["warnings"] = list(dict.fromkeys(report["warnings"] + [w for p in diagram.pieces for w in p.warnings]))
    return diagram


def _cmd_kms(args) -> int:
    report, skel, dyn, code = _prepare_solve(args)
    if skel is not None:
        diagram = _diagram(report, skel, dyn)
        states = extreme_states_at(skel, dyn, args.beta, diagram=diagram)
        # A --beta that matches a critical value gets that value's states.
        beta = states[0].beta if states else args.beta
        report["kms"] = {
            "beta": args.beta,
            "extreme_count": len(states),
            "extreme_states": _state_payloads(skel, dyn, beta, states, args.tol),
        }
    _print_report(report, args.format)
    return code


def _cmd_phase(args) -> int:
    report, skel, dyn, code = _prepare_solve(args)
    if skel is not None:
        diagram = _diagram(report, skel, dyn)
        report["phase"] = _phase_section(skel, dyn, diagram, args.tol)
    _print_report(report, args.format)
    return code


def _finite_positive(text: str) -> float:
    """``--beta`` and ``--tol``: a finite number above 0, or a usage error (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text!r}")
    return value


def _parse_pairs(raw: str, expect: int) -> list[tuple[int, int]]:
    """``--params`` as ``expect`` pairs of nonnegative integers, or ``ValueError`` (exit 1) naming the flag."""
    try:
        values = [int(t) for t in raw.replace(" ", "").split(",") if t != ""]
    except ValueError:
        values = []
    if len(values) != 2 * expect or min(values) < 0:
        raise ValueError(f"--params must be {2 * expect} comma-separated nonnegative integers, got {raw!r}")
    return [(values[2 * i], values[2 * i + 1]) for i in range(expect)]


def _cmd_dumbbell(args) -> int:
    try:
        if args.figure == 2:
            loops_v, loops_w, bridge = _parse_pairs(args.params, 3)
            params = Dumbbell2Params(loops_v, loops_w, bridge)
            skel = make_dumbbell2(params)
            matrices = matrices_2(params)
        else:
            lu, lv, lw, bvu, bwu = _parse_pairs(args.params, 5)
            params = figure3_params(lu, lv, lw, bvu, bwu)
            skel = make_dumbbell3(params)
            matrices = matrices_3(params)
    except CommutationError as exc:
        _print_report({"dumbbell": {"accepted": False, "relation": exc.relation, "detail": str(exc)}}, args.format)
        return EXIT_VIOLATION
    doc = InputDocument(
        vertices=skel.vertex_labels,
        matrices=matrices,
        dynamics_type="preferred",
        r=None,
        normalize=True,
        rationally_independent=True,
        warnings=(),
    )
    _print_report(input_payload(doc))
    return EXIT_OK


def _bundle_range(flag: str, text: str) -> tuple[int, int]:
    """A ``lo:hi`` option value with ``0 <= lo <= hi``, or ``ValueError`` (exit 1) naming the flag."""
    shape = f"{flag} must be lo:hi with integers lo <= hi, got {text!r}"
    try:
        lo, hi = (int(t) for t in text.split(":"))
    except ValueError:
        raise ValueError(shape) from None
    if lo > hi:
        raise ValueError(shape)
    if lo < 0:
        raise ValueError(f"{flag} bundle sizes must be nonnegative, got {text!r}")
    return lo, hi


def _cmd_fuzz(args) -> int:
    if args.count < 0:
        raise ValueError(f"--count must be at least 0, got {args.count}")
    lo, hi = _bundle_range("--loops", args.loops)
    blo, bhi = _bundle_range("--bridges", args.bridges)
    if bhi < 1 and not args.zero_wv:
        raise ValueError(f"--bridges must allow a nonempty bundle (hi >= 1) without --zero-wv, got {args.bridges!r}")
    bounds = DumbbellBounds(
        loop_lo=lo,
        loop_hi=hi,
        bridge_lo=blo,
        bridge_hi=bhi,
        zero_wv_bridge=args.zero_wv,
    )
    result = fuzz_ordering(args.seed, args.count, bounds)
    report = {
        "fuzz": {
            "seed": args.seed,
            "samples": result.samples,
            "hypothesis_met": result.hypothesis_met,
            "conclusion_holds": result.conclusion_holds,
            "hypothesis_not_met": result.hypothesis_not_met,
            "contradictions": [
                {"params": asdict(p), "statuses": s} for p, s in result.contradictions
            ],
        }
    }
    _print_report(report, args.format)
    return EXIT_OK if not result.contradictions else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgraphkms",
        description="Equilibrium-state simplices of finite higher-rank graph algebras, "
        "computed from commuting vertex matrices.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_command(name: str, help_text: str, func):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("input", nargs="?", default="-", help="input JSON file, or - for stdin")
        cmd.add_argument("--format", choices=("json", "text"), default="json")
        cmd.add_argument("--tol", type=_finite_positive, default=STATE_TOL)
        cmd.add_argument("--allow-violations", action="store_true")
        cmd.set_defaults(func=func)
        return cmd

    graph_command("validate", "check the input against every skeleton invariant", _cmd_validate)
    graph_command("components", "strongly connected components and assumptions", _cmd_components)
    graph_command("spectra", "per-component and global Perron roots", _cmd_spectra)
    kms = graph_command("kms", "extreme states at one inverse temperature", _cmd_kms)
    kms.add_argument("--beta", type=_finite_positive, required=True)
    graph_command("phase", "critical values and the full simplex structure", _cmd_phase)

    dumbbell = sub.add_parser("dumbbell", help="emit an input document for a dumbbell graph")
    dumbbell.add_argument("--figure", type=int, choices=(2, 3), required=True)
    dumbbell.add_argument(
        "--params",
        required=True,
        help="figure 2: loops_v1,loops_v2,loops_w1,loops_w2,bridge1,bridge2; "
        "figure 3: loops per vertex u,v,w then bridges v->u and w->u, colour pairs",
    )
    dumbbell.add_argument("--format", choices=("json", "text"), default="json")
    dumbbell.set_defaults(func=_cmd_dumbbell)

    fuzz = sub.add_parser("fuzz", help="fuzz the spectral-ordering property on random dumbbells")
    fuzz.add_argument("--seed", type=int, default=0)
    fuzz.add_argument("--count", type=int, default=100)
    fuzz.add_argument("--loops", default="2:9", help="loop bundle range lo:hi")
    fuzz.add_argument("--bridges", default="1:9", help="bridge bundle range lo:hi")
    fuzz.add_argument("--zero-wv", action="store_true", help="pin the w->v bundle to zero")
    fuzz.add_argument("--format", choices=("json", "text"), default="json")
    fuzz.set_defaults(func=_cmd_fuzz)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except AssumptionError as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark's generators, oracle and tracer.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests -q``.
"""

import contextlib
import copy
import io
import json
from dataclasses import replace

import pytest

import kgraphkms.cli
from crosscheck import compare
from harness import analyse
from oracle import Oracle, expected
from tracer import Tracer
from workloads import (
    WORKLOADS,
    ShapeError,
    chain_skeleton,
    check_chain_pieces,
    check_shape,
    document,
    generate,
)


@pytest.mark.parametrize("name", WORKLOADS)
def test_generators_are_deterministic_per_seed(name):
    a, b = generate(name, 7), generate(name, 7)
    assert a == b
    assert len({generate(name, s).graphs for s in range(6)}) > 1


@pytest.mark.parametrize("name", WORKLOADS)
def test_generated_inputs_have_their_shape(name):
    check_shape(generate(name, 3))


def test_shape_check_fails_loudly():
    dumbbells = generate("dumbbell-batch", 1)
    with pytest.raises(ShapeError):
        check_shape(replace(dumbbells, name="cycle-product", graphs=dumbbells.graphs[:1]))
    short = replace(generate("chain", 1), graphs=(chain_skeleton(6, 0),))
    diagram, _ = analyse(dumbbells.graphs[0], expected(dumbbells.graphs[0]))
    with pytest.raises(ShapeError):
        check_chain_pieces(short, diagram)


def test_chain_closed_form_has_one_critical_value_per_vertex():
    exp = expected(chain_skeleton(12, 3))
    assert len(exp.critical_betas) == 12
    assert exp.interval_counts() == list(range(12, 0, -1))


def _phase_report(skel, tmp_path):
    doc = tmp_path / "doc.json"
    doc.write_text(document(skel), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert kgraphkms.cli.main(["phase", str(doc), "--format", "json"]) == 0
    return json.loads(out.getvalue())


@pytest.mark.parametrize("name", WORKLOADS)
def test_oracle_accepts_the_program_output(name, tmp_path):
    skel = chain_skeleton(8, 1) if name == "chain" else generate(name, 2).cli_graphs[0]
    assert Oracle(skel).check_phase_report(_phase_report(skel, tmp_path)) == []


def test_oracle_rejects_a_perturbed_state(tmp_path):
    skel = chain_skeleton(8, 1)
    report = _phase_report(skel, tmp_path)
    bad = copy.deepcopy(report)
    state = bad["phase"]["critical_betas"][2]["extreme_states"][0]
    label = skel.vertex_labels[-1]
    state["m"][label] += 1e-6
    errors = Oracle(skel).check_phase_report(bad)
    assert any("fails verification" in e for e in errors)


def _traced_counts(skel):
    tracer = Tracer()
    tracer.install()
    try:
        analyse(skel, expected(skel))
    finally:
        tracer.uninstall()
    return tracer.summary()[0], dict(tracer.tallies)


def test_tracer_counts_repeat_exactly_and_uninstall_restores():
    skel = chain_skeleton(10, 0)
    first, second = _traced_counts(skel), _traced_counts(skel)
    assert first == second
    assert first[0]["engine.phase_diagram"] == 1
    assert first[1]["engine.phase_diagram"] == 10
    assert not hasattr(kgraphkms.cli.main, "__wrapped__")


def test_tracer_counts_match_cprofile():
    rows = compare(12, 0)
    assert all(traced == profiled for _, traced, profiled in rows), rows
    assert dict((name, t) for name, t, _ in rows)["components.decompose"] > 0

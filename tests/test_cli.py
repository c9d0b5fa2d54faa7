import io
import json
import math
import re
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import kgraphkms.skeleton as skeleton_module
from kgraphkms import ParseError, components, emit_report, parse_input
from kgraphkms.cli import main
from kgraphkms.formats import format_number, input_payload

from conftest import emitted

DATA = Path(__file__).parent / "data"
EX1 = str(DATA / "example1.json")
EX2 = str(DATA / "example2.json")
EXPLICIT = {"type": "explicit", "r": [1]}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParse:
    def test_example_fixture_parses(self):
        doc = parse_input(Path(EX1).read_text())
        assert doc.vertices == ("u", "v", "w")
        assert doc.dynamics_type == "preferred"
        assert doc.rationally_independent
        assert doc.warnings == ()

    def test_empty_vertices_rejected(self):
        with pytest.raises(ParseError, match="vertices"):
            parse_input('{"vertices": [], "matrices": [[[1]]]}')

    def test_json_error_carries_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_input('{\n  "vertices": [,]\n}')

    def test_explicit_dynamics_fields(self):
        doc = parse_input(
            json.dumps(
                {
                    "vertices": ["a"],
                    "matrices": [[[2]], [[3]]],
                    "dynamics": {"type": "explicit", "r": [1.0, 2.0], "normalize": False},
                }
            )
        )
        assert doc.r == (1.0, 2.0)
        assert not doc.normalize
        assert any("independence" in w for w in doc.warnings)

    def test_bad_dynamics_rejected(self):
        base = {"vertices": ["a"], "matrices": [[[2]]]}
        with pytest.raises(ParseError, match="dynamics.r"):
            parse_input(json.dumps({**base, "dynamics": {"type": "explicit", "r": [1.0, 2.0]}}))
        with pytest.raises(ParseError, match="dynamics.type"):
            parse_input(json.dumps({**base, "dynamics": {"type": "weird"}}))

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"rationally_independent": "false"}, "'rationally_independent': expected true or false, got 'false'"),
            ({"rationally_independent": 0}, "'rationally_independent': expected true or false, got 0"),
            ({"dynamics": {**EXPLICIT, "normalize": "no"}}, "'dynamics.normalize': expected true or false, got 'no'"),
            ({"dynamics": {**EXPLICIT, "normalize": None}}, "'dynamics.normalize': expected true or false, got None"),
            ({"k": True}, "'k': expected a positive integer"),
            ({"k": 1.0}, "'k': expected a positive integer"),
            ({"dynamics": {**EXPLICIT, "r": [True]}}, "'dynamics.r': entries must be finite numbers"),
            ({"dynamics": {**EXPLICIT, "r": ["1.5"]}}, "'dynamics.r': entries must be finite numbers"),
        ],
        ids=["independent-str", "independent-int", "normalize-str", "normalize-null"]
        + ["k-bool", "k-float", "r-bool", "r-str"],
    )
    def test_values_are_not_coerced(self, fields, message):
        with pytest.raises(ParseError) as raised:
            parse_input(json.dumps({"vertices": ["a"], "matrices": [[[2]]], **fields}))
        assert str(raised.value) == "field " + message

    def test_booleans_are_read_as_given(self):
        text = {"vertices": ["a"], "matrices": [[[2]]], "rationally_independent": False}
        text["dynamics"] = {"type": "explicit", "r": [1], "normalize": False}
        doc = parse_input(json.dumps(text))
        assert doc.rationally_independent is False and doc.normalize is False and doc.r == (1.0,)

    def test_round_trip_byte_stable(self):
        text = Path(EX1).read_text()
        once = emitted(input_payload(parse_input(text)))
        twice = emitted(input_payload(parse_input(once)))
        assert once == twice
        assert parse_input(once) == parse_input(text)


class TestFormatting:
    def test_rational_snap(self):
        assert format_number(0.5) == "1/2"
        assert format_number(5 / 11) == "5/11"
        assert format_number(2.0) == "2"
        assert format_number(0.0) == format_number(-0.0) == "0"

    def test_irrational_not_snapped(self):
        assert format_number(math.log(4) / math.log(5)).startswith("≈")
        assert format_number(math.pi).startswith("≈")

    def test_emit_report_formats(self):
        report = {"section": {"value": 0.25, "items": [1, 2]}}
        as_json = emitted(report, "json")
        assert json.loads(as_json) == report
        as_text = emitted(report, "text")
        assert "== section ==" in as_text
        assert "1/4" in as_text


def canonical(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


class TestReportWriter:
    """``emit_report``'s JSON is ``json.dumps(indent=2, sort_keys=True)`` byte for byte."""

    @pytest.mark.parametrize(
        "value",
        [
            {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "list": [math.nan, -math.inf, math.inf]},
            {"none": None, "true": True, "false": False, "flags": [True, None, False]},
            {"dict": {}, "list": [], "nested": {"a": {}, "b": [[]], "c": [{}], "d": [[[]], {"e": []}]}},
            {"é": "ü ≈ 😀", "\x00\x1f": "\t\n\r\"\\/\x7f\u2028", "label": ["ß", "\ud800"]},
            {"big": 10**40, "neg": -(2**70), "tuple": (1, (2.5, "x"), ()), "zero": -0.0, "tiny": 5e-324},
            {1: "int", 10: "ints sort as numbers", 2: "two"},
            {None: 1}, {True: 1}, {1.5: 0, math.inf: 1},
            [], {}, (), 0, 2.5, "top", None, False,
            [{"b": 1, "a": [2, {"b": 3, "a": 4}]}, {"a": 1, "b": {"a": {"b": 2, "a": 3}}}, {"b": 3, "a": 4}],
        ],
        ids=[
            "non-finite", "none-and-bools", "empty-containers", "non-ascii-and-control", "ints-and-tuples",
            "int-keys", "none-key", "bool-key", "float-keys",
            "empty-list", "empty-dict", "empty-tuple", "int", "float", "str", "none", "bool",
            "shared-key-sets",
        ],
    )
    def test_matches_json_dumps(self, value):
        pieces = []
        assert emit_report(value, "json", pieces.append) is None
        assert "".join(pieces) == canonical(value)

    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
            lambda items: st.lists(items) | st.dictionaries(st.text(), items),
            max_leaves=20,
        )
    )
    def test_matches_json_dumps_on_any_json_value(self, value):
        assert emitted(value) == canonical(value)

    def test_a_container_of_scalars_is_one_write(self):
        pieces = []
        emit_report({"s": {"m": {"b": 0.5, "a": 0.25}, "anchor": ["u", "v"]}}, "json", pieces.append)
        assert '{\n      "a": 0.25,\n      "b": 0.5\n    }' in pieces
        assert '[\n      "u",\n      "v"\n    ]' in pieces

    @pytest.mark.parametrize("value", [{"s": {1, 2}}, [object()], {"n": 1j}], ids=["set", "object", "complex"])
    def test_other_types_raise_like_json(self, value):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            emitted(value)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            canonical(value)

    def test_other_key_types_raise_like_json(self):
        with pytest.raises(TypeError, match="keys must be str, int, float, bool or None, not tuple"):
            emitted({(1,): 0})

    def test_text_ends_as_if_stripped(self):
        # A last line that ends in a space, here an empty string, loses it;
        # the same space inside the report stays.
        report = {"a": {"empty": "", "n": 1}, "b": {"empty": ""}}
        assert emitted(report, "text") == "== a ==\n  empty: \n  n: 1\n\n== b ==\n  empty:\n"
        assert emitted({"a": "   "}, "text") == "== a ==\n"
        assert emitted({}, "text") == "\n"

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("stem", ["example1", "chain20-b0"])
    def test_streamed_report_is_the_returned_text(self, stem, fmt):
        import kgraphkms.cli as cli

        reports = []

        def record(report, fmt, write):
            reports.append(report)
            emit_report(report, fmt, write)

        out = io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "emit_report", record)
            patch.setattr(sys, "stdout", out)
            assert main(["phase", str(DATA / f"{stem}.json"), "--format", fmt]) == 0
        (report,) = reports
        assert out.getvalue() == emitted(report, fmt) + "\n"

    def test_phase_report_is_written_in_small_pieces(self, monkeypatch):
        # This chain-20 phase report is 196,840 bytes; no write holds more
        # than one state.
        sizes = []

        class Recorder(io.StringIO):
            def write(self, text):
                sizes.append(len(text.encode()))
                return super().write(text)

        out = Recorder()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["phase", str(DATA / "chain20-b3.json")]) == 0
        assert sum(sizes) == len(out.getvalue().encode()) == 196_840
        assert max(sizes) < 16 * 1024


class TestCommands:
    def test_validate_ok(self, capsys):
        code, out, _ = run(capsys, "validate", EX1)
        assert code == 0
        payload = json.loads(out)
        assert payload["validation"]["passed"]

    def test_validate_catches_commutation(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "vertices": ["v", "w"],
                    "matrices": [[[1, 1], [0, 2]], [[1, 2], [0, 2]]],
                }
            )
        )
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 2
        payload = json.loads(out)
        rules = {v["rule"] for v in payload["validation"]["violations"]}
        assert "colour-commutation" in rules

    def test_components_report(self, capsys):
        code, out, _ = run(capsys, "components", EX1)
        assert code == 0
        payload = json.loads(out)
        assert payload["components"]["order"] == [["u"], ["v"], ["w"]]
        assert payload["assumptions"]["all_pass"]

    def test_spectra_report(self, capsys):
        code, out, _ = run(capsys, "spectra", EX2)
        assert code == 0
        payload = json.loads(out)
        assert payload["spectra"]["global_radii"] == [11.0, 13.0]

    def test_kms_at_one(self, capsys):
        code, out, _ = run(capsys, "kms", EX1, "--beta", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["kms"]["extreme_count"] == 3
        vectors = sorted(
            tuple(round(s["m"][l], 9) for l in ("u", "v", "w"))
            for s in payload["kms"]["extreme_states"]
        )
        assert vectors == sorted(
            [
                (0.5, 0.0, 0.5),
                (round(5 / 11, 9), round(6 / 11, 9), 0.0),
                (1.0, 0.0, 0.0),
            ]
        )

    def test_kms_below_terminal_is_empty(self, capsys):
        code, out, _ = run(capsys, "kms", EX1, "--beta", "0.3")
        assert code == 0
        assert json.loads(out)["kms"]["extreme_count"] == 0

    def test_phase_contains_symbolic_value(self, capsys):
        code, out, _ = run(capsys, "phase", EX1)
        assert code == 0
        payload = json.loads(out)
        betas = payload["phase"]["critical_betas"]
        assert [b["symbolic"] for b in betas] == ["1", "ln(4)/ln(5)", "ln(2)/ln(4)"]
        assert betas[1]["value"] == pytest.approx(math.log(4) / math.log(5), abs=1e-15)
        assert payload["phase"]["terminal_beta"] == pytest.approx(0.5)

    def test_phase_text_format(self, capsys):
        code, out, _ = run(capsys, "phase", EX1, "--format", "text")
        assert code == 0
        assert "ln(4)/ln(5)" in out
        assert "5/11" in out

    def test_critical_value_with_no_integer_logarithms_is_not_symbolic(self, capsys, tmp_path):
        # The second critical value is ln(phi)/ln(3): x, y carry the golden
        # ratio phi, which no integer snaps to.
        doc = tmp_path / "golden.json"
        doc.write_text(json.dumps({"vertices": ["u", "x", "y"], "matrices": [[[3, 0, 0], [1, 1, 1], [0, 1, 0]]]}))
        code, out, _ = run(capsys, "phase", str(doc))
        assert code == 0
        betas = json.loads(out)["phase"]["critical_betas"]
        assert [b["symbolic"] for b in betas] == ["1", None]
        assert betas[1]["value"] == pytest.approx(math.log((1 + math.sqrt(5)) / 2) / math.log(3), rel=1e-12)
        code, out, _ = run(capsys, "phase", str(doc), "--format", "text")
        assert code == 0
        assert [line.strip() for line in out.splitlines() if "symbolic" in line] == ["symbolic: 1", "symbolic: -"]

    # One colour, a's root 10**6 + 1 critical and b's 10**6 within a
    # thousand bands of it; b feeds a in one orientation and is fed by it in
    # the other.
    @pytest.mark.parametrize("matrix", [[[1000001, 1], [0, 1000000]], [[1000001, 0], [1, 1000000]]], ids=["b-feeds-a", "a-feeds-b"])
    @pytest.mark.parametrize(
        "command", [["phase"], ["kms", "--beta", "1"], ["phase", "--format", "text"]], ids=["phase", "kms", "text"]
    )
    def test_degenerate_criticality_is_reported(self, capsys, tmp_path, matrix, command):
        doc = tmp_path / "near.json"
        doc.write_text(json.dumps({"vertices": ["a", "b"], "matrices": [matrix], "rationally_independent": True}))
        code, out, _ = run(capsys, *command, str(doc))
        assert code == 0
        warning = "component {b} colour 0: Perron root within 1.00e-06 of the critical weight"
        if "text" in command:
            assert out.count(warning) == 1
        else:
            (entry,) = [w for w in json.loads(out)["warnings"] if w.startswith(warning)]
            assert entry.endswith("classification is degenerate, tighten input")

    def test_text_warnings_split_back_into_messages(self, capsys, tmp_path):
        # A message contains ", " itself, so each gets a line of its own.
        doc = tmp_path / "near.json"
        doc.write_text(json.dumps({"vertices": ["a", "b"], "matrices": [[[1000001, 1], [0, 1000000]]]}))
        _, out, _ = run(capsys, "phase", str(doc))
        warnings = json.loads(out)["warnings"]
        assert len(warnings) == 3 and ", " in warnings[2]
        code, out, _ = run(capsys, "phase", str(doc), "--format", "text")
        assert code == 0
        section = out.split("== warnings ==\n")[1].split("\n\n")[0]
        assert section.splitlines() == [f"  - {w}" for w in warnings]

    def test_isolated_graph_refused_without_flag(self, capsys, tmp_path):
        doc = tmp_path / "two.json"
        doc.write_text(
            json.dumps(
                {
                    "vertices": ["a", "b"],
                    "matrices": [[[2, 0], [0, 3]], [[2, 0], [0, 3]]],
                }
            )
        )
        code, _, _ = run(capsys, "kms", str(doc), "--beta", "1")
        assert code == 2
        code, out, _ = run(capsys, "kms", str(doc), "--beta", "1", "--allow-violations")
        assert code == 0
        assert json.loads(out)["kms"]["extreme_count"] == 2

    @pytest.mark.parametrize("stem", ["product", "chain20-b0"])
    @pytest.mark.parametrize("command", [["phase"], ["kms", "--beta", "1.3"]], ids=["phase", "kms"])
    @pytest.mark.parametrize("flags", [[], ["--allow-violations"]], ids=["strict", "allow"])
    def test_assumptions_checked_once(self, capsys, monkeypatch, stem, command, flags):
        calls = []
        original = components.check_assumptions
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("kgraphkms") and getattr(module, "check_assumptions", None) is original:
                monkeypatch.setattr(module, "check_assumptions", lambda s: calls.append(s) or original(s))
        code, _, _ = run(capsys, command[0], str(DATA / f"{stem}.json"), *command[1:], *flags)
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "command", [["validate"], ["components"], ["spectra"], ["phase"], ["kms", "--beta", "1.3"]], ids=lambda c: c[0]
    )
    @pytest.mark.parametrize("stem", ["example1", "product", "source"])
    def test_commutation_products_run_once(self, capsys, monkeypatch, tmp_path, command, stem):
        # Validation hands its checked arrays on, so the skeleton is not
        # checked again: one exact product pair for the one colour pair.
        path = DATA / f"{stem}.json"
        if stem == "source":
            # Vertex b is a source; skeletons tolerate it, validation does not.
            path = tmp_path / "source.json"
            path.write_text(json.dumps({"vertices": ["a", "b"], "matrices": [[[2, 1], [0, 0]], [[2, 1], [0, 0]]]}))
        calls = []
        original = skeleton_module._commutator_support
        monkeypatch.setattr(skeleton_module, "_commutator_support", lambda a, b: calls.append(a.shape) or original(a, b))
        code, _, _ = run(capsys, command[0], str(path), *command[1:], "--allow-violations")
        assert code == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("entry", [2.5, "3", True], ids=repr)
    def test_non_integer_entry_is_never_computed_on(self, capsys, tmp_path, entry):
        doc = tmp_path / "bad.json"
        doc.write_text(json.dumps({"vertices": ["a"], "matrices": [[[entry]]]}))
        code, out, _ = run(capsys, "phase", str(doc), "--allow-violations")
        report = json.loads(out)
        assert code == 2
        assert "phase" not in report
        assert report["validation"]["violations"][0]["rule"] == "entry-integer"

    @pytest.mark.parametrize("command", ["validate", "components", "spectra", "phase", "kms"])
    def test_matrix_that_is_no_grid_is_a_violation(self, capsys, tmp_path, command):
        doc = tmp_path / "grid.json"
        doc.write_text('{"vertices": ["a"], "matrices": [5]}')
        extra = ["--beta", "1"] if command == "kms" else []
        code, out, err = run(capsys, command, str(doc), *extra)
        assert code == 2 and err == ""
        violations = json.loads(out)["validation"]["violations"]
        assert violations == [{"rule": "matrix-square", "message": "matrix 0 is not square", "where": [0]}]

    def test_flag_that_is_no_boolean_exits_1(self, capsys, tmp_path):
        doc = tmp_path / "flag.json"
        doc.write_text('{"vertices": ["a"], "matrices": [[[2]]], "rationally_independent": "false"}')
        code, out, err = run(capsys, "phase", str(doc))
        assert code == 1 and out == ""
        assert err == "input error: field 'rationally_independent': expected true or false, got 'false'\n"

    def test_dumbbell_emits_parseable_document(self, capsys):
        code, out, _ = run(
            capsys, "dumbbell", "--figure", "3", "--params", "5,3,10,13,11,9,1,2,1,1"
        )
        assert code == 0
        doc = parse_input(out)
        assert doc.vertices == ("u", "v", "w")
        assert doc.matrices[0][0] == (5, 1, 1)

    def test_dumbbell_figure2_accepted(self, capsys):
        code, out, _ = run(capsys, "dumbbell", "--figure", "2", "--params", "2,2,3,3,1,1")
        assert code == 0
        doc = parse_input(out)
        assert doc.matrices == (((2, 1), (0, 3)), ((2, 1), (0, 3)))

    def test_dumbbell_rejection_exits_2(self, capsys):
        code, out, _ = run(capsys, "dumbbell", "--figure", "2", "--params", "1,1,2,2,1,2")
        assert code == 2
        assert "bridge" in json.loads(out)["dumbbell"]["relation"]

    @pytest.mark.parametrize(
        "figure, params",
        [("2", "a,1,2,3,4,5"), ("2", " -1,2,3,4,5,6"), ("2", "1,2"), ("3", "5,3,10,13,11,9,1,2,1,-1")],
        ids=["not-integer", "negative", "too-few", "figure3-negative"],
    )
    def test_dumbbell_params_errors_name_the_flag(self, capsys, figure, params):
        count = 6 if figure == "2" else 10
        code, out, err = run(capsys, "dumbbell", "--figure", figure, f"--params={params}")
        assert (code, out) == (1, "")
        assert err == f"error: --params must be {count} comma-separated nonnegative integers, got {params!r}\n"

    def test_fuzz_clean(self, capsys):
        code, out, _ = run(capsys, "fuzz", "--seed", "3", "--count", "25")
        assert code == 0
        payload = json.loads(out)
        assert payload["fuzz"]["samples"] == 25
        assert payload["fuzz"]["contradictions"] == []

    @pytest.mark.parametrize(
        "option, message",
        [
            (("--count", "-5"), "--count must be at least 0, got -5"),
            (("--loops", "2"), "--loops must be lo:hi with integers lo <= hi, got '2'"),
            (("--loops", "9:2"), "--loops must be lo:hi with integers lo <= hi, got '9:2'"),
            (("--bridges", "1:x"), "--bridges must be lo:hi with integers lo <= hi, got '1:x'"),
            (("--loops=-3:4",), "--loops bundle sizes must be nonnegative, got '-3:4'"),
            (("--bridges=-2:0",), "--bridges bundle sizes must be nonnegative, got '-2:0'"),
            (("--bridges=-1:-1",), "--bridges bundle sizes must be nonnegative, got '-1:-1'"),
        ],
        ids=["count", "loops-one-value", "loops-empty", "bridges-not-integer", "loops-negative", "bridges-negative", "bridges-all-negative"],
    )
    def test_fuzz_argument_errors_name_the_flag(self, capsys, option, message):
        code, out, err = run(capsys, "fuzz", "--count", "3", *option)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    def test_fuzz_rejects_empty_bridges_up_front(self, capsys, monkeypatch):
        # Without --zero-wv every bridge bundle must be nonempty, so 0:0 can
        # never give a sample; the command must say so before sampling.
        monkeypatch.setattr("kgraphkms.cli.fuzz_ordering", lambda *a: pytest.fail("sampling started"))
        code, out, err = run(capsys, "fuzz", "--seed", "1", "--count", "5", "--bridges=0:0")
        assert (code, out) == (1, "")
        assert err == "error: --bridges must allow a nonempty bundle (hi >= 1) without --zero-wv, got '0:0'\n"

    def test_fuzz_empty_bridges_run_with_zero_wv(self, capsys):
        code, out, err = run(capsys, "fuzz", "--seed", "1", "--count", "5", "--bridges=0:0", "--zero-wv")
        assert (code, err) == (0, "")
        assert json.loads(out)["fuzz"]["samples"] == 5

    def test_fuzz_releases_each_sample_analysis(self, capsys, monkeypatch):
        # The analyses alive while a sample is decomposed: as many as the
        # samples so far if the command kept them, a handful if not.
        live, peaks = weakref.WeakSet(), []
        original = components.decompose

        def tracked(skel):
            decomp = original(skel)
            live.add(decomp)
            peaks[-1] = max(peaks[-1], len(live))
            return decomp

        monkeypatch.setattr(components, "decompose", tracked)
        for count in ("10", "40"):
            peaks.append(0)
            assert run(capsys, "fuzz", "--seed", "2", "--count", count)[0] == 0
        assert peaks[0] == peaks[1] <= 2

    @pytest.mark.parametrize(
        "extra, met, holds",
        [((), 86, 86), (("--zero-wv",), 0, 64)],
        ids=["default", "zero-wv"],
    )
    def test_fuzz_report_is_pinned(self, capsys, extra, met, holds):
        # Recorded before the sampler was last rewritten; the same draws
        # must give the same report byte for byte.
        code, out, err = run(capsys, "fuzz", "--seed", "1", "--count", "500", *extra)
        assert (code, err) == (0, "")
        fuzz = {
            "conclusion_holds": holds,
            "contradictions": [],
            "hypothesis_met": met,
            "hypothesis_not_met": 500 - met,
            "samples": 500,
            "seed": 1,
        }
        assert out == json.dumps({"fuzz": fuzz}, indent=2) + "\n"

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{nope")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 1
        assert "input error" in err

    def test_stdin_input(self, capsys, monkeypatch):
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(Path(EX1).read_text()))
        code, out, _ = run(capsys, "validate", "-")
        assert code == 0
        assert json.loads(out)["validation"]["passed"]


class TestNonFiniteInput:
    """Infinite, NaN or overflowing numbers end in a message and exit 1 or 2."""

    @pytest.mark.parametrize(
        "entry", ["1e400", "Infinity", "-Infinity", "NaN", pytest.param("1" + "0" * 400, id="10**400")]
    )
    @pytest.mark.parametrize("command", ["validate", "components", "spectra", "phase", "kms"])
    def test_non_finite_matrix_entry_is_an_input_error(self, capsys, tmp_path, entry, command):
        doc = tmp_path / "inf.json"
        doc.write_text('{"vertices": ["a"], "matrices": [[[%s]]]}' % entry)
        extra = ["--beta", "1"] if command == "kms" else []
        code, out, err = run(capsys, command, str(doc), *extra)
        assert code == 1
        assert out == ""
        assert "input error" in err and "A_0(0,0)" in err

    @pytest.mark.parametrize(
        "entry", ["1e400", "Infinity", "-Infinity", "NaN", pytest.param("-1" + "0" * 400, id="-10**400")]
    )
    def test_message_names_the_first_bad_entry(self, entry):
        # Entries that are no number are left to skeleton validation.
        text = '{"vertices": ["a", "b"], "matrices": [[[1, "x"], [null, 3]], [[4, 5], [%s, NaN]]]}' % entry
        with pytest.raises(ParseError) as raised:
            parse_input(text)
        assert str(raised.value) == "field 'matrices': entry A_1(1,0) is infinite, NaN or beyond the float range"

    def test_entries_that_are_no_number_pass_the_parser(self):
        doc = parse_input('{"vertices": ["a"], "matrices": [[["1e400"]], [[null]], [[[1, 1e400]]], [[{}]]]}')
        assert doc.matrices == ((("1e400",),), ((None,),), (([1, float("inf")],),), (({},),))

    @pytest.mark.parametrize("entry", ["1e400", "Infinity", "NaN"])
    def test_non_finite_dynamics_entry_is_a_parse_error(self, entry):
        text = '{"vertices": ["a"], "matrices": [[[2]]], "dynamics": {"type": "explicit", "r": [%s]}}'
        with pytest.raises(ParseError, match="dynamics.r"):
            parse_input(text % entry)

    @pytest.mark.parametrize("beta", ["nan", "inf", "-inf", "0", "-1"])
    def test_beta_must_be_finite_and_positive(self, capsys, beta):
        with pytest.raises(SystemExit) as exit_info:
            main(["kms", EX1, f"--beta={beta}"])
        assert exit_info.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "--beta" in out.err and "finite" in out.err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1", "x"])
    @pytest.mark.parametrize("command", ["validate", "components", "spectra", "phase", "kms"])
    def test_tol_must_be_finite_and_positive(self, capsys, command, tol):
        # An infinite tolerance would print "state": Infinity, which is no
        # JSON, and switch the emission check off.
        extra = ["--beta", "1"] if command == "kms" else []
        with pytest.raises(SystemExit) as exit_info:
            main([command, EX1, f"--tol={tol}", *extra])
        assert exit_info.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"argument --tol: must be a finite number above 0, got '{tol}'" in out.err

    @pytest.mark.parametrize("command", ["validate", "components", "spectra", "phase", "kms"])
    def test_small_tol_is_reported(self, capsys, command):
        extra = ["--beta", "1"] if command == "kms" else []
        code, out, _ = run(capsys, command, EX1, "--tol", "1e-7", *extra)
        assert code == 0
        assert json.loads(out)["tolerances"] == {"state": 1e-7}

    def test_overflowing_growth_factor_is_an_error_not_a_traceback(self, capsys):
        from kgraphkms import Skeleton, extreme_states_at, normalize_dynamics

        code, out, err = run(capsys, "kms", EX1, "--beta", "500")
        assert code == 1
        assert out == ""
        assert "overflows" in err
        doc = parse_input(Path(EX1).read_text())
        skel = Skeleton(doc.vertices, doc.matrices)
        with pytest.raises(ValueError, match="overflows"):
            extreme_states_at(skel, normalize_dynamics(skel), 500.0)
        # Where the factor is finite the states are still returned.
        code, out, _ = run(capsys, "kms", EX1, "--beta", "400")
        assert code == 0
        assert json.loads(out)["kms"]["extreme_count"] == 3

    @pytest.mark.parametrize("command", [["phase"], ["kms", "--beta", "2"]])
    def test_overflowing_dynamics_scale_names_the_entry(self, capsys, tmp_path, command):
        doc = tmp_path / "tiny.json"
        doc.write_text(
            '{"vertices": ["a"], "k": 1, "matrices": [[[3]]], "dynamics": '
            '{"type": "explicit", "r": [1e-320]}, "rationally_independent": true}'
        )
        code, out, err = run(capsys, command[0], str(doc), *command[1:])
        assert code == 1
        assert out == ""
        assert "dynamics entry 0" in err and "overflows" in err
        assert "Perron roots" not in err


class TestEmissionCheck:
    @pytest.mark.parametrize("command", ["kms", "phase"])
    def test_every_emitted_state_is_checked_in_the_top_frame(self, capsys, monkeypatch, command):
        # The check runs before the first byte of the report is written.
        import kgraphkms.cli as cli
        from dataclasses import replace

        def nudged(states):
            first, *rest = states
            m = first.m.copy()
            m[0] += 1e-6
            return (replace(first, m=m), *rest)

        if command == "kms":
            states_at = cli.extreme_states_at
            monkeypatch.setattr(cli, "extreme_states_at", lambda *args, **kwargs: nudged(states_at(*args, **kwargs)))
            argv = ("kms", EX1, "--beta", "1.5")
        else:
            diagram_of = cli.phase_diagram

            def nudged_diagram(*args, **kwargs):
                diagram = diagram_of(*args, **kwargs)
                first, *rest = diagram.critical_points
                return replace(diagram, critical_points=(nudged(first), *rest))

            monkeypatch.setattr(cli, "phase_diagram", nudged_diagram)
            argv = ("phase", EX1)
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "failed verification at emission" in err
        assert float(re.search(r"l1_error=([^,]+),", err)[1]) == pytest.approx(1e-6)


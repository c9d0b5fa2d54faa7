"""Input document parsing and report serialisation.

The input format is a single JSON object: vertex labels, the colour count,
row-major matrices with ``matrices[i][row][col]`` counting colour-i edges
from ``vertices[col]`` into ``vertices[row]``, a dynamics block, and the
rational-independence attestation. Reports serialise to canonical JSON
(sorted keys) or to a human-readable text form in which recognisable small
rationals are printed exactly. Both are written as they are formatted, one
container at a time, through a ``write`` sink, so the whole text is never
held; the JSON is byte for byte ``json.dumps(report, indent=2,
sort_keys=True)``, with each ``LabelledRow`` taken as the dict it stands for.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from json.encoder import encode_basestring_ascii
from typing import Any, Callable

import numpy as np

RATIONAL_MAX_DENOMINATOR = 10**6
# A true rational stored in a float is off by at most a few ulps; convergents
# of irrationals with denominator near 1e6 sit around 1e-13 away, so the snap
# tolerance must stay well below that to avoid false matches.
RATIONAL_SNAP_RTOL = 1e-15


class ParseError(ValueError):
    """Malformed input document; the message carries line/field context."""


@dataclass(frozen=True)
class InputDocument:
    vertices: tuple[str, ...]
    matrices: tuple
    dynamics_type: str
    r: tuple[float, ...] | None
    normalize: bool
    rationally_independent: bool
    warnings: tuple[str, ...]


def parse_input(text: str) -> InputDocument:
    """Parse and structurally check an input document.

    Shape errors in the matrices are left to skeleton validation; this
    layer only enforces the document schema, never coercing: a bool is no
    number, and only a bool is a flag. A missing rational-independence
    attestation defaults to true with a recorded warning.
    """
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ParseError("top-level value must be a JSON object")

    warnings: list[str] = []

    vertices = raw.get("vertices")
    if not isinstance(vertices, list) or not vertices:
        raise ParseError("field 'vertices': expected a nonempty list of labels")
    if not all(isinstance(v, str) for v in vertices):
        raise ParseError("field 'vertices': labels must be strings")

    k = raw.get("k")
    matrices = raw.get("matrices")
    if not isinstance(matrices, list) or not matrices:
        raise ParseError("field 'matrices': expected a nonempty list of integer grids")
    if k is None:
        k = len(matrices)
    if type(k) is not int or k < 1:
        raise ParseError("field 'k': expected a positive integer")
    if len(matrices) != k:
        raise ParseError(f"field 'matrices': got {len(matrices)} grids, expected k={k}")
    rows = [row for m in matrices if isinstance(m, list) for row in m if isinstance(row, list)]
    if not _all_finite(chain.from_iterable(rows)):
        # Walk entry by entry only to name the first bad one.
        for i, m in enumerate(matrices):
            for v, row in enumerate(m if isinstance(m, list) else ()):
                for w, x in enumerate(row if isinstance(row, list) else ()):
                    if not _finite(x):
                        raise ParseError(
                            f"field 'matrices': entry A_{i}({v},{w}) is infinite, NaN or beyond the float range"
                        )

    dynamics = raw.get("dynamics", {"type": "preferred"})
    if "dynamics" not in raw:
        warnings.append("no dynamics given; defaulting to preferred")
    if not isinstance(dynamics, dict) or "type" not in dynamics:
        raise ParseError("field 'dynamics': expected an object with a 'type' key")
    dtype = dynamics["type"]
    r = None
    normalize = True
    if dtype == "preferred":
        pass
    elif dtype == "explicit":
        raw_r = dynamics.get("r")
        if not isinstance(raw_r, list) or len(raw_r) != k:
            raise ParseError(f"field 'dynamics.r': expected a list of {k} positive reals")
        try:
            # Anything but an int or a float, a bool included, fails the finiteness check.
            r = tuple(float(t) if type(t) in (int, float) else math.nan for t in raw_r)
        except OverflowError as exc:
            raise ParseError("field 'dynamics.r': entries must be finite numbers") from exc
        if not all(map(math.isfinite, r)):
            raise ParseError("field 'dynamics.r': entries must be finite numbers")
        if any(t <= 0 for t in r):
            raise ParseError("field 'dynamics.r': entries must be strictly positive")
        normalize = _flag(dynamics, "normalize", "dynamics.normalize")
    else:
        raise ParseError(f"field 'dynamics.type': unknown type {dtype!r}")

    if "rationally_independent" in raw:
        independent = _flag(raw, "rationally_independent", "rationally_independent")
    else:
        independent = True
        warnings.append(
            "rational independence of the dynamics not attested; assuming true "
            "(uniqueness of convex decompositions relies on it)"
        )

    return InputDocument(
        vertices=tuple(vertices),
        matrices=tuple(tuple(tuple(row) if isinstance(row, list) else row for row in m) if isinstance(m, list) else m for m in matrices),
        dynamics_type=dtype,
        r=r,
        normalize=normalize,
        rationally_independent=independent,
        warnings=tuple(warnings),
    )


def _flag(fields: dict, key: str, name: str) -> bool:
    """``fields[key]``, true when absent, which must be a JSON boolean; ``name`` is the field in messages."""
    value = fields.get(key, True)
    if not isinstance(value, bool):
        raise ParseError(f"field {name!r}: expected true or false, got {value!r}")
    return value


def _all_finite(entries) -> bool:
    """Whether every entry is a finite number, decided in one pass in C.

    The exact sum ``math.fsum`` is finite exactly when every entry is and
    the total fits a float. It raises on an entry that is no number, which
    ``_finite`` lets through, and on an overflowing total: False only sends
    the caller to check entry by entry.
    """
    try:
        return math.isfinite(math.fsum(entries))
    except (TypeError, ValueError, OverflowError):
        return False


def _finite(x) -> bool:
    """False for infinities, NaN and integers beyond the float range; non-numbers pass.

    The numeric layer works in floats, so such entries could never be
    analysed; anything that is not a number is left to skeleton validation.
    """
    try:
        return math.isfinite(x)
    except OverflowError:
        return False
    except TypeError:
        return True


def input_payload(doc: InputDocument) -> dict[str, Any]:
    """The JSON value of an input document with every default written out; it parses back to it, less its warnings."""
    payload: dict[str, Any] = {
        "vertices": list(doc.vertices),
        "k": len(doc.matrices),
        "matrices": [[list(row) for row in m] for m in doc.matrices],
        "rationally_independent": doc.rationally_independent,
    }
    if doc.dynamics_type == "preferred":
        payload["dynamics"] = {"type": "preferred"}
    else:
        payload["dynamics"] = {
            "type": "explicit",
            "r": list(doc.r),
            "normalize": doc.normalize,
        }
    return payload


def format_number(x: float) -> str:
    """Exact small rational when one fits, otherwise an approximate decimal."""
    if x == 0:
        return "0"  # most weights of a large report, off each state's support
    frac = Fraction(x).limit_denominator(RATIONAL_MAX_DENOMINATOR)
    if abs(float(frac) - x) <= RATIONAL_SNAP_RTOL * max(1.0, abs(x)):
        return str(frac)
    return f"≈{x:.12g}"


@dataclass(frozen=True, eq=False)
class LabelledRow:
    """Vertex weights that the writers write as the dict ``dict(zip(labels, row))``, without building it.

    ``row`` is a float64 array. A report's rows share one ``labels`` tuple,
    so the JSON writer sorts it and encodes its keys once per report.
    """

    labels: tuple[str, ...]
    row: np.ndarray

    def __len__(self) -> int:
        return len(self.labels)


_CONTAINERS = (dict, list, tuple, LabelledRow)
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_scalar(x: Any) -> str | None:
    """``x`` as ``json.dumps`` writes it, or None when ``x`` is a nonempty container."""
    if isinstance(x, float):
        text = float.__repr__(x)
        return _NON_FINITE.get(text, text)
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, _CONTAINERS):
        return None if x else "{}" if isinstance(x, (dict, LabelledRow)) else "[]"
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def _json_scalars(values: list) -> list[str | None]:
    """``_json_scalar`` of each value, with one C-level pass when all are floats, as a state's weights are."""
    try:
        texts = list(map(float.__repr__, values))
    except TypeError:
        return list(map(_json_scalar, values))
    if _NON_FINITE.keys().isdisjoint(texts):
        return texts
    return [_NON_FINITE.get(t, t) for t in texts]


def _json_key(key: Any) -> str:
    """A dict key as ``json.dumps`` writes it: numbers, booleans and None become strings."""
    if not isinstance(key, str):
        if not (key is None or isinstance(key, (int, float))):
            raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
        key = _json_scalar(key)
    return encode_basestring_ascii(key)


def _write_json(value: Any, write: Callable[[str], Any]) -> None:
    """Write ``json.dumps(value, indent=2, sort_keys=True)`` through ``write``, container by container.

    A container whose items are all scalars (or empty containers) is one
    join and one write; a container that holds others writes the text up to
    each of them, then lets it write itself. Each distinct set of string
    keys is sorted, and its ``"key": `` heads encoded, once per call; a
    ``LabelledRow`` takes its weights in that order straight from its row.
    """
    heads: dict = {}

    def keyed(keys: tuple, pad: str) -> tuple[list, list[str], np.ndarray]:
        """The sorted keys, their heads and their positions in ``keys``."""
        entry = heads.get((keys, pad))
        if entry is None:
            order = sorted(keys)
            texts = [f",\n{pad}{_json_key(k)}: " for k in order]
            texts[0] = texts[0][1:]  # no comma before the first item
            place = {k: i for i, k in enumerate(keys)}
            entry = order, texts, np.array([place[k] for k in order], dtype=np.intp)
            # Only string keys are kept: 1, 1.0 and True are one key but print differently.
            if all(type(k) is str for k in keys):
                heads[keys, pad] = entry
        return entry

    def container(value, pad: str) -> None:
        inner = pad + "  "
        if isinstance(value, LabelledRow):
            _, item_heads, positions = keyed(value.labels, inner)
            values = value.row[positions].tolist()
            opening, closing = "{", f"\n{pad}}}"
        elif isinstance(value, dict):
            order, item_heads, _ = keyed(tuple(value), inner)
            values = [value[k] for k in order]
            opening, closing = "{", f"\n{pad}}}"
        else:
            values = value
            item_heads = [f"\n{inner}"] + [f",\n{inner}"] * (len(value) - 1)
            opening, closing = "[", f"\n{pad}]"
        texts = _json_scalars(values)
        if None not in texts:
            write(opening + "".join(map(str.__add__, item_heads, texts)) + closing)
            return
        parts = [opening]
        for head, item, text in zip(item_heads, values, texts):
            parts.append(head)
            if text is None:
                write("".join(parts))
                parts = []
                container(item, inner)
            else:
                parts.append(text)
        parts.append(closing)
        write("".join(parts))

    text = _json_scalar(value)
    if text is None:
        container(value, "")
    else:
        write(text)


def _trailing_whitespace_held(write: Callable[[str], Any]) -> Callable[[str], None]:
    """A sink that passes text on to ``write`` but holds back trailing whitespace.

    Whitespace is written only once more text follows it, so what reaches
    ``write`` is the whole text with ``str.rstrip`` applied.
    """
    held = ""

    def sink(text: str) -> None:
        nonlocal held
        body = text.rstrip()
        if body:
            write(held + body)
            held = text[len(body):]
        else:
            held += text

    return sink


def _write_text(value: Any, pad: str, write: Callable[[str], Any]) -> None:
    """Write the lines of one report value at indentation ``pad``, container by container."""
    lines: list[str] = []
    if isinstance(value, LabelledRow):
        lines.extend(f"{pad}{key}: {format_number(x)}\n" for key, x in zip(value.labels, value.row.tolist()))
    elif isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, _CONTAINERS) and item:
                lines.append(f"{pad}{key}:\n")
                write("".join(lines))
                lines = []
                _write_text(item, pad + "  ", write)
            else:
                lines.append(f"{pad}{key}: {_scalar_text(item)}\n")
    elif isinstance(value, (list, tuple)):
        texts = [_scalar_text(x) for x in value if not isinstance(x, _CONTAINERS)]
        if len(texts) < len(value):
            for i, item in enumerate(value):
                write(f"{pad}- [{i}]\n")
                _write_text(item, pad + "  ", write)
        elif any(", " in t for t in texts):
            # One line each, where a joining ", " could not be told from the items' own.
            lines.extend(f"{pad}- {t}\n" for t in texts)
        else:
            lines.append(pad + "[" + ", ".join(texts) + "]\n")
    else:
        lines.append(pad + _scalar_text(value) + "\n")
    if lines:
        write("".join(lines))


def _scalar_text(x: Any) -> str:
    if isinstance(x, float):
        return format_number(x)
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(_scalar_text(t) for t in x) + "]"
    if x is None:
        return "-"
    return str(x)


def emit_report(report: dict, fmt: str, write: Callable[[str], Any]) -> None:
    """Serialise a report through ``write``: canonical JSON or readable text with rationals.

    The text goes through ``write`` in pieces, as each container is formatted.
    """
    if fmt == "json":
        _write_json(report, write)
    elif fmt == "text":
        sink = _trailing_whitespace_held(write)
        for section, value in report.items():
            sink(f"== {section} ==\n")
            _write_text(value, "  ", sink)
            sink("\n")
        write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")

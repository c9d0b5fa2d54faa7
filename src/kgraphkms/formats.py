"""Input document parsing and report serialisation.

The input format is a single JSON object: vertex labels, the colour count,
row-major matrices with ``matrices[i][row][col]`` counting colour-i edges
from ``vertices[col]`` into ``vertices[row]``, a dynamics block, and the
rational-independence attestation. Reports serialise to canonical JSON
(sorted keys) or to a human-readable text form in which recognisable small
rationals are printed exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Any

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


def input_to_json(doc: InputDocument) -> str:
    """Canonical JSON for an input document; stable under parse/emit cycles."""
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
    return json.dumps(payload, indent=2, sort_keys=True)


def format_number(x: float) -> str:
    """Exact small rational when one fits, otherwise an approximate decimal."""
    frac = Fraction(x).limit_denominator(RATIONAL_MAX_DENOMINATOR)
    if abs(float(frac) - x) <= RATIONAL_SNAP_RTOL * max(1.0, abs(x)):
        return str(frac)
    return f"≈{x:.12g}"


def _render_text(value: Any, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        for key, item in value.items():
            if isinstance(item, (dict, list, tuple)) and item:
                lines.append(f"{pad}{key}:")
                _render_text(item, indent + 1, lines)
            else:
                lines.append(f"{pad}{key}: {_scalar_text(item)}")
    elif isinstance(value, (list, tuple)):
        texts = [_scalar_text(x) for x in value if not isinstance(x, (dict, list, tuple))]
        if len(texts) < len(value):
            for i, item in enumerate(value):
                lines.append(f"{pad}- [{i}]")
                _render_text(item, indent + 1, lines)
        elif any(", " in t for t in texts):
            # One line each, where a joining ", " could not be told from the items' own.
            lines.extend(f"{pad}- {t}" for t in texts)
        else:
            lines.append(pad + "[" + ", ".join(texts) + "]")
    else:
        lines.append(pad + _scalar_text(value))


def _scalar_text(x: Any) -> str:
    if isinstance(x, float):
        return format_number(x)
    if isinstance(x, (list, tuple)):
        return "[" + ", ".join(_scalar_text(t) for t in x) + "]"
    if x is None:
        return "-"
    return str(x)


def emit_report(report: dict, fmt: str = "json") -> str:
    """Serialise a report: canonical JSON or readable text with rationals."""
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    if fmt == "text":
        lines: list[str] = []
        for section, value in report.items():
            lines.append(f"== {section} ==")
            _render_text(value, 1, lines)
            lines.append("")
        return "\n".join(lines).rstrip() + "\n"
    raise ValueError(f"unknown format {fmt!r}")

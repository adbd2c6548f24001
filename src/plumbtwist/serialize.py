"""
The machine-readable complex format.

A complex document is JSON: category parameters (n, char, optional betti0),
a summand list of {vertex, position}, and a differential as a list of
{from, to, basis, coeff} records with coefficients as decimal strings
("num/den" over the rationals, plain integers mod p). Parsing validates the
complex and rejects bad documents with located diagnostics; serializing
always emits the canonical form (differential sorted by (from, to, basis),
coefficients normalized), so serialize(parse(x)) is the canonical form of x.
"""

from __future__ import annotations

import json
import re

from .category import CategoryParams, ParameterError, make_params
from .complexes import Summand, TwistedComplex, Violation, validate
from .linalg import axpy, is_int


class DocumentError(ValueError):
    """A structurally bad document (schema level), with a located reason."""


class ValidationRejection(ValueError):
    """A well-formed document whose complex fails the invariants."""

    def __init__(self, violations: list[Violation]):
        self.violations = violations
        super().__init__("; ".join(f"[{v.kind} at {v.slot}] {v.message}" for v in violations))


def params_to_dict(params: CategoryParams) -> dict:
    doc = {"n": params.n, "char": params.field.characteristic}
    if params.betti0 is not None:
        doc["betti0"] = list(params.betti0)
    return doc


# The coefficient strings Field.format emits: ASCII digits, optional minus, optional denominator.
COEFFICIENT = re.compile(r"-?[0-9]+(/[0-9]+)?")


def params_from_dict(doc: dict) -> CategoryParams:
    for key in ("n", "char"):
        if key not in doc:
            raise DocumentError(f"document is missing the required field {key!r}")
        if not is_int(doc[key]):
            raise DocumentError(f"field {key!r} must be an integer, got {doc[key]!r}")
    betti0 = doc.get("betti0")
    if betti0 is not None:
        if not isinstance(betti0, list) or not all(is_int(v) for v in betti0):
            raise DocumentError("betti0 must be a list of integers")
        betti0 = tuple(betti0)
    try:
        return make_params(doc["n"], doc["char"], betti0)
    except ParameterError as exc:
        raise DocumentError(f"bad category parameters: {exc}") from exc


def complex_to_dict(c: TwistedComplex) -> dict:
    field = c.params.field
    doc = params_to_dict(c.params)
    doc["summands"] = [{"vertex": s.vertex, "position": s.position} for s in c.summands]
    diff = []
    for (i, j), combo in sorted(c.delta.items()):
        for name in sorted(combo):
            diff.append({"from": i, "to": j, "basis": name, "coeff": field.format(combo[name])})
    doc["differential"] = diff
    return doc


def complex_from_dict(doc: dict) -> TwistedComplex:
    if not isinstance(doc, dict):
        raise DocumentError("complex document must be a JSON object")
    params = params_from_dict(doc)
    field = params.field
    raw_summands = doc.get("summands")
    if not isinstance(raw_summands, list):
        raise DocumentError("field 'summands' must be a list")
    summands = []
    for k, item in enumerate(raw_summands):
        if not isinstance(item, dict) or not is_int(item.get("vertex")) or not is_int(item.get("position")):
            raise DocumentError(f"summand {k} must be an object with integer 'vertex' and 'position'")
        if item["vertex"] not in (0, 1):
            raise DocumentError(f"summand {k} has vertex {item['vertex']}, expected 0 or 1")
        summands.append(Summand(item["vertex"], item["position"]))
    delta: dict[tuple[int, int], dict] = {}
    raw_diff = doc.get("differential", [])
    if not isinstance(raw_diff, list):
        raise DocumentError("field 'differential' must be a list")
    for k, item in enumerate(raw_diff):
        if not isinstance(item, dict):
            raise DocumentError(f"differential entry {k} must be an object")
        try:
            i, j = item["from"], item["to"]
            basis = item["basis"]
            coeff = item["coeff"]
        except KeyError as exc:
            raise DocumentError(f"differential entry {k} is missing {exc.args[0]!r}") from exc
        if not is_int(i) or not is_int(j):
            raise DocumentError(f"differential entry {k}: 'from' and 'to' must be summand indices")
        if not (0 <= i < len(summands)) or not (0 <= j < len(summands)):
            raise DocumentError(f"differential entry {k}: summand index out of range ({i} -> {j})")
        if not isinstance(basis, str):
            raise DocumentError(f"differential entry {k}: 'basis' must be a string")
        if not (is_int(coeff) or isinstance(coeff, str) and COEFFICIENT.fullmatch(coeff)):
            raise DocumentError(f"differential entry {k}: coefficient {coeff!r} must be an integer or a decimal string")
        try:
            value = field.element(coeff)
        except ValueError as exc:  # FieldError
            raise DocumentError(f"differential entry {k}: bad coefficient {coeff!r}: {exc}") from exc
        if value:
            axpy(delta.setdefault((i, j), {}), {basis: value}, 1, field.characteristic)
    c = TwistedComplex(params, summands, delta)
    bad = validate(c)
    if bad:
        raise ValidationRejection(bad)
    return c


def parse_complex(text: str) -> TwistedComplex:
    """Parse a JSON document into a validated complex."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError and over-long integers
        raise DocumentError(f"not valid JSON: {exc}") from exc
    return complex_from_dict(doc)


def serialize_complex(c: TwistedComplex) -> str:
    return canonical_json(complex_to_dict(c))


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))

"""JSON Schemas of the CLI's payloads, one per JSON-writing subcommand.

The CLI writes each payload from its own dict literals and to_dict
methods; the tests check what it writes against these schemas with
jsonschema, and each schema against the metaschema.
"""

import jsonschema

from newtonosc.cli import SCHEMA_ID
from newtonosc.scaling import VERDICT_FAIL, VERDICT_INCONCLUSIVE, VERDICT_PASS

_PROV = {
    "type": "object",
    "required": ["seed"],
    "properties": {"seed": {"type": "integer"}},
}

_SAMPLE = {
    "type": "object",
    "required": ["lambda", "n", "norm", "conv_err", "iterations", "valid"],
}


def _payload_schema(required, **properties):
    """Schema of a CLI payload: schema id and provenance, then the command's keys."""
    return {
        "type": "object",
        "required": ["schema", "provenance", *required],
        "properties": {"schema": {"const": SCHEMA_ID}, "provenance": _PROV, **properties},
    }


SCHEMAS = {
    "analyze": _payload_schema(
        ["phase", "mixed_derivative", "polygon", "decay", "branches"],
        polygon={"type": "object", "required": ["vertices", "A", "B"]},
        decay={
            "type": "object",
            "required": ["t0", "delta", "boundary_crossing", "A", "B", "edges", "degeneracy"],
        },
        branches={"type": "object", "required": ["branches", "total_multiplicity"]},
    ),
    "norm": _payload_schema(
        ["samples"], samples={"type": "array", "items": _SAMPLE, "minItems": 1}
    ),
    "sweep": _payload_schema(
        ["report"],
        report={
            "type": "object",
            "required": ["samples", "slope", "stderr", "predicted", "tol_slope", "verdict"],
            "properties": {
                "verdict": {"enum": [VERDICT_PASS, VERDICT_FAIL, VERDICT_INCONCLUSIVE]},
                "samples": {"type": "array", "items": _SAMPLE},
                # a Fail sweep's retry at half the radius is a whole report
                "retry": {"$ref": "#/properties/report"},
            },
        },
    ),
    "blocks": _payload_schema(
        ["estimates", "summary"],
        estimates={"type": "array"},
        summary={
            "type": "object",
            "required": ["lambda", "D", "j_range", "worst_ratio", "violations", "resolution_failures"],
        },
    ),
    "dyadpol": _payload_schema(
        ["profile", "corners", "set", "verification"],
        verification={"type": "object", "required": ["pass", "min_observed", "bound"]},
    ),
}


def check_payload(command: str, payload) -> None:
    """Raise jsonschema.ValidationError where payload breaks command's schema."""
    jsonschema.validate(payload, SCHEMAS[command])

"""Published JSON schemas for scenario files and run reports."""


#: printf format of every number in a report or CSV dump: 17 significant digits read back the same double.
NUMBER_FORMAT = "%.17g"


def number_text(v) -> str:
    """A report number: the 17-significant-digit decimal text of ``float(v)``."""
    return NUMBER_FORMAT % float(v)


CHECK_KINDS = [
    "group-check",
    "rep-check",
    "transform",
    "verify-local",
    "verify-bundle",
    "toy",
    "pairing",
]

#: The tolerance names the checks read, each with its default; ``tolerances`` accepts no other key.
TOLERANCES = {
    "metric": 1e-12, "det": 1e-12, "group_law": 1e-10, "algebraic": 1e-12,  # group-check
    "identity": 1e-12, "homomorphism": 1e-9, "anticommutator": 1e-12, "unitarity": 1e-10,  # rep-check
    "roundtrip": 1e-10, "gradient": 1e-6,  # transform
    "local": 1e-6, "bundle": 1e-8,  # verify-local, verify-bundle
    "commutator": 1e-14, "conjugation": 1e-10, "groupoid": 1e-10,  # toy
    "pairing_convergence": 1e-7, "pairing": 1e-6,  # pairing
}
TOLERANCE_NAMES = list(TOLERANCES)

_VEC4 = {"type": "array", "items": {"type": "number"}, "minItems": 4, "maxItems": 4}
_VEC6 = {"type": "array", "items": {"type": "number"}, "minItems": 6, "maxItems": 6}

_TERM = {
    "type": "object",
    "properties": {
        "coeff": {
            "oneOf": [
                {"type": "number"},
                {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
            ]
        },
        "powers": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0},
            "minItems": 4,
            "maxItems": 4,
        },
    },
    "required": ["coeff", "powers"],
    "additionalProperties": False,
}

_PACKET = {
    "type": "object",
    "properties": {
        "center": _VEC4,
        "width": {"type": "number", "exclusiveMinimum": 0},
        "components": {
            "oneOf": [
                {"type": "integer", "minimum": 1},
                {
                    "type": "array",
                    "minItems": 1,
                    "items": {
                        "oneOf": [
                            {"type": "number"},
                            {"type": "array", "items": _TERM, "minItems": 1},
                        ]
                    },
                },
            ]
        },
    },
    "additionalProperties": False,
}

SCENARIO_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "covariant-kit scenario",
    "type": "object",
    "properties": {
        "check": {"enum": CHECK_KINDS},
        "rep": {
            "type": "object",
            "properties": {
                "variant": {"enum": ["scalar", "vector", "spinor", "phase"]},
                "q": {"type": "number"},
                "e": {"type": "number"},
            },
            "required": ["variant"],
            "additionalProperties": False,
        },
        "field": {
            "oneOf": [
                _PACKET,
                {
                    "type": "object",
                    "properties": {"phi": _PACKET, "test": _PACKET},
                    "required": ["phi", "test"],
                    "additionalProperties": False,
                },
            ]
        },
        "group": {
            "type": "object",
            "properties": {
                "family": {"enum": ["poincare", "frame", "internal"]},
                "omega": _VEC6,
                "a": _VEC4,
                "b": {"type": "number"},
                "q": {"type": "number"},
                "e": {"type": "number"},
                "dim": {"type": "integer", "minimum": 2},
                "draws": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
            },
            "additionalProperties": False,
        },
        "grid": {
            "type": "object",
            "properties": {
                "bounds": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "number"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                    "minItems": 4,
                    "maxItems": 4,
                },
                "counts": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 2},
                    "minItems": 4,
                    "maxItems": 4,
                },
                "doublings": {"type": "integer", "minimum": 0},
                "sample_count": {"type": "integer", "minimum": 1},
                "sample_seed": {"type": "integer", "minimum": 0},
                "sample_box": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "fd": {
            "type": "object",
            "properties": {
                "step": {"type": "number", "exclusiveMinimum": 0},
                "order": {"enum": [2, 4]},
                "convergence_steps": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                },
            },
            "additionalProperties": False,
        },
        "tolerances": {
            "type": "object",
            "propertyNames": {"enum": TOLERANCE_NAMES},
            "additionalProperties": {"type": "number", "exclusiveMinimum": 0},
        },
        "output": {
            "type": "object",
            "properties": {
                "report": {"type": "string"},
                "dump_fields": {"type": "boolean"},
                "field_csv": {"type": "string"},
            },
            "additionalProperties": False,
        },
    },
    "required": ["check"],
    "additionalProperties": False,
}

_STRING_NUMBER = {"type": "string"}

_RESULT = {
    "type": "object",
    "properties": {
        "name": {"type": "string"},
        "passed": {"type": "boolean"},
        "sup_residual": _STRING_NUMBER,
        "tolerance": _STRING_NUMBER,
        "detail": {"type": "object"},
    },
    "required": ["name", "passed", "sup_residual", "tolerance"],
    "additionalProperties": False,
}

REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "covariant-kit report",
    "type": "object",
    "properties": {
        "schema_version": {"const": "1"},
        "artifact_version": {"type": "string"},
        "check": {"enum": CHECK_KINDS},
        "scenario": {"type": "object"},
        "overrides": {"type": "array", "items": {"type": "string"}},
        "threads": {"type": "integer"},
        "results": {"type": "array", "items": _RESULT, "minItems": 1},
        "tables": {"type": "object"},
        "pass": {"type": "boolean"},
        "timings": {"type": "object", "additionalProperties": _STRING_NUMBER},
        "timestamp": {"type": "string"},
    },
    "required": [
        "schema_version",
        "artifact_version",
        "check",
        "scenario",
        "results",
        "pass",
        "timings",
        "timestamp",
    ],
    "additionalProperties": False,
}

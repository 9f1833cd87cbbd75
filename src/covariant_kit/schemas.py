"""Published JSON schemas for scenario files and run reports, and the scenario validator."""

from collections import namedtuple
from copy import deepcopy
from itertools import islice

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
_SWITCHES_INVARIANCE = "No schema default: with group.omega or group.a present, the pairing check adds its invariance rows."
_FAMILY_DEFAULT = "No schema default: internal for a phase rep, else poincare in verify-local and frame in verify-bundle."

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
        "center": {**_VEC4, "default": [0.0, 0.0, 0.0, 0.0]},
        "width": {"type": "number", "exclusiveMinimum": 0, "default": 1.0},
        "components": {
            "description": "No schema default: absent, it is the representation's component count.",
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
                "q": {"type": "number", "default": 1.0},
                "e": {"type": "number", "default": 1.0},
            },
            "required": ["variant"],
            "additionalProperties": False,
            "default": {"variant": "scalar"},
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
            ],
            "default": {},
        },
        "group": {
            "type": "object",
            "properties": {
                "family": {"enum": ["poincare", "frame", "internal"], "description": _FAMILY_DEFAULT},
                "omega": {**_VEC6, "description": _SWITCHES_INVARIANCE},
                "a": {**_VEC4, "description": _SWITCHES_INVARIANCE},
                "b": {"type": "number", "default": 0.3},
                "q": {"type": "number", "default": 1.0},
                "e": {"type": "number", "default": 1.0},
                "dim": {"type": "integer", "minimum": 2, "default": 16},
                "draws": {"type": "integer", "minimum": 1, "default": 200},
                "seed": {"type": "integer", "minimum": 0, "default": 0},
            },
            "additionalProperties": False,
            "default": {},
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
                    "default": [[-8.0, 8.0]] * 4,
                },
                "counts": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 2},
                    "minItems": 4,
                    "maxItems": 4,
                    "default": [9, 9, 9, 9],
                },
                "doublings": {"type": "integer", "minimum": 0, "default": 3},
                "sample_count": {"type": "integer", "minimum": 1, "default": 200},
                "sample_seed": {"type": "integer", "minimum": 0, "default": 0},
                "sample_box": {"type": "number", "exclusiveMinimum": 0, "default": 2.0},
            },
            "additionalProperties": False,
            "default": {},
        },
        "fd": {
            "type": "object",
            "properties": {
                "step": {"type": "number", "exclusiveMinimum": 0, "default": 1e-4},
                "order": {"enum": [2, 4], "default": 2},
                "convergence_steps": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "default": [],
                },
            },
            "additionalProperties": False,
            "default": {},
        },
        "tolerances": {
            "type": "object",
            "propertyNames": {"enum": TOLERANCE_NAMES},
            "additionalProperties": {"type": "number", "exclusiveMinimum": 0},
            "description": "No default per name here: the names and their defaults are one table, TOLERANCES.",
            "default": {},
        },
        "output": {
            "type": "object",
            "properties": {
                "report": {"type": "string", "description": "No schema default: the scenario file's stem + .report.json."},
                "dump_fields": {"type": "boolean", "default": False},
                "field_csv": {"type": "string", "default": "field_dump.csv"},
            },
            "additionalProperties": False,
            "default": {},
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


class ValidationError(ValueError):
    """An instance that breaks its schema: the JSON ``path`` of the offending value and a ``message``."""

    def __init__(self, path: tuple, message: str):
        super().__init__(message)
        self.path, self.message = path, message


# The twelve draft-7 keywords ``validate`` implements, then the annotations it ignores.
_KEYWORDS = {
    "type", "enum", "properties", "required", "additionalProperties", "oneOf",
    "items", "minItems", "maxItems", "minimum", "exclusiveMinimum", "propertyNames",
    "$schema", "title", "description", "default",
}
_TYPES = {"object": dict, "array": list, "string": str, "boolean": bool}

# One failed keyword: ``path`` is relative to the instance of the enclosing
# ``oneOf`` (or the root), ``context`` holds a failed ``oneOf``'s branch errors,
# ``typed`` says the keyword's schema has a ``type`` the value matches.
_Error = namedtuple("_Error", "path keyword message context typed")

# A value in a message prints as ``repr``, cut to "..." past this many
# nested levels, items a level or characters a scalar, so a value of any
# depth prints without recursing past the limit.
_SHOWN_LEVELS, _SHOWN_ITEMS, _SHOWN_CHARS = 8, 64, 256


def _shown(value, levels: int = _SHOWN_LEVELS) -> str:
    if not isinstance(value, (dict, list)):
        text = repr(value)
        return text if len(text) <= _SHOWN_CHARS else text[:_SHOWN_CHARS] + "..."
    count = _SHOWN_ITEMS if levels else 0
    if isinstance(value, dict):
        parts = [f"{_shown(k)}: {_shown(v, levels - 1)}" for k, v in islice(value.items(), count)]
    else:
        parts = [_shown(v, levels - 1) for v in value[:count]]
    if len(value) > count:
        parts.append("...")
    return ("{%s}" if isinstance(value, dict) else "[%s]") % ", ".join(parts)


def _is_type(value, name: str) -> bool:
    """Draft-7 types: a bool is no number, and a float with no fraction is an integer."""
    if name in ("number", "integer"):
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        return number and (name == "number" or isinstance(value, int) or value.is_integer())
    return isinstance(value, _TYPES[name])


def _errors(value, schema: dict) -> list:
    """Every keyword of ``schema`` that ``value`` fails, in jsonschema's order."""
    errors = []
    typed = "type" in schema and _is_type(value, schema["type"])

    def fail(keyword, message, context=()):
        errors.append(_Error((), keyword, message, list(context), typed))

    def descend(key, subvalue, subschema):
        errors.extend(e._replace(path=(key, *e.path)) for e in _errors(subvalue, subschema))

    obj, array, number = isinstance(value, dict), isinstance(value, list), _is_type(value, "number")
    for keyword, arg in schema.items():
        if keyword not in _KEYWORDS:
            raise ValueError(f"schema keyword {keyword!r} is not implemented")
        if keyword == "type" and not typed:
            fail(keyword, f"{_shown(value)} is not of type {arg!r}")
        elif keyword == "enum" and not _members(value, arg):
            fail(keyword, f"{_shown(value)} is not one of {arg!r}")
        elif keyword == "oneOf":
            branches = [_errors(value, sub) for sub in arg]
            valid = [sub for sub, errs in zip(arg, branches) if not errs]
            if not valid:
                fail(keyword, f"{_shown(value)} is not valid under any of the given schemas", sum(branches, []))
            elif len(valid) > 1:
                fail(keyword, f"{_shown(value)} is valid under each of {', '.join(map(repr, valid[1:] + valid[:1]))}")
        elif keyword == "properties" and obj:
            for key, sub in arg.items():
                if key in value:
                    descend(key, value[key], sub)
        elif keyword == "required" and obj:
            for key in arg:
                if key not in value:
                    fail(keyword, f"{key!r} is a required property")
        elif keyword == "additionalProperties" and obj:
            extras = [key for key in value if key not in schema.get("properties", {})]
            for key in extras if isinstance(arg, dict) else ():
                descend(key, value[key], arg)
            if arg is False and extras:
                names, verb = ", ".join(map(repr, sorted(extras))), "was" if len(extras) == 1 else "were"
                fail(keyword, f"Additional properties are not allowed ({names} {verb} unexpected)")
        elif keyword == "propertyNames" and obj:
            for key in value:
                errors.extend(_errors(key, arg))
        elif keyword == "items" and array:
            for index, item in enumerate(value):
                descend(index, item, arg)
        elif keyword == "minItems" and array and len(value) < arg:
            fail(keyword, f"{_shown(value)} {'should be non-empty' if arg == 1 else 'is too short'}")
        elif keyword == "maxItems" and array and len(value) > arg:
            fail(keyword, f"{_shown(value)} {'is expected to be empty' if arg == 0 else 'is too long'}")
        elif keyword == "minimum" and number and value < arg:
            fail(keyword, f"{_shown(value)} is less than the minimum of {arg!r}")
        elif keyword == "exclusiveMinimum" and number and value <= arg:
            fail(keyword, f"{_shown(value)} is less than or equal to the minimum of {arg!r}")
    return errors


def _relevance(error: _Error) -> tuple:
    """jsonschema's ``relevance``: the best match is the largest error, or the smallest in a ``oneOf``.

    It orders by depth (shallow is larger), then path, then ``oneOf`` below
    other keywords, then a value of its schema's type below one that is not.
    """
    return -len(error.path), error.path, error.keyword != "oneOf", not error.typed


def _members(value, enum: list) -> list:
    """The members of ``enum`` equal to ``value`` as JSON values: a bool equals no number."""
    return [v for v in enum if value == v and isinstance(value, bool) == isinstance(v, bool)]


def _resolve(value, schema: dict):
    """``value``, which satisfies ``schema``, with its defaults filled in place, integers as ``int``, enum values as members."""
    if schema.get("type") == "integer":
        return int(value)
    if "enum" in schema:
        return _members(value, schema["enum"])[0]
    if "oneOf" in schema:
        # The one branch the value satisfies: of those its type and required keys fit, the first
        # without errors, or the last, so only an object that fits two branches is validated again.
        fits = [s for s in schema["oneOf"] if _is_type(value, s["type"]) and all(k in value for k in s.get("required", ()))]
        return _resolve(value, next((sub for sub in fits[:-1] if not _errors(value, sub)), fits[-1]))
    if isinstance(value, dict):
        for key, sub in schema.get("properties", {}).items():
            if key in value or "default" in sub:
                value[key] = _resolve(value[key] if key in value else deepcopy(sub["default"]), sub)
    elif isinstance(value, list) and "items" in schema:
        value[:] = [_resolve(item, schema["items"]) for item in value]
    return value


def validate(instance, schema: dict = SCENARIO_SCHEMA) -> None:
    """Raise ``ValidationError`` with the error ``jsonschema.validate(instance, schema)`` reports.

    Of all errors it picks what jsonschema's ``best_match`` picks: the
    most relevant one, and inside a failed ``oneOf`` its branches' deepest
    error, or the ``oneOf`` itself when two branch errors tie.  A schema
    keyword it does not implement raises ``ValueError``.

    A valid instance is resolved in place: each absent property with a
    ``default`` gets a copy of it, a value whose schema ``type`` is
    ``integer`` is stored as an ``int``, so ``16.0`` reads as ``16``, and a
    value an ``enum`` admits is stored as the member it equals, so
    ``fd.order`` ``4.0`` reads as ``4``.
    """
    errors = _errors(instance, schema)
    if not errors:
        _resolve(instance, schema)
        return
    best = max(errors, key=_relevance)
    path = best.path
    while best.context:
        first, *second = sorted(best.context, key=_relevance)[:2]
        if second and _relevance(first) == _relevance(second[0]):
            break
        best, path = first, path + first.path
    raise ValidationError(path, best.message)


def _check_keywords(schema: dict) -> None:
    """Raise ``ValueError`` if ``schema`` or a schema inside it uses a keyword ``validate`` does not implement."""
    unknown = set(schema) - _KEYWORDS
    if unknown:
        raise ValueError(f"schema keyword {sorted(unknown)[0]!r} is not implemented")
    inner = [*schema.get("properties", {}).values(), *schema.get("oneOf", ())]
    inner += [schema[k] for k in ("items", "additionalProperties", "propertyNames") if isinstance(schema.get(k), dict)]
    for sub in inner:
        _check_keywords(sub)


_check_keywords(SCENARIO_SCHEMA)

"""JSON schemas for the machine-readable CLI outputs."""
from __future__ import annotations

_COUNT = {"type": "string", "pattern": "^-?[0-9]+$"}
_RATIONAL = {"type": "string", "pattern": "^-?[0-9]+(/[0-9]+)?$"}

CONSTRUCT_SIDECAR = {
    "type": "object",
    "required": ["name", "n", "k", "predicted_count"],
    "properties": {
        "name": {"type": "string"},
        "n": {"type": "integer"},
        "k": {"type": "integer"},
        "predicted_count": _COUNT,
        "prediction_formula": {"type": "string"},
        "config_path": {"type": "string"},
    },
}

BARANYAI_OUTPUT = {
    "type": "object",
    "required": ["n", "k", "seed", "classes"],
    "properties": {
        "n": {"type": "integer"},
        "k": {"type": "integer"},
        "seed": {"type": "integer"},
        "classes": {
            "type": "array",
            "items": {
                "type": "array",
                "items": {"type": "array", "items": {"type": "integer"}},
            },
        },
    },
}

STAGE_TRACE = {
    "type": "object",
    "required": ["stage_index", "surviving_top", "removed_bottom", "central",
                 "stage_set_size"],
    "properties": {
        "stage_index": {"type": "integer"},
        "surviving_top": {"type": "integer"},
        "removed_bottom": {"type": "integer"},
        "central": {"type": "boolean"},
        "stage_set_size": {"type": "integer"},
    },
}

WITNESS_REPORT = {
    "type": "object",
    "required": ["n", "k", "theorem", "branch", "guaranteed_count",
                 "witnesses_count", "certified", "mode", "trace"],
    "properties": {
        "n": {"type": "integer"},
        "k": {"type": "integer"},
        "theorem": {"type": "integer"},
        "branch": {"enum": ["central_at_top", "few_negatives",
                            "trim_and_partition_plus_top_zone",
                            "central_at_stage_i", "two_range_family"]},
        "guaranteed_count": _COUNT,
        "witnesses_count": _COUNT,
        "certified": {"type": "boolean"},
        "provenance": {
            "type": "object",
            "additionalProperties": {"enum": ["resummed", "worst_member", "theorem"]},
        },
        "mode": {"enum": ["explicit", "counted"]},
        "sample_size": {"type": "integer"},
        "below_guarantee": {"type": "boolean"},
        "meets_threshold_target": {"type": ["boolean", "null"]},
        "trace": {"type": "array", "items": STAGE_TRACE},
        "witnesses_path": {"type": "string"},
        "notes": {"type": "array", "items": {"type": "string"}},
    },
}

SOLVE_RESULT = {
    "type": "object",
    "required": ["n", "k", "A", "upper_bound_only", "nodes", "optimal_config",
                 "minimal_elements"],
    "properties": {
        "n": {"type": "integer"},
        "k": {"type": "integer"},
        "A": _COUNT,
        "upper_bound_only": {"type": "boolean"},
        "bound": {"enum": ["exact", "upper"]},
        "nodes": {"type": "integer"},
        "optimal_config": {"type": "array", "items": _RATIONAL},
        "minimal_elements": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer"}},
        },
    },
}

BOUND_REPORT = {
    "type": "object",
    "required": ["name", "holds", "lhs", "rhs", "margin"],
    "properties": {
        "name": {"type": "string"},
        "holds": {"type": "boolean"},
        "strict": {"type": "boolean"},
        "lhs": _RATIONAL,
        "rhs": _RATIONAL,
        "margin": _RATIONAL,
        "parameters": {"type": "object"},
    },
}

PAPER_REPORT = {
    "type": "object",
    "required": ["seed", "all_pass", "checks"],
    "properties": {
        "seed": {"type": "integer"},
        "all_pass": {"type": "boolean"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "status", "lhs", "rhs"],
                "properties": {
                    "id": {"type": "string"},
                    "status": {"enum": ["pass", "fail"]},
                    "lhs": {"type": "string"},
                    "rhs": {"type": "string"},
                },
            },
        },
    },
}

#!/usr/bin/env python3
"""Validate a JSON document against the subset of JSON Schema that
schemas/metrics.schema.json uses.

This workspace builds offline with no third-party packages, so instead of
depending on `jsonschema` we implement the handful of keywords the metrics
schema needs: type (incl. union types), required, properties,
additionalProperties (boolean false), items, enum, minimum, and local
``$ref`` into ``#/definitions/...``.

Beyond the structural schema, the run report (schema 4, a document with
``counters``) is held to invariants the schema cannot express:

* ``cancel_polls == slabs_emitted``: the slab driver polls the
  cancellation token exactly once per computed slab (never inside the
  tile loops), so the two counters move in lock-step; a divergence means
  a poll was added at the wrong granularity;
* with a ``timeline``: its ``dropped`` equals the ``trace_events_dropped``
  counter (one drop count, two views), and ``share_sum`` is 1 within
  0.01 (the layer shares tile workers x wall).

Usage: validate_metrics.py <schema.json> <document.json>
Exit 0 on success; nonzero with a path-annotated message otherwise.
"""

import json
import sys


def type_ok(value, tname):
    if tname == "object":
        return isinstance(value, dict)
    if tname == "array":
        return isinstance(value, list)
    if tname == "string":
        return isinstance(value, str)
    if tname == "boolean":
        return isinstance(value, bool)
    if tname == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    if tname == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if tname == "null":
        return value is None
    raise ValueError(f"unsupported schema type: {tname}")


def resolve_ref(ref, root):
    if not ref.startswith("#/"):
        raise ValueError(f"unsupported $ref: {ref}")
    node = root
    for part in ref[2:].split("/"):
        node = node[part]
    return node


def validate(value, schema, path="$", root=None):
    if root is None:
        root = schema
    if "$ref" in schema:
        schema = resolve_ref(schema["$ref"], root)
    errors = []
    stype = schema.get("type")
    if stype is not None:
        types = stype if isinstance(stype, list) else [stype]
        if not any(type_ok(value, t) for t in types):
            errors.append(f"{path}: expected {types}, got {type(value).__name__}")
            return errors  # type mismatch: deeper checks are meaningless
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in enum {schema['enum']}")
    if "minimum" in schema and isinstance(value, (int, float)) \
            and not isinstance(value, bool) and value < schema["minimum"]:
        errors.append(f"{path}: {value} < minimum {schema['minimum']}")
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required property '{key}'")
        if schema.get("additionalProperties", True) is False:
            for key in value:
                if key not in props:
                    errors.append(f"{path}: unexpected property '{key}'")
        for key, sub in props.items():
            if key in value:
                errors.extend(validate(value[key], sub, f"{path}.{key}", root))
    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            errors.extend(validate(item, schema["items"], f"{path}[{i}]", root))
    return errors


def semantic_checks(doc):
    """Run-report invariants the schema cannot express."""
    errors = []
    if not isinstance(doc, dict) or not isinstance(doc.get("counters"), dict):
        return errors  # not a run report (or structurally broken: reported)
    counters = doc["counters"]
    polls = counters.get("cancel_polls")
    slabs = counters.get("slabs_emitted")
    if isinstance(polls, int) and isinstance(slabs, int) and polls != slabs:
        errors.append(
            f"$.counters: cancel_polls ({polls}) != slabs_emitted ({slabs}) "
            "— token polling must be exactly slab-granular"
        )
    timeline = doc.get("timeline")
    if not isinstance(timeline, dict):
        return errors
    dropped = counters.get("trace_events_dropped")
    if timeline.get("dropped") != dropped:
        errors.append(
            f"$.timeline.dropped ({timeline.get('dropped')}) != "
            f"counters.trace_events_dropped ({dropped})"
        )
    share_sum = timeline.get("share_sum")
    if isinstance(share_sum, (int, float)) and abs(share_sum - 1.0) > 0.01:
        errors.append(
            f"$.timeline.share_sum ({share_sum}) is not 1 within 0.01 "
            "— the layer shares must tile workers x wall"
        )
    return errors


def main():
    if len(sys.argv) != 3:
        sys.exit(f"usage: {sys.argv[0]} <schema.json> <document.json>")
    with open(sys.argv[1], encoding="utf-8") as f:
        schema = json.load(f)
    with open(sys.argv[2], encoding="utf-8") as f:
        doc = json.load(f)
    errors = validate(doc, schema)
    errors.extend(semantic_checks(doc))
    if errors:
        for e in errors:
            print(f"schema violation: {e}", file=sys.stderr)
        sys.exit(1)
    print(f"{sys.argv[2]}: valid against {sys.argv[1]}")


if __name__ == "__main__":
    main()

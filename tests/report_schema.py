"""Validate ``fidelity.json`` against the checked-in JSON Schema.

CI regenerates a tiny report and validates its ``fidelity.json``
against ``docs/fidelity.schema.json``; the test environment has no
third-party ``jsonschema`` package, so this module implements the
small schema subset that file uses (``type`` — including a list of
types — ``enum``, ``required``, ``properties``,
``additionalProperties``, ``items``, ``minimum``).  Anything else in a
schema is rejected loudly rather than silently ignored.

Usage::

    python3 tests/report_schema.py report/fidelity.json \\
        docs/fidelity.schema.json

Exit status 0 when the document validates, 1 with one line per
violation otherwise.
"""

import json
import sys

#: JSON Schema type name -> accepted Python types.
_TYPES = {
    "object": (dict,),
    "array": (list,),
    "string": (str,),
    "number": (int, float),
    "integer": (int,),
    "boolean": (bool,),
    "null": (type(None),),
}

#: Schema keywords this validator implements.
_SUPPORTED = {"$schema", "$id", "title", "description", "type", "enum",
              "required", "properties", "additionalProperties", "items",
              "minimum"}


def _type_ok(value, type_name):
    if type_name == "number" and isinstance(value, bool):
        return False
    if type_name == "integer":
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, _TYPES[type_name])


def validate(instance, schema, path="$"):
    """Validate ``instance`` against ``schema``; returns error strings."""
    errors = []
    unsupported = set(schema) - _SUPPORTED
    if unsupported:
        raise ValueError("schema at %s uses unsupported keywords: %s"
                         % (path, ", ".join(sorted(unsupported))))

    type_spec = schema.get("type")
    if type_spec is not None:
        type_names = ([type_spec] if isinstance(type_spec, str)
                      else list(type_spec))
        if not any(_type_ok(instance, name) for name in type_names):
            errors.append("%s: expected %s, got %s"
                          % (path, "/".join(type_names),
                             type(instance).__name__))
            return errors  # structural checks below would just cascade

    if "enum" in schema and instance not in schema["enum"]:
        errors.append("%s: %r not in %s" % (path, instance,
                                            schema["enum"]))
    if "minimum" in schema and isinstance(instance, (int, float)) \
            and not isinstance(instance, bool):
        if instance < schema["minimum"]:
            errors.append("%s: %r < minimum %r"
                          % (path, instance, schema["minimum"]))

    if isinstance(instance, dict):
        for name in schema.get("required", ()):
            if name not in instance:
                errors.append("%s: missing required property %r"
                              % (path, name))
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        for name, value in instance.items():
            child_path = "%s.%s" % (path, name)
            if name in properties:
                errors.extend(validate(value, properties[name],
                                       child_path))
            elif additional is False:
                errors.append("%s: unexpected property %r" % (path, name))
            elif isinstance(additional, dict):
                errors.extend(validate(value, additional, child_path))

    if isinstance(instance, list) and "items" in schema:
        for index, item in enumerate(instance):
            errors.extend(validate(item, schema["items"],
                                   "%s[%d]" % (path, index)))
    return errors


def validate_files(document_path, schema_path):
    """Validate one JSON document file; returns the error list."""
    with open(document_path, encoding="utf-8") as handle:
        document = json.load(handle)
    with open(schema_path, encoding="utf-8") as handle:
        schema = json.load(handle)
    return validate(document, schema)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: python3 tests/report_schema.py DOCUMENT SCHEMA",
              file=sys.stderr)
        return 2
    errors = validate_files(argv[0], argv[1])
    for error in errors:
        print(error, file=sys.stderr)
    if not errors:
        print("%s validates against %s" % (argv[0], argv[1]))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

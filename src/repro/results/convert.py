"""Canonical payload conversions shared by every results consumer.

This module is the single home of the payload→JSON plumbing that used to
be copied across the runner (``execute.jsonify``) and the CLI
(``_jsonable_result`` / ``_key_str``).  Everything here is dependency-
light and picklable so worker processes can import it cheaply.

A *payload* is the JSON wire format of one grid cell: pure JSON types,
bit-identical whether it comes straight from a worker or back out of the
on-disk cache.  Nothing in this module may change that format — the
golden-trace harness hashes it.
"""


def jsonify(value):
    """Convert a cell result payload to pure JSON types.

    Numpy scalars become Python floats/ints and tuples become lists, so a
    payload is bit-identical whether it comes straight from a worker or
    back out of the JSON cache.
    """
    # Exact type checks: np.float64 subclasses float but must still be
    # converted so fresh and cache-loaded payloads are indistinguishable.
    if value is None or type(value) in (bool, int, float, str):
        return value
    if isinstance(value, dict):
        return {key: jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(item) for item in value]
    import numpy as np

    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return [jsonify(item) for item in value.tolist()]
    raise TypeError("cell payload is not JSON-serializable: %r" % (value,))


def key_str(key):
    """Render a cell key tuple as the CLI's ``part/part/...`` string."""
    return "/".join(str(part) for part in key)


def format_buffer(buffer_packets):
    """Render a buffer size: ``"64"``, or ``"64:8"`` for per-direction."""
    if isinstance(buffer_packets, (tuple, list)):
        return ":".join(str(part) for part in buffer_packets)
    return str(buffer_packets)


def flatten_metrics(payload, prefix=""):
    """Flatten a payload's scalar numeric entries into a ``{name: value}``
    dict, joining nested dict keys with ``.`` (e.g. ``delay.talks``).

    Lists (per-second samples, PLT series) and strings are not metrics;
    they stay available on the record's ``payload``.
    """
    metrics = {}
    for name, value in payload.items():
        full = "%s%s" % (prefix, name)
        if isinstance(value, dict):
            metrics.update(flatten_metrics(value, prefix=full + "."))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)):
            metrics[full] = value
    return metrics

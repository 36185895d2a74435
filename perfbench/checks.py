"""Output checks: is a cell payload in range, and which bits did it have.

A payload passes when every number in it is finite and every quantity
lies on its scale: MOS within 1..5, SSIM, utilisation and loss fractions
within [0, 1], page-load times above 0 and at most the fetch timeout.
Its digest is the SHA-256 of its canonical JSON, so two passes agree
only when they produced bit-identical floats.
"""

import hashlib
import json
import math

MOS_SCALE = (1.0, 5.0)


def payload_digest(payload):
    """SHA-256 of the payload's canonical JSON text."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def combined_digest(digests):
    """One digest over a workload's per-cell digests, in task order."""
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


def _numbers(value, path="payload"):
    if isinstance(value, bool):
        return
    if isinstance(value, (int, float)):
        yield path, value
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from _numbers(item, "%s.%s" % (path, key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _numbers(item, "%s[%d]" % (path, index))


def _within(problems, name, value, low, high, low_open=False):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        problems.append("%s is missing or not a number: %r" % (name, value))
    elif value < low or value > high or (low_open and value == low):
        problems.append("%s=%r outside %s%g, %g]"
                        % (name, value, "(" if low_open else "[", low, high))


def check_payload(kind, payload):
    """Problems with one cell payload; an empty list means it passes."""
    from repro.core.web_study import FETCH_TIMEOUT

    if not isinstance(payload, dict):
        return ["payload is %s, not a dict" % type(payload).__name__]
    problems = ["%s is not finite: %r" % (path, value)
                for path, value in _numbers(payload)
                if not math.isfinite(value)]
    inf = float("inf")
    if kind == "qos":
        for direction in ("down", "up"):
            for name in ("utilization", "loss"):
                key = "%s_%s" % (direction, name)
                _within(problems, key, payload.get(key), 0.0, 1.0)
            for index, sample in enumerate(
                    payload.get("%s_utilization_samples" % direction, ())):
                _within(problems, "%s_utilization_samples[%d]"
                        % (direction, index), sample, 0.0, 1.0)
            for name in ("mean_delay", "max_delay"):
                key = "%s_%s" % (direction, name)
                _within(problems, key, payload.get(key), 0.0, inf)
    elif kind == "voip":
        delays = payload.get("delay", {})
        scored = [key for key in payload if key != "delay"]
        if not scored:
            problems.append("no call direction was scored")
        for direction in scored:
            _within(problems, direction, payload[direction], *MOS_SCALE)
            _within(problems, "delay.%s" % direction, delays.get(direction),
                    0.0, inf)
    elif kind == "video":
        for key in ("ssim", "packet_loss", "slice_loss"):
            _within(problems, key, payload.get(key), 0.0, 1.0)
        _within(problems, "mos", payload.get("mos"), *MOS_SCALE)
        _within(problems, "psnr", payload.get("psnr"), 0.0, inf)
    elif kind == "web":
        plts = payload.get("plts") or []
        if not plts:
            problems.append("no page load was timed")
        for index, plt in enumerate(plts):
            _within(problems, "plts[%d]" % index, plt, 0.0, FETCH_TIMEOUT,
                    low_open=True)
        for key in ("median_plt", "p80_plt"):
            _within(problems, key, payload.get(key), 0.0, FETCH_TIMEOUT,
                    low_open=True)
        _within(problems, "mos", payload.get("mos"), *MOS_SCALE)
    else:
        problems.append("unknown cell kind %r" % (kind,))
    return problems

"""Results layer: one record type and one keyed collection.

Every grid cell's JSON payload (the wire format the runner produces and
caches — untouched by this package) is wrapped in a frozen
:class:`CellResult` (:mod:`repro.results.record`), and the records of a
sweep form a keyed, exportable :class:`ResultSet`
(:mod:`repro.results.set`).  :mod:`repro.results.convert` holds the
canonical payload→JSON plumbing shared by the runner and the CLI.

The stable entry points for running sweeps and obtaining ``ResultSet``s
live one level up, in :mod:`repro.api`.
"""

from repro.results.convert import (
    flatten_metrics,
    format_buffer,
    jsonify,
    key_str,
)
from repro.results.record import CellResult, record_from_payload
from repro.results.set import ResultSet

__all__ = [
    "CellResult",
    "ResultSet",
    "flatten_metrics",
    "format_buffer",
    "jsonify",
    "key_str",
    "record_from_payload",
]

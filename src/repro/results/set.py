"""Ordered, keyed collections of cell records.

A :class:`ResultSet` is the list of :class:`repro.results.record.CellResult`
records one sweep produced, indexed by sweep cell key.  The figure
catalog and the fidelity scorer read it through :meth:`ResultSet.value_map`
(the (workload × buffer) heatmap shape of the paper's figures) and
``rs[key][column]``; the exporters write it as CSV or JSON.
:meth:`ResultSet.from_stream` collects a record stream
(:func:`repro.api.iter_sweep`) and restores task order whatever the
completion order.
"""

import csv
import io
import json


class ResultSet:
    """An ordered collection of cell records, indexed by cell key."""

    __slots__ = ("_records", "_by_key")

    def __init__(self, records=()):
        self._records = list(records)
        self._by_key = None  # lazy cell-key index

    @classmethod
    def from_stream(cls, stream):
        """Collect a record stream (e.g. :func:`repro.api.iter_sweep`).

        Records arrive in completion order; when they carry task indices
        (every runner/facade stream does) the set is re-ordered to task
        order, so the result does not depend on completion order.
        """
        records = list(stream)
        if records and all(record.index is not None for record in records):
            records.sort(key=lambda record: record.index)
        return cls(records)

    # -- basic protocol --------------------------------------------------
    def __len__(self):
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def __eq__(self, other):
        if not isinstance(other, ResultSet):
            return NotImplemented
        return self._records == other._records

    def __getitem__(self, selector):
        """``rs[2]`` indexes by position; anything else is a cell key."""
        if isinstance(selector, int):
            return self._records[selector]
        return self._key_index()[selector]

    def __contains__(self, key):
        return key in self._key_index()

    def keys(self):
        """Cell keys in record order (requires sweep-built records)."""
        return [record.key for record in self._records]

    def _key_index(self):
        if self._by_key is None:
            index = {}
            for record in self._records:
                if record.key is None:
                    raise KeyError(
                        "records carry no cell keys — build the set "
                        "through repro.api.run_sweep (or pass key= to "
                        "record_from_payload) to index by key")
                index[record.key] = record
            self._by_key = index
        return self._by_key

    # -- lookups ---------------------------------------------------------
    def value_map(self, column, **filters):
        """``{cell key: column value}`` for records matching ``filters``.

        The grid shape the report layer consumes: one value per sweep
        cell key, optionally restricted by equality filters first (e.g.
        ``value_map("ssim", resolution="SD")``).  Requires sweep-built
        records (every facade result has keys); duplicate keys after
        filtering raise ValueError instead of silently overwriting.
        """
        subset = self.filter(**filters) if filters else self
        grid = {}
        for record in subset:
            if record.key is None:
                raise KeyError("records carry no cell keys — build the "
                               "set through repro.api.run_sweep")
            if record.key in grid:
                raise ValueError("duplicate cell key %r in value_map() — "
                                 "pin the remaining axes with filters"
                                 % (record.key,))
            grid[record.key] = record.value(column)
        return grid

    def filter(self, **columns):
        """Records whose every named column equals the given value."""
        return ResultSet(
            record for record in self._records
            if all(record.value(name) == wanted
                   for name, wanted in columns.items()))

    # -- exporters -------------------------------------------------------
    def to_rows(self):
        """Flat row dicts (see :meth:`CellResult.to_row`)."""
        return [record.to_row() for record in self._records]

    def to_csv(self, path=None):
        """CSV text of :meth:`to_rows` (optionally also written to ``path``).

        Columns appear in first-seen order.  Floats are written with
        ``str()`` (which round-trips exactly in Python 3); columns absent
        from a row are left empty.
        """
        rows = self.to_rows()
        fieldnames = list(dict.fromkeys(name for row in rows
                                        for name in row))
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=fieldnames, restval="",
                                lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return _written(buffer.getvalue(), path)

    def to_json(self, path=None, indent=None):
        """JSON text: one object per record, payload wire format intact."""
        document = [{
            "kind": record.kind,
            "key": (list(record.key) if record.key is not None else None),
            "scenario": record.scenario,
            "buffer_packets": (list(record.buffer_packets)
                               if isinstance(record.buffer_packets, tuple)
                               else record.buffer_packets),
            "seed": record.seed,
            "params": {name: (list(value) if isinstance(value, tuple)
                              else value)
                       for name, value in record.params},
            "payload": record.payload,
        } for record in self._records]
        return _written(json.dumps(document, indent=indent), path)


def _written(text, path):
    """``text``, after writing it to ``path`` when one is given."""
    if path is not None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    return text

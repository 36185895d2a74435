"""Text backend of the figure models: heatmap grids and tables.

:mod:`repro.report.figures` builds one model per paper figure and
renders it either here (``python -m repro figures``, the benchmarks) or
as SVG (:mod:`repro.report.svg`).  Text cells carry a one-character
quality marker mirroring the paper's green/orange/red colouring: ``+``
good, ``o`` degraded, ``!`` bad (see :mod:`repro.qoe.scales`).
:data:`MARKER_COLORS` is the single source of the marker -> colour
mapping the SVG backend fills cells with, so both views of a grid stay
semantically identical.
"""

#: The paper's traffic-light semantics, keyed by text marker:
#: ``(label, fill colour, text colour)``.  Fill colours are the muted
#: pastels used for SVG heatmap cells; text colours are the saturated
#: variants used for overlays and legends.
MARKER_COLORS = {
    "+": ("good", "#c8e6c9", "#1b5e20"),
    "o": ("degraded", "#ffe0b2", "#e65100"),
    "!": ("bad", "#ffcdd2", "#b71c1c"),
}


def render_grid(title, row_labels, col_labels, cell_fn, col_header=""):
    """Render a labelled grid, each column as wide as the widest cell.

    ``cell_fn(row_label, col_label)`` returns the cell text (may include
    a marker suffix) or None for an empty cell.
    """
    cells = {}
    for row in row_labels:
        for col in col_labels:
            text = cell_fn(row, col)
            cells[(row, col)] = "" if text is None else str(text)
    texts = list(cells.values()) + [str(c) for c in col_labels]
    cell_width = max(len(t) for t in texts) + 2
    label_width = max(len(str(r)) for r in row_labels + [col_header]) + 2

    lines = [title]
    header = str(col_header).ljust(label_width)
    header += "".join(str(c).rjust(cell_width) for c in col_labels)
    lines.append(header)
    lines.append("-" * len(header))
    for row in row_labels:
        line = str(row).ljust(label_width)
        line += "".join(cells[(row, col)].rjust(cell_width)
                        for col in col_labels)
        lines.append(line)
    return "\n".join(lines)


def render_table(title, headers, rows):
    """Render a simple aligned table from header names and row tuples."""
    str_rows = [[str(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    lines = [title]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("-" * len(lines[-1]))
    for row in str_rows:
        lines.append("  ".join(value.ljust(widths[i])
                               for i, value in enumerate(row)))
    return "\n".join(lines)

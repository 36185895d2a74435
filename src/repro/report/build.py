"""Assemble a self-contained reproduction report on disk.

:func:`generate_report` turns cached (or freshly streamed) sweep
results into ``<out>/index.md`` + one SVG per figure +
``<out>/fidelity.json``:

* figures come from :data:`repro.report.figures.REPORT_FIGURES` (the
  SVG backend of each figure's model);
* verdicts come from each figure's check, scored by
  :mod:`repro.report.fidelity`;
* results come from :func:`repro.api.run_sweep` (so a warm cache
  re-simulates nothing and a cold one shows per-cell progress with the
  usual runner knobs), or from :func:`repro.api.load_sweep` when
  ``cached_only`` — which never simulates and reports partial coverage
  honestly instead of failing.

Determinism: the emitted files are a pure function of the sweep results
and this source tree — no timestamps, no environment echoes beyond the
requested scale — so a report regenerated from the same cache is
byte-identical.  The committed ``docs/sample_report/`` is the plain
output of the figure gate on the registered scale-1 grids,
``python -m repro report --strict table2 fig5 fig7a fig7b -o
docs/sample_report``, and a test pins it to exactly this property.
"""

import json
import os
import sys

from repro.report.figures import (CLAIM_STATES, REPORT_FIGURES, claim_tally,
                                  figure_names)

#: fidelity.json schema version (see docs/fidelity.schema.json).
SCHEMA_VERSION = 2


def validate_selection(names):
    """Resolve and validate a figure selection; ValueError on misuse.

    The single home of the usage check shared by the CLI (which turns
    the ValueError into a clean exit) and :func:`generate_report`:
    unknown figure names.  Returns the figure names to render.
    """
    names = list(names) if names else figure_names()
    unknown = [name for name in names if name not in REPORT_FIGURES]
    if unknown:
        raise ValueError("no report figure for %s (have: %s)" % (
            ", ".join(sorted(unknown)), ", ".join(figure_names())))
    return names


def _fmt_metric(value):
    if value is None:
        return "—"
    return "%.3g" % value


def _index_markdown(entries, scale):
    lines = [
        "# Reproduction report — *A QoE Perspective on Sizing Network "
        "Buffers*",
        "",
        "Generated by `python -m repro report` at `REPRO_SCALE=%g`."
        % scale,
        "Verdicts compare the reproduced grids against the paper's "
        "digitized values — see",
        "`docs/REPORTING.md` in the repository for the metrics, "
        "thresholds and how to read",
        "[`fidelity.json`](fidelity.json).",
        "",
        "| figure | verdict | compared | max&#124;Δ&#124; | rank corr | "
        "cells |",
        "| --- | --- | --- | --- | --- | --- |",
    ]
    for entry in entries:
        metrics = entry["fidelity"]["metrics"]
        rank = metrics.get("buffer_rank_correlation")
        if rank is None:
            rank = metrics.get("rank_correlation")
        lines.append(
            "| [`%s`](%s) | %s | %s | %s %s | %s | %d/%d |" % (
                entry["figure"], entry["svg"], entry["verdict"],
                entry["fidelity"]["compared"] or "—",
                _fmt_metric(metrics.get("max_abs_deviation")),
                entry["fidelity"]["units"] if metrics.get(
                    "max_abs_deviation") is not None else "",
                _fmt_metric(rank),
                entry["cells_present"], entry["cells_expected"]))
    lines.append("")
    lines.append("Verdicts: **PASS** — inside the calibrated full-scale "
                 "envelope; **WARN** — reproduces the paper's ordering "
                 "but with larger deviations; **FAIL** — disagrees with "
                 "the paper; **SKIP** — no digitized paper data (or no "
                 "reproduced cells) to compare.")
    lines.append("")
    for entry in entries:
        fig_fidelity = entry["fidelity"]
        lines.append("## %s" % entry["title"])
        lines.append("")
        lines.append("![%s](%s)" % (entry["figure"], entry["svg"]))
        lines.append("")
        lines.append("**Verdict: %s**%s" % (
            entry["verdict"],
            " — %s" % fig_fidelity["notes"] if fig_fidelity["notes"]
            else ""))
        if entry["cells_present"] < entry["cells_expected"]:
            lines.append("")
            lines.append("⚠ partial grid: only %d of %d cells available "
                         "— verdict reflects the available cells only."
                         % (entry["cells_present"],
                            entry["cells_expected"]))
        gates = fig_fidelity["gates"]
        if gates:
            lines.append("")
            lines.append("| gate | value | pass | warn | level |")
            lines.append("| --- | --- | --- | --- | --- |")
            for gate_name, gate in gates.items():
                lines.append("| %s | %s | %s | %s | %s |" % (
                    gate_name, _fmt_metric(gate["value"]),
                    _fmt_metric(gate["pass"]), _fmt_metric(gate["warn"]),
                    gate["level"]))
        claims = fig_fidelity["claims"]
        if claims:
            lines.append("")
            lines.append("Claims: %s" % claim_tally(claims))
            lines.append("")
            lines.extend("- %s — %s" % (CLAIM_STATES[claim["holds"]],
                                        claim["claim"])
                         for claim in claims)
        if fig_fidelity["worst"]:
            lines.append("")
            lines.append("Largest deviations (cell: paper → reproduced): "
                         + "; ".join(
                             "%s: %s → %s" % (label, _fmt_metric(paper),
                                              _fmt_metric(repro))
                             for label, paper, repro
                             in fig_fidelity["worst"]))
        lines.append("")
    return "\n".join(lines) + "\n"


def generate_report(names=None, out_dir="report", *, cached_only=False,
                    scale=None, runner=None):
    """Write ``index.md`` + per-figure SVGs + ``fidelity.json``.

    ``names`` selects figures (default: all of
    :func:`repro.report.figures.figure_names`); unknown names raise
    ValueError.  Returns a summary dict with the per-figure entries and
    a verdict tally, and prints one progress line per figure on stderr,
    ending in ``claims k of n hold`` and followed by one line per claim
    that is broken or unevaluated.
    """
    from repro import api
    from repro.core import registry
    from repro.core.registry import resolve_scale

    names = validate_selection(names)
    scale = resolve_scale() if scale is None else scale

    os.makedirs(out_dir, exist_ok=True)
    # The directory must stay self-contained: drop SVGs of report
    # figures left over from a previous, differently-scoped run (only
    # files named after known figures — never user files).
    for stale in set(figure_names()) - set(names):
        stale_path = os.path.join(out_dir, "%s.svg" % stale)
        if os.path.exists(stale_path):
            os.remove(stale_path)
    entries = []
    for name in names:
        figure = REPORT_FIGURES[name]
        spec = results = None
        expected = present = 0
        if figure.sweep is not None:
            spec = registry.get(figure.sweep)
            results = (api.load_sweep(spec, scale=scale) if cached_only
                       else api.run_sweep(spec, scale=scale, runner=runner))
            expected = spec.cell_count(scale)
            present = len(results)
        markup = figure.model(results, spec, scale).svg()
        svg_name = "%s.svg" % name
        with open(os.path.join(out_dir, svg_name), "w",
                  encoding="utf-8") as handle:
            handle.write(markup)
        fig_fidelity = figure.score(results)
        entry = {
            "figure": name,
            "sweep": figure.sweep,
            "title": figure.title if spec is None else spec.title,
            "svg": svg_name,
            "verdict": fig_fidelity.verdict,
            "cells_expected": expected,
            "cells_present": present,
            "fidelity": fig_fidelity.to_json(),
        }
        entries.append(entry)
        detail = ""
        stats = getattr(runner, "last_stats", None)
        if figure.sweep is not None and not cached_only and stats:
            detail = ", %d cached, %d computed" % (
                stats.get("cached", 0), stats.get("computed", 0))
        claims = fig_fidelity.claims
        print("report: %-16s %-4s (%d/%d cells%s), claims %s"
              % (name, fig_fidelity.verdict, present, expected, detail,
                 claim_tally(claims)), file=sys.stderr)
        for claim in claims:
            if claim["holds"] is not True:
                print("  %s: %s" % (CLAIM_STATES[claim["holds"]],
                                    claim["claim"]), file=sys.stderr)

    # Deliberately no timestamps and no run-mode echoes (cached vs
    # computed): the files must be a pure function of the results so a
    # regenerated report is byte-identical.
    document = {
        "schema_version": SCHEMA_VERSION,
        "scale": scale,
        "figures": {entry["figure"]: entry for entry in entries},
    }
    with open(os.path.join(out_dir, "fidelity.json"), "w",
              encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    with open(os.path.join(out_dir, "index.md"), "w",
              encoding="utf-8") as handle:
        handle.write(_index_markdown(entries, scale))

    tally = {}
    for entry in entries:
        tally[entry["verdict"]] = tally.get(entry["verdict"], 0) + 1
    return {"out_dir": out_dir, "figures": entries, "verdicts": tally}

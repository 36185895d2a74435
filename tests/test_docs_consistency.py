"""Docs/registry consistency: the catalog documents what the code registers."""

import os
import re

import pytest

from repro.core.registry import REGISTRY

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read(relative_path):
    with open(os.path.join(ROOT, relative_path), encoding="utf-8") as handle:
        return handle.read()


def test_every_registered_sweep_is_documented():
    catalog = read("docs/SCENARIOS.md")
    missing = [name for name in REGISTRY if "`%s`" % name not in catalog]
    assert not missing, ("registered sweeps missing from docs/SCENARIOS.md: "
                         "%s" % ", ".join(missing))


def test_catalog_documents_no_ghost_sweeps():
    # Every name formatted like a sweep entry in the catalog table must
    # exist in the registry (stale docs fail here after a rename).
    catalog = read("docs/SCENARIOS.md")
    table_lines = [line for line in catalog.splitlines()
                   if line.startswith("| `")]
    for line in table_lines:
        name = line.split("`")[1]
        assert name in REGISTRY, "docs/SCENARIOS.md mentions unknown " \
                                 "sweep %r" % name


def test_provenance_tags_are_documented():
    catalog = read("docs/SCENARIOS.md")
    for spec in REGISTRY.values():
        assert spec.provenance in catalog, (spec.name, spec.provenance)


def test_readme_links_the_docs():
    readme = read("README.md")
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/SCENARIOS.md" in readme
    assert "docs/RESULTS.md" in readme
    assert "python -m repro" in readme


def test_readme_quickstart_uses_the_facade():
    readme = read("README.md")
    assert "api.run_sweep" in readme
    assert "python -m repro export" in readme


def test_architecture_doc_covers_the_layers():
    architecture = read("docs/ARCHITECTURE.md")
    for module in ("repro.sim", "repro.tcp", "repro.qoe", "repro.runner",
                   "repro.core.registry", "repro.cli", "repro.results",
                   "repro.api"):
        assert module in architecture, module


def test_results_doc_covers_the_api():
    results = read("docs/RESULTS.md")
    for name in ("run_sweep", "iter_sweep", "load_sweep", "ResultSet",
                 "CellResult", "record_from_payload", "to_csv", "to_json",
                 "value_map", "from_stream"):
        assert name in results, name


def test_catalog_cell_counts_and_axes_match_registry():
    # The SCENARIOS.md table carries cell counts and axis shapes; they
    # must match what the registry resolves at scale 1 and 4.
    catalog = read("docs/SCENARIOS.md")
    rows = {}
    for line in catalog.splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            rows[cells[0].strip("`")] = cells
    def axis_shape(spec, scale):
        parts = ["%dw x %db" % (len(spec.scenario_axis(scale)),
                                len(spec.buffer_axis(scale)))]
        for param, values in spec.axes:
            parts.append("x %d %s" % (len(values), param))
        return " ".join(parts)

    for name, spec in REGISTRY.items():
        cells = rows[name]
        assert cells[3] == "%d / %d" % (spec.cell_count(1.0),
                                        spec.cell_count(4.0)), name
        for scale, shape in ((1.0, cells[4].split("→")[0]),
                             (4.0, cells[4].split("→")[-1])):
            assert shape.strip() == axis_shape(spec, scale), (name, scale)


#: A knob read: ``environ.get(`` or ``environ[`` and a quoted REPRO_ name.
ENVIRON_READ = re.compile(r"""environ(?:\.get\(|\[)\s*["'](REPRO_\w+)""")


def _knobs_read_by_code():
    names = set()
    for top in ("src/repro", "tests"):
        for directory, _dirs, files in os.walk(os.path.join(ROOT, top)):
            for name in files:
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    with open(path, encoding="utf-8") as handle:
                        names.update(ENVIRON_READ.findall(handle.read()))
    return names


def _knob_table(text):
    """``REPRO_*`` names in the rows of the "Knobs" section's table."""
    section = text.split("## Knobs (environment variables)", 1)[1]
    section = section.split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(REPRO_\w+)`", section, re.MULTILINE))


@pytest.mark.parametrize("doc", ["README.md", "docs/ARCHITECTURE.md"])
def test_knob_table_matches_the_environment_reads(doc):
    read_by_code = _knobs_read_by_code()
    assert "REPRO_WORKERS" in read_by_code  # the scan finds reads at all
    assert _knob_table(read(doc)) == read_by_code


def test_reporting_doc_covers_the_report_layer():
    reporting = read("docs/REPORTING.md")
    from repro.report.figures import figure_names

    for name in figure_names():
        assert "`%s`" % name in reporting, name
    for term in ("python -m repro report", "--cached-only", "--strict",
                 "fidelity.json", "fidelity.schema.json",
                 "max_abs_deviation", "rank_correlation",
                 "trend_agreement", "PASS", "WARN", "FAIL", "SKIP",
                 "docs/sample_report", "REPRO_SCALE=4"):
        assert term in reporting, term


def test_reporting_doc_is_linked():
    assert "docs/REPORTING.md" in read("README.md")
    assert "REPORTING.md" in read("docs/RESULTS.md")
    assert "repro.report" in read("docs/ARCHITECTURE.md")
    assert "python -m repro report" in read("README.md")


def _fenced_code_lines(text):
    """Lines inside the fenced (```) code blocks of a markdown text."""
    lines, inside = [], False
    for line in text.splitlines():
        if line.strip().startswith("```"):
            inside = not inside
        elif inside:
            lines.append(line.strip())
    return lines


def _repro_imports(lines):
    """The ``from repro… import …`` / ``import repro…`` statements in
    ``lines``, with parenthesized continuations joined."""
    statements, pending = [], None
    for line in lines:
        if pending is not None:
            pending += " " + line
        elif line.startswith(("from repro", "import repro")):
            pending = line
        else:
            continue
        if "(" not in pending or ")" in pending:
            statements.append(pending)
            pending = None
    return statements


def test_doc_code_blocks_import():
    docs = sorted("docs/" + name for name in os.listdir(
        os.path.join(ROOT, "docs")) if name.endswith(".md"))
    statements = [(path, statement)
                  for path in ["README.md", ".claude/skills/verify/SKILL.md"]
                  + docs
                  for statement in _repro_imports(
                      _fenced_code_lines(read(path)))]
    assert statements
    for path, statement in statements:
        try:
            exec(statement, {})
        except ImportError as exc:
            pytest.fail("%s: `%s` fails: %s" % (path, statement, exc))

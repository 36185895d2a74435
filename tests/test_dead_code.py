"""Dead-name guard: every name ``src/repro`` defines must be read somewhere.

The scan collects, from every module under ``src/repro``, the top-level
functions, classes and UPPER_CASE constants plus every non-dunder method,
then collects every name *read* by the code in ``src/``, ``benchmarks/``,
``examples/`` and ``perfbench/``: loaded identifiers, attribute accesses,
and string literals spelling an identifier (``getattr`` and registry
lookups).  A method is read only through an attribute access or a string
literal: a local variable that happens to share its name is not a read
of it.  A read inside the body of a function of the same name is not a
read either, so a method that only calls itself, or two same-named
methods that only call each other, still count as dead.  Definitions,
imports and ``__all__`` entries are not reads, so
a name that is only re-exported, or only exercised by ``tests/``, counts
as dead.  Delete it, or add it to ``ALLOWED`` with the reason it stays.
"""

import ast
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")
READERS = ("src", "benchmarks", "examples", "perfbench")

ALLOWED = {
    # Reference oracles the tests compare the models against.
    "snr_db": "oracle: tests check the G.711 codec's SNR against it",
    "weibull_mean": "oracle: tests check the Harpoon sampler's mean against it",
    "EModel": "G.107 E-model as one object: tests check the standard's "
              "anchor points through it",
    "stanford_packets": "Table 2's BDP/sqrt(n) rule: tests check it yields "
                        "the 28-packet backbone buffer",
    # Paper data and catalogs kept for the paper, not for a caller.
    "FIG4_BIDIR_DOWNLINK": "digitized paper data (Figure 4, bidir panel)",
    "FIG4_BIDIR_UPLINK": "digitized paper data (Figure 4, bidir panel)",
    "ACCESS_SCENARIOS": "Table 1 access catalog: tests check its rows",
    "BACKBONE_SCENARIOS": "Table 1 backbone catalog: tests check its rows",
    # Queries the tests read, with no caller in the tree.
    "from_json": "SweepSpec/ScenarioSpec inverse of to_json: the registry "
                 "round-trip tests check that the spec JSON `describe` "
                 "prints loses nothing",
    "covers": "IntervalSet query the interval property tests check",
    "gaps": "IntervalSet query the interval property tests check",
    "byte_length": "queued bytes: the conservation property tests read it",
    "forwarded": "Node.forwarded, packets a router forwarded: the packet "
                 "conservation tests read it (docs/ARCHITECTURE.md)",
    # Needed by open ROADMAP work.
    "fork": "RngRegistry.fork: per-flow seed jitter (ROADMAP item 2) needs it",
}

CONSTANT = re.compile(r"^_?[A-Z][A-Z0-9_]*$")
IDENTIFIER = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def python_files(top):
    for directory, _dirs, files in os.walk(top):
        for name in sorted(files):
            if name.endswith(".py"):
                yield os.path.join(directory, name)


def parse(path):
    with open(path, encoding="utf-8") as handle:
        return ast.parse(handle.read(), path)


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(tree):
    """(name, line, is_method) for the module's functions, classes,
    constants and methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.lineno, False
        elif isinstance(node, ast.ClassDef):
            yield node.name, node.lineno, False
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not is_dunder(item.name)):
                    yield item.name, item.lineno, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and CONSTANT.match(target.id):
                    yield target.id, node.lineno, False


def scoped(node, enclosing=frozenset()):
    """(descendant, names of the functions whose body holds it) for every
    node under ``node``."""
    for field, value in ast.iter_fields(node):
        inner = enclosing
        if field == "body" and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = enclosing | {node.name}
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                yield child, inner
                yield from scoped(child, inner)


def reads(tree):
    """(identifier, is_bare_name) for every read in the module, excluding
    ``__all__`` entries and reads inside a function of the same name;
    ``is_bare_name`` marks a loaded identifier, as opposed to an
    attribute access or a string literal."""
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            exported.update(id(child) for child in ast.walk(node.value))
    for node, enclosing in scoped(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            name, bare = node.id, True
        elif isinstance(node, ast.Attribute):
            name, bare = node.attr, False
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and IDENTIFIER.match(node.value) and id(node) not in exported):
            name, bare = node.value, False
        else:
            continue
        if name not in enclosing:
            yield name, bare


def defined_names():
    """(path, line, name, is_method) for every definition under
    ``src/repro``."""
    for path in python_files(PACKAGE):
        for name, line, is_method in definitions(parse(path)):
            yield os.path.relpath(path, ROOT), line, name, is_method


def read_names():
    """``{name: reached_only_as_a_bare_name}`` for every name read."""
    read = {}
    for top in READERS:
        for path in python_files(os.path.join(ROOT, top)):
            for name, bare in reads(parse(path)):
                read[name] = read.get(name, True) and bare
    return read


def is_read(read, name, is_method):
    """Whether a definition is read; a method needs a non-bare read."""
    return name in read and not (is_method and read[name])


def test_every_defined_name_is_read():
    read = read_names()
    dead = ["%s:%d %s" % (path, line, name)
            for path, line, name, is_method in defined_names()
            if not is_read(read, name, is_method) and name not in ALLOWED]
    assert not dead, ("names nothing in %s reads (delete them or allowlist "
                      "them with a reason):\n  %s"
                      % ("/".join(READERS), "\n  ".join(dead)))


def test_allowlist_names_only_unread_definitions():
    read = read_names()
    unread = {name for __, __, name, is_method in defined_names()
              if not is_read(read, name, is_method)}
    stale = sorted(name for name in ALLOWED if name not in unread)
    assert not stale, "allowlisted names that are gone or now read: %s" % stale


def test_a_read_inside_a_same_named_function_is_not_a_read():
    def read(source):
        return {name for name, __ in reads(ast.parse(source))}

    recursive = ("class Spec:\n"
                 "    def from_json(cls, data):\n"
                 "        return Inner.from_json(data)\n"
                 "def walk(node):\n"
                 "    return [walk(child) for child in node]\n")
    assert read(recursive) == {"Inner", "data", "child", "node"}
    called = recursive + "def run(spec):\n    return walk(spec)\n"
    assert "walk" in read(called) and "from_json" not in read(called)

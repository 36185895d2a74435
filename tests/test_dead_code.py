"""Dead-name guard: every name ``src/repro`` or ``examples/`` defines
must be read somewhere.

The scan collects, from every module under ``src/repro`` and
``examples/``, the top-level functions, classes and UPPER_CASE
constants plus every non-dunder method, then collects every name *read*
by the code in ``src/``, ``examples/`` and ``perfbench/``: loaded
identifiers, attribute accesses, and string literals spelling an
identifier (``getattr`` and registry lookups).  ``perfbench/`` is read
but its definitions are not checked: its files belong to the benchmark
and cannot be edited to fix a finding.  A method is read only through an
attribute access or a string literal: a local variable that happens to
share its name is not a read of it.  A read inside the body of a
function of the same name is not a read either, so a method that only
calls itself, or two same-named methods that only call each other,
still count as dead.  Definitions, imports and ``__all__`` entries are
not reads, so a name that is only re-exported, or only exercised by
``tests/``, counts as dead.  Delete it, or add it to ``ALLOWED`` with
the reason it stays.

The dead-state guard holds stored values to the same rule: every
attribute ``src/repro`` stores (``x.a = ...``, ``x.a += ...``) and every
lowercase module-level name must be read somewhere in the same readers,
or be allowlisted in ``ALLOWED_STATE``.  A load inside a statement that
stores the same name is no read, so a counter that only updates itself
(``self.n += 1``, or through a local: ``n = s.n``, ``n += 1``,
``s.n = n``) counts as dead.  A name in ``__slots__`` is no read either;
a dataclass field is one, since ``asdict`` reads it.  An attribute a
class stores through ``self`` is read only through ``self`` in that
class, a class it inherits from or a class inheriting from it, or
through any other expression (``call.a``) or a string literal anywhere:
a bare name (a parameter) or a ``self.a`` of an unrelated class sharing
its name is no read of it.

The dead-option guard scans the same readers for calls: a parameter with
a default value must be set by some call, or be a constant.  See
:func:`options` and :func:`calls` for what counts as setting one.
"""

import ast
import os
import re

from repro.runner.execute import CELLS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "repro")
DEFINERS = (PACKAGE, os.path.join(ROOT, "examples"))
READERS = ("src", "examples", "perfbench")

ALLOWED = {
    # Reference oracles the tests compare the models against.
    "snr_db": "oracle: tests check the G.711 codec's SNR against it",
    "weibull_mean": "oracle: tests check the Harpoon sampler's mean against it",
    "EModel": "G.107 E-model as one object: tests check the standard's "
              "anchor points through it",
    "stanford_packets": "Table 2's BDP/sqrt(n) rule: tests check it yields "
                        "the 28-packet backbone buffer",
    "Interface": "event-driven link: tests check DropTailLink against it "
                 "float for float, and build links around their own "
                 "queues with it",
    # Paper data and catalogs kept for the paper, not for a caller.
    "FIG4_BIDIR_DOWNLINK": "digitized paper data (Figure 4, bidir panel)",
    "FIG4_BIDIR_UPLINK": "digitized paper data (Figure 4, bidir panel)",
    "ACCESS_SCENARIOS": "Table 1 access catalog: tests check its rows",
    "BACKBONE_SCENARIOS": "Table 1 backbone catalog: tests check its rows",
    # Queries the tests read, with no caller in the tree.
    "from_json": "SweepSpec/ScenarioSpec inverse of to_json: the registry "
                 "round-trip tests check that the spec JSON `describe` "
                 "prints loses nothing",
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


def targets(node):
    """The attributes and names an assignment statement stores to
    (``x.a = ...``, ``a += ...``, ``x.a: T = ...``; none for any other
    node)."""
    if isinstance(node, ast.Assign):
        assigned = node.targets
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        assigned = [node.target]
    else:
        return []
    return [child for target in assigned for child in ast.walk(target)
            if isinstance(child, (ast.Attribute, ast.Name))
            and isinstance(child.ctx, ast.Store)]


def stores(node):
    """Identifiers of what ``node`` stores to (see :func:`targets`)."""
    return frozenset(target.attr if isinstance(target, ast.Attribute)
                     else target.id for target in targets(node))


def scoped(node, enclosing=frozenset()):
    """(descendant, names it cannot read) for every node under ``node``:
    the names of the functions whose body holds it and of what the
    assignment statements holding it store."""
    for field, value in ast.iter_fields(node):
        inner = enclosing
        if field == "body" and isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = enclosing | {node.name}
        for child in value if isinstance(value, list) else [value]:
            if isinstance(child, ast.AST):
                within = inner | stores(child)
                yield child, within
                yield from scoped(child, within)


def owners(tree):
    """``{id(node): name of the innermost class whose body holds it}``."""
    owner = {}
    for node in ast.walk(tree):  # outer classes first, so inner ones win
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                owner.update((id(child), node.name)
                             for child in ast.walk(item))
    return owner


def through_self(node):
    """Whether ``node`` is an attribute of the name ``self``."""
    return (isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "self")


def reads(tree):
    """(identifier, is_bare_name, owner) for every read in the module,
    excluding ``__all__`` and ``__slots__`` entries, reads inside a
    function of the same name and reads inside a statement that stores
    the same name (a self-update such as ``self.n += 1`` or
    ``self.n = n``).  A field a class declares with an annotation (a
    dataclass field) is a read: ``asdict``, ``__eq__`` and ``__repr__``
    read it.  ``is_bare_name`` marks a loaded identifier, as opposed to
    an attribute access or a string literal.  ``owner`` is the class
    whose ``self.<identifier>`` the read loads (or whose field the
    annotation declares), else None."""
    declared = set()
    owner = owners(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in ("__all__", "__slots__")
                for t in node.targets):
            declared.update(id(child) for child in ast.walk(node.value))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    yield item.target.id, False, node.name
    for node, enclosing in scoped(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            name, bare = node.id, True
        elif (isinstance(node, ast.Attribute)
              and not isinstance(node.ctx, ast.Store)):
            name, bare = node.attr, False
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and IDENTIFIER.match(node.value) and id(node) not in declared):
            name, bare = node.value, False
        else:
            continue
        if name not in enclosing:
            yield name, bare, (owner.get(id(node)) if through_self(node)
                               else None)


def defined_names():
    """(path, line, name, is_method) for every definition under
    :data:`DEFINERS`."""
    for top in DEFINERS:
        for path in python_files(top):
            for name, line, is_method in definitions(parse(path)):
                yield os.path.relpath(path, ROOT), line, name, is_method


def reader_trees():
    """The parsed module of every file under :data:`READERS`."""
    return [parse(path) for top in READERS
            for path in python_files(os.path.join(ROOT, top))]


def read_names():
    """``{name: reached_only_as_a_bare_name}`` for every name read."""
    read = {}
    for tree in reader_trees():
        for name, bare, __ in reads(tree):
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


# ---------------------------------------------------------------------------
# Dead state: every value ``src/repro`` stores is read somewhere.
# ---------------------------------------------------------------------------
_CONSERVATION = ("QueueStats safety counter: the packet and byte "
                 "conservation tests read it (enqueued = dequeued + "
                 "backlog)")
_RECOVERY = ("TcpStats loss-recovery counter: the loss-recovery tests read "
             "it, and ROADMAP item 1's spurious-RTO test and item 6's "
             "traces need it")

#: Stored attributes and module-level names nothing in the readers
#: loads, with the reason each stays.
ALLOWED_STATE = {
    "bytes_enqueued": _CONSERVATION,
    "bytes_dropped": _CONSERVATION,
    "dequeued": _CONSERVATION,
    "bytes_dequeued": _CONSERVATION,
    "fast_retransmits": _RECOVERY,
    "timeouts": _RECOVERY,
    "retransmitted_segments": _RECOVERY,
}


def state(tree):
    """(name, line, owner) for every attribute the module stores and
    every lowercase module-level name it assigns; ``owner`` is the class
    whose ``self.<name>`` the statement stores, else None."""
    module = {id(node) for node in tree.body}
    owner = owners(tree)
    for node in ast.walk(tree):
        for target in targets(node):
            if isinstance(target, ast.Attribute):
                yield target.attr, node.lineno, (
                    owner.get(id(target)) if through_self(target) else None)
            elif id(node) in module and not (
                    CONSTANT.match(target.id) or is_dunder(target.id)):
                yield target.id, node.lineno, None


def classes(tree):
    """(name, names of its bases) for every class the module defines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node.name, {base.id if isinstance(base, ast.Name)
                              else base.attr for base in node.bases
                              if isinstance(base, (ast.Name, ast.Attribute))}


def kin(bases):
    """``{class: itself, its ancestors and its descendants}`` over
    ``bases`` (``{class: names of its bases}``)."""
    def ancestors(name, seen):
        for base in bases.get(name, ()):
            if base not in seen:
                seen.add(base)
                ancestors(base, seen)
        return seen

    up = {name: ancestors(name, {name}) for name in bases}
    return {name: up[name] | {other for other in up if name in up[other]}
            for name in up}


def unread(stored, readers):
    """``{name: "path:line"}`` (the first unread store) for every name
    the modules of ``stored`` (``{path: tree}``) store that no tree of
    ``readers`` loads.  A store through ``self`` in class C needs a
    ``self`` read in C's kin (:func:`kin`), or a read through another
    expression or a string literal; any other store needs any read of
    its name."""
    anywhere, loose, through, bases = set(), set(), set(), {}
    for tree in readers:
        for name, bare, owner in reads(tree):
            anywhere.add(name)
            if owner is not None:
                through.add((owner, name))
            elif not bare:
                loose.add(name)
        for name, parents in classes(tree):
            bases.setdefault(name, set()).update(parents)
    related = kin(bases)
    found = {}
    for path, tree in stored.items():
        for name, line, owner in state(tree):
            if owner is None:
                dead = name not in anywhere
            else:
                dead = name not in loose and not any(
                    (cls, name) in through for cls in related[owner])
            if dead:
                found.setdefault(name, "%s:%d" % (path, line))
    return found


def unread_state():
    """:func:`unread` over ``src/repro`` and the readers."""
    return unread({os.path.relpath(path, ROOT): parse(path)
                   for path in python_files(PACKAGE)}, reader_trees())


def test_every_stored_value_is_read():
    dead = ["%s %s" % (where, name)
            for name, where in sorted(unread_state().items())
            if name not in ALLOWED_STATE]
    assert not dead, ("values stored that nothing in %s reads (delete them "
                      "or allowlist them with a reason):\n  %s"
                      % ("/".join(READERS), "\n  ".join(dead)))


def test_state_allowlist_names_only_unread_state():
    unread = unread_state()
    stale = sorted(name for name in ALLOWED_STATE if name not in unread)
    assert not stale, "allowlisted state that is gone or now read: %s" % stale


def test_a_read_inside_a_same_named_function_is_not_a_read():
    def read(source):
        return {name for name, *__ in reads(ast.parse(source))}

    recursive = ("class Spec:\n"
                 "    def from_json(cls, data):\n"
                 "        return Inner.from_json(data)\n"
                 "def walk(node):\n"
                 "    return [walk(child) for child in node]\n")
    assert read(recursive) == {"Inner", "data", "child", "node"}
    called = recursive + "def run(spec):\n    return walk(spec)\n"
    assert "walk" in read(called) and "from_json" not in read(called)


def test_a_self_update_or_a_slot_is_not_a_read():
    tree = ast.parse("class Stats:\n"
                     "    __slots__ = ('count', 'total')\n"
                     "    def __init__(self, count):\n"
                     "        self.count = count\n"
                     "        self.total = 0\n"
                     "    def add(self, n):\n"
                     "        total = self.total\n"
                     "        self.count += 1\n"
                     "        self.total = total + n\n"
                     "mark = 0\n")
    assert sorted(state(tree)) == [
        ("count", 4, "Stats"), ("count", 8, "Stats"), ("mark", 10, None),
        ("total", 5, "Stats"), ("total", 9, "Stats")]
    # Only ``n`` is read: ``count`` feeds only itself, and ``total`` only
    # through a local that feeds it back.
    assert {name for name, *__ in reads(tree)} == {"self", "n"}
    assert "count" in {name for name, *__ in reads(ast.parse(
        "def show(stats):\n    return getattr(stats, 'count')\n"))}


def test_a_self_store_is_read_only_by_its_kin_or_from_outside():
    tree = ast.parse("class Base:\n"
                     "    def peek(self):\n"
                     "        return self.tag\n"
                     "class Call(Base):\n"
                     "    def __init__(self, seed, node):\n"
                     "        self.seed = seed\n"
                     "        check(seed)\n"
                     "        self.node = node\n"
                     "        self.tag = 1\n"
                     "        self.port = 0\n"
                     "        self.size = 0\n"
                     "class Leg(Call):\n"
                     "    def send(self):\n"
                     "        return self.port\n"
                     "class Socket:\n"
                     "    def __init__(self, node):\n"
                     "        self.node = node\n"
                     "    def send(self):\n"
                     "        return self.node\n"
                     "def show(call):\n"
                     "    return call.size\n")
    # A base class reads ``tag`` and a subclass ``port`` through self;
    # ``size`` is read from outside.  The bare parameter ``seed`` and the
    # unrelated Socket's ``self.node`` are no reads of Call's values.
    assert unread({"m": tree}, [tree]) == {"seed": "m:6", "node": "m:8"}
    assert kin({"Base": set(), "Call": {"Base"}, "Leg": {"Call"},
                "Socket": set()})["Call"] == {"Base", "Call", "Leg"}


# ---------------------------------------------------------------------------
# Dead options: every defaulted parameter is set by some call.
# ---------------------------------------------------------------------------
_EMODEL = "G.107 input of the E-model oracle, at the standard's default"
_WEIBULL = ("paper's file-size parameter of the oracle the tests check the "
            "Harpoon sampler's mean against")

#: Defaulted parameters no call in the readers sets, keyed
#: ``Class(param)`` (constructor), ``Class.method(param)`` or
#: ``function(param)``, with the reason each stays a parameter.
ALLOWED_OPTIONS = {
    "Queue(capacity_packets)": "a queue built without a capacity is "
                               "rejected loudly: tests check the "
                               "ValueError",
    "Cubic(mss)": "the base class's signature: tests build every "
                  "algorithm as cls(mss=...)",
    "Cubic(initial_window_segments)": "the base class's signature, whose "
                                      "initial window tests set",
    "BulkTraffic(stagger)": "ROADMAP item 2 replaces the fixed "
                            "index * stagger starts with seeded jitter",
    "TcpListener(delayed_ack)": "the ROADMAP's one-Reno-flow theory "
                                "oracle runs with delayed ACKs off",
    "EModel(r0)": _EMODEL,
    "EModel(ie)": _EMODEL,
    "EModel(bpl)": _EMODEL,
    "EModel(burst_ratio)": _EMODEL,
    "EModel(advantage)": _EMODEL,
    "EModel.score(loss_rate)": "tests score the E-model oracle at a loss "
                               "rate",
    "weibull_mean(shape)": _WEIBULL,
    "weibull_mean(scale)": _WEIBULL,
    "stanford_packets(packet_bytes)": "input of Table 2's BDP/sqrt(n) "
                                      "rule, which tests check",
    "GridRunner(log)": "test seam: tests capture the run log",
    "ResultCache(fingerprint)": "test seam: tests pin the source "
                                "fingerprint",
    "load_sweep(cache)": "test seam: tests load from a private cache",
    "PageFetch(on_complete)": "test seam: tests observe the fetch's end",
    "IntervalSet(intervals)": "test seam: the property tests build sets "
                              "from intervals",
    "ResultSet.to_csv(path)": "public export API: writes a file",
    "ResultSet.to_json(path)": "public export API: writes a file",
}

#: Calls the name scan cannot follow, as ``{callee: names it calls}``:
#: ``execute_task`` calls each kind's cell function in :data:`CELLS`
#: as ``cell(...)``.
DISPATCH = {"cell": tuple(name for __, name in CELLS.values())}


def options(tree):
    """(key, callee, param, line, position) for every defaulted parameter
    in the module.  ``key`` is ``Class(param)`` for a constructor,
    ``Class.method(param)`` or ``function(param)``; ``callee`` is the
    name a call uses: the class for a constructor, else the function or
    method name; ``position`` is the index of the positional argument a
    call passes for the parameter (``None`` for a keyword-only one)."""

    def visit(body, owner):
        for node in body:
            if isinstance(node, ast.ClassDef):
                yield from visit(node.body, node.name)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                bound = owner is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in node.decorator_list)
                callee = owner if node.name == "__init__" else node.name
                name = callee if callee == owner or owner is None \
                    else "%s.%s" % (owner, callee)
                first = len(positional) - len(args.defaults)
                params = [(arg.arg, index - bound) for index, arg
                          in enumerate(positional[first:], first)]
                params += [(arg.arg, None) for arg, default
                           in zip(args.kwonlyargs, args.kw_defaults)
                           if default is not None]
                for param, position in params:
                    yield ("%s(%s)" % (name, param), callee, param,
                           node.lineno, position)
                yield from visit(node.body, None)

    yield from visit(tree.body, None)


def calls(tree):
    """``{callee: [(positional count, keywords, unpacks), ...]}`` for
    every call in the module.  The callee is the called name or
    attribute; ``super().__init__(...)`` calls the enclosing class's
    bases and a :data:`DISPATCH` name calls its targets.  ``unpacks``
    marks a ``*args`` or ``**kwargs`` argument, which may set any
    parameter."""
    found = {}

    def visit(node, bases):
        if isinstance(node, ast.ClassDef):
            bases = tuple(base.id if isinstance(base, ast.Name) else base.attr
                          for base in node.bases)
        if isinstance(node, ast.Call):
            func = node.func
            names = ()
            if isinstance(func, ast.Name):
                names = DISPATCH.get(func.id, (func.id,))
            elif isinstance(func, ast.Attribute):
                value = func.value
                if (func.attr == "__init__" and isinstance(value, ast.Call)
                        and isinstance(value.func, ast.Name)
                        and value.func.id == "super"):
                    names = bases
                else:
                    names = (func.attr,)
            positional = [arg for arg in node.args
                          if not isinstance(arg, ast.Starred)]
            unpacks = (len(positional) < len(node.args)
                       or any(k.arg is None for k in node.keywords))
            call = (len(positional), {k.arg for k in node.keywords}, unpacks)
            for name in names:
                found.setdefault(name, []).append(call)
        for child in ast.iter_child_nodes(node):
            visit(child, bases)

    visit(tree, ())
    return found


def unset(trees, readers):
    """Keys of the defaulted parameters in ``trees`` (``{path: tree}``)
    that no call in ``readers`` (trees) sets."""
    made = {}
    for tree in readers:
        for name, found in calls(tree).items():
            made.setdefault(name, []).extend(found)
    keys = {}
    for path, tree in trees.items():
        for key, callee, param, line, position in options(tree):
            if not any(unpacks or param in keywords
                       or (position is not None and count > position)
                       for count, keywords, unpacks in made.get(callee, ())):
                keys[key] = "%s:%d" % (path, line)
    return keys


def unset_options():
    """``{key: "path:line"}`` for every defaulted parameter under
    ``src/repro`` that no call in the readers sets."""
    trees = {os.path.relpath(path, ROOT): parse(path)
             for path in python_files(PACKAGE)}
    return unset(trees, reader_trees())


def test_every_option_is_set_by_a_call():
    dead = ["%s %s" % (where, key)
            for key, where in sorted(unset_options().items())
            if key not in ALLOWED_OPTIONS]
    assert not dead, ("defaulted parameters no call in %s sets (make them "
                      "constants or allowlist them with a reason):\n  %s"
                      % ("/".join(READERS), "\n  ".join(dead)))


def test_option_allowlist_names_only_unset_parameters():
    unset = unset_options()
    stale = sorted(key for key in ALLOWED_OPTIONS if key not in unset)
    assert not stale, ("allowlisted parameters that are gone or now set: %s"
                       % stale)


def test_the_option_scan_follows_positions_keywords_and_super():
    tree = ast.parse("class Base:\n"
                     "    def __init__(self, a=1, b=2, *, c=3):\n"
                     "        pass\n"
                     "class Child(Base):\n"
                     "    def __init__(self, d=4):\n"
                     "        super().__init__(0)\n"
                     "    def run(self, e=5):\n"
                     "        pass\n"
                     "def go(f=6, g=7):\n"
                     "    Child().run(c=0)\n"
                     "    Base(**{})\n"
                     "    cell(f=0)\n")
    assert [(key, callee, position)
            for key, callee, __, __, position in options(tree)] == [
        ("Base(a)", "Base", 0), ("Base(b)", "Base", 1),
        ("Base(c)", "Base", None), ("Child(d)", "Child", 0),
        ("Child.run(e)", "run", 0), ("go(f)", "go", 0), ("go(g)", "go", 1)]
    # super().__init__(0) sets Base's ``a``, Base(**{}) may set anything,
    # and cell(...) is a call of every CELLS function, not of ``go``.
    assert set(unset({"m": tree}, [tree])) == {
        "Child(d)", "Child.run(e)", "go(f)", "go(g)"}

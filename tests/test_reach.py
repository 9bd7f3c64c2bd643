"""What ships is what something reaches.

A definition in ``src/repro`` stays only if a workload, a figure
benchmark, the CLI, an example or another definition that is itself
reached uses it; a name stays in a package's ``__all__`` only if a file
other than its defining module uses it.  Tests are not a reason to keep
either: a helper that only its own tests call is dead surface.

The scan is by name, not by type: ``obj.run`` reaches every method
called ``run``.  A reference is a ``Name``, an ``Attribute`` or a string
constant that is an identifier or a dotted path (``getattr`` dispatch,
``"repro.ml.compute_gradient"``).  It does not count inside an import,
inside an ``__all__`` list, inside the definition it names, or inside a
definition that is itself dead; the last rule is iterated to a fixpoint,
so a helper that only dead code calls is dead too.

The same holds for a parameter with a default: some call in those files
must pass it, by keyword or by position, or it is a constant.  Calls
match by name as well: ``Foo(...)`` passes to ``Foo.__init__`` (or,
without one, to its bases' by name), ``cls(...)`` in a method to its own
class, ``super().__init__(...)`` to the class's bases, ``x.meth(...)``
to every ``meth``.  A ``**kwargs`` forwarder passes a name only when one
of its own callers passes it.
"""

import ast
import functools
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
ROOTS = [ROOT / "benchmarks", ROOT / "benchmarks" / "perf", ROOT / "examples"]

#: Definitions kept although only tests reach them (at most eight),
#: each with the reason.  They still leave their package's ``__all__``.
ALLOWLIST = {
    "naive_collection_time":
        "closed form tests/test_obs_critical_path.py's golden checks",
    "naive_aggregation_time":
        "closed form tests/test_obs_critical_path.py's golden checks",
    "straus": "one side of multi_scalar_mult's selection; tested directly",
    "pippenger": "the other side of that selection; tested directly",
    "FakeWallClock": "the test double behind the WallClock seam",
}

#: Defaulted parameters kept although no shipped call passes them (at
#: most ten), each with the reason.
PARAM_ALLOWLIST = {
    "cli.py::_run_run(clock)": "the seam tests drive with FakeWallClock",
    "cli.py::_run_commit_cost(clock)": "the same seam, for commit-cost",
    "profiling.py::FakeWallClock.__init__(start)": "the test double's state",
    "profiling.py::FakeWallClock.__init__(tick)": "the test double's state",
    "multiexp.py::straus(width)":
        "straus is allowlisted above; its tests vary the window",
    "multiexp.py::pippenger(window)":
        "pippenger is allowlisted above; its tests vary the window",
    "models.py::LogisticRegression.__init__(l2)":
        "dropping `+ l2 * w` at l2 = 0 turns -0.0 into +0.0: hashes move",
    "models.py::MLPClassifier.__init__(l2)":
        "dropping `+ l2 * w` at l2 = 0 turns -0.0 into +0.0: hashes move",
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*\Z")


class Definition:
    """One module-level function/class or method."""

    def __init__(self, qualname, path, node):
        self.qualname = qualname
        self.name = node.name
        self.path = path
        self.node = node

    @property
    def public(self):
        return not self.name.startswith("_")

    def __repr__(self):
        return f"{self.path.name}::{self.qualname}"


class _Scanner(ast.NodeVisitor):
    """Collects one file's definitions and its (name, enclosing) refs."""

    def __init__(self, path, with_defs):
        self.path = path
        self.with_defs = with_defs
        self.defs = []
        self.refs = []  # (name, frozenset of enclosing Definitions)
        self._stack = []
        self._enclosing = frozenset()
        self._class = None

    def _define(self, node):
        if not self.with_defs:
            return None
        if not self._stack:
            qual = node.name
        elif self._class is not None and self._stack[-1].node is self._class:
            qual = f"{self._class.name}.{node.name}"
        else:
            return None  # nested helper: part of its enclosing definition
        d = Definition(qual, self.path, node)
        self.defs.append(d)
        return d

    def _visit_def(self, node, is_class):
        d = self._define(node)
        outer, enclosing = self._class, self._enclosing
        if d is not None:
            self._stack.append(d)
            self._enclosing = enclosing | {d}
            if is_class and len(self._stack) == 1:
                self._class = node
        self.generic_visit(node)
        if d is not None:
            self._stack.pop()
        self._class, self._enclosing = outer, enclosing

    def visit_FunctionDef(self, node):
        self._visit_def(node, False)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        self._visit_def(node, True)

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import

    def visit_Assign(self, node):
        if any(isinstance(t, ast.Name) and t.id == "__all__"
               for t in node.targets):
            return
        self.generic_visit(node)

    def _ref(self, name):
        self.refs.append((name, self._enclosing))

    def visit_Name(self, node):
        self._ref(node.id)

    def visit_Attribute(self, node):
        self._ref(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and _IDENT.match(node.value):
            for part in node.value.split("."):
                self._ref(part)


@functools.lru_cache(maxsize=None)
def _parse(path):
    return ast.parse(path.read_text(), str(path))


def _files():
    src = sorted(SRC.rglob("*.py"))
    roots = sorted({p for d in ROOTS for p in d.glob("*.py")})
    return src, roots


def scan(src_files, root_files):
    """Parse the tree; return (definitions, refs by name).

    Each ref is ``(path, enclosing)``: the file it is in and the set of
    definitions it sits inside.
    """
    defs = []
    refs = {}
    for path, with_defs in ([(p, True) for p in src_files]
                            + [(p, False) for p in root_files]):
        s = _Scanner(path, with_defs)
        s.visit(_parse(path))
        defs.extend(s.defs)
        for name, enclosing in s.refs:
            refs.setdefault(name, []).append((path, enclosing))
    return defs, refs


def dead_definitions(defs, refs):
    """The fixpoint: definitions no live code outside themselves names."""
    dead = set()
    while True:
        newly = set()
        for d in defs:
            if d in dead:
                continue
            if not any(d not in enc and not (enc & dead)
                       for _, enc in refs.get(d.name, ())):
                newly.add(d)
        if not newly:
            return dead
        dead |= newly


def _enclosing_dead(d, dead):
    """A method of a dead class goes with the class: report the class."""
    return any(o is not d and o.path == d.path and o in dead
               and d.qualname.startswith(o.qualname + ".") for o in dead)


def unreached(defs, refs, allow=()):
    dead = dead_definitions(defs, refs)
    return sorted(repr(d) for d in dead
                  if d.public and d.name not in allow
                  and not _enclosing_dead(d, dead))


def _defining_module(package_init, name, seen=()):
    """Follow ``from .x import name`` until the file that defines it."""
    for node in _parse(package_init).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                and node.name == name:
            return package_init
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return package_init
        if isinstance(node, ast.ImportFrom) and node.level and any(
                (a.asname or a.name) == name for a in node.names):
            base = package_init.parent
            for _ in range(node.level - 1):
                base = base.parent
            target = base.joinpath(*(node.module or "").split("."))
            path = (target / "__init__.py" if target.is_dir()
                    else target.with_suffix(".py"))
            if path in seen:
                return None
            return _defining_module(path, name, seen + (path,))
    return None


def package_exports(src_files):
    """``(package __init__, name)`` for every public ``__all__`` entry."""
    out = []
    for path in src_files:
        if path.name != "__init__.py":
            continue
        for node in _parse(path).body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                out.extend((path, n) for n in ast.literal_eval(node.value)
                           if not n.startswith("_"))
    return out


def unused_exports(src_files, defs, refs):
    dead = dead_definitions(defs, refs)
    bad = []
    for init, name in package_exports(src_files):
        home = _defining_module(init, name)
        if not any(path != home and path != init and not (enc & dead)
                   for path, enc in refs.get(name, ())):
            bad.append(f"{init.parent.name}.{name}")
    return sorted(bad)


# -- parameters ------------------------------------------------------------------


class Signature:
    """A function or method of the scanned package, as calls see it."""

    def __init__(self, path, node, cls):
        self.path = path
        self.qualname = f"{cls.name}.{node.name}" if cls else node.name
        self.name = node.name
        self.cls = cls
        args = node.args
        positional = args.posonlyargs + args.args
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                     for d in node.decorator_list)
        #: True when a call through an instance or class supplies the
        #: first parameter (``self`` / ``cls``).
        self.bound = cls is not None and not static
        self.positional = [a.arg for a in positional][self.bound:]
        first_default = len(positional) - len(args.defaults)
        self.defaulted = [a.arg for a in positional[first_default:]] + [
            a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None]
        self.named = set(self.positional) | {a.arg for a in args.kwonlyargs}
        self.varkw = args.kwarg.arg if args.kwarg else None

    def __repr__(self):
        return f"{self.path.name}::{self.qualname}"


class Call:
    """One call site: whom it may reach and what it passes."""

    def __init__(self, node, cls, caller):
        self.targets = _call_targets(node.func, cls, caller)
        self.positional_count = sum(not isinstance(a, ast.Starred)
                                    for a in node.args)
        self.star = len(node.args) > self.positional_count
        self.keywords = set()
        #: The enclosing signature whose ``**kwargs`` this call forwards.
        self.forwards = None
        for keyword in node.keywords:
            value = keyword.value
            if keyword.arg is not None:
                self.keywords.add(keyword.arg)
            elif (isinstance(value, ast.Name) and caller is not None
                  and value.id == caller.varkw):
                self.forwards = caller
            elif isinstance(value, ast.Dict):
                self.keywords.update(
                    k.value for k in value.keys
                    if isinstance(k, ast.Constant))


def _call_targets(func, cls, caller):
    """``(kind, name, bound)``: ``kind`` "init" names a class whose
    ``__init__`` is called, "name" any callable of that name."""
    if isinstance(func, ast.Name):
        if func.id == "cls" and caller is not None and caller.cls:
            return [("init", caller.cls.name, True)]
        return [("name", func.id, True)]
    if not isinstance(func, ast.Attribute):
        return []
    if func.attr == "__init__":
        owner = func.value
        if (isinstance(owner, ast.Call) and isinstance(owner.func, ast.Name)
                and owner.func.id == "super" and cls is not None):
            return [("init", base.id, True) for base in cls.bases
                    if isinstance(base, ast.Name)]
        if isinstance(owner, ast.Name):
            return [("init", owner.id, False)]  # Base.__init__(self, ...)
        return []
    return [("name", func.attr, True)]


def scan_calls(src_files, root_files):
    """Every signature in ``src_files`` and every call in both sets."""
    signatures, calls, classes = [], [], {}
    for path in list(src_files) + list(root_files):
        with_defs = path in src_files
        for top in _parse(path).body:
            members = [(top, None)]
            if isinstance(top, ast.ClassDef):
                classes.setdefault(top.name, []).append(top)
                members = [(node, top) for node in top.body]
            for node, cls in members:
                caller = None
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if with_defs:
                        caller = Signature(path, node, cls)
                        signatures.append(caller)
                calls.extend(Call(n, cls, caller) for n in ast.walk(node)
                             if isinstance(n, ast.Call))
    return signatures, calls, classes


def _initializers(signatures, classes):
    """Class name -> the ``__init__`` signatures ``Name(...)`` reaches."""
    own = {}
    for signature in signatures:
        if signature.name == "__init__":
            own.setdefault(signature.cls.name, []).append(signature)

    def resolve(name, seen):
        found = list(own.get(name, ()))
        if not found:
            for cls in classes.get(name, ()):
                for base in cls.bases:
                    if isinstance(base, ast.Name) and base.id not in seen:
                        found += resolve(base.id, seen | {base.id})
        return found

    return {name: resolve(name, {name}) for name in classes}


def unpassed_parameters(signatures, calls, classes, allow=()):
    """``file::qualname(param)`` for every defaulted parameter no call
    passes: the fixpoint over ``**kwargs`` forwarding."""
    by_name = {}
    for signature in signatures:
        if not signature.name.startswith("__"):
            by_name.setdefault(signature.name, []).append(signature)
    inits = _initializers(signatures, classes)

    def reached(kind, name, bound):
        found = [(s, bound) for s in inits.get(name, ())]
        if kind == "name":
            found += [(s, True) for s in by_name.get(name, ())]
        return found

    passed = {signature: set() for signature in signatures}
    changed = True
    while changed:
        changed = False
        for call in calls:
            names = set(call.keywords)
            if call.forwards is not None:
                forwarder = call.forwards
                names |= passed[forwarder] - forwarder.named
            for target in call.targets:
                for signature, bound in reached(*target):
                    positional = signature.positional
                    if not bound and signature.bound:
                        positional = [None] + positional  # explicit self
                    if not call.star:
                        positional = positional[:call.positional_count]
                    new = (names | set(positional)) - {None}
                    if not new <= passed[signature]:
                        passed[signature] |= new
                        changed = True
    return sorted(
        f"{signature!r}({name})" for signature in signatures
        if signature.name == "__init__" or not signature.name.startswith("__")
        for name in signature.defaulted
        if name not in passed[signature]
        and f"{signature!r}({name})" not in allow)


def test_every_definition_and_export_is_reached():
    src, roots = _files()
    defs, refs = scan(src, roots)
    assert len(ALLOWLIST) <= 8
    assert unreached(defs, refs, ALLOWLIST) == []
    assert unused_exports(src, defs, refs) == []


def test_the_scan_reports_an_uncalled_public_def(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from .mod import used, unused, Box\n"
        "__all__ = ['used', 'unused', 'Box']\n")
    (pkg / "mod.py").write_text(
        "def helper():\n    return 1\n\n"
        "def only_dead_calls_me():\n    return 2\n\n"
        "def used():\n    return helper()\n\n"
        "def unused():\n    return only_dead_calls_me() + unused()\n\n"
        "class Box:\n"
        "    def open(self):\n        return self.peek()\n"
        "    def peek(self):\n        return 3\n"
        "    def shake(self):\n        return 4\n")
    (tmp_path / "main.py").write_text(
        "from pkg import used, Box\nused()\nBox().open()\n")
    src = sorted(pkg.glob("*.py"))
    defs, refs = scan(src, [tmp_path / "main.py"])
    assert unreached(defs, refs) == [
        "mod.py::Box.shake", "mod.py::only_dead_calls_me", "mod.py::unused"]
    # Box and used are named by main.py, unused by nothing else.
    assert unused_exports(src, defs, refs) == ["pkg.unused"]


def test_every_defaulted_parameter_is_passed():
    src, roots = _files()
    assert len(PARAM_ALLOWLIST) <= 10
    assert unpassed_parameters(*scan_calls(src, roots),
                               allow=PARAM_ALLOWLIST) == []


def test_the_scan_reports_an_unpassed_parameter(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "def knob(a, b=1, c=2, *, d=3, e=4):\n    return a\n\n"
        "def forward(**options):\n    return knob(0, **options)\n\n"
        "class Box:\n"
        "    def __init__(self, size=1, color='red'):\n"
        "        self.size = size\n"
        "    @classmethod\n"
        "    def small(cls):\n        return cls(size=0)\n\n"
        "class Crate(Box):\n"
        "    def __init__(self, label='', **rest):\n"
        "        super().__init__(**rest)\n")
    (tmp_path / "main.py").write_text(
        "from pkg.mod import Box, Crate, forward, knob\n"
        "knob(1, 2)\n"                 # b only by position
        "forward(d=4)\n"               # d through the forwarder
        "Crate(label='x', color='blue')\n"  # color through super()
        "Box.small()\n")
    src = sorted(pkg.glob("*.py"))
    found = unpassed_parameters(*scan_calls(src, [tmp_path / "main.py"]))
    # c: nobody passes it; e: forward's callers never pass it.
    assert found == ["mod.py::knob(c)", "mod.py::knob(e)"]

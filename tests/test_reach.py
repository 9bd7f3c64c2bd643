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

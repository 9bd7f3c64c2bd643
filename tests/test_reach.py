"""What ships is what something reaches.

A definition in ``src/repro`` stays only if a workload, a figure
benchmark, the CLI, an example or another definition that is itself
reached uses it.  Tests are not a reason to keep it: a helper that only
its own tests call is dead surface.

Exports are held by imports, not by names.  A name stays in
``repro.<pkg>.__all__`` only if a shipped file outside ``repro/<pkg>/``
imports it from ``repro.<pkg>`` or from a module under it (relative
imports resolved; reading ``repro.<pkg>.name`` through an ``import``
counts too).  A name stays in ``repro.__all__`` only if a benchmark or
an example imports it ``from repro``.  No package ``__init__`` imports a
public name its ``__all__`` does not list, so every name has one
package home; a test imports an unexported name from its module.  Only
a package ``__init__`` assigns ``__all__``: nothing reads a module's own
list (there is no ``import *``), so it would be a second surface that
no rule checks.

The definition scan is by name, not by type: ``obj.run`` reaches every
method called ``run``.  Only ``self.run``, ``cls.run``, ``super().run``
and ``ClassName.run`` know their class: they reach a ``run`` of that
class, of its bases or of its subclasses, and no other.  A special
method lives while its class does.  A reference is a ``Name``, an
``Attribute`` or a string constant that is an identifier or a dotted
path (``getattr`` dispatch, ``"repro.ml.compute_gradient"``).  It does
not count inside an import, inside an ``__all__`` list, inside the
definition it names, or inside a definition that is itself dead; the
last rule is iterated to a fixpoint, so a helper that only dead code
calls is dead too.

The same holds for a parameter with a default: some call in those files
must pass it, by keyword or by position, or it is a constant.  Calls
match by name: ``Foo(...)`` passes to ``Foo.__init__`` (or,
without one, to its bases' by name), ``cls(...)`` in a method to its own
class, ``super().__init__(...)`` to the class's bases, ``x.meth(...)``
to every ``meth``.  A ``**kwargs`` forwarder passes a name only when one
of its own callers passes it.

State is held to the same rule: an attribute that ``src/repro`` sets on
``self`` stays only if some load in those files reads it.  Loads resolve
as definitions do (``self.x`` to the class family, ``obj.x`` to every
``x``); updating ``self.x`` in place (``+=``, ``self.x[k] = ...``) is
not a read, and a string names an attribute only as ``getattr`` /
``hasattr``'s second argument.
"""

import ast
import functools
import json
import re
from pathlib import Path

from repro.faults.plan import FAULT_KINDS
from repro.obs import ANOMALY_KINDS

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
    "rates_changed":
        "no fault kind changes a link's capacity, but the flow golden "
        "(tests/data/capture_flow_golden.py) and the solver properties "
        "of tests/test_net_incremental.py and tests/test_net_components.py "
        "drive one through it",
}

#: Defaulted parameters kept although no shipped call passes them (at
#: most ten), each with the reason.
PARAM_ALLOWLIST = {
    "profiling.py::HostProfiler.__init__(clock)":
        "the seam tests drive the sampler through with FakeWallClock",
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

#: ``self`` attributes kept although no shipped code reads them (at most
#: six), each with the reason.
STATE_ALLOWLIST = {
    "transport.py::Transport.dropped":
        "tests/test_net_message_path.py compares it against "
        "tests/reference_message_path.py",
    "transport.py::Transport.delivered_by_kind":
        "the same comparison, per message kind",
    "trainer.py::Trainer.rejected_updates":
        "goes or stays with ProtocolConfig.trainer_verification "
        "(ROADMAP item 1b)",
    "profiling.py::FakeWallClock.reads":
        "the test double's read count (FakeWallClock is allowlisted above)",
    "session.py::FLSession.network_profile":
        "the one view of the profile after a fault plan's defaults "
        "(tests/test_network_profile.py)",
}

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*\Z")


class Definition:
    """One module-level function/class or method."""

    def __init__(self, qualname, path, node, owner=None):
        self.qualname = qualname
        self.name = node.name
        self.path = path
        self.node = node
        #: The name of the class a method belongs to; None for the rest.
        self.owner = owner

    @property
    def public(self):
        return not self.name.startswith("_")

    def __repr__(self):
        return f"{self.path.name}::{self.qualname}"


class _Scanner(ast.NodeVisitor):
    """Collects one file's definitions, its top-level classes and its
    (name, enclosing, class) refs."""

    def __init__(self, path, with_defs):
        self.path = path
        self.with_defs = with_defs
        self.defs = []
        #: (name, frozenset of enclosing Definitions, class name or None)
        self.refs = []
        #: top-level class name -> the names of its bases
        self.classes = {}
        self._stack = []
        self._enclosing = frozenset()
        self._class = None
        self._depth = 0
        self._owner = None  # the top-level class this code sits in

    def _define(self, node):
        if not self.with_defs:
            return None
        if not self._stack:
            qual = node.name
        elif self._class is not None and self._stack[-1].node is self._class:
            qual = f"{self._class.name}.{node.name}"
        else:
            return None  # nested helper: part of its enclosing definition
        d = Definition(qual, self.path, node,
                       self._owner if self._stack else None)
        self.defs.append(d)
        return d

    def _visit_def(self, node, is_class):
        d = self._define(node)
        outer, enclosing, owner = self._class, self._enclosing, self._owner
        if is_class and self._depth == 0:
            self._owner = node.name
            self.classes[node.name] = [
                base.id if isinstance(base, ast.Name) else base.attr
                for base in node.bases
                if isinstance(base, (ast.Name, ast.Attribute))]
        if d is not None:
            self._stack.append(d)
            self._enclosing = enclosing | {d}
            if is_class and len(self._stack) == 1:
                self._class = node
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1
        if d is not None:
            self._stack.pop()
        self._class, self._enclosing, self._owner = outer, enclosing, owner

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

    def _ref(self, name, cls=None):
        self.refs.append((name, self._enclosing, cls))

    def visit_Name(self, node):
        self._ref(node.id)

    def visit_Attribute(self, node):
        value = node.value
        if isinstance(value, ast.Name) and value.id in ("self", "cls") \
                or (isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "super"):
            self._ref(node.attr, self._owner)
        elif isinstance(value, ast.Name):
            self._ref(node.attr, value.id)  # a class's name, or not
        else:
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


def _families(classes):
    """Class name -> the names of it, its bases and its subclasses,
    transitively."""
    subclasses = {}
    for name, bases in classes.items():
        for base in bases:
            subclasses.setdefault(base, set()).add(name)

    def closure(name, edges):
        found, todo = set(), [name]
        while todo:
            for other in edges.get(todo.pop(), ()):
                if other not in found:
                    found.add(other)
                    todo.append(other)
        return found

    return {name: frozenset({name} | closure(name, classes)
                            | closure(name, subclasses))
            for name in classes}


def scan(src_files, root_files):
    """Parse the tree; return (definitions, refs by name).

    Each ref is ``(path, enclosing, family)``: the file it is in, the set
    of definitions it sits inside, and the names of the classes whose
    methods it can reach (None: any definition of its name).
    """
    defs = []
    raw = []
    classes = {}
    for path, with_defs in ([(p, True) for p in src_files]
                            + [(p, False) for p in root_files]):
        s = _Scanner(path, with_defs)
        s.visit(_parse(path))
        defs.extend(s.defs)
        raw.extend((path, ref) for ref in s.refs)
        for name, bases in s.classes.items():
            classes.setdefault(name, []).extend(bases)
    families = _families(classes)
    refs = {}
    for path, (name, enclosing, cls) in raw:
        refs.setdefault(name, []).append(
            (path, enclosing, families.get(cls)))
    return defs, refs


def _reaches(d, family):
    return family is None or d.owner in family


def dead_definitions(defs, refs):
    """The fixpoint: definitions no live code outside themselves names.
    A special method (``__init__``, ``__len__``) lives while its class
    does: the language calls it."""
    classes = {(d.path, d.qualname): d for d in defs if d.owner is None}
    dead = set()
    while True:
        newly = set()
        for d in defs:
            if d in dead:
                continue
            if d.name.startswith("__") and d.name.endswith("__") \
                    and d.owner is not None:
                if classes[d.path, d.owner] in dead:
                    newly.add(d)
            elif not any(d not in enc and not (enc & dead)
                         and _reaches(d, family)
                         for _, enc, family in refs.get(d.name, ())):
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


# -- exports ---------------------------------------------------------------------

#: Exported names kept although no shipped file outside their package
#: imports them (at most three): an exception a caller must be able to
#: catch, each with the reason.
EXPORT_ALLOWLIST = {}


def _module_name(path, top):
    """``pkg.sub.mod`` for ``top/sub/mod.py``, ``pkg.sub`` for its
    ``__init__.py``, where ``top`` is the directory of package ``pkg``."""
    parts = path.relative_to(top.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(path, module):
    """``(module, name)`` for every name the file imports ``from`` a
    module and every ``module.name`` it reads through an import.
    ``module`` is the file's own dotted name, which resolves relative
    imports (None: the file is outside the package)."""
    tree = _parse(path)
    bound, found = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head = alias.asname or alias.name.split(".")[0]
                bound[head] = alias.name if alias.asname else head
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                if module is None:
                    continue
                package = module.split(".")
                if path.name != "__init__.py":
                    package.pop()
                package = package[:len(package) - node.level + 1]
                base = ".".join(package + ([base] if base else []))
            for alias in node.names:
                found.add((base, alias.name))
                bound[alias.asname or alias.name] = f"{base}.{alias.name}"

    def dotted(node):
        if isinstance(node, ast.Name):
            return bound.get(node.id)
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            return base and f"{base}.{node.attr}"
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            base = dotted(node.value)
            if base:
                found.add((base, node.attr))
    return found


def _exports(init):
    for node in _parse(init).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def module_all_lists(src_files):
    """The files other than package ``__init__``s that assign
    ``__all__`` (plainly, annotated or augmented)."""
    return sorted(
        str(path) for path in src_files if path.name != "__init__.py"
        and any(isinstance(node, ast.Name) and node.id == "__all__"
                and isinstance(node.ctx, ast.Store)
                for node in ast.walk(_parse(path))))


def unimported_exports(src_files, root_files, allow=()):
    """``package.name`` for every public ``__all__`` entry no shipped file
    imports from outside its package, and for every public name a
    package's ``__init__`` imports but does not export.

    A subpackage's name counts when a file outside the subpackage's
    directory imports it from the subpackage or from a module under it;
    a name of the top package (the shallowest ``__init__``) only when a
    file of ``root_files`` imports it from the top package itself.
    """
    inits = [p for p in src_files if p.name == "__init__.py"]
    top = min(inits, key=lambda p: len(p.parts)).parent
    uses = [(path, module, name)
            for path in list(src_files) + list(root_files)
            for module, name in _imports(
                path, _module_name(path, top) if path in src_files
                else None)]
    bad = []
    for init in inits:
        package, exported = _module_name(init, top), _exports(init)
        for name in exported:
            if name.startswith("_") or f"{package}.{name}" in allow:
                continue
            if init.parent == top:
                used = any(path in root_files and module == package
                           for path, module, n in uses if n == name)
            else:
                used = any(not path.is_relative_to(init.parent)
                           and (module == package
                                or module.startswith(package + "."))
                           for path, module, n in uses if n == name)
            if not used:
                bad.append(f"{package}.{name}")
        for node in _parse(init).body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                bad.extend(
                    f"{package}.{name} is imported, not exported"
                    for name in (a.asname or a.name.split(".")[0]
                                 for a in node.names)
                    if not name.startswith("_") and name not in exported)
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


# -- state -----------------------------------------------------------------------


def _self_attribute(node):
    """``x`` for ``self.x`` / ``cls.x``; None for anything else."""
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id in ("self", "cls"):
        return node.attr
    return None


def _updates(tree):
    """ids of the attribute loads that only update what they load: the
    container of a subscript store, and a read of ``self.x`` in the value
    assigned to ``self.x``."""
    skip = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            continue
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        updated = set()
        for target in targets:
            while isinstance(target, ast.Subscript):
                skip.add(id(target.value))
                target = target.value
            updated.add(_self_attribute(target))
        for sub in ast.walk(node.value) if node.value is not None else ():
            if _self_attribute(sub) in updated - {None}:
                skip.add(id(sub))
    return skip


def unread_state(src_files, root_files, allow=()):
    """``file::Class.attr`` for every ``self.attr`` a class in
    ``src_files`` assigns and no load in either set reads."""
    stores, loads, classes = {}, {}, {}
    for path in list(src_files) + list(root_files):
        for top in _parse(path).body:
            owner = top.name if isinstance(top, ast.ClassDef) else None
            if owner is not None:
                classes.setdefault(owner, []).extend(
                    base.id if isinstance(base, ast.Name) else base.attr
                    for base in top.bases
                    if isinstance(base, (ast.Name, ast.Attribute)))
            skip = _updates(top)
            for node in ast.walk(top):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id in ("getattr", "hasattr")
                        and len(node.args) > 1
                        and isinstance(node.args[1], ast.Constant)):
                    loads.setdefault(node.args[1].value, []).append(None)
                if not isinstance(node, ast.Attribute):
                    continue
                own = _self_attribute(node) is not None
                if isinstance(node.ctx, ast.Load):
                    if id(node) not in skip:
                        value = node.value
                        loads.setdefault(node.attr, []).append(
                            owner if own else value.id
                            if isinstance(value, ast.Name) else None)
                elif own and owner is not None and path in src_files:
                    stores[f"{path.name}::{owner}.{node.attr}"] = \
                        (owner, node.attr)
    families = _families(classes)
    return sorted(
        key for key, (owner, attr) in stores.items()
        if key not in allow and not any(
            families.get(cls) is None or owner in families[cls]
            for cls in loads.get(attr, ())))


def test_every_definition_and_export_is_reached():
    src, roots = _files()
    defs, refs = scan(src, roots)
    assert len(ALLOWLIST) <= 8
    assert unreached(defs, refs, ALLOWLIST) == []
    assert len(EXPORT_ALLOWLIST) <= 3
    assert unimported_exports(src, roots, EXPORT_ALLOWLIST) == []
    assert module_all_lists(src) == []


def test_the_scan_reports_a_module_all_list(tmp_path):
    sources = {
        "__init__.py": "from .a import f\n__all__ = ['f']\n",
        "a.py": "__all__ = ['f']\n\ndef f():\n    return 1\n",
        "b.py": "from typing import List\n__all__: List[str] = []\n",
        "c.py": "__all__ = []\n__all__ += ['g']\n",
        "d.py": "def g():\n    return __all__\n",
    }
    for name, text in sources.items():
        (tmp_path / name).write_text(text)
    assert module_all_lists(sorted(tmp_path.glob("*.py"))) == [
        str(tmp_path / name) for name in ("a.py", "b.py", "c.py")]


def test_every_assigned_attribute_is_read():
    """A counter only a test reads is not kept alive by that test."""
    src, roots = _files()
    assert len(STATE_ALLOWLIST) <= 6
    assert unread_state(src, roots, STATE_ALLOWLIST) == []
    # And no allowlist entry outlives the attribute it excuses.
    assert set(STATE_ALLOWLIST) <= set(unread_state(src, roots))


def _chaos_job_expected_kinds(workflow):
    """``--expect-anomaly`` kinds in the CI chaos job's steps, except a
    step allowed to fail."""
    job = re.search(r"^  chaos:\n(.*?)(?=^  \S|\Z)", workflow,
                    re.M | re.S).group(1)
    return {kind for step in re.split(r"^      - ", job, flags=re.M)
            if "continue-on-error: true" not in step
            for kind in re.findall(r"--expect-anomaly\s+(\w+)", step)}


def _fixture_expected_kinds(path, fixture):
    """The literals after each ``"--expect-anomaly"`` in ``fixture``."""
    [function] = [node for node in _parse(path).body
                  if isinstance(node, ast.FunctionDef)
                  and node.name == fixture]
    return {kind.value
            for node in ast.walk(function) if isinstance(node, ast.List)
            for flag, kind in zip(node.elts, node.elts[1:])
            if isinstance(flag, ast.Constant)
            and flag.value == "--expect-anomaly"}


def test_every_anomaly_kind_is_expected_by_a_run_that_must_pass():
    """An anomaly kind stays only while a run that must exit 0 names it
    with ``--expect-anomaly``: CI's chaos job, or the churn bundle every
    tier-1 run makes.  A run that fails because the kind never fired
    does not count."""
    expected = _chaos_job_expected_kinds(
        (ROOT / ".github" / "workflows" / "ci.yml").read_text())
    expected |= _fixture_expected_kinds(ROOT / "tests" / "conftest.py",
                                        "churn_bundle")
    assert sorted(set(ANOMALY_KINDS) - expected) == []


def test_the_chaos_scan_skips_a_step_allowed_to_fail():
    workflow = (
        "jobs:\n"
        "  chaos:\n"
        "    steps:\n"
        "      - name: churn\n"
        "        run: cli run --expect-anomaly retry_storm\n"
        "      - name: advisory\n"
        "        continue-on-error: true\n"
        "        run: cli run --expect-anomaly sim_stall\n"
        "  net:\n"
        "    steps:\n"
        "      - run: cli run --expect-anomaly queue_runaway\n")
    assert _chaos_job_expected_kinds(workflow) == {"retry_storm"}


def test_every_fault_kind_is_used_by_a_shipped_plan():
    """A fault kind is a definition too: it stays only while a plan under
    ``examples/plans/`` uses it."""
    used = {spec["kind"]
            for path in (ROOT / "examples" / "plans").glob("*.json")
            for spec in json.loads(path.read_text())["specs"]}
    assert sorted(set(FAULT_KINDS) - used) == []


def test_the_scan_reports_an_uncalled_public_def(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(
        "from .mod import used, unused, Box\n"
        "from .sub import Thing\n"
        "__all__ = ['used', 'unused', 'Box', 'Thing']\n")
    (pkg / "mod.py").write_text(
        "def helper():\n    return 1\n\n"
        "def only_dead_calls_me():\n    return 2\n\n"
        "def used():\n    return helper()\n\n"
        "def unused():\n    return only_dead_calls_me() + unused()\n\n"
        "class Box:\n"
        "    def open(self):\n        return self.peek()\n"
        "    def peek(self):\n        return 3\n"
        "    def shake(self):\n        return 4\n")
    for sub in ("sub", "other"):
        (pkg / sub).mkdir()
    (pkg / "sub" / "__init__.py").write_text(
        "from .a import KINDS, Subscription, Thing, generator, hidden, "
        "sibling\n"
        "__all__ = ['KINDS', 'Subscription', 'Thing', 'generator', "
        "'sibling']\n")
    (pkg / "sub" / "a.py").write_text(
        "from typing import Dict\n"
        "KINDS: Dict[str, int] = {'a': 1}\n"
        "class Subscription:\n    pass\n"
        "class Thing:\n    pass\n"
        "def generator():\n    return KINDS\n"
        "def hidden():\n    return 0\n"
        "def sibling():\n    return 1\n")
    (pkg / "sub" / "b.py").write_text(
        "from .a import sibling\n"
        "def use():\n    return sibling()\n")
    (pkg / "other" / "__init__.py").write_text(
        "from .c import Subscription\n__all__ = ['Subscription']\n")
    (pkg / "other" / "c.py").write_text(
        "class Subscription:\n"
        "    def generator(self):\n        return 2\n"
        "    def pick(self, generator):\n"
        "        return generator.generator()\n")
    (tmp_path / "main.py").write_text(
        "import pkg.other.c\n"
        "from pkg import used, Box\n"
        "from pkg.sub import Thing\n"
        "from pkg.sub.b import use\n"
        "used()\nBox().open()\n"
        "box = pkg.other.c.Subscription()\nbox.pick(box)\n"
        "Thing()\nuse()\n")
    src = sorted(pkg.glob("*.py"))
    defs, refs = scan(src, [tmp_path / "main.py"])
    assert unreached(defs, refs) == [
        "mod.py::Box.shake", "mod.py::only_dead_calls_me", "mod.py::unused"]
    # An export counts only when a file outside its package imports it
    # from that package.  Every name below is used by live code, which
    # a match by name would count: sibling is imported inside pkg.sub
    # alone, only pkg.other's Subscription is read (through an import
    # of its module), generator is only a parameter and a method, KINDS
    # (annotated) is read only by its own module, and main.py imports
    # Thing from pkg.sub, not pkg.
    assert unimported_exports(sorted(pkg.rglob("*.py")),
                              [tmp_path / "main.py"]) == [
        "pkg.Thing", "pkg.sub.KINDS", "pkg.sub.Subscription",
        "pkg.sub.generator", "pkg.sub.hidden is imported, not exported",
        "pkg.sub.sibling", "pkg.unused"]


def test_the_scan_resolves_self_cls_super_and_class_names(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "class Base:\n"
        "    def __len__(self):\n        return self.size()\n"
        "    def render(self):\n        return self.to_json()\n"
        "    @classmethod\n"
        "    def make(cls):\n        return cls.parse()\n"
        "    def size(self):\n        return 0\n"
        "    def to_json(self):\n        return ''\n"
        "    def parse(self):\n        return 1\n\n"
        "class Child(Base):\n"
        "    def to_json(self):\n        return super().to_json()\n"
        "    def close(self):\n        return 2\n\n"
        "class Other:\n"
        "    def to_json(self):\n        return '{}'\n"
        "    def parse(self):\n        return 3\n"
        "    def close(self):\n        return 4\n"
        "    def size(self):\n        return 5\n"
        "    def load(self):\n        return 6\n\n"
        "class Stranger:\n"
        "    def load(self):\n        return 7\n")
    (tmp_path / "main.py").write_text(
        "from pkg.mod import Child, Other, Stranger\n"
        "Child().render()\n"
        "Child.make()\n"
        "Other()\n"
        "Stranger()\n"
        "handle.close()\n")  # not self / cls / a class: any close
    src = sorted(pkg.glob("*.py"))
    defs, refs = scan(src, [tmp_path / "main.py"])
    # self.to_json in Base reaches Base's and Child's (a subclass), not
    # Other's; Base.__len__ lives with Base, and so self.size() in it
    # reaches Base.size alone.  Other.load and Stranger.load: nobody.
    assert unreached(defs, refs) == [
        "mod.py::Other.load", "mod.py::Other.parse", "mod.py::Other.size",
        "mod.py::Other.to_json", "mod.py::Stranger.load"]


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


def test_the_scan_reports_state_nobody_reads(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        "class Base:\n"
        "    def __init__(self):\n"
        "        self.size = 0\n"
        "        self.hits = 0\n"
        "        self.seen = {}\n"
        "        self.name = 'b'\n"
        "    def touch(self, key):\n"
        "        self.hits += 1\n"
        "        self.seen[key] = self.seen.get(key, 0) + 1\n\n"
        "class Child(Base):\n"
        "    def grow(self):\n        return self.size + 1\n\n"
        "class Other:\n"
        "    def __init__(self):\n"
        "        self.size = 1\n"
        "        self.kind = 'o'\n"
        "        self.label = 'x'\n")
    (tmp_path / "main.py").write_text(
        "from pkg.mod import Child, Other\n"
        "box = Child()\n"
        "print(box.name, getattr(Other(), 'kind'), 'label')\n")
    found = unread_state(sorted(pkg.glob("*.py")), [tmp_path / "main.py"])
    # hits and seen are only updated; Child's self.size reads Base's, not
    # Other's; a bare string is not a read.
    assert found == ["mod.py::Base.hits", "mod.py::Base.seen",
                     "mod.py::Other.label", "mod.py::Other.size"]

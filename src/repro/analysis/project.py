"""The whole-program index every lint rule is handed.

One sweep over the already-parsed modules produces:

- a module table (one :class:`ModuleFacts` per scanned file),
- per-class attribute tables (which ``self.X`` attributes exist, which are
  locks, which are condition aliases of a lock, which hold unpicklable
  resources, which are built from project classes),
- a method -> attribute-access map, where every access records the set of
  ``with self.<lock>:`` blocks lexically enclosing it, and
- a call graph good enough to resolve ``self.method()`` and module-level
  ``function()`` calls.

The index is deliberately conservative and purely syntactic: only ``self.``
receivers are tracked, nested ``def``/``lambda`` bodies are recorded as
*deferred* (they run later, outside the enclosing lock scope), and anything
the sweep cannot resolve simply produces no edge.  The rules built on top
(:mod:`repro.analysis.project_rules`) are written so that missing facts can
only cause missed findings, never false ones.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set

from .rules import Module, statement_spans, tag_span

__all__ = [
    "AttrAccess",
    "CallSite",
    "ClassInfo",
    "MethodInfo",
    "ModuleFacts",
    "ProjectIndex",
    "build_project",
]

#: ``threading.Lock``/``RLock`` factory names — the guards RA10 keys on.
_LOCK_FACTORIES = frozenset({"Lock", "RLock"})

#: factories whose product must never cross a pickle/fork boundary (RA12):
#: locks, condition variables, events, threads, pools, mmaps, thread-locals.
_UNSAFE_FACTORIES = frozenset(
    {
        "Lock",
        "RLock",
        "Condition",
        "Event",
        "Semaphore",
        "BoundedSemaphore",
        "Barrier",
        "Thread",
        "Timer",
        "local",
        "ThreadPoolExecutor",
        "ProcessPoolExecutor",
        "Pool",
        "mmap",
    }
)

#: ``# repro: guarded-by(_lock)`` — assert that the tagged statement holds
#: the named lock(s) through a mechanism the analyzer cannot see.
_GUARDED_BY = re.compile(
    r"#\s*repro:\s*guarded-by\(\s*(?P<locks>[^)]*?)\s*\)"
)


@dataclass(frozen=True)
class AttrAccess:
    """One ``self.X`` read or write inside a method body."""

    attr: str
    line: int
    col: int
    is_write: bool
    #: ``with self.<attr>:`` blocks lexically holding the access
    locks: FrozenSet[str]
    #: inside a nested ``def``/``lambda`` — runs later, locks not held
    deferred: bool


@dataclass(frozen=True)
class CallSite:
    """A resolvable call: ``self.name(...)`` or module-level ``name(...)``."""

    scope: str  # "self" | "module"
    name: str
    line: int
    locks: FrozenSet[str]
    deferred: bool


@dataclass
class MethodInfo:
    """Facts about one function or method body."""

    name: str
    module: str
    klass: Optional[str]
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    is_async: bool
    accesses: List[AttrAccess] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    #: ``self`` appears in an executor payload (``submit(...)`` arguments
    #: or an ``initargs=`` keyword) inside this method
    ships_self: bool = False


@dataclass
class ClassInfo:
    """Attribute tables and method map for one top-level class."""

    name: str
    module: str
    path: Path
    line: int
    methods: Dict[str, MethodInfo] = field(default_factory=dict)
    #: attributes assigned a ``threading.Lock()``/``RLock()`` (or a bare
    #: ``Condition()``, which owns its own lock)
    lock_attrs: Set[str] = field(default_factory=set)
    #: condition attr -> the lock attr it wraps
    #: (``self._wake = threading.Condition(self._lock)``)
    lock_aliases: Dict[str, str] = field(default_factory=dict)
    #: attr -> factory name, for attributes holding unpicklable resources
    unsafe_attrs: Dict[str, str] = field(default_factory=dict)
    #: attr -> CamelCase constructor names it is ever assigned from, the
    #: one-hop edge RA12 uses to follow composition (engine -> DecodeCache)
    attr_constructors: Dict[str, Set[str]] = field(default_factory=dict)

    @property
    def ships_self(self) -> bool:
        return any(m.ships_self for m in self.methods.values())

    def guard_names(self) -> Set[str]:
        """Every attribute that acts as a lock, aliases included."""
        return self.lock_attrs | set(self.lock_aliases)

    def canonical_lock(self, name: str) -> str:
        """Collapse a condition alias to the lock it wraps."""
        return self.lock_aliases.get(name, name)


@dataclass
class ModuleFacts:
    """Everything the sweep learned about one module."""

    module: Module
    classes: Dict[str, ClassInfo] = field(default_factory=dict)
    functions: Dict[str, MethodInfo] = field(default_factory=dict)
    #: line -> lock names a ``# repro: guarded-by(...)`` tag vouches for
    guarded_hints: Dict[int, FrozenSet[str]] = field(default_factory=dict)


@dataclass
class ProjectIndex:
    """The cross-module view handed to every rule."""

    #: one entry per scanned file, in scan order; dotted names are not
    #: unique outside a ``repro`` tree (two ``conftest.py`` are both
    #: ``conftest``), so this is a list, not a table keyed by name
    modules: List[ModuleFacts] = field(default_factory=list)

    def find_module(self, name: str) -> Optional[ModuleFacts]:
        """The first scanned module with this dotted name."""
        return next((f for f in self.modules if f.module.name == name), None)

    def iter_classes(self) -> Iterator[ClassInfo]:
        for facts in self.modules:
            yield from facts.classes.values()

    def find_classes(self, simple_name: str) -> List[ClassInfo]:
        """All project classes with this unqualified name."""
        return [c for c in self.iter_classes() if c.name == simple_name]

    def repro_root(self) -> Optional[Path]:
        """The ``repro`` package directory the scanned modules live under.

        Derived from any module whose dotted name is anchored at ``repro``,
        so fixture trees (``tmp/repro/...``) resolve to their own root and
        never leak facts from the installed package.
        """
        for facts in self.modules:
            parts = facts.module.name.split(".")
            if parts[0] != "repro":
                continue
            path = facts.module.path.resolve()
            # repro/a/b.py is len(parts) components below the directory
            # holding the package; an __init__.py adds one more
            index = len(parts) - (2 if path.stem != "__init__" else 1)
            if index < 0:
                return path.parent
            if index < len(path.parents):
                return path.parents[index]
        return None


def _terminal_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _is_self_attr(node: ast.expr, self_name: Optional[str]) -> Optional[str]:
    """The attribute name when ``node`` is ``<self>.X``, else None."""
    if (
        self_name is not None
        and isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == self_name
    ):
        return node.attr
    return None


class _BodyScanner(ast.NodeVisitor):
    """Collects accesses, calls, and lock context for one method body."""

    def __init__(self, info: MethodInfo, self_name: Optional[str]) -> None:
        self.info = info
        self.self_name = self_name
        self.held: List[str] = []
        self.depth = 0  # nested def/lambda depth

    # -- lock context -------------------------------------------------- #

    def _locks(self) -> FrozenSet[str]:
        return frozenset() if self.depth else frozenset(self.held)

    def _scan_with(self, node: ast.AST, items: List[ast.withitem]) -> None:
        acquired: List[str] = []
        for item in items:
            attr = _is_self_attr(item.context_expr, self.self_name)
            if attr is not None and self.depth == 0:
                acquired.append(attr)
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        self.held.extend(acquired)
        for stmt in getattr(node, "body", []):
            self.visit(stmt)
        if acquired:
            del self.held[-len(acquired):]

    def visit_With(self, node: ast.With) -> None:
        self._scan_with(node, node.items)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._scan_with(node, node.items)

    # -- deferred bodies ----------------------------------------------- #

    def _scan_nested(self, node: ast.AST) -> None:
        self.depth += 1
        self.generic_visit(node)
        self.depth -= 1

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._scan_nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._scan_nested(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._scan_nested(node)

    # -- accesses and calls -------------------------------------------- #

    def _record_access(self, node: ast.Attribute, is_write: bool) -> None:
        self.info.accesses.append(
            AttrAccess(
                attr=node.attr,
                line=node.lineno,
                col=node.col_offset,
                is_write=is_write,
                locks=self._locks(),
                deferred=bool(self.depth),
            )
        )

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if _is_self_attr(node, self.self_name) is not None:
            self._record_access(
                node, isinstance(node.ctx, (ast.Store, ast.Del))
            )
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # ``self._entries[key] = ...`` mutates the container: count it as a
        # write of the attribute, in addition to the Load the generic walk
        # records, so item assignment puts an attr into the guarded set.
        if isinstance(node.ctx, (ast.Store, ast.Del)) and isinstance(
            node.value, ast.Attribute
        ):
            if _is_self_attr(node.value, self.self_name) is not None:
                self._record_access(node.value, True)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            self.info.calls.append(
                CallSite(
                    scope="module",
                    name=func.id,
                    line=node.lineno,
                    locks=self._locks(),
                    deferred=bool(self.depth),
                )
            )
        else:
            attr = _is_self_attr(func, self.self_name)
            if attr is not None:
                self.info.calls.append(
                    CallSite(
                        scope="self",
                        name=attr,
                        line=node.lineno,
                        locks=self._locks(),
                        deferred=bool(self.depth),
                    )
                )
        if self._ships_self(node):
            self.info.ships_self = True
        self.generic_visit(node)

    def _ships_self(self, node: ast.Call) -> bool:
        if self.self_name is None:
            return False

        def mentions_self(expr: ast.expr) -> bool:
            return any(
                isinstance(n, ast.Name) and n.id == self.self_name
                for n in ast.walk(expr)
            )

        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "submit",
            "map",
            "apply_async",
        ):
            if any(mentions_self(arg) for arg in node.args):
                return True
        for keyword in node.keywords:
            if keyword.arg == "initargs" and mentions_self(keyword.value):
                return True
        return False


def _self_name(node: ast.AST) -> Optional[str]:
    """The receiver name of an instance method, by convention ``self``.

    ``staticmethod``/``classmethod`` bodies have no ``self`` receiver, and
    the convention check handles them without decoding decorators.
    """
    args = getattr(node, "args", None)
    if args is None or not args.args:
        return None
    first = args.args[0].arg
    return first if first == "self" else None


def _scan_callable(
    node: ast.AST, module_name: str, klass: Optional[str]
) -> MethodInfo:
    info = MethodInfo(
        name=getattr(node, "name", "<lambda>"),
        module=module_name,
        klass=klass,
        node=node,
        is_async=isinstance(node, ast.AsyncFunctionDef),
    )
    scanner = _BodyScanner(info, _self_name(node))
    for stmt in getattr(node, "body", []):
        scanner.visit(stmt)
    return info


def _scan_class_attrs(info: ClassInfo, node: ast.ClassDef) -> None:
    """Fill the lock/unsafe/constructor attribute tables for one class.

    Walks every ``self.X = <value>`` assignment in the class body
    (including ones nested in conditionals or conditional expressions) and
    classifies the calls appearing in the value.
    """
    for sub in ast.walk(node):
        if not isinstance(sub, (ast.Assign, ast.AnnAssign)):
            continue
        targets = (
            sub.targets if isinstance(sub, ast.Assign) else [sub.target]
        )
        value = sub.value
        if value is None:
            continue
        attrs = [
            t.attr
            for t in targets
            if isinstance(t, ast.Attribute)
            and isinstance(t.value, ast.Name)
            and t.value.id == "self"
        ]
        if not attrs:
            continue
        for call in (n for n in ast.walk(value) if isinstance(n, ast.Call)):
            name = _terminal_name(call.func)
            if name is None:
                continue
            for attr in attrs:
                if name in _LOCK_FACTORIES:
                    info.lock_attrs.add(attr)
                elif name == "Condition":
                    wrapped = (
                        _is_self_attr(call.args[0], "self")
                        if call.args
                        else None
                    )
                    if wrapped is not None:
                        info.lock_aliases[attr] = wrapped
                    else:
                        # a bare Condition owns its own lock
                        info.lock_attrs.add(attr)
                if name in _UNSAFE_FACTORIES:
                    info.unsafe_attrs.setdefault(attr, name)
                elif name[:1].isupper():
                    info.attr_constructors.setdefault(attr, set()).add(name)


def _collect_guarded_hints(module: Module) -> Dict[int, FrozenSet[str]]:
    spans = statement_spans(module.tree)
    hints: Dict[int, FrozenSet[str]] = {}
    for number, line in enumerate(module.lines, start=1):
        match = _GUARDED_BY.search(line)
        if match is None:
            continue
        names = frozenset(
            part.strip()
            for part in match.group("locks").split(",")
            if part.strip()
        )
        if not names:
            continue
        first, last = tag_span(spans, number, line)
        for covered in range(first, last + 1):
            hints[covered] = hints.get(covered, frozenset()) | names
    return hints


def _scan_module(module: Module) -> ModuleFacts:
    facts = ModuleFacts(
        module=module, guarded_hints=_collect_guarded_hints(module)
    )
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            facts.functions[node.name] = _scan_callable(
                node, module.name, None
            )
        elif isinstance(node, ast.ClassDef):
            info = ClassInfo(
                name=node.name,
                module=module.name,
                path=module.path,
                line=node.lineno,
            )
            for item in node.body:
                if isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    info.methods[item.name] = _scan_callable(
                        item, module.name, node.name
                    )
            _scan_class_attrs(info, node)
            facts.classes[node.name] = info
    return facts


def build_project(modules: Sequence[Module]) -> ProjectIndex:
    """One sweep over already-parsed modules -> the project index."""
    return ProjectIndex([_scan_module(module) for module in modules])

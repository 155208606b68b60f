"""The whole-program rules (RA10-RA13).

These rules read the whole :class:`ProjectIndex` at once — class attribute
tables, the method -> access map, and the call graph from
:mod:`repro.analysis.project` — so they can check invariants no single
file reveals: lock discipline (RA10), event-loop blocking through call
chains (RA11), what actually crosses a fork/pickle boundary (RA12), and
the telemetry namespace (RA13).

Each rule is conservative: facts the index could not resolve produce no
finding.  The escapes are the same as for the per-file rules — an inline
``# repro: noqa RAxx -- reason`` — plus, for RA10 only, a
``# repro: guarded-by(<lock>)`` tag asserting that a statement holds the
named lock through a mechanism the analyzer cannot see.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from .project import ClassInfo, MethodInfo, ModuleFacts, ProjectIndex
from .rules import Rule, Violation, register_rule

__all__ = ["RA10_EXEMPT_METHODS", "guarded_attribute_map"]


# ---------------------------------------------------------------------- #
# RA10 — guarded-by lock discipline
# ---------------------------------------------------------------------- #
#: methods where unguarded access is fine by construction: the instance is
#: not shared yet (``__init__``/``__new__``), is being torn down, or is
#: mid-pickle on a single thread.  The runtime sanitizer exempts the same
#: frames.
RA10_EXEMPT_METHODS = frozenset(
    {
        "__init__",
        "__new__",
        "__del__",
        "__getstate__",
        "__setstate__",
        "__reduce__",
        "__reduce_ex__",
    }
)


def _canonical(cls: ClassInfo, names: FrozenSet[str]) -> FrozenSet[str]:
    return frozenset(cls.canonical_lock(n) for n in names)


def _entry_locks(
    cls: ClassInfo, guards: Set[str]
) -> Dict[str, FrozenSet[str]]:
    """Locks provably held on entry to each method, to a fixed point.

    A private helper (single leading underscore) whose every visible
    ``self.helper()`` call site holds a lock inherits the intersection of
    those sites' held sets — the ``_insert -> _evict_over_capacity`` "call
    with lock held" pattern.  Public and dunder methods are assumed
    callable from anywhere and always start with nothing held.
    """
    entry: Dict[str, FrozenSet[str]] = {
        name: frozenset() for name in cls.methods
    }
    sites: Dict[str, List[Tuple[str, FrozenSet[str]]]] = {}
    for method in cls.methods.values():
        for call in method.calls:
            if call.scope != "self" or call.name not in cls.methods:
                continue
            held = frozenset() if call.deferred else call.locks
            sites.setdefault(call.name, []).append((method.name, held))
    changed = True
    while changed:
        changed = False
        for name in cls.methods:
            if not name.startswith("_") or name.startswith("__"):
                continue
            callers = sites.get(name)
            if not callers:
                continue
            held_sets = [
                entry[caller] | _canonical(cls, held & frozenset(guards))
                for caller, held in callers
            ]
            new = frozenset.intersection(*held_sets)
            if new != entry[name]:
                entry[name] = new
                changed = True
    return entry


def guarded_attribute_map(cls: ClassInfo) -> Dict[str, FrozenSet[str]]:
    """Inferred contract: attr -> canonical lock(s) it is written under.

    An attribute enters the guarded set when any method writes it while a
    class lock is held (lexically, or via lock-held helper entry).  Lock
    attributes themselves and their condition aliases are excluded.
    """
    guards = cls.guard_names()
    if not guards:
        return {}
    entry = _entry_locks(cls, guards)
    guarded: Dict[str, Set[str]] = {}
    for method in cls.methods.values():
        base = entry.get(method.name, frozenset())
        for access in method.accesses:
            if not access.is_write or access.deferred:
                continue
            if access.attr in guards:
                continue
            held = base | _canonical(cls, access.locks & frozenset(guards))
            if held:
                guarded.setdefault(access.attr, set()).update(held)
    return {attr: frozenset(locks) for attr, locks in guarded.items()}


@register_rule
class GuardedByDiscipline(Rule):
    code = "RA10"
    summary = (
        "attributes written under a class lock must always be accessed "
        "with that lock held (annotate '# repro: guarded-by(lock)' for "
        "externally synchronized access)"
    )

    def check(self, project: ProjectIndex) -> Iterator[Violation]:
        for facts in project.modules:
            if not facts.module.in_package("repro"):
                continue
            for cls in facts.classes.values():
                yield from self._check_class(facts, cls)

    def _check_class(
        self, facts: ModuleFacts, cls: ClassInfo
    ) -> Iterator[Violation]:
        guards = cls.guard_names()
        if not guards:
            return
        guarded = guarded_attribute_map(cls)
        if not guarded:
            return
        entry = _entry_locks(cls, guards)
        for method in cls.methods.values():
            if method.name in RA10_EXEMPT_METHODS:
                continue
            base = entry.get(method.name, frozenset())
            for access in method.accesses:
                need = guarded.get(access.attr)
                if need is None:
                    continue
                if facts.guarded_hints.get(access.line):
                    continue  # explicit annotation escape
                held = (
                    frozenset()
                    if access.deferred
                    else base
                    | _canonical(cls, access.locks & frozenset(guards))
                )
                if held & need:
                    continue
                verb = "written" if access.is_write else "read"
                lock = "/".join(sorted(need))
                yield Violation(
                    rule=self.code,
                    path=str(cls.path),
                    line=access.line,
                    col=access.col,
                    message=(
                        f"{cls.name}.{access.attr} is guarded by "
                        f"self.{lock} (it is written under that lock) but "
                        f"{verb} here in {method.name}() without it; hold "
                        "the lock or annotate "
                        f"'# repro: guarded-by({lock})'"
                    ),
                )


# ---------------------------------------------------------------------- #
# RA11 — no blocking calls reachable from async handlers
# ---------------------------------------------------------------------- #
_RA11_SUBPROCESS = frozenset(
    {"run", "call", "check_call", "check_output", "Popen"}
)
_RA11_SOCKET_METHODS = frozenset(
    {"accept", "recv", "recv_into", "recvfrom", "sendall", "makefile"}
)
_RA11_PATH_IO = frozenset(
    {"read_text", "write_text", "read_bytes", "write_bytes"}
)
_RA11_ENGINE_CALLS = frozenset(
    {"search", "search_batch", "add", "add_many"}
)


def _mentions_engine(expr: ast.expr) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Name) and "engine" in node.id.lower():
            return True
        if isinstance(node, ast.Attribute) and "engine" in node.attr.lower():
            return True
    return False


def _blocking_reason(call: ast.Call) -> Optional[str]:
    func = call.func
    if isinstance(func, ast.Name):
        if func.id == "open":
            return "open() performs blocking file I/O"
        return None
    if not isinstance(func, ast.Attribute):
        return None
    attr = func.attr
    value = func.value
    receiver = value.id if isinstance(value, ast.Name) else None
    if receiver == "time" and attr == "sleep":
        return "time.sleep() stalls the event loop; use asyncio.sleep()"
    if receiver == "os" and attr == "system":
        return "os.system() blocks on a subprocess"
    if receiver == "subprocess" and attr in _RA11_SUBPROCESS:
        return f"subprocess.{attr}() blocks on a subprocess"
    if receiver == "socket":
        return f"socket.{attr}() performs blocking network I/O"
    if attr in _RA11_SOCKET_METHODS:
        return f".{attr}() performs blocking socket I/O"
    if attr == "urlopen":
        return "urlopen() performs blocking network I/O"
    if attr == "result":
        return (
            "Future.result() blocks the loop; await "
            "asyncio.wrap_future(...) instead"
        )
    if attr in _RA11_PATH_IO:
        return f".{attr}() performs blocking file I/O"
    if attr in _RA11_ENGINE_CALLS and _mentions_engine(value):
        return (
            f"direct engine .{attr}() call; route it through the "
            "coalescer or asyncio.to_thread(...)"
        )
    return None


def _own_calls(node: ast.AST) -> Iterator[ast.Call]:
    """Call nodes in a function body, skipping nested def/lambda bodies."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        current = stack.pop()
        if isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        if isinstance(current, ast.Call):
            yield current
        stack.extend(ast.iter_child_nodes(current))


@register_rule
class EventLoopBlocking(Rule):
    code = "RA11"
    summary = (
        "code reachable from async def in repro.serve must not call "
        "blocking APIs (time.sleep, sync I/O, direct engine searches)"
    )

    def check(self, project: ProjectIndex) -> Iterator[Violation]:
        for facts in project.modules:
            if not facts.module.in_package("repro.serve"):
                continue
            yield from self._check_module(facts)

    def _check_module(self, facts: ModuleFacts) -> Iterator[Violation]:
        # seed with every async function/method, then follow resolvable
        # synchronous edges: self.method() within the class, function()
        # within the module.  Calls inside nested defs are deferred and
        # not followed.
        reached: Dict[int, Tuple[MethodInfo, str]] = {}
        worklist: List[Tuple[MethodInfo, Optional[ClassInfo], str]] = []

        def origin_name(info: MethodInfo) -> str:
            if info.klass:
                return f"{info.klass}.{info.name}"
            return info.name

        for func in facts.functions.values():
            if func.is_async:
                worklist.append((func, None, origin_name(func)))
        for cls in facts.classes.values():
            for method in cls.methods.values():
                if method.is_async:
                    worklist.append((method, cls, origin_name(method)))
        while worklist:
            info, cls, origin = worklist.pop()
            if id(info) in reached:
                continue
            reached[id(info)] = (info, origin)
            for call in info.calls:
                if call.deferred:
                    continue
                target: Optional[MethodInfo] = None
                if call.scope == "self" and cls is not None:
                    target = cls.methods.get(call.name)
                elif call.scope == "module":
                    target = facts.functions.get(call.name)
                if target is not None and id(target) not in reached:
                    worklist.append((target, cls, origin))

        seen: Set[Tuple[int, int]] = set()
        for info, origin in reached.values():
            for call in _own_calls(info.node):
                reason = _blocking_reason(call)
                if reason is None:
                    continue
                where = (call.lineno, call.col_offset)
                if where in seen:
                    continue
                seen.add(where)
                site = (
                    f"in async {origin}()"
                    if info.is_async
                    else f"reachable from async {origin}()"
                )
                yield Violation(
                    rule=self.code,
                    path=str(facts.module.path),
                    line=call.lineno,
                    col=call.col_offset,
                    message=f"{reason} ({site})",
                )


# ---------------------------------------------------------------------- #
# RA12 — fork/pickle safety of executor payloads
# ---------------------------------------------------------------------- #
def _copies_dict(node: ast.AST) -> bool:
    return any(
        isinstance(n, ast.Attribute) and n.attr == "__dict__"
        for n in ast.walk(node)
    )


def _mentioned_names(node: ast.AST) -> Set[str]:
    mentioned: Set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            mentioned.add(sub.value)
        elif isinstance(sub, ast.Attribute):
            mentioned.add(sub.attr)
        elif isinstance(sub, ast.Name):
            mentioned.add(sub.id)
    return mentioned


@register_rule
class ForkPickleSafety(Rule):
    code = "RA12"
    summary = (
        "classes shipped in executor payloads must neutralize locks, "
        "pools, mmaps, and thread handles in __getstate__/__reduce__"
    )

    def check(self, project: ProjectIndex) -> Iterator[Violation]:
        shipped: List[ClassInfo] = []
        seen: Set[Tuple[str, str]] = set()

        def add(cls: ClassInfo) -> bool:
            key = (cls.module, cls.name)
            if key in seen:
                return False
            seen.add(key)
            shipped.append(cls)
            return True

        for facts in project.modules:
            if not facts.module.in_package("repro"):
                continue
            for cls in facts.classes.values():
                if cls.ships_self:
                    add(cls)
        # one composition hop: attributes of a shipped class built from
        # project classes travel inside its pickled state
        frontier = list(shipped)
        for cls in frontier:
            for ctor_names in cls.attr_constructors.values():
                for name in sorted(ctor_names):
                    for target in project.find_classes(name):
                        add(target)

        for cls in sorted(shipped, key=lambda c: (str(c.path), c.line)):
            yield from self._check_class(cls)

    def _check_class(self, cls: ClassInfo) -> Iterator[Violation]:
        if not cls.unsafe_attrs:
            return
        getstate = cls.methods.get("__getstate__")
        reduce = cls.methods.get("__reduce__") or cls.methods.get(
            "__reduce_ex__"
        )
        unsafe = ", ".join(
            f"{attr} ({factory})"
            for attr, factory in sorted(cls.unsafe_attrs.items())
        )
        if getstate is None and reduce is None:
            yield Violation(
                rule=self.code,
                path=str(cls.path),
                line=cls.line,
                col=0,
                message=(
                    f"{cls.name} is shipped to executor payloads but has "
                    f"no __getstate__/__reduce__ to neutralize {unsafe}"
                ),
            )
            return
        if getstate is not None and _copies_dict(getstate.node):
            mentioned = _mentioned_names(getstate.node)
            node = getstate.node
            for attr, factory in sorted(cls.unsafe_attrs.items()):
                if attr in mentioned:
                    continue
                yield Violation(
                    rule=self.code,
                    path=str(cls.path),
                    line=getattr(node, "lineno", cls.line),
                    col=getattr(node, "col_offset", 0),
                    message=(
                        f"{cls.name}.__getstate__ copies __dict__ but "
                        f"never clears {attr} ({factory}), which cannot "
                        "cross a pickle/fork boundary"
                    ),
                )


# ---------------------------------------------------------------------- #
# RA13 — telemetry names live in the obs/NAMES manifest
# ---------------------------------------------------------------------- #
_RA13_METHODS = frozenset(
    {
        "inc",
        "observe",
        "record_time",
        "set_gauge",
        "register_gauge",
        "span",
        "trace",
        "counter",
        "gauge",
        "timer_seconds",
    }
)
_RA13_RECEIVERS = ("METRICS", "TRACER")


def _is_telemetry_receiver(value: ast.expr) -> bool:
    if isinstance(value, ast.Name):
        return value.id.lstrip("_").upper() in _RA13_RECEIVERS
    if isinstance(value, ast.Attribute):
        return (
            value.attr.lstrip("_").upper() in _RA13_RECEIVERS
            or value.attr == "metrics"
        )
    return False


def telemetry_names(
    facts: ModuleFacts,
) -> Iterator[Tuple[str, ast.Call]]:
    """Constant telemetry name strings used in one module.

    Dynamic names (f-strings, concatenations) are invisible to the
    manifest check and should be documented as comments in ``obs/NAMES``.
    """
    for node in ast.walk(facts.module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr not in _RA13_METHODS:
            continue
        if not _is_telemetry_receiver(func.value):
            continue
        if not node.args:
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            yield first.value, node


#: every manifest line is lowercase dotted ``component.operation``; a
#: bare component is a trace root naming a whole query tree ("join")
_RA13_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")


def _read_manifest(path: Path) -> Dict[str, int]:
    """Declared ``name -> line number`` (first occurrence wins)."""
    declared: Dict[str, int] = {}
    for number, raw in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw.split("#", 1)[0].strip()
        if line:
            declared.setdefault(line, number)
    return declared


@register_rule
class TelemetryManifest(Rule):
    code = "RA13"
    summary = (
        "every constant METRICS/TRACER name must be declared in the "
        "obs/NAMES manifest, whose entries are dotted lowercase "
        "component.operation and must each be used"
    )

    def check(self, project: ProjectIndex) -> Iterator[Violation]:
        uses: List[Tuple[str, ModuleFacts, ast.Call]] = []
        for facts in project.modules:
            if not facts.module.in_package("repro"):
                continue
            for name, node in telemetry_names(facts):
                uses.append((name, facts, node))
        root = project.repro_root()
        if root is None:
            return
        manifest = root / "obs" / "NAMES"
        if not manifest.is_file():
            for name, facts, node in uses:
                yield Violation(
                    rule=self.code,
                    path=str(facts.module.path),
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"telemetry name {name!r} has no manifest: "
                        f"{manifest} does not exist"
                    ),
                )
            return
        declared = _read_manifest(manifest)
        # every constant name in the package has to be one of these lines,
        # so the naming convention is checked here, once
        for name, number in declared.items():
            if not _RA13_NAME.match(name):
                yield Violation(
                    rule=self.code,
                    path=str(manifest),
                    line=number,
                    col=0,
                    message=(
                        f"manifest entry {name!r} does not follow the "
                        "dotted lowercase component.operation convention"
                    ),
                )
        used: Set[str] = set()
        for name, facts, node in uses:
            used.add(name)
            if name in declared:
                continue
            yield Violation(
                rule=self.code,
                path=str(facts.module.path),
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"telemetry name {name!r} is not declared in "
                    "obs/NAMES; add it so /metrics series cannot drift"
                ),
            )
        # stale entries are only meaningful on a whole-tree scan; the
        # registry module's presence is the proxy for that
        if project.find_module("repro.obs.registry") is None:
            return
        for name, number in sorted(declared.items(), key=lambda kv: kv[1]):
            if name in used:
                continue
            yield Violation(
                rule=self.code,
                path=str(manifest),
                line=number,
                col=0,
                message=(
                    f"manifest entry {name!r} is never used by any "
                    "constant telemetry call; delete it or tag the "
                    "dynamic producer in a comment"
                ),
            )

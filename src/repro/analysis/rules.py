"""The repo-specific lint rules (RA02-RA08).

Each rule encodes an invariant the paper's pipeline depends on but generic
linters cannot see — which modules are the compressed hot path, which
integer literals are really the two-layer layout geometry, what shape a
telemetry name must have.  Rules are small classes registered in
:data:`RULES`; the engine hands each one a parsed :class:`Module` and
collects :class:`Violation` records.

Every rule can be silenced for one line with an inline or preceding
``# repro: noqa RAxx -- reason`` comment (see :mod:`repro.analysis.engine`);
a suppression without a reason is itself flagged (RA00).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Type

__all__ = [
    "Violation",
    "Module",
    "Rule",
    "RULES",
    "register_rule",
    "rule_table",
    "statement_spans",
    "enclosing_span",
    "following_span",
]


@dataclass(frozen=True)
class Violation:
    """One finding: where it is, which rule fired, and what to do."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class Module:
    """A parsed source file plus the context rules key their scoping on."""

    path: Path
    name: str  # dotted module name, e.g. ``repro.search.toccurrence``
    lines: List[str]
    tree: ast.Module

    def in_package(self, *packages: str) -> bool:
        return any(
            self.name == p or self.name.startswith(p + ".") for p in packages
        )


class Rule:
    """Base class: subclasses set ``code``/``summary`` and yield findings."""

    code: str = ""
    summary: str = ""

    def check(self, module: Module) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, module: Module, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            rule=self.code,
            path=str(module.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


#: the rule registry, keyed by code; populated by :func:`register_rule`.
RULES: Dict[str, Rule] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    if cls.code in RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls()
    return cls


def rule_table() -> List[Tuple[str, str]]:
    """``(code, summary)`` pairs for ``repro lint --explain`` and the docs."""
    return [(code, RULES[code].summary) for code in sorted(RULES)]


def statement_spans(tree: ast.AST) -> List[Tuple[int, int, bool]]:
    """``(lineno, end_lineno, is_simple)`` for statements and except clauses.

    The spans drive comment scoping: an inline ``# repro: noqa`` (or
    ``guarded-by``) tag applies to the whole statement it sits on, not just
    its first physical line, so multi-line calls and decorated defs can be
    tagged on any of their lines.  ``ast.ExceptHandler`` is included so a
    tag on an ``except`` header scopes to that clause alone rather than the
    enclosing ``try`` statement.
    """
    spans: List[Tuple[int, int, bool]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.stmt, ast.ExceptHandler)):
            simple = not hasattr(node, "body")
            spans.append((node.lineno, node.end_lineno or node.lineno, simple))
    spans.sort()
    return spans


def enclosing_span(
    spans: Iterable[Tuple[int, int, bool]],
    line: int,
    simple_only: bool = False,
) -> Optional[Tuple[int, int]]:
    """The innermost (shortest) span containing ``line``, if any.

    With ``simple_only`` compound statements (anything with a body) are
    skipped, so a standalone comment *inside* a multi-line expression
    resolves to that statement rather than the whole enclosing block.
    """
    best: Optional[Tuple[int, int]] = None
    for start, end, simple in spans:
        if simple_only and not simple:
            continue
        if start <= line <= end:
            if best is None or end - start < best[1] - best[0]:
                best = (start, end)
    return best


def following_span(
    spans: Iterable[Tuple[int, int, bool]], line: int
) -> Optional[Tuple[int, int]]:
    """The span of the first statement starting strictly after ``line``.

    When several statements share that start line (``if x: y = 1``), the
    widest one wins so a standalone comment covers the whole construct.
    """
    start: Optional[int] = None
    end = 0
    for s, e, _ in spans:
        if s <= line:
            continue
        if start is None or s < start:
            start, end = s, e
        elif s == start:
            end = max(end, e)
    if start is None:
        return None
    return (start, end)


def _walk(module: Module) -> Iterable[ast.AST]:
    return ast.walk(module.tree)


# ---------------------------------------------------------------------- #
# RA02 — layout constants must come from compression.constants
# ---------------------------------------------------------------------- #
#: flagged everywhere under repro.compression: these integers are only
#: ever the paper's layout geometry (69-bit metadata, rho=37, Theorem-1
#: horizon 138) and a drifting copy silently breaks size accounting
_RA02_ANYWHERE = {69, 37, 138}
#: additionally flagged in the layout-defining modules, where a literal
#: 32 or 5 is almost always ELEMENT_BITS / WIDTH_FIELD_BITS in disguise
_RA02_LAYOUT = {32, 5}
_RA02_LAYOUT_MODULES = (
    "repro.compression.base",
    "repro.compression.bitpack",
    "repro.compression.twolayer",
    "repro.compression.partition",
    "repro.compression.pfordelta",
    "repro.compression.online",
)
_RA02_NAMES = {
    69: "METADATA_BITS",
    37: "SEAL_RHO",
    138: "THEOREM_1_BUFFER",
    32: "ELEMENT_BITS",
    5: "WIDTH_FIELD_BITS",
}


@register_rule
class MagicConstantDrift(Rule):
    code = "RA02"
    summary = (
        "layout literals (69/37/138, and 32/5 in layout modules) must be "
        "imported from repro.compression.constants, not retyped"
    )

    def check(self, module: Module) -> Iterator[Violation]:
        if not module.in_package("repro.compression"):
            return
        if module.name == "repro.compression.constants":
            return
        banned = set(_RA02_ANYWHERE)
        if module.in_package(*_RA02_LAYOUT_MODULES):
            banned |= _RA02_LAYOUT
        for node in _walk(module):
            if (
                isinstance(node, ast.Constant)
                and type(node.value) is int
                and node.value in banned
            ):
                name = _RA02_NAMES[node.value]
                yield self.violation(
                    module,
                    node,
                    f"magic layout constant {node.value}: import {name} "
                    "from repro.compression.constants",
                )


# ---------------------------------------------------------------------- #
# RA03 — telemetry names follow the component.operation convention
# ---------------------------------------------------------------------- #
#: METRICS spans/counters must be component.operation (>= 2 components);
#: TRACER roots name a whole query tree, so a bare component is allowed
#: ("search", "join") — but every component must still be a lowercase
#: identifier ("Search", "join-run", "join run" all fail)
_RA03_DOTTED = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")
_RA03_COMPONENT = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$")
_RA03_METHODS = ("span", "inc", "observe", "trace")
_RA03_RECEIVERS = ("METRICS", "TRACER")


@register_rule
class SpanNaming(Rule):
    code = "RA03"
    summary = (
        "METRICS span/counter names must be dotted lowercase "
        "component.operation; TRACER roots a lowercase component"
    )

    def check(self, module: Module) -> Iterator[Violation]:
        for node in _walk(module):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _RA03_METHODS
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id.lstrip("_").upper() in _RA03_RECEIVERS
            ):
                continue
            if not node.args:
                continue
            first = node.args[0]
            if not (
                isinstance(first, ast.Constant)
                and isinstance(first.value, str)
            ):
                continue
            pattern = (
                _RA03_COMPONENT
                if node.func.attr == "trace"
                else _RA03_DOTTED
            )
            if not pattern.match(first.value):
                yield self.violation(
                    module,
                    first,
                    f"telemetry name {first.value!r} does not follow the "
                    "dotted component.operation convention",
                )


# ---------------------------------------------------------------------- #
# RA04 — executor payloads must be module-level callables
# ---------------------------------------------------------------------- #
@register_rule
class PoolPayloadSafety(Rule):
    code = "RA04"
    summary = (
        "callables submitted to executors must be module-level functions "
        "(lambdas/closures break process pools under spawn)"
    )

    def check(self, module: Module) -> Iterator[Violation]:
        nested = _nested_function_names(module.tree)
        for node in _walk(module):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
            ):
                continue
            attr = node.func.attr
            if attr == "submit":
                pass
            elif attr == "map" and _looks_like_executor(node.func.value):
                pass
            else:
                continue
            if not node.args:
                continue
            payload = node.args[0]
            if isinstance(payload, ast.Lambda):
                yield self.violation(
                    module,
                    payload,
                    f"lambda passed to .{attr}(); hoist it to a "
                    "module-level function so the payload survives a "
                    "spawn-based process pool",
                )
            elif isinstance(payload, ast.Name) and payload.id in nested:
                yield self.violation(
                    module,
                    payload,
                    f"nested function {payload.id!r} passed to .{attr}(); "
                    "hoist it to module level so the payload survives a "
                    "spawn-based process pool",
                )


def _looks_like_executor(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and (
        "pool" in node.id.lower() or "executor" in node.id.lower()
    )


def _nested_function_names(tree: ast.Module) -> set:
    names = set()
    for outer in ast.walk(tree):
        if isinstance(outer, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(outer):
                if inner is not outer and isinstance(
                    inner, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    names.add(inner.name)
    return names


# ---------------------------------------------------------------------- #
# RA05 — every concrete scheme class is registered
# ---------------------------------------------------------------------- #
#: sentinel scheme_name values of the abstract base classes
_RA05_EXEMPT_NAMES = ("abstract", "online")


@register_rule
class RegistryCompleteness(Rule):
    code = "RA05"
    summary = (
        "every class defining a concrete scheme_name must be registered "
        "with register_scheme (decorator or module-level call)"
    )

    def check(self, module: Module) -> Iterator[Violation]:
        registered = _names_registered_by_call(module.tree)
        for node in _walk(module):
            if not isinstance(node, ast.ClassDef):
                continue
            scheme = _class_scheme_name(node)
            if scheme is None or scheme in _RA05_EXEMPT_NAMES:
                continue
            if _has_register_decorator(node) or node.name in registered:
                continue
            yield self.violation(
                module,
                node,
                f"class {node.name} defines scheme_name={scheme!r} but is "
                "never passed to register_scheme; the CLI and benches "
                "cannot reach it",
            )


def _class_scheme_name(node: ast.ClassDef) -> Optional[str]:
    for statement in node.body:
        targets: List[ast.expr] = []
        value = None
        if isinstance(statement, ast.Assign):
            targets, value = statement.targets, statement.value
        elif isinstance(statement, ast.AnnAssign) and statement.value is not None:
            targets, value = [statement.target], statement.value
        for target in targets:
            if (
                isinstance(target, ast.Name)
                and target.id == "scheme_name"
                and isinstance(value, ast.Constant)
                and isinstance(value.value, str)
            ):
                return value.value
    return None


def _has_register_decorator(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "register_scheme":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "register_scheme":
            return True
    return False


def _names_registered_by_call(tree: ast.Module) -> set:
    """Class names appearing as arguments of ``register_scheme(...)`` calls."""
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        is_register = (
            isinstance(func, ast.Name) and func.id == "register_scheme"
        ) or (isinstance(func, ast.Attribute) and func.attr == "register_scheme")
        if not is_register:
            continue
        for argument in list(node.args) + [kw.value for kw in node.keywords]:
            if isinstance(argument, ast.Name):
                names.add(argument.id)
    return names


# ---------------------------------------------------------------------- #
# RA06 — invariants raise, never assert
# ---------------------------------------------------------------------- #
@register_rule
class NoAssertInvariants(Rule):
    code = "RA06"
    summary = (
        "library code must raise on invariant violations, not assert "
        "(asserts vanish under python -O)"
    )

    def check(self, module: Module) -> Iterator[Violation]:
        if not module.in_package("repro"):
            # tests and benchmarks assert by design; only shipped library
            # code has to survive ``python -O``
            return
        for node in _walk(module):
            if isinstance(node, ast.Assert):
                yield self.violation(
                    module,
                    node,
                    "assert statement in library code; raise ValueError/"
                    "RuntimeError so the check survives python -O",
                )


# ---------------------------------------------------------------------- #
# RA07 — broad except handlers need a justification
# ---------------------------------------------------------------------- #
_RA07_BROAD = ("Exception", "BaseException")


@register_rule
class BroadExcept(Rule):
    code = "RA07"
    summary = (
        "except Exception/BaseException (or bare except) requires a "
        "'# repro: noqa RA07 -- reason' justification unless it re-raises"
    )

    def check(self, module: Module) -> Iterator[Violation]:
        for node in _walk(module):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad(node.type):
                continue
            # a handler that unconditionally re-raises only annotates the
            # exception's journey; it swallows nothing
            if any(isinstance(stmt, ast.Raise) for stmt in node.body):
                continue
            caught = "bare except" if node.type is None else "broad except"
            yield self.violation(
                module,
                node,
                f"{caught} swallows unexpected failures; narrow the "
                "exception tuple or justify it with "
                "'# repro: noqa RA07 -- reason'",
            )


def _is_broad(type_node: Optional[ast.expr]) -> bool:
    if type_node is None:
        return True
    candidates = (
        type_node.elts if isinstance(type_node, ast.Tuple) else [type_node]
    )
    return any(
        isinstance(c, ast.Name) and c.id in _RA07_BROAD for c in candidates
    )


# ---------------------------------------------------------------------- #
# RA08 — the two-layer storage model's private layout stays private
# ---------------------------------------------------------------------- #
#: the storage model's private layout vectors; everything outside the
#: storage layer must go through the public surface (max_width_bits(),
#: block_sizes(), decode_blocks(), ...) so the layout can evolve without
#: breaking distant modules (as estimate_lookup_us once did by reading
#: store._widths directly).
_RA08_PRIVATE = {
    "_bases",
    "_offsets",
    "_widths",
    "_starts",
    "_bases_np",
    "_offsets_np",
    "_widths_np",
    "_starts_np",
}

#: the layout's home: array form, invariants and readouts all live there
_RA08_WHITELIST = ("repro.compression.twolayer",)


@register_rule
class StorageModelPrivacy(Rule):
    code = "RA08"
    summary = (
        "the two-layer layout vectors (_bases/_offsets/_widths/_starts) are "
        "private to the storage layer; use the public block-store surface"
    )

    def check(self, module: Module) -> Iterator[Violation]:
        if not module.in_package("repro"):
            return
        if module.name in _RA08_WHITELIST:
            return
        for node in _walk(module):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in _RA08_PRIVATE
                # self._widths inside any class is that class's own state,
                # not a reach into the storage model
                and not (
                    isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                )
            ):
                yield self.violation(
                    module,
                    node,
                    f"access to the storage model's private {node.attr!r}; "
                    "use the public surface (max_width_bits(), "
                    "block_sizes(), decode_blocks(), iter_blocks()) so the "
                    "layout can evolve",
                )

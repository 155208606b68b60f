"""The rule base, the one registry, and the per-file rules.

Each rule encodes an invariant the paper's pipeline depends on but generic
linters cannot see — which integer literals are really the two-layer
layout geometry, which attributes are the storage model's private vectors,
which classes must be reachable through the scheme registry.  Rules are
small classes registered in :data:`RULES`; the engine hands each one the
:class:`~repro.analysis.project.ProjectIndex` of the scan and collects
:class:`Violation` records.  A rule that needs one file at a time
overrides :meth:`Rule.check_module`; the whole-program rules
(:mod:`repro.analysis.project_rules`) override :meth:`Rule.check`.

Every finding can be silenced with an inline or preceding
``# repro: noqa RAxx -- reason`` comment (see :mod:`repro.analysis.engine`);
a suppression without a reason is itself flagged (RA00).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

if TYPE_CHECKING:
    from .project import ProjectIndex

__all__ = [
    "Violation",
    "Module",
    "Rule",
    "RULES",
    "register_rule",
    "rule_table",
    "statement_spans",
    "tag_span",
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
    tree: ast.Module  # empty when the file does not parse (see ``problems``)
    #: rule code -> line numbers a justified ``# repro: noqa`` tag covers
    suppressed: Dict[str, Set[int]] = field(default_factory=dict)
    #: what reading the file itself found: RA99 (does not parse) and RA00
    #: (suppression without a reason); never suppressible
    problems: List[Violation] = field(default_factory=list)

    def in_package(self, *packages: str) -> bool:
        return any(
            self.name == p or self.name.startswith(p + ".") for p in packages
        )


class Rule:
    """Base class: subclasses set ``code``/``summary`` and yield findings."""

    code: str = ""
    summary: str = ""

    def check(self, project: ProjectIndex) -> Iterator[Violation]:
        """Findings over the whole scan; by default, file by file."""
        for facts in project.modules:
            yield from self.check_module(facts.module)

    def check_module(self, module: Module) -> Iterator[Violation]:
        return iter(())

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


def _enclosing_span(
    spans: Sequence[Tuple[int, int, bool]],
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


def _following_span(
    spans: Sequence[Tuple[int, int, bool]], line: int
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


def tag_span(
    spans: Sequence[Tuple[int, int, bool]], number: int, line: str
) -> Tuple[int, int]:
    """The ``(first, last)`` lines a comment tag on line ``number`` covers.

    An inline tag covers the innermost statement containing its line.  A
    standalone comment inside a multi-line statement covers that statement;
    one between statements covers the next.
    """
    if line.lstrip().startswith("#"):
        return (
            _enclosing_span(spans, number, simple_only=True)
            or _following_span(spans, number)
            or (number + 1, number + 1)
        )
    return _enclosing_span(spans, number) or (number, number)


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

    def check_module(self, module: Module) -> Iterator[Violation]:
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

    def check_module(self, module: Module) -> Iterator[Violation]:
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

    def check_module(self, module: Module) -> Iterator[Violation]:
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

    def check_module(self, module: Module) -> Iterator[Violation]:
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
#: storage layer must go through the public surface (to_arrays(),
#: block_sizes(), block_widths(), ...) so the layout can evolve without
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

    def check_module(self, module: Module) -> Iterator[Violation]:
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
                    "use the public surface (to_arrays(), check(), "
                    "block_sizes(), block_widths(), max_width_bits()) so "
                    "the layout can evolve",
                )

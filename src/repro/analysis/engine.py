"""The lint engine: file walking, suppression handling, reporting.

The engine parses each Python file once, derives its dotted module name
(so rules can scope themselves to packages like ``repro.compression``),
runs every selected rule from :data:`repro.analysis.rules.RULES`, and
filters the findings against the file's suppression comments.  With
``project=True`` it additionally feeds every parsed module into the
whole-program index (:mod:`repro.analysis.project`) and runs the
project-scoped rules RA10-RA13 on top.

Suppression syntax (one rule code per comment)::

    GROUPS = 69  # repro: noqa RA02 -- a fixture size, not the metadata width

    # repro: noqa RA02 -- Silverman rule exponent, not a layout constant
    bandwidth = 1.06 * spread * n ** (-1 / 5)

An inline comment silences the whole statement it sits on (every physical
line of a multi-line call, not just the first); a standalone comment
silences the next statement.  The ``-- reason`` is mandatory: a
suppression without one is reported as **RA00** and cannot itself be
suppressed — the whole point of the tag is the recorded justification.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .project import build_project
from .project_rules import PROJECT_RULES
from .rules import (
    RULES,
    Module,
    Violation,
    enclosing_span,
    following_span,
    statement_spans,
)

__all__ = [
    "lint_paths",
    "lint_file",
    "load_module",
    "format_violations",
    "repo_source_root",
    "default_targets",
]

_NOQA = re.compile(
    r"#\s*repro:\s*noqa\s+(?P<code>RA\d{2})(?:\s*--\s*(?P<reason>.*\S))?"
)


def repo_source_root() -> Path:
    """The installed ``repro`` package directory — the default lint target."""
    return Path(__file__).resolve().parent.parent


def default_targets() -> List[Path]:
    """What a bare ``repro lint`` walks: the package, tests, benchmarks.

    The sibling ``tests/`` and ``benchmarks/`` trees only exist when
    running from a source checkout (``src/repro`` layout); an installed
    package falls back to linting itself.
    """
    root = repo_source_root()
    targets = [root]
    if root.parent.name == "src":
        repo = root.parent.parent
        for extra in ("tests", "benchmarks"):
            candidate = repo / extra
            if candidate.is_dir():
                targets.append(candidate)
    return targets


def _module_name(path: Path) -> str:
    """Dotted module name, anchored at the last ``repro`` path component.

    Files outside a ``repro`` tree (fixtures, scratch scripts) fall back to
    their stem, which keeps package-scoped rules quiet for them unless the
    fixture deliberately mimics the layout (``tmp/repro/search/mod.py``).
    """
    parts = list(path.resolve().with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts.pop()
    anchored = [p for p in enumerate(parts) if p[1] == "repro"]
    if not anchored:
        return parts[-1] if parts else str(path)
    start = anchored[-1][0]
    return ".".join(parts[start:])


def _collect_suppressions(
    lines: Sequence[str], path: Path, tree: Optional[ast.Module] = None
) -> Tuple[Dict[str, Set[int]], List[Violation]]:
    """Suppressed ``code -> line numbers`` plus RA00 findings for bad tags.

    With a parse tree available, each tag covers a full statement span: an
    inline tag covers the innermost statement containing its line, a
    standalone comment covers the next statement (``node.end_lineno``
    included), so multi-line statements are silenced as one unit.
    """
    spans = statement_spans(tree) if tree is not None else []
    suppressed: Dict[str, Set[int]] = {}
    problems: List[Violation] = []
    for number, line in enumerate(lines, start=1):
        match = _NOQA.search(line)
        if match is None:
            continue
        if not match.group("reason"):
            problems.append(
                Violation(
                    rule="RA00",
                    path=str(path),
                    line=number,
                    col=match.start(),
                    message=(
                        "suppression without a justification; write "
                        f"'# repro: noqa {match.group('code')} -- reason'"
                    ),
                )
            )
            continue
        if line.lstrip().startswith("#"):
            # a standalone comment inside a multi-line statement covers
            # that statement; one between statements covers the next
            span = (
                enclosing_span(spans, number, simple_only=True)
                or following_span(spans, number)
                or (number + 1, number + 1)
            )
        else:
            span = enclosing_span(spans, number) or (number, number)
        target = suppressed.setdefault(match.group("code"), set())
        target.update(range(span[0], span[1] + 1))
    return suppressed, problems


def load_module(path: Path) -> Optional[Module]:
    """Parse one file into a :class:`Module`; ``None`` on a syntax error."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError:
        return None
    return Module(
        path=path,
        name=_module_name(path),
        lines=source.splitlines(),
        tree=tree,
    )


def _parse_file(
    path: Path,
) -> Tuple[Optional[Module], List[Violation], Dict[str, Set[int]]]:
    """``(module, parse problems, suppression map)`` for one file."""
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        problem = Violation(
            rule="RA99",
            path=str(path),
            line=error.lineno or 1,
            col=error.offset or 0,
            message=f"file does not parse: {error.msg}",
        )
        return None, [problem], {}
    module = Module(path=path, name=_module_name(path), lines=lines, tree=tree)
    suppressed, problems = _collect_suppressions(lines, path, tree)
    return module, problems, suppressed


def _split_select(
    select: Optional[Iterable[str]], project: bool
) -> Tuple[Set[str], Set[str]]:
    """Validate a rule selection into (per-file codes, project codes)."""
    if select is None:
        return set(RULES), set(PROJECT_RULES) if project else set()
    codes = set(select)
    unknown = codes - set(RULES) - set(PROJECT_RULES)
    if unknown:
        known = sorted(RULES) + sorted(PROJECT_RULES)
        raise ValueError(
            f"unknown rule code(s) {sorted(unknown)}; known: {known}"
        )
    project_codes = codes & set(PROJECT_RULES)
    if project_codes and not project:
        raise ValueError(
            f"rule(s) {sorted(project_codes)} need the whole-program "
            "index; run with --project (lint_paths(project=True))"
        )
    return codes & set(RULES), project_codes


def lint_file(
    path: Path, select: Optional[Iterable[str]] = None
) -> List[Violation]:
    """All per-file findings for one file (suppressions already applied)."""
    codes, _ = _split_select(select, project=False)
    module, findings, suppressed = _parse_file(Path(path))
    if module is None:
        return findings
    for code in sorted(codes):
        for violation in RULES[code].check(module):
            if violation.line in suppressed.get(code, ()):
                continue
            findings.append(violation)
    return findings


def _iter_files(paths: Sequence[Path]) -> List[Path]:
    files: List[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {path}")
    return files


def lint_paths(
    paths: Optional[Sequence[Path]] = None,
    select: Optional[Iterable[str]] = None,
    *,
    project: bool = False,
) -> Tuple[List[Violation], int]:
    """Lint files/directories; returns ``(violations, files_checked)``.

    ``paths=None`` lints the source checkout itself (``src/repro`` plus
    the ``tests/`` and ``benchmarks/`` trees when present) — the
    self-lint mode CI and the test suite run.  ``project=True`` builds
    the whole-program index over every parsed file and runs the
    project rules (RA10-RA13) as well.
    """
    targets = [Path(p) for p in paths] if paths else default_targets()
    files = _iter_files(targets)
    file_codes, project_codes = _split_select(select, project)
    violations: List[Violation] = []
    modules: List[Module] = []
    suppression_map: Dict[str, Dict[str, Set[int]]] = {}
    for path in files:
        module, problems, suppressed = _parse_file(path)
        violations.extend(problems)
        if module is None:
            continue
        modules.append(module)
        suppression_map[str(path)] = suppressed
        for code in sorted(file_codes):
            for violation in RULES[code].check(module):
                if violation.line in suppressed.get(code, ()):
                    continue
                violations.append(violation)
    if project and project_codes:
        index = build_project(modules)
        for code in sorted(project_codes):
            for violation in PROJECT_RULES[code].check(index):
                suppressed_lines = suppression_map.get(
                    violation.path, {}
                ).get(code, set())
                if violation.line in suppressed_lines:
                    continue
                violations.append(violation)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations, len(files)


#: the stable JSON report schema version (``--format json``)
JSON_SCHEMA = "repro.analysis/v1"


def format_violations(
    violations: Sequence[Violation], fmt: str = "text", files_checked: int = 0
) -> str:
    """Render findings as ``text``, a stable ``json`` document, or
    ``github`` workflow annotations."""
    if fmt == "json":
        payload = {
            "schema": JSON_SCHEMA,
            "files_checked": files_checked,
            "violations": [asdict(v) for v in violations],
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    if fmt == "github":
        lines = [
            f"::error file={v.path},line={v.line},col={v.col},"
            f"title={v.rule}::{v.message}"
            for v in violations
        ]
        lines.append(_summary_line(violations, files_checked))
        return "\n".join(lines)
    if fmt != "text":
        raise ValueError(
            f"format must be 'text', 'json', or 'github', got {fmt!r}"
        )
    if not violations:
        return _summary_line(violations, files_checked)
    rendered = [v.render() for v in violations]
    rendered.append(_summary_line(violations, files_checked))
    return "\n".join(rendered)


def _summary_line(violations: Sequence[Violation], files_checked: int) -> str:
    if not violations:
        return (
            f"clean: {files_checked} files checked, "
            f"{len(RULES) + len(PROJECT_RULES)} rules, 0 violations"
        )
    return f"{len(violations)} violation(s) in {files_checked} files"

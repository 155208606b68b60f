"""The lint engine: file walking, suppression handling, reporting.

One pass: the engine parses each Python file once, derives its dotted
module name (so rules can scope themselves to packages like
``repro.compression``), builds the whole-program index
(:mod:`repro.analysis.project`) over every parsed file, hands that index
to every selected rule of :data:`repro.analysis.rules.RULES`, and filters
the findings against the files' suppression comments.

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
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from .project import build_project
from .rules import RULES, Module, Violation, statement_spans, tag_span

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


def _collect_suppressions(module: Module) -> None:
    """Fill ``module.suppressed`` and report reasonless tags as RA00.

    Each tag covers a full statement span (see
    :func:`repro.analysis.rules.tag_span`), so multi-line statements are
    silenced as one unit.
    """
    spans = statement_spans(module.tree)
    for number, line in enumerate(module.lines, start=1):
        match = _NOQA.search(line)
        if match is None:
            continue
        if not match.group("reason"):
            module.problems.append(
                Violation(
                    rule="RA00",
                    path=str(module.path),
                    line=number,
                    col=match.start(),
                    message=(
                        "suppression without a justification; write "
                        f"'# repro: noqa {match.group('code')} -- reason'"
                    ),
                )
            )
            continue
        first, last = tag_span(spans, number, line)
        target = module.suppressed.setdefault(match.group("code"), set())
        target.update(range(first, last + 1))


def load_module(path: Path) -> Module:
    """Parse one file into a :class:`Module`, suppression map included.

    A file that does not parse yields a module with an empty tree and an
    RA99 entry in ``problems``, so no rule finds anything in it.
    """
    path = Path(path)
    source = path.read_text(encoding="utf-8")
    problems: List[Violation] = []
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        tree = ast.Module(body=[], type_ignores=[])
        problems.append(
            Violation(
                rule="RA99",
                path=str(path),
                line=error.lineno or 1,
                col=error.offset or 0,
                message=f"file does not parse: {error.msg}",
            )
        )
    module = Module(
        path=path,
        name=_module_name(path),
        lines=source.splitlines(),
        tree=tree,
        problems=problems,
    )
    if not problems:
        _collect_suppressions(module)
    return module


def _selected(select: Optional[Iterable[str]]) -> Set[str]:
    """The rule codes a selection names; ``None`` means every rule."""
    if select is None:
        return set(RULES)
    codes = set(select)
    unknown = codes - set(RULES)
    if unknown:
        raise ValueError(
            f"unknown rule code(s) {sorted(unknown)}; known: {sorted(RULES)}"
        )
    return codes


def lint_file(
    path: Path, select: Optional[Iterable[str]] = None
) -> List[Violation]:
    """All findings for one file, linted as a one-file program."""
    return lint_paths([path], select)[0]


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
) -> Tuple[List[Violation], int]:
    """Lint files/directories; returns ``(violations, files_checked)``.

    ``paths=None`` lints the source checkout itself (``src/repro`` plus
    the ``tests/`` and ``benchmarks/`` trees when present) — the
    self-lint mode CI and the test suite run.  Every selected rule sees
    the whole-program index over exactly the files named.
    """
    codes = _selected(select)
    files = _iter_files(list(paths) if paths else default_targets())
    modules = {str(path): load_module(path) for path in files}
    violations = [v for m in modules.values() for v in m.problems]
    index = build_project(list(modules.values()))
    for code in sorted(codes):
        for violation in RULES[code].check(index):
            # a finding outside the scanned files (the NAMES manifest) has
            # no module and so no suppression
            module = modules.get(violation.path)
            tagged = module.suppressed if module is not None else {}
            if violation.line not in tagged.get(code, ()):
                violations.append(violation)
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations, len(files)


#: the stable JSON report schema version (``--format json``)
JSON_SCHEMA = "repro.analysis/v1"


def format_violations(
    violations: Sequence[Violation],
    fmt: str = "text",
    files_checked: int = 0,
    select: Optional[Iterable[str]] = None,
) -> str:
    """Render findings as ``text``, a stable ``json`` document, or
    ``github`` workflow annotations.

    ``select`` is the selection :func:`lint_paths` was given; the summary
    line counts the rules that ran.
    """
    if violations:
        summary = f"{len(violations)} violation(s) in {files_checked} files"
    else:
        summary = (
            f"clean: {files_checked} files checked, "
            f"{len(_selected(select))} rule(s), 0 violations"
        )
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
        lines.append(summary)
        return "\n".join(lines)
    if fmt != "text":
        raise ValueError(
            f"format must be 'text', 'json', or 'github', got {fmt!r}"
        )
    return "\n".join([v.render() for v in violations] + [summary])

"""Repo-specific static analysis: the ``repro lint`` engine.

Generic linters cannot know that ``69`` is the two-layer metadata width,
or which attributes a class only ever writes under its lock.  This package
encodes those repo-specific invariants as AST rules behind a small engine
(:mod:`repro.analysis.engine`) with per-statement justified suppressions.

``repro lint`` is one pass: every file is parsed once into a whole-program
index (:mod:`repro.analysis.project` — module table, class attribute
tables, method -> access map, call graph) and every rule of the one
registry, :data:`RULES`, reads it — the per-file layout and hygiene rules
(:mod:`repro.analysis.rules`) and the concurrency rules RA10-RA13
(:mod:`repro.analysis.project_rules`: lock discipline, event-loop
blocking, fork/pickle safety, the telemetry name manifest).  The opt-in
runtime counterpart (:mod:`repro.analysis.sanitize`) enforces the inferred
lock contracts live while the test suites run.

The committed baseline is **zero**: ``repro lint`` on the shipped tree
(package, tests, and benchmarks) reports nothing, and CI keeps it that
way.
"""

from .engine import (
    default_targets,
    format_violations,
    lint_file,
    lint_paths,
    load_module,
    repo_source_root,
)
from .project import ProjectIndex, build_project
from .project_rules import guarded_attribute_map
from .rules import RULES, Module, Rule, Violation, register_rule, rule_table

__all__ = [
    "RULES",
    "Module",
    "Rule",
    "ProjectIndex",
    "Violation",
    "register_rule",
    "rule_table",
    "guarded_attribute_map",
    "build_project",
    "lint_file",
    "lint_paths",
    "load_module",
    "format_violations",
    "repo_source_root",
    "default_targets",
]

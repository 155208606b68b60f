"""Repo-specific static analysis: the ``repro lint`` engine.

Generic linters cannot know that ``69`` is the two-layer metadata width,
or that a lambda handed to the batch pool dies under ``spawn``.  This package
encodes those repo-specific invariants as AST rules (RA02-RA08, see
:mod:`repro.analysis.rules`) behind a small engine
(:mod:`repro.analysis.engine`) with per-line justified suppressions.

On top of the per-file rules sits a whole-program pass: one parse sweep
builds a project index (:mod:`repro.analysis.project` — module table,
class attribute tables, method -> access map, call graph) that powers the
concurrency rules RA10-RA13 (:mod:`repro.analysis.project_rules`): lock
discipline, event-loop blocking, fork/pickle safety, and the telemetry
name manifest.  ``repro lint --project`` runs them; the opt-in runtime
counterpart (:mod:`repro.analysis.sanitize`) enforces the inferred lock
contracts live while the test suites run.

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
from .project_rules import (
    PROJECT_RULES,
    ProjectRule,
    guarded_attribute_map,
    project_rule_table,
    register_project_rule,
)
from .rules import RULES, Module, Rule, Violation, register_rule, rule_table

__all__ = [
    "RULES",
    "PROJECT_RULES",
    "Module",
    "Rule",
    "ProjectRule",
    "ProjectIndex",
    "Violation",
    "register_rule",
    "register_project_rule",
    "rule_table",
    "project_rule_table",
    "guarded_attribute_map",
    "build_project",
    "lint_file",
    "lint_paths",
    "load_module",
    "format_violations",
    "repo_source_root",
    "default_targets",
]

"""The CI workflow's embedded Python must import against this tree.

``.github/workflows/ci.yml`` runs heredoc scripts against the package;
a renamed or deleted export breaks them only on CI.  Every
``from repro... import ...`` line in the workflow is resolved here.
"""

import importlib
import re
from pathlib import Path

import pytest

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"

IMPORT_LINE = re.compile(r"^\s*from\s+(repro[\w.]*)\s+import\s+(.+?)\s*$")


def _imports():
    found = []
    for number, line in enumerate(WORKFLOW.read_text().splitlines(), 1):
        match = IMPORT_LINE.match(line)
        if match:
            module, names = match.groups()
            for name in names.split(","):
                found.append((number, module, name.split(" as ")[0].strip()))
    return found


def test_workflow_has_repro_imports():
    assert _imports(), "no `from repro... import` line found in ci.yml"


@pytest.mark.parametrize(
    "line,module,name", _imports(), ids=lambda value: str(value)
)
def test_workflow_import_resolves(line, module, name):
    imported = importlib.import_module(module)
    assert hasattr(imported, name), (
        f"ci.yml line {line}: `from {module} import {name}` fails"
    )

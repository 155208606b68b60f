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
    """``{(module, name): [ci.yml line, ...]}`` for every imported name."""
    found = {}
    for number, line in enumerate(WORKFLOW.read_text().splitlines(), 1):
        match = IMPORT_LINE.match(line)
        if match:
            module, names = match.groups()
            for name in names.split(","):
                key = (module, name.split(" as ")[0].strip())
                found.setdefault(key, []).append(number)
    return found


def test_workflow_has_repro_imports():
    assert _imports(), "no `from repro... import` line found in ci.yml"


# ids are `module.name`, so editing ci.yml above an import renames no test
@pytest.mark.parametrize(
    "module,name,lines",
    [
        pytest.param(module, name, lines, id=f"{module}.{name}")
        for (module, name), lines in _imports().items()
    ],
)
def test_workflow_import_resolves(module, name, lines):
    imported = importlib.import_module(module)
    assert hasattr(imported, name), (
        f"ci.yml line(s) {', '.join(map(str, lines))}: "
        f"`from {module} import {name}` fails"
    )

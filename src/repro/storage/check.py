"""``repro check`` support for the bundle layouts.

Mirrors :mod:`repro.compression.validate`'s contract: every checker
returns a list of human-readable violations (empty = healthy) and never
raises on untrusted input — a load failure *is* the finding.  Because the
bundle loader funnels all integrity checks through
:func:`repro.storage.bundle.corruption_error`, a violation names the
offending file and array key.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Union

from ..compression.validate import check_index
from .bundle import BUNDLE_KIND, open_index, read_manifest

__all__ = ["check_bundle", "check_path"]


def check_bundle(path: Union[str, Path], max_lists: int = 0) -> List[str]:
    """Violations of an index bundle directory.

    Opens the bundle eagerly, then runs the list-level contract checks
    over the reconstituted index.
    """
    try:
        index = open_index(path, mmap=False)
    # repro: noqa RA07 -- load failure on untrusted input is the finding itself
    except Exception as error:
        return [f"load failed ({type(error).__name__}): {error}"]
    return check_index(index, max_lists=max_lists)


def check_path(path: Union[str, Path], max_lists: int = 0) -> List[str]:
    """Check the bundle directory at ``path`` once its ``manifest.json``
    declares an index bundle.  A missing path, a non-directory or an
    unrecognizable manifest is reported as a violation.
    """
    path = Path(path)
    if not path.is_dir():
        return [f"no such index bundle directory: {path}"]
    try:
        kind = read_manifest(path).get("kind")
    # repro: noqa RA07 -- an unparseable manifest is the finding itself
    except Exception as error:
        return [f"load failed ({type(error).__name__}): manifest.json: {error}"]
    if kind == BUNDLE_KIND:
        return check_bundle(path, max_lists=max_lists)
    return [f"{path}: unrecognized manifest kind {kind!r}"]

"""Opt-in runtime lock-discipline sanitizer — RA10, enforced live.

The static rule RA10 *infers* which attributes a class guards with which
lock; this module turns that same inference into runtime assertions.
:func:`install` re-runs the whole-program pass over the installed sources,
takes the guarded-attribute map of each target class (the coalescer, the
engines' worker pool, the decode cache, the tracer), and patches the
class's ``__setattr__`` so that every write of a guarded attribute
checks lock ownership — raising :class:`LockDisciplineError` from the
exact offending frame instead of corrupting shared state silently.

Scope and escapes mirror the static rule: construction and pickling
frames (``__init__``, ``__getstate__``/``__setstate__``/``__reduce__``,
``__new__``, ``__del__``) are exempt, and instances whose lock attribute
does not exist yet (mid-construction, or neutralized for a fork) are
skipped.  Only *writes* are checked: lock-free reads of guarded state are
sometimes legitimate (monitoring endpoints accept torn reads), and the
static rule already polices reads inside the owning class.

The sanitizer is wired into the test suite behind the ``REPRO_SANITIZE``
environment flag (see ``tests/conftest.py``) and the CI ``sanitize`` job
runs the serve + engine suites with it enabled, dynamically validating
the static inference.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Type

from .engine import load_module
from .project import build_project
from .project_rules import RA10_EXEMPT_METHODS, guarded_attribute_map

__all__ = [
    "LockDisciplineError",
    "guarded_plans",
    "install",
    "uninstall",
    "is_installed",
]


class LockDisciplineError(AssertionError):
    """A guarded attribute was written without its lock held."""


#: the guarded classes of the serving/engine/observability stack
_TARGETS: Tuple[Tuple[str, str], ...] = (
    ("repro.serve.coalescer", "BatchCoalescer"),
    ("repro.core.fork", "WorkerPool"),
    ("repro.engine.cache", "DecodeCache"),
    ("repro.obs.trace", "Tracer"),
)

#: class -> original ``__setattr__`` from the class __dict__ (None when it
#: was inherited), while the sanitizer is installed
_PATCHED: Dict[type, Optional[Any]] = {}


def guarded_plans() -> Dict[str, Dict[str, Tuple[str, ...]]]:
    """Inferred contracts per target class, from the static RA10 pass.

    Returns ``{class name: {attr: lock attribute candidates}}`` where the
    candidates are every instance attribute holding the guarding lock —
    the canonical lock plus any condition alias wrapping it (owning
    ``self._wake`` and owning ``self._lock`` are the same thing).
    """
    modules = []
    for module_name, _ in _TARGETS:
        spec = importlib.import_module(module_name).__file__
        if spec is not None:
            modules.append(load_module(Path(spec)))
    index = build_project(modules)
    plans: Dict[str, Dict[str, Tuple[str, ...]]] = {}
    for _, class_name in _TARGETS:
        for cls in index.find_classes(class_name):
            guarded = guarded_attribute_map(cls)
            if not guarded:
                continue
            aliases_of: Dict[str, List[str]] = {}
            for alias, target in cls.lock_aliases.items():
                aliases_of.setdefault(target, []).append(alias)
            plan: Dict[str, Tuple[str, ...]] = {}
            for attr, locks in guarded.items():
                candidates: List[str] = []
                for lock in sorted(locks):
                    candidates.append(lock)
                    candidates.extend(sorted(aliases_of.get(lock, ())))
                plan[attr] = tuple(candidates)
            plans[class_name] = plan
    return plans


def _owned(lock: Any) -> bool:
    """Best-effort "does the current thread own this lock".

    ``RLock`` and ``Condition`` expose ``_is_owned()``.  A plain ``Lock``
    has no owner concept, so a non-blocking probe stands in: if the lock
    cannot be acquired it is held (by us, we assume — a write racing
    another holder is exactly the bug the static rule exists to prevent).
    """
    probe = getattr(lock, "_is_owned", None)
    if probe is not None:
        try:
            return bool(probe())
        except RuntimeError:
            return False
    acquire = getattr(lock, "acquire", None)
    if acquire is None:
        return True  # not a lock object; fail open
    if acquire(False):
        lock.release()
        return False
    return True


def _make_setattr(
    cls: type, guards: Dict[str, Tuple[str, ...]]
) -> Any:
    def checked_setattr(self: Any, name: str, value: Any) -> None:
        candidates = guards.get(name)
        if candidates is not None:
            caller = sys._getframe(1).f_code.co_name
            if caller not in RA10_EXEMPT_METHODS:
                held = object.__getattribute__(self, "__dict__")
                locks = [
                    held[lock] for lock in candidates if lock in held
                ]
                # no lock yet: the instance is mid-construction or had
                # its lock neutralized for a fork — nothing to assert
                if locks and not any(_owned(lock) for lock in locks):
                    raise LockDisciplineError(
                        f"{cls.__name__}.{name} written from {caller}() "
                        f"without holding self.{'/'.join(candidates)} "
                        "(lock-sanitizer; see docs/analysis.md, RA10)"
                    )
        object.__setattr__(self, name, value)

    return checked_setattr


def install() -> None:
    """Patch the target classes with lock-asserting ``__setattr__``."""
    if _PATCHED:
        return
    plans = guarded_plans()
    for module_name, class_name in _TARGETS:
        guards = plans.get(class_name)
        if not guards:
            continue
        module = importlib.import_module(module_name)
        cls: Type[Any] = getattr(module, class_name)
        _PATCHED[cls] = cls.__dict__.get("__setattr__")
        setattr(cls, "__setattr__", _make_setattr(cls, guards))


def uninstall() -> None:
    """Restore every patched class to its original ``__setattr__``."""
    for cls, original in _PATCHED.items():
        if original is None:
            delattr(cls, "__setattr__")
        else:
            setattr(cls, "__setattr__", original)
    _PATCHED.clear()


def is_installed() -> bool:
    return bool(_PATCHED)

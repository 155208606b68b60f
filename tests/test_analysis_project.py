"""The whole-program index and the rules that need it, RA10-RA13.

Fixtures mimic the ``repro`` package layout under ``tmp_path`` (the
module-name anchoring makes ``tmp/repro/serve/mod.py`` lint exactly like
the real ``repro.serve.mod``), with one violating and one conforming
fixture per rule.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis import (
    build_project,
    guarded_attribute_map,
    lint_file,
    lint_paths,
    load_module,
)
from repro.analysis.engine import _module_name


def write_tree(tmp_path, files):
    paths = []
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        if path.suffix == ".py":
            paths.append(path)
    return paths


def lint_project(tmp_path, files, select=None):
    paths = write_tree(tmp_path, files)
    violations, _ = lint_paths(paths, select=select)
    return violations


def index_of(tmp_path, files):
    paths = write_tree(tmp_path, files)
    return build_project([load_module(p) for p in paths])


def codes(violations):
    return [v.rule for v in violations]


LOCKED_COUNTER = """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self.total = 0

        def bump(self):
            with self._lock:
                self.total += 1

        def read(self):
            with self._lock:
                return self.total
    """

UNGUARDED_READ = LOCKED_COUNTER.replace(
    "        def read(self):\n"
    "            with self._lock:\n"
    "                return self.total\n",
    "        def read(self):\n"
    "            return self.total\n",
)


class TestModuleName:
    def test_anchors_at_repro(self, tmp_path):
        path = tmp_path / "src" / "repro" / "search" / "mod.py"
        assert _module_name(path) == "repro.search.mod"

    def test_anchors_at_the_last_repro(self, tmp_path):
        path = tmp_path / "repro" / "vendor" / "repro" / "core.py"
        assert _module_name(path) == "repro.core"

    def test_init_names_the_package(self, tmp_path):
        path = tmp_path / "repro" / "serve" / "__init__.py"
        assert _module_name(path) == "repro.serve"

    def test_outside_repro_falls_back_to_stem(self, tmp_path):
        path = tmp_path / "scratch" / "notes.py"
        assert _module_name(path) == "notes"


class TestProjectIndex:
    def test_lock_and_guarded_attrs_are_inferred(self, tmp_path):
        index = index_of(
            tmp_path, {"repro/engine/counter.py": LOCKED_COUNTER}
        )
        (cls,) = index.find_classes("Counter")
        assert cls.lock_attrs == {"_lock"}
        assert guarded_attribute_map(cls) == {"total": frozenset({"_lock"})}

    def test_condition_alias_canonicalizes_to_its_lock(self, tmp_path):
        index = index_of(
            tmp_path,
            {
                "repro/engine/queue.py": """
                import threading

                class Queue:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._wake = threading.Condition(self._lock)
                        self._items = []

                    def put(self, item):
                        with self._wake:
                            self._items = self._items + [item]
                            self._wake.notify_all()
                """
            },
        )
        (cls,) = index.find_classes("Queue")
        assert cls.lock_aliases == {"_wake": "_lock"}
        assert cls.canonical_lock("_wake") == "_lock"
        # the write under the alias is guarded by the canonical lock
        assert guarded_attribute_map(cls) == {
            "_items": frozenset({"_lock"})
        }

    def test_helper_inherits_callers_held_locks(self, tmp_path):
        index = index_of(
            tmp_path,
            {
                "repro/engine/cachefix.py": """
                import threading

                class Cache:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.size = 0

                    def _grow(self):
                        self.size += 1

                    def insert(self):
                        with self._lock:
                            self._grow()
                """
            },
        )
        (cls,) = index.find_classes("Cache")
        # _grow's only visible call site holds the lock, so its write is
        # guarded — and produces no RA10 finding
        assert guarded_attribute_map(cls) == {"size": frozenset({"_lock"})}
        assert lint_paths([cls.path], select=["RA10"])[0] == []

    def test_call_graph_resolves_self_and_module_calls(self, tmp_path):
        index = index_of(
            tmp_path,
            {
                "repro/serve/pipeline.py": """
                def helper():
                    return 1

                class Runner:
                    def run(self):
                        self.step()
                        return helper()

                    def step(self):
                        return 0
                """
            },
        )
        facts = index.find_module("repro.serve.pipeline")
        assert "helper" in facts.functions
        (cls,) = index.find_classes("Runner")
        run_calls = {
            (c.scope, c.name) for c in cls.methods["run"].calls
        }
        assert ("self", "step") in run_calls
        assert ("module", "helper") in run_calls


class TestRA10:
    def test_unguarded_read_is_flagged(self, tmp_path):
        violations = lint_project(
            tmp_path,
            {"repro/engine/counter.py": UNGUARDED_READ},
            select=["RA10"],
        )
        assert codes(violations) == ["RA10"]
        assert "Counter.total" in violations[0].message
        assert "read here in read()" in violations[0].message

    def test_disciplined_class_is_clean(self, tmp_path):
        violations = lint_project(
            tmp_path,
            {"repro/engine/counter.py": LOCKED_COUNTER},
            select=["RA10"],
        )
        assert violations == []

    def test_init_is_exempt(self, tmp_path):
        # LOCKED_COUNTER writes self.total = 0 in __init__ with no lock
        violations = lint_project(
            tmp_path,
            {"repro/engine/counter.py": LOCKED_COUNTER},
            select=["RA10"],
        )
        assert violations == []

    def test_guarded_by_annotation_escapes(self, tmp_path):
        source = LOCKED_COUNTER.replace(
            "        def read(self):\n"
            "            with self._lock:\n"
            "                return self.total\n",
            "        def read(self):\n"
            "            # repro: guarded-by(_lock)\n"
            "            return self.total\n",
        )
        violations = lint_project(
            tmp_path,
            {"repro/engine/counter.py": source},
            select=["RA10"],
        )
        assert violations == []

    def test_noqa_suppresses_a_project_finding(self, tmp_path):
        source = LOCKED_COUNTER.replace(
            "        def read(self):\n"
            "            with self._lock:\n"
            "                return self.total\n",
            "        def read(self):\n"
            "            return self.total"
            "  # repro: noqa RA10 -- torn reads accepted, for this test\n",
        )
        violations = lint_project(
            tmp_path,
            {"repro/engine/counter.py": source},
            select=["RA10"],
        )
        assert violations == []

    def test_lockless_class_is_ignored(self, tmp_path):
        violations = lint_project(
            tmp_path,
            {
                "repro/engine/plain.py": """
                class Plain:
                    def __init__(self):
                        self.total = 0

                    def bump(self):
                        self.total += 1
                """
            },
            select=["RA10"],
        )
        assert violations == []


class TestRA11:
    def test_direct_blocking_call_in_async_def(self, tmp_path):
        violations = lint_project(
            tmp_path,
            {
                "repro/serve/handlers.py": """
                import time

                async def handle(request):
                    time.sleep(0.1)
                    return request
                """
            },
            select=["RA11"],
        )
        assert codes(violations) == ["RA11"]
        assert "time.sleep" in violations[0].message
        assert "async handle" in violations[0].message

    def test_blocking_call_behind_a_sync_helper(self, tmp_path):
        violations = lint_project(
            tmp_path,
            {
                "repro/serve/handlers.py": """
                import time

                def settle():
                    time.sleep(0.1)

                async def handle(request):
                    settle()
                    return request
                """
            },
            select=["RA11"],
        )
        assert codes(violations) == ["RA11"]
        assert "reachable from async handle" in violations[0].message

    def test_direct_engine_search_is_flagged(self, tmp_path):
        violations = lint_project(
            tmp_path,
            {
                "repro/serve/handlers.py": """
                class App:
                    async def search(self, query):
                        return self.engine.search(query, 0.7)
                """
            },
            select=["RA11"],
        )
        assert codes(violations) == ["RA11"]
        assert "coalescer" in violations[0].message

    def test_to_thread_and_async_sleep_are_clean(self, tmp_path):
        violations = lint_project(
            tmp_path,
            {
                "repro/serve/handlers.py": """
                import asyncio
                import time

                async def handle(request, engine):
                    await asyncio.sleep(0.1)
                    return await asyncio.to_thread(
                        engine.search, request, 0.7
                    )
                """
            },
            select=["RA11"],
        )
        assert violations == []

    def test_calls_in_nested_defs_are_deferred(self, tmp_path):
        # the lambda is shipped elsewhere (e.g. to an executor); it does
        # not run on the event loop
        violations = lint_project(
            tmp_path,
            {
                "repro/serve/handlers.py": """
                import time

                async def handle(pool, request):
                    fn = lambda: time.sleep(0.1)
                    return pool.submit(fn)
                """
            },
            select=["RA11"],
        )
        assert violations == []

    def test_outside_serve_is_ignored(self, tmp_path):
        violations = lint_project(
            tmp_path,
            {
                "repro/engine/async_side.py": """
                import time

                async def tick():
                    time.sleep(0.1)
                """
            },
            select=["RA11"],
        )
        assert violations == []


RA12_SHIPPER = """
    import threading
    from concurrent.futures import ProcessPoolExecutor

    class Engine:
        def __init__(self):
            self._lock = threading.Lock()
            self._pool = None

        def fan_out(self, chunks):
            pool = ProcessPoolExecutor(
                max_workers=2, initializer=_init, initargs=(self,)
            )
            return list(pool.map(_work, chunks))
    """


class TestRA12:
    def test_shipped_class_without_getstate_is_flagged(self, tmp_path):
        violations = lint_project(
            tmp_path,
            {"repro/engine/shipper.py": RA12_SHIPPER},
            select=["RA12"],
        )
        assert codes(violations) == ["RA12"]
        assert "no __getstate__" in violations[0].message
        assert "_lock" in violations[0].message

    def test_dict_copy_getstate_must_clear_each_unsafe_attr(self, tmp_path):
        source = RA12_SHIPPER.replace(
            "        def fan_out",
            "        def __getstate__(self):\n"
            "            state = dict(self.__dict__)\n"
            "            return state\n"
            "\n"
            "        def fan_out",
        )
        violations = lint_project(
            tmp_path,
            {"repro/engine/shipper.py": source},
            select=["RA12"],
        )
        assert codes(violations) == ["RA12"]
        assert "never clears _lock" in violations[0].message

    def test_neutralizing_getstate_is_clean(self, tmp_path):
        source = RA12_SHIPPER.replace(
            "        def fan_out",
            "        def __getstate__(self):\n"
            "            state = dict(self.__dict__)\n"
            '            state["_lock"] = None\n'
            "            return state\n"
            "\n"
            "        def fan_out",
        )
        violations = lint_project(
            tmp_path,
            {"repro/engine/shipper.py": source},
            select=["RA12"],
        )
        assert violations == []

    def test_unshipped_class_is_ignored(self, tmp_path):
        violations = lint_project(
            tmp_path,
            {
                "repro/engine/local.py": """
                import threading

                class Local:
                    def __init__(self):
                        self._lock = threading.Lock()
                """
            },
            select=["RA12"],
        )
        assert violations == []

    def test_composed_attribute_travels_with_the_shipper(self, tmp_path):
        # Engine ships itself; its self.cache = Cache() attribute pickles
        # along, so Cache's bare lock is flagged too
        source = RA12_SHIPPER.replace(
            "            self._pool = None",
            "            self._pool = None\n"
            "            self.cache = Cache()",
        ).replace(
            "        def fan_out",
            "        def __getstate__(self):\n"
            "            state = dict(self.__dict__)\n"
            '            state["_lock"] = None\n'
            "            return state\n"
            "\n"
            "        def fan_out",
        )
        source += (
            "\n"
            "    class Cache:\n"
            "        def __init__(self):\n"
            "            self._cache_lock = threading.Lock()\n"
        )
        violations = lint_project(
            tmp_path,
            {"repro/engine/shipper.py": source},
            select=["RA12"],
        )
        assert codes(violations) == ["RA12"]
        assert "Cache" in violations[0].message


RA13_USER = """
    from repro.obs import METRICS

    def record():
        METRICS.inc("engine.cache.hits")
    """


class TestRA13:
    def test_missing_manifest_flags_every_name(self, tmp_path):
        violations = lint_project(
            tmp_path,
            {"repro/engine/metrics_user.py": RA13_USER},
            select=["RA13"],
        )
        assert codes(violations) == ["RA13"]
        assert "does not exist" in violations[0].message

    def test_declared_name_is_clean(self, tmp_path):
        violations = lint_project(
            tmp_path,
            {
                "repro/engine/metrics_user.py": RA13_USER,
                "repro/obs/NAMES": "# manifest\nengine.cache.hits\n",
            },
            select=["RA13"],
        )
        assert violations == []

    def test_undeclared_name_is_flagged(self, tmp_path):
        violations = lint_project(
            tmp_path,
            {
                "repro/engine/metrics_user.py": RA13_USER,
                "repro/obs/NAMES": "# manifest\nengine.cache.misses\n",
            },
            select=["RA13"],
        )
        assert codes(violations) == ["RA13"]
        assert "engine.cache.hits" in violations[0].message
        assert "not declared" in violations[0].message

    def test_stale_entry_needs_the_whole_tree(self, tmp_path):
        # a partial scan (registry module absent) must not cry stale
        violations = lint_project(
            tmp_path,
            {
                "repro/engine/metrics_user.py": RA13_USER,
                "repro/obs/NAMES": (
                    "engine.cache.hits\nengine.cache.misses\n"
                ),
            },
            select=["RA13"],
        )
        assert violations == []

    def test_stale_entry_is_flagged_on_a_full_scan(self, tmp_path):
        violations = lint_project(
            tmp_path,
            {
                "repro/engine/metrics_user.py": RA13_USER,
                "repro/obs/registry.py": "class MetricsRegistry:\n    pass\n",
                "repro/obs/NAMES": (
                    "engine.cache.hits\nengine.cache.misses\n"
                ),
            },
            select=["RA13"],
        )
        assert codes(violations) == ["RA13"]
        assert "never used" in violations[0].message
        assert violations[0].line == 2

    def test_dynamic_names_are_invisible(self, tmp_path):
        violations = lint_project(
            tmp_path,
            {
                "repro/engine/metrics_user.py": """
                from repro.obs import METRICS

                def record(route):
                    METRICS.inc(f"serve.route.{route}.requests")
                """,
                "repro/obs/NAMES": "engine.cache.hits\n",
            },
            select=["RA13"],
        )
        assert violations == []


class TestSelection:
    def test_project_rule_needs_no_flag(self, tmp_path):
        # there is one mode: a bare lint_paths over a directory builds the
        # index and runs RA10, and so does lint_file on one file
        (path,) = write_tree(
            tmp_path, {"repro/engine/counter.py": UNGUARDED_READ}
        )
        assert codes(lint_paths([tmp_path])[0]) == ["RA10"]
        assert codes(lint_paths([path], select=["RA10"])[0]) == ["RA10"]
        assert codes(lint_file(path, select=["RA10"])) == ["RA10"]

    def test_default_project_run_includes_all_rules(self, tmp_path):
        violations = lint_project(
            tmp_path,
            {
                "repro/serve/handlers.py": """
                import time

                async def handle(request):
                    time.sleep(0.1)
                """
            },
        )
        assert "RA11" in codes(violations)


class TestRealTree:
    def test_obs_names_matches_the_live_collector(self):
        # every constant name in the manifest resolves; drift in either
        # direction is an RA13 violation, which the whole-tree self-lint
        # (test_analysis_rules.py::TestSelfLint) holds at zero
        root = Path(__file__).resolve().parent.parent
        manifest = root / "src" / "repro" / "obs" / "NAMES"
        assert manifest.is_file()
        names = [
            line.split("#", 1)[0].strip()
            for line in manifest.read_text().splitlines()
        ]
        names = [n for n in names if n]
        assert len(names) == len(set(names)), "duplicate manifest entries"
        # metric names are dotted; bare trace roots (e.g. "join") are the
        # one sanctioned exception
        assert all(" " not in n for n in names)
        assert [n for n in names if "." not in n] == ["join"]
        assert len(names) >= 30

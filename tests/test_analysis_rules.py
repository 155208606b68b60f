"""Tests for the repo-specific lint engine and its per-file rules.

Each rule gets a failing and a passing fixture snippet, written into a
``tmp/repro/...`` tree so the engine derives the same dotted module names
it sees on the real source tree.  The suite ends with the self-lint gate:
the shipped tree must be clean under every rule (the whole-program rules
RA10-RA13 have their fixtures in ``test_analysis_project.py``).
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import RULES, lint_file, lint_paths, rule_table
from repro.analysis.engine import format_violations


def lint_snippet(tmp_path, relpath, source, select=None):
    """Write ``source`` at ``tmp/<relpath>`` and lint that one file."""
    path = tmp_path.joinpath(*relpath.split("/"))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_file(path, select=select)


def codes(violations):
    return [v.rule for v in violations]


class TestRA02MagicConstants:
    def test_metadata_literal_fires_anywhere_in_compression(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/compression/newscheme.py",
            """
            COST = 69
            """,
        )
        assert codes(found) == ["RA02"]
        assert "METADATA_BITS" in found[0].message

    def test_rho_and_horizon_fire(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/compression/newscheme.py",
            """
            RHO = 37
            HORIZON = 138
            """,
        )
        assert codes(found) == ["RA02", "RA02"]

    def test_element_bits_fires_only_in_layout_modules(self, tmp_path):
        layout = lint_snippet(
            tmp_path,
            "repro/compression/online/policy.py",
            """
            WIDTH = 32
            """,
        )
        assert codes(layout) == ["RA02"]
        elsewhere = lint_snippet(
            tmp_path,
            "repro/compression/roaring2.py",
            """
            CHUNK = 32
            """,
        )
        assert elsewhere == []

    def test_imported_constant_passes(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/compression/newscheme.py",
            """
            from repro.compression.constants import METADATA_BITS

            COST = METADATA_BITS
            """,
        )
        assert found == []

    def test_outside_compression_passes(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/bench/tables.py",
            """
            ROWS = 69
            """,
        )
        assert found == []

    def test_constants_module_itself_is_exempt(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/compression/constants.py",
            """
            METADATA_BITS = 69
            """,
        )
        assert found == []


class TestRA03SpanNaming:
    """RA03's fixtures, re-aimed: the naming convention is RA13's now.

    RA13 forces every constant telemetry name in a ``repro`` module into
    ``obs/NAMES`` and checks the ``component.operation`` shape on the
    manifest's lines, so a badly shaped name is a finding where it is used
    (not declared) and where it would have to be declared (the manifest).
    """

    MANIFEST = "engine.batch.parallel\njoin.candidates\njoin\nsearch.sharded\n"

    def lint_named(self, tmp_path, source, manifest=MANIFEST):
        module = tmp_path / "repro" / "newmod.py"
        names = tmp_path / "repro" / "obs" / "NAMES"
        names.parent.mkdir(parents=True)
        module.write_text(textwrap.dedent(source), encoding="utf-8")
        names.write_text(manifest, encoding="utf-8")
        found = lint_paths([tmp_path], select=["RA13"])[0]
        return [(v.rule, Path(v.path).name) for v in found], found

    def test_undotted_metric_name_fires(self, tmp_path):
        where, found = self.lint_named(
            tmp_path,
            """
            _METRICS.inc("queries")
            """,
        )
        assert where == [("RA13", "newmod.py")]
        assert "not declared" in found[0].message

    def test_bad_casing_fires(self, tmp_path):
        # declaring the name does not launder it: the manifest line fires
        where, found = self.lint_named(
            tmp_path,
            """
            METRICS.span("Engine.Search")
            METRICS.inc("CacheHits")
            """,
            manifest="Engine.Search\n",
        )
        assert where == [("RA13", "newmod.py"), ("RA13", "NAMES")]
        assert "'CacheHits' is not declared" in found[0].message
        assert "convention" in found[1].message

    def test_dotted_name_passes(self, tmp_path):
        where, _ = self.lint_named(
            tmp_path,
            """
            _METRICS.span("engine.batch.parallel")
            _METRICS.inc("join.candidates", 3)
            """,
        )
        assert where == []

    def test_tracer_root_may_be_single_component(self, tmp_path):
        where, _ = self.lint_named(
            tmp_path,
            """
            _TRACER.trace("join", threshold=0.8)
            _TRACER.trace("search.sharded")
            """,
        )
        assert where == []

    def test_tracer_bad_component_fires(self, tmp_path):
        where, _ = self.lint_named(
            tmp_path,
            """
            _TRACER.trace("Join Run")
            """,
            manifest="Join Run\n",
        )
        assert where == [("RA13", "NAMES")]

    def test_non_constant_names_are_ignored(self, tmp_path):
        where, _ = self.lint_named(
            tmp_path,
            """
            def record(kind):
                _METRICS.inc(kind)
            """,
        )
        assert where == []


class TestRA05RegistryCompleteness:
    def test_unregistered_scheme_class_fires(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/compression/newscheme.py",
            """
            class NewList:
                scheme_name = "newlist"
            """,
        )
        assert codes(found) == ["RA05"]
        assert "register_scheme" in found[0].message

    def test_decorated_class_passes(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/compression/newscheme.py",
            """
            from repro.compression.registry import register_scheme

            @register_scheme("newlist", kind="offline")
            class NewList:
                scheme_name = "newlist"
            """,
        )
        assert found == []

    def test_module_level_registration_passes(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/compression/newscheme.py",
            """
            from repro.compression.registry import register_scheme

            class NewList:
                scheme_name = "newlist"

            register_scheme("newlist", "offline", NewList)
            """,
        )
        assert found == []

    def test_abstract_bases_are_exempt(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/compression/newbase.py",
            """
            class Base:
                scheme_name = "abstract"

            class OnlineBase:
                scheme_name = "online"
            """,
        )
        assert found == []

    def test_annotated_scheme_name_is_still_caught(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/compression/newscheme.py",
            """
            class NewList:
                scheme_name: str = "newlist"
            """,
        )
        assert codes(found) == ["RA05"]


class TestRA06NoAsserts:
    def test_assert_fires(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/compression/newmod.py",
            """
            def seal(buffer):
                assert buffer, "buffer must not be empty"
            """,
        )
        assert codes(found) == ["RA06"]
        assert "-O" in found[0].message

    def test_raise_passes(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/compression/newmod.py",
            """
            def seal(buffer):
                if not buffer:
                    raise ValueError("buffer must not be empty")
            """,
        )
        assert found == []


class TestRA07BroadExcept:
    def test_swallowing_broad_except_fires(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/newmod.py",
            """
            def load(path):
                try:
                    return open(path).read()
                except Exception:
                    return None
            """,
        )
        assert codes(found) == ["RA07"]

    def test_bare_except_fires(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/newmod.py",
            """
            def load(path):
                try:
                    return open(path).read()
                except:
                    return None
            """,
        )
        assert codes(found) == ["RA07"]

    def test_broad_except_in_tuple_fires(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/newmod.py",
            """
            def load(path):
                try:
                    return open(path).read()
                except (ValueError, Exception):
                    return None
            """,
        )
        assert codes(found) == ["RA07"]

    def test_reraising_handler_passes(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/newmod.py",
            """
            def load(path):
                try:
                    return open(path).read()
                except BaseException:
                    cleanup()
                    raise
            """,
        )
        assert found == []

    def test_narrow_except_passes(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/newmod.py",
            """
            def load(path):
                try:
                    return open(path).read()
                except (OSError, ValueError):
                    return None
            """,
        )
        assert found == []


class TestRA08StorageModelPrivacy:
    def test_private_width_access_outside_storage_layer_fires(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/compression/newmod.py",
            """
            def widest(lst):
                return max(lst.store._widths)
            """,
        )
        assert codes(found) == ["RA08"]

    def test_private_numpy_mirror_access_fires(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/search/newmod.py",
            """
            def offsets(store):
                return store._offsets_np
            """,
        )
        assert codes(found) == ["RA08"]

    def test_public_surface_passes(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/compression/newmod.py",
            """
            def widest(lst):
                return lst.store.max_width_bits()

            def sizes(store):
                return store.block_sizes()
            """,
        )
        assert found == []

    def test_self_state_passes(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/compression/newmod.py",
            """
            class Layout:
                def __init__(self):
                    self._widths = []

                def widest(self):
                    return max(self._widths, default=0)
            """,
        )
        assert found == []

    def test_storage_layer_modules_are_whitelisted(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/compression/twolayer.py",
            """
            def dump(store):
                return list(store._widths)
            """,
        )
        assert found == []

    def test_former_companion_modules_are_not_whitelisted(self, tmp_path):
        # introspect/validate read the layout through block_widths() /
        # check() now; only the home module may see the raw vectors
        found = lint_snippet(
            tmp_path,
            "repro/compression/introspect.py",
            """
            def widths(store):
                return list(store._widths)
            """,
        )
        assert codes(found) == ["RA08"]


class TestSuppressions:
    def test_inline_noqa_silences_its_line(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/compression/newmod.py",
            """
            GROUPS = 69  # repro: noqa RA02 -- deliberate, for this test
            """,
        )
        assert found == []

    def test_standalone_noqa_silences_the_next_line(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/compression/newmod.py",
            """
            # repro: noqa RA02 -- deliberate, for this test
            GROUPS = 69
            """,
        )
        assert found == []

    def test_standalone_noqa_reaches_only_one_line(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/compression/newmod.py",
            """
            # repro: noqa RA02 -- deliberate, for this test
            FIRST = 69
            SECOND = 69
            """,
        )
        assert codes(found) == ["RA02"]
        assert found[0].line == 4

    def test_wrong_code_does_not_suppress(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/compression/newmod.py",
            """
            GROUPS = 69  # repro: noqa RA05 -- wrong rule on purpose
            """,
        )
        assert codes(found) == ["RA02"]

    def test_missing_reason_is_flagged(self, tmp_path):
        # the tag is assembled from two literals so linting THIS file does
        # not see a reasonless suppression on this line
        found = lint_snippet(
            tmp_path,
            "repro/compression/newmod.py",
            "GROUPS = 69  # repro: " + "noqa RA02\n",
        )
        (untagged,) = [v for v in found if v.rule == "RA00"]
        assert "justification" in untagged.message

    def test_inline_noqa_covers_the_whole_statement(self, tmp_path):
        # regression: the tag sits on the first physical line, the flagged
        # constant on a later line of the same multi-line statement
        found = lint_snippet(
            tmp_path,
            "repro/compression/newmod.py",
            """
            GROUPS = max(  # repro: noqa RA02 -- deliberate, for this test
                69,
                69,
            )
            """,
        )
        assert found == []

    def test_inline_noqa_on_the_last_line_covers_the_statement(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/compression/newmod.py",
            """
            GROUPS = max(
                69,
                69,
            )  # repro: noqa RA02 -- deliberate, for this test
            """,
        )
        assert found == []

    def test_standalone_noqa_inside_a_statement_covers_it(self, tmp_path):
        # a comment line physically inside a multi-line statement covers
        # that statement, not whatever comes after it
        found = lint_snippet(
            tmp_path,
            "repro/compression/newmod.py",
            """
            GROUPS = max(
                # repro: noqa RA02 -- deliberate, for this test
                69,
                69,
            )
            """,
        )
        assert found == []

    def test_inline_noqa_does_not_leak_past_its_statement(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/compression/newmod.py",
            """
            FIRST = max(  # repro: noqa RA02 -- deliberate, for this test
                69,
            )
            SECOND = 69
            """,
        )
        assert codes(found) == ["RA02"]
        assert found[0].line == 5

    def test_selection_restricts_rules(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "repro/compression/newmod.py",
            """
            COST = 69
            assert COST
            """,
            select=["RA06"],
        )
        assert codes(found) == ["RA06"]

    def test_unknown_selection_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown rule"):
            lint_snippet(
                tmp_path, "repro/newmod.py", "x = 1\n", select=["RA42"]
            )


class TestEngine:
    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        found = lint_snippet(tmp_path, "repro/broken.py", "def broken(:\n")
        assert codes(found) == ["RA99"]

    def test_rule_table_covers_all_rules(self):
        table = dict(rule_table())
        assert sorted(table) == sorted(RULES)
        assert all(summary for summary in table.values())

    def test_json_format_roundtrips(self, tmp_path):
        import json

        found = lint_snippet(
            tmp_path, "repro/compression/newmod.py", "COST = 69\n"
        )
        decoded = json.loads(format_violations(found, "json", 1))
        assert decoded["schema"] == "repro.analysis/v1"
        assert decoded["files_checked"] == 1
        assert decoded["violations"][0]["rule"] == "RA02"
        assert decoded["violations"][0]["line"] == 1

    def test_json_format_is_schema_stable(self, tmp_path):
        # sorted keys + fixed schema tag: byte-identical runs diff cleanly
        found = lint_snippet(
            tmp_path, "repro/compression/newmod.py", "COST = 69\n"
        )
        text = format_violations(found, "json", 1)
        assert text == format_violations(found, "json", 1)
        assert text.index('"files_checked"') < text.index('"schema"')
        assert text.index('"schema"') < text.index('"violations"')

    def test_github_format_emits_error_annotations(self, tmp_path):
        found = lint_snippet(
            tmp_path, "repro/compression/newmod.py", "COST = 69\n"
        )
        text = format_violations(found, "github", 1)
        first = text.splitlines()[0]
        assert first.startswith("::error file=")
        assert ",line=1," in first
        assert "title=RA02::" in first

    def test_unknown_format_raises(self):
        with pytest.raises(ValueError, match="format"):
            format_violations([], "yaml")

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths(["does/not/exist"])

    def test_summary_counts_the_rules_that_ran(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "repro" / "mod.py"
        path.parent.mkdir()
        path.write_text("x = 1\n", encoding="utf-8")
        assert main(["lint", str(path)]) == 0
        assert f"{len(RULES)} rule(s), 0 violations" in capsys.readouterr().out
        assert main(["lint", "--select", "RA02,RA07", str(path)]) == 0
        assert "2 rule(s), 0 violations" in capsys.readouterr().out


class TestSelfLint:
    def test_shipped_package_is_clean(self):
        violations, files_checked = lint_paths()
        rendered = format_violations(violations, "text", files_checked)
        assert violations == [], rendered
        assert files_checked > 50

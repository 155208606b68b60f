"""Integrity checking of persisted indexes: `repro check` + bit-flip fuzz.

The paper's losslessness requirement means a corrupted on-disk index must
never silently serve wrong ids.  These tests corrupt saved bundle
directories — semantically (tampered arrays re-saved
as valid ``.npy`` files) and physically (random bit flips in the layout
arrays) — and assert the checkers flag them, and the loader refuses them,
while a pristine bundle stays clean.
"""

import json

import numpy as np
import pytest

from repro import storage
from repro.cli import main as cli_main
from repro.storage import check_path
from repro.engine import SimilarityEngine
from repro.search.searcher import InvertedIndex
from repro.similarity.tokenize import tokenize_collection


@pytest.fixture(scope="module")
def collection():
    rng = np.random.default_rng(7)
    strings = [
        "record %04d %s"
        % (i, "".join(rng.choice(list("abcdefghij"), size=24)))
        for i in range(300)
    ]
    return tokenize_collection(strings)


def tamper(bundle, key, mutate):
    """Rewrite the bundle's ``<key>.npy`` with ``mutate(array)``."""
    file = bundle / f"{key}.npy"
    np.save(file, mutate(np.load(file).copy()))


def assign(index, value):
    def mutate(array):
        array[index] = value
        return array

    return mutate


class TestPristine:
    def test_missing_path_is_a_violation(self, tmp_path):
        issues = check_path(tmp_path / "nope")
        assert len(issues) == 1
        assert "no such index" in issues[0]


class TestSemanticCorruption:
    """Tampered arrays re-saved as valid ``.npy`` files: always caught."""

    def test_out_of_range_widths(self, saved_bundle):
        tamper(saved_bundle, "widths", assign(slice(None), 99))
        issues = check_path(saved_bundle)
        assert issues and "delta width" in issues[0]

    @pytest.mark.parametrize(
        "key, mutate, message",
        [
            ("starts", assign(0, 5), "starts"),
            ("starts", assign(slice(None), 0), "non-positive block size|starts"),
            ("words", lambda words: words[: words.size // 2], "extent"),
            ("kinds", lambda kinds: kinds[:-1], "tokens/kinds"),
            ("widths", assign(0, 50), "delta width"),
            ("bit_counts", assign(slice(None), 10**9), "num_bits"),
        ],
    )
    def test_loader_rejects_broken_extents(
        self, saved_bundle, key, mutate, message
    ):
        tamper(saved_bundle, key, mutate)
        issues = check_path(saved_bundle)
        assert issues and "load failed" in issues[0]
        # and the serving path refuses the bundle instead of answering
        with pytest.raises(ValueError, match=message):
            SimilarityEngine.open(saved_bundle)

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda c: assign(0, c[0] + 5)(c), "extent"),
            # -1 for list 0, the total kept so the container checks pass
            (
                lambda c: assign(slice(0, 2), [-1, c[0] + c[1] + 1])(c),
                "uncompressed extent",
            ),
        ],
    )
    def test_loader_rejects_broken_uncompressed_extents(
        self, collection, tmp_path, mutate, message
    ):
        bundle = storage.save_index(
            InvertedIndex(collection, scheme="uncomp"), tmp_path / "uncomp"
        )
        tamper(bundle, "uncomp_counts", mutate)
        with pytest.raises(ValueError, match=message):
            SimilarityEngine.open(bundle)

    def test_disordered_bases(self, saved_bundle):
        block_counts = np.load(saved_bundle / "block_counts.npy")
        # find a list with >= 2 metadata blocks and swap its first two bases
        multi = np.nonzero(block_counts >= 2)[0]
        if multi.size == 0:
            pytest.skip("corpus produced only single-block lists")
        offset = int(block_counts[: multi[0]].sum())

        def swap(bases):
            bases[[offset, offset + 1]] = bases[[offset + 1, offset]]
            return bases

        tamper(saved_bundle, "bases", swap)
        assert check_path(saved_bundle)


class TestBitFlipFuzz:
    """Random single-bit flips in a bundle's layout arrays: majority caught.

    A bundle's ``.npy`` files carry no checksum, so a flip that leaves a
    *payload* array well-formed — one packed delta in ``words``, one token
    id — is invisible to any structural checker.  What the checker does
    promise is the layout: every array holding counts, extents, offsets,
    bases or widths.  Flips there are caught by the extent and contract
    checks, bar the few that land in ``.npy`` header padding or yield
    another valid layout, so the assertion is a majority bound.  Flips
    guaranteed to matter are covered by :class:`TestSemanticCorruption`.
    """

    TRIALS = 50
    PAYLOAD = {"words.npy", "tokens.npy", "records_values.npy"}

    def test_flips_are_detected(self, saved_bundle):
        layout = sorted(
            file
            for file in saved_bundle.glob("*.npy")
            if file.name not in self.PAYLOAD
        )
        rng = np.random.default_rng(0xC0FFEE)
        detected = 0
        for trial in range(self.TRIALS):
            target = layout[int(rng.integers(0, len(layout)))]
            pristine = target.read_bytes()
            corrupt = bytearray(pristine)
            position = int(rng.integers(0, len(corrupt)))
            corrupt[position] ^= 1 << int(rng.integers(0, 8))
            target.write_bytes(bytes(corrupt))
            if check_path(saved_bundle):
                detected += 1
            target.write_bytes(pristine)
        assert detected >= int(0.8 * self.TRIALS), (
            f"only {detected}/{self.TRIALS} bit flips detected"
        )
        # every flip was undone: the pristine bundle still passes
        assert check_path(saved_bundle) == []


class TestManifestChecks:
    def test_tampered_manifest_is_caught(self, saved_bundle):
        manifest_path = saved_bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["num_records"] += 1
        manifest_path.write_text(json.dumps(manifest))
        issues = check_path(saved_bundle)
        assert issues and "load failed" in issues[0]
        with pytest.raises(ValueError, match="manifest"):
            SimilarityEngine.open(saved_bundle)

    def test_foreign_manifest_kind_is_rejected(self, saved_bundle):
        manifest_path = saved_bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["kind"] = "something.else"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="manifest"):
            SimilarityEngine.open(saved_bundle)


@pytest.fixture()
def saved_bundle(collection, tmp_path):
    return storage.save_index(
        InvertedIndex(collection, scheme="css"), tmp_path / "bundle"
    )


class TestBundleChecks:
    """``check_path`` routes directory layouts by manifest kind; bundle
    corruption — bad arrays — must surface as violations naming the
    offending file."""

    def test_clean_bundle_has_no_violations(self, saved_bundle):
        assert check_path(saved_bundle) == []

    def test_corrupt_bundle_array_is_caught(self, saved_bundle):
        widths = np.load(saved_bundle / "widths.npy").copy()
        widths[:] = 99
        np.save(saved_bundle / "widths.npy", widths)
        issues = check_path(saved_bundle)
        assert issues and "widths" in issues[0]

    def test_unrecognized_manifest_kind(self, tmp_path):
        path = tmp_path / "mystery"
        path.mkdir()
        (path / "manifest.json").write_text(json.dumps({"kind": "exotic"}))
        issues = check_path(path)
        assert issues and "exotic" in issues[0]

    def test_directory_without_manifest(self, tmp_path):
        path = tmp_path / "plain"
        path.mkdir()
        issues = check_path(path)
        assert issues and "manifest.json" in issues[0]


class TestCheckCLI:
    def test_bundle_directory_passes(self, saved_bundle, capsys):
        assert cli_main(["check", str(saved_bundle)]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_corrupt_array_fails_the_check(self, saved_bundle, capsys):
        tamper(saved_bundle, "widths", assign(slice(None), 99))
        assert cli_main(["check", str(saved_bundle)]) == 1
        assert "integrity violations" in capsys.readouterr().out

"""Sharded bundle directories: one self-contained bundle per shard.

Layout::

    path/
      manifest.json            kind=repro.sharded_bundle, routing, counts
      shard-00000/             a full index bundle (repro.storage.bundle)
        manifest.json ...
        assignment.npy         local->global record ids (static shards)
      shard-00001/ ...

Every shard bundle carries its own tokenized sub-collection, so opening
needs **no** caller-supplied collection — ``ShardedEngine.open(path)`` is
enough.  Static shards honor ``mmap=True``: N shard bundles under one directory opened by N fork
workers all serve their posting lists off the shared page cache.

Dynamic shards (``"dynamic": true``) are snapshots of per-shard
:class:`~repro.search.dynamic.DynamicInvertedIndex` objects, each with its
own append log.  Their local→global assignment is *derived*, not stored:
hash routing fixes ``global = shard_id + local * num_shards``, which stays
correct for records replayed from the logs after the snapshot.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

import numpy as np

from .bundle import (
    MANIFEST_NAME,
    SHARDED_BUNDLE_KIND,
    SHARDED_BUNDLE_VERSION,
    corruption_error,
    open_index,
    read_manifest,
    require,
    save_index,
    write_manifest,
)

__all__ = [
    "save_sharded",
    "open_sharded",
    "shard_dir",
    "validate_assignments",
]

ASSIGNMENT_NAME = "assignment.npy"


def shard_dir(position: int) -> str:
    return f"shard-{position:05d}"


def validate_assignments(assignments: List[np.ndarray]) -> int:
    """Check the shard assignment is a partition of ``0..N-1``; returns N."""
    total = sum(int(a.size) for a in assignments)
    if total == 0:
        return 0
    flat = np.concatenate(assignments)
    if flat.size and not np.array_equal(
        np.sort(flat), np.arange(total, dtype=np.int64)
    ):
        raise ValueError(
            "shard assignments must cover record ids 0..N-1 exactly once"
        )
    for position, assignment in enumerate(assignments):
        if assignment.size > 1 and not np.all(np.diff(assignment) > 0):
            raise ValueError(
                f"shard {position} assignment is not strictly ascending"
            )
    return total


def save_sharded(
    indexes: Sequence[Any],
    assignments: Sequence[Sequence[int]],
    path: Union[str, Path],
    *,
    routing: str = "contiguous",
    dynamic: bool = False,
) -> Path:
    """Persist shard indexes + their id assignments as a sharded bundle."""
    if not indexes:
        raise ValueError("save_sharded needs at least one shard")
    if len(indexes) != len(assignments):
        raise ValueError(
            f"{len(indexes)} shard indexes but {len(assignments)} assignments"
        )
    arrays = [np.asarray(a, dtype=np.int64) for a in assignments]
    total = validate_assignments(arrays)
    for position, (index, assignment) in enumerate(zip(indexes, arrays)):
        if len(index.collection) != assignment.size:
            raise ValueError(
                f"shard {position} indexes {len(index.collection)} records "
                f"but its assignment lists {assignment.size}"
            )
    schemes = {index.scheme for index in indexes}
    if len(schemes) != 1:
        raise ValueError(f"shards disagree on the scheme: {sorted(schemes)}")

    path = Path(path)
    if path.exists() and not path.is_dir():
        raise ValueError(f"{path} exists and is not a directory")
    path.mkdir(parents=True, exist_ok=True)
    for position, (index, assignment) in enumerate(zip(indexes, arrays)):
        bundle_path = save_index(index, path / shard_dir(position))
        if dynamic:
            # hash routing makes the assignment derivable from the
            # record count, and only derivation stays correct once the
            # append log outgrows the snapshot
            (bundle_path / ASSIGNMENT_NAME).unlink(missing_ok=True)
        else:
            np.save(bundle_path / ASSIGNMENT_NAME, assignment)
    manifest = {
        "kind": SHARDED_BUNDLE_KIND,
        "version": SHARDED_BUNDLE_VERSION,
        "dynamic": bool(dynamic),
        "shards": len(indexes),
        "routing": routing,
        "scheme": next(iter(schemes)),
        "num_records": total,
        "shard_records": [int(a.size) for a in arrays],
    }
    write_manifest(path, manifest)
    return path


def open_sharded(
    path: Union[str, Path], *, mmap: bool = True
) -> Tuple[List[Any], List[np.ndarray], Dict[str, Any]]:
    """Open every shard bundle under ``path``.

    Returns ``(indexes, assignments, manifest)``.  Static shards honor
    ``mmap``; dynamic shards replay their append logs and derive their
    (possibly log-extended) assignments from the hash routing.
    """
    path = Path(path)
    manifest = read_manifest(path, SHARDED_BUNDLE_KIND)
    shards = int(manifest["shards"])
    shard_records = [int(n) for n in manifest["shard_records"]]
    if shards < 1 or len(shard_records) != shards:
        raise corruption_error(
            "shard count disagrees with the per-shard record listing",
            file=path / MANIFEST_NAME,
        )
    dynamic = bool(manifest.get("dynamic"))

    indexes: List[Any] = []
    assignments: List[np.ndarray] = []
    for position in range(shards):
        bundle_path = path / shard_dir(position)
        if not bundle_path.is_dir():
            raise corruption_error(
                "shard bundle directory is missing", file=bundle_path
            )
        index = open_index(bundle_path, mmap=mmap)
        if dynamic:
            # snapshot + replayed log; global = shard_id + local * N
            assignment = np.arange(
                index.num_records, dtype=np.int64
            ) * shards + position
        else:
            assignment_path = bundle_path / ASSIGNMENT_NAME
            if not assignment_path.is_file():
                raise corruption_error(
                    "shard assignment file is missing",
                    file=assignment_path,
                    key="assignment",
                )
            assignment = np.load(assignment_path)
            require(
                assignment.dtype == np.int64 and assignment.ndim == 1,
                f"expected a 1-d int64 array, found {assignment.dtype} "
                f"shape {assignment.shape}",
                file=assignment_path,
                key="assignment",
            )
            require(
                assignment.size == shard_records[position],
                f"assignment holds {assignment.size} ids, manifest "
                f"says {shard_records[position]}",
                file=assignment_path,
                key="assignment",
            )
            require(
                assignment.size == len(index.collection),
                f"assignment holds {assignment.size} ids, shard indexes "
                f"{len(index.collection)} records",
                file=assignment_path,
                key="assignment",
            )
        indexes.append(index)
        assignments.append(assignment)
    total = validate_assignments(assignments)
    if not dynamic and total != int(manifest["num_records"]):
        raise corruption_error(
            f"assignments cover {total} records, manifest says "
            f"{manifest['num_records']}",
            file=path / MANIFEST_NAME,
        )
    return indexes, assignments, manifest

"""Command-line interface: ``python -m repro <command>``.

Wraps the library for shell use on line-delimited text files (one record
per line):

* ``generate`` — write a synthetic dataset (DESIGN.md §2 stand-ins),
* ``stats``    — per-scheme index sizes and compression ratios for a corpus,
* ``index``    — build and persist a compressed inverted index as a
  bundle directory,
* ``search``   — query a corpus (Jaccard or edit distance), optionally
  through a persisted index (``--mmap`` serves bundles zero-copy),
* ``serve``    — HTTP serving layer over an index: concurrent
  ``POST /search`` requests are coalesced into batch engine calls,
* ``join``     — self-join a corpus and print the similar pairs.

Every command prints to stdout and exits non-zero on bad arguments, so the
tool composes with shell pipelines.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

from .core.framework import OFFLINE_SCHEMES, ONLINE_SCHEMES
from .datasets import dataset_names, load_dataset
from .engine import SimilarityEngine
from .obs import (
    METRICS,
    TRACER,
    dump_profile,
    dump_traces,
    load_traces,
    profile_report,
    render_profile,
    render_traces,
    sniff_dump,
    validate_profile,
)
from .join import JOIN_FILTERS
from .search import InvertedIndex
from .similarity import tokenize_collection

__all__ = ["main", "build_parser"]

def _read_lines(path: str, text: Optional[str] = None) -> List[str]:
    """Corpus lines with positions preserved: record id == 0-based line number.

    Blank lines become empty records (no signatures, so they can never
    match) instead of being dropped — dropping them used to shift every
    subsequent record id relative to the source file, making ``search`` /
    ``join`` output untraceable back to the corpus.  ``text`` is the
    file's content when the caller already read it.
    """
    if text is None:
        text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    blanks = sum(1 for line in lines if not line.strip())
    if blanks:
        print(
            f"warning: {path}: {blanks} blank line(s) kept as empty records "
            "so record ids keep matching line numbers",
            file=sys.stderr,
        )
    return lines


def _reject_non_bundle(path, must_exist: bool = True) -> bool:
    """Print the one error for a path that cannot be an index bundle.

    A path ending in ``.npz`` never is; with ``must_exist`` neither is
    anything but a directory.  Callers exit 2 on ``True``.
    """
    path = Path(path)
    if path.suffix == ".npz" or (must_exist and not path.is_dir()):
        print(
            f"error: {path} is not an index bundle directory (the legacy "
            ".npz format was removed; rebuild with `repro index CORPUS OUT`)"
        )
        return True
    return False


def _integral_threshold(value: float, what: str) -> Optional[int]:
    """``value`` as an edit-distance threshold, or ``None`` after an error.

    Delegates to :func:`repro.search.edsearch.normalize_delta` — the same
    check the searchers run — so the CLI and the engines reject a
    fractional edit distance identically instead of truncating it.
    """
    from .search.edsearch import normalize_delta

    try:
        return normalize_delta(value)
    except ValueError:
        print(
            f"error: {what} thresholds are edit distances and must be "
            f"integral; got {value}"
        )
        return None


def _add_profile_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--profile",
        nargs="?",
        const="-",
        default=None,
        metavar="PATH",
        help="enable instrumentation and dump a JSON profile report to PATH "
        "(or stdout when no path is given)",
    )


def _start_profile(args) -> bool:
    """Reset + enable the global registry when ``--profile`` was requested."""
    if getattr(args, "profile", None) is None:
        return False
    METRICS.reset()
    METRICS.enabled = True
    return True


def _emit_profile(args, **meta) -> None:
    """Disable the registry and write the profile document."""
    METRICS.enabled = False
    report = profile_report(meta={"command": args.command, **meta})
    text = dump_profile(report, args.profile)
    if args.profile in ("-", ""):  # empty PATH falls back to stdout
        print(text)
    else:
        print(f"profile written to {args.profile}")


def _add_trace_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="collect one trace tree per engine call (a search, a "
        "--queries-file batch, a join) and dump them to FILE as JSONL "
        "(render with `repro stats FILE`)",
    )
    parser.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="fraction of engine calls to trace, in [0, 1] (default: 1.0)",
    )
    parser.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="slow-query threshold: traces at least this slow are always "
        "kept and reported on stderr, regardless of --trace-sample",
    )
    parser.add_argument(
        "--trace-buffer",
        type=int,
        default=256,
        metavar="N",
        help="in-memory trace ring size; only the most recent N sampled "
        "traces are retained (default: 256)",
    )


def _start_trace(args) -> bool:
    """Configure + enable the global tracer when tracing was requested."""
    if (
        getattr(args, "trace", None) is None
        and getattr(args, "slow_ms", None) is None
    ):
        return False
    if not 0.0 <= args.trace_sample <= 1.0:
        print(
            f"error: --trace-sample must be in [0, 1], got {args.trace_sample}"
        )
        return False
    TRACER.configure(
        enabled=True,
        sample_rate=args.trace_sample,
        slow_ms=args.slow_ms,
        buffer_size=args.trace_buffer,
    )
    TRACER.clear()
    return True


def _emit_trace(args) -> None:
    """Disable the tracer, dump retained traces, report slow queries."""
    TRACER.enabled = False
    for document in TRACER.slow_log:
        meta = document.get("meta") or {}
        rendered = ", ".join(f"{k}={v!r}" for k, v in meta.items())
        print(
            f"slow query ({1000 * document['seconds']:.1f} ms"
            f" >= {args.slow_ms} ms): {rendered}",
            file=sys.stderr,
        )
    traces = TRACER.drain()
    if args.trace:
        count = dump_traces(traces, args.trace)
        dropped = TRACER.dropped
        suffix = f" ({dropped} sampled out)" if dropped else ""
        print(f"{count} trace(s) written to {args.trace}{suffix}")


def _add_tokenize_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mode",
        choices=("word", "qgram"),
        default="word",
        help="signature tokenizer (default: word)",
    )
    parser.add_argument(
        "--q", type=int, default=3, help="q-gram width for --mode qgram"
    )


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    """The arguments :func:`_engine_from_args` reads (search and serve)."""
    _add_tokenize_args(parser)
    parser.add_argument(
        "--scheme",
        choices=sorted(OFFLINE_SCHEMES),
        default="css",
        help="compression scheme for an index built from a corpus "
        "(default: css)",
    )
    parser.add_argument(
        "--metric", choices=("jaccard", "cosine", "dice", "ed"), default="jaccard"
    )
    parser.add_argument(
        "--algorithm",
        choices=("scancount", "mergeskip", "divideskip"),
        default="mergeskip",
    )
    parser.add_argument(
        "--mmap",
        action="store_true",
        help="serve a persisted bundle zero-copy off memory-mapped arrays "
        "(bundle directories only; workers share the page cache)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CSS: string similarity search/join over compressed indexes",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser(
        "generate", help="write a synthetic dataset to a file"
    )
    generate.add_argument("dataset", choices=dataset_names())
    generate.add_argument("output", help="output path (one record per line)")
    generate.add_argument("--cardinality", type=int, default=0)

    stats = commands.add_parser(
        "stats",
        help="index sizes for a corpus, or render a profile/trace dump",
        description="With a text corpus: per-scheme index sizes and "
        "compression ratios.  With a --profile JSON document: render it as "
        "Prometheus text exposition, markdown or JSON.  With a --trace "
        "JSONL dump: render the span trees, one per engine call.",
    )
    stats.add_argument(
        "corpus",
        help="text corpus (one record per line), a --profile JSON "
        "document, or a --trace JSONL dump",
    )
    _add_tokenize_args(stats)
    stats.add_argument(
        "--schemes",
        default="uncomp,pfordelta,milc,css",
        help="comma-separated offline schemes (corpus mode)",
    )
    stats.add_argument(
        "--format",
        choices=("auto", "table", "prometheus", "markdown", "json", "tree"),
        default="auto",
        help="rendering: profiles default to prometheus, trace dumps to "
        "tree, corpora to the size table (default: auto)",
    )
    stats.add_argument(
        "--check",
        action="store_true",
        help="validate a profile document against the obs schema before "
        "rendering (exit 1 on violation)",
    )
    _add_profile_arg(stats)

    index = commands.add_parser(
        "index", help="build and persist a compressed inverted index"
    )
    index.add_argument("corpus")
    index.add_argument(
        "output",
        help="output path: a bundle directory (mmap-able, self-contained)",
    )
    _add_tokenize_args(index)
    index.add_argument(
        "--scheme", choices=sorted(OFFLINE_SCHEMES), default="css"
    )

    search = commands.add_parser("search", help="similarity search a corpus")
    search.add_argument("corpus")
    search.add_argument(
        "query",
        nargs="?",
        default=None,
        help="query string (omit when using --queries-file)",
    )
    search.add_argument(
        "--queries-file",
        default=None,
        metavar="PATH",
        help="batch mode: answer every line of PATH as a query",
    )
    search.add_argument(
        "--workers",
        type=int,
        default=1,
        help="fork-pool size for --queries-file batches (default: 1, the "
        "in-process batch kernels; pays on large corpus x batch, see "
        "EXPERIMENTS.md)",
    )
    _add_engine_args(search)
    search.add_argument(
        "--threshold",
        type=float,
        default=0.8,
        help="similarity threshold (or max edits for --metric ed)",
    )
    search.add_argument(
        "--load-index",
        default=None,
        help="persisted index to reuse: a bundle directory (saved with "
        "SimilarityEngine.save / `repro index OUT`)",
    )
    _add_profile_arg(search)
    _add_trace_args(search)

    serve = commands.add_parser(
        "serve",
        help="serve an index over HTTP with request coalescing",
        description="Boot the repro.serve HTTP layer in front of an index: "
        "concurrent POST /search requests are coalesced into batch engine "
        "calls (bit-identical answers), with /metrics and /healthz "
        "alongside. PATH is an index bundle directory written by `repro "
        "index CORPUS OUT` (or *.save()); a plain text corpus also works "
        "and is indexed on the fly at boot.",
    )
    serve.add_argument(
        "path",
        help="index bundle directory (`repro index` output) or a "
        "line-delimited corpus file",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    _add_engine_args(serve)
    serve.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        help="trace coalesced batches at least this slow into the "
        "tracer's slow-query log",
    )
    serve.add_argument(
        "--max-pending",
        type=int,
        default=None,
        metavar="N",
        help="shed POST /search with 429 + Retry-After once this many "
        "requests are queued ahead of the engine (default: unbounded)",
    )
    serve.add_argument(
        "--trace-sample",
        type=float,
        default=1.0,
        metavar="RATE",
        help="keep this fraction of request/batch traces for GET "
        "/debug/trace (default: 1.0; 0 disables sampling, slow "
        "traces are always kept when --slow-ms is set)",
    )

    join = commands.add_parser("join", help="similarity self-join a corpus")
    join.add_argument("corpus")
    _add_tokenize_args(join)
    join.add_argument("--filter", choices=sorted(JOIN_FILTERS), default="position")
    join.add_argument(
        "--scheme", choices=sorted(ONLINE_SCHEMES), default="adapt"
    )
    join.add_argument(
        "--threshold",
        type=float,
        default=0.8,
        help="similarity threshold (or max edits for --filter segment)",
    )
    join.add_argument(
        "--show", type=int, default=10, help="print at most this many pairs"
    )
    _add_profile_arg(join)
    _add_trace_args(join)

    check = commands.add_parser(
        "check", help="validate the integrity of a persisted index"
    )
    check.add_argument(
        "index", help="an index bundle directory"
    )

    lint = commands.add_parser(
        "lint", help="run the repo-specific static analysis rules (RA02-RA13)"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the repro package "
        "plus the tests/ and benchmarks/ trees of a source checkout)",
    )
    lint.add_argument(
        "--select",
        default=None,
        help="comma-separated rule codes to run, e.g. RA02,RA07 (default all)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="findings as human-readable lines, a schema-stable JSON "
        "document, or GitHub Actions ::error annotations",
    )
    lint.add_argument(
        "--explain",
        action="store_true",
        help="print the rule table and exit",
    )

    report = commands.add_parser(
        "report",
        help="regenerate every Chapter 7 table, figure and ablation as markdown",
    )
    report.add_argument("-o", "--output", default="report.md")
    report.add_argument("--scale", type=float, default=0.25)
    report.add_argument(
        "--queries",
        type=int,
        default=0,
        help="queries per search-timing cell (default: 50 x scale, at least 10)",
    )
    report.add_argument(
        "--profile",
        action="store_true",
        help="append an instrumentation section to the report",
    )
    return parser


def _cmd_generate(args) -> int:
    dataset = load_dataset(args.dataset, cardinality=args.cardinality)
    Path(args.output).write_text(
        "\n".join(dataset.strings) + "\n", encoding="utf-8"
    )
    print(
        f"wrote {len(dataset.strings)} records to {args.output} "
        f"(avg length {dataset.statistics['average_length']:.1f})"
    )
    return 0


def _stats_profile(args, document) -> int:
    """``repro stats`` on a persisted ``--profile`` document."""
    if args.check:
        try:
            validate_profile(document)
        except ValueError as error:
            print(f"error: invalid profile document: {error}")
            return 1
        print(f"profile ok: schema {document['schema']}", file=sys.stderr)
    style = "prometheus" if args.format == "auto" else args.format
    try:
        print(render_profile(document, style), end="")
    except ValueError as error:
        print(f"error: --format {error}")
        return 2
    return 0


def _stats_traces(args) -> int:
    """``repro stats`` on a ``--trace`` JSONL dump."""
    style = "tree" if args.format == "auto" else args.format
    try:
        traces = load_traces(args.corpus)
    except ValueError as error:
        print(f"error: {error}")
        return 1
    try:
        print(render_traces(traces, style), end="")
    except ValueError as error:
        print(f"error: --format {error}")
        return 2
    if style == "tree":
        slow = sum(1 for document in traces if document.get("slow"))
        print(f"{len(traces)} trace(s), {slow} slow", file=sys.stderr)
    return 0


def _cmd_stats(args) -> int:
    # dispatch on content: a profile document or a trace dump renders the
    # telemetry; anything else is a corpus (the original size table)
    text = Path(args.corpus).read_text(encoding="utf-8")
    kind, document = sniff_dump(text)
    if kind == "profile":
        return _stats_profile(args, document)
    if kind == "traces":
        return _stats_traces(args)
    if kind == "json":
        print(
            "error: JSON input is neither a profile document (no "
            "'schema' key) nor a JSONL trace dump (no 'trace_id' key)"
        )
        return 2
    if args.format not in ("auto", "table"):
        print(f"error: --format {args.format} requires a profile/trace input")
        return 2
    strings = _read_lines(args.corpus, text)
    collection = tokenize_collection(strings, mode=args.mode, q=args.q)
    profiling = _start_profile(args)
    print(
        f"{len(strings)} records, {collection.num_tokens} distinct signatures"
    )
    print(f"{'scheme':>10} | {'size KB':>9} | {'ratio':>6} | {'build s':>8}")
    print("-" * 42)
    for scheme in args.schemes.split(","):
        scheme = scheme.strip()
        index = InvertedIndex(collection, scheme=scheme)
        print(
            f"{scheme:>10} | {index.size_bits() / 8 / 1024:>9.1f} | "
            f"{index.compression_ratio():>6.2f} | {index.build_seconds:>8.3f}"
        )
    if profiling:
        _emit_profile(args, corpus=args.corpus, schemes=args.schemes)
    return 0


def _cmd_index(args) -> int:
    from .storage import save_index

    if _reject_non_bundle(args.output, must_exist=False):
        return 2
    strings = _read_lines(args.corpus)
    collection = tokenize_collection(strings, mode=args.mode, q=args.q)
    index = InvertedIndex(collection, scheme=args.scheme)
    save_index(index, args.output)
    print(
        f"indexed {len(strings)} records under {args.scheme}: "
        f"{len(index)} lists, {index.size_mb():.3f} MB (paper accounting), "
        f"saved to {args.output}"
    )
    return 0


def _engine_args_problem(args, bundle) -> Optional[str]:
    """Why the engine arguments cannot apply to this source, if they cannot:
    ``--mmap`` maps a saved bundle, not an index built here."""
    if bundle is None and args.mmap:
        return (
            "--mmap applies to bundle directories; persist one first with "
            "`repro index CORPUS OUT` (or SimilarityEngine.save), then "
            "`search --load-index OUT` / `serve OUT`"
        )
    return None


def _engine_from_args(args, lines: Optional[List[str]], bundle):
    """The one place parsed arguments become an engine.

    ``bundle`` (a saved bundle directory) is reopened; otherwise the
    corpus ``lines`` are tokenized and indexed under ``--scheme``.  Edit distance
    always runs on q-grams (``q=2`` unless ``--mode qgram`` chose a width).
    Raises ``ValueError`` for an unopenable bundle or an unsupported
    scheme/algorithm pairing.
    """
    serving = {"algorithm": args.algorithm, "metric": args.metric}
    if bundle is not None:
        return SimilarityEngine.open(bundle, mmap=args.mmap, **serving)
    ed = args.metric == "ed"
    collection = tokenize_collection(
        lines,
        mode="qgram" if ed else args.mode,
        q=2 if ed and args.mode == "word" else args.q,
    )
    return SimilarityEngine(collection, scheme=args.scheme, **serving)


def _cmd_search(args) -> int:
    if (args.query is None) == (args.queries_file is None):
        print("error: provide exactly one of a query or --queries-file")
        return 2
    problem = _engine_args_problem(args, args.load_index)
    if problem:
        print(f"error: {problem}")
        return 2
    if args.metric == "ed":
        threshold = _integral_threshold(args.threshold, "--metric ed")
        if threshold is None:
            return 2
    else:
        threshold = args.threshold
    if args.load_index and _reject_non_bundle(args.load_index):
        return 2
    strings = _read_lines(args.corpus)
    profiling = _start_profile(args)
    tracing = _start_trace(args)
    try:
        # a self-contained bundle carries its own collection
        engine = _engine_from_args(args, strings, args.load_index)
    except ValueError as error:
        print(f"error: {error}")
        return 1
    with engine:
        if args.queries_file is not None:
            queries = _read_lines(args.queries_file)
            start = time.perf_counter()
            results = engine.search_batch(
                queries, threshold, workers=args.workers
            )
            elapsed = time.perf_counter() - start
            total = sum(len(result) for result in results)
            for position, result in enumerate(results):
                preview = " ".join(str(hit) for hit in result[:10])
                suffix = " ..." if len(result) > 10 else ""
                print(f"[{position}] {len(result)} hits: {preview}{suffix}")
            rate = len(results) / elapsed if elapsed > 0 else float("inf")
            print(
                f"{len(results)} queries, {total} total hits in "
                f"{elapsed:.2f} s ({rate:.1f} q/s, workers={args.workers})"
            )
        else:
            result = engine.search(args.query, threshold)
            print(f"{len(result)} hits in {1000 * result.seconds:.2f} ms:")
            for hit in result:
                print(f"  [{hit}] {strings[hit]}")
        cache_stats = engine.cache_stats()
    if tracing:
        _emit_trace(args)
    if profiling:
        _emit_profile(
            args,
            corpus=args.corpus,
            scheme=args.scheme,
            algorithm=args.algorithm,
            metric=args.metric,
            threshold=args.threshold,
            workers=args.workers,
            cache=cache_stats,
        )
    return 0


def _cmd_serve(args) -> int:
    from .serve import ServeApp
    from .serve.server import run as _run_server

    path = Path(args.path)
    if _reject_non_bundle(path, must_exist=False):
        return 2
    bundle = path if path.is_dir() else None
    problem = _engine_args_problem(args, bundle)
    if problem:
        print(f"error: {problem}")
        return 2
    try:
        engine = _engine_from_args(
            args, None if bundle else _read_lines(args.path), bundle
        )
    except ValueError as error:
        print(f"error: {error}")
        return 1
    app = ServeApp(
        engine,
        bundle_path=bundle,
        slow_ms=args.slow_ms,
        max_pending=args.max_pending,
        trace_sample=args.trace_sample if args.trace_sample > 0 else None,
    )
    print(
        f"serving {_describe_served(app)} on http://{args.host}:{args.port} "
        "— ctrl-c stops"
    )
    try:
        _run_server(app, args.host, args.port)
    finally:
        app.close()
        app.engine.close()
    return 0


def _describe_served(app) -> str:
    engine = app.engine
    source = f" from {app.bundle_path}" if app.bundle_path else ""
    return f"{engine.num_records} records ({engine.metric}){source}"


def _cmd_check(args) -> int:
    from .storage import check_path

    if _reject_non_bundle(args.index):
        return 2
    issues = check_path(args.index)
    if issues:
        print(f"{len(issues)} integrity violations:")
        for issue in issues[:50]:
            print(f"  - {issue}")
        return 1
    print(f"ok: {args.index}, no violations")
    return 0


def _cmd_lint(args) -> int:
    from .analysis import format_violations, lint_paths, rule_table

    if args.explain:
        for code, summary in rule_table():
            print(f"{code}  {summary}")
        return 0
    select = args.select.split(",") if args.select else None
    try:
        violations, files_checked = lint_paths(args.paths or None, select)
    except (ValueError, FileNotFoundError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(format_violations(violations, args.format, files_checked, select))
    return 1 if violations else 0


def _cmd_report(args) -> int:
    from .bench.report import generate_report

    markdown = generate_report(
        scale=args.scale, queries=args.queries, profile=args.profile
    )
    Path(args.output).write_text(markdown, encoding="utf-8")
    print(f"wrote {args.output} ({len(markdown.splitlines())} lines)")
    return 0


def _cmd_join(args) -> int:
    strings = _read_lines(args.corpus)
    collection = tokenize_collection(strings, mode=args.mode, q=args.q)
    join = JOIN_FILTERS[args.filter](collection, scheme=args.scheme)
    threshold = args.threshold
    if join.metric == "ed":
        threshold = _integral_threshold(threshold, f"--filter {args.filter}")
        if threshold is None:
            return 2
    profiling = _start_profile(args)
    tracing = _start_trace(args)
    start = time.perf_counter()
    pairs = join.join(threshold)
    elapsed = time.perf_counter() - start
    stats = join.last_stats
    print(
        f"{len(pairs)} pairs in {elapsed:.2f} s — index "
        f"{stats.index_mb:.4f} MB over {stats.num_lists} lists "
        f"({stats.verifications} verifications)"
    )
    for left, right in pairs[: args.show]:
        print(f"  [{left}] {strings[left]}")
        print(f"  [{right}] {strings[right]}")
        print()
    if len(pairs) > args.show:
        print(f"  ... and {len(pairs) - args.show} more")
    if tracing:
        _emit_trace(args)
    if profiling:
        _emit_profile(
            args,
            corpus=args.corpus,
            filter=args.filter,
            scheme=args.scheme,
            threshold=threshold,
        )
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "index": _cmd_index,
    "search": _cmd_search,
    "serve": _cmd_serve,
    "join": _cmd_join,
    "report": _cmd_report,
    "check": _cmd_check,
    "lint": _cmd_lint,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Command-line interface for the STAGG reproduction.

The CLI exposes the library's main entry points without writing any Python:

``python -m repro corpus list``
    List the 77-benchmark corpus (optionally filtered by category).
``python -m repro corpus show <name>``
    Print one benchmark's C source, ground truth and input specification.
``python -m repro corpus stats``
    Print corpus statistics (category counts, rank distribution).
``python -m repro oracle <name>``
    Show the Prompt-1 text and the synthetic oracle's candidate list for a
    benchmark (useful for inspecting / recording oracle behaviour).
``python -m repro lift <name-or-file.c>``
    Lift a corpus benchmark, or an arbitrary C file, to TACO.  ``--method``
    selects any registered lifting method (STAGG, ablations, baselines);
    ``-v`` streams live stage progress.
``python -m repro methods``
    List every registered lifting method (the names ``--method`` accepts).
``python -m repro evaluate``
    Run the evaluation harness over a corpus slice and print the paper's
    tables and figures.  ``--method`` (repeatable) runs an ad-hoc set of
    registry methods instead of the standard tables.
``python -m repro serve``
    Run the lifting service: an HTTP front end over the job scheduler and
    the content-addressed result store.
``python -m repro submit <name-or-file.c>``
    Submit one lift to a running service and (by default) wait for the
    result.
``python -m repro jobs``
    Inspect a service job journal (newest-first listing, per-state
    counts; works on a live journal) and, offline, ``--requeue`` failed
    or interrupted jobs.
``python -m repro trace summarize|tree|slowest <file>``
    Reconstruct the span trees in a ``repro-trace-v1`` JSONL file (from
    ``repro lift --trace``, ``repro serve --trace`` or ``REPRO_TRACE``)
    and print a time breakdown, the indented trees, or the slowest lifts.
``python -m repro bench``
    Run the candidate-throughput microbenchmarks and write a
    ``BENCH_<tag>.json`` trajectory record (``--trajectory`` prints the
    committed history instead).
``python -m repro gate``
    Evaluate the canonical perf-gate registry against a record (human
    table, ``--json``, or ``--markdown``); the exit code is the verdict.

``lift`` and ``evaluate`` accept ``--cache-dir`` to read and write the same
result store the service uses, so repeated lifts and warm-cache corpus
sweeps are answered without re-running synthesis.

The CLI is a thin shell over the public API; every subcommand returns a
process exit status (0 on success) and prints to stdout, so it is easy to
script and to test.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

from .bench.runner import add_bench_arguments
from .core.task import InputSpec, LiftingTask
from .lifting import (
    ExecutionConfig,
    PrintObserver,
    method_name_for,
    method_names,
    method_spec,
    parse_executor_spec,
    resolve_method,
)
from .cfront import parse_function
from .cfront.analysis import analyze_signature, predict_dimensions
from .evaluation import (
    EvaluationRunner,
    figure9,
    figure10,
    figure11,
    figure12,
    format_table,
    grammar_ablation_methods,
    methods_by_name,
    penalty_ablation_methods,
    save_csv,
    save_json,
    standard_methods,
    table1,
    table2,
    table3,
    text_report,
)
from .llm import (
    LiftingQuery,
    OracleConfig,
    RecordedOracle,
    StaticOracle,
    SyntheticOracle,
)
from .suite import corpus_statistics, get_benchmark, select
from .taco import to_c_source, to_numpy_source


# ---------------------------------------------------------------------- #
# Argument parser
# ---------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="STAGG (Guided Tensor Lifting, PLDI 2025) reproduction CLI",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    corpus = subparsers.add_parser("corpus", help="inspect the benchmark corpus")
    corpus_sub = corpus.add_subparsers(dest="corpus_command", required=True)
    corpus_list = corpus_sub.add_parser("list", help="list benchmarks")
    corpus_list.add_argument("--category", action="append", default=None)
    corpus_list.add_argument("--real-world-only", action="store_true")
    corpus_show = corpus_sub.add_parser("show", help="show one benchmark")
    corpus_show.add_argument("name")
    corpus_sub.add_parser("stats", help="corpus statistics")

    oracle = subparsers.add_parser("oracle", help="show oracle prompt and candidates")
    oracle.add_argument("name", help="benchmark name")
    oracle.add_argument("--seed", type=int, default=None, help="oracle RNG seed")
    oracle.add_argument(
        "--candidates", type=int, default=None, help="number of candidates to request"
    )

    lift = subparsers.add_parser("lift", help="lift a benchmark or a C file to TACO")
    lift.add_argument("target", help="benchmark name or path to a .c file")
    lift.add_argument(
        "--method", default=None,
        help="registered lifting method to run (see `repro methods`): any "
        "STAGG configuration, ablation or baseline by name, or a portfolio "
        "racing several — 'Portfolio(STAGG_TD,STAGG_BU)'; overrides "
        "--search/--grammar/--probabilities",
    )
    lift.add_argument(
        "-v", "--verbose", action="store_true",
        help="stream live stage progress (oracle, templatize, dimension, "
        "grammar, search) while the lift runs",
    )
    lift.add_argument(
        "--search", choices=("topdown", "bottomup"), default="topdown",
        help="which A* search to use (default: topdown)",
    )
    lift.add_argument(
        "--grammar", choices=("refined", "full"), default="refined",
        help="grammar mode (the FullGrammar/LLMGrammar ablations use 'full')",
    )
    lift.add_argument(
        "--probabilities", choices=("learned", "equal"), default="learned",
        help="probability mode for the pCFG",
    )
    lift.add_argument("--timeout", type=float, default=60.0, help="time budget (s)")
    lift.add_argument(
        "--reference", default=None,
        help="ground-truth TACO expression (required to lift a raw .c file "
        "with the synthetic oracle)",
    )
    lift.add_argument(
        "--recorded", default=None,
        help="path to a recorded-oracle JSON file to use instead of the "
        "synthetic oracle",
    )
    lift.add_argument(
        "--candidate", action="append", default=None,
        help="explicit candidate TACO expression (repeatable); uses a static "
        "oracle instead of the synthetic one",
    )
    lift.add_argument(
        "--spec", default=None,
        help="path to a JSON input specification for a raw .c file "
        '(e.g. {"sizes": {"N": 8}, "arrays": {"out": ["N"], "in": ["N"]}})',
    )
    lift.add_argument(
        "--emit", choices=("taco", "numpy", "c"), default="taco",
        help="what to print for the lifted program (default: taco)",
    )
    lift.add_argument("--seed", type=int, default=7, help="I/O-example seed")
    lift.add_argument(
        "--cache-dir", default=None,
        help="content-addressed result store to consult and update (same "
        "layout as the service's); repeated identical lifts are answered "
        "from the store without re-running synthesis",
    )
    lift.add_argument(
        "--trace", default=None, metavar="FILE",
        help="append a repro-trace-v1 span tree of this lift (stages, "
        "search heartbeats, validator stats, portfolio races) to FILE as "
        "JSONL; inspect with `repro trace`",
    )
    lift.add_argument(
        "--seed-from-store", action="store_true",
        help="on a store miss, try similar already-solved kernels from the "
        "--cache-dir retrieval index as tier-0 candidates before any "
        "search (requires --cache-dir; build the index with "
        "`repro index build`)",
    )
    lift.add_argument(
        "--executor", default=None, metavar="BACKEND[:N]",
        help="execution backend for methods that run parallel work: "
        "'threads' (default) or 'processes', optionally with a worker "
        "count ('processes:4').  Process-backed portfolios race one core "
        "per member; the backend never changes outcomes or store digests",
    )

    methods = subparsers.add_parser(
        "methods", help="list the registered lifting methods (for --method)"
    )
    methods.add_argument(
        "--json", action="store_true",
        help="emit the registry as a JSON array of {name, kind, label, "
        "supports_processes} objects instead of the human table",
    )

    evaluate = subparsers.add_parser("evaluate", help="run the evaluation harness")
    evaluate.add_argument(
        "--methods", choices=("standard", "penalties", "grammars"),
        default="standard",
        help="which method set to run (Table 1 / Table 2 / Table 3)",
    )
    evaluate.add_argument(
        "--method", action="append", default=None,
        help="registered method name to run (repeatable; see `repro "
        "methods`); overrides --methods with an ad-hoc set",
    )
    evaluate.add_argument("--category", action="append", default=None)
    evaluate.add_argument("--limit", type=int, default=None, help="first N benchmarks")
    evaluate.add_argument("--stride", type=int, default=1, help="every k-th benchmark")
    evaluate.add_argument("--real-world-only", action="store_true")
    evaluate.add_argument("--timeout", type=float, default=10.0, help="per-query budget (s)")
    evaluate.add_argument(
        "--table", type=int, choices=(1, 2, 3), default=None,
        help="print one of the paper's tables",
    )
    evaluate.add_argument(
        "--figure", type=int, choices=(9, 10, 11, 12), default=None,
        help="print one of the paper's figures as a data series",
    )
    evaluate.add_argument("--output", default=None, help="directory for CSV/JSON records")
    evaluate.add_argument("--seed", type=int, default=2025, help="oracle seed")
    evaluate.add_argument(
        "--executor", default=None, metavar="BACKEND[:N]",
        help="execution backend for the sweep and for method-internal "
        "parallelism: 'threads' or 'processes', optionally with a worker "
        "count ('processes:4', clamped to the core count; omit for a "
        "sequential sweep)",
    )
    evaluate.add_argument(
        "--cache-dir", default=None,
        help="content-addressed result store for the sweep: cells already "
        "stored replay their recorded reports (warm sweeps are near-"
        "instant and byte-identical to the cold run); cold cells are "
        "persisted for next time.  Never benchmark against a warm cache "
        "without saying so.",
    )
    evaluate.add_argument(
        "--seed-from-store", action="store_true",
        help="arm similarity seeding for cold cells: neighbors from the "
        "--cache-dir retrieval index are tried as tier-0 candidates "
        "before searching (requires --cache-dir)",
    )

    serve = subparsers.add_parser(
        "serve", help="run the lifting service (HTTP front end)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8642,
        help="TCP port (0 picks a free port; default: 8642)",
    )
    serve.add_argument(
        "--cache-dir", default=None,
        help="persistent result store root (omit for an in-memory-only "
        "service that re-runs every unique request)",
    )
    serve.add_argument(
        "--executor", default=None, metavar="BACKEND[:N]",
        help="N scheduler worker threads plus the execution backend every "
        "method runs its parallel work on: 'threads' or 'processes' "
        "('processes:4' races portfolio members across cores).  Default: "
        "2 threads",
    )
    serve.add_argument(
        "--timeout", type=float, default=60.0,
        help="default per-job time budget (s) for requests without one",
    )
    serve.add_argument(
        "--journal", default=None,
        help="crash-safe SQLite job journal on a local filesystem: a "
        "database path, or a directory (which gets jobs.journal.sqlite3).  "
        "Queued and running jobs survive restarts and kill -9; orphaned "
        "work is re-enqueued with bounded retries on the next start.  One "
        "live server per journal: a second one exits 1",
    )
    serve.add_argument(
        "--max-queue-depth", type=int, default=None,
        help="admission-control threshold: submissions that would push the "
        "backlog past this depth get HTTP 429 with a Retry-After derived "
        "from the measured drain rate (omit for unbounded admission)",
    )
    serve.add_argument(
        "--max-attempts", type=int, default=None,
        help="runs a job may consume before a transient failure or crash "
        "interruption becomes terminal (default: 3)",
    )
    serve.add_argument(
        "--store-max-entries", type=int, default=None,
        help="LRU cap on the result store: evict the oldest entries once "
        "the store holds more than this many results",
    )
    serve.add_argument(
        "--store-max-bytes", type=int, default=None,
        help="LRU cap on the result store's total payload bytes",
    )
    serve.add_argument(
        "--trace", default=None, metavar="FILE",
        help="append repro-trace-v1 job lifecycle spans and per-lift span "
        "trees to FILE as JSONL (equivalent to setting REPRO_TRACE=FILE); "
        "inspect with `repro trace`",
    )
    serve.add_argument(
        "--seed-from-store", action="store_true",
        help="arm similarity seeding: store-missed jobs first try similar "
        "already-solved kernels from the store's retrieval index as "
        "tier-0 candidates (requires --cache-dir; probe and seed-hit "
        "counters appear under repro_retrieval_* in GET /metrics)",
    )

    index = subparsers.add_parser(
        "index",
        help="build or inspect the retrieval index over a result store",
    )
    index_sub = index.add_subparsers(dest="index_command", required=True)
    index_build = index_sub.add_parser(
        "build",
        help="(re)build the similarity index deterministically from the "
        "store's objects; once present it is maintained incrementally on "
        "every store write and eviction",
    )
    index_build.add_argument(
        "--cache-dir", required=True,
        help="result store root (the directory `--cache-dir` points at "
        "elsewhere); the index lives beside the objects under "
        "v1/index/",
    )
    index_stats = index_sub.add_parser(
        "stats", help="summarize the index (rows, solved rows, coverage)"
    )
    index_stats.add_argument(
        "--cache-dir", required=True, help="result store root"
    )

    trace = subparsers.add_parser(
        "trace", help="inspect a repro-trace-v1 JSONL trace file"
    )
    trace.add_argument(
        "action", choices=("summarize", "tree", "slowest"),
        help="summarize: per-span-name time breakdown; tree: indented span "
        "trees with events; slowest: root spans ranked by duration",
    )
    trace.add_argument("file", help="trace JSONL file (from --trace / REPRO_TRACE)")
    trace.add_argument(
        "--limit", type=int, default=10,
        help="how many root spans `slowest` lists (default: 10)",
    )

    jobs = subparsers.add_parser(
        "jobs", help="inspect or repair a service job journal"
    )
    jobs.add_argument(
        "--journal", required=True,
        help="journal database path, or a directory containing "
        "jobs.journal.sqlite3 (the same value `repro serve --journal` got)",
    )
    jobs.add_argument(
        "--state", default=None,
        choices=("queued", "running", "succeeded", "failed", "cancelled",
                 "interrupted"),
        help="only list jobs in this state",
    )
    jobs.add_argument(
        "--limit", type=int, default=50,
        help="newest-first listing size (default: 50)",
    )
    jobs.add_argument(
        "--requeue", action="append", default=None, metavar="JOB_ID",
        help="re-enqueue a failed/cancelled/interrupted job with a fresh "
        "attempt budget (repeatable) for the next `repro serve` start to "
        "run.  An offline repair: refused while a server holds the "
        "journal; on a live service, resubmit the request instead",
    )

    submit = subparsers.add_parser(
        "submit", help="submit one lift to a running service over HTTP"
    )
    submit.add_argument("target", help="benchmark name or path to a .c file")
    submit.add_argument(
        "--url", default="http://127.0.0.1:8642",
        help="base URL of the service (default: http://127.0.0.1:8642)",
    )
    submit.add_argument(
        "--reference", default=None,
        help="ground-truth TACO expression (required for raw .c files "
        "unless --candidate is given)",
    )
    submit.add_argument(
        "--candidate", action="append", default=None,
        help="explicit candidate TACO expression (repeatable)",
    )
    submit.add_argument(
        "--spec", default=None,
        help="path to a JSON input specification for a raw .c file",
    )
    submit.add_argument(
        "--method", default=None,
        help="registered lifting method name (incl. baselines and "
        "'Portfolio(...)' specs); overrides --search",
    )
    submit.add_argument(
        "--search", choices=("topdown", "bottomup"), default="topdown"
    )
    submit.add_argument(
        "--timeout", type=float, default=None,
        help="time budget (s); omit to use the service's default",
    )
    submit.add_argument(
        "--priority", type=int, default=0,
        help="job priority (lower runs first; default: 0)",
    )
    submit.add_argument(
        "--no-wait", action="store_true",
        help="print the job id and return instead of waiting for the result",
    )
    submit.add_argument(
        "--wait", type=float, default=120.0,
        help="seconds to wait for the result (with the default blocking mode)",
    )

    bench = subparsers.add_parser(
        "bench",
        help="run the perf microbenchmarks and write a BENCH_<tag>.json record",
    )
    add_bench_arguments(bench)

    gate = subparsers.add_parser(
        "gate",
        help="evaluate the perf-gate registry against a BENCH record "
        "(exit code = verdict)",
    )
    gate.add_argument(
        "--record", required=True,
        help="record to gate: a path to a BENCH JSON file, or a bare tag "
        "resolved as BENCH_<tag>.json at the repo root",
    )
    gate.add_argument(
        "--baseline", default=None,
        help="committed trajectory tag to compare against (adds noise-aware "
        "regression checks over the throughput metrics)",
    )
    gate.add_argument(
        "--tolerance", type=float, default=None,
        help="allowed relative drop (percent) before a baseline comparison "
        "counts as a regression (default: repro.bench.DEFAULT_TOLERANCE_PCT)",
    )
    gate.add_argument(
        "--json", action="store_true",
        help="print the verdict as JSON instead of the human table",
    )
    gate.add_argument(
        "--markdown", action="store_true",
        help="print the verdict as GitHub-flavoured Markdown (for CI step "
        "summaries) instead of the human table",
    )
    gate.add_argument(
        "--strict", action="store_true",
        help="treat skipped gates (missing record sections) as failures",
    )
    gate.add_argument(
        "--root", default=None,
        help="directory holding BENCH_*.json records (default: the repo root)",
    )

    return parser


# ---------------------------------------------------------------------- #
# Subcommand implementations
# ---------------------------------------------------------------------- #
def _cmd_corpus(args: argparse.Namespace) -> int:
    if args.corpus_command == "list":
        benchmarks = select(
            categories=args.category, real_world_only=args.real_world_only
        )
        for benchmark in benchmarks:
            print(
                f"{benchmark.name:35s} rank<={benchmark.max_rank()} "
                f"operands={benchmark.num_operands()}  {benchmark.ground_truth}"
            )
        print(f"({len(benchmarks)} benchmarks)")
        return 0
    if args.corpus_command == "show":
        try:
            benchmark = get_benchmark(args.name)
        except KeyError as error:
            print(error.args[0], file=sys.stderr)
            return 1
        print(f"# {benchmark.name}  [{benchmark.category}]")
        if benchmark.description:
            print(f"# {benchmark.description}")
        print(f"# ground truth: {benchmark.ground_truth}")
        print(f"# input spec: sizes={dict(benchmark.spec.sizes)} "
              f"arrays={ {k: list(v) for k, v in benchmark.spec.arrays.items()} }")
        print(benchmark.c_source.strip())
        return 0
    # stats
    statistics = corpus_statistics()
    print(f"total benchmarks : {statistics['total']}")
    print(f"real-world       : {statistics['real_world']}")
    print(f"artificial       : {statistics['artificial']}")
    print(f"max tensor rank  : {statistics['max_rank']}")
    print("by category:")
    for category, count in sorted(statistics["by_category"].items()):
        print(f"  {category:12s} {count}")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    try:
        benchmark = get_benchmark(args.name)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 1
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.candidates is not None:
        overrides["num_candidates"] = args.candidates
    oracle = SyntheticOracle(OracleConfig(**overrides))
    task = benchmark.task()
    query = LiftingQuery(
        c_source=task.c_source, name=task.name, reference_solution=task.reference_solution
    )
    print("--- Prompt (Prompt 1 of the paper) ---")
    print(oracle.prompt_for(query))
    response = oracle.propose(query)
    print("--- Raw response ---")
    print(response.raw_text)
    print("--- Parsed candidates ---")
    for candidate in response.candidates:
        print(f"  {candidate}")
    print(f"({response.num_valid} valid, {response.num_rejected} rejected)")
    return 0


def infer_input_spec(c_source: str, function_name: Optional[str] = None) -> InputSpec:
    """Best-effort input specification for an arbitrary C kernel.

    Array ranks come from the same static analysis STAGG uses for dimension
    prediction; every size parameter defaults to 8, every array is given a
    hyper-cubic shape of its predicted rank, and scalars get a small default
    range.  This is what ``repro lift some_file.c`` uses when no ``--spec``
    file is provided.
    """
    function = parse_function(c_source, function_name)
    signature = analyze_signature(function)
    prediction = predict_dimensions(function)
    sizes: Dict[str, int] = {}
    arrays: Dict[str, tuple] = {}
    scalars: Dict[str, tuple] = {}
    size_names = [a.name for a in signature.arguments if a.kind.name == "SIZE"]
    default_extent = size_names[0] if size_names else 8
    for name in size_names:
        sizes[name] = 8
    for argument in signature.arguments:
        if argument.kind.name == "SIZE":
            continue
        if argument.is_pointer:
            rank = max(1, prediction.rank(argument.name))
            arrays[argument.name] = tuple([default_extent] * rank)
        else:
            scalars[argument.name] = (1, 5)
    return InputSpec(sizes=sizes, arrays=arrays, scalars=scalars)


def _load_spec(path: str) -> InputSpec:
    """Load an :class:`InputSpec` from a JSON file."""
    data = json.loads(Path(path).read_text())
    return InputSpec(
        sizes=dict(data.get("sizes", {})),
        arrays={name: tuple(shape) for name, shape in data.get("arrays", {}).items()},
        scalars={name: tuple(bounds) for name, bounds in data.get("scalars", {}).items()},
        avoid_zero=bool(data.get("avoid_zero", False)),
    )


def _task_for_target(args: argparse.Namespace) -> LiftingTask:
    """Resolve the ``lift`` target: corpus benchmark name or path to a C file."""
    path = Path(args.target)
    if path.suffix == ".c" or path.exists():
        c_source = path.read_text()
        spec = _load_spec(args.spec) if args.spec else infer_input_spec(c_source)
        return LiftingTask(
            name=path.stem,
            c_source=c_source,
            spec=spec,
            reference_solution=args.reference,
            category="user",
        )
    benchmark = get_benchmark(args.target)
    task = benchmark.task()
    if args.reference:
        task = task.with_reference(args.reference)
    return task


def _oracle_for_lift(args: argparse.Namespace, task: LiftingTask):
    """Choose the oracle implied by the ``lift`` arguments."""
    if args.candidate:
        return StaticOracle(args.candidate)
    if args.recorded:
        return RecordedOracle(args.recorded)
    if task.reference_solution is None:
        raise SystemExit(
            "lifting a raw C file with the synthetic oracle requires --reference "
            "(or provide candidates via --candidate / --recorded)"
        )
    return SyntheticOracle(OracleConfig())


def _parse_executor(args: argparse.Namespace) -> Tuple[Optional[ExecutionConfig], Optional[str]]:
    """Parse ``--executor BACKEND[:N]`` into an :class:`ExecutionConfig`.

    Returns ``(config, None)`` on success (``config`` is ``None`` when the
    flag was not given) or ``(None, message)`` when the spec is malformed —
    callers print the message and exit 2, the argparse convention.
    """
    spec = getattr(args, "executor", None)
    if not spec:
        return None, None
    try:
        return parse_executor_spec(spec), None
    except ValueError as error:
        return None, str(error)


def _method_label(name: str) -> str:
    """The report label a method writes (usually its registry name).

    Labels come from the built lifter's config, so resolution failures
    (e.g. a factory that needs a richer context) degrade to the name
    rather than failing a listing command.
    """
    try:
        lifter = resolve_method(name)
    except Exception:  # noqa: BLE001 - listing must not die on one method
        return name
    config = getattr(lifter, "config", None)
    label = getattr(config, "label", None) or getattr(lifter, "label", None)
    return label or name


def _cmd_methods(args: argparse.Namespace) -> int:
    names = method_names()
    if args.json:
        entries = [
            {
                "name": name,
                "kind": method_spec(name).kind,
                "label": _method_label(name),
                "supports_processes": method_spec(name).supports_processes,
            }
            for name in names
        ]
        print(json.dumps(entries, indent=2))
        return 0
    for name in names:
        spec = method_spec(name)
        print(f"{name:30s} [{spec.kind:9s}] {spec.description}")
    print(f"({len(names)} registered methods)")
    print(
        "ad-hoc portfolios: --method 'Portfolio(<member>,<member>,...)' races "
        "any registered methods (first verified win)"
    )
    return 0


def _cmd_lift(args: argparse.Namespace) -> int:
    try:
        task = _task_for_target(args)
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 1
    oracle = _oracle_for_lift(args, task)
    name = args.method or method_name_for(
        args.search, args.grammar, args.probabilities
    )
    execution, executor_error = _parse_executor(args)
    if executor_error:
        print(executor_error, file=sys.stderr)
        return 2
    try:
        synthesizer = resolve_method(
            name,
            oracle=oracle,
            timeout_seconds=args.timeout,
            seed=args.seed,
            execution=execution,
        )
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 1
    observer = PrintObserver() if args.verbose else None
    tracer = None
    if args.trace:
        from .lifting import CompositeObserver
        from .obs import TraceWriter, TracingObserver

        tracer = TracingObserver(TraceWriter(args.trace), task=task.name)
        observer = CompositeObserver(observer, tracer)
    if args.seed_from_store:
        if not args.cache_dir:
            print("--seed-from-store requires --cache-dir", file=sys.stderr)
            return 2
        from .retrieval import seeded_lifter

        synthesizer = seeded_lifter(synthesizer, args.cache_dir)
    cached = False
    report = None
    try:
        if args.cache_dir:
            from .service import CachedLifter

            lifter = CachedLifter(synthesizer, args.cache_dir)
            report = lifter.lift(task, observer=observer)
            cached = lifter.store.hits > 0
        else:
            report = synthesizer.lift(task, observer=observer)
    finally:
        if tracer is not None:
            success = report is not None and report.success
            tracer.close(success=success, method=name, cached=cached)
            print(f"trace appended to {args.trace}", file=sys.stderr)
    print(report.summary() + (" [served from cache]" if cached else ""))
    retrieval = report.details.get("retrieval")
    if isinstance(retrieval, dict) and retrieval.get("armed"):
        if retrieval.get("hit"):
            print(
                f"seeded: tier-0 hit from {retrieval.get('seed_task')} "
                f"(search skipped)"
            )
        else:
            print(
                f"seeded: {retrieval.get('neighbors', 0)} neighbor(s) "
                f"tried, no tier-0 hit"
            )
    if not report.success:
        if report.error:
            print(f"error: {report.error}", file=sys.stderr)
        return 2
    program = report.lifted_program
    if args.emit == "numpy":
        print(to_numpy_source(program))
    elif args.emit == "c":
        print(to_c_source(program))
    else:
        print(str(program))
    return 0


def _method_factory(name: str):
    return {
        "standard": standard_methods,
        "penalties": penalty_ablation_methods,
        "grammars": grammar_ablation_methods,
    }[name]


def _cmd_evaluate(args: argparse.Namespace) -> int:
    benchmarks = select(
        categories=args.category,
        real_world_only=args.real_world_only,
        limit=args.limit,
    )
    if args.stride > 1:
        benchmarks = benchmarks[:: args.stride]
    if not benchmarks:
        print("no benchmarks selected", file=sys.stderr)
        return 1
    execution, executor_error = _parse_executor(args)
    if executor_error:
        print(executor_error, file=sys.stderr)
        return 2
    oracle = SyntheticOracle(OracleConfig(seed=args.seed))
    try:
        if args.method:
            methods = methods_by_name(
                args.method,
                oracle=oracle,
                timeout_seconds=args.timeout,
                execution=execution,
            )
        else:
            methods = _method_factory(args.methods)(
                oracle=oracle, timeout_seconds=args.timeout, execution=execution
            )
    except KeyError as error:
        print(error.args[0], file=sys.stderr)
        return 2
    print(
        f"running {len(methods)} methods over {len(benchmarks)} benchmarks "
        f"(timeout {args.timeout:.0f}s per query)"
    )
    if args.seed_from_store and not args.cache_dir:
        print("--seed-from-store requires --cache-dir", file=sys.stderr)
        return 2
    runner = EvaluationRunner(
        methods,
        benchmarks,
        progress=lambda method, name, report: print(f"  {report.summary()}"),
        execution=execution,
        cache_dir=args.cache_dir,
        seed_from_store=args.seed_from_store,
    )
    result = runner.run()
    if args.cache_dir:
        from .service import ResultStore

        print(
            f"result store: {len(ResultStore(args.cache_dir))} entries "
            f"under {args.cache_dir} (warm-cache records replay recorded "
            f"timings — do not quote them as fresh measurements)"
        )

    if args.table == 1:
        print(format_table(table1(result), "Table 1 (reproduced)"))
    elif args.table == 2:
        print(format_table(table2(result), "Table 2 (reproduced)"))
    elif args.table == 3:
        print(format_table(table3(result), "Table 3 (reproduced)"))
    if args.figure in (9, 12):
        series = figure9(result) if args.figure == 9 else figure12(result)
        print(f"Figure {args.figure} (cactus series; k-th entry = time to solve k):")
        for method, times in series.items():
            rendered = ", ".join(f"{t:.2f}" for t in times)
            print(f"  {method:28s} [{rendered}]")
    if args.figure in (10, 11):
        rates = figure10(result) if args.figure == 10 else figure11(result)
        print(f"Figure {args.figure} (success rates):")
        for method, rate in sorted(rates.items(), key=lambda item: -item[1]):
            print(f"  {method:28s} {rate:5.1f}%")
    if args.table is None and args.figure is None:
        print(text_report(result))
    if args.output:
        output = Path(args.output)
        output.mkdir(parents=True, exist_ok=True)
        save_csv(result, output / "records.csv")
        save_json(result, output / "records.json")
        print(f"records written to {output}")
    return 0


def _cmd_index(args: argparse.Namespace) -> int:
    from .retrieval import RetrievalIndex
    from .service import ResultStore

    index = RetrievalIndex(args.cache_dir)
    if args.index_command == "build":
        store = ResultStore(args.cache_dir)
        rows = index.rebuild(store)
        solved = sum(1 for row in rows.values() if row.get("solved"))
        print(
            f"index built: {len(rows)} entries ({solved} solved) "
            f"at {index.path}"
        )
        return 0
    # stats
    stats = index.stats()
    for key in ("path", "armed", "entries", "solved", "with_source"):
        print(f"{key:12s} {stats[key]}")
    return 0


# ---------------------------------------------------------------------- #
# serve / submit: the lifting service
# ---------------------------------------------------------------------- #
def _warm_path_error(kind: str, value: str) -> Optional[str]:
    """The serve-side half of the cold-path rule.

    The bench harness refuses to write BENCH records into a store/journal
    tree; symmetrically, the service refuses to put its warm state (result
    store, job journal) in a directory that holds committed BENCH_*.json
    baselines — store eviction unlinking a perf baseline, or a bench run
    quietly reading a warm cache, must be impossible by construction.
    """
    target = Path(value)
    directory = target if not target.suffix else target.parent
    if directory.is_dir() and any(directory.glob("BENCH_*.json")):
        return (
            f"refusing {kind} {value!r}: {directory} holds BENCH_*.json "
            f"perf baselines, and serving-tier state (stores, journals) "
            f"must not share a directory with cold-path bench records.  "
            f"Pick a dedicated data directory."
        )
    return None


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .service import (
        DEFAULT_MAX_ATTEMPTS,
        JournalBusy,
        LiftingService,
        make_server,
    )

    execution, executor_error = _parse_executor(args)
    if executor_error:
        print(executor_error, file=sys.stderr)
        return 2
    if args.max_queue_depth is not None and args.max_queue_depth < 1:
        print(
            f"--max-queue-depth must be a positive integer "
            f"(got {args.max_queue_depth})",
            file=sys.stderr,
        )
        return 2
    for kind, value in (("--cache-dir", args.cache_dir), ("--journal", args.journal)):
        error = _warm_path_error(kind, value) if value else None
        if error:
            print(error, file=sys.stderr)
            return 2
    if args.seed_from_store and not args.cache_dir:
        print("--seed-from-store requires --cache-dir", file=sys.stderr)
        return 2
    if args.trace:
        from .obs import trace as obs_trace

        obs_trace.configure(args.trace)
    try:
        service = LiftingService(
            cache_dir=args.cache_dir,
            execution=execution,
            default_timeout=args.timeout,
            journal=args.journal,
            max_queue_depth=args.max_queue_depth,
            max_attempts=(
                args.max_attempts
                if args.max_attempts is not None
                else DEFAULT_MAX_ATTEMPTS
            ),
            store_max_entries=args.store_max_entries,
            store_max_bytes=args.store_max_bytes,
            seed_from_store=args.seed_from_store,
        )
    except JournalBusy as error:
        print(error, file=sys.stderr)
        return 1
    server = make_server(args.host, args.port, service)
    host, port = server.server_address[:2]
    recovered = service.scheduler.stats().get("recovered", 0)
    print(
        f"lifting service listening on http://{host}:{port} "
        f"(workers={service.scheduler.worker_count}, "
        f"cache={args.cache_dir or 'disabled'}, "
        f"journal={args.journal or 'disabled'}, recovered={recovered})",
        flush=True,
    )

    # Graceful shutdown: the first SIGINT/SIGTERM stops accepting requests
    # and lets in-flight work drain (or stay journaled).  server.shutdown()
    # must not run on the serve_forever thread, hence the helper thread.
    stop_requested = threading.Event()

    def _request_stop(signum: int, _frame: object) -> None:
        if stop_requested.is_set():
            return
        stop_requested.set()
        print(
            f"received {signal.Signals(signum).name}; draining and shutting down",
            file=sys.stderr,
            flush=True,
        )
        threading.Thread(
            target=server.shutdown, name="serve-shutdown", daemon=True
        ).start()

    previous_handlers = {
        signum: signal.signal(signum, _request_stop)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - raced with the handler
        pass
    finally:
        for signum, handler in previous_handlers.items():
            signal.signal(signum, handler)
        server.server_close()
        # Counters are read before close() tears the journal down; close()
        # itself flushes the persistent ones into the journal's meta table.
        stats = service.stats()
        service.close()
        scheduler_stats = stats["scheduler"]
        print(
            f"shut down cleanly: submitted={stats['submitted']} "
            f"succeeded={scheduler_stats['succeeded']} "
            f"failed={scheduler_stats['failed']} "
            f"rejected={stats['rejected']} "
            f"queued-for-next-start={stats['queue_depth']}",
            file=sys.stderr,
        )
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    from .service import JobJournal, resolve_journal_path

    path = resolve_journal_path(args.journal)
    if not path.exists():
        print(f"no job journal at {path}", file=sys.stderr)
        return 1
    # Listing takes no lease, so it works on a live server's journal.
    journal = JobJournal(path)
    try:
        status = _requeue_jobs(journal, args.requeue) if args.requeue else 0
        rows = journal.rows(state=args.state, limit=args.limit)
        for row in rows:
            error = f"  {row.error}" if row.error else ""
            print(
                f"{row.id:30s} {row.state:11s} attempts={row.attempts}/"
                f"{row.max_attempts} submissions={row.submissions} "
                f"digest={row.digest[:12]}{error}"
            )
        counts = journal.counts()
        rendered = ", ".join(
            f"{state}={count}" for state, count in sorted(counts.items())
        )
        print(f"({len(rows)} shown; {rendered or 'empty journal'})")
        return status
    finally:
        journal.close()


def _requeue_jobs(journal, job_ids: Sequence[str]) -> int:
    """``repro jobs --requeue``: an offline repair, done under the lease a
    live server would hold (so it is refused while one runs)."""
    from .service import JournalBusy

    try:
        lease = journal.lease()
    except JournalBusy as error:
        print(f"requeue refused: {error}", file=sys.stderr)
        return 1
    try:
        status = 0
        for job_id in job_ids:
            row = journal.row(job_id)
            if row is None:
                print(f"requeue {job_id}: no such job", file=sys.stderr)
                status = 1
            elif journal.requeue_terminal(job_id):
                print(f"requeued {job_id} (was {row.state})")
            else:
                print(
                    f"requeue {job_id}: state is {row.state!r} "
                    f"(only failed/cancelled/interrupted jobs can be requeued)",
                    file=sys.stderr,
                )
                status = 1
        return status
    finally:
        lease.release()


def _http_json(url: str, payload: Optional[dict] = None) -> Tuple[int, dict]:
    """One JSON request to the service; returns (status, decoded body)."""
    import urllib.error
    import urllib.request

    data = json.dumps(payload).encode("utf-8") if payload is not None else None
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as error:
        try:
            body = json.loads(error.read().decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            body = {"error": str(error)}
        return error.code, body


def _submit_payload(args: argparse.Namespace) -> dict:
    """Build the /submit payload implied by the CLI arguments."""
    payload: dict = {"search": args.search, "priority": args.priority}
    if args.method:
        payload["method"] = args.method
    if args.timeout is not None:
        payload["timeout"] = args.timeout
    path = Path(args.target)
    if path.suffix == ".c" or path.exists():
        payload["c_source"] = path.read_text()
        payload["name"] = path.stem
        if args.spec:
            payload["spec"] = json.loads(Path(args.spec).read_text())
    else:
        payload["benchmark"] = args.target
    if args.reference:
        payload["reference"] = args.reference
    if args.candidate:
        payload["candidates"] = list(args.candidate)
    return payload


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import TraceSchemaError, load_trace
    from .obs.report import build_forest, render_slowest, render_summary, render_tree

    try:
        records = load_trace(args.file)
    except FileNotFoundError:
        print(f"no trace file at {args.file}", file=sys.stderr)
        return 1
    except TraceSchemaError as error:
        print(str(error), file=sys.stderr)
        return 2
    traces = build_forest(records)
    if not traces:
        print(f"{args.file}: no spans", file=sys.stderr)
        return 1
    if args.action == "tree":
        print(render_tree(traces))
    elif args.action == "slowest":
        print(render_slowest(traces, limit=args.limit))
    else:
        print(render_summary(traces))
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import urllib.error

    from .core.result import SynthesisReport

    base = args.url.rstrip("/")
    try:
        payload = _submit_payload(args)
    except OSError as error:
        print(f"cannot read submission inputs: {error}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as error:
        print(f"invalid JSON in --spec file: {error}", file=sys.stderr)
        return 1
    try:
        status, body = _http_json(f"{base}/submit", payload)
    except (urllib.error.URLError, OSError) as error:
        print(
            f"cannot reach the lifting service at {base}: {error} "
            f"(is `repro serve` running?)",
            file=sys.stderr,
        )
        return 1
    if status >= 400:
        print(f"submit rejected: {body.get('error', body)}", file=sys.stderr)
        return 1
    job_id = body["job_id"]
    print(f"submitted {args.target} as {job_id} (state: {body['state']})")
    if args.no_wait:
        return 0
    try:
        status, body = _http_json(f"{base}/result/{job_id}?wait={args.wait:g}")
    except (urllib.error.URLError, OSError) as error:
        print(
            f"lost contact with the lifting service at {base} while waiting "
            f"for {job_id}: {error}",
            file=sys.stderr,
        )
        return 1
    if status >= 400:
        print(
            f"no result after {args.wait:g}s: {body.get('error', body)}",
            file=sys.stderr,
        )
        return 1
    report_data = body.get("report")
    if report_data:
        # A job can succeed yet carry a warning (e.g. the server's store
        # write failed) — surface it, but the lift result stands.
        if body.get("error"):
            print(f"warning: {body['error']}", file=sys.stderr)
        report = SynthesisReport.from_json_dict(report_data)
        print(
            report.summary() + (" [served from cache]" if body.get("cached") else "")
        )
        return 0 if report.success else 2
    if body.get("error"):
        print(f"job failed: {body['error']}", file=sys.stderr)
        return 2
    print(f"job {job_id} finished without a report", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------- #
# bench / gate: the benchmark & regression engine
# ---------------------------------------------------------------------- #
def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench.runner import run_from_args

    return run_from_args(args)


def _cmd_gate(args: argparse.Namespace) -> int:
    from .bench import (
        BenchRecord,
        BenchSchemaError,
        evaluate_gates,
        find_record,
        render_json,
        render_markdown,
        render_table,
    )
    from .bench.runner import REPO_ROOT

    root = Path(args.root) if args.root else REPO_ROOT
    path = Path(args.record)
    try:
        if path.suffix == ".json" or path.exists():
            record = BenchRecord.from_path(path)
        else:
            record = find_record(root, args.record)
        baseline = find_record(root, args.baseline) if args.baseline else None
    except (FileNotFoundError, BenchSchemaError) as error:
        print(str(error), file=sys.stderr)
        return 2
    try:
        report = evaluate_gates(
            record, baseline=baseline, tolerance_pct=args.tolerance
        )
    except ValueError as error:  # e.g. quick-vs-full scope mismatch
        print(str(error), file=sys.stderr)
        return 2
    if args.json:
        print(render_json(report, strict=args.strict))
    elif args.markdown:
        print(render_markdown(report, strict=args.strict))
    else:
        print(render_table(report, strict=args.strict))
    return report.exit_code(strict=args.strict)


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #
_COMMANDS = {
    "corpus": _cmd_corpus,
    "oracle": _cmd_oracle,
    "methods": _cmd_methods,
    "lift": _cmd_lift,
    "evaluate": _cmd_evaluate,
    "serve": _cmd_serve,
    "index": _cmd_index,
    "trace": _cmd_trace,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "bench": _cmd_bench,
    "gate": _cmd_gate,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())

"""Time-to-verified-lift benchmark for the STAGG reproduction.

Run from the repository root:

    python3 liftbench/run.py --workload corpus-sweep --seed 1 --seconds 25 --trace 0

``workloads.py`` defines the four workloads; ``--seed`` fixes the order in
which each pass issues its operations.  A run repeats the workload's fixed
operation set ``max(1, seconds // nominal_pass_s)`` times, so both sides of
a comparison measure the same work.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics that ``BENCHMARK.json`` lists:

* ``setup_s``: importing the lifting stack (median over fresh
  interpreters) plus the median preparation of tasks and lifters, or of
  service, store and journal;
* ``wall_s``: the wall-clock of one pass, the best of the run's passes;
* ``p50_ms`` and ``tail_ms``: over the workload's operations, each taken at
  its best over the passes.  An operation is a lift, or on ``serve`` a
  request, where the median is a store replay and the tail a cold request.
  The tail is the highest of p99.9, p99, p95, p90, p75 and p50 with ten
  operations beyond it, else the slowest operation;
* ``solved``: lifts or requests per pass whose program passed the check;
* ``peak_rss_mb``: the benchmark process's peak resident set.

The lines before it print the per-workload names (``lift_p50_ms``,
``axpy_cpu_s``, ``cold_req_p50_ms``, ``fail_share``, ...) with units and
sample counts, and the full record with provenance goes to
``.bench_build/liftbench/``, with the times of a fixed machine-speed probe
taken around every pass.  With ``--trace 1`` the run alternates
untraced and traced passes, half as many of each, and reports the
per-layer split of ``layers.py``; the spans go to the same directory.

Outside the timed region every solved program is re-verified against the C
interpreter with the stronger default ``VerifierConfig()`` (4096/64), and on
``corpus-sweep`` and ``hard-tail`` each (method, kernel) outcome must repeat
exactly across passes and across runs of the same source tree.  Any failure
is counted in ``failed`` and makes ``correct`` false.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import layers
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "liftbench"

#: The modules a user of the lifting API and service imports.
IMPORTS = (
    "import repro.lifting, repro.service.api, repro.suite, repro.portfolio, "
    "repro.core.synthesizer"
)

#: Set-up repetitions per run; ``setup_s`` reports the median.
SETUP_SAMPLES = 3

#: Candidate tail percentiles, highest first.  A tail metric uses the
#: highest one that leaves at least ten samples beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: Metric names, units and workloads: ``BENCHMARK.json`` is their one
#: source of truth.
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Machine-speed probes timed before the first pass and after every pass.
PROBE_BLOCK = 5


def _probe() -> float:
    """Seconds for a fixed stdlib-only mix of the kinds of work lifting does.

    Exact rational arithmetic, tuple-keyed dict updates and heap operations,
    without any repository code, so a change to the program cannot move it.
    The record keeps these times as the host's speed around each pass: on a
    shared 2-core host they switch between about 21ms and 40ms, in phases
    that last from seconds to minutes.
    """
    started = time.perf_counter()
    heap, table, total = [], {}, Fraction(0)
    for i in range(8000):
        total += Fraction(i % 7 + 1, i % 5 + 2)
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + 1
        heapq.heappush(heap, (i * 7919) % 1009)
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - started


def _tail(values):
    """(percentile label, value) of the highest ladder rung with ten beyond."""
    import numpy as np

    for rung in TAIL_LADDER:
        if len(values) * (100.0 - rung) / 100.0 >= 10:
            return f"p{rung:g}", float(np.percentile(values, rung))
    return "max", max(values)


def _latency(ops, kinds=None):
    """Median and tail latency (ms) over the operations of a workload.

    Each operation of the workload's fixed set contributes its best time
    over the run's passes.  On a shared host the same code runs up to 1.9x
    slower in contended phases that last seconds (see :func:`_probe`); the
    best of several passes filters them out, and the sample count (and so
    the tail percentile) stays independent of run length.
    """
    samples = {}
    for op in ops:
        if kinds is None or op.kind in kinds:
            samples.setdefault(op.key, []).append(op.seconds)
    best = [min(values) for values in samples.values()]
    label, tail = _tail(best)
    return {
        "p50": 1000 * statistics.median(best),
        "tail": 1000 * tail,
        "tail_percentile": label,
        "operations": len(best),
    }


def _import_seconds() -> float:
    """Median wall-clock of importing the lifting stack in a fresh interpreter."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); {IMPORTS}"
    samples = []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True)
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def _source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _provenance(args, source_hash: str) -> dict:
    import numpy

    cpu_model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "git_sha": sha,
        "source_hash": source_hash,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _check_programs(ops) -> None:
    """Re-verify every distinct solved program with ``VerifierConfig()``."""
    from repro.core.verifier import BoundedEquivalenceChecker, VerifierConfig
    from repro.suite import get_benchmark

    checkers = {}
    verdicts = {}
    for op in ops:
        if op.failure or op.report is None or not op.report.success:
            continue
        key = (op.kernel, str(op.report.lifted_program))
        if key not in verdicts:
            if op.kernel not in checkers:
                checkers[op.kernel] = BoundedEquivalenceChecker(
                    get_benchmark(op.kernel).task(), config=VerifierConfig()
                )
            verdicts[key] = checkers[op.kernel].verify(
                op.report.lifted_program
            ).equivalent
        if not verdicts[key]:
            op.failure = "lifted program fails the VerifierConfig() re-check"


def _check_replays(passes) -> None:
    """On ``serve``, every replay must return its pass's cold program."""
    for ops in passes:
        cold = {
            op.kernel: op.report.lifted_source
            for op in ops if op.kind == "cold" and op.report is not None
        }
        for op in ops:
            if op.kind == "warm" and not op.failure and op.report is not None:
                if op.report.lifted_source != cold.get(op.kernel):
                    op.failure = "replay differs from the cold result"


def _fingerprint(op) -> list:
    report = op.report
    return [report.success, str(report.template), report.attempts, report.nodes_expanded]


def _check_determinism(passes, workload: str, source_hash: str) -> None:
    """(success, template, attempts, nodes) must repeat per (method, kernel).

    Checked across this run's passes and against earlier runs of the same
    source tree, whose fingerprints are kept under ``.bench_build``.
    """
    path = OUT / f"fingerprints-{workload}-{source_hash}.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    for ops in passes:
        for op in ops:
            if op.report is None:
                continue
            key = f"{op.method}|{op.kernel}"
            seen = known.setdefault(key, _fingerprint(op))
            if seen != _fingerprint(op) and not op.failure:
                op.failure = f"outcome {_fingerprint(op)} differs from {seen}"
    scratch = path.with_suffix(".tmp")
    scratch.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(scratch, path)


def _pass_wall(ops) -> float:
    return max(op.done for op in ops) - min(op.started for op in ops)


def _solved(ops) -> int:
    return sum(
        1 for op in ops if not op.failure and op.report is not None and op.report.success
    )


def _end_to_end(workload, passes, setup_s):
    """End-to-end metrics: name -> (value, unit, samples[, percentile]).

    Holds the gated set ``BENCHMARK.json`` lists and the per-workload names.
    """
    ops = [op for pass_ops in passes for op in pass_ops]
    walls = [_pass_wall(pass_ops) for pass_ops in passes]
    failed = sum(1 for op in ops if op.failure)
    named = {
        "setup_s": (setup_s, "s", SETUP_SAMPLES),
        "wall_s": (min(walls), "s", len(walls)),
        "solved": (
            statistics.median(_solved(pass_ops) for pass_ops in passes),
            "count",
            len(passes),
        ),
        "fail_share": (failed / len(ops), "share", len(ops)),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1
        ),
    }

    def timing(prefix, stats):
        named[prefix + "p50_ms"] = (stats["p50"], "ms", stats["operations"])
        named[prefix + "tail_ms"] = (
            stats["tail"], "ms", stats["operations"], stats["tail_percentile"]
        )

    timing("", _latency(ops))
    if workload.name in ("corpus-sweep", "race"):
        timing("lift_", _latency(ops))
    if workload.name == "hard-tail":
        for kernel in workloads.HARD_TAIL:
            row = _latency([op for op in ops if op.kernel == kernel])
            named[kernel.split(".")[1] + "_s"] = (row["p50"] / 1000, "s", len(passes))
    if workload.name == "serve":
        timing("cold_req_", _latency(ops, {"cold"}))
        timing("warm_req_", _latency(ops, {"warm"}))
        del named["cold_req_tail_ms"]
    if workload.name == "race":
        child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        named["child_peak_rss_mb"] = (child, "MB", 1)
    return named


def _run_passes(workload, count, rng, tracer):
    """Run *count* passes, each followed by a traced one when *tracer* is set.

    Returns ``{traced: [ops per pass]}``, the set-up samples (the repeated
    preparations, or one per pass for a workload that prepares a fresh
    context every pass) and the probe samples taken around the passes.
    """
    traced_flags = (False, True) if tracer is not None else (False,)
    results = {flag: [] for flag in traced_flags}
    setup_samples = []
    probes = [_probe() for _ in range(PROBE_BLOCK)]
    context = None
    if not workload.fresh_per_pass:
        for _ in range(SETUP_SAMPLES):
            started = time.perf_counter()
            context = workload.prepare(OUT)
            setup_samples.append(time.perf_counter() - started)
    for _ in range(count):
        for traced in traced_flags:
            if traced:
                layers.install(tracer)
            try:
                pass_context = context
                if pass_context is None:
                    started = time.perf_counter()
                    pass_context = workload.prepare(OUT)
                    setup_samples.append(time.perf_counter() - started)
                try:
                    ops = workload.run_pass(
                        pass_context, rng, tracer if traced else None
                    )
                finally:
                    if context is None:
                        workload.dispose(pass_context)
            finally:
                if traced:
                    tracer.restore()
            results[traced].append(ops)
            probes.extend(_probe() for _ in range(PROBE_BLOCK))
    if context is not None:
        workload.dispose(context)
    return results, setup_samples, probes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"liftbench: {SRC / 'repro'} is missing; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    origin = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import_s = _import_seconds()

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"liftbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    source_hash = _source_hash()
    count = max(1, int(args.seconds // workload.nominal_pass_s))
    tracer = None
    if args.trace:
        # Half as many passes of each kind keeps a traced run as long as
        # an untraced one.
        count = (count + 1) // 2
        tracer = Tracer(workload.name)
    results, setup_samples, probes = _run_passes(
        workload, count, random.Random(args.seed), tracer
    )

    all_passes = [p for flag in results for p in results[flag]]
    all_ops = [op for p in all_passes for op in p]
    checks_started = time.perf_counter()
    _check_programs(all_ops)
    if workload.name == "serve":
        _check_replays(all_passes)
    if workload.fingerprinted:
        _check_determinism(all_passes, workload.name, source_hash)
    checks_s = time.perf_counter() - checks_started

    setup_s = import_s + statistics.median(setup_samples)
    named = _end_to_end(workload, results[False], setup_s)
    record = {
        "provenance": _provenance(args, source_hash),
        "passes": count,
        "import_s": import_s,
        "setup_samples_s": setup_samples,
        "checks_s": checks_s,
        "pass_walls_s": {
            "untraced": [_pass_wall(p) for p in results[False]],
            "traced": [_pass_wall(p) for p in results.get(True, [])],
        },
        "probe_s": probes,
        "named": {k: list(v) for k, v in named.items()},
        "ops": [
            [traced, op.kind, op.method, op.kernel, op.seconds]
            for traced in results for p in results[traced] for op in p
        ],
    }
    failures = [f"{op.kind} {op.method} {op.kernel}: {op.failure}"
                for op in all_ops if op.failure]
    attempted = len(all_ops)

    if args.trace:
        traced_ops = [op for p in results[True] for op in p]
        split = layers.layer_metrics(
            tracer.spans,
            [op for op in traced_ops if op.kind in ("lift", "cold")],
            [op for op in traced_ops if op.kind in ("cold", "warm")],
            passes=count,
        )
        traced_wall = min(_pass_wall(p) for p in results[True])
        metrics_values = dict(split["metrics"])
        metrics_values["trace.overhead_share"] = traced_wall / named["wall_s"][0] - 1.0
        accounting = split["accounting"]
        attempted += 1
        if accounting["problems"]:
            failures.append("accounting: " + "; ".join(accounting["problems"][:5]))
        lift_wall = accounting["wall_s"]
        shares = {
            name: seconds / lift_wall if lift_wall else 0.0
            for name, seconds in accounting["layers"].items()
        }
        shares["lift.unaccounted"] = (
            accounting["unaccounted_s"] / lift_wall if lift_wall else 0.0
        )
        record["layer_shares"] = shares
        record["lift_wall_s"] = lift_wall
        tracer.write(OUT / f"spans-{workload.name}-seed{args.seed}.jsonl", origin)
        metrics = {
            entry["name"]: {"value": metrics_values[entry["name"]], "unit": entry["unit"]}
            for entry in spec["per_layer"]
        }
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"share {name:<24} {100 * share:7.3f}% of {lift_wall:.3f}s lift wall")
    else:
        metrics = {
            entry["name"]: {"value": named[entry["name"]][0], "unit": entry["unit"]}
            for entry in spec["end_to_end"]
        }
    record["metrics"] = metrics
    record["failures"] = failures
    (OUT / f"record-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str)
    )

    print(f"liftbench {workload.name}: {count} pass(es), seed {args.seed}, "
          f"python {record['provenance']['python']}, "
          f"{record['provenance']['cpu_count']} cpu ({record['provenance']['cpu_model']}), "
          f"probe median {1000 * statistics.median(probes):.1f}ms")
    for name, (value, unit, samples, *pct) in named.items():
        extra = f" at {pct[0]}" if pct else ""
        print(f"metric {name:<20} {value:14.4f} {unit:<6} n={samples}{extra}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

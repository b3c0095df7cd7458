"""Measurement entry point behind ``python -m repro bench``.

Owns everything around the raw measurements in
:mod:`repro.evaluation.perf`: the ``BENCH_<tag>.json`` output convention,
the *fail-fast* overwrite refusal (an existing committed tag is refused
before a single measurement runs — a reused tag would silently destroy a
prior PR's baseline), provenance stamping (tag + git SHA), schema
validation of the freshly-measured record before it is written, and the
human summary block.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

from .gates import PORTFOLIO_GATE_RATIO
from .schema import BenchRecord

#: The repository root (``src/repro/bench/runner.py`` → three levels up).
REPO_ROOT = Path(__file__).resolve().parents[3]


class BenchOverwriteError(RuntimeError):
    """Writing the record would clobber an existing ``BENCH_<tag>.json``."""


class BenchColdPathError(RuntimeError):
    """The record would land inside a serving-tier data directory."""


def current_git_sha(root: Optional[Path] = None) -> Optional[str]:
    """The repo's HEAD SHA, or None outside a git checkout."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(root or REPO_ROOT),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = completed.stdout.strip()
    return sha if completed.returncode == 0 and sha else None


def resolve_output(
    tag: Optional[str], output: Optional[str], root: Optional[Path] = None
) -> Path:
    """The record path implied by ``--tag`` / ``--output``."""
    if output:
        return Path(output)
    if not tag:
        raise ValueError("either a trajectory tag or an explicit output path is required")
    return Path(root or REPO_ROOT) / f"BENCH_{tag}.json"


def check_overwrite(path: Path, force: bool) -> None:
    """Refuse to clobber an existing record unless *force*.

    Called before any measurement starts: a full-scope run takes minutes,
    and discovering the refusal only after burning them is hostile.
    """
    if path.exists() and not force:
        raise BenchOverwriteError(
            f"refusing to overwrite existing {path}: that would destroy a "
            f"committed perf baseline.  Pick a fresh --tag for this PR, or "
            f"pass --force if you really mean to replace it."
        )


def check_cold_path(path: Path) -> None:
    """Refuse to write a bench record into a service store/journal tree.

    Bench numbers are cold-path measurements; the serving tier's result
    store and job journal are warm state.  Sharing a directory couples the
    two silently — warm-cache replays quoted as fresh numbers, or store
    eviction deleting a committed baseline — so the harness refuses before
    measuring anything.  (The service enforces the mirror-image rule: it
    refuses a --cache-dir/--journal that holds BENCH_*.json records.)
    """
    parent = path.resolve().parent
    for probe in (parent, *parent.parents):
        if (probe / "v1" / "objects").is_dir() or any(
            probe.glob("*.journal.sqlite3")
        ):
            raise BenchColdPathError(
                f"refusing to write a bench record under {probe}: that "
                f"directory holds serving-tier state (a result store or a "
                f"job journal), and bench records must stay on the cold "
                f"path.  Point --tag/--output somewhere outside the "
                f"service's cache/journal tree."
            )


def run_bench(
    tag: Optional[str] = None,
    scope: str = "quick",
    output: Optional[str] = None,
    force: bool = False,
    include_portfolio: bool = True,
    root: Optional[Path] = None,
) -> Dict[str, object]:
    """Measure, stamp, validate, and write one perf record.

    Returns the written record dict.  The overwrite check runs *before*
    the measurements; the fresh record is round-tripped through
    :class:`BenchRecord` before it is written, so the harness can never
    commit a record the schema (and therefore ``repro gate``) would later
    reject.
    """
    path = resolve_output(tag, output, root=root)
    check_overwrite(path, force)
    check_cold_path(path)
    from ..evaluation.perf import run_perf_suite

    record = run_perf_suite(scope=scope, include_portfolio=include_portfolio)
    if tag:
        record["tag"] = tag
    # Provenance is the code that measured, not the output directory.
    sha = current_git_sha()
    if sha:
        record["git_sha"] = sha
    BenchRecord.from_dict(record)  # validate before writing, not after
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def summarize(record: Dict[str, object]) -> str:
    """The human summary block printed after a measurement run."""
    validator = record["validator"]
    search = record["search"]
    lines = [
        f"validator  tiered+cached : "
        f"{validator['tiered_cached']['candidates_per_sec']:>10.1f} candidates/sec",
        f"validator  seed reference: "
        f"{validator['seed_reference']['candidates_per_sec']:>10.1f} candidates/sec",
        f"validator  speedup       : {validator['speedup']:>10.2f}x",
        f"search     topdown       : "
        f"{search['topdown']['nodes_per_sec']:>10.1f} nodes/sec",
        f"search     bottomup      : "
        f"{search['bottomup']['nodes_per_sec']:>10.1f} nodes/sec",
    ]
    portfolio = record.get("portfolio")
    if portfolio:
        lines.append(f"portfolio  {portfolio['spec']}:")
        for member, result in portfolio["members"].items():
            lines.append(
                f"  member   {member:22s}: {result['seconds']:>8.2f}s "
                f"({result['solved']} solved)"
            )
        lines.append(
            f"  racing   portfolio         : "
            f"{portfolio['portfolio']['seconds']:>8.2f}s "
            f"({portfolio['portfolio']['solved']} solved)"
        )
        lines.append(
            f"  vs best  ({portfolio['fastest_member']}): "
            f"{portfolio['wallclock_ratio']:.2f}x wall-clock "
            f"(gate: <= {portfolio.get('gate_ratio', PORTFOLIO_GATE_RATIO)}x)"
        )
    multicore = record.get("multicore")
    if multicore:
        lines.append(
            f"multicore  {multicore['spec']} "
            f"[{multicore['backend']}:{multicore['workers']}, "
            f"{multicore['cores']} core(s)]:"
        )
        lines.append(
            f"  racing   processes         : "
            f"{multicore['portfolio']['seconds']:>8.2f}s "
            f"({multicore['portfolio']['solved']} solved)"
        )
        lines.append(
            f"  vs best  ({multicore['fastest_member']}): "
            f"{multicore['wallclock_ratio']:.2f}x wall-clock "
            f"(gate: <= {multicore['gate_ratio']}x at {multicore['cores']} core(s))"
        )
    retrieval = record.get("retrieval")
    if retrieval:
        cold, warm = retrieval["cold"], retrieval["warm"]
        lines.append(
            f"retrieval  {retrieval['probe_method']} seeded by "
            f"{retrieval['seed_method']}:"
        )
        lines.append(
            f"  cold     : {cold['seconds']:>8.2f}s ({cold['solved']} solved, "
            f"first solve {cold['first_solve_seconds']}s)"
        )
        lines.append(
            f"  seeded   : {warm['seconds']:>8.2f}s ({warm['solved']} solved, "
            f"first solve {warm['first_solve_seconds']}s, "
            f"{warm['seed_hits']}/{warm['seed_attempts']} tier-0 hits)"
        )
        lines.append(
            f"  speedup  : {retrieval['speedup']:.2f}x "
            f"(gate: >= {retrieval['gate_speedup']}x)"
        )
    return "\n".join(lines)


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """The ``repro bench`` flag set."""
    parser.add_argument(
        "--scope", choices=("quick", "full", "warm-similar"), default="quick",
        help="measurement size (quick: ~seconds, full: ~a minute; "
        "warm-similar: quick budgets plus the retrieval section — "
        "similarity-seeded lifting against a populated store vs. cold)",
    )
    parser.add_argument(
        "--tag", default=None,
        help="trajectory tag; the record goes to BENCH_<tag>.json at the "
        "repo root (pass your PR's tag — reusing an earlier PR's tag is "
        "refused so baselines are never overwritten)",
    )
    parser.add_argument(
        "--output", default=None,
        help="explicit output path (overrides --tag)",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="overwrite an existing record (without this, writing over an "
        "existing BENCH_<tag>.json is refused before any measurement runs)",
    )
    parser.add_argument(
        "--no-portfolio", action="store_true",
        help="skip the portfolio race measurement (the costliest section; "
        "committed BENCH_<tag>.json baselines should keep the full record)",
    )
    parser.add_argument(
        "--trajectory", action="store_true",
        help="print the committed BENCH_* trajectory table and exit "
        "(no measurements are run)",
    )


def run_from_args(args: argparse.Namespace) -> int:
    """Execute the ``repro bench`` subcommand; returns the exit status."""
    if args.trajectory:
        from .trajectory import discover_records, trajectory_rows

        records = discover_records(REPO_ROOT)
        if not records:
            print(f"no BENCH_*.json records under {REPO_ROOT}", file=sys.stderr)
            return 1
        print(f"{'tag':8s} {'scope':6s} {'speedup':>8s} {'td n/s':>10s} "
              f"{'bu n/s':>10s} {'portfolio':>10s}")
        for row in trajectory_rows(records):
            print(f"{row[0]:8s} {row[1]:6s} {row[2]:>8s} {row[3]:>10s} "
                  f"{row[4]:>10s} {row[5]:>10s}")
        return 0
    if not args.tag and not args.output:
        print("repro bench: --tag (or --output) is required", file=sys.stderr)
        return 2
    try:
        record = run_bench(
            tag=args.tag,
            scope=args.scope,
            output=args.output,
            force=args.force,
            include_portfolio=not args.no_portfolio,
        )
    except (BenchOverwriteError, BenchColdPathError) as error:
        print(str(error), file=sys.stderr)
        return 2
    print(summarize(record))
    print(f"record written to {resolve_output(args.tag, args.output)}")
    return 0

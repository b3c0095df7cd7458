"""Which layer boundaries the traced run wraps, and the per-layer metrics.

Layers are named after the repo's modules.  Each wrap point is a public
function at its class or module attribute; ``build_harness`` is wrapped
where ``lifting/pipeline.py`` binds it, and ``execute_request`` before the
service is constructed, because the scheduler binds it then.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

from tracing import Span, Tracer, lift_accounting


def _validator_counters(args: tuple):
    stats = args[0].stats
    return stats.candidates, stats.screen_rejects, stats.exact_checks


def _after_validate(span: Span, args: tuple, result, before) -> None:
    after = _validator_counters(args)
    span.attrs["candidates"] = after[0] - before[0]
    span.attrs["screen_rejects"] = after[1] - before[1]
    span.attrs["exact_checks"] = after[2] - before[2]
    span.attrs["accepted"] = bool(result.success)


def _after_verify(span: Span, args: tuple, result, _before) -> None:
    span.attrs["equivalent"] = bool(result.equivalent)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; :meth:`Tracer.restore` undoes it."""
    from repro.core.io_examples import IOExampleGenerator
    from repro.core.task import LiftingTask
    from repro.core.validator import TemplateValidator
    from repro.core.verifier import BoundedEquivalenceChecker
    from repro.lifting import pipeline
    from repro.portfolio.process_scheduler import ProcessMemberScheduler
    from repro.service import api
    from repro.service.journal import JobJournal
    from repro.service.store import ResultStore

    tracer.wrap(LiftingTask, "parse", "cfront.parse")
    tracer.wrap(IOExampleGenerator, "generate", "core.io_examples")
    for stage, name in (
        (pipeline.OracleStage, "llm.oracle"),
        (pipeline.TemplatizeStage, "core.templates"),
        (pipeline.DimensionStage, "core.dimension_list"),
        (pipeline.GrammarStage, "core.grammar"),
        (pipeline.SearchStage, "core.search"),
    ):
        tracer.wrap(stage, "run", name)
    tracer.wrap(pipeline, "build_harness", "lifting.harness")
    tracer.wrap(
        TemplateValidator, "validate", "core.validator",
        before=_validator_counters, after=_after_validate,
    )
    tracer.wrap(
        BoundedEquivalenceChecker, "verify", "core.verifier", after=_after_verify
    )
    tracer.wrap(ProcessMemberScheduler, "race", "portfolio.race")
    tracer.wrap(
        api, "execute_request", "service.execute",
        kernel_of=lambda args: args[0].benchmark,
    )
    tracer.wrap(ResultStore, "get", "service.store.get")
    tracer.wrap(ResultStore, "put", "service.store.put")
    for method in ("insert", "claim", "finish", "record_cached"):
        tracer.wrap(JobJournal, method, "service.journal")


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(
    spans: List[Span],
    lifts: Sequence,
    requests: Sequence,
    passes: int,
) -> Dict[str, object]:
    """Per-layer metrics of the traced passes, per pass.

    Every workload reports every metric ``BENCHMARK.json`` lists under
    ``per_layer``; a layer the workload does not load reads 0.

    *lifts* are the lift records (report-bearing) of the traced passes and
    *requests* the service request records (``started``/``done``
    perf-counter stamps, ``cached`` flag).  Returns the metrics plus the
    accounting: ``{"metrics": {...}, "accounting": {...}}``.
    """
    accounting = lift_accounting(spans)
    layers = accounting["layers"]
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    def busy(name: str) -> float:
        return sum(span.seconds for span in by_name.get(name, []))

    def attr_sum(name: str, key: str) -> int:
        return sum(int(span.attrs.get(key, 0)) for span in by_name.get(name, []))

    reports = [record.report for record in lifts if record.report is not None]
    grammar_sizes = [
        r.details["grammar_size"] for r in reports if "grammar_size" in r.details
    ]
    search_self = layers["core.search"]
    nodes = sum(r.nodes_expanded for r in reports)

    # Service requests: match each cold request to the execute span that ran
    # it (one request is outstanding at a time, so it is the only execute
    # span starting inside the request's submit..done interval).
    executes = sorted(by_name.get("service.execute", []), key=lambda s: s.start)
    overheads: List[float] = []
    waits: List[float] = []
    for request in requests:
        if request.cached:
            continue
        inside = [
            s for s in executes if request.started <= s.start <= request.done
        ]
        if len(inside) == 1:
            overheads.append(request.seconds - inside[0].seconds)
            waits.append(inside[0].start - request.started)

    race_overheads: List[float] = []
    winner_busy = 0.0
    races = sorted(by_name.get("portfolio.race", []), key=lambda s: s.start)
    for record in lifts:
        portfolio = record.report.details.get("portfolio") if record.report else None
        if not portfolio or not portfolio.get("winner"):
            continue
        winner = next(
            m for m in portfolio["members"] if m["name"] == portfolio["winner"]
        )
        winner_busy += winner["elapsed_seconds"]
        race = [s for s in races if record.started <= s.start <= record.done]
        if len(race) == 1:
            race_overheads.append(race[0].seconds - winner["elapsed_seconds"])

    validator_calls = calls("core.validator")
    verifier_calls = calls("core.verifier")
    per_pass = {
        "cfront.parse.calls": calls("cfront.parse"),
        "cfront.parse.busy_s": layers["cfront.parse"],
        "core.io_examples.calls": calls("core.io_examples"),
        "core.io_examples.busy_s": layers["core.io_examples"],
        "llm.oracle.busy_s": layers["llm.oracle"],
        "llm.oracle.valid_candidates": sum(r.oracle_valid_candidates for r in reports),
        "core.templates.busy_s": layers["core.templates"],
        "core.dimension_list.busy_s": layers["core.dimension_list"],
        "core.grammar.busy_s": layers["core.grammar"],
        "lifting.harness.self_s": layers["lifting.harness"],
        "core.search.self_s": search_self,
        "core.search.nodes": nodes,
        "core.search.attempts": sum(r.attempts for r in reports),
        "core.validator.calls": validator_calls,
        "core.validator.busy_s": layers["core.validator"],
        "core.validator.candidates": attr_sum("core.validator", "candidates"),
        "core.validator.screen_rejects": attr_sum("core.validator", "screen_rejects"),
        "core.validator.exact_checks": attr_sum("core.validator", "exact_checks"),
        "core.verifier.calls": verifier_calls,
        "core.verifier.busy_s": layers["core.verifier"],
        "service.execute.busy_s": busy("service.execute"),
        "service.store.get.calls": calls("service.store.get"),
        "service.store.get.busy_ms": 1000 * busy("service.store.get"),
        "service.store.put.calls": calls("service.store.put"),
        "service.store.put.busy_ms": 1000 * busy("service.store.put"),
        "service.journal.busy_ms": 1000 * busy("service.journal"),
        "portfolio.race.self_s": layers["portfolio.race"],
        "portfolio.winner_busy_s": winner_busy,
        "lift.unaccounted_s": accounting["unaccounted_s"],
    }
    metrics: Dict[str, object] = {k: v / passes for k, v in per_pass.items()}
    metrics.update(
        {
            "core.grammar.size": _median(grammar_sizes),
            "core.search.nodes_per_s": nodes / search_self if search_self else 0.0,
            "core.validator.accept_ratio": (
                attr_sum("core.validator", "accepted") / validator_calls
                if validator_calls
                else 0.0
            ),
            "core.verifier.equivalent_ratio": (
                attr_sum("core.verifier", "equivalent") / verifier_calls
                if verifier_calls
                else 0.0
            ),
            "service.request.overhead_ms": 1000 * _median(overheads),
            "service.queue_wait_ms": 1000 * _median(waits),
            "portfolio.race_overhead_ms": 1000 * _median(race_overheads),
        }
    )
    return {"metrics": metrics, "accounting": accounting}

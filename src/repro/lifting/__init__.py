"""The unified lifting API: one composable surface for running lifts.

This package is the single public entry point every consumer — the CLI, the
evaluation harness and the HTTP service — uses to construct and run lifting
methods:

* :func:`resolve_method` / :func:`register_method` — the **method registry**,
  covering STAGG (both searches), every ablation and all baselines by name.
* :class:`Lifter` — the protocol all methods satisfy:
  ``lift(task, *, budget=None, observer=None) -> SynthesisReport`` plus
  ``descriptor()`` for the service's content-addressed store digest.
* :class:`Budget` — a cooperative deadline + cancellation token threaded
  through the oracle, the searches and the validator.
* :class:`LiftObserver` / :class:`LiftEvent` — one progress-event stream
  (stage start/finish, search heartbeats, race lifecycle) powering
  ``repro lift -v``, traces and the service's live status.
* :class:`PipelineState` + the stage objects in :mod:`.pipeline` — the
  STAGG pipeline as explicit, resumable stages with per-stage timings.
* :mod:`.checking` — the shared validate-then-verify acceptance check.

See ROADMAP.md ("Lifting API") for registry names, stage semantics and the
resume-from-state rules.
"""

from __future__ import annotations

from typing import Dict, Optional, Protocol, runtime_checkable

from ..core.result import SynthesisReport
from ..core.task import LiftingTask
from .budget import Budget, BudgetExceeded
from .checking import TaskHarness, build_check, build_harness, check_candidate
from .descriptor import describe_lifter, describe_oracle
from .executor import (
    BACKENDS,
    ExecutionConfig,
    TokenBudget,
    default_execution,
    parse_executor_spec,
)
from .observer import (
    CompositeObserver,
    LiftEvent,
    LiftObserver,
    PrintObserver,
    RecordingObserver,
    SEARCH_PROGRESS_INTERVAL,
    bind,
    safe_notify,
)
from .pipeline import (
    DimensionStage,
    GrammarStage,
    OracleStage,
    PipelineState,
    SearchStage,
    STAGE_NAMES,
    STAGES,
    Stage,
    StaggPipeline,
    StatePicklingError,
    TemplatizeStage,
    ensure_picklable,
)
from .registry import (
    BASELINE_CANDIDATE_BUDGET,
    GRAMMAR_ABLATION_METHODS,
    METHOD_KINDS,
    MethodContext,
    MethodSpec,
    PENALTY_ABLATION_METHODS,
    STANDARD_METHODS,
    default_limits,
    default_verifier_config,
    method_name_for,
    method_names,
    method_spec,
    register_method,
    resolve_method,
    resolve_methods,
)

# The portfolio engine is part of the public lifting surface (it satisfies
# the Lifter protocol and races registry methods), but the re-export must be
# lazy: repro.portfolio imports this package's submodules, so an eager
# ``from ..portfolio import ...`` here would crash whichever of the two
# packages is imported *second* mid-initialisation of the first.
_PORTFOLIO_EXPORTS = ("PortfolioLifter", "register_portfolio")


def __getattr__(name: str):
    if name in _PORTFOLIO_EXPORTS:
        from .. import portfolio

        return getattr(portfolio, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@runtime_checkable
class Lifter(Protocol):
    """What every lifting method looks like to the rest of the system.

    ``budget`` bounds one invocation cooperatively (deadline and/or
    cancellation); ``observer`` receives progress events.  Both are
    keyword-only and optional, so ``lift(task)`` remains the minimal call.
    ``descriptor()`` returns the JSON-safe identity the service digests.
    """

    def lift(
        self,
        task: LiftingTask,
        *,
        budget: Optional[Budget] = None,
        observer: Optional[LiftObserver] = None,
    ) -> SynthesisReport: ...

    def descriptor(self) -> Dict[str, object]: ...


__all__ = [
    "Lifter",
    "Budget",
    "BudgetExceeded",
    "CompositeObserver",
    "LiftEvent",
    "LiftObserver",
    "PrintObserver",
    "RecordingObserver",
    "SEARCH_PROGRESS_INTERVAL",
    "bind",
    "safe_notify",
    "TaskHarness",
    "build_harness",
    "build_check",
    "check_candidate",
    "describe_lifter",
    "describe_oracle",
    "BACKENDS",
    "ExecutionConfig",
    "TokenBudget",
    "default_execution",
    "parse_executor_spec",
    "PipelineState",
    "StatePicklingError",
    "ensure_picklable",
    "Stage",
    "StaggPipeline",
    "OracleStage",
    "TemplatizeStage",
    "DimensionStage",
    "GrammarStage",
    "SearchStage",
    "STAGES",
    "STAGE_NAMES",
    "METHOD_KINDS",
    "MethodContext",
    "MethodSpec",
    "PortfolioLifter",
    "register_portfolio",
    "register_method",
    "resolve_method",
    "resolve_methods",
    "method_names",
    "method_spec",
    "method_name_for",
    "default_limits",
    "default_verifier_config",
    "BASELINE_CANDIDATE_BUDGET",
    "STANDARD_METHODS",
    "PENALTY_ABLATION_METHODS",
    "GRAMMAR_ABLATION_METHODS",
]

"""The STAGG lifting pipeline as explicit stages over a typed state.

The paper's Figure-1 flow — oracle → templatize → dimension list →
grammar/pCFG → guided search — used to live in one opaque method
(``StaggSynthesizer._lift_inner``).  It is now five :class:`Stage` objects
that read and write a :class:`PipelineState`, run by :class:`StaggPipeline`:

* each stage's wall-clock time is recorded into
  ``report.details["stage_timings"]`` (a dict keyed by stage name),
* a stage whose output artifacts are already populated is *skipped*, which
  is what makes resuming possible: populate a state once, then re-run the
  pipeline under a different configuration without re-querying the oracle
  (see :meth:`StaggSynthesizer.lift_from_state`),
* the budget is checked at every stage boundary and threaded into the
  oracle, the search and the validator, so a cancelled or deadline-expired
  lift stops cooperatively at the next poll point,
* a :class:`~repro.lifting.observer.LiftObserver` receives stage start /
  finish / skip events and periodic search progress.

Stage artifacts split into two groups.  **Oracle-derived** artifacts
(response, templates, dimension list) depend only on the task and the
oracle; **config-derived** artifacts (grammar, pCFG, search outcome) also
depend on the :class:`StaggConfig`.  Re-lifting under a new config must
clear the config-derived group — :meth:`PipelineState.reset_derived` does
exactly that and nothing else.
"""

from __future__ import annotations

import abc
import pickle
import time
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.config import StaggConfig
from ..core.dimension_list import num_unique_indices, predict_dimension_list
from ..core.grammar_gen import (
    bottomup_template_grammar,
    full_bottomup_template_grammar,
    full_template_grammar,
    topdown_template_grammar,
)
from ..core.kernel import kernel_of
from ..core.pcfg_learn import count_rules, operator_counts, weights_from_counts
from ..core.penalties import PenaltyContext, PenaltyEvaluator
from ..core.result import SynthesisReport
from ..core.search import SearchOutcome
from ..core.search_bottomup import BottomUpSearch
from ..core.search_topdown import TopDownSearch
from ..core.task import LiftingTask
from ..core.templates import Template, templatize_all
from ..grammars import ProbabilisticGrammar
from ..llm.oracle import LiftingQuery, LLMOracle, OracleResponse
from .budget import Budget
from .checking import build_check, build_harness
from .observer import LiftEvent, LiftObserver, bind, safe_notify

#: The canonical stage order (also the key order of ``stage_timings``).
STAGE_NAMES = ("oracle", "templatize", "dimension", "grammar", "search")
#: How many times each retrieved neighbor template is counted into the
#: learned pCFG weights on a tier-0 miss (1 = one oracle candidate's weight).
RETRIEVAL_SEED_BOOST = 3


@dataclass
class PipelineState:
    """Typed artifacts flowing through the staged pipeline.

    Every field except ``task`` starts unset (``None``); stages populate
    them.  ``None`` is the "not yet produced" sentinel throughout — an empty
    template list or dimension tuple is a legitimate (populated) artifact.
    """

    task: LiftingTask

    # Static analysis of the kernel (derived lazily, shared by stages).
    function: Optional[object] = None
    signature: Optional[object] = None

    # Oracle-derived artifacts (task x oracle; config-independent).
    oracle_response: Optional[OracleResponse] = None
    templates: Optional[List[Template]] = None
    num_indices: Optional[int] = None
    dimension_list: Optional[Tuple[int, ...]] = None
    voted_dimension_list: Optional[Tuple[int, ...]] = None
    static_lhs_rank: Optional[int] = None

    # Config-derived artifacts (also depend on the StaggConfig).
    grammar: Optional[object] = None
    grammar_style: Optional[str] = None
    pcfg: Optional[object] = None
    #: Operator-token counts of the oracle's templates (criteria a5/b2).
    operator_weights: Optional[Dict[str, float]] = None
    outcome: Optional[SearchOutcome] = None

    # Similarity-seeding artifacts (only set when the config arms
    # retrieval; see repro.retrieval.seeding.SeedStage).  ``seed_info``
    # doubles as the stage's populated-marker; ``seed_templates`` carries
    # the neighbors' templates into the grammar stage's pCFG learning
    # after a tier-0 miss.
    seed_info: Optional[dict] = None
    seed_templates: Optional[List[Template]] = None

    def ensure_analysis(self) -> None:
        """Take the parsed kernel and its signature from the kernel cache."""
        if self.function is None or self.signature is None:
            kernel = kernel_of(self.task)
            self.function = kernel.function
            self.signature = kernel.signature

    def reset_derived(self) -> None:
        """Clear config-derived artifacts so a new config can re-search.

        Oracle-derived artifacts survive: this is the "re-search under a new
        configuration without re-querying the oracle" resume rule.
        """
        self.grammar = None
        self.grammar_style = None
        self.pcfg = None
        self.operator_weights = None
        self.outcome = None
        self.seed_info = None
        self.seed_templates = None

    def fork(self) -> "PipelineState":
        """A new state sharing this one's oracle-derived artifacts.

        The fork carries the (immutable-in-practice) oracle response,
        templates and dimension prediction by reference and starts with the
        config-derived group empty, so several configurations can re-search
        the same artifacts *concurrently* — each on its own fork — without
        clobbering each other's grammar/pCFG/outcome fields.  This is what
        the portfolio engine races on: one oracle query, many searches.
        """
        return PipelineState(
            task=self.task,
            function=self.function,
            signature=self.signature,
            oracle_response=self.oracle_response,
            templates=self.templates,
            num_indices=self.num_indices,
            dimension_list=self.dimension_list,
            voted_dimension_list=self.voted_dimension_list,
            static_lhs_rank=self.static_lhs_rank,
        )


class StatePicklingError(TypeError):
    """A :class:`PipelineState` field cannot cross a process boundary.

    Raised loudly (naming the offending field) instead of letting a raw
    ``PicklingError`` escape from deep inside a process pool, where the
    traceback would say nothing about *which* artifact was unpicklable.
    """

    def __init__(self, field_name: str, value: object, cause: Exception) -> None:
        self.field_name = field_name
        super().__init__(
            f"PipelineState.{field_name} is not picklable and cannot be sent "
            f"to a worker process: {type(value).__qualname__} ({cause}). "
            "Process-backed execution serializes oracle-derived artifacts "
            "once; keep live handles (locks, file objects, callbacks) out of "
            "the pipeline state or use the thread backend."
        )


def ensure_picklable(state: "PipelineState") -> bytes:
    """Serialize *state* for a worker process, failing loudly per field.

    Returns the pickled bytes on success so callers serialize exactly once.
    On failure every field is re-tried individually and the first offender
    is reported by name via :class:`StatePicklingError`.
    """
    try:
        return pickle.dumps(state)
    except Exception as whole_error:  # noqa: BLE001 - re-raised with context
        for spec in fields(state):
            value = getattr(state, spec.name)
            try:
                pickle.dumps(value)
            except Exception as cause:  # noqa: BLE001 - reported per field
                raise StatePicklingError(spec.name, value, cause) from cause
        # Every field pickles alone but the whole state does not (e.g. a
        # cyclic reference introduced by a custom artifact).
        raise StatePicklingError("<state>", state, whole_error) from whole_error


class Stage(abc.ABC):
    """One pipeline stage: produce artifacts, annotate the report."""

    #: Stage name used in timings, observer events and documentation.
    name: str = "stage"

    @abc.abstractmethod
    def populated(self, state: PipelineState) -> bool:
        """True when this stage's artifacts are already present (skip it)."""

    @abc.abstractmethod
    def run(
        self,
        pipeline: "StaggPipeline",
        state: PipelineState,
        budget: Optional[Budget],
        observer: Optional[LiftObserver],
    ) -> None:
        """Execute the stage, writing artifacts into *state*."""

    def annotate(self, state: PipelineState, report: SynthesisReport) -> None:
        """Copy artifact-derived fields into the report (run *and* skip)."""


class OracleStage(Stage):
    """Stage 1: query the LLM oracle for candidate TACO expressions."""

    name = "oracle"

    def populated(self, state: PipelineState) -> bool:
        return state.oracle_response is not None

    def run(self, pipeline, state, budget, observer) -> None:
        query = LiftingQuery(
            c_source=state.task.c_source,
            name=state.task.name,
            reference_solution=state.task.reference_solution,
        )
        state.oracle_response = pipeline.oracle.propose(query, budget=budget)

    def annotate(self, state, report) -> None:
        response = state.oracle_response
        report.oracle_valid_candidates = response.num_valid
        report.oracle_rejected_candidates = response.num_rejected


class TemplatizeStage(Stage):
    """Stage 2: templatize the candidates (Section 4.2).

    Candidates are *not* de-duplicated here: the dimension-list vote and the
    pCFG weights are frequency-based, so repeated (structurally identical)
    candidates should count once per occurrence, exactly as in Section 4.3.
    """

    name = "templatize"

    def populated(self, state: PipelineState) -> bool:
        return state.templates is not None

    def run(self, pipeline, state, budget, observer) -> None:
        state.templates = templatize_all(state.oracle_response.candidates)
        state.num_indices = num_unique_indices(state.templates)


class DimensionStage(Stage):
    """Stage 3: predict the dimension list (Section 4.2.3).

    The static analysis supplies the LHS rank and, when the vote has fewer
    RHS slots than the kernel has input tensors, the missing slots (see
    :mod:`repro.core.dimension_list`); ``voted_dimension_list`` keeps the
    vote as it was.
    """

    name = "dimension"

    def populated(self, state: PipelineState) -> bool:
        return state.dimension_list is not None

    def run(self, pipeline, state, budget, observer) -> None:
        state.ensure_analysis()
        prediction = predict_dimension_list(state.templates, kernel_of(state.task))
        state.dimension_list = prediction.dimension_list
        state.voted_dimension_list = prediction.voted_list
        state.static_lhs_rank = prediction.static_lhs_rank

    def annotate(self, state, report) -> None:
        report.dimension_list = state.dimension_list
        report.details["voted_dimension_list"] = state.voted_dimension_list
        report.details["static_lhs_rank"] = state.static_lhs_rank


class GrammarStage(Stage):
    """Stage 4: grammar generation + probability learning (Sections 4.2.4, 4.3).

    A refined grammar offers ``Const`` only when the kernel's constant pool
    (``harvest_constants``, the pool ``build_harness`` gives the validator)
    is non-empty; see :mod:`repro.core.grammar_gen`.
    """

    name = "grammar"

    def populated(self, state: PipelineState) -> bool:
        return state.pcfg is not None

    def run(self, pipeline, state, budget, observer) -> None:
        config = pipeline.config
        grammar, style = self._build_grammar(config, state)
        state.grammar = grammar
        state.grammar_style = style
        # One counting pass over the oracle's templates feeds both the pCFG
        # and the search stage's operator weights (criteria a5/b2).
        counts = count_rules(grammar, state.templates, style)
        state.operator_weights = operator_counts(counts)
        if config.probability_mode == "equal":
            state.pcfg = ProbabilisticGrammar.uniform(grammar)
            return
        # Similarity seeding, part (b): after a tier-0 miss the seed stage
        # leaves the neighbors' winning templates on the state, and each is
        # counted ``RETRIEVAL_SEED_BOOST`` times alongside the oracle's
        # candidates — derivation counting is frequency-based, so
        # repetition *is* the weight boost.  The grammar itself and the
        # operator weights stay purely oracle-derived.
        if state.seed_templates:
            for rule, count in count_rules(grammar, state.seed_templates, style).items():
                counts[rule] = counts.get(rule, 0.0) + RETRIEVAL_SEED_BOOST * count
        state.pcfg = ProbabilisticGrammar.from_weights(weights_from_counts(grammar, counts))

    def annotate(self, state, report) -> None:
        if state.grammar is not None:
            report.details["grammar_size"] = len(state.grammar)

    @staticmethod
    def _build_grammar(config: StaggConfig, state: PipelineState):
        dimension_list = state.dimension_list
        indices = state.num_indices or 0
        style = "topdown" if config.search == "topdown" else "bottomup"
        if config.grammar_mode == "refined":
            build = (
                topdown_template_grammar
                if style == "topdown"
                else bottomup_template_grammar
            )
            grammar = build(
                dimension_list,
                indices,
                state.templates,
                constants=kernel_of(state.task).constants,
            )
            return grammar, style
        # Unrefined ("full") grammars for the FullGrammar / LLMGrammar ablations.
        lhs_rank = dimension_list[0] if dimension_list else 0
        max_rank = max(
            [config.full_grammar_max_rank] + [rank for rank in dimension_list]
        )
        if style == "topdown":
            grammar = full_template_grammar(
                lhs_rank,
                max_rhs_tensors=config.full_grammar_max_tensors,
                max_rank=max_rank,
                num_indices=max(config.full_grammar_num_indices, indices),
            )
        else:
            grammar = full_bottomup_template_grammar(
                lhs_rank,
                max_rhs_tensors=config.full_grammar_max_tensors,
                max_rank=max_rank,
                num_indices=max(config.full_grammar_num_indices, indices),
            )
        return grammar, style


class SearchStage(Stage):
    """Stage 5: weighted A* search with validation + verification (Sections 5-7)."""

    name = "search"

    def populated(self, state: PipelineState) -> bool:
        return state.outcome is not None

    def run(self, pipeline, state, budget, observer) -> None:
        config = pipeline.config
        state.ensure_analysis()
        harness = build_harness(
            state.task,
            num_io_examples=config.num_io_examples,
            seed=config.seed,
            verifier_config=config.verifier,
            function=state.function,
            signature=state.signature,
        )
        check = build_check(harness, budget=budget, observer=observer)

        weights = state.operator_weights
        max_weight = max(weights.values(), default=0.0)
        # Operators "defined in the grammar" (criteria a5/b2): those whose
        # learned probability is not incidental noise.  An operator counts as
        # defined when the candidates used it at least twice and strictly
        # more than half as often as the most-used operator (cf. Figure 3,
        # where only the operators with non-zero probability matter).
        dominant_operators = frozenset(
            op
            for op, weight in weights.items()
            if weight >= 2.0 and weight > 0.5 * max_weight
        )
        context = PenaltyContext(
            dimension_list=state.dimension_list,
            grammar_has_constant=any(
                "Const" in str(p.rhs) for p in state.grammar.productions
            ),
            observed_operators=dominant_operators,
        )
        if config.search == "topdown":
            evaluator = PenaltyEvaluator.topdown(context, config.penalties)
            search = TopDownSearch(state.pcfg, evaluator, check, config.limits)
        else:
            evaluator = PenaltyEvaluator.bottomup(context, config.penalties)
            search = BottomUpSearch(
                state.pcfg, state.dimension_list, evaluator, check, config.limits
            )
        state.outcome = search.run(budget=budget, observer=observer)
        if observer is not None:
            # Cold path (once per search): surface the validator's tier
            # counters so traces capture candidates/sec unit economics.
            stats = harness.validator.stats
            safe_notify(observer, LiftEvent("validator_stats", attrs={
                "candidates": stats.candidates,
                "screen_rejects": stats.screen_rejects,
                "exact_checks": stats.exact_checks,
                "seconds": state.outcome.elapsed_seconds,
            }))


#: The canonical stage sequence (stateless stage objects, shared freely).
STAGES: Tuple[Stage, ...] = (
    OracleStage(),
    TemplatizeStage(),
    DimensionStage(),
    GrammarStage(),
    SearchStage(),
)

#: The oracle-derived prefix of the pipeline (task x oracle only; no
#: config-derived artifacts).  Running exactly these stages populates a
#: state that any configuration can then re-search via ``fork()`` /
#: ``lift_from_state`` — the portfolio engine's one-query-many-searches
#: preparation step (:meth:`StaggSynthesizer.prepare_state`).
ORACLE_STAGES: Tuple[Stage, ...] = STAGES[:3]


@dataclass
class StaggPipeline:
    """Run the staged pipeline for one oracle + configuration pair."""

    oracle: LLMOracle
    config: StaggConfig
    stages: Sequence[Stage] = field(default=STAGES)

    def run(
        self,
        state: PipelineState,
        report: SynthesisReport,
        budget: Optional[Budget] = None,
        observer: Optional[LiftObserver] = None,
    ) -> Optional[SearchOutcome]:
        """Execute every stage whose artifacts are missing.

        Stage wall-clock goes into ``report.details["stage_timings"]``; a
        skipped stage records ``0.0`` (its cost was paid by the run that
        populated the state) and still annotates the report, so resumed
        reports carry the same fields as cold ones.  Raises
        :class:`~repro.lifting.budget.BudgetExceeded` when the budget
        expires at a stage boundary.
        """
        timings = report.details.setdefault("stage_timings", {})
        observer = bind(observer, task=state.task.name)
        for stage in self.stages:
            stage_attrs = {"stage": stage.name}
            if stage.populated(state):
                timings.setdefault(stage.name, 0.0)
                stage.annotate(state, report)
                safe_notify(observer, LiftEvent("stage_skipped", attrs=stage_attrs))
                continue
            if state.outcome is not None:
                # A tier-0 seed hit already produced the outcome; the
                # remaining stages' artifacts are unnecessary and absent,
                # so they are skipped without annotating (annotations read
                # artifacts this run never built).
                timings.setdefault(stage.name, 0.0)
                safe_notify(observer, LiftEvent("stage_skipped", attrs=stage_attrs))
                continue
            if budget is not None:
                budget.check()
            safe_notify(observer, LiftEvent("stage_started", attrs=stage_attrs))
            started = time.monotonic()
            stage.run(self, state, budget, observer)
            elapsed = time.monotonic() - started
            timings[stage.name] = elapsed
            stage.annotate(state, report)
            safe_notify(observer, LiftEvent(
                "stage_finished", attrs={"stage": stage.name, "seconds": elapsed}
            ))
        return state.outcome

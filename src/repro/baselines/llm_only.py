"""The "LLM only" baseline (Section 8).

The paper's weakest baseline feeds the legacy C program to GPT-4 (the same
Prompt 1 used by STAGG) and checks the returned candidates directly — no
grammar, no search.  A candidate counts as a solution when one of its
instantiations passes the I/O examples and bounded verification, exactly the
acceptance criterion used for STAGG's own candidates.
"""

from __future__ import annotations

from typing import Optional

from ..core.result import SynthesisReport
from ..core.task import LiftingTask
from ..core.templates import deduplicate, templatize_all
from ..core.verifier import VerifierConfig
from ..llm import LLMOracle, LiftingQuery
from .base import BaselineLifter, TaskContext


class LLMOnlyLifter(BaselineLifter):
    """Validate the raw LLM candidates without any search."""

    label = "LLM"

    def __init__(
        self,
        oracle: LLMOracle,
        num_io_examples: int = 3,
        verifier_config: Optional[VerifierConfig] = None,
        seed: int = 7,
        timeout_seconds: Optional[float] = None,
    ) -> None:
        super().__init__(num_io_examples, verifier_config, seed, timeout_seconds)
        self._oracle = oracle

    def _lift_with_context(
        self,
        task: LiftingTask,
        context: TaskContext,
        report: SynthesisReport,
        started: float,
    ) -> None:
        query = LiftingQuery(
            c_source=task.c_source,
            name=task.name,
            reference_solution=task.reference_solution,
        )
        response = self._oracle.propose(query, budget=context.budget)
        report.oracle_valid_candidates = response.num_valid
        report.oracle_rejected_candidates = response.num_rejected

        # Templatizing the candidates maps their (arbitrary) tensor names onto
        # symbolic variables, which lets the same validator search for the
        # correct binding of tensors to the C function's arguments.
        templates = deduplicate(templatize_all(response.candidates))
        for template in templates:
            if self._out_of_time(started, context.budget):
                report.timed_out = True
                return
            report.attempts += 1
            solved, validation, _verification = self._check(context, template.program)
            if solved and validation is not None:
                report.success = True
                report.template = template.program
                report.lifted_program = validation.concrete_program
                return

"""Similarity-seeded lifting: the ``seed`` pipeline stage.

When a :class:`~repro.core.config.StaggConfig` carries a
``retrieval_cache_dir``, the synthesizer prepends this stage to the
pipeline.  On each lift it retrieves the k nearest *solved* kernels from
the store's similarity index and uses them twice, mirroring the paper's
thesis that guidance — not search power — is what makes lifting
tractable:

* **Tier 0** — each neighbor's winning template is instantiated against
  the query task through the *existing* validate-then-verify checker
  (:func:`~repro.lifting.checking.check_candidate`), before any search.
  A hit fills ``state.outcome`` directly, so the oracle, grammar and
  search stages are skipped entirely — the semantic-cache fast path.
* **pCFG boost** — on a miss, the neighbors' templates are handed to the
  grammar stage (``state.seed_templates``), which counts their
  derivations into the learned production weights alongside the oracle's
  candidates.  Productions a similar solved kernel used get searched
  first; templates that do not fit the query's grammar contribute the
  rules they do use and nothing else (the Section 4.3 counting rule).

The stage is observational about the store: every accepted answer —
seeded or searched — passes the same acceptance criterion, which is why
the retrieval knobs are excluded from the config digest.

Cold-path cost: with no index (or no solved rows) ``Retriever.open``
returns ``None`` and the stage returns after one guarded check.
"""

from __future__ import annotations

import time
from typing import List, Optional

from ..core.events import LiftEvent, safe_notify
from ..core.search import SearchOutcome
from ..core.templates import Template, templatize
from ..lifting.checking import build_harness, check_candidate
from ..lifting.pipeline import Stage
from ..taco import parse_program
from .retriever import Retriever

#: Stage name (prefixed to the canonical five when retrieval is armed).
SEED_STAGE_NAME = "seed"


def _seeded(neighbors: int, hit: bool) -> LiftEvent:
    return LiftEvent("retrieval_seeded", attrs={"neighbors": neighbors, "hit": hit})


class SeedStage(Stage):
    """Stage 0 (optional): try retrieved neighbors before any search."""

    name = SEED_STAGE_NAME

    def populated(self, state) -> bool:
        return getattr(state, "seed_info", None) is not None

    def run(self, pipeline, state, budget, observer) -> None:
        config = pipeline.config
        info = {
            "armed": False,
            "neighbors": 0,
            "attempted": 0,
            "hit": False,
            "seed_task": None,
            "seed_digest": None,
        }
        state.seed_info = info
        retriever = Retriever.open(config.retrieval_cache_dir)
        if retriever is None:  # disarmed/cold: the one guarded check
            safe_notify(observer, _seeded(0, False))
            return
        info["armed"] = True
        neighbors = retriever.neighbors(state.task, k=config.retrieval_k)
        info["neighbors"] = len(neighbors)
        if not neighbors:
            safe_notify(observer, _seeded(0, False))
            return
        state.ensure_analysis()
        harness = build_harness(
            state.task,
            num_io_examples=config.num_io_examples,
            seed=config.seed,
            verifier_config=config.verifier,
            tiered=config.tiered_validation,
            function=state.function,
            signature=state.signature,
        )
        started = time.perf_counter()
        seed_templates: List[Template] = []
        for neighbor in neighbors:
            if budget is not None:
                budget.check()
            try:
                candidate = parse_program(neighbor.skeleton)
            except Exception:  # noqa: BLE001 - an unparseable row never aborts
                continue
            info["attempted"] += 1
            accepted, validation, verification = check_candidate(
                harness.validator,
                harness.verifier,
                candidate,
                budget=budget,
                observer=observer,
            )
            if accepted:
                state.outcome = SearchOutcome(
                    success=True,
                    template=candidate,
                    concrete_program=(
                        validation.concrete_program if validation else None
                    ),
                    validation=validation,
                    verification=verification,
                    candidates_tried=info["attempted"],
                    elapsed_seconds=time.perf_counter() - started,
                )
                info["hit"] = True
                info["seed_task"] = neighbor.task_name
                info["seed_digest"] = neighbor.digest
                break
            try:
                seed_templates.append(templatize(candidate))
            except Exception:  # noqa: BLE001 - boost is best-effort
                pass
        if not info["hit"] and seed_templates:
            state.seed_templates = seed_templates
        safe_notify(observer, _seeded(info["neighbors"], info["hit"]))

    def annotate(self, state, report) -> None:
        if getattr(state, "seed_info", None) is not None:
            report.details["retrieval"] = dict(state.seed_info)


def seeded_lifter(lifter, cache_dir, k: Optional[int] = None):
    """Arm *lifter* with retrieval over *cache_dir*, when it supports it.

    Only :class:`~repro.core.synthesizer.StaggSynthesizer` instances run
    the staged pipeline the seed stage plugs into; anything else (the
    baselines, portfolios) is returned unchanged.  The retrieval knobs
    are digest-excluded, so the armed lifter keeps the exact store
    identity of the plain one.
    """
    from dataclasses import replace

    from ..core.synthesizer import StaggSynthesizer

    if not isinstance(lifter, StaggSynthesizer):
        return lifter
    overrides = {"retrieval_cache_dir": str(cache_dir)}
    if k is not None:
        overrides["retrieval_k"] = k
    return StaggSynthesizer(lifter.oracle, replace(lifter.config, **overrides))

"""Configuration of the STAGG synthesizer, including every ablation knob.

The evaluation of the paper compares a matrix of configurations:

==============================  ==================  ===================
Name (paper)                    grammar_mode        probability_mode
==============================  ==================  ===================
STAGG (TD / BU)                 ``"refined"``       ``"learned"``
STAGG.EqualProbability          ``"refined"``       ``"equal"``
STAGG.LLMGrammar                ``"full"``          ``"learned"``
STAGG.FullGrammar               ``"full"``          ``"equal"``
==============================  ==================  ===================

plus the penalty-dropping variants of Table 2 (``Drop(A)``, ``Drop(a1)``,
..., ``Drop(B)``, ``Drop(b1)``, ``Drop(b2)``), which are expressed through
:class:`repro.core.penalties.PenaltyConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional

from .jsonutil import jsonable
from .penalties import BOTTOMUP_CRITERIA, PenaltyConfig, TOPDOWN_CRITERIA
from .search import SearchLimits
from .verifier import VerifierConfig

#: Valid values for the search strategy.
SEARCH_STYLES = ("topdown", "bottomup")
#: Valid values for the grammar mode.
GRAMMAR_MODES = ("refined", "full")
#: Valid values for the probability mode.
PROBABILITY_MODES = ("learned", "equal")


@dataclass(frozen=True)
class StaggConfig:
    """Full configuration of one STAGG run."""

    #: Which A* search to use: ``"topdown"`` (Section 5.1) or ``"bottomup"``
    #: (Section 5.2).
    search: str = "topdown"
    #: ``"refined"`` uses the dimension-list-restricted grammar of
    #: Section 4.2.4; ``"full"`` uses the unrefined template grammar
    #: (FullGrammar / LLMGrammar ablations).
    grammar_mode: str = "refined"
    #: ``"learned"`` normalises candidate-derivation counts into the pCFG
    #: (Section 4.3); ``"equal"`` assigns uniform probabilities.
    probability_mode: str = "learned"
    #: Which penalty criteria are disabled (Table 2 ablations).
    penalties: PenaltyConfig = field(default_factory=PenaltyConfig)
    #: Number of I/O examples generated for validation.
    num_io_examples: int = 3
    #: Search resource limits.
    limits: SearchLimits = field(default_factory=SearchLimits)
    #: Bounded-verification configuration.
    verifier: VerifierConfig = field(default_factory=VerifierConfig)
    #: Seed for I/O example generation.
    seed: int = 7
    #: Parameters of the unrefined grammar (only used when grammar_mode="full").
    full_grammar_max_tensors: int = 3
    full_grammar_max_rank: int = 2
    full_grammar_num_indices: int = 3
    #: Human-readable label used in evaluation tables.
    label: str = "STAGG_TD"
    #: Result-store root whose similarity index seeds this lift (None
    #: disarms retrieval entirely).  Observational guidance: seeded
    #: answers pass the same validate-then-verify acceptance as searched
    #: ones, so the knob is digest-excluded.
    retrieval_cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.search not in SEARCH_STYLES:
            raise ValueError(f"search must be one of {SEARCH_STYLES}, got {self.search!r}")
        if self.grammar_mode not in GRAMMAR_MODES:
            raise ValueError(
                f"grammar_mode must be one of {GRAMMAR_MODES}, got {self.grammar_mode!r}"
            )
        if self.probability_mode not in PROBABILITY_MODES:
            raise ValueError(
                f"probability_mode must be one of {PROBABILITY_MODES}, "
                f"got {self.probability_mode!r}"
            )

    # ------------------------------------------------------------------ #
    # Named configurations used by the evaluation
    # ------------------------------------------------------------------ #
    @classmethod
    def topdown(cls, **overrides) -> "StaggConfig":
        """STAGG_TD: the full top-down configuration."""
        return cls(search="topdown", label="STAGG_TD", **overrides)

    @classmethod
    def bottomup(cls, **overrides) -> "StaggConfig":
        """STAGG_BU: the full bottom-up configuration."""
        return cls(search="bottomup", label="STAGG_BU", **overrides)

    def with_equal_probability(self) -> "StaggConfig":
        """The ``EqualProbability`` ablation of this configuration."""
        return replace(
            self, probability_mode="equal", label=f"{self.label}.EqualProbability"
        )

    def with_llm_grammar(self) -> "StaggConfig":
        """The ``LLMGrammar`` ablation: full grammar + learned probabilities."""
        return replace(
            self, grammar_mode="full", probability_mode="learned",
            label=f"{self.label}.LLMGrammar",
        )

    def with_full_grammar(self) -> "StaggConfig":
        """The ``FullGrammar`` ablation: full grammar + equal probabilities."""
        return replace(
            self, grammar_mode="full", probability_mode="equal",
            label=f"{self.label}.FullGrammar",
        )

    def with_dropped_penalties(self, *names: str) -> "StaggConfig":
        """Drop specific penalty criteria (``Drop(a1)``, ``Drop(B)``, ...)."""
        expanded = []
        for name in names:
            if name.upper() == "A":
                expanded.extend(TOPDOWN_CRITERIA)
            elif name.upper() == "B":
                expanded.extend(BOTTOMUP_CRITERIA)
            else:
                expanded.append(name)
        suffix = ",".join(names)
        return replace(
            self,
            penalties=PenaltyConfig.drop(*expanded),
            label=f"{self.label}.Drop({suffix})",
        )

    def with_label(self, label: str) -> "StaggConfig":
        return replace(self, label=label)

    def with_limits(self, limits: SearchLimits) -> "StaggConfig":
        return replace(self, limits=limits)

    # ------------------------------------------------------------------ #
    # Identity for the lifting service's content-addressed store
    # ------------------------------------------------------------------ #
    def digest_dict(self) -> Dict[str, object]:
        """A JSON-safe dictionary of every knob that affects the outcome.

        Two configurations with equal ``digest_dict()`` produce the same
        synthesis result for the same task and oracle, so the lifting
        service keys its result store on (a hash of) this dictionary.  The
        ``label`` is deliberately included: evaluation records carry the
        method label, and a store entry must replay records verbatim.

        ``limits.progress_interval`` is deliberately *excluded*: heartbeat
        cadence is observational and must never retire store digests.
        ``retrieval_cache_dir`` is excluded for the same reason: retrieval
        only reorders *which* verified answer is found first — every
        accepted answer passed the same validate-then-verify criterion —
        so arming it must never retire store digests either.
        """
        digest = jsonable(self)
        limits = digest.get("limits")
        if isinstance(limits, dict):
            limits.pop("progress_interval", None)
        digest.pop("retrieval_cache_dir", None)
        return digest

"""The method registry: one construction path for every lifting method.

Before this module, the CLI, the evaluation harness and the HTTP service
each hand-built lifters with their own (divergent) config plumbing — the
service could only serve STAGG, and the three paths disagreed on search
limits and verifier bounds.  Now every consumer resolves methods by name:

    >>> from repro.lifting import resolve_method
    >>> lifter = resolve_method("STAGG_TD", timeout_seconds=10.0)
    >>> report = lifter.lift(task)

Registered names cover the full evaluation matrix: ``STAGG_TD`` /
``STAGG_BU``, the grammar/probability ablations (``.EqualProbability``,
``.LLMGrammar``, ``.FullGrammar``), the Table-2 penalty drops
(``.Drop(A)``, ``.Drop(a1)`` ... ``.Drop(b2)``) and the baselines (``LLM``,
``C2TACO``, ``C2TACO.NoHeuristics``, ``Tenspiler``).  Registry names equal
the labels the methods report, so evaluation tables, store provenance and
HTTP payloads all speak the same vocabulary.

Because every consumer resolves through the same factory with the same
canonical defaults (:func:`default_limits`, :func:`default_verifier_config`),
constructing a method by name yields an identical
:func:`~repro.lifting.descriptor.describe_lifter` descriptor — and therefore
an identical result-store digest — no matter which layer asked.  That
parity is what keeps the service's O(1) store replay sound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..core.config import StaggConfig
from ..core.search import SearchLimits
from ..core.verifier import VerifierConfig
from .executor import ExecutionConfig

#: Candidate budget for the enumerative baselines.  The published C2TACO pays
#: one TACO-compiler compile-and-run per candidate (roughly 1.5 s), so the
#: paper's 60-minute per-query budget corresponds to ~2400 candidates.  The
#: reproduction executes candidates orders of magnitude faster, so without
#: this cap the baselines would effectively enjoy a budget of many hours and
#: their coverage relative to STAGG would be misrepresented.
BASELINE_CANDIDATE_BUDGET = 2_400


def default_verifier_config() -> VerifierConfig:
    """Verifier bounds used across the evaluation (small but meaningful)."""
    return VerifierConfig(size_bound=2, exhaustive_cap=729, sampled_checks=24)


def default_limits(timeout_seconds: Optional[float]) -> SearchLimits:
    """Search resource limits every registry-resolved STAGG method uses."""
    return SearchLimits(
        max_expansions=120_000,
        max_candidates=2_400,
        timeout_seconds=timeout_seconds,
    )


@dataclass(frozen=True)
class MethodContext:
    """Everything a method factory may consume when building a lifter.

    The context is the *whole* construction surface: factories must not read
    globals or invent their own defaults, or the digest-parity guarantee
    (equal name + equal context ⇒ equal descriptor) breaks.
    """

    oracle: object
    timeout_seconds: Optional[float]
    seed: int
    limits: SearchLimits
    verifier: VerifierConfig
    #: How the built lifter should run parallel work.  Digest-excluded (like
    #: budgets): the backend changes wall-clock, never outcomes, so factories
    #: must keep it out of every descriptor they compose.
    execution: Optional[ExecutionConfig] = None


#: A method factory: build one lifter from a resolved context.
MethodFactory = Callable[[MethodContext], object]


@dataclass(frozen=True)
class MethodSpec:
    """One registered lifting method.

    Every method runs under either execution backend; only ``portfolio``
    methods do parallel work of their own (they race their members on it).
    """

    name: str
    factory: MethodFactory
    kind: str  # "stagg" | "baseline" | "portfolio"
    description: str = ""


#: Valid method kinds (``portfolio`` methods compose other registered ones).
METHOD_KINDS = ("stagg", "baseline", "portfolio")

_REGISTRY: Dict[str, MethodSpec] = {}
#: Bumped by every registration, so a memo keyed on it (the service's request
#: digests) never outlives a rebound name.
_generation = 0


def register_method(
    name: str,
    factory: MethodFactory,
    *,
    kind: str = "stagg",
    description: str = "",
    replace: bool = False,
) -> MethodSpec:
    """Register *factory* under *name*; names are unique unless ``replace``."""
    if kind not in METHOD_KINDS:
        raise ValueError(f"kind must be one of {METHOD_KINDS}, got {kind!r}")
    if name in _REGISTRY and not replace:
        raise ValueError(
            f"method {name!r} is already registered; pass replace=True to override"
        )
    global _generation
    spec = MethodSpec(name=name, factory=factory, kind=kind, description=description)
    _REGISTRY[name] = spec
    _generation += 1
    return spec


def registry_generation() -> int:
    """How many registrations the registry has seen (it only grows)."""
    return _generation


def method_names(kind: Optional[str] = None) -> List[str]:
    """All registered method names (optionally one kind), in registration order."""
    return [
        spec.name for spec in _REGISTRY.values() if kind is None or spec.kind == kind
    ]


def method_spec(name: str) -> MethodSpec:
    """The spec registered under *name* (KeyError lists valid names).

    Names in the ``Portfolio(<member>,...)`` syntax resolve to a transient
    portfolio spec without registration, so every consumer accepts ad-hoc
    portfolios over registered members (see :mod:`repro.portfolio.spec`).
    """
    spec = _REGISTRY.get(name)
    if spec is None:
        # Imported lazily: the portfolio package composes registered
        # methods, so it imports this module (not the other way around).
        # maybe_portfolio_spec owns the syntax check (None for plain names,
        # a specific KeyError for malformed Portfolio(... specs).
        from ..portfolio.spec import maybe_portfolio_spec

        spec = maybe_portfolio_spec(name)
    if spec is None:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown lifting method {name!r}; registered: {known}")
    return spec


def resolve_method(
    name: str,
    *,
    oracle: Optional[object] = None,
    timeout_seconds: Optional[float] = 60.0,
    seed: int = 7,
    oracle_seed: Optional[int] = None,
    limits: Optional[SearchLimits] = None,
    verifier: Optional[VerifierConfig] = None,
    execution: Optional[ExecutionConfig] = None,
) -> object:
    """Build the lifter registered under *name*.

    This is the single construction path for the CLI, the evaluation runner
    and the HTTP service.  Overrides:

    ``oracle``
        A ready oracle instance; when None a :class:`SyntheticOracle` is
        built (seeded by ``oracle_seed`` when given).
    ``timeout_seconds``
        Per-query wall-clock budget, baked into both the search limits and
        the baselines' loop checks (a cooperative :class:`Budget` passed to
        ``lift()`` additionally bounds one invocation from outside).
    ``seed``
        I/O-example generation seed.
    ``limits`` / ``verifier``
        Explicit :class:`SearchLimits` / :class:`VerifierConfig`; default to
        the canonical :func:`default_limits` / :func:`default_verifier_config`.
    ``execution``
        An :class:`~repro.lifting.executor.ExecutionConfig` selecting the
        parallelism backend for methods that run parallel work (portfolio
        races).  Digest-excluded: it never changes the
        descriptor, so thread- and process-backed runs share a store digest.
    """
    spec = method_spec(name)
    if oracle is None:
        from ..llm.config import OracleConfig
        from ..llm.synthetic import SyntheticOracle

        config = OracleConfig(seed=oracle_seed) if oracle_seed is not None else OracleConfig()
        oracle = SyntheticOracle(config)
    context = MethodContext(
        oracle=oracle,
        timeout_seconds=timeout_seconds,
        seed=seed,
        limits=limits if limits is not None else default_limits(timeout_seconds),
        verifier=verifier if verifier is not None else default_verifier_config(),
        execution=execution,
    )
    return spec.factory(context)


def resolve_methods(names, **overrides) -> Dict[str, object]:
    """Resolve several registry names into a ``{name: lifter}`` mapping."""
    return {name: resolve_method(name, **overrides) for name in names}


# ---------------------------------------------------------------------- #
# Built-in method registrations
# ---------------------------------------------------------------------- #
def _stagg_factory(configure: Callable[[StaggConfig], StaggConfig]) -> MethodFactory:
    """A factory for one STAGG configuration (base config + ablation)."""

    def factory(context: MethodContext) -> object:
        # Imported lazily: core.synthesizer resolves the pipeline through
        # this package at lift time, so the registry must not import it at
        # module scope.
        from ..core.synthesizer import StaggSynthesizer

        base = StaggConfig(
            search="topdown",
            limits=context.limits,
            verifier=context.verifier,
            seed=context.seed,
        )
        return StaggSynthesizer(context.oracle, configure(base))

    return factory


def _register_stagg_methods() -> None:
    topdown = lambda config: config  # noqa: E731 - table-driven registration
    bottomup = lambda config: StaggConfig.bottomup(  # noqa: E731
        limits=config.limits,
        verifier=config.verifier,
        seed=config.seed,
    )
    bases = {
        "STAGG_TD": ("top-down weighted A* over the refined grammar", topdown),
        "STAGG_BU": ("bottom-up chain enumeration over the refined grammar", bottomup),
    }
    for name, (description, to_base) in bases.items():
        register_method(
            name, _stagg_factory(to_base), kind="stagg", description=description
        )
        register_method(
            f"{name}.EqualProbability",
            _stagg_factory(lambda c, f=to_base: f(c).with_equal_probability()),
            kind="stagg",
            description=f"{name} with uniform pCFG probabilities",
        )
        register_method(
            f"{name}.LLMGrammar",
            _stagg_factory(lambda c, f=to_base: f(c).with_llm_grammar()),
            kind="stagg",
            description=f"{name} over the unrefined grammar, learned probabilities",
        )
        register_method(
            f"{name}.FullGrammar",
            _stagg_factory(lambda c, f=to_base: f(c).with_full_grammar()),
            kind="stagg",
            description=f"{name} over the unrefined grammar, equal probabilities",
        )
    for drop in ("A", "a1", "a2", "a3", "a4", "a5"):
        register_method(
            f"STAGG_TD.Drop({drop})",
            _stagg_factory(lambda c, d=drop: c.with_dropped_penalties(d)),
            kind="stagg",
            description=f"STAGG_TD without penalty criterion {drop} (Table 2)",
        )
    for drop in ("B", "b1", "b2"):
        register_method(
            f"STAGG_BU.Drop({drop})",
            _stagg_factory(
                lambda c, d=drop, f=bottomup: f(c).with_dropped_penalties(d)
            ),
            kind="stagg",
            description=f"STAGG_BU without penalty criterion {drop} (Table 2)",
        )


def _register_baseline_methods() -> None:
    def llm_only(context: MethodContext) -> object:
        from ..baselines.llm_only import LLMOnlyLifter

        return LLMOnlyLifter(
            context.oracle,
            verifier_config=context.verifier,
            seed=context.seed,
            timeout_seconds=context.timeout_seconds,
        )

    def c2taco(context: MethodContext, use_heuristics: bool = True) -> object:
        from ..baselines.c2taco import C2TacoLifter

        return C2TacoLifter(
            use_heuristics=use_heuristics,
            verifier_config=context.verifier,
            seed=context.seed,
            timeout_seconds=context.timeout_seconds,
            max_candidates=BASELINE_CANDIDATE_BUDGET,
        )

    def tenspiler(context: MethodContext) -> object:
        from ..baselines.tenspiler import TenspilerLifter

        return TenspilerLifter(
            verifier_config=context.verifier,
            seed=context.seed,
            timeout_seconds=context.timeout_seconds,
        )

    register_method(
        "LLM",
        llm_only,
        kind="baseline",
        description="validate raw LLM candidates, no search (Section 8)",
    )
    register_method(
        "C2TACO",
        lambda context: c2taco(context, use_heuristics=True),
        kind="baseline",
        description="bottom-up enumerative baseline with code-analysis heuristics",
    )
    register_method(
        "C2TACO.NoHeuristics",
        lambda context: c2taco(context, use_heuristics=False),
        kind="baseline",
        description="C2TACO without the analysis-derived restrictions",
    )
    register_method(
        "Tenspiler",
        tenspiler,
        kind="baseline",
        description="verified lifting over a fixed operator-template library",
    )


def _register_portfolio_methods() -> None:
    # Imported lazily (bottom of this module): repro.portfolio composes
    # registered methods via this registry, so the import must run after
    # the registry's own surface is fully defined.
    from ..portfolio.spec import register_portfolio

    register_portfolio(
        "Portfolio.Default",
        ("STAGG_TD", "STAGG_BU"),
        description=(
            "race STAGG_TD and STAGG_BU under one budget; first verified "
            "win, shared oracle state (ad-hoc: Portfolio(<member>,...))"
        ),
    )


_register_stagg_methods()
_register_baseline_methods()
_register_portfolio_methods()


#: The six methods of Figures 9-10 / Table 1.
STANDARD_METHODS = (
    "STAGG_TD",
    "STAGG_BU",
    "LLM",
    "C2TACO",
    "C2TACO.NoHeuristics",
    "Tenspiler",
)

#: The Table-2 configurations: full STAGG plus penalty-dropping variants.
PENALTY_ABLATION_METHODS = (
    "STAGG_TD",
    "STAGG_TD.Drop(A)",
    "STAGG_TD.Drop(a1)",
    "STAGG_TD.Drop(a2)",
    "STAGG_TD.Drop(a3)",
    "STAGG_TD.Drop(a4)",
    "STAGG_TD.Drop(a5)",
    "STAGG_BU",
    "STAGG_BU.Drop(B)",
    "STAGG_BU.Drop(b1)",
    "STAGG_BU.Drop(b2)",
)

#: The Table-3 / Figure-11 / Figure-12 grammar configurations.
GRAMMAR_ABLATION_METHODS = (
    "STAGG_TD",
    "STAGG_TD.EqualProbability",
    "STAGG_TD.LLMGrammar",
    "STAGG_TD.FullGrammar",
    "STAGG_BU",
    "STAGG_BU.EqualProbability",
    "STAGG_BU.LLMGrammar",
    "STAGG_BU.FullGrammar",
)


#: Legacy request-shape mapping: (search, grammar_mode, probability_mode) →
#: registry name, used by the service and CLI to keep pre-registry payloads
#: and flags working.
_LEGACY_SHAPES = {
    ("topdown", "refined", "learned"): "STAGG_TD",
    ("topdown", "refined", "equal"): "STAGG_TD.EqualProbability",
    ("topdown", "full", "learned"): "STAGG_TD.LLMGrammar",
    ("topdown", "full", "equal"): "STAGG_TD.FullGrammar",
    ("bottomup", "refined", "learned"): "STAGG_BU",
    ("bottomup", "refined", "equal"): "STAGG_BU.EqualProbability",
    ("bottomup", "full", "learned"): "STAGG_BU.LLMGrammar",
    ("bottomup", "full", "equal"): "STAGG_BU.FullGrammar",
}


def method_name_for(
    search: str = "topdown", grammar: str = "refined", probabilities: str = "learned"
) -> str:
    """The registry name a legacy (search, grammar, probabilities) shape means."""
    try:
        return _LEGACY_SHAPES[(search, grammar, probabilities)]
    except KeyError:
        raise ValueError(
            f"no registered method for search={search!r}, grammar={grammar!r}, "
            f"probabilities={probabilities!r}"
        ) from None

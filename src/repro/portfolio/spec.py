"""Portfolio specs: the ``Portfolio(...)`` name syntax and registration.

A portfolio is named by its member list: ``Portfolio(STAGG_TD,STAGG_BU)``
races exactly those two registered methods, in that order (the order is the
deterministic tie-break, so it is part of the method's identity).  Names are
canonicalised — whitespace around members is insignificant — and the
canonical label is what reports, evaluation tables and store digests carry,
so ``Portfolio(STAGG_TD, STAGG_BU)`` and ``Portfolio(STAGG_TD,STAGG_BU)``
address the same store entry.

Two ways to get a portfolio from the registry:

* **Ad hoc:** any ``Portfolio(<member>,<member>,...)`` string resolves
  directly — :func:`repro.lifting.resolve_method` falls back to
  :func:`maybe_portfolio_spec` for names in this syntax, so every consumer
  (CLI ``--method``, evaluation, HTTP ``/submit``) accepts them without
  pre-registration.
* **Named:** :func:`register_portfolio` registers a portfolio under a plain
  name (``Portfolio.Default`` is the canonical built-in, listed by ``repro
  methods``).

Members must be registered non-portfolio methods; nesting portfolios adds
no power (racing is flat) and is rejected with a clear error.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

# Imported as explicit submodules (not via the ``repro.lifting`` package
# __init__): the registry imports this module while ``repro.lifting`` is
# still initialising, and the submodule path resolves through sys.modules
# even mid-initialisation.
from ..lifting.registry import MethodContext, MethodSpec, method_spec

#: The syntactic marker of an ad-hoc portfolio name.
PORTFOLIO_PREFIX = "Portfolio("


def is_portfolio_name(name: str) -> bool:
    """True when *name* uses the ``Portfolio(...)`` spec syntax."""
    stripped = name.strip()
    return stripped.startswith(PORTFOLIO_PREFIX) and stripped.endswith(")")


def _split_members(body: str) -> List[str]:
    """Split *body* on top-level commas (member names may contain parens)."""
    members: List[str] = []
    depth = 0
    current: List[str] = []
    for char in body:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth < 0:
                raise KeyError(f"unbalanced parentheses in portfolio spec {body!r}")
        if char == "," and depth == 0:
            members.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    if depth != 0:
        raise KeyError(f"unbalanced parentheses in portfolio spec {body!r}")
    members.append("".join(current).strip())
    return members


def parse_portfolio_name(name: str) -> Tuple[str, ...]:
    """The ordered member names a ``Portfolio(...)`` spec string selects.

    Raises :class:`KeyError` (the registry's lookup-failure type, so service
    submissions turn it into HTTP 400) for malformed specs; member *names*
    are validated separately by :func:`validate_members`.
    """
    stripped = name.strip()
    if not is_portfolio_name(stripped):
        raise KeyError(
            f"not a portfolio spec: {name!r} (expected Portfolio(<member>,...))"
        )
    body = stripped[len(PORTFOLIO_PREFIX) : -1]
    members = _split_members(body)
    if any(not member for member in members):
        raise KeyError(
            f"portfolio spec {name!r} has an empty member name "
            f"(expected Portfolio(<member>,<member>,...))"
        )
    return tuple(members)


def portfolio_label(members: Sequence[str]) -> str:
    """The canonical label of a portfolio over *members* (order-preserving)."""
    return f"Portfolio({','.join(members)})"


def _default_description(members: Sequence[str]) -> str:
    """The registry description ad-hoc and named portfolios share."""
    return f"race {', '.join(members)} under one budget (first verified win)"


def validate_members(members: Sequence[str]) -> Tuple[str, ...]:
    """Check every member is a registered, non-portfolio method."""
    if not members:
        raise KeyError("a portfolio needs at least one member method")
    seen = set()
    for member in members:
        if member in seen:
            raise KeyError(
                f"portfolio member {member!r} listed twice; racing a method "
                f"against itself cannot change the outcome"
            )
        seen.add(member)
        spec = method_spec(member)  # raises KeyError listing registered names
        if spec.kind == "portfolio":
            raise KeyError(
                f"portfolio member {member!r} is itself a portfolio; racing "
                f"is flat — list its members directly instead"
            )
    return tuple(members)


def portfolio_factory(members: Sequence[str], label: Optional[str] = None):
    """A registry factory building a :class:`PortfolioLifter` over *members*.

    Every member is constructed from the *same* :class:`MethodContext` —
    one oracle instance, one set of limits/verifier bounds — which is what
    keeps the portfolio's composed descriptor (and therefore its store
    digest) identical no matter which consumer layer resolved it.  Callers
    (:func:`register_portfolio`, :func:`maybe_portfolio_spec`) validate the
    member list *before* building the factory, so failures are eager.
    """
    members = tuple(members)
    resolved_label = label if label is not None else portfolio_label(members)

    def factory(context: MethodContext) -> object:
        from .lifter import PortfolioLifter

        built = [
            (member, method_spec(member).factory(context)) for member in members
        ]
        return PortfolioLifter(
            built,
            label=resolved_label,
            timeout_seconds=context.timeout_seconds,
            execution=context.execution,
        )

    return factory


def maybe_portfolio_spec(name: str) -> Optional[MethodSpec]:
    """A transient :class:`MethodSpec` for an ad-hoc ``Portfolio(...)`` name.

    Returns ``None`` when *name* does not start with ``Portfolio(`` (the
    registry then reports its normal unknown-method error); a name that
    *does* but is malformed — unclosed parenthesis, empty member — raises
    the parser's specific :class:`KeyError` rather than being mistaken for
    an unknown plain method.  The spec is *not* added to the registry:
    ad-hoc portfolios resolve on demand and only named registrations
    (``register_portfolio``) appear in ``repro methods``.
    """
    if not name.strip().startswith(PORTFOLIO_PREFIX):
        return None
    members = validate_members(parse_portfolio_name(name))
    label = portfolio_label(members)
    return MethodSpec(
        name=label,
        factory=portfolio_factory(members, label=label),
        kind="portfolio",
        description=_default_description(members),
    )


def register_portfolio(
    name: str,
    members: Sequence[str],
    *,
    description: str = "",
    replace: bool = False,
) -> MethodSpec:
    """Register a named portfolio over *members* (order = tie-break order).

    Members are validated eagerly — an unknown or nested member fails here,
    not on the portfolio's first resolve.
    """
    from ..lifting.registry import register_method

    members = validate_members(tuple(members))
    if not description:
        description = _default_description(members)
    return register_method(
        name,
        portfolio_factory(members, label=name),
        kind="portfolio",
        description=description,
        replace=replace,
    )

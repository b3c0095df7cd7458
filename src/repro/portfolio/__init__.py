"""Portfolio lifting: race registered methods under a shared budget.

The paper's evaluation shows no single STAGG configuration dominating, so
this package races several registered methods against one task and keeps
the first validated+verified program ("first win"), cancelling the losers
cooperatively.  Oracle-derived pipeline artifacts are shared across all
STAGG members — one LLM query, many searches.

* :class:`PortfolioLifter` — the :class:`repro.lifting.Lifter` implementing
  the race (usable anywhere a method is: CLI, evaluation, HTTP service).
* :class:`MemberScheduler` — the race loop: per-member deadlines from the
  shared window, first-win cancellation through one shared token, one
  results queue and collector, deterministic tie-break by member order.
  Members race on threads.
* :class:`ProcessMemberScheduler` — the same loop with members in worker
  processes (one core per member), selected by building the portfolio
  with ``ExecutionConfig(backend="processes")`` — see
  :mod:`repro.lifting.executor`.
* :mod:`.spec` — the ``Portfolio(A,B,...)`` name syntax
  (:func:`parse_portfolio_name`) and :func:`register_portfolio` for named
  portfolios (``Portfolio.Default`` is the canonical built-in).

See ROADMAP.md ("Portfolio") for spec syntax, digest rules, first-win
semantics and the warm-cache caveat.
"""

from .lifter import PortfolioLifter
from .process_scheduler import ProcessMemberScheduler
from .scheduler import MemberRun, MemberScheduler
from .spec import (
    PORTFOLIO_PREFIX,
    is_portfolio_name,
    parse_portfolio_name,
    portfolio_label,
    register_portfolio,
)

__all__ = [
    "PortfolioLifter",
    "MemberRun",
    "MemberScheduler",
    "ProcessMemberScheduler",
    "PORTFOLIO_PREFIX",
    "is_portfolio_name",
    "parse_portfolio_name",
    "portfolio_label",
    "register_portfolio",
]

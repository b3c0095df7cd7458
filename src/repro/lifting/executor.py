"""The execution-selection surface: one knob, one meaning, every consumer.

An :class:`ExecutionConfig` names the backend a *method* runs its parallel
work on: ``backend`` picks threads or processes and ``workers`` sizes the
pool.  Every consumer resolves the same object through
``resolve_method(..., execution=...)``.  Portfolios are the only methods
with parallel work of their own: a
:class:`~repro.portfolio.PortfolioLifter` races its members on that
backend, and every other method runs the same way under either.  The
outer layers only add a pool size on top: the
:class:`~repro.evaluation.runner.EvaluationRunner` fans sweep cells over a
``workers``-sized pool of the same backend, and the lifting service runs
``workers`` scheduler *threads* whose jobs each carry the config into
their method.

Like budgets, the execution backend is **digest-excluded**: it changes
wall-clock, never outcomes, so two runs of the same method under different
backends share a result-store digest (no lifter but the portfolio keeps
the config, and the portfolio descriptor never emits it).

Cross-process cancellation rides the existing cooperative poll points: a
:class:`TokenBudget` wraps a ``multiprocessing.Event`` shared between the
parent and every racing child, so the first win flips one token and every
loser winds down at its next ``Budget.expired()`` poll — the same places
thread races already poll.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from .budget import Budget

#: The two supported pool backends.
BACKENDS = ("threads", "processes")

#: Fallback worker count when the platform refuses to report one.
_DEFAULT_WORKERS = 2


@dataclass(frozen=True)
class ExecutionConfig:
    """How a consumer runs parallel work: which pool, how many workers.

    ``workers=None`` means "size to the machine" (``os.cpu_count()``).
    The object is frozen and picklable so it can cross process boundaries
    and be stored on method contexts without aliasing hazards.
    """

    backend: str = "threads"
    workers: Optional[int] = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown execution backend {self.backend!r}; "
                f"expected one of {', '.join(BACKENDS)}"
            )
        if self.workers is not None and self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @property
    def uses_processes(self) -> bool:
        return self.backend == "processes"

    def resolved_workers(self, ceiling: Optional[int] = None) -> int:
        """The concrete pool size: explicit, else the machine's core count."""
        workers = self.workers or os.cpu_count() or _DEFAULT_WORKERS
        if ceiling is not None:
            workers = min(workers, ceiling)
        return max(1, workers)

    def spec(self) -> str:
        """The canonical ``backend[:N]`` rendering (round-trips the parser)."""
        if self.workers is None:
            return self.backend
        return f"{self.backend}:{self.workers}"


def parse_executor_spec(spec: str) -> ExecutionConfig:
    """Parse the CLI surface: ``threads``, ``processes``, or ``backend:N``.

    Raises ``ValueError`` with the offending text for anything else, so
    argparse renders a usable message.
    """
    text = (spec or "").strip()
    backend, sep, count = text.partition(":")
    workers: Optional[int] = None
    if sep:
        try:
            workers = int(count)
        except ValueError:
            raise ValueError(
                f"invalid worker count {count!r} in executor spec {spec!r}; "
                "expected threads|processes[:N]"
            ) from None
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown executor backend {backend!r} in spec {spec!r}; "
            "expected threads|processes[:N]"
        )
    try:
        return ExecutionConfig(backend=backend, workers=workers)
    except ValueError as exc:
        raise ValueError(f"invalid executor spec {spec!r}: {exc}") from None


class TokenBudget(Budget):
    """A budget that also honours a shared cross-process cancel token.

    Child processes in a portfolio race receive one of these instead of a
    plain :class:`Budget`: ``expired()`` — the primitive every existing poll
    point calls — additionally checks a ``multiprocessing.Event`` owned by
    the parent, so the first win (or a parent-side timeout) stops every
    sibling at its next poll without any new poll sites.
    """

    __slots__ = ("_token",)

    def __init__(self, timeout_seconds: Optional[float], token: object) -> None:
        super().__init__(timeout_seconds)
        self._token = token

    @property
    def cancelled(self) -> bool:
        return super().cancelled or bool(self._token.is_set())

    def remaining(self) -> Optional[float]:
        if self._token.is_set():
            return 0.0
        return super().remaining()

    def expired(self) -> bool:
        if self._token.is_set():
            return True
        return super().expired()

"""The process backend of the portfolio race: one core per member.

Threads are throttled by the GIL: racing members spend their time in
Python-level search and validation loops, so N threads share one core and
the race costs roughly the *sum* of the members' work instead of the max.
:class:`ProcessMemberScheduler` runs the same race loop as
:class:`~.scheduler.MemberScheduler` — same member entry point, token,
results queue, collector and join-all — and overrides only the backend
hooks, so each member runs in its own ``multiprocessing.Process``:

* **Explicit serialization, loud failures.**  The parent pickles the
  oracle-derived :class:`~repro.lifting.pipeline.PipelineState` exactly once
  (via :func:`~repro.lifting.pipeline.ensure_picklable`, which names the
  offending field on failure), the task once and each member lifter once;
  children rebuild config-derived artifacts themselves
  (``lift_from_state`` starts from ``reset_derived()``), so nothing
  config-derived ever crosses the boundary.
* **Cross-process token and queue.**  The shared token is a
  ``multiprocessing.Event`` and the results queue a
  ``multiprocessing.Queue``; members poll the token through their
  :class:`~repro.lifting.executor.TokenBudget` at the existing poll points.
* **Terminate after grace.**  A child that ignores the token past the join
  grace window is terminated; a child that died without reporting is
  declared lost with its exit code.
"""

from __future__ import annotations

import multiprocessing
import pickle
from typing import List, Optional, Sequence, Tuple

from ..lifting.pipeline import PipelineState, ensure_picklable
from .scheduler import MemberScheduler, _race_member


def _pickle_lifter(name: str, lifter: object) -> bytes:
    """Serialize one member lifter, failing loudly with the member's name."""
    try:
        return pickle.dumps(lifter)
    except Exception as cause:  # noqa: BLE001 - re-raised with context
        raise TypeError(
            f"portfolio member {name!r} ({type(lifter).__qualname__}) is not "
            f"picklable and cannot race in a worker process: {cause}. "
            "Keep live handles out of lifter state or use the thread backend."
        ) from cause


class ProcessMemberScheduler(MemberScheduler):
    """Race member lifters in worker processes with first-win cancel.

    The race spawns one process per member (a portfolio rarely has more
    members than the machine has cores; the OS timeshares otherwise) —
    ``ExecutionConfig.workers`` sizes *pools* (evaluation, service threads,
    shard validation), not the race fan-out, which is fixed by the member
    list.
    """

    def _pack(
        self,
        members: Sequence[Tuple[str, object]],
        task: object,
        shared_state: Optional[PipelineState],
    ) -> Tuple[List[object], Optional[object], object]:
        """(lifters, state, task), each pickled once in the parent."""
        lifters = [_pickle_lifter(name, lifter) for name, lifter in members]
        state = ensure_picklable(shared_state) if shared_state is not None else None
        return lifters, state, pickle.dumps(task)

    def _channel(self) -> Tuple[object, object]:
        return multiprocessing.Event(), multiprocessing.Queue()

    def _spawn(self, name: str, args: tuple) -> multiprocessing.Process:
        worker = multiprocessing.Process(
            target=_race_member, args=args, name=name, daemon=True
        )
        worker.start()
        return worker

    def _lost(self, worker: multiprocessing.Process) -> str:
        return (
            f"worker process {worker.name} exited without a result "
            f"(exitcode {worker.exitcode})"
        )

    def _stop(self, worker: multiprocessing.Process) -> None:
        worker.terminate()
        worker.join()

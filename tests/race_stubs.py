"""Picklable race members for the backend-parametrized race-contract tests.

They live in their own module, not a test module or a conftest, so a
worker process can unpickle them by a stable module name.
"""

from __future__ import annotations

import time

from repro.core.result import SynthesisReport
from repro.lifting import LiftEvent


class StubLifter:
    """A picklable race member, so one stub races on either backend.

    It emits one ``stage_started`` event, then raises *raises*, or polls its
    budget until the race cancels it (*until_cancelled*), or sleeps *delay*
    seconds; it reports *success* whatever its budget says.
    """

    label = "Stub"

    def __init__(
        self,
        success: bool = True,
        *,
        delay: float = 0.0,
        raises: BaseException | None = None,
        until_cancelled: bool = False,
    ) -> None:
        self.success = success
        self.delay = delay
        self.raises = raises
        self.until_cancelled = until_cancelled

    def lift(self, task, budget=None, observer=None):
        if observer is not None:
            observer.emit(LiftEvent("stage_started", "t", attrs={"stage": "stub"}))
        if self.raises is not None:
            raise self.raises
        if self.until_cancelled:
            while not budget.expired():
                time.sleep(0.005)
        elif self.delay:
            time.sleep(self.delay)
        return SynthesisReport(task_name="t", method="stub", success=self.success)

"""In-memory spans around the lifting stack's layer boundaries.

The benchmark never edits the program: it wraps public functions at their
class or module attribute, records one span per call (name, start, end,
parent, thread, kernel) and restores the originals afterwards.  Spans stay
in memory until the run ends.  A layer's self time is its span's duration
minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Span names that root one lift: the client's own lift call, or the
#: service worker's ``execute_request`` (which resolves, builds and lifts).
LIFT_ROOTS = ("lift", "service.execute")

#: Every span name allowed inside a lift tree.  A span under a lift root with
#: any other name fails the accounting closure: its time would otherwise be
#: reported under no layer.
LIFT_LAYERS = (
    "cfront.parse",
    "core.io_examples",
    "llm.oracle",
    "core.templates",
    "core.dimension_list",
    "core.grammar",
    "core.search",
    "lifting.harness",
    "core.validator",
    "core.verifier",
    "portfolio.race",
)

#: The closure holds when the layers' self times plus the unaccounted time
#: differ from the lifts' wall-clock by at most this share (plus 1µs a lift).
CLOSURE_TOLERANCE = 0.001


@dataclass
class Span:
    name: str
    id: int
    parent: Optional[int]
    thread: str
    kernel: Optional[str]
    start: float = 0.0
    end: float = 0.0
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans from any thread; parents come from a per-thread stack."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, kernel: Optional[str] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if kernel is None and parent is not None:
            kernel = parent.kernel
        with self._lock:
            span = Span(
                name=name,
                id=len(self.spans),
                parent=parent.id if parent is not None else None,
                thread=threading.current_thread().name,
                kernel=kernel,
            )
            self.spans.append(span)
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        kernel_of: Optional[Callable[[tuple], Optional[str]]] = None,
        before: Optional[Callable[[tuple], object]] = None,
        after: Optional[Callable[[Span, tuple, object, object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a spanning wrapper until :meth:`restore`.

        ``before(args)`` snapshots state ahead of the call; ``after(span,
        args, result, snapshot)`` annotates the span from the result.
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            kernel = kernel_of(args) if kernel_of is not None else None
            with self.span(name, kernel) as span:
                snapshot = before(args) if before is not None else None
                result = original(*args, **kwargs)
                if after is not None:
                    after(span, args, result, snapshot)
                return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path, origin: float) -> None:
        """Write the spans as JSON lines, times relative to *origin*."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": span.name,
                            "id": span.id,
                            "parent": span.parent,
                            "thread": span.thread,
                            "workload": self.workload,
                            "kernel": span.kernel,
                            "start": round(span.start - origin, 7),
                            "end": round(span.end - origin, 7),
                            "attrs": span.attrs,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length of the union of *intervals*."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: List[Span]) -> Tuple[Dict[int, float], List[str]]:
    """Self time per span id, and the nesting violations found.

    A child must lie inside its parent's interval; a violation is reported
    rather than clipped away, so a mis-parented span fails the closure.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result: Dict[int, float] = {}
    problems: List[str] = []
    for span in spans:
        kids = children.get(span.id, [])
        for kid in kids:
            if kid.start < span.start - 1e-6 or kid.end > span.end + 1e-6:
                problems.append(f"{kid.name} escapes its parent {span.name}")
        covered = _covered(
            (max(k.start, span.start), min(k.end, span.end)) for k in kids
        )
        result[span.id] = span.seconds - covered
    return result, problems


def lift_accounting(spans: List[Span]) -> Dict[str, object]:
    """Split every lift tree into per-layer self times and check closure.

    Returns ``{"wall_s", "unaccounted_s", "layers": {name: self_s},
    "problems": [...]}``.  The closure is that the layers' self times plus
    the roots' own (unaccounted) self time add up to the lifts' wall-clock
    within :data:`CLOSURE_TOLERANCE`, with every span under a root named in
    :data:`LIFT_LAYERS`.
    """
    by_id = {span.id: span for span in spans}
    own, problems = self_times(spans)

    def root_of(span: Span) -> Span:
        while span.parent is not None:
            span = by_id[span.parent]
        return span

    layers: Dict[str, float] = {name: 0.0 for name in LIFT_LAYERS}
    wall = unaccounted = 0.0
    roots = 0
    for span in spans:
        root = root_of(span)
        if root.name not in LIFT_ROOTS:
            continue
        if span is root:
            roots += 1
            wall += span.seconds
            unaccounted += own[span.id]
        elif span.name in layers:
            layers[span.name] += own[span.id]
        else:
            problems.append(f"span {span.name!r} inside a lift is not a layer")
    accounted = sum(layers.values()) + unaccounted
    if abs(accounted - wall) > CLOSURE_TOLERANCE * wall + 1e-6 * roots:
        problems.append(
            f"layers + unaccounted = {accounted:.6f}s, lift wall = {wall:.6f}s"
        )
    return {
        "wall_s": wall,
        "unaccounted_s": unaccounted,
        "layers": layers,
        "problems": problems,
    }

"""Result types reported by the synthesizer and the baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..taco import TacoProgram
from ..taco.parser import parse_program
from .jsonutil import jsonable
from .kernel import _LRU

#: Decoded programs kept per process (canonical TACO text -> program).
MAX_DECODED_PROGRAMS = 1024

# Programs are frozen, so every report decoded from equal text may share one.
_DECODED = _LRU(MAX_DECODED_PROGRAMS)


def _decode_program(text: Optional[str]) -> Optional[TacoProgram]:
    if not text:
        return None
    return _DECODED.get(text, lambda: parse_program(text))


@dataclass
class SynthesisReport:
    """Everything the evaluation harness needs to know about one lifting run."""

    #: Benchmark / task name.
    task_name: str
    #: Label of the method that produced this report (e.g. ``"STAGG_TD"``).
    method: str
    #: Did the method produce a verified lifted program?
    success: bool
    #: The lifted program with concrete argument names, when successful.
    lifted_program: Optional[TacoProgram] = None
    #: The winning template (symbolic tensors), when successful.
    template: Optional[TacoProgram] = None
    #: Total wall-clock time of the run (oracle + grammar + search + verify).
    elapsed_seconds: float = 0.0
    #: Number of complete templates sent to validation ("attempts").
    attempts: int = 0
    #: Number of search-queue expansions.
    nodes_expanded: int = 0
    #: Number of syntactically valid / rejected LLM candidates.
    oracle_valid_candidates: int = 0
    oracle_rejected_candidates: int = 0
    #: Predicted dimension list for the task.
    dimension_list: Tuple[int, ...] = ()
    #: True when the run hit its time budget.
    timed_out: bool = False
    #: Non-empty when the run aborted with an internal error.
    error: str = ""
    #: Free-form extra data (per-method diagnostics).
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def lifted_source(self) -> str:
        """The lifted program as TACO source text (empty when unsolved)."""
        return str(self.lifted_program) if self.lifted_program is not None else ""

    def summary(self) -> str:
        """A one-line human-readable summary."""
        status = "ok" if self.success else ("timeout" if self.timed_out else "fail")
        lifted = f" -> {self.lifted_source}" if self.success else ""
        return (
            f"[{self.method}] {self.task_name}: {status} "
            f"({self.elapsed_seconds:.2f}s, {self.attempts} attempts){lifted}"
        )

    # ------------------------------------------------------------------ #
    # JSON round-trip (used by the result store and the HTTP service)
    # ------------------------------------------------------------------ #
    def to_json_dict(self) -> Dict[str, object]:
        """A JSON-safe dictionary that :meth:`from_json_dict` can restore.

        Programs are stored as canonical TACO source text (the printer is
        canonical, so ``str(parse_program(s)) == s`` for printer output),
        which keeps the stored record human-readable and diffable.  The
        numeric fields round-trip exactly: ``json`` preserves Python floats
        bit-for-bit, so a report served from the store reproduces the
        original run's timings byte-identically in CSV/JSON exports.
        """
        return {
            "task_name": self.task_name,
            "method": self.method,
            "success": self.success,
            "lifted_program": str(self.lifted_program)
            if self.lifted_program is not None
            else None,
            "template": str(self.template) if self.template is not None else None,
            "elapsed_seconds": self.elapsed_seconds,
            "attempts": self.attempts,
            "nodes_expanded": self.nodes_expanded,
            "oracle_valid_candidates": self.oracle_valid_candidates,
            "oracle_rejected_candidates": self.oracle_rejected_candidates,
            "dimension_list": list(self.dimension_list),
            "timed_out": self.timed_out,
            "error": self.error,
            "details": jsonable(self.details),
        }

    @classmethod
    def from_json_dict(cls, data: Dict[str, object]) -> "SynthesisReport":
        """Restore a report produced by :meth:`to_json_dict`."""
        return cls(
            task_name=str(data["task_name"]),
            method=str(data["method"]),
            success=bool(data["success"]),
            lifted_program=_decode_program(data.get("lifted_program")),
            template=_decode_program(data.get("template")),
            elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
            attempts=int(data.get("attempts", 0)),
            nodes_expanded=int(data.get("nodes_expanded", 0)),
            oracle_valid_candidates=int(data.get("oracle_valid_candidates", 0)),
            oracle_rejected_candidates=int(data.get("oracle_rejected_candidates", 0)),
            dimension_list=tuple(data.get("dimension_list", ())),
            timed_out=bool(data.get("timed_out", False)),
            error=str(data.get("error", "")),
            details=dict(data.get("details", {})),
        )

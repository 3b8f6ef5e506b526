"""Structured errors shared across the workbench.

Every refusal the CLI can emit is a WorkbenchError carrying a machine-readable
code and a details dict; internal bugs stay plain exceptions, and a failed
correctness check is an AssertionError from _require, which python -O
keeps.
"""

from __future__ import annotations


class WorkbenchError(Exception):
    """Base class for structured, user-facing refusals."""

    code = "workbench-error"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.message = message
        self.details = details

    def payload(self) -> dict:
        return {"error": self.code, "message": self.message, "details": self.details}


class ConductorMismatch(WorkbenchError):
    """Arithmetic between scalars of different cyclotomic fields, or a
    literal naming a root of unity whose order does not divide the field's
    conductor."""

    code = "conductor-mismatch"


class ScalarParseError(WorkbenchError):
    """Malformed scalar literal."""

    code = "scalar-parse-error"


class GroupSpecError(WorkbenchError):
    """Malformed or inconsistent group description."""

    code = "group-spec-error"


class ModuleSpecError(WorkbenchError):
    """Malformed or inconsistent Yetter-Drinfeld module description."""

    code = "module-spec-error"


class ScenarioError(WorkbenchError):
    """Malformed scenario file or unknown task."""

    code = "scenario-error"


class MemoryGuardError(WorkbenchError):
    """A degree extension would exceed the configured candidate budget."""

    code = "memory-guard"


class DegreeRangeError(WorkbenchError):
    """A normal form or product was requested beyond the computed degrees."""

    code = "degree-range"


class ReflectionError(WorkbenchError):
    """A reflection was requested on a row that is not certified finite."""

    code = "reflection-not-certified"


def _require(ok, *detail):
    """What assert ok, detail does, kept under python -O: raise
    AssertionError(*detail) unless ok."""
    if not ok:
        raise AssertionError(*detail)

"""Shared exception types.

Most argument validation raises plain ValueError.  The classes here exist
because callers branch on them: budget overruns are recoverable (the
pipeline downgrades to formula-only reporting or heuristic search), and
stage failures need to carry the stage name upward.
"""

from __future__ import annotations


class BudgetExceededError(RuntimeError):
    """An operation would exceed its declared enumeration/memory budget."""

    def __init__(self, message: str, *, needed: int | None = None, budget: int | None = None):
        super().__init__(message)
        self.needed = needed
        self.budget = budget


def check_budget(needed: int, budget: int, message: str) -> None:
    """Raise BudgetExceededError("<message> over budget <budget>") when
    needed is over budget; message names what needs the budget and how much."""
    if needed > budget:
        raise BudgetExceededError(f"{message} over budget {budget}", needed=needed, budget=budget)


class StageError(RuntimeError):
    """Pipeline stage failure; wraps the original error with the stage name."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause

"""Shared exception types.

Most argument validation raises plain ValueError.  The classes here exist
because callers branch on them: budget overruns are recoverable (the
pipeline downgrades to formula-only reporting or heuristic search), and
stage failures need to carry the stage name upward.
"""

from __future__ import annotations

from decimal import Decimal


class BudgetExceededError(RuntimeError):
    """An operation would exceed its declared enumeration/memory budget."""

    def __init__(self, message: str, *, needed: int | None = None, budget: int | None = None):
        super().__init__(message)
        self.needed = needed
        self.budget = budget


def int_text(n: int) -> str:
    """n in decimal, exactly at any size: str() refuses past 4300 digits."""
    return str(Decimal(n))


def check_budget(needed: int, budget: int, message: str) -> None:
    """Raise BudgetExceededError("<message> over budget <budget>") when
    needed is over budget; message names what needs the budget, with a {}
    where needed goes, written only then."""
    if needed > budget:
        if "{}" in message:
            message = message.format(int_text(needed))
        raise BudgetExceededError(
            f"{message} over budget {int_text(budget)}", needed=needed, budget=budget
        )


class StageError(RuntimeError):
    """Pipeline stage failure; wraps the original error with the stage name."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause

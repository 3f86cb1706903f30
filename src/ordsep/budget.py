"""Single-counter work budgets for the bounded searches.

The unit is deliberately coarse: one point per candidate tested plus one
point per vertex created.  A shared counter makes nested searches honest —
a caller-supplied budget is drained by everything done on its behalf.
"""

from .errors import BudgetExceeded

DEFAULT_BUDGET = 2_000_000


class Budget:
    def __init__(self, limit=DEFAULT_BUDGET):
        self.limit = int(limit)
        self.used = 0

    def charge(self, amount=1, what="work"):
        self.used += int(amount)
        if self.used > self.limit:
            raise BudgetExceeded(
                f"budget exhausted after {self.used} units ({what})",
                limit=self.limit,
                what=what,
            )


def as_budget(budget):
    """Coerce None | int | Budget into a Budget."""
    if budget is None:
        return Budget()
    if isinstance(budget, Budget):
        return budget
    return Budget(int(budget))

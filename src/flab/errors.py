"""The two exceptions flab raises.  A bug raises a builtin instead, which
the CLI reports as an internal error (exit 1), not a refusal (exit 2)."""


class FlabError(Exception):
    """Input from outside the program was refused."""


class BudgetExceeded(FlabError):
    """Work past the budget; raised only by geometry.charge."""

"""Shared exception types and the search-budget knob.

All searches that enumerate state spaces (the one space-bounded search
behind pebbling prices and clause space, the SAT oracle, saturation)
count visited nodes against a budget and raise BudgetExceeded instead of
returning an approximate answer; lifting a refutation bounds the lifted
proof's length by the same budget before it builds a line.  The default
budget is 10**7 nodes and can be overridden with the PEBLAB_BUDGET
environment variable.
"""

import os

DEFAULT_BUDGET = 10_000_000


def search_budget(override=None):
    """Resolve the effective node budget for a search."""
    if override is not None:
        return int(override)
    env = os.environ.get("PEBLAB_BUDGET")
    if env is None:
        return DEFAULT_BUDGET
    from .cnf import is_decimal  # cnf imports this module

    if not is_decimal(env):
        raise PeblabError(f"PEBLAB_BUDGET must be a decimal integer, got {env!r}")
    return int(env)


class PeblabError(Exception):
    """Base class for all errors raised by this package."""


class BudgetExceeded(PeblabError):
    def __init__(self, visited, budget, what="search", unit="nodes visited"):
        super().__init__(f"{what} exceeded budget: {visited} {unit} (budget {budget})")
        self.visited = visited
        self.budget = budget


class InputError(PeblabError):
    """Bad input; the message starts with `line N: ` when `line` is known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DagError(InputError):
    """Invalid DAG structure or DAG-file syntax; carries a location when parsing."""


class TrivialClause(PeblabError):
    """A clause mentioned some variable both positively and negatively."""


class ConstantFunction(PeblabError):
    """Boolean function is constant; substitution and canonical clauses are undefined."""


class DimacsError(InputError):
    """Malformed DIMACS text."""


class TraceError(InputError):
    """Malformed pebbling- or proof-trace file."""


# -- pebble games ------------------------------------------------------------

class IllegalMove(PeblabError):
    """A pebbling transition matches no game rule."""

    def __init__(self, step, reason):
        super().__init__(f"step {step}: {reason}")
        self.step = step
        self.reason = reason


class WrongEndpoints(PeblabError):
    """Pebbling does not start empty or does not end with exactly the sink."""


class WhitePebbleInBlackOnly(PeblabError):
    def __init__(self, step):
        super().__init__(f"step {step}: white pebble present in black-only pebbling")
        self.step = step


class IncompletePebbling(PeblabError):
    """Compilation requires a validated complete black pebbling."""


# -- proofs ------------------------------------------------------------------

class IllegalStep(PeblabError):
    """A refutation step violates the proof system's rules."""

    def __init__(self, index, reason):
        super().__init__(f"step {index}: {reason}")
        self.index = index
        self.reason = reason


class MissingBottom(PeblabError):
    """Final configuration does not contain the empty clause."""


class PivotAbsent(PeblabError):
    """Resolution pivot missing (positively/negatively) from a premise."""


class TrivialResolvent(PeblabError):
    """Resolving these premises on this pivot would produce a tautology."""


class InternalContractViolation(PeblabError):
    """A projection property the extraction relies on failed; signals a bug."""

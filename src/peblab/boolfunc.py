"""Boolean functions by truth table, canonical clause sets, authoritarianness.

Truth tables are stored as integer bitmasks: bit i holds f(assignment i),
where bit j of the assignment index is the value of the (j+1)-th input.
The canonical CNF for f is the set of all prime implicates of f, which
reproduces the standard clause sets for or, xor and threshold functions.
"""

from __future__ import annotations

import itertools

from .cnf import Clause, Value, is_decimal
from .errors import ConstantFunction

MAX_ARITY = 16
_CLAUSE_ARITY_LIMIT = 12  # 3^d subcube enumeration


class BooleanFunction(Value):
    __slots__ = _fields = ("arity", "table")

    def __init__(self, arity: int, table: int):
        _check_arity(arity)
        full = (1 << (1 << arity)) - 1
        if not 0 <= table <= full:
            raise ValueError("truth table has more bits than 2^arity")
        if table == 0 or table == full:
            raise ConstantFunction(f"function of arity {arity} is constant")
        self.arity = arity
        self.table = table

    def value(self, index: int) -> bool:
        """f at the assignment with index bits (bit j = input j+1)."""
        return bool((self.table >> index) & 1)

    def negated(self) -> "BooleanFunction":
        full = (1 << (1 << self.arity)) - 1
        return BooleanFunction(self.arity, self.table ^ full)

    def to_hex(self) -> str:
        digits = max(1, (1 << self.arity) // 4)
        return format(self.table, f"0{digits}x")

    def __str__(self) -> str:
        return f"f_{self.arity}[0x{self.to_hex()}]"


def _check_arity(arity: int) -> None:
    if not 1 <= arity <= MAX_ARITY:
        raise ValueError(f"arity must be in 1..{MAX_ARITY}, got {arity}")


# -- named families -----------------------------------------------------


def _table_from_predicate(arity, pred) -> int:
    _check_arity(arity)  # before the 2^arity rows are built
    table = 0
    for index in range(1 << arity):
        ones = bin(index).count("1")
        if pred(index, ones):
            table |= 1 << index
    return table


def or_fn(arity: int) -> BooleanFunction:
    return BooleanFunction(arity, _table_from_predicate(arity, lambda i, ones: i != 0))


def xor_fn(arity: int) -> BooleanFunction:
    return BooleanFunction(arity, _table_from_predicate(arity, lambda i, ones: ones % 2 == 1))


def threshold_fn(arity: int, k: int) -> BooleanFunction:
    """At least k of the arity inputs are true."""
    if not 1 <= k <= arity:
        raise ValueError(f"threshold k must be in 1..{arity}, got {k}")
    return BooleanFunction(arity, _table_from_predicate(arity, lambda i, ones: ones >= k))


def majority_fn(arity: int) -> BooleanFunction:
    if arity % 2 == 0:
        raise ValueError("majority needs odd arity")
    return threshold_fn(arity, arity // 2 + 1)


def from_hex(arity: int, hex_digits: str) -> BooleanFunction:
    if not hex_digits or not set(hex_digits) <= set("0123456789abcdefABCDEF"):
        raise ValueError(f"truth table {hex_digits!r} is not hex digits")
    return BooleanFunction(arity, int(hex_digits, 16))


def _decimal(token: str) -> int:
    if not is_decimal(token):
        raise ValueError(f"{token!r} is not a decimal number")
    return int(token)


def parse_function_literal(spec: str) -> BooleanFunction | None:
    """CLI function literals: or:2, xor:2, thr:4:2, maj:3, tt:<arity>:<hex>, none.
    Each number is a decimal by `cnf.is_decimal`, and the table hex digits."""
    if spec == "none":
        return None
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "or" and len(parts) == 2:
            return or_fn(_decimal(parts[1]))
        if kind == "xor" and len(parts) == 2:
            return xor_fn(_decimal(parts[1]))
        if kind == "thr" and len(parts) == 3:
            return threshold_fn(_decimal(parts[1]), _decimal(parts[2]))
        if kind == "maj" and len(parts) == 2:
            return majority_fn(_decimal(parts[1]))
        if kind == "tt" and len(parts) == 3:
            return from_hex(_decimal(parts[1]), parts[2])
    except ValueError as e:
        raise ValueError(f"bad function literal {spec!r}: {e}") from None
    raise ValueError(f"unknown function literal {spec!r}")


# -- canonical clause sets ----------------------------------------------


def _occupied(table: int, n: int) -> list[bool]:
    """For every subcube of {0,1}^n, does it meet the table's on-set?

    Subcube index: base-3 digit j is 0 or 1 when input j is pinned to
    that value and 2 when it is free.
    """
    if n == 0:
        return [table != 0]
    half = 1 << (n - 1)
    lo = _occupied(table & ((1 << half) - 1), n - 1)
    hi = _occupied(table >> half, n - 1)
    return lo + hi + [a or b for a, b in zip(lo, hi)]


def prime_implicates(table: int, names: tuple[str, ...]) -> frozenset[Clause]:
    """All prime implicates of the function with this truth table over names.

    A clause C is an implicate iff the subcube where every literal of C
    is false avoids the on-set; prime iff freeing any one pinned input
    breaks that.  A constant table is allowed: all zeros gives the empty
    clause, all ones gives no clause.
    """
    n = len(names)
    occupied = _occupied(table, n)
    clauses = []
    for index, hit in enumerate(occupied):
        if hit:
            continue
        literals = []
        prime = True
        digits, weight = index, 1
        for name in names:
            digits, digit = divmod(digits, 3)
            if digit != 2:
                if not occupied[index + (2 - digit) * weight]:
                    prime = False
                    break
                # pinning the input to v rules out the literal name^(1-v)
                literals.append((name, digit == 0))
            weight *= 3
        if prime:
            clauses.append(Clause(literals))
    return frozenset(clauses)


def canonical_clauses(f: BooleanFunction, vars: tuple[str, ...], polarity: str = "positive") -> frozenset[Clause]:
    """All prime implicates of f (or of its negation), instantiated on vars.

    Enumerates the 3^d subcubes, so arity is capped.
    """
    if len(vars) != f.arity:
        raise ValueError(f"need {f.arity} variable names, got {len(vars)}")
    if len(set(vars)) != len(vars):
        raise ValueError("variable names must be distinct")
    if f.arity > _CLAUSE_ARITY_LIMIT:
        raise ValueError(f"canonical clause extraction capped at arity {_CLAUSE_ARITY_LIMIT}")
    if polarity not in ("positive", "negative"):
        raise ValueError(f"polarity must be positive or negative, got {polarity!r}")
    g = f if polarity == "positive" else f.negated()
    return prime_implicates(g.table, tuple(vars))


def is_k_nonauthoritarian(f: BooleanFunction, k: int) -> bool:
    """True iff no restriction of size <= k fixes the value of f."""
    if k < 0:
        raise ValueError("k must be >= 0")
    for size in range(min(k, f.arity) + 1):
        for support in itertools.combinations(range(f.arity), size):
            for values in itertools.product((0, 1), repeat=size):
                fixed = dict(zip(support, values))
                seen0 = seen1 = False
                for index in range(1 << f.arity):
                    if all((index >> j) & 1 == v for j, v in fixed.items()):
                        if f.value(index):
                            seen1 = True
                        else:
                            seen0 = True
                        if seen0 and seen1:
                            break
                if not (seen0 and seen1):
                    return False
    return True

"""Ground-truth game solver, straight from the inductive definition.

Everything here is deliberately brute force over {0,1}^n.  The automata
constructions in :mod:`winset.game` are tested against these verdicts, so
this module favors being obviously correct over being fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Callable

from .automata import (
    BINARY, BudgetExceededError, Dfa, _check_range, _require_alphabet, _turn_index, accepts
)

SLICE_LIMIT = 24  # 2^n table entries; past this the "oracle" stops being one


@dataclass(frozen=True)
class TargetPredicate:
    """A target set T of binary words of one fixed length, as a membership test."""

    length: int
    member: Callable[[str], bool]

    def __post_init__(self):
        _check_range((self.length,), 0, inf, "length must be nonnegative")


def alice_wins(t: TargetPredicate, w: str) -> bool:
    """Can Alice force the constructed word into the target on turn order w?

    Positions are filled left to right; at an A the builder picks the bit,
    at a B the opponent does.  Each prefix is visited once, so nothing is
    stored beyond the current path.  Words longer than ``SLICE_LIMIT`` raise
    :class:`BudgetExceededError`.
    """
    if len(w) != t.length:
        raise ValueError(f"turn word length {len(w)} != target length {t.length}")
    for c in w:
        _turn_index(c)
    if len(w) > SLICE_LIMIT:
        raise BudgetExceededError(f"turn word length {len(w)} exceeds the limit {SLICE_LIMIT}")

    def wins(prefix: str) -> bool:
        if len(prefix) == t.length:
            return bool(t.member(prefix))
        zero = wins(prefix + "0")
        one = wins(prefix + "1")
        return (zero or one) if w[len(prefix)] == "A" else (zero and one)

    return wins("")


def winning_slice(t: TargetPredicate) -> set[str]:
    """All winning turn orders of length n, by the set recursion on bit tables.

    An m-letter table is a 2^m-bit int: bit v is the verdict on the word of
    v's m binary digits, first letter most significant, 0 for A.  The two
    residuals are its low and high halves: A·w wins iff w wins in either,
    B·w iff in both.  Cross-checks :func:`alice_wins`, which recurses on
    prefixes instead.  Lengths above ``SLICE_LIMIT`` raise
    :class:`BudgetExceededError`.
    """
    n = t.length
    if n > SLICE_LIMIT:
        raise BudgetExceededError(f"slice length {n} exceeds the limit {SLICE_LIMIT}")
    # bit v is word v's verdict; the digits run from the highest v down
    words = (format(v, f"0{n}b") if n else "" for v in range((1 << n) - 1, -1, -1))
    table = int("".join("1" if t.member(word) else "0" for word in words), 2)
    memo: dict[tuple[int, int], int] = {}

    def slice_of(m: int, tab: int) -> int:
        if m == 0:
            return tab & 1
        wins = memo.get((m, tab))
        if wins is None:
            half = 1 << (m - 1)
            low = slice_of(m - 1, tab & ((1 << half) - 1))
            high = slice_of(m - 1, tab >> half)
            wins = memo[m, tab] = (low & high) << half | low | high
        return wins

    # one pass over the digits, lowest v first: testing bit by bit is quadratic
    digits = reversed(format(slice_of(n, table), f"0{1 << n}b"))
    won = (v for v, d in enumerate(digits) if d == "1")
    turns = str.maketrans("01", "AB")
    return {format(v, f"0{n}b").translate(turns) if n else "" for v in won}


# ---------------------------------------------------------------------------
# predicate constructors


def dyck_predicate(n: int) -> TargetPredicate:
    """Balanced-parentheses words of length n; 0 opens, 1 closes."""
    _check_range((n,), 0, inf, "length must be nonnegative")
    if n % 2:
        raise ValueError(f"no balanced word has odd length {n}")

    def member(v: str) -> bool:
        depth = 0
        for ch in v:
            depth += 1 if ch == "0" else -1
            if depth < 0:
                return False
        return depth == 0

    return TargetPredicate(length=n, member=member)


def parity_predicate(n: int) -> TargetPredicate:
    return TargetPredicate(length=n, member=lambda v: v.count("1") % 2 == 1)


def contains_011_predicate(n: int) -> TargetPredicate:
    return TargetPredicate(length=n, member=lambda v: "011" in v)


def exact_ones_predicate(n: int, k: int) -> TargetPredicate:
    return TargetPredicate(length=n, member=lambda v: v.count("1") == k)


def dfa_predicate(d: Dfa, n: int) -> TargetPredicate:
    _require_alphabet(d, BINARY, "predicate DFA")
    return TargetPredicate(length=n, member=lambda v: accepts(d, v))

"""Automaton families with known winning-set behavior.

The generators here build the hosts used to probe extremes of the winning
set: a factory that manufactures arbitrary antichains of state-sets (the
doubly-exponential lower bound), chain automata with rich congruences, the
exact-ones language with a cubic-size winning set, and closed-form bounds
for bounded languages and the Dyck intersection.

Figures in the source material leave 0/1 edge labels open; winning sets do
not depend on them, so the first-listed edge always gets 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .automata import (
    STATE_BUDGET, BudgetExceededError, Dfa, GraphBuilder, _check_range, _turn_index
)


@dataclass(frozen=True)
class Gadget:
    """A closed DFA together with the name -> index map of its states."""

    dfa: Dfa
    labels: dict[str, int]

    def __getitem__(self, name: str) -> int:
        return self.labels[name]


def _check_size(n: int, per: int = 0, extra: int = 0) -> None:
    """Reject a size n that is not an int >= 1, or one whose host would have
    ``per * n + extra`` states, more than
    :data:`~winset.automata.STATE_BUDGET`.  Families call this before they
    build anything, so it takes the state count's coefficients rather than
    the count, which a size that is not a number could not make; with none
    given, as for the driver and probe words, only the size is checked."""
    _check_range((n,), 1, math.inf, "n must be >= 1")
    if per * n + extra > STATE_BUDGET:
        raise BudgetExceededError(
            f"size {n} needs {per * n + extra} states, more than the budget of {STATE_BUDGET}"
        )


def _gadget(
    n: int, per: int, extra: int, entry: str, add: Callable[[GraphBuilder], None]
) -> Gadget:
    """The gadget of size n and ``per * n + extra`` states that ``add`` lays
    out, entered at ``entry``, which is numbered 0."""
    _check_size(n, per, extra)
    b = GraphBuilder()
    b.state(entry)
    add(b)
    return Gadget(dfa=b.build(entry), labels=b.labels)


# ---------------------------------------------------------------------------
# the subset / game-state factory and the tester


def _add_gen_subset(b: GraphBuilder, n: int, exit_target: str):
    """States b,c,d,s,e of the subset factory; the e-chain ends in
    ``exit_target`` on both symbols.  7n-1 states in total.

    Two-symbol blocks starting from b_i either skip index i (reading AB puts
    the surviving branch at b_{i+1} alone) or commit it (reading BA leaves a
    companion token at e_{3i-2}); committed tokens then ride the forced
    e-chain, two positions per later block, ending at e_{2n+i-2}.
    """
    for i in range(1, n + 1):
        b.arc(f"b{i}", f"d{i}", f"c{i}")
        b.arc(f"d{i}", f"b{i + 1}")
        b.arc(f"c{i}", f"s{i}", f"e{3 * i - 2}")
        b.arc(f"s{i}", f"s{i}")
    for j in range(1, 3 * n - 2):
        b.arc(f"e{j}", f"e{j + 1}")
    b.arc(f"e{3 * n - 2}", exit_target)
    b.state(f"b{n + 1}", final=True)
    b.arc(f"b{n + 1}", f"b{n + 1}")


def gen_subset(n: int, *, closure: str = "reject") -> Gadget:
    """Standalone subset factory; the dangling e-chain exit is closed with a
    sink (nonaccepting by default)."""
    if closure not in ("reject", "accept"):
        raise ValueError(f"closure must be 'reject' or 'accept', got {closure!r}")

    def add(b: GraphBuilder):
        _add_gen_subset(b, n, "exit")
        b.state("exit", final=closure == "accept")
        b.arc("exit", "exit")

    return _gadget(n, 7, 0, "b1", add)


def subset_word(n: int, s: Iterable[int]) -> str:
    """Driver word of length 2n: block i is BA to commit index i, AB to skip."""
    _check_size(n)
    chosen = set(s)
    if not chosen <= set(range(1, n + 1)):
        raise ValueError(f"subset {sorted(chosen)} not within 1..{n}")
    return "".join("BA" if i in chosen else "AB" for i in range(1, n + 1))


def _add_gen_state(b: GraphBuilder, n: int, exit_target: str):
    """The a-cycle, subset factory, and r-cycle of the game-state factory."""
    cyc = 3 * n + 1
    b.arc("a1", "a2", "b1")
    for i in range(2, cyc + 1):
        b.arc(f"a{i}", f"a{i % cyc + 1}")
    _add_gen_subset(b, n, "r1")
    b.arc("r1", "r2", exit_target)
    for i in range(2, cyc + 1):
        b.arc(f"r{i}", f"r{i % cyc + 1}")


def gen_state(n: int) -> Gadget:
    """The game-state factory, 13n+2 states; its exit is a rejecting sink."""

    def add(b: GraphBuilder):
        _add_gen_state(b, n, "exit")
        b.arc("exit", "exit")

    return _gadget(n, 13, 2, "a1", add)


def state_word(n: int, antichain: Iterable[Iterable[int]]) -> str:
    """Driver that plants one r-cycle set per antichain member.

    Each block A·subset_word·A^n has length 3n+1, the cycle length, so sets
    already parked in the r-cycle rotate back into place while a new one is
    being manufactured.
    """
    _check_size(n)
    members = [frozenset(s) for s in antichain]
    for s in members:
        if not s:
            raise ValueError("antichain members must be nonempty")
        if not s <= set(range(1, n + 1)):
            raise ValueError(f"member {sorted(s)} not within 1..{n}")
    for x, y in combinations(members, 2):
        if x <= y or y <= x:
            raise ValueError("members must form an antichain")
    return "".join("A" + subset_word(n, s) + "A" * n for s in members)


def _add_testing(b: GraphBuilder, n: int):
    """States q_1..q_2n, r and r' of the tester, entered at q_1."""
    for i in range(1, 2 * n):
        if i == n:
            b.arc(f"q{n}", "r", f"q{n + 1}")
        else:
            b.arc(f"q{i}", f"q{i + 1}")
    b.arc(f"q{2 * n}", "r'")
    b.arc("r", "r")
    b.arc("r'", "r'")
    for i in range(n + 1, 2 * n + 1):
        b.state(f"q{i}", final=True)


def testing(n: int) -> Gadget:
    """Chain q_1..q_2n with accepting upper half; B at the midpoint kills.

    The only branch point is q_n: reading B there drops into the sink r, any
    other read advances one step.  After 2n steps everything is stuck in a
    nonaccepting sink.
    """
    return _gadget(n, 2, 2, "q1", lambda b: _add_testing(b, n))


def test_word(n: int, p: Iterable[int]) -> str:
    """Length-n probe accepting exactly the planted sets inside p."""
    _check_size(n)
    chosen = set(p)
    if not chosen <= set(range(1, n + 1)):
        raise ValueError(f"subset {sorted(chosen)} not within 1..{n}")
    return "".join("A" if n - i + 1 in chosen else "B" for i in range(1, n + 1))


def lower_bound_gadget(n: int) -> Gadget:
    """Factory plus tester, 15n+3 states; its winning-set DFA needs at least
    as many states as there are antichains over an n-set."""

    def add(b: GraphBuilder):
        _add_gen_state(b, n, "q1")
        _add_testing(b, n)

    return _gadget(n, 15, 3, "a1", add)


def lower_bound_dfa(n: int) -> Dfa:
    return lower_bound_gadget(n).dfa


# ---------------------------------------------------------------------------
# chain automata and the exact-ones language


def chain_dfa(n: int, finals: Iterable[int]) -> Dfa:
    """1-bounded chain: 0 loops in place, 1 advances, the last state traps."""
    _check_size(n, 1)
    fin = frozenset(finals)
    if n - 1 in fin:
        raise ValueError("the trap state cannot be final")
    delta = tuple((i, min(i + 1, n - 1)) for i in range(n))
    return Dfa(alphabet=("0", "1"), delta=delta, initial=0, finals=fin)


def exact_ones_dfa(n: int) -> Dfa:
    """Minimal DFA for words with exactly n ones: a counting chain plus an
    overflow sink."""
    _check_size(n, 1, 2)
    delta = tuple((i, i + 1) for i in range(n + 1)) + ((n + 1, n + 1),)
    return Dfa(alphabet=("0", "1"), delta=delta, initial=0, finals=frozenset({n}))


def exact_ones_wsize(n: int) -> int:
    """Closed-form size of the minimal winning-set DFA: n^3/6 + n^2 + 11n/6 + 2."""
    _check_size(n)
    num = n**3 + 6 * n**2 + 11 * n + 12
    assert num % 6 == 0
    return num // 6


def exact_ones_winset_member(n: int, w: str) -> bool:
    """Suffix law: enough A's, not too many B's, and no suffix majority of B's."""
    _check_size(n)
    for c in w:
        _turn_index(c)
    if w.count("A") < n or w.count("B") > n:
        return False
    deficit = 0
    for c in reversed(w):
        deficit += 1 if c == "B" else -1
        if deficit > 0:
            return False
    return True


# ---------------------------------------------------------------------------
# bounds for bounded languages


def bounded_upper_bound(cycle_lengths: Sequence[int], ell: int) -> int:
    """Size bound for winning-set DFAs of bounded languages.

    For a host whose cycles are p disjoint cycles of the given lengths plus
    ell other states, the bound is sum over m = 0..ell+p+1 of
    (p*max_lcm_pair + 2*ell + 2*lcm_all)^m, in exact integer arithmetic.
    With a single cycle the pairwise term degenerates to that cycle's
    length; with none, to zero.
    """
    ks = _check_range(tuple(cycle_lengths), 1, math.inf, "cycle lengths must be >= 1")
    _check_range((ell,), 0, math.inf, "ell must be >= 0")
    p = len(ks)
    pair, lcm_all = _lcm_terms(ks)
    base = p * pair + 2 * ell + 2 * lcm_all
    return sum(base**m for m in range(ell + p + 2))


def _lcm_terms(ks: Sequence[int]) -> tuple[int, int]:
    """The largest lcm of two of the cycle lengths ``ks`` (the one length
    if there is one, 0 if none) and the lcm of them all (1 if none)."""
    pair = max(
        (math.lcm(x, y) for x, y in combinations(ks, 2)), default=ks[0] if ks else 0
    )
    return pair, math.lcm(*ks)


# ---------------------------------------------------------------------------
# the Dyck intersection


def dyck_closed_form(i: int, j: int, k: int) -> bool:
    """Does A^2i B^2j A^2k win on the balanced-parentheses target?

    The builder must pre-open whatever the opponent may close (i >= j) and
    be able to close everything the opponent may have opened (k >= 2j).
    """
    _check_range((i, j, k), 0, math.inf, "block lengths must be nonnegative")
    return i >= j and k >= 2 * j

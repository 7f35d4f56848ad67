"""Polynomial decision procedures for winning sets.

Membership avoids the exponential winning-set DFA altogether: reading the
turn word backwards through the reversal automaton needs just one host
state-set.  Intersection with a regular turn-order language is product
reachability over the same lazy state space.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional

from .automata import (
    STATE_BUDGET,
    TURNS,
    BudgetExceededError,
    Dfa,
    Nfa,
    _GATHER_STATES,
    _image,
    _mask,
    _preimages,
    _shift_step,
    explore,
)
from .game import ReversalDfa, _require_binary

# member renumbers the host once its walk has taken _RENUMBER_AFTER gather
# steps.  It is a ski-rental constant: the renumbering costs about that many
# gathers, so a walk never pays much more than twice what the better of
# renumbering at once and never renumbering would cost.  Both costs are
# O(n), so the constant does not depend on the host's size.  Measured in
# gathers on a 2-core Xeon VM with Python 3.11 (min of 7): 15-16 on a
# relabeled exact_ones_dfa(n) at n = 100 and 200, 16-17 at 1,000 and 18 at
# 4,000, all of which end on the shift step; 9-10 on random hosts of 100 to
# 4,096 states, whose tables are too scattered for it and are given up
# right after the breadth-first search.  On the benchmark's 60 exact-ones
# words (seeds 21-23, in-process, min of 5) the walks took 46-47 ms at 8,
# 50-52 at 16, 59 at 32 and 125-134 ms never renumbering.
_RENUMBER_AFTER = 16


def member(host: Dfa, w: str) -> bool:
    """Is the turn word in the winning set of the host's language?

    Simulates the reversal automaton on the reversed word, carrying a single
    subset of host states, with no materialization.  With n host states
    that is O(|w| * n) time at worst; on large hosts a step from a sparse
    or co-sparse subset costs less, as :func:`~winset.automata.preimages`
    describes.  After ``_RENUMBER_AFTER`` steps that took the O(n) gather,
    the host's reachable part is renumbered breadth-first, once, in O(n).
    When that table has the shift step, the walk goes on there, and each
    dense step costs O(#offsets) big-integer operations: two on
    :func:`~winset.gadgets.exact_ones_dfa`.
    """
    _require_binary(host)
    word = w[::-1]
    if word.count("A") + word.count("B") != len(word):
        bad = next(c for c in word if c not in TURNS)
        raise ValueError(f"turn symbol must be A or B, got {bad!r}")
    pre, gathers = _preimages(host.delta)
    m = _mask(host.finals)
    for i, c in enumerate(word):
        if gathers[0] == _RENUMBER_AFTER:
            break
        p0, p1 = pre(m)
        m = p0 & p1 if c == "B" else p0 | p1
    else:
        return bool(m >> host.initial & 1)
    initial = host.initial
    banded = _banded(host, m)
    if banded is not None:
        (pre, m), initial = banded, 0
    for c in word[i:]:
        p0, p1 = pre(m)
        m = p0 & p1 if c == "B" else p0 | p1
    return bool(m >> initial & 1)


def _banded(host: Dfa, mask: int):
    """The host's reachable part, numbered breadth-first as
    :func:`~winset.automata.minimize` trims it: its compiled preimage map
    and ``mask`` in the new numbers, or None when the new table's dense
    route would not be the shift step.

    Each reachable state moves to reachable ones, so on the reachable set R
    the step commutes with the restriction, ``pre_i(m) & R = pre_i(m & R) &
    R``, and the initial state, now 0, is in R: the walk ends in the same
    answer on either table.
    """
    n = host.state_count
    order, rows = explore(host.initial, host.delta.__getitem__, n, "states")
    delta = tuple(rows)
    step = _shift_step(delta) if len(delta) > _GATHER_STATES else None
    if step is None:
        return None
    # bit j of the carried mask is bit order[j] of mask, read from bin(mask | 1 << n)
    pick = itemgetter(*[n + 2 - q for q in reversed(order)])
    carried = int("".join(pick(bin(mask | 1 << n))), 2)
    return _preimages(delta, step)[0], carried


def intersect_nonempty(
    host: Dfa, b: Nfa, *, budget: int = STATE_BUDGET
) -> Optional[str]:
    """Shortest turn word in W(L(host)) ∩ L(b), or None if the intersection
    is empty.

    Runs BFS over the product of the lazy reversal automaton and the
    reversed subset automaton of ``b``; the path spells the witness
    backwards.  Ties among shortest witnesses go to A-moves first.  Raises
    :class:`BudgetExceededError` when more than ``budget`` product states
    would be visited, the start state included, so a ``budget`` below 1
    fails before any search; that is a resource verdict, not an emptiness
    one.
    """
    if b.alphabet != ("A", "B"):
        raise ValueError("intersection NFA must be over the AB alphabet")
    if budget < 1:
        raise BudgetExceededError(f"more than {budget} product states visited")
    rev = ReversalDfa(host)

    # predecessor masks of b, per symbol: reading b's language backwards
    pred = [[0] * b.state_count for _ in range(2)]
    for q in range(b.state_count):
        for sym in range(2):
            for t in b.delta[q][sym]:
                pred[sym][t] |= 1 << q
    b_init_mask = _mask(b.initial)

    # each visited state maps to its BFS parent and the symbol read from it
    start = (rev.initial_mask, _mask(b.finals))
    parent: dict[tuple[int, int], Optional[tuple[tuple[int, int], str]]] = {start: None}
    order = [start]
    # iterating a list while appending to it visits the appended items too
    for state in order:
        hmask, bmask = state
        if rev.is_final(hmask) and bmask & b_init_mask:
            # the BFS path reads the word reversed; walking it back undoes that
            symbols = []
            link = parent[state]
            while link is not None:
                state, c = link
                symbols.append(c)
                link = parent[state]
            return "".join(symbols)
        for sym, nh in enumerate(rev.successors(hmask)):
            nb = _image(bmask, pred[sym])
            if not nb:
                continue  # b's run died; no word extends through here
            nxt = (nh, nb)
            if nxt not in parent:
                if len(parent) >= budget:
                    raise BudgetExceededError(
                        f"more than {budget} product states visited"
                    )
                parent[nxt] = (state, TURNS[sym])
                order.append(nxt)
    return None

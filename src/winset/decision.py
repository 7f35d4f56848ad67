"""Polynomial decision procedures for winning sets.

Membership avoids the exponential winning-set DFA altogether: reading the
turn word backwards through the reversal automaton needs just one host
state-set.  Intersection with a regular turn-order language is product
reachability over the same lazy state space.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from .automata import BudgetExceededError, Dfa, Nfa, _image, _mask
from .game import TURNS, reverse_winset_dfa

DEFAULT_PRODUCT_BUDGET = 10_000_000


def member(host: Dfa, w: str) -> bool:
    """Is the turn word in the winning set of the host's language?

    Simulates the reversal automaton on the reversed word, carrying a single
    subset of host states, with no materialization.  With n host states
    that is O(|w| * n) time at worst.  On a host of more than 64 states, a
    step from a subset of k states with min(k, n - k) <= n/10 takes the
    sparse route of :func:`~winset.automata.preimages`, which costs
    O(min(k, n - k) * indegree + n/8), unless the walked side holds a
    state with more than n/16 sources.
    """
    return reverse_winset_dfa(host).accepts(w[::-1])


def intersect_nonempty(
    host: Dfa, b: Nfa, *, budget: int = DEFAULT_PRODUCT_BUDGET
) -> Optional[str]:
    """Shortest turn word in W(L(host)) ∩ L(b), or None if the intersection
    is empty.

    Runs BFS over the product of the lazy reversal automaton and the
    reversed subset automaton of ``b``; the path spells the witness
    backwards.  Ties among shortest witnesses go to A-moves first.  Raises
    :class:`BudgetExceededError` after visiting ``budget`` product states,
    which is a resource verdict, not an emptiness one.
    """
    if b.alphabet != ("A", "B"):
        raise ValueError("intersection NFA must be over the AB alphabet")
    rev = reverse_winset_dfa(host)

    # predecessor masks of b, per symbol: reading b's language backwards
    pred = [[0] * b.state_count for _ in range(2)]
    for q in range(b.state_count):
        for sym in range(2):
            for t in b.delta[q][sym]:
                pred[sym][t] |= 1 << q
    b_init_mask = _mask(b.initial)
    b_start = _mask(b.finals)

    start = (rev.initial_mask, b_start)
    parent: dict[tuple[int, int], tuple[tuple[int, int], str]] = {}
    seen = {start}
    queue = deque([start])

    def witness(state: tuple[int, int]) -> str:
        # the BFS path reads the word reversed; undo that here
        symbols = []
        while state in parent:
            state, c = parent[state]
            symbols.append(c)
        return "".join(symbols)

    while queue:
        state = queue.popleft()
        hmask, bmask = state
        if rev.is_final(hmask) and bmask & b_init_mask:
            return witness(state)
        for sym, nh in enumerate(rev.successors(hmask)):
            nb = _image(bmask, pred[sym])
            if not nb:
                continue  # b's run died; no word extends through here
            nxt = (nh, nb)
            if nxt not in seen:
                if len(seen) >= budget:
                    raise BudgetExceededError(
                        f"more than {budget} product states visited"
                    )
                seen.add(nxt)
                parent[nxt] = (state, TURNS[sym])
                queue.append(nxt)
    return None

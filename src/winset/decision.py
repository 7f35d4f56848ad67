"""Polynomial decision procedures for winning sets.

Membership avoids the exponential winning-set DFA altogether: it reads the
turn word backwards through the reversal automaton,
:meth:`ReversalDfa.accepts <winset.game.ReversalDfa.accepts>`, which
carries just one host state-set.  Intersection with a regular turn-order
language is product reachability over the same lazy state space.

Both compile the host into a :class:`~winset.game.ReversalDfa` and keep
the last host's table until a call on another host object, so a run of
queries on one host compiles it once.  The module holds at most one
compiled host, and drops it before it compiles the next.
"""

from __future__ import annotations

from typing import Optional

from .automata import (
    STATE_BUDGET,
    TURNS,
    BudgetExceededError,
    Dfa,
    Nfa,
    _image,
    _mask,
    _require_alphabet,
)
from .game import ReversalDfa

# The last compiled host and its table, as one tuple, so that a thread that
# reads it never pairs one host with another host's table.
_last: Optional[tuple[Dfa, ReversalDfa]] = None


def _reversal(host: Dfa) -> ReversalDfa:
    """The reversal automaton of ``host``, compiled on the first call on
    this host object and kept until a call on another one."""
    global _last
    last = _last
    # A Dfa is frozen, so the same object has the same table; equality would
    # hash the whole table on every call.
    if last is not None and last[0] is host:
        return last[1]
    # drop the old table before compiling the new one, so that at most one
    # is alive, and none is left behind if the host is refused
    last = _last = None
    rev = ReversalDfa(host)
    _last = (host, rev)
    return rev


def member(host: Dfa, w: str) -> bool:
    """Is the turn word in the winning set of the host's language?

    Runs :meth:`ReversalDfa.accepts <winset.game.ReversalDfa.accepts>` on
    the reversed word, which carries a single subset of host states and
    materializes nothing; its docstring gives the cost.  The first call on
    a host object compiles it, and later calls on the same object only walk,
    until a call on another host replaces the compiled table.
    """
    return _reversal(host).accepts(w[::-1])


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
    one.  A ``budget`` that is not a number, nan included, raises
    ``ValueError``.
    """
    _require_alphabet(b, TURNS, "intersection NFA")
    try:
        if budget < 1:
            raise BudgetExceededError(f"more than {budget} product states visited")
    except TypeError as e:
        raise ValueError(f"budget must be a number, got {budget!r}") from e
    if budget != budget:
        raise ValueError("budget must be a number, got nan")
    rev = _reversal(host)

    # predecessor masks of b, per symbol: reading b's language backwards
    pred = [[0] * b.state_count for _ in range(2)]
    for q in range(b.state_count):
        for sym in range(2):
            for t in b.delta[q][sym]:
                pred[sym][t] |= 1 << q
    b_init_mask, h_init_mask = _mask(b.initial), 1 << rev.host.initial

    # each visited state maps to its BFS parent and the symbol read from it
    start = (rev.initial_mask, _mask(b.finals))
    parent: dict[tuple[int, int], Optional[tuple[tuple[int, int], str]]] = {start: None}
    order = [start]
    # iterating a list while appending to it visits the appended items too
    for state in order:
        hmask, bmask = state
        if hmask & h_init_mask and bmask & b_init_mask:
            # the BFS path reads the word reversed; walking it back undoes that
            symbols = []
            link = parent[state]
            while link is not None:
                state, c = link
                symbols.append(c)
                link = parent[state]
            return "".join(symbols)
        for sym, nh in enumerate(rev._successors(hmask)):
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

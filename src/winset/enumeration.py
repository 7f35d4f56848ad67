"""Exhaustive search for the worst-case winning-set state complexity.

Swapping the two edge labels of any state never changes the winning set, so
transition structures are enumerated as unordered target pairs per state —
n(n+1)/2 choices each.  Structures whose reachable part is smaller than n
are skipped (their languages already occur at smaller n), and so are
structures that a relabeling fixing the initial state maps to a
lexicographically smaller encoding; relabeled copies tie on every size.
"""

from __future__ import annotations

import time
from itertools import permutations, product
from typing import Callable, Iterator, NamedTuple, Optional

from .automata import Dfa
from .game import winset_dfa

SIZE_GUARD = 5  # the candidate space for n=6 is out of desk reach


class EnumerationResult(NamedTuple):
    max_size: int
    witness: Optional[Dfa]
    exhausted: bool


def _reaches_all(delta: tuple[tuple[int, int], ...], n: int) -> bool:
    seen = 1
    stack = [0]
    while stack:
        q = stack.pop()
        for t in delta[q]:
            bit = 1 << t
            if not seen & bit:
                seen |= bit
                stack.append(t)
    return seen == (1 << n) - 1


def _is_canonical(delta: tuple[tuple[int, int], ...], n: int) -> bool:
    """Least encoding among relabelings that keep state 0 initial."""
    for perm in permutations(range(1, n)):
        pi = (0,) + perm
        relabeled = [None] * n
        for q in range(n):
            a, b = delta[q]
            pa, pb = pi[a], pi[b]
            relabeled[pi[q]] = (pa, pb) if pa <= pb else (pb, pa)
        if tuple(relabeled) < delta:
            return False
    return True


def _structures(n: int, canonical: bool) -> Iterator[tuple[int, tuple[tuple[int, int], ...]]]:
    """``(position, delta)`` for every transition structure that reaches all
    n states (and, with ``canonical``, is canonical); ``position`` counts
    the candidates tried so far, kept or not, out of ``(n(n+1)/2)^n``."""
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    for position, delta in enumerate(product(pairs, repeat=n), start=1):
        if _reaches_all(delta, n) and (not canonical or _is_canonical(delta, n)):
            yield position, delta


def _hosts(delta: tuple[tuple[int, int], ...], n: int) -> Iterator[Dfa]:
    """The 2^n hosts on one structure, one per final set."""
    for fmask in range(1 << n):
        finals = frozenset(q for q in range(n) if fmask >> q & 1)
        yield Dfa(alphabet=("0", "1"), delta=delta, initial=0, finals=finals)


def host_corpus(n: int, *, canonical: bool = True) -> Iterator[Dfa]:
    """Every complete n-state binary host, all final sets included.

    Transition structures are taken up to edge-label swaps and, with
    ``canonical``, also up to relabelings fixing the initial state; neither
    quotient loses a winning set.  Structures not reaching all n states are
    skipped — their languages show up verbatim at smaller n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    for _, delta in _structures(n, canonical):
        yield from _hosts(delta, n)


def max_winset_complexity(
    n: int,
    budget_seconds: Optional[float] = None,
    *,
    observe: Optional[Callable[[int], None]] = None,
    progress: Optional[Callable[[int, int], None]] = None,
) -> EnumerationResult:
    """Largest minimal winning-set DFA over all complete n-state binary hosts.

    Returns the maximum, the lexicographically least (delta, finals) witness
    achieving it, and whether the search ran to completion; a budget in
    seconds turns partial results into exhausted=False instead of an error.
    ``observe`` sees every computed size (for bound checks); ``progress``
    gets (done, total) structure counts.
    """
    if not 1 <= n <= SIZE_GUARD:
        raise ValueError(f"n must be between 1 and {SIZE_GUARD}")
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    total = (n * (n + 1) // 2) ** n

    best_size = 0
    best: Optional[Dfa] = None
    for done, delta in _structures(n, canonical=True):
        if deadline is not None and time.monotonic() > deadline:
            return EnumerationResult(best_size, best, False)
        for host in _hosts(delta, n):
            size = winset_dfa(host).state_count
            if observe is not None:
                observe(size)
            if size > best_size:
                best_size = size
                best = host
        if progress is not None:
            progress(done, total)
    return EnumerationResult(best_size, best, True)

"""Exhaustive search for the worst-case winning-set state complexity.

Swapping the two edge labels of any state never changes the winning set, so
transition structures are enumerated as unordered target pairs per state —
n(n+1)/2 choices each.  States are numbered in breadth-first discovery
order, so every structure generated reaches all n states and none is
skipped for an unreachable one (structures that do not reach all n states
have their languages at smaller n).  Structures that a relabeling fixing
the initial state maps to a lexicographically smaller encoding are skipped;
relabeled copies tie on every size.

All 2^n final sets of one structure share one reversal graph.  The reversal
map m ↦ (pre₀(m) | pre₁(m), pre₀(m) & pre₁(m)) on host state-sets depends
only on the transitions, so it is tabulated once per structure as a graph G
on the 2^n masks.  For a final set F, the reversed winning set is the
language of state F in G, whose finals are the masks holding the initial
state; determinizing the reverse of G's part R_F reachable from F gives the
minimal winning-set DFA (Brzozowski's double reversal), so its subset count
is the size, and no ``Dfa`` is built.  One reverse subset construction per
structure, on the whole of G, serves every final set: sizes come by
restriction to R_F, since the subsets of F's construction are those of the
whole one intersected with R_F.  Complement duality, |W(not L)| = |W(L)|,
halves the counting: the size at F is mirrored to full ^ F.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Iterator, NamedTuple, Optional

from .automata import BINARY, STATE_BUDGET, Dfa, _check_range, explore, preimages

# The largest n run in full: `winset enumerate 6 --emit-witness w.dfa`, on the
# commit after dd51bd9, gave max=15624 exhausted=true in 228.1 s wall at 20.9 MB
# max RSS (one core of a 2-core Xeon VM, Python 3.11.7; 343.8 s at f998e4b).
SIZE_GUARD = 6


class EnumerationResult(NamedTuple):
    max_size: int
    witness: Optional[Dfa]
    exhausted: bool


def _bfs_ordered(n: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The breadth-first-numbered structures, in lexicographic order.

    Read row by row, each row names a new target only by the least unused
    number, and state q is named before row q: with k states named, row
    q < k takes (a, b) with a ≤ k, and b ≤ k, or b ≤ k + 1 when a == k.
    Each named state is a target of an earlier named one, so every such
    structure reaches all n states.  Conversely the least relabeling
    (fixing 0) of a structure that reaches all n states is breadth-first
    ordered: let v be its first new target that is not the least unused
    number k.  Its row r has r < k (else states 0..k-1 would be closed and
    k unreached), and r < k < v, so rows k and v come later; swapping the
    labels v and k lowers row r and leaves every earlier row alone.
    """

    def extend(prefix, k):
        q = len(prefix)
        if q == n:
            yield prefix
        elif q < k:
            for a in range(min(k, n - 1) + 1):
                for b in range(a, min(k + (a == k), n - 1) + 1):
                    yield from extend(prefix + ((a, b),), max(k, b + 1))

    return extend((), 1)


def _is_canonical(delta: tuple[tuple[int, int], ...], n: int) -> bool:
    """Whether the breadth-first ordered ``delta`` is the least encoding of
    its relabelings fixing 0.  The least is breadth-first ordered (see
    :func:`_bfs_ordered`): a BFS from 0 reads each row and names new targets
    by the least unused numbers, in either order when there are two, so at
    most 2^⌊(n-1)/2⌋ orders, not (n-1)! relabelings, are compared.  A row is
    final once read, so an order stops at its first row unequal to delta's."""
    stack = [([0], 0)]  # (the states by their new labels, next row)
    while stack:
        order, start = stack.pop()
        for q in range(start, n):
            a, b = delta[order[q]]
            if a not in order:
                if a != b and b not in order:
                    stack.append((order + [b, a], q))
                order.append(a)
            if b not in order:
                order.append(b)
            x, y = order.index(a), order.index(b)
            row = (x, y) if x <= y else (y, x)
            if row < delta[q]:
                return False
            if row > delta[q]:
                break
    return True


def _structures(n: int) -> Iterator[tuple[int, tuple[tuple[int, int], ...]]]:
    """``(position, delta)`` for every canonical transition structure, the
    least encoding among its relabelings.  ``position`` counts the
    breadth-first candidates of :func:`_bfs_ordered` tried so far, kept or
    not."""
    for position, delta in enumerate(_bfs_ordered(n), start=1):
        if _is_canonical(delta, n):
            yield position, delta


def _host(delta: tuple[tuple[int, int], ...], fmask: int) -> Dfa:
    finals = frozenset(q for q in range(len(delta)) if fmask >> q & 1)
    return Dfa(alphabet=BINARY, delta=delta, initial=0, finals=finals)


def _structure_sizes(delta: tuple[tuple[int, int], ...], n: int) -> list[int]:
    """The minimal winning-set DFA size of every host on one structure,
    indexed by final mask; equal to ``winset_dfa(host).state_count``."""
    # pre[m] = p0 | p1 << n, p_i the states moving into m on symbol i; as
    # preimages distribute over unions, pre[m | 1 << t] = pre[m] | pre[1 << t].
    full = (1 << n) - 1
    src = [0] * n
    for q, (a, b) in enumerate(delta):
        src[a] |= 1 << q
        src[b] |= 1 << q + n
    pre = [0]
    for s in src:
        pre += [p | s for p in pre]
    masks = range(1 << n)
    # G: the reversal map's A and B successors of every host state-set
    graph = [(p & full | p >> n, p & full & p >> n) for p in pre]
    # reach[m]: the masks reachable from m in G, itself included, as a set
    # of masks; a fixed point over 2^n masks (64 at n = 6)
    reach = [1 << m | 1 << a | 1 << b for m, (a, b) in enumerate(graph)]
    changed = True
    while changed:
        changed = False
        for m, (a, b) in enumerate(graph):
            r = reach[m] | reach[a] | reach[b]
            if r != reach[m]:
                reach[m] = r
                changed = True
    # the masks holding the initial state 0: the finals of G
    odd = sum(1 << m for m in masks if m & 1)
    # The size at F is the number of sets reached from odd & R_F under
    # S ↦ pre_G(S) & R_F, with R_F = reach[F].  R_F is closed under G's
    # successors: both successors of a mask m in R_F lie in R_F, so they
    # lie in S exactly when they lie in S & R_F, and hence
    # pre_G(S) & R_F == pre_G(S & R_F) & R_F.  So if S = x & R_F, the
    # successors of S are pre_G(x) & R_F, and by induction from
    # odd & R_F the sets that search reaches are exactly {x & R_F : x ∈ U},
    # where U is everything reached from odd under the unmasked pre_G:
    # one exploration serves every final set.
    U, _ = explore(odd, preimages(tuple(graph)), STATE_BUDGET, "subsets")
    sizes, counts = [], {}  # a size depends on F only through R_F
    for f in masks:
        rf = reach[min(f, full ^ f)]  # complement duality: F and full ^ F tie
        if rf not in counts:
            counts[rf] = len({x & rf for x in U})
        sizes.append(counts[rf])
    return sizes


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
    seconds turns partial results into exhausted=False instead of an error,
    and one that is nan or not a number raises ``ValueError``, as does an n
    that is not an int from 1 to ``SIZE_GUARD``.
    ``observe`` sees every computed size (for bound checks); ``progress``
    gets (done, total) after each kept structure, where ``done`` counts the
    breadth-first-numbered candidate structures tried so far, non-canonical
    ones included, and ``total`` is their number (counted only when
    ``progress`` is given).
    """
    _check_range((n,), 1, SIZE_GUARD + 1, f"n must be between 1 and {SIZE_GUARD}")
    try:
        if budget_seconds is not None and math.isnan(budget_seconds):
            raise ValueError("budget_seconds must be a number, got nan")
    except TypeError as e:
        raise ValueError(f"budget_seconds must be a number, got {budget_seconds!r}") from e
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    total = None if progress is None else sum(1 for _ in _bfs_ordered(n))

    best_size = 0
    best: Optional[Dfa] = None
    for done, delta in _structures(n):
        if deadline is not None and time.monotonic() > deadline:
            return EnumerationResult(best_size, best, False)
        for fmask, size in enumerate(_structure_sizes(delta, n)):
            if observe is not None:
                observe(size)
            if size > best_size:
                best_size = size
                best = _host(delta, fmask)
        if progress is not None:
            progress(done, total)
    return EnumerationResult(best_size, best, True)

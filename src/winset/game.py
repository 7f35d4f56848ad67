"""Winning-set constructions over a host DFA.

A *game state* is a collection of state-sets of a binary host DFA: the
outer collection tracks the choices still open to the word-builder (Alice),
the inner sets the uncertainty left to her opponent.  State-sets are stored
as int bitmasks; a game state is a sorted tuple of masks.  The empty tuple
is the rejecting sink; ``(0,)`` — the collection holding the empty set —
means Alice has already won, since the empty set is a subset of any final
set and stays empty forever.
"""

from __future__ import annotations

from math import inf
from typing import Iterable, Sequence

from .automata import (
    BINARY,
    STATE_BUDGET,
    TURNS,
    BudgetExceededError,
    Dfa,
    Nfa,
    _bisimilar,
    _check_range,
    _explored_dfa,
    _image,
    _mask,
    _quotient,
    _require_alphabet,
    _trim,
    _turn_index,
    coaccessible,
    determinize_reverse,
    explore,
    preimages,
)

GameState = tuple[int, ...]


def game_state(sets: Iterable[Iterable[int]]) -> GameState:
    """Build a (possibly unnormalized) game state from collections of
    states, each a non-negative int."""

    message = "game-state state {!r} is not a non-negative int"
    return tuple(sorted({_mask(_check_range(tuple(s), 0, inf, message)) for s in sets}))


# ---------------------------------------------------------------------------
# per-host tables


def _minimal(members: set[int]) -> GameState:
    """The members of ``members`` with no proper subset among them, sorted."""
    kept: list[int] = []
    # fewer bits first, so a mask can only be covered by one kept before it
    for m in sorted(members, key=int.bit_count):
        for k in kept:
            if k & m == k:
                break
        else:
            kept.append(m)
    return tuple(sorted(kept))


class _Host:
    """A host DFA compiled for the game: state-set masks and step memos.
    A host that is not over the 01 alphabet is refused here, so every entry
    point that compiles one checks it."""

    def __init__(self, host: Dfa):
        _require_alphabet(host, BINARY, "host DFA")
        self.delta = host.delta
        # per state, the mask of its successors on either symbol
        self.succ = [(1 << t0) | (1 << t1) for t0, t1 in host.delta]
        self.fmask = _mask(host.finals)
        # states with some path into F
        self.coacc = _mask(coaccessible(host))
        # final states looping to themselves on both symbols
        self.acc_sink = _mask(q for q in host.finals if host.delta[q] == (q, q))
        # per member mask, its normalized A and B images
        self._memo: dict[int, tuple[GameState, GameState]] = {}

    def members(self, g: Iterable[int]) -> tuple[int, ...]:
        """The members of ``g``, each checked to be a set of the host's
        states.  The public entry points check what they are handed; the
        per-member methods below trust their callers."""
        message = f"game-state member {{!r}} is not a set of the host's {len(self.delta)} states"
        return _check_range(tuple(g), 0, 1 << len(self.delta), message)

    def a_images(self, mask: int) -> tuple[int, ...]:
        """All images of the set ``mask`` under choice functions into {0,1}."""
        out = {0}
        while mask:
            q = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            t0, t1 = self.delta[q]
            b0, b1 = 1 << t0, 1 << t1
            if b0 == b1:
                out = {img | b0 for img in out}
            else:
                out = {img | b for img in out for b in (b0, b1)}
        return tuple(sorted(out))

    def b_image(self, mask: int) -> int:
        """The set of all successors of the set ``mask``."""
        return _image(mask, self.succ)

    def normalize(self, g: Iterable[int]) -> GameState:
        keep, dead = ~self.acc_sink, ~self.coacc
        members = set()
        for m in g:
            m &= keep
            if not m & dead:
                members.add(m)
        return _minimal(members)

    def images(self, m: int) -> tuple[GameState, GameState]:
        """The normalized A and B images of the member ``m``."""
        return self.normalize(self.a_images(m)), self.normalize((self.b_image(m),))

    def steps(self, g: Iterable[int]) -> tuple[GameState, GameState]:
        """The A and the B step of ``g``, from per-member memos of
        :meth:`images`: the minimal members of a union are those of the
        union of its parts' minimal members."""
        memo, a, b = self._memo, set(), set()
        for m in g:
            pair = memo.get(m)
            if pair is None:
                pair = memo[m] = self.images(m)
            a.update(pair[0])
            b.update(pair[1])
        return _minimal(a), _minimal(b)

    def step(self, g: Iterable[int], c: str) -> GameState:
        """The normalized union of the members' images on turn ``c``."""
        i = _turn_index(c)
        return self.steps(g)[i]

    def accepting(self, g: GameState) -> bool:
        fmask = self.fmask
        return any(m & ~fmask == 0 for m in g)

    def equivalent(self, g: Iterable[int], h: Iterable[int]) -> bool:
        """Do two game states accept the same turn-order language?  Lazy
        bisimulation of the normalized game states."""
        return _bisimilar(self.normalize(g), self.normalize(h), self.accepting, self.steps)


def _closures(
    nodes: Sequence[int],
    a_rows: Sequence[Sequence[int]],
    b_rows: Sequence[Sequence[int]],
    delta: tuple[tuple[int, int], ...],
    fmask: int,
) -> list[int]:
    """Per node i, the greatest mask R[i] of host states that win every turn
    word the node wins.

    A node is a set of host states, won on a word when Alice wins it from
    every one of them.  The node graph must cover the game: a node wins A·v
    only if some A successor j wins v, and B·v only if every node of its B
    group wins v.  R is the greatest family with R[i] ⊆ F when node i ⊆ F,
    R[i] ⊆ pre₀(R[j]) | pre₁(R[j]) for every A successor j, and R[i] ⊆
    pre₀(U) & pre₁(U) for the union U of R over a non-empty B group.  Then
    Alice wins from each q ∈ R[i] every word v that node i wins, by
    induction on v: on the empty word, node i ⊆ F puts q in F; on A·v some
    A successor j wins v, hence by induction every state of R[j], and q has
    a successor there; on B·v every node of the group wins v, hence every
    state of U, which holds both of q's successors.  An empty group asks
    nothing: the node wins no B·v.

    Rows start at F for nodes inside F and at every state for the others
    and shrink to the greatest fixpoint.  Each node keeps the preimages
    pair of its row, since preimages distribute over the union U; a row
    that shrinks renews its pair and puts its predecessors back on the
    worklist.
    """
    pre, full = preimages(delta), (1 << len(delta)) - 1
    rel = [full if t & ~fmask else fmask for t in nodes]
    first = {r: pre(r) for r in {fmask, full}}
    pairs = [first[r] for r in rel]
    preds: list[set[int]] = [set() for _ in nodes]
    for i, (a, b) in enumerate(zip(a_rows, b_rows)):
        for j in (*a, *b):
            preds[j].add(i)
    work = set(range(len(nodes)))
    while work:
        i = work.pop()
        row = rel[i]
        for j in a_rows[i]:
            p0, p1 = pairs[j]
            row &= p0 | p1
        if b_rows[i]:
            u0 = u1 = 0
            for j in b_rows[i]:
                p0, p1 = pairs[j]
                u0, u1 = u0 | p0, u1 | p1
            row &= u0 & u1
        if row != rel[i]:
            rel[i] = row
            pairs[i] = pre(row)
            work |= preds[i]
    return rel


def _game_preorder(delta: tuple[tuple[int, int], ...], fmask: int) -> list[int]:
    """The game preorder of a binary host: ``rel[p]`` is the mask of the
    states q with p ⊑ q.

    ⊑ is the greatest relation in which p ⊑ q implies (1) p ∈ F ⇒ q ∈ F,
    (2) every successor p_i of p has a successor q_j of q with p_i ⊑ q_j,
    and (3) every successor q_j of q has a successor p_i of p with
    p_i ⊑ q_j.  It is :func:`_closures` of the singletons {p}, whose A
    successors and B group are both p's successors: (2) is the A condition
    and (3) the B one.  So Alice wins every turn word from q that she wins
    from p.  An accepting sink is above every state and a state with no
    path into F below every state.
    """
    return _closures([1 << p for p in range(len(delta))], delta, delta, delta, fmask)


def _member_closures(host: Dfa, budget: int) -> tuple[_Host, GameState, dict[int, int]]:
    """The forward engine's members and their closures.

    A member S of a game state stands for "Alice wins from every state of
    S", which does not change when the states ⊑-above S, under
    :func:`_game_preorder`, are added.  So a member is held as its
    up-closure ↑S, less the states above an accepting sink, which win every
    word; a member whose closure holds a state with no path into F, which
    wins none, is dropped.  The subset test of :func:`_minimal` then also
    absorbs a member T when every state of another member lies above some
    state of T.  A member steps from its ⊑-minimal states, the
    lowest-numbered of each class of equivalent states: by conditions (2)
    and (3) of :func:`_game_preorder`, the closures of its images are the
    same as from all of its states.

    The members reachable from the initial game state are numbered
    breadth-first, and R is :func:`_closures` over the member graph: a
    member wins A·v iff some member of its A image wins v, and B·v iff the
    member of its B image does.  A member T is held as its closure
    R[T] | T.  Returns a compiled host whose step memo maps each closure
    to its images' closures, from the first member found with it, the
    initial game state of closures, and the map from members T to R[T].
    Raises :class:`BudgetExceededError` past ``budget`` members.
    """
    h = _Host(host)
    rel = _game_preorder(host.delta, h.fmask)
    keep = ~_image(h.acc_sink, rel)
    up = [row & keep for row in rel]
    # equivalent states have equal rows; above[q] holds the states above
    # q but for q's equivalents of index at most q
    classes: dict[int, int] = {}
    for q, row in enumerate(rel):
        classes[row] = classes.get(row, 0) | 1 << q
    above = [row & ~(classes[row] & (2 << q) - 1) for q, row in enumerate(rel)]
    images: dict[int, tuple[GameState, GameState]] = {}

    def member_images(m: int) -> GameState:
        base = m & ~_image(m, above)
        a, b = images[m] = tuple(
            h.normalize(_image(x, up) for x in xs) for xs in (h.a_images(base), (h.b_image(base),))
        )
        return a + b

    start = h.normalize((up[host.initial],))
    # the initial game state holds one up-closure at most
    members, rows = explore(start[0], member_images, budget, "members") if start else ([], [])
    a_rows = [row[: len(images[m][0])] for m, row in zip(members, rows)]
    b_rows = [row[len(a) :] for a, row in zip(a_rows, rows)]
    rel = dict(zip(members, _closures(members, a_rows, b_rows, host.delta, h.fmask)))
    closure = {m: r | m for m, r in rel.items()}
    for m, c in closure.items():
        if c not in h._memo:
            h._memo[c] = tuple(_minimal({closure[t] for t in img}) for img in images[m])
    return h, tuple(map(closure.get, start)), rel


# ---------------------------------------------------------------------------
# game-state algebra


def normalize(host: Dfa, g: Iterable[int]) -> GameState:
    """Reduce a game state without changing its winning language.

    In order: strip accepting sink states out of every member (once in such
    a state, staying accepted costs nothing); drop members containing a
    state from which no final state is reachable (the opponent parks there);
    drop strict supersets of other members (more uncertainty never helps
    Alice).  Result is a sorted antichain.
    """
    h = _Host(host)
    return h.normalize(h.members(g))


def is_accepting(host: Dfa, g: GameState) -> bool:
    """A game state accepts iff some member is contained in the finals."""
    h = _Host(host)
    return h.accepting(h.members(g))


def winning_step(host: Dfa, g: Iterable[int], c: str) -> GameState:
    """One game-automaton transition: the normalized union of per-member
    successor sets.

    On A every member expands to its images under all choice functions; on B
    each member collapses to the single set of all possible successors.  The
    result equals ``normalize(host, successors)`` whether or not ``g`` is
    normalized: it is :meth:`_Host.step`.
    """
    h = _Host(host)
    return h.step(h.members(g), c)


def winning_run(host: Dfa, g: Iterable[int], word: str) -> GameState:
    h = _Host(host)
    cur = h.normalize(h.members(g))
    for c in word:
        cur = h.step(cur, c)
    return cur


def leq(g: GameState, h: GameState) -> bool:
    """g <= h iff every member of g is witnessed by a subset in h.

    A smaller game state is weaker for Alice; the step function is monotone
    for this order.  Members must be non-negative ints, as no host bounds
    them here.
    """
    g, h = tuple(g), tuple(h)
    _check_range(g + h, 0, inf, "game-state member {!r} is not a non-negative int")
    return all(any(r & s == r for r in h) for s in g)


# ---------------------------------------------------------------------------
# automata for the winning set


def winset_nfa(host: Dfa) -> Nfa:
    """The canonical NFA for the winning set of the host's language.

    States are the host state-sets reachable from {q0}; a set is final iff
    it sits inside the host finals.  Only reachable sets are materialized,
    at most :data:`~winset.automata.STATE_BUDGET` of them.
    """
    h = _Host(host)
    order, rows = explore(
        1 << host.initial,
        lambda m: (*h.a_images(m), h.b_image(m)),
        STATE_BUDGET,
        "host subsets",
    )
    # a row is the A images followed by the B image
    delta = tuple((frozenset(row[:-1]), frozenset(row[-1:])) for row in rows)
    finals = frozenset(i for i, m in enumerate(order) if m & ~h.fmask == 0)
    return Nfa(alphabet=TURNS, delta=delta, initial=frozenset({0}), finals=finals)


# Reversal subsets past which winset_dfa leaves the reversal engine for the
# forward one.  Measured: the reversal engine lost only on the game-state
# factory and lower-bound gadgets, with many reversal subsets (589 to
# 143,983) but small winning sets: 2.1 against 0.35 ms at 589 subsets and
# 44 against 5.3 ms at 3,947; it won at 31 and 87.  It won on every other
# host: five random 17- to 22-state hosts with 706 to 1,003 subsets took
# it 1.3 to 7.8 s, and the forward engine, with the game preorder and the
# member closures, 116 s and 118 s on two and over 150 s on the others.
# Giving up here costs ~4 ms.  The subsets counted are those of the host's
# reachable part, so unreachable states never push a host over the limit.
REVERSAL_SUBSETS = 2048


def winset_dfa(host: Dfa, *, max_game_states: int = STATE_BUDGET) -> Dfa:
    """Minimal DFA for the winning set, states numbered breadth-first.

    Two engines give byte-identical results.  The reversal engine explores
    the host subsets of :class:`ReversalDfa` and determinizes the reverse
    of that automaton, which yields the minimal DFA directly (Brzozowski's
    double reversal).  It runs first; if the reversal automaton has more
    than :data:`REVERSAL_SUBSETS` subsets of the host's reachable states, it
    gives up and the forward engine runs instead: it explores the members
    of game states, closes each under the host states that win every word
    it wins, and runs a subset construction over antichains of these
    closures, then Hopcroft minimization.

    ``max_game_states`` caps the states of the result on the reversal
    route.  On the forward route it caps, each on its own, the members
    explored and the game states materialized before minimizing.  Past it
    :class:`BudgetExceededError` is raised; the winning-set DFA can be
    doubly exponential in the host, so silent truncation is never an
    option.
    """
    # the forward engine runs after the except clause, so the give-up's
    # traceback, which holds the reversal subsets, is freed before it
    try:
        rev = ReversalDfa(host).to_dfa(max_states=REVERSAL_SUBSETS)
    except BudgetExceededError:
        pass
    else:
        return determinize_reverse(rev, max_game_states)
    return _forward_winset_dfa(host, max_game_states)


def _forward_winset_dfa(host: Dfa, max_game_states: int = STATE_BUDGET) -> Dfa:
    """The forward engine: game states of the closures of
    :func:`_member_closures`, then minimization.

    A closure is won on the same words as its member, so members with equal
    closures merge, and :func:`_minimal` absorbs a closure that holds
    another.  A closure steps from the first member found with it, and the
    game state accepts iff some closure lies inside F, as its member does.
    The game states differ from :func:`normalize`'s but accept the same
    languages, so Hopcroft and the breadth-first renumbering give the same
    minimal DFA.
    """
    # the map from members to rows is dropped before the game states
    h, start = _member_closures(host, max_game_states)[:2]
    order, rows = explore(start, h.steps, max_game_states, "game states")
    finals = {i for i, g in enumerate(order) if h.accepting(g)}
    del order, h  # free the game states before the quotient reaches its peak
    # the rows are BFS-numbered from the initial state, so they need no trim
    return _quotient(TURNS, rows, finals)


class ReversalDfa:
    """Lazy DFA on host state-sets recognizing the reversed winning set.

    Start at the host finals; reading A keeps the states with *some*
    successor in the current set, reading B those with *both*: with
    pre₀/pre₁ the preimages under the host's two symbols, A maps m to
    pre₀(m) | pre₁(m) and B to pre₀(m) & pre₁(m).  A set is final iff it
    contains the host initial state.  The host is trimmed to its reachable
    part, numbered breadth-first as :func:`~winset.automata.minimize`
    numbers it, and kept as :attr:`host`; its preimage map is compiled
    once, in the constructor, and transitions are computed per step, so
    membership queries never materialize 2^n states.  Masks passed in and
    returned are over :attr:`host`, in those numbers, not the given host's.
    """

    def __init__(self, host: Dfa):
        _require_alphabet(host, BINARY, "host DFA")
        # Each reachable state moves to reachable ones, so on the reachable
        # set R the step commutes with the restriction, pre_i(m) & R =
        # pre_i(m & R) & R, and the initial state is in R: every walk ends in
        # the same answer on the trimmed table as on the host's own.  Sets
        # that differ only outside R merge, and the breadth-first numbers
        # give chains and cycles few offsets, so that preimages takes the
        # shift step on them, for every mask, whatever the given numbering.
        self.host = _trim(host)
        self._pre = preimages(self.host.delta)
        self.initial_mask = _mask(self.host.finals)

    def _check(self, mask: int) -> int:
        """``mask``, checked to be a set of :attr:`host`'s states.  The
        public methods check what they are handed; :meth:`to_dfa` and
        :func:`~winset.decision.intersect_nonempty` step only masks that
        :meth:`_successors` made, and skip the check."""
        message = f"mask {{!r}} is not a set of the trimmed host's {self.host.state_count} states"
        return _check_range((mask,), 0, 1 << self.host.state_count, message)[0]

    def _successors(self, mask: int) -> tuple[int, int]:
        p0, p1 = self._pre(mask)
        return p0 | p1, p0 & p1

    def successors(self, mask: int) -> tuple[int, int]:
        """The A and the B successor of ``mask``."""
        return self._successors(self._check(mask))

    def step(self, mask: int, c: str) -> int:
        i = _turn_index(c)
        return self._successors(self._check(mask))[i]

    def is_final(self, mask: int) -> bool:
        return bool(self._check(mask) >> self.host.initial & 1)

    def accepts(self, word: str) -> bool:
        """Does the automaton accept ``word``, a turn word read backwards?

        Walks a single subset of host states through the word, and stops
        early once the subset is empty or holds every state of :attr:`host`.
        With n reachable host states and k letters read before either, that
        is O(k * n) time at worst, and k <= |word|.  On a host whose
        breadth-first numbered transitions have few offsets, such as
        :func:`~winset.gadgets.exact_ones_dfa`, every step costs O(#offsets)
        big-integer operations.  On other large hosts a step from a sparse
        subset walks only its set bits, as
        :func:`~winset.automata.preimages` describes, and any other step
        costs O(n); a full subset is not stepped, since it ends the walk.
        A letter other than A or B raises ``ValueError`` naming the first
        one in ``word``, wherever the walk stops.
        """
        if word.count("A") + word.count("B") != len(word):
            for c in word:
                _turn_index(c)
        pre, m = self._pre, self.initial_mask
        # Both sets are fixed points of both steps: pre_i(0) = 0, and since
        # the table is total every state has an i-successor in the full set,
        # so pre_i(full) = full; their union and intersection are then 0 and
        # full again.  The rest of the word cannot change the answer: 0 does
        # not hold the initial state, and full does.
        full = (1 << self.host.state_count) - 1
        for c in word:
            if not m or m == full:
                break
            p0, p1 = pre(m)
            m = p0 & p1 if c == "B" else p0 | p1
        return self.is_final(m)

    def to_dfa(self, *, max_states: int = STATE_BUDGET) -> Dfa:
        """Materialize the reachable part as an explicit DFA."""
        init = 1 << self.host.initial
        return _explored_dfa(
            TURNS, self.initial_mask, self._successors, max_states, "subset states", init.__and__
        )


def game_states_equivalent(host: Dfa, g: Iterable[int], h: Iterable[int]) -> bool:
    """Do two game states accept the same turn-order language?

    Lazy bisimulation of the normalized game states, as in
    :func:`~winset.automata.equivalent`.
    """
    compiled = _Host(host)
    return compiled.equivalent(compiled.members(g), compiled.members(h))

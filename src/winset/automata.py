"""Core automata types and classical algorithms.

All automata here are over a two-symbol alphabet: either ``0``/``1`` for
target languages or ``A``/``B`` for turn-order languages.  DFAs are always
complete; partial transition tables are rejected at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections import deque
from itertools import chain
from operator import itemgetter
from typing import Callable, Collection, Iterable, Iterator, Sequence

BINARY = ("0", "1")
TURNS = ("A", "B")

_ALPHABETS = {"01": BINARY, "AB": TURNS}


def _turn_index(c: str) -> int:
    """0 for the turn symbol A, 1 for B; anything else, the empty string and
    a word of several letters included, raises ``ValueError``."""
    if c == "A":
        return 0
    if c == "B":
        return 1
    raise ValueError(f"turn symbol must be A or B, got {c!r}")


def _check_range(xs: Iterable, lo: int, hi: float, message: str):
    """``xs``, once every x in it is an int, of type int itself, with
    ``lo <= x < hi``; the first x that is not raises
    ``ValueError(message.format(x))``.  A bool, or any other int subclass
    such as an ``IntEnum`` member, is refused: no text writes it as a number.

    The one check on the states, state sets, sizes and indices the library
    is handed.  ``message`` holds ``{!r}`` where the value goes, or no
    field at all; an int's repr is its decimal, so int messages read as
    an f-string would.  A caller that uses the result passes a tuple, not
    an iterator."""
    for x in xs:
        if type(x) is not int or not lo <= x < hi:
            raise ValueError(message.format(x))
    return xs


def _check_fields(a: Dfa | Nfa, sets: tuple[frozenset[int], ...]):
    """What :class:`Dfa` and :class:`Nfa` check alike: one of the two
    alphabets the text format reads, 01 and AB, a tuple ``delta``, and the
    frozensets ``sets`` of states, which keep the automaton hashable."""
    if a.alphabet not in _ALPHABETS.values():
        raise ValueError(f"alphabet must be 01 or AB, got {a.alphabet!r}")
    if type(a.delta) is not tuple or set(map(type, sets)) != {frozenset}:
        raise ValueError("an automaton's delta must be a tuple and its state sets frozensets")


def _require_alphabet(a: Dfa | Nfa, alphabet: tuple[str, str], what: str):
    """Refuse an automaton handed in from outside that is not over ``alphabet``;
    ``what`` names it in the message."""
    if a.alphabet != alphabet:
        raise ValueError(f"{what} must be over the {''.join(alphabet)} alphabet")


def _check_budget(budget, name: str = "budget"):
    """``budget``, once it compares with numbers and is neither nan nor a
    bool; else ``ValueError`` names it.  The one check on the budgets the
    searches take: nan compares false with everything, so it would cap
    nothing, and a bool is no count."""
    try:
        if type(budget) is not bool and budget == budget and (budget < 0 or budget >= 0):
            return budget
    except TypeError:
        pass
    raise ValueError(f"{name} must be a number, got {budget!r}")


def _symbol_index(alphabet: tuple[str, str], symbol: str) -> int:
    try:
        return alphabet.index(symbol)
    except ValueError:
        raise ValueError(f"symbol {symbol!r} not in alphabet {''.join(alphabet)}") from None


# Default cap on the states one subset construction may materialize.
STATE_BUDGET = 2_000_000


class FormatError(ValueError):
    """Raised for malformed automaton text."""


class BudgetExceededError(RuntimeError):
    """A construction hit its configured resource cap (not a wrong answer)."""


@dataclass(frozen=True)
class Dfa:
    """A complete deterministic finite automaton.

    ``delta[q]`` is a pair of target states, indexed by symbol position in
    ``alphabet``.  States are the ints ``0..n-1``; ``delta`` and its rows
    are tuples and ``finals`` is a frozenset, so instances are immutable and
    hashable: they can be used as cache keys and shared freely between
    threads.
    """

    alphabet: tuple[str, str]
    delta: tuple[tuple[int, int], ...]
    initial: int
    finals: frozenset[int]

    def __post_init__(self):
        _check_fields(self, (self.finals,))
        n = len(self.delta)
        if n == 0:
            raise ValueError("a DFA needs at least one state")
        _check_range((self.initial,), 0, n, "initial state {!r} out of range")
        for q, row in enumerate(self.delta):
            if type(row) is not tuple or len(row) != 2:
                raise ValueError(f"state {q}: need a target per symbol")
        _check_range(chain.from_iterable(self.delta), 0, n, "target {!r} out of range")
        _check_range(self.finals, 0, n, "final state {!r} out of range")

    @property
    def state_count(self) -> int:
        return len(self.delta)

    def symbol_index(self, symbol: str) -> int:
        return _symbol_index(self.alphabet, symbol)

    def run(self, word: str) -> int:
        """State reached from the initial state after reading ``word``."""
        q = self.initial
        for s in word:
            q = self.delta[q][_symbol_index(self.alphabet, s)]
        return q


class GraphBuilder:
    """Assemble a two-symbol DFA from named states and labeled arcs.

    ``arc(src, x)`` sends both symbols to x; ``arc(src, x, y)`` sends 0 to x
    and 1 to y.  Names are any hashable values.  States spring into
    existence on first mention, numbered in mention order, which keeps
    layouts deterministic.
    """

    def __init__(self):
        self._index: dict = {}
        # the (target on 0, target on 1) row of each state, None until set
        self._rows: list = []
        self._finals: set[int] = set()

    def state(self, name, *, final: bool = False) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self._rows)
            self._rows.append(None)
        if final:
            self._finals.add(idx)
        return idx

    def arc(self, src, target0, target1=None):
        s = self.state(src)
        t0 = self.state(target0)
        row = (t0, t0 if target1 is None else self.state(target1))
        old = self._rows[s]
        if old is not None and old != row:
            sym = 0 if old[0] != row[0] else 1
            raise ValueError(f"conflicting transition from {src!r} on {sym}")
        self._rows[s] = row

    @property
    def labels(self) -> dict:
        return dict(self._index)

    def build(self, initial) -> Dfa:
        if initial not in self._index:
            raise ValueError(f"initial state {initial!r} is not a state of the builder")
        rows = self._rows
        if None in rows:
            name = list(self._index)[rows.index(None)]
            raise ValueError(f"state {name!r} has no transition on 0")
        finals = frozenset(self._finals)
        return Dfa(alphabet=BINARY, delta=tuple(rows), initial=self._index[initial], finals=finals)


@dataclass(frozen=True)
class Nfa:
    """A nondeterministic finite automaton with a set of initial states.

    States are the ints ``0..n-1``; ``delta`` and its rows are tuples, and
    the target sets, ``initial`` and ``finals`` are frozensets.
    """

    alphabet: tuple[str, str]
    delta: tuple[tuple[frozenset[int], frozenset[int]], ...]
    initial: frozenset[int]
    finals: frozenset[int]

    def __post_init__(self):
        _check_fields(self, (self.initial, self.finals))
        n = len(self.delta)
        for q, row in enumerate(self.delta):
            if type(row) is not tuple or list(map(type, row)) != [frozenset] * 2:
                raise ValueError(f"state {q}: need a target set per symbol")
            _check_range(row[0] | row[1], 0, n, "target {!r} out of range")
        _check_range(self.initial | self.finals, 0, n, "state {!r} out of range")

    @property
    def state_count(self) -> int:
        return len(self.delta)


def as_nfa(d: Dfa) -> Nfa:
    delta = tuple((frozenset({t0}), frozenset({t1})) for t0, t1 in d.delta)
    return Nfa(alphabet=d.alphabet, delta=delta, initial=frozenset({d.initial}), finals=d.finals)


def accepts(d: Dfa, word: str) -> bool:
    """True iff iterated delta from the initial state lands in a final state."""
    return d.run(word) in d.finals


def nfa_accepts(n: Nfa, word: str) -> bool:
    current = set(n.initial)
    for s in word:
        i = _symbol_index(n.alphabet, s)
        current = set().union(*(n.delta[q][i] for q in current)) if current else set()
    return bool(current & n.finals)


# ---------------------------------------------------------------------------
# text format


def _tokenize(text: str) -> Iterator[tuple[int, list[str]]]:
    """The numbered token lists of the non-blank lines, each split off as
    the caller reads it; ``#`` starts a comment.  Text without tokens raises
    :class:`FormatError`."""
    tokens = (raw.split("#", 1)[0].split() for raw in text.splitlines())
    lines = filter(itemgetter(1), enumerate(tokens, start=1))
    first = next(lines, None)
    if first is None:
        raise FormatError("empty input")
    return chain((first,), lines)


def _fail(lineno: int, msg: str):
    raise FormatError(f"line {lineno}: {msg}")


def _read_automaton(text: str, kinds: tuple[str, ...]):
    """Read the text format shared by DFAs (kind ``dfa``) and NFAs (``nfa``)
    in one pass over its lines; the header names the kind, one of
    ``kinds``, and a header that does not is refused naming ``kinds[0]``.

    Returns the kind, the alphabet, the list of initial states, the
    frozenset of final states and the transitions as a pair of columns of
    length n, one per symbol: ``cols[i][q]`` is the target of state q on
    symbol i (for an NFA, the frozenset of its targets), or None where no
    line gives one.  A DFA needs at least one state, exactly one initial
    state and exactly one target per transition line; an NFA allows any
    number of each.
    """
    lines = _tokenize(text)
    lineno, header = next(lines)
    kind = header[0] if header[0] in kinds else kinds[0]
    if len(header) != 3 or header[0] != kind:
        _fail(lineno, f"expected header '{kind} <state_count> <alphabet>'")
    dfa = kind == "dfa"
    least, many = (1, "") if dfa else (0, "...")
    try:
        n = int(header[1])
    except ValueError:
        _fail(lineno, f"bad state count {header[1]!r}")
    if n < least:
        _fail(lineno, f"state count must be at least {least}")
    if n > STATE_BUDGET:
        _fail(lineno, f"state count {n} exceeds the budget of {STATE_BUDGET}")
    alphabet = _ALPHABETS.get(header[2])
    if alphabet is None:
        _fail(lineno, f"alphabet must be 01 or AB, got {header[2]!r}")

    def state(tok: str, lineno: int) -> int:
        try:
            q = int(tok)
        except ValueError:
            _fail(lineno, f"bad state index {tok!r}")
        if not 0 <= q < n:
            _fail(lineno, f"state index {q} out of range 0..{n - 1}")
        return q

    init, fin = next(lines, None), next(lines, None)
    if fin is None:
        raise FormatError("missing 'initial' or 'finals' line")
    lineno, init_line = init
    if init_line[0] != "initial" or (dfa and len(init_line) != 2):
        _fail(lineno, f"expected 'initial <q>{many}'")
    initial = [state(tok, lineno) for tok in init_line[1:]]
    lineno, finals_line = fin
    if finals_line[0] != "finals":
        _fail(lineno, "expected 'finals <q>...'")
    finals = frozenset(state(tok, lineno) for tok in finals_line[1:])

    column = {sym: [None] * n for sym in alphabet}

    def transition(lineno: int, parts: list[str]):
        """The column, state and set of targets of an NFA transition line,
        checked in the order the line is read.  A DFA line comes here only
        once its inline check failed, and fails one of these checks too."""
        if len(parts) < 2 or (dfa and len(parts) != 3):
            _fail(lineno, f"expected '<state> <symbol> <target>{many}'")
        q = state(parts[0], lineno)
        col = column.get(parts[1])
        if col is None:
            _fail(lineno, f"symbol {parts[1]!r} not in alphabet")
        if col[q] is not None:
            _fail(lineno, f"duplicate transition for state {q} symbol {parts[1]}")
        return col, q, frozenset(state(tok, lineno) for tok in parts[2:])

    for lineno, parts in lines:
        # a DFA line checked inline; any other line, and one that fails a
        # check, is read by transition(), which names the first fault
        try:
            q, sym, t = parts
            q, t, col = int(q), int(t), column[sym]
            ok = dfa and 0 <= q < n and 0 <= t < n and col[q] is None
        except (ValueError, KeyError):
            ok = False
        if not ok:
            col, q, t = transition(lineno, parts)
        col[q] = t
    return kind, alphabet, initial, finals, tuple(column.values())


def _dfa_from_columns(alphabet, initial: list[int], finals, cols) -> Dfa:
    """The DFA of what :func:`_read_automaton` read from DFA text, once
    every transition is given."""
    if None in cols[0] or None in cols[1]:
        q, i = min((col.index(None), i) for i, col in enumerate(cols) if None in col)
        raise FormatError(f"missing transition for state {q} symbol {alphabet[i]}")
    return Dfa(alphabet=alphabet, delta=tuple(zip(*cols)), initial=initial[0], finals=finals)


def parse_dfa(text: str) -> Dfa:
    """Parse the line-oriented DFA text format.

    Header ``dfa <state_count> <alphabet>``, then ``initial <q>``, then
    ``finals <q>...``, then one ``<q> <symbol> <target>`` line per
    (state, symbol) pair.  ``#`` starts a comment; blank lines are ignored.
    Missing or duplicate transitions are errors.
    """
    return _dfa_from_columns(*_read_automaton(text, ("dfa",))[1:])


def dfa_to_text(d: Dfa) -> str:
    a, b = d.alphabet
    out = [f"dfa {d.state_count} {a}{b}", f"initial {d.initial}"]
    out.append("finals " + " ".join(map(str, sorted(d.finals))))
    out += (f"{q} {a} {t0}\n{q} {b} {t1}" for q, (t0, t1) in enumerate(d.delta))
    return "\n".join(out) + "\n"


def parse_nfa(text: str) -> Nfa:
    """Parse an NFA from text; ``dfa`` headers are accepted as a special case.

    The NFA format mirrors the DFA one with header ``nfa``, an ``initial``
    line that may list several states, and transition lines
    ``<q> <symbol> <target>...`` with zero or more targets, at most one line
    per (state, symbol) pair.  Omitted pairs mean no successor.
    """
    kind, alphabet, initial, finals, cols = _read_automaton(text, ("nfa", "dfa"))
    if kind == "dfa":
        return as_nfa(_dfa_from_columns(alphabet, initial, finals, cols))
    none = frozenset()
    # states without transitions share one empty row
    empty = (none, none)
    delta = tuple(empty if a is b is None else (a or none, b or none) for a, b in zip(*cols))
    return Nfa(alphabet=alphabet, delta=delta, initial=frozenset(initial), finals=finals)


def to_dot(d: Dfa) -> str:
    """Graphviz DOT export: doubled circles for finals, edge labels are symbols."""
    out = ["digraph dfa {", "  rankdir=LR;", '  __start [shape=point, label=""];']
    for q in range(d.state_count):
        shape = "doublecircle" if q in d.finals else "circle"
        out.append(f"  q{q} [shape={shape}, label=\"{q}\"];")
    out.append(f"  __start -> q{d.initial};")
    for q in range(d.state_count):
        by_target: dict[int, list[str]] = {}
        for i, sym in enumerate(d.alphabet):
            by_target.setdefault(d.delta[q][i], []).append(sym)
        for t, syms in sorted(by_target.items()):
            out.append(f"  q{q} -> q{t} [label=\"{','.join(syms)}\"];")
    out.append("}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# classical constructions


def dfa_to_json(d: Dfa) -> str:
    """JSON mirror of the text format, field for field."""
    import json

    return json.dumps(
        {
            "states": d.state_count,
            "alphabet": "".join(d.alphabet),
            "initial": d.initial,
            "finals": sorted(d.finals),
            "transitions": [
                [q, sym, d.delta[q][i]]
                for q in range(d.state_count)
                for i, sym in enumerate(d.alphabet)
            ],
        },
        indent=2,
    )


def explore(start, successors, budget: int, what: str):
    """Breadth-first numbering of everything reachable from ``start``.

    Returns ``(order, rows)``: ``order[i]`` is the i-th state discovered,
    and ``rows[i]`` the tuple of the numbers of ``successors(order[i])``, in
    the order they come.  States are numbered in discovery order, so equal
    inputs give byte-identical automata.  Raises
    :class:`BudgetExceededError` when more than ``budget`` states would be
    discovered, ``start`` included; ``what`` names them in the message.
    A ``budget`` that does not compare with numbers, or is nan, raises
    ``ValueError``.
    """
    if _check_budget(budget) < 1:
        raise BudgetExceededError(f"more than {budget} {what} materialized")
    index = {start: 0}
    order = [start]
    rows = []
    # iterating a list while appending to it visits the appended items too
    for x in order:
        row = []
        for y in successors(x):
            j = index.get(y)
            if j is None:
                if len(order) >= budget:
                    raise BudgetExceededError(f"more than {budget} {what} materialized")
                j = index[y] = len(order)
                order.append(y)
            row.append(j)
        rows.append(tuple(row))
    return order, rows


def _explored_dfa(alphabet, start, successors, budget: int, what: str, accepting) -> Dfa:
    """The DFA :func:`explore` numbers from ``start``: state i is the i-th
    state discovered, ``start`` the initial state 0, ``delta[i]`` the numbers
    of its successors, and it is final when ``accepting`` holds of it.  The
    one way a search becomes a :class:`Dfa`."""
    order, rows = explore(start, successors, budget, what)
    finals = frozenset(i for i, x in enumerate(order) if accepting(x))
    return Dfa(alphabet=alphabet, delta=tuple(rows), initial=0, finals=finals)


def _mask(states: Iterable[int]) -> int:
    m = 0
    for q in states:
        m |= 1 << q
    return m


def _image(mask: int, succ: list[int]) -> int:
    """The union of the masks ``succ[q]`` over the set bits q of ``mask``."""
    out = 0
    while mask:
        q = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        out |= succ[q]
    return out


def determinize(n: Nfa) -> Dfa:
    """Subset construction; only reachable subsets are materialized.

    The empty subset becomes an explicit (rejecting) sink state when it is
    reachable, keeping the result a complete DFA.  Raises
    :class:`BudgetExceededError` past :data:`STATE_BUDGET` subsets.
    """
    succ0 = [_mask(row[0]) for row in n.delta]
    succ1 = [_mask(row[1]) for row in n.delta]

    def successors(m: int) -> tuple[int, int]:
        return _image(m, succ0), _image(m, succ1)

    fmask = _mask(n.finals)
    return _explored_dfa(
        n.alphabet, _mask(n.initial), successors, STATE_BUDGET, "subsets", fmask.__and__
    )


# The reversal step's route, chosen once per table.  Tables of at most
# _GATHER_STATES states take the gather.  A larger table with at most
# _SHIFT_RUNS distinct offsets takes the shift step for every mask.  Any
# other table picks per mask by one limit, n // _SPARSE_DENSITY, on the k
# set bits of a mask and on their sources (see preimages).  Swept on random
# hosts (two sources per target on average), in microseconds per step,
# gather/sparse, on a 2-core Xeon VM with Python 3.11: the gather costs
# about 0.028 us per state whatever the mask holds (2.3 at n = 64, 130 at
# 4,467, 700-740 at 25,000), the sparse route about 0.9 us plus
# 0.25 us per walked bit.  They break even near k = n/9.5 from n = 96 up
# (n = 202: 6.28/6.01 at k = 22, 6.20/6.70 at 25; n = 4,467: 132/123 at
# k = 446, 134/136 at 496; n = 25,000: 736/742 at k = 2,500), near n/10 at
# n = 64 (2.26/2.15 at k = 6, 2.26/2.44 at 7) and lower below that (n = 32:
# 1.32/1.41 at k = 3; n = 16: 0.77/0.82 at k = 1).  At n <= 64 the sparse
# route would save at most 1.3 us a step; on larger tables the choice adds
# 0.03-0.06 us to a step that takes the gather.
#
# The same limit caps one state's sources: the sparse route pays for each
# source of each set bit.  In the reversal automaton a state with many is,
# say, an accepting sink that most states fall into: it is its own
# preimage, so it stays in every mask from the host finals on.  Measured
# on random hosts whose accepting sink has s sources, with masks of n/20
# bits plus the sink, in microseconds per step, min of 7 over 200 masks,
# sparse route/gather, on the same VM: at n = 4,096, 97-100/159-222 at
# s = 265 and 101-112/155-160 at s = 301 and 401; at n = 1,000, 25-26/40
# at s = 91.  Past the limit the gather keeps the mask: at n = 1,000,
# 38/38-39 at s = 243; at n = 4,096, 129/157-160 at s = 601, but
# 237-411/153-156 at s = 2,001 to 4,096, where the gather wins by up to
# 2.7x.
#
# _SHIFT_RUNS caps the offsets of a table that takes the shift step.  Swept
# on banded tables with mid-density masks, in microseconds per step,
# gather/shift, on the same VM (whose cores then ran about 2x slower than
# in the sweep above): the shift step costs about 0.25 us plus 0.12-0.25 us
# per offset up to a few thousand states, and stays far below the gather
# above that.  At 30-32 offsets it is 3.7/3.5 at n = 65, 8.7/5.7 at 100,
# 16/8.1 at 202, 70/9.6 at 1,000, 195/18.5 at 4,467 and 1,054/66 at 25,000;
# at 47-60 offsets it loses at n = 65 and 100 (3.6/5.4, 8.3/9.9).  So the
# cap sits where the smallest tables break even, and the shift table holds
# at most _SHIFT_RUNS integers of 2n bits each.
#
# A table with a shift step takes it for sparse masks too.  Swept on banded
# tables, in microseconds per step, sparse route/shift step, on the same VM:
# at 2 and 8 offsets the shift step is as fast or faster for every mask
# (one bit: 1.6/0.6 at n = 202 and 29/4.1 at 25,000 with 2 offsets,
# 1.4-1.6/1.2-1.6 and 29-33/19-22 with 8).  At 32 offsets a one-bit mask
# costs 2-2.4x as much (1.4-1.6/3.3-3.7 at n = 202, 30-31/61-64 at 25,000)
# and a mask of n/20 bits 1.2-8x less (4.7-5.3/3.8-4.3, 536-550/66-100).
# The breadth-first numbered hosts the reversal automaton walks have few
# offsets (2 on exact-ones) or more than _SHIFT_RUNS (48-59 on the
# circuit-value and counter hosts), so no rule weighs the offsets against
# the walked bits.
_GATHER_STATES = 64
_SPARSE_DENSITY = 10
_SHIFT_RUNS = 32


def preimages(delta: tuple[tuple[int, int], ...]) -> Callable[[int], tuple[int, int]]:
    """Compile a two-symbol transition table into its preimage map.

    The returned ``pre(mask)`` gives ``(p0, p1)``, where bit q of ``p_i`` is
    bit ``delta[q][i]`` of ``mask``: the states that move into ``mask`` on
    symbol i.  Bits of ``mask`` at or above ``n = len(delta)`` are ignored.

    Three routes give the same answer.  The gather picks all 2n digits of
    ``p0`` and ``p1`` out of the binary digits of ``mask`` at once: a few
    passes of C-level work, O(n) whatever the mask holds.  The sparse route
    walks only the set bits t of ``mask`` and sets the bits of t's sources,
    O(k * indegree + n/8) for k set bits.  The shift step groups the
    transitions by their offset, target minus source, and gets both
    preimages with a shift, an AND and an OR per offset: O(#offsets)
    big-integer operations, see :func:`_shift_step`.  It exists only for
    tables with at most ``_SHIFT_RUNS`` offsets, as breadth-first numbered
    chains and cycles are.

    The route is picked once, here, per table.  A table of more than
    ``_GATHER_STATES`` states with a shift step takes it for every mask,
    and its table of offsets, O(n) in size, is built now.  Every other
    table builds the gather's index of 2n digits now.  Tables of at most
    ``_GATHER_STATES`` states take the gather.  The larger ones pick per
    mask, with one limit ``lo = n // _SPARSE_DENSITY``: a mask of at most
    ``lo`` set bits, none of them a state with more than ``lo`` sources,
    takes the sparse route, and every other mask the gather.  Their table
    of sources, O(n) in size, is built on the sparse route's first use.
    """
    n = len(delta)
    shift_step = _shift_step(delta) if n > _GATHER_STATES else None
    if shift_step is not None:
        return shift_step
    full = (1 << n) - 1
    guard = full + 1
    # bin(mask | guard) is "0b1" and then bit t at index n+2-t; the gathered
    # 2n digits are p0 then p1, most significant first
    pick = itemgetter(*[n + 2 - row[i] for i in (0, 1) for row in reversed(delta)])

    def gather(mask: int) -> tuple[int, int]:
        x = int("".join(pick(bin(mask & full | guard))), 2)
        return x >> n, x & full

    if n <= _GATHER_STATES:
        return gather
    lo = n // _SPARSE_DENSITY
    nbytes = (n + 7) >> 3
    shift = nbytes << 3  # p1's bits sit this far above p0's in one buffer
    sources: tuple[tuple[int, ...], ...] = ()
    heavy = 0  # the states with more than lo sources

    def pre(mask: int) -> tuple[int, int]:
        nonlocal sources, heavy
        mask &= full
        if mask.bit_count() > lo:
            return gather(mask)
        if not sources:
            # sources[i]: the states moving into the bit at index i of
            # bin(mask | guard), those on symbol 1 offset by shift; an index
            # with no sources holds the one shared empty tuple
            rows: list[list[int]] = [[] for _ in range(n + 3)]
            for q, (t0, t1) in enumerate(delta):
                rows[n + 2 - t0].append(q)
                rows[n + 2 - t1].append(q + shift)
            sources = tuple(tuple(r) if r else () for r in rows)
            heavy = _mask(n + 2 - i for i, r in enumerate(rows) if len(r) > lo)
        if mask & heavy:
            return gather(mask)
        out = bytearray(2 * nbytes)
        digits = bin(mask | guard)
        i = digits.find("1", 3)
        while i > 0:
            for q in sources[i]:
                out[q >> 3] |= 1 << (q & 7)
            i = digits.find("1", i + 1)
        x = int.from_bytes(out, "little")
        return x & full, x >> shift

    return pre


def _shift_step(delta):
    """The shift step of ``delta``: ``step(mask) -> (p0, p1)``, ignoring the
    bits of ``mask`` at or above n, or None when the table has more than
    ``_SHIFT_RUNS`` distinct offsets.

    Read ``p0 | p1 << n`` as one buffer.  Its bit q comes from bit
    ``t = delta[q][0]`` of the mask, and its bit ``n + q`` from bit
    ``t = delta[q][1]``; in ``m2 = mask | mask << n`` both sit d = t - q
    places above the buffer bit, d being the transition's offset.  So the
    buffer is the OR, over the offsets d, of ``(m2 >> d) & S_d``, where
    ``S_d`` holds the buffer bits whose transition has offset d.  ``m2`` is
    shifted up by ``base``, the largest negative offset's size, so that
    every shift is to the right.
    """
    n = len(delta)
    offsets = [t0 - q for q, (t0, _) in enumerate(delta)]
    offsets += [t1 - q for q, (_, t1) in enumerate(delta)]
    distinct = sorted(set(offsets))
    if len(distinct) > _SHIFT_RUNS:
        return None
    # one byte per buffer bit, the rank of its offset; S_d is read off the
    # bytes equal to d's rank, most significant first
    rank = {d: i for i, d in enumerate(distinct)}
    codes = bytes(map(rank.__getitem__, reversed(offsets)))
    base = max(0, -distinct[0])
    runs = []
    for i, d in enumerate(distinct):
        digits = bytearray(b"0" * 256)
        digits[i] = ord("1")
        runs.append((d + base, int(codes.translate(digits), 2)))
    full = (1 << n) - 1
    top = n + base

    def step(mask: int) -> tuple[int, int]:
        mask &= full
        m2 = mask << base | mask << top
        x = 0
        for r, s in runs:
            x |= m2 >> r & s
        return x & full, x >> n

    return step


def determinize_reverse(d: Dfa, budget: int = STATE_BUDGET) -> Dfa:
    """Subset construction on the reverse of ``d``: a DFA for the reversed
    language, numbered breadth-first like :func:`minimize`.

    When every state of ``d`` is reachable, the result is the minimal DFA
    of the reversed language (Brzozowski 1962): the states' reversed
    languages are then nonempty and pairwise disjoint, so distinct subsets
    accept distinct languages.
    Raises :class:`BudgetExceededError` past ``budget`` subsets.
    """
    init = 1 << d.initial
    return _explored_dfa(
        d.alphabet, _mask(d.finals), preimages(d.delta), budget, "subsets", init.__and__
    )


def coaccessible(d: Dfa) -> set[int]:
    """The states with a path into the finals, by reverse BFS from them."""
    preds: list[list[int]] = [[] for _ in range(d.state_count)]
    for q, row in enumerate(d.delta):
        for t in row:
            preds[t].append(q)
    seen = set(d.finals)
    queue = deque(d.finals)
    while queue:
        for p in preds[queue.popleft()]:
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return seen


def _hopcroft_classes(rows: Sequence[tuple[int, int]], finals: Iterable[int]) -> list[int]:
    """Hopcroft partition refinement of a complete two-symbol row table.

    States are ``0..len(rows)-1``, ``rows[q]`` holds the successors of q
    and ``finals`` lists the accepting states.  Returns ``block_of``, the
    block id of every state.  Blocks are not canonically numbered; callers
    renumber.
    """
    n = len(rows)
    pre = ([[] for _ in range(n)], [[] for _ in range(n)])
    for q, (t0, t1) in enumerate(rows):
        pre[0][t0].append(q)
        pre[1][t1].append(q)

    accepting = set(finals)
    blocks = [b for b in sorted((accepting, set(range(n)) - accepting), key=len) if b]
    block_of = [0] * n
    for i, block in enumerate(blocks):
        for q in block:
            block_of[q] = i
    # the smaller of the two starting blocks is the only splitter needed; a
    # block index enters the worklist once, when it is made
    worklist = [0]
    while worklist:
        # a copy, since the splitter itself may be split below
        splitter = list(blocks[worklist.pop()])
        for p in pre:
            touched: dict[int, list[int]] = {}
            for q in splitter:
                for r in p[q]:
                    touched.setdefault(block_of[r], []).append(r)
            for b, inter in touched.items():
                block = blocks[b]
                if len(inter) == len(block):
                    continue
                # split off the smaller half, so each split costs O(|inter|)
                # and a state moves O(log n) times (Hopcroft's bound); if b
                # is pending, it stays pending as the larger half
                if 2 * len(inter) <= len(block):
                    small = set(inter)
                else:
                    small = block.difference(inter)
                block -= small
                new = len(blocks)
                blocks.append(small)
                for r in small:
                    block_of[r] = new
                worklist.append(new)
    return block_of


def minimize(d: Dfa) -> Dfa:
    """Minimal DFA for the same language, in canonical BFS numbering.

    Unreachable states are dropped first, then equivalent states are merged
    by Hopcroft partition refinement.  States of the result are numbered in
    breadth-first order from the initial state, visiting symbols in alphabet
    order, so equal languages give byte-identical serializations.
    """
    t = _trim(d)
    return _quotient(t.alphabet, t.delta, t.finals)


def _trim(d: Dfa) -> Dfa:
    """The reachable part of ``d``, numbered 0..k-1 in BFS order with the
    initial state at 0."""
    return _explored_dfa(
        d.alphabet, d.initial, d.delta.__getitem__, d.state_count, "states", d.finals.__contains__
    )


def _quotient(
    alphabet: tuple[str, str], rows: Sequence[tuple[int, int]], finals: Collection[int]
) -> Dfa:
    """:func:`minimize` of a row table whose states are all reachable from
    state 0, the initial one; ``finals`` is the set of accepting states."""
    block_of = _hopcroft_classes(rows, finals)

    # canonical BFS renumbering over the quotient
    rep = {block_of[q]: q for q in reversed(range(len(rows)))}

    def successors(b: int) -> tuple[int, int]:
        t0, t1 = rows[rep[b]]
        return block_of[t0], block_of[t1]

    return _explored_dfa(
        alphabet, block_of[0], successors, len(rows), "blocks", lambda b: rep[b] in finals
    )


def _bisimilar(p, q, accepting, successors) -> bool:
    """Do states ``p`` and ``q`` accept the same language?

    Hopcroft-Karp union-find: merge the pair, bail out on an acceptance
    mismatch, and chase the successors (in symbol order) of merged
    representatives only.
    """
    parent = {}

    def find(x):
        while x in parent:
            x = parent[x]
        return x

    stack = [(p, q)]
    while stack:
        p, q = stack.pop()
        rp, rq = find(p), find(q)
        if rp == rq:
            continue
        if accepting(rp) != accepting(rq):
            return False
        parent[rq] = rp
        stack.extend(zip(successors(rp), successors(rq)))
    return True


def equivalent(a: Dfa, b: Dfa) -> bool:
    """Language equality, by bisimulation on the disjoint union, whose
    states are ``(0, q)`` for ``a`` and ``(1, q)`` for ``b``."""
    if a.alphabet != b.alphabet:
        raise ValueError("alphabet mismatch")
    sides = (a, b)
    return _bisimilar(
        (0, a.initial),
        (1, b.initial),
        lambda x: x[1] in sides[x[0]].finals,
        lambda x: [(x[0], t) for t in sides[x[0]].delta[x[1]]],
    )


def transformation(d: Dfa, word: str) -> tuple[int, ...]:
    """The state transformation induced by ``word``: q -> delta(q, word)."""
    current = list(range(d.state_count))
    for s in word:
        i = d.symbol_index(s)
        current = [d.delta[q][i] for q in current]
    return tuple(current)


def congruent(d: Dfa, v: str, w: str) -> bool:
    """Syntactic congruence of two words on a minimal DFA.

    On a minimal DFA, v and w are congruent by the language iff they induce
    the same transformation of the state set.  Minimize first if unsure.
    """
    return transformation(d, v) == transformation(d, w)


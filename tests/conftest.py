import random
from itertools import permutations
from typing import Iterable, Iterator

import pytest
from hypothesis import strategies as st

from winset import automata
from winset.automata import Dfa, Nfa, _turn_index, accepts
from winset.enumeration import _host, _structures
from winset.gadgets import Gadget
from winset.game import GameState, _Host, game_state


def shift_steps(monkeypatch) -> list:
    """What each request for a shift step returns, in order: None where the
    table has more than ``_SHIFT_RUNS`` offsets and keeps the per-mask pick
    between the sparse route and the gather."""
    build, built = automata._shift_step, []

    def spy(delta):
        built.append(build(delta))
        return built[-1]

    # preimages looks the name up in automata when it compiles a table
    monkeypatch.setattr(automata, "_shift_step", spy)
    return built


def relabelings(
    delta: tuple[tuple[int, int], ...], n: int
) -> Iterator[tuple[tuple[int, int], ...]]:
    """``delta`` under every relabeling that keeps state 0 initial, the
    identity first, with each row's targets sorted."""
    for perm in permutations(range(1, n)):
        pi = (0,) + perm
        relabeled = [None] * n
        for q in range(n):
            a, b = delta[q]
            pa, pb = pi[a], pi[b]
            relabeled[pi[q]] = (pa, pb) if pa <= pb else (pb, pa)
        yield tuple(relabeled)


def structure_hosts(delta: tuple[tuple[int, int], ...], n: int) -> Iterator[Dfa]:
    """The 2^n hosts on one structure, one per final set."""
    for fmask in range(1 << n):
        yield _host(delta, fmask)


def host_corpus(n: int) -> Iterator[Dfa]:
    """Every complete n-state binary host, all final sets included.

    Transition structures are taken up to edge-label swaps and relabelings
    fixing the initial state, the canonical structures of the exhaustive
    search; neither quotient loses a winning set.  Structures not reaching
    all n states are never generated — their languages show up verbatim at
    smaller n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    for _, delta in _structures(n):
        yield from structure_hosts(delta, n)


def relabeled_host_corpus(n: int) -> Iterator[Dfa]:
    """:func:`host_corpus` without the quotient by relabelings: each
    canonical structure's hosts, then those of its other distinct
    relabelings fixing the initial state."""
    for _, delta in _structures(n):
        for relabeled in dict.fromkeys(relabelings(delta, n)):
            yield from structure_hosts(relabeled, n)


@pytest.fixture(scope="session")
def small_hosts():
    """Every host with at most 3 states, up to relabeling."""
    return [d for n in (1, 2, 3) for d in host_corpus(n)]


@pytest.fixture(scope="session")
def sampled_hosts(small_hosts):
    """A fixed 60-host sample for the more expensive per-host properties."""
    rng = random.Random(20240917)
    return rng.sample(small_hosts, 60)


def random_host(rng: random.Random, n: int) -> Dfa:
    delta = tuple(
        (rng.randrange(n), rng.randrange(n)) for _ in range(n)
    )
    finals = frozenset(q for q in range(n) if rng.random() < 0.5)
    return Dfa(alphabet=("0", "1"), delta=delta, initial=0, finals=finals)


def relabeled(host: Dfa, rng: random.Random) -> Dfa:
    """The host with its states renumbered by a seeded permutation."""
    perm = list(range(host.state_count))
    rng.shuffle(perm)
    delta = [None] * host.state_count
    for q, (t0, t1) in enumerate(host.delta):
        delta[perm[q]] = (perm[t0], perm[t1])
    return Dfa(alphabet=host.alphabet, delta=tuple(delta), initial=perm[host.initial],
               finals=frozenset(perm[q] for q in host.finals))


@st.composite
def dfas(draw, max_states: int = 4) -> Dfa:
    """Complete binary DFAs with 1 to ``max_states`` states, initial state 0."""
    n = draw(st.integers(min_value=1, max_value=max_states))
    targets = st.integers(min_value=0, max_value=n - 1)
    delta = tuple((draw(targets), draw(targets)) for _ in range(n))
    finals = frozenset(q for q in range(n) if draw(st.booleans()))
    return Dfa(alphabet=("0", "1"), delta=delta, initial=0, finals=finals)


# words of all three text formats, so the soup gets past the headers
_TOKENS = ("dfa", "nfa", "01", "AB", "initial", "finals", "0", "1", "2", "-1",
           "x", "A", "B", "input", "gate", "and", "or", "not", "output", "AND", "XOR", "#")
token_soup = st.lists(
    st.lists(st.sampled_from(_TOKENS), max_size=5).map(" ".join), max_size=8
).map("\n".join)


def enumerate_words(alphabet: Iterable[str], length: int) -> list[str]:
    words = [""]
    for _ in range(length):
        words = [w + s for w in words for s in alphabet]
    return words


def words_upto(alphabet: str, max_len: int) -> list[str]:
    """All words over the alphabet of length 0 through max_len."""
    return [w for n in range(max_len + 1) for w in enumerate_words(alphabet, n)]


def language_slice(d: Dfa, length: int) -> set[str]:
    """All accepted words of exactly the given length (brute force)."""
    return {w for w in enumerate_words(d.alphabet, length) if accepts(d, w)}


def count_words(d: Dfa, length: int) -> int:
    """Number of accepted words of the given length, by dynamic programming."""
    counts = [0] * d.state_count
    counts[d.initial] = 1
    for _ in range(length):
        nxt = [0] * d.state_count
        for q, c in enumerate(counts):
            if c:
                nxt[d.delta[q][0]] += c
                nxt[d.delta[q][1]] += c
        counts = nxt
    return sum(c for q, c in enumerate(counts) if q in d.finals)


def nfa_to_text(n: Nfa) -> str:
    out = [f"nfa {n.state_count} {''.join(n.alphabet)}"]
    out.append("initial " + " ".join(str(q) for q in sorted(n.initial)))
    out.append("finals " + " ".join(str(q) for q in sorted(n.finals)))
    for q in range(n.state_count):
        for i, sym in enumerate(n.alphabet):
            targets = n.delta[q][i]
            if targets:
                out.append(f"{q} {sym} " + " ".join(str(t) for t in sorted(targets)))
    return "\n".join(out).rstrip() + "\n"


def random_circuit(rng: random.Random, n_inputs: int, n_gates: int, n_outputs: int = 1):
    from winset.circuits import GATE_ARITY, Circuit

    inputs = tuple(f"x{j}" for j in range(n_inputs))
    avail = list(inputs)
    gates = []
    for g in range(n_gates):
        kind = rng.choice(sorted(GATE_ARITY))
        args = tuple(rng.choice(avail) for _ in range(GATE_ARITY[kind]))
        gates.append((f"g{g}", kind, args))
        avail.append(f"g{g}")
    outputs = tuple((f"y{i}", rng.choice(avail)) for i in range(n_outputs))
    return Circuit(inputs, tuple(gates), outputs)


# ---------------------------------------------------------------------------
# the raw run and the subset factory's targets, for the lemma checks


def raw_successors(h: _Host, g: Iterable[int], c: str) -> set[int]:
    """The unnormalized members of the game state after turn ``c``."""
    if _turn_index(c):
        return {h.b_image(m) for m in g}
    out = set()
    for m in g:
        out.update(h.a_images(m))
    return out


def raw_run(host: Dfa, g: Iterable[int], word: str) -> GameState:
    """The game state after ``word`` from ``g``, never normalized: every
    member the game reaches, sorted."""
    h = _Host(host)
    cur = tuple(sorted(set(h.members(g))))
    for c in word:
        cur = tuple(sorted(raw_successors(h, cur, c)))
    return cur


def subset_targets(n: int, s: Iterable[int]) -> list[str]:
    """The o-states (rightmost e-states) a committed subset ends up on."""
    return [f"e{2 * n + i - 2}" for i in sorted(set(s))]


def named_state(g: Gadget, names: Iterable[str]) -> GameState:
    """Game state holding one set built from the given state names."""
    return game_state([[g.labels[x] for x in names]])

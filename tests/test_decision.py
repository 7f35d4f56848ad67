import inspect
import random
from itertools import product

import pytest

from winset import automata, game
from winset.automata import Dfa, Nfa, accepts, enumerate_words, nfa_accepts
from winset.circuits import circuit_value_instance, iterated_instance, or_with_index, parse_circuit
from winset.cli import _build_parser
from winset.decision import intersect_nonempty, member
from winset.game import BudgetExceededError, ReversalDfa, winset_dfa
from winset.gadgets import exact_ones_dfa, exact_ones_winset_member
from winset.oracle import alice_wins, dfa_predicate
from .conftest import random_host, relabeled, words_upto

PARITY = Dfa(alphabet=("0", "1"), delta=((0, 1), (1, 0)), initial=0, finals=frozenset({1}))


def turn_nfa(delta, initial, finals):
    return Nfa(
        alphabet=("A", "B"),
        delta=tuple(
            (frozenset(row[0]), frozenset(row[1])) for row in delta
        ),
        initial=frozenset(initial),
        finals=frozenset(finals),
    )


A_STAR = turn_nfa([({0}, set())], {0}, {0})
B_STAR = turn_nfa([(set(), {0})], {0}, {0})
BA_STAR = turn_nfa([(set(), {1}), ({0}, set())], {0}, {0})


def test_member_agrees_with_winset_dfa(sampled_hosts):
    for host in sampled_hosts[:30]:
        w = winset_dfa(host)
        for word in words_upto("AB", 6):
            assert member(host, word) == accepts(w, word)


def test_member_agrees_with_oracle():
    rng = random.Random(41)
    for _ in range(20):
        host = random_host(rng, rng.randint(1, 3))
        for n in range(6):
            t = dfa_predicate(host, n)
            for word in enumerate_words("AB", n):
                assert member(host, word) == alice_wins(t, word)


def test_member_rejects_what_the_reversal_automaton_rejects():
    turn_host = Dfa(alphabet=("A", "B"), delta=((0, 0),), initial=0, finals=frozenset())
    with pytest.raises(ValueError, match="host DFA must be over the 01 alphabet"):
        member(turn_host, "x")
    # the letter named is the first bad one the reversed walk reads
    named = {"AxByA": "'y'", "0": "'0'", "1AB0": "'0'", "ABa": "'a'", "A" * 90 + "AB AB": "' '"}
    for host in (PARITY, exact_ones_dfa(100)):
        for w, bad in named.items():
            for walk in (lambda: member(host, w), lambda: ReversalDfa(host).accepts(w[::-1])):
                with pytest.raises(ValueError) as got:
                    walk()
                assert str(got.value) == f"turn symbol must be A or B, got {bad}", w


def test_intersect_empty():
    assert intersect_nonempty(PARITY, B_STAR) is None


def test_intersect_finds_shortest_witness():
    assert intersect_nonempty(PARITY, A_STAR) == "A"
    assert intersect_nonempty(exact_ones_dfa(1), BA_STAR) == "BA"


def test_witness_is_sound():
    rng = random.Random(42)
    found = 0
    for _ in range(40):
        host = random_host(rng, rng.randint(1, 4))
        n = rng.randint(1, 3)
        delta = [
            (
                {q for q in range(n) if rng.random() < 0.5},
                {q for q in range(n) if rng.random() < 0.5},
            )
            for _ in range(n)
        ]
        b = turn_nfa(delta, {0}, {q for q in range(n) if rng.random() < 0.5})
        w = intersect_nonempty(host, b)
        if w is not None:
            found += 1
            assert member(host, w)
            assert nfa_accepts(b, w)
            # nothing shorter works
            for length in range(len(w)):
                for shorter in enumerate_words("AB", length):
                    assert not (member(host, shorter) and nfa_accepts(b, shorter))
    assert found > 5  # the sample should not be degenerate


def test_intersect_rejects_wrong_alphabet():
    bad = Nfa(
        alphabet=("0", "1"),
        delta=((frozenset({0}), frozenset({0})),),
        initial=frozenset({0}),
        finals=frozenset({0}),
    )
    with pytest.raises(ValueError):
        intersect_nonempty(PARITY, bad)


def test_intersect_budget_is_enforced():
    with pytest.raises(BudgetExceededError):
        intersect_nonempty(PARITY, A_STAR, budget=1)
    # the start state counts toward the budget, so a budget below 1 fails
    # before any search, even where the start state is already a witness
    everything = Dfa(alphabet=("0", "1"), delta=((0, 0),), initial=0, finals=frozenset({0}))
    assert intersect_nonempty(everything, A_STAR, budget=1) == ""
    for budget in (0, -3):
        with pytest.raises(BudgetExceededError):
            intersect_nonempty(everything, A_STAR, budget=budget)


def test_intersect_budget_defaults_to_the_state_budget():
    default = inspect.signature(intersect_nonempty).parameters["budget"].default
    assert default == automata.STATE_BUDGET
    args = _build_parser().parse_args(["decide", "intersect", "host.dfa", "b.nfa"])
    assert args.budget == automata.STATE_BUDGET


# ---------------------------------------------------------------------------
# large hosts, where a reversal step walks only a sparse side of its mask


def sparse_and_dense_steps(host: Dfa, w: str) -> tuple[int, int]:
    """How many of ``member(host, w)``'s steps start from a mask sparse or
    co-sparse enough for the sparse route, and how many from a denser one."""
    rev, n = ReversalDfa(host), host.state_count
    lo = n // automata._SPARSE_DENSITY
    m, sparse = rev.initial_mask, 0
    for c in reversed(w):
        sparse += min(m.bit_count(), n - m.bit_count()) <= lo
        m = rev.step(m, c)
    return sparse, len(w) - sparse


def test_member_on_a_large_exact_ones_host():
    rng = random.Random(300)
    n = 300
    host = exact_ones_dfa(n)
    answers, sparse, dense = set(), 0, 0
    for i in range(16):
        length = n + 4 * i
        # a third of the words have one A too few, so they are no members
        b = 4 * i + 1 if i % 3 == 0 else rng.randint(0, 4 * i)
        letters = ["A"] * (length - b) + ["B"] * b
        rng.shuffle(letters)
        word = "".join(letters)
        want = exact_ones_winset_member(n, word)
        assert member(host, word) == want, word
        answers.add(want)
        s, d = sparse_and_dense_steps(host, word)
        sparse, dense = sparse + s, dense + d
    assert answers == {False, True}
    assert sparse > 0 and dense > 0


def renumberings(monkeypatch, masks=None) -> list:
    """What each of the reversal walk's breadth-first renumberings returns,
    in order: None where the renumbered table has no shift step.  The masks
    they start from go to ``masks``, if given."""
    real, seen = automata._banded, []

    def spy(host, mask):
        if masks is not None:
            masks.append(mask)
        seen.append(real(host, mask))
        return seen[-1]

    # the walk looks the name up in game, which imports it from automata
    monkeypatch.setattr(game, "_banded", spy)
    return seen


def reference_member(host: Dfa, w: str) -> bool:
    """``member`` as a loop over the host states per letter."""
    m = {q for q in range(host.state_count) if q in host.finals}
    for c in reversed(w):
        has = [host.delta[q][i] in m for q in range(host.state_count) for i in (0, 1)]
        pick = any if c == "A" else all
        m = {q for q in range(host.state_count) if pick(has[2 * q:2 * q + 2])}
    return host.initial in m


def test_member_switches_to_the_shift_step_on_a_relabeled_exact_ones_host(monkeypatch):
    rng = random.Random(301)
    n = 300
    host = relabeled(exact_ones_dfa(n), rng)
    # its own numbering is too scattered for the shift step
    assert automata._shift_step(host.delta) is None
    seen = renumberings(monkeypatch)
    answers = set()
    for i in range(12):
        length = n + 5 * i
        b = 5 * i + 1 if i % 3 == 0 else rng.randint(0, 5 * i)
        letters = ["A"] * (length - b) + ["B"] * b
        rng.shuffle(letters)
        word = "".join(letters)
        want = exact_ones_winset_member(n, word)
        assert member(host, word) == want, word
        answers.add(want)
    assert answers == {False, True}
    # a walk renumbers at most once, and only a walk whose set dies early
    # takes too few gathers to; every renumbered table has the shift step
    assert 10 <= len(seen) <= 12 and None not in seen


def renumbered_mask(host: Dfa, w: str):
    """The mask from which the reversed walk of ``w`` renumbers the host:
    the one after the walk's ``_RENUMBER_AFTER``-th gather, counted on a
    fresh compiled map, or None when no letter is left to read by then."""
    pre, gathers = automata._preimages(host.delta)
    m = automata._mask(host.finals)
    for c in reversed(w):
        if gathers[0] == automata._RENUMBER_AFTER:
            return m
        p0, p1 = pre(m)
        m = p0 & p1 if c == "B" else p0 | p1
    return None


def test_one_reversal_automaton_renumbers_once_per_walk(monkeypatch):
    rng = random.Random(302)
    n = 300
    host = relabeled(exact_ones_dfa(n), rng)
    rev = ReversalDfa(host)
    masks = []
    seen = renumberings(monkeypatch, masks)
    # every other state: a mid-density mask, whose step takes the gather
    mid = int("01" * host.state_count, 2) & (1 << host.state_count) - 1
    answers, renumbered = set(), 0
    for i in range(12):
        length = n + 5 * i
        b = 5 * i + 1 if i % 3 == 0 else rng.randint(0, 5 * i)
        letters = ["A"] * (length - b) + ["B"] * b
        rng.shuffle(letters)
        word = "".join(letters)
        want = exact_ones_winset_member(n, word)
        start = renumbered_mask(host, word)
        assert rev.accepts(word[::-1]) == want, word
        answers.add(want)
        # gathers are counted from the walk's own start, whatever successors
        # calls and earlier walks on the same automaton took
        assert masks == ([] if start is None else [start]), i
        renumbered += start is not None
        masks.clear()
        rev.successors(mid)
    assert answers == {False, True}
    assert renumbered >= 10 and len(seen) == renumbered and None not in seen


def test_member_renumbers_circuit_hosts_with_unreachable_states(monkeypatch):
    # their walks take no gather, so renumber before the first letter
    monkeypatch.setattr(game, "_RENUMBER_AFTER", 0)
    seen = renumberings(monkeypatch)
    rng = random.Random(1156)
    answers = set()
    for _ in range(2):
        c = deep_circuit(rng, 4, 15)
        for bits in product((False, True), repeat=4):
            dfa, word = circuit_value_instance(c, bits)
            host = relabeled(dfa, rng)
            reachable, _ = automata.explore(host.initial, host.delta.__getitem__,
                                            host.state_count, "states")
            assert len(reachable) < host.state_count and host.initial != 0
            want = c.evaluate(bits)[0]
            assert member(host, word) == want, (c, bits)
            answers.add(want)
    assert answers == {False, True}
    assert len(seen) == 32 and None not in seen


def test_member_does_not_renumber_after_its_last_letter(monkeypatch):
    rng = random.Random(77)
    n, k = 200, automata._RENUMBER_AFTER
    host = relabeled(exact_ones_dfa(n), rng)
    word = "AB" * 25 + "A" * n
    # the number of letters the reversed walk reads up to its k-th gather
    pre, gathers = automata._preimages(host.delta)
    m = automata._mask(host.finals)
    for j, c in enumerate(reversed(word), 1):
        p0, p1 = pre(m)
        m = p0 & p1 if c == "B" else p0 | p1
        if gathers[0] == k:
            break
    assert gathers[0] == k and j < len(word)
    seen = renumberings(monkeypatch)
    for tail, renumbered in ((word[-j:], 0), (word[-j - 1:], 1)):
        assert member(host, tail) == exact_ones_winset_member(n, tail)
        assert len(seen) == renumbered
        seen.clear()


def test_member_stays_on_the_host_when_renumbering_gives_no_shift_step(monkeypatch):
    rng = random.Random(4099)
    host = random_host(rng, 120)
    # a word whose walk keeps the set near half full, so nearly every step
    # takes the gather: each letter is chosen against the set's size
    rev, reversed_word = ReversalDfa(host), []
    m = rev.initial_mask
    for _ in range(120):
        c = "A" if 2 * m.bit_count() < host.state_count else "B"
        reversed_word.append(c)
        m = rev.step(m, c)
    word = "".join(reversed(reversed_word))
    seen = renumberings(monkeypatch)
    for w in (word, word[1:], word[2:]):
        assert member(host, w) == reference_member(host, w)
    assert seen == [None, None, None]


def deep_circuit(rng: random.Random, inputs: int, gates: int):
    """Each gate reads the one before it; every fifth is a NOT, the others
    an AND or an OR that also reads an input."""
    lines = [f"input x{j}" for j in range(inputs)]
    prev = f"x{inputs - 1}"
    for g in range(gates):
        if g % 5 == 4:
            lines.append(f"not g{g} {prev}")
        else:
            lines.append(f"{rng.choice(('and', 'or'))} g{g} {prev} x{g % inputs}")
        prev = f"g{g}"
    lines.append(f"output y {prev}")
    return parse_circuit("\n".join(lines))


def test_member_on_large_circuit_value_instances():
    rng = random.Random(1155)
    answers = set()
    for _ in range(3):
        c = deep_circuit(rng, 4, 15)
        for bits in product((False, True), repeat=4):
            host, word = circuit_value_instance(c, bits)
            assert host.state_count >= 1000
            want = c.evaluate(bits)[0]
            assert member(host, word) == want, (c, bits)
            answers.add(want)
    assert answers == {False, True}


def counter_circuit(k: int, dead=None):
    """k-bit increment, bit 0 first; output ``dead``, if given, held false."""
    lines = [f"input x{j}" for j in range(k)] + ["not y0 x0"]
    outs, carry = ["y0"], "x0"
    for j in range(1, k):
        lines += [f"or o{j} x{j} {carry}", f"and a{j} x{j} {carry}",
                  f"not n{j} a{j}", f"and y{j} o{j} n{j}"]
        outs.append(f"y{j}")
        carry = f"a{j}"
    if dead is not None:
        lines += [f"not nd x{dead}", f"and z x{dead} nd"]
        outs[dead] = "z"
    lines += [f"output out{j} {src}" for j, src in enumerate(outs)]
    return parse_circuit("\n".join(lines))


def lasso(base: str, period: str) -> Nfa:
    """An NFA for base·period*."""
    word = base + period
    nxt = [s + 1 if s + 1 < len(word) else len(base) for s in range(len(word))]
    return turn_nfa([({nxt[s]} if c == "A" else set(), {nxt[s]} if c == "B" else set())
                     for s, c in enumerate(word)], {0}, {len(base)})


def test_intersect_on_large_iterated_counters():
    k, top = 6, 5
    cases = [(counter_circuit(k), 5), (counter_circuit(k), 27), (counter_circuit(k, dead=top), 9)]
    witnesses = []
    for c, start in cases:
        bits = tuple(bool(start >> j & 1) for j in range(k))
        host, base, period = iterated_instance(c, bits, top)
        assert host.state_count > 800
        # iterate directly until every wire is true, or a state repeats
        prime, state, t, seen = or_with_index(c, top), bits, 0, set()
        while state != (True,) * k and state not in seen:
            seen.add(state)
            state, t = prime.evaluate(state), t + 1
        want = base + period * t if state == (True,) * k else None
        assert intersect_nonempty(host, lasso(base, period)) == want, start
        witnesses.append(want)
    assert witnesses[0] is not None and witnesses[-1] is None

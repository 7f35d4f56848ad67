import dataclasses
import inspect
import random
import sys
import threading
import weakref
from itertools import product

import pytest

from winset import automata, decision
from winset.automata import Dfa, Nfa, accepts, nfa_accepts
from winset.circuits import circuit_value_instance, iterated_instance, or_with_index, parse_circuit
from winset.cli import _build_parser
from winset.decision import intersect_nonempty, member
from winset.game import BudgetExceededError, ReversalDfa, winset_dfa
from winset.gadgets import exact_ones_dfa, exact_ones_winset_member
from winset.oracle import alice_wins, dfa_predicate
from .conftest import (
    deep_circuit_text,
    enumerate_words,
    random_host,
    reference_successors,
    relabeled,
    shift_steps,
    words_upto,
)

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
    # the suffix law reads the word forwards and names its first bad letter
    for w in named:
        first = next(c for c in w if c not in "AB")
        with pytest.raises(ValueError) as got:
            exact_ones_winset_member(100, w)
        assert str(got.value) == f"turn symbol must be A or B, got {first!r}", w


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
    with pytest.raises(ValueError, match="^intersection NFA must be over the AB alphabet$"):
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


def test_intersect_refuses_a_budget_that_is_not_a_number():
    for bad in ("5", None, (5,), float("nan")):
        with pytest.raises(ValueError) as got:
            intersect_nonempty(PARITY, A_STAR, budget=bad)
        assert str(got.value) == f"budget must be a number, got {bad!r}"
    # a float budget works as an int one does
    assert intersect_nonempty(PARITY, A_STAR, budget=50.0) == intersect_nonempty(PARITY, A_STAR)


def test_intersect_budget_defaults_to_the_state_budget():
    default = inspect.signature(intersect_nonempty).parameters["budget"].default
    assert default == automata.STATE_BUDGET
    args = _build_parser().parse_args(["decide", "intersect", "host.dfa", "b.nfa"])
    assert args.budget == automata.STATE_BUDGET


# ---------------------------------------------------------------------------
# large hosts, where a reversal step walks only a sparse side of its mask


def sparse_and_dense_steps(host: Dfa, w: str) -> tuple[int, int]:
    """How many of ``member(host, w)``'s steps start from a mask with at
    most n/``_SPARSE_DENSITY`` bits set, and how many from a denser one."""
    rev = ReversalDfa(host)
    lo = rev.host.state_count // automata._SPARSE_DENSITY
    m, sparse = rev.initial_mask, 0
    for c in reversed(w):
        sparse += m.bit_count() <= lo
        m = rev.step(m, c)
    return sparse, len(w) - sparse


def exact_ones_words(rng: random.Random, n: int, count: int, step: int = 5) -> list[str]:
    """Seeded turn words of n to n + step(count - 1) letters; a third of
    them have one A too few, so they are no members of the exact-ones host."""
    words = []
    for i in range(count):
        length = n + step * i
        b = step * i + 1 if i % 3 == 0 else rng.randint(0, step * i)
        letters = ["A"] * (length - b) + ["B"] * b
        rng.shuffle(letters)
        words.append("".join(letters))
    return words


def test_member_on_a_large_exact_ones_host():
    n = 300
    host = exact_ones_dfa(n)
    answers, sparse, dense = set(), 0, 0
    for word in exact_ones_words(random.Random(300), n, 16, step=4):
        want = exact_ones_winset_member(n, word)
        assert member(host, word) == want, word
        answers.add(want)
        s, d = sparse_and_dense_steps(host, word)
        sparse, dense = sparse + s, dense + d
    assert answers == {False, True}
    assert sparse > 0 and dense > 0


def reference_member(host: Dfa, w: str) -> bool:
    """``member`` as the per-state reversal step, walked back over ``w``
    from the host's finals."""
    m = sum(1 << q for q in host.finals)
    for c in reversed(w):
        m = reference_successors(host, m)["AB".index(c)]
    return m >> host.initial & 1 == 1


@pytest.mark.parametrize("seed", [301, 302])
def test_each_compile_of_a_relabeled_exact_ones_host_builds_one_shift_step(seed, monkeypatch):
    rng = random.Random(seed)
    n = 300
    host = relabeled(exact_ones_dfa(n), rng)
    # its own numbering is too scattered for the shift step
    assert automata._shift_step(host.delta) is None
    built = shift_steps(monkeypatch)
    rev = ReversalDfa(host)
    assert len(built) == 1
    k = rev.host.state_count
    # every other state: a mid-density mask, whose step is a dense one
    mid = int("01" * k, 2) & (1 << k) - 1
    answers = set()
    for word in exact_ones_words(rng, n, 12):
        want = exact_ones_winset_member(n, word)
        assert member(host, word) == rev.accepts(word[::-1]) == want, word
        answers.add(want)
        rev.successors(mid)
        # the held automaton and member's first call each compile the table
        # in the breadth-first numbers and build the shift step there, once;
        # the later calls on this host only walk
        assert len(built) == 2
    assert answers == {False, True}
    assert None not in built


def test_member_renumbers_circuit_hosts_with_unreachable_states():
    rng = random.Random(1156)
    answers = set()
    for _ in range(2):
        c = parse_circuit(deep_circuit_text(4, 15, lambda g: rng.choice(("and", "or"))))
        for bits in product((False, True), repeat=4):
            dfa, word = circuit_value_instance(c, bits)
            host = relabeled(dfa, rng)
            reachable, _ = automata.explore(host.initial, host.delta.__getitem__,
                                            host.state_count, "states")
            assert len(reachable) < host.state_count and host.initial != 0
            # the automaton holds the reachable part, breadth-first from 0
            trimmed = ReversalDfa(host).host
            assert trimmed.state_count == len(reachable) and trimmed.initial == 0
            want = c.evaluate(bits)[0]
            assert member(host, word) == want, (c, bits)
            answers.add(want)
    assert answers == {False, True}


def test_member_on_every_suffix_of_a_word_on_a_relabeled_exact_ones_host():
    rng = random.Random(77)
    n = 200
    host = relabeled(exact_ones_dfa(n), rng)
    word = "AB" * 25 + "A" * n
    answers = set()
    # and A^n·B, where the opponent's last letter can add an (n+1)st one
    for w in [word[j:] for j in range(len(word) + 1)] + ["A" * n + "B"]:
        want = exact_ones_winset_member(n, w)
        assert member(host, w) == want, w
        answers.add(want)
    assert answers == {False, True}


def test_member_takes_the_gather_where_the_trimmed_host_has_no_shift_step(monkeypatch):
    rng = random.Random(4099)
    host = random_host(rng, 120)
    # a word whose walk keeps the set near half full, so nearly every step
    # is a dense one: each letter is chosen against the set's size
    rev, reversed_word = ReversalDfa(host), []
    m = rev.initial_mask
    for _ in range(120):
        c = "A" if 2 * m.bit_count() < rev.host.state_count else "B"
        reversed_word.append(c)
        m = rev.step(m, c)
    word = "".join(reversed(reversed_word))
    built = shift_steps(monkeypatch)
    for w in (word, word[1:], word[2:]):
        assert member(host, w) == reference_member(host, w)
    # the trimmed table, compiled once for the three calls, is too scattered
    # for the shift step
    assert built == [None]


def test_accepts_stops_at_the_empty_and_the_full_set_with_a_full_walks_answer():
    rng = random.Random(4103)
    # walks that reached the empty (False) or the full set (True) before
    # their last letter, where the early stop skips letters
    early = {False: 0, True: 0}
    for trial in range(300):
        n = rng.randint(60, 90) if trial % 10 == 0 else rng.randint(1, 12)
        rev = ReversalDfa(random_host(rng, n))
        full = (1 << rev.host.state_count) - 1
        for _ in range(5):
            word = "".join(rng.choice("AB") for _ in range(rng.randint(0, 3 * n)))
            m, hit = rev.initial_mask, None
            for c in word:
                if hit is None and m in (0, full):
                    hit = m == full
                m = rev.step(m, c)
            assert rev.accepts(word) == rev.is_final(m), (rev.host, word)
            if hit is not None:
                early[hit] += 1
    assert early[False] > 100 and early[True] > 100
    # a walk that stops at once still checks every letter
    for finals in (frozenset(), frozenset({0})):
        one_state = Dfa(alphabet=("0", "1"), delta=((0, 0),), initial=0, finals=finals)
        with pytest.raises(ValueError, match="got 'x'"):
            ReversalDfa(one_state).accepts("ABx")


# ---------------------------------------------------------------------------
# one compiled host for a run of queries


def reversal_builds(monkeypatch) -> list:
    """A weak reference to each reversal automaton that ``decision``
    compiles, in order; a compile fails the test if an earlier one is still
    alive.  Callers ask only about hosts they build themselves, so no entry
    left by another test can match one, whatever order the tests run in."""
    built = []

    class Counted(ReversalDfa):
        def __init__(self, host):
            assert all(ref() is None for ref in built), "an old table is alive"
            super().__init__(host)
            built.append(weakref.ref(self))

    monkeypatch.setattr(decision, "ReversalDfa", Counted)
    return built


def test_member_compiles_a_host_once_per_run_of_calls(monkeypatch):
    rng = random.Random(4100)
    a, b = random_host(rng, 9), random_host(rng, 11)
    words = list(words_upto("AB", 5))
    built = reversal_builds(monkeypatch)
    answers = set()
    for host, compiles in ((a, 1), (b, 2), (a, 3)):
        for w in words:
            want = reference_member(host, w)
            assert member(host, w) == want, w
            answers.add(want)
        assert len(built) == compiles
    assert answers == {False, True}
    # the entry is keyed by the object: an equal host compiles again
    twin = dataclasses.replace(a)
    assert twin == a and twin is not a
    assert [member(twin, w) for w in words] == [reference_member(a, w) for w in words]
    assert len(built) == 4


def test_the_old_table_dies_once_another_host_is_asked(monkeypatch):
    rng = random.Random(4101)
    a, b = random_host(rng, 6), random_host(rng, 6)
    built = reversal_builds(monkeypatch)
    member(a, "AB")
    assert built[0]() is not None
    member(b, "AB")
    assert built[0]() is None and built[1]() is not None


def test_member_and_intersect_on_one_host_compile_once(monkeypatch):
    host = dataclasses.replace(exact_ones_dfa(1))
    built = reversal_builds(monkeypatch)
    assert member(host, "BA")
    assert intersect_nonempty(host, BA_STAR) == "BA"
    assert not member(host, "B")
    assert len(built) == 1


def test_a_refused_host_leaves_no_table_behind(monkeypatch):
    rng = random.Random(4102)
    host = random_host(rng, 5)
    turn_host = Dfa(alphabet=("A", "B"), delta=((0, 0),), initial=0, finals=frozenset())
    built = reversal_builds(monkeypatch)
    member(host, "A")
    for ask in (lambda: member(turn_host, "A"), lambda: intersect_nonempty(turn_host, A_STAR)):
        with pytest.raises(ValueError, match="host DFA must be over the 01 alphabet"):
            ask()
        assert built[0]() is None
    # so the next call on the first host compiles it again
    assert member(host, "A") == reference_member(host, "A")
    assert len(built) == 2


def test_threads_never_pair_a_host_with_another_hosts_table():
    # A^k is in the winning set of exact-ones(j) just when k >= j, so a walk
    # on another host's table can give a wrong answer
    hosts = {j: exact_ones_dfa(j) for j in range(3, 7)}
    failures = []

    def ask(seed):
        rng = random.Random(seed)
        for _ in range(300):
            j, k = rng.randint(3, 6), rng.randint(3, 6)
            if member(hosts[j], "A" * k) != exact_ones_winset_member(j, "A" * k):
                failures.append((j, k))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


def test_member_on_large_circuit_value_instances():
    rng = random.Random(1155)
    answers = set()
    for _ in range(3):
        c = parse_circuit(deep_circuit_text(4, 15, lambda g: rng.choice(("and", "or"))))
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

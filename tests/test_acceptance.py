"""Acceptance suite: one test (and one pass/fail line) per criterion.

Each criterion is a single test function so the ``pytest -v`` report shows
exactly one PASSED/FAILED line per item.  The n=5 enumeration point (517)
takes about 7 s on one core and runs with the rest.
"""

import random
import time
from itertools import combinations, product

import pytest

from winset.automata import accepts, congruent
from winset.circuits import or_with_index, circuit_value_instance, iterated_instance
from winset.decision import member
from winset.enumeration import max_winset_complexity
from winset.gadgets import (
    chain_dfa,
    dyck_closed_form,
    exact_ones_dfa,
    exact_ones_wsize,
    gen_subset,
    lower_bound_dfa,
    subset_word,
    test_word as probe_word,
    testing as build_tester,
)
from winset.game import (
    game_state,
    game_states_equivalent,
    is_accepting,
    winning_run,
    winset_dfa,
)
from winset.oracle import alice_wins, dfa_predicate, dyck_predicate, winning_slice
from .conftest import (
    count_words,
    enumerate_words,
    named_state,
    random_circuit,
    relabeled_host_corpus,
    subset_targets,
)


@pytest.fixture(scope="session")
def enumeration_results():
    """Worst-case search for n = 1..4, shared by criteria 1 and 5."""
    out = {}
    for n in range(1, 5):
        sizes = []
        t0 = time.perf_counter()
        result = max_winset_complexity(n, observe=sizes.append)
        out[n] = (result, sizes, time.perf_counter() - t0)
    return out


@pytest.fixture(scope="session")
def exhaustive_hosts():
    """Every reachable ≤3-state binary host up to edge-label swaps."""
    return [d for n in (1, 2, 3) for d in relabeled_host_corpus(n)]


def antichain_count(n: int) -> int:
    """Number of antichains over the subsets of an n-element set."""
    masks = list(range(1 << n))
    count = 0
    for fam in range(1 << (1 << n)):
        members = [s for s in masks if fam >> s & 1]
        ok = True
        for i, x in enumerate(members):
            for y in members[i + 1:]:
                if x & y == x or x & y == y:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def test_criterion_01_sequence_reproduction(enumeration_results):
    maxes = {n: enumeration_results[n][0].max_size for n in range(1, 5)}
    assert maxes == {1: 1, 2: 4, 3: 16, 4: 62}
    assert all(enumeration_results[n][0].exhausted for n in range(1, 5))
    small_time = sum(enumeration_results[n][2] for n in (1, 2, 3))
    assert small_time < 10.0
    assert enumeration_results[4][2] < 600.0
    print("criterion 1 (sequence 1,4,16,62 within time budget): PASS")


def test_criterion_01_long_run_n5():
    result = max_winset_complexity(5)
    assert result.exhausted and result.max_size == 517
    assert result.witness.delta == ((1, 1), (2, 2), (3, 3), (4, 4), (0, 1))
    assert result.witness.finals == frozenset({0, 2})
    print("criterion 1 long-run point (n=5 gives 517): PASS")


def test_criterion_02_exact_ones_formula():
    for n in range(1, 6):
        size = winset_dfa(exact_ones_dfa(n)).state_count
        assert size == exact_ones_wsize(n)
        assert size == (n**3 + 6 * n**2 + 11 * n + 12) // 6
    assert [exact_ones_wsize(n) for n in range(1, 6)] == [5, 11, 21, 36, 57]
    print("criterion 2 (exact-ones winset sizes match the closed form): PASS")


def test_criterion_03_oracle_equivalence(exhaustive_hosts):
    for host in exhaustive_hosts:
        w = winset_dfa(host)
        slices = {
            length: winning_slice(dfa_predicate(host, length))
            for length in range(8)
        }
        for length in range(8):
            for word in enumerate_words("AB", length):
                via_dfa = accepts(w, word)
                via_member = member(host, word)
                via_oracle = word in slices[length]
                assert via_dfa == via_member == via_oracle, (host, word)
    print("criterion 3 (winset DFA, member, oracle agree exhaustively): PASS")


def test_criterion_04_cardinality_and_closure(exhaustive_hosts):
    for host in exhaustive_hosts:
        w = winset_dfa(host)
        for n in range(9):
            assert count_words(w, n) == count_words(host, n), (host, n)
        for length in range(9):
            for word in enumerate_words("AB", length):
                if not accepts(w, word):
                    continue
                for i, c in enumerate(word):
                    if c == "B":
                        assert accepts(w, word[:i] + "A" + word[i + 1:]), (host, word)
    print("criterion 4 (slice cardinality and B-to-A closure): PASS")


def test_criterion_05_dedekind_bound(enumeration_results):
    dedekind = {n: antichain_count(n) for n in range(1, 5)}
    assert dedekind == {1: 3, 2: 6, 3: 20, 4: 168}
    for n in range(1, 5):
        _, sizes, _ = enumeration_results[n]
        assert sizes and max(sizes) <= dedekind[n]
    print("criterion 5 (every winset size within the Dedekind bound): PASS")


def test_criterion_06_gadget_lemmas():
    # the factory manufactures every subset of o-states
    for n in (1, 2, 3):
        g = gen_subset(n, closure="accept")
        start = game_state([[g["b1"]]])
        for r in range(n + 1):
            for s in combinations(range(1, n + 1), r):
                run = winning_run(g.dfa, start, subset_word(n, s))
                target = named_state(g, subset_targets(n, s))
                assert game_states_equivalent(g.dfa, run, target), (n, s)
    # the tester accepts exactly the planted sets inside the probe
    for n in (1, 2, 3):
        g = build_tester(n)
        for ri in range(n + 1):
            for i_set in combinations(range(1, n + 1), ri):
                planted = game_state([[g[f"q{i}"] for i in i_set]])
                for rp in range(n + 1):
                    for p_set in combinations(range(1, n + 1), rp):
                        run = winning_run(g.dfa, planted, probe_word(n, p_set))
                        assert is_accepting(g.dfa, run) == (
                            set(i_set) <= set(p_set)
                        ), (n, i_set, p_set)
    assert winset_dfa(lower_bound_dfa(1)).state_count >= 3
    print("criterion 6 (subset factory, tester, lower-bound size): PASS")


def test_criterion_07_circuit_reduction():
    t0 = time.perf_counter()
    rng = random.Random(20240501)
    checked = 0
    for _ in range(55):
        c = random_circuit(rng, rng.randint(1, 3), rng.randint(0, 4))
        for bits in product((False, True), repeat=c.input_count):
            dfa, word = circuit_value_instance(c, bits)
            assert member(dfa, word) == c.evaluate(bits)[0], (c, bits)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert checked >= 50
    assert elapsed < 60.0
    print(f"criterion 7 ({checked} circuits, all inputs, {elapsed:.1f}s): PASS")


def test_criterion_08_iterated_circuit_reduction():
    rng = random.Random(20240502)
    checked = 0
    for _ in range(12):
        k = rng.randint(1, 3)
        c = random_circuit(rng, k, rng.randint(0, 4), k)
        i = rng.randrange(k)
        prime = or_with_index(c, i)
        for bits in product((False, True), repeat=k):
            dfa, base, period = iterated_instance(c, bits, i)
            state = bits
            for t in range(5):
                want = state == (True,) * k
                assert member(dfa, base + period * t) == want, (c, bits, t)
                state = prime.evaluate(state)
        checked += 1
    assert checked >= 10
    print(f"criterion 8 ({checked} iterated circuits, t <= 4): PASS")


def test_criterion_09_dyck_closed_form():
    t0 = time.perf_counter()
    for i in range(8):
        for j in range(8):
            for k in range(8):
                if i + j + k > 7:
                    continue
                word = "A" * 2 * i + "B" * 2 * j + "A" * 2 * k
                verdict = alice_wins(dyck_predicate(len(word)), word)
                assert verdict == dyck_closed_form(i, j, k), (i, j, k)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"criterion 9 (Dyck closed form vs oracle, {elapsed:.1f}s): PASS")


def test_criterion_10_chain_congruences():
    for n in range(1, 7):
        non_trap = list(range(n - 1))
        for r in range(len(non_trap) + 1):
            for finals in combinations(non_trap, r):
                w = winset_dfa(chain_dfa(n, finals))
                for k in range(3):
                    assert congruent(
                        w, "B" * k + "A" * k + "B" * (k + 1),
                        "B" * (k + 1) + "A" * k + "B" * k
                    ), (n, finals, k)
                    assert congruent(
                        w, "A" * (k + 1) + "B" * k + "A" * k,
                        "A" * k + "B" * k + "A" * (k + 1)
                    ), (n, finals, k)
                assert congruent(w, "A" * (n - 1), "A" * n), (n, finals)
                assert congruent(w, "B" * (n - 1), "B" * n), (n, finals)
    print("criterion 10 (chain congruences for n <= 6, k <= 2): PASS")

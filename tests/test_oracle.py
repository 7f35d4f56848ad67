import math
import random
import tracemalloc

import pytest

from winset.automata import BudgetExceededError, Dfa
from winset.oracle import (
    SLICE_LIMIT,
    TargetPredicate,
    alice_wins,
    contains_011_predicate,
    dfa_predicate,
    dyck_predicate,
    exact_ones_predicate,
    parity_predicate,
    winning_slice,
)
from .conftest import count_words, enumerate_words, random_host


def test_two_routes_agree_on_random_targets():
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randint(0, 7)
        table = {w: rng.random() < 0.4 for w in enumerate_words("01", n)}
        t = TargetPredicate(length=n, member=lambda v, tb=table: tb[v])
        s = winning_slice(t)
        for w in enumerate_words("AB", n):
            assert (w in s) == alice_wins(t, w)


def test_alice_wins_keeps_only_the_current_path():
    t = parity_predicate(16)
    tracemalloc.start()
    try:
        assert not alice_wins(t, "AB" * 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_winning_slice_memo_holds_bit_tables_not_words():
    t = exact_ones_predicate(16, 8)
    tracemalloc.start()
    try:
        assert len(winning_slice(t)) == math.comb(16, 8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 1024 * 1024


def test_slice_cardinality_and_prefix_route_past_tier_one_lengths():
    # |W(L) ∩ {A,B}^n| = |L ∩ {0,1}^n|, and sampled words agree with alice_wins
    rng = random.Random(39)
    for host in (random_host(rng, 4), random_host(rng, 3)):
        for n in (10, 11):
            t = dfa_predicate(host, n)
            s = winning_slice(t)
            assert 0 < len(s) == count_words(host, n) < 2**n
            for _ in range(16):
                w = "".join(rng.choice("AB") for _ in range(n))
                assert (w in s) == alice_wins(t, w)


def test_parity_slice_is_ends_with_a():
    for n in range(1, 8):
        s = winning_slice(parity_predicate(n))
        assert s == {w for w in enumerate_words("AB", n) if w.endswith("A")}
    assert winning_slice(parity_predicate(0)) == set()


def test_contains_011_example():
    t = contains_011_predicate(6)
    assert alice_wins(t, "AABAAB")
    assert not alice_wins(t, "BBBBBB")
    assert "AABAAB" in winning_slice(t)


def test_exact_ones_slice_cardinality():
    # |W-slice| equals |L-slice|, which counts words with exactly k ones
    for n in range(0, 9):
        for k in range(0, n + 1):
            assert len(winning_slice(exact_ones_predicate(n, k))) == math.comb(n, k)


def test_dyck_basics():
    t = dyck_predicate(4)
    assert alice_wins(t, "AAAA")
    assert not alice_wins(t, "BBBB")
    with pytest.raises(ValueError, match="no balanced word has odd length 3"):
        dyck_predicate(3)
    # a negative length is refused as such, not as an odd one, and so is a
    # length that is not an int
    for n in (-2, -3, 0.5, 2.0, "0", None):
        with pytest.raises(ValueError, match="^length must be nonnegative$"):
            dyck_predicate(n)
        with pytest.raises(ValueError, match="^length must be nonnegative$"):
            TargetPredicate(length=n, member=lambda v: True)
    with pytest.raises(ValueError, match="^length must be nonnegative$"):
        winning_slice(parity_predicate(2.0))


def test_dfa_predicate_matches_language():
    rng = random.Random(32)
    for _ in range(15):
        host = random_host(rng, rng.randint(1, 3))
        n = rng.randint(0, 6)
        t = dfa_predicate(host, n)
        s = winning_slice(t)
        for w in enumerate_words("AB", n):
            assert (w in s) == alice_wins(t, w)


def test_input_validation():
    t = parity_predicate(3)
    with pytest.raises(ValueError):
        alice_wins(t, "AB")  # wrong length
    with pytest.raises(ValueError):
        alice_wins(t, "AXB")
    with pytest.raises(BudgetExceededError):
        winning_slice(parity_predicate(SLICE_LIMIT + 1))
    with pytest.raises(BudgetExceededError):
        alice_wins(parity_predicate(SLICE_LIMIT + 1), "A" * (SLICE_LIMIT + 1))
    with pytest.raises(ValueError):
        TargetPredicate(length=-1, member=lambda v: True)
    ab = Dfa(alphabet=("A", "B"), delta=((0, 0),), initial=0, finals=frozenset({0}))
    with pytest.raises(ValueError, match="^predicate DFA must be over the 01 alphabet$"):
        dfa_predicate(ab, 2)
    # a float count would match no word's count of ones
    for bad in (2.0, -1, 0.5, "2", None):
        with pytest.raises(ValueError, match="^k must be >= 0$"):
            exact_ones_predicate(4, bad)
    assert alice_wins(exact_ones_predicate(4, 2), "AAAA")
    assert not alice_wins(exact_ones_predicate(4, 2), "BBBB")


def test_empty_length_edge_case():
    always = TargetPredicate(length=0, member=lambda v: True)
    never = TargetPredicate(length=0, member=lambda v: False)
    assert alice_wins(always, "")
    assert not alice_wins(never, "")
    assert winning_slice(always) == {""}
    assert winning_slice(never) == set()

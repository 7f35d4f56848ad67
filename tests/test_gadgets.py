import random
from itertools import combinations

import pytest

from winset import gadgets
from winset.automata import BudgetExceededError, accepts, enumerate_words

from .conftest import words_upto
from winset.gadgets import (
    test_word as probe_word,
    testing as build_tester,
    a_period_bound_check,
    bounded_upper_bound,
    chain_dfa,
    cycle_profile,
    dyck_closed_form,
    exact_ones_dfa,
    exact_ones_winset_member,
    exact_ones_wsize,
    gen_state,
    gen_subset,
    lower_bound_dfa,
    lower_bound_gadget,
    state_word,
    subset_targets,
    subset_word,
)
from winset.game import (
    game_state,
    game_states_equivalent,
    is_accepting,
    winning_run,
    winset_dfa,
)
from winset.oracle import alice_wins, dyck_predicate


def subsets(n, include_empty=True):
    lo = 0 if include_empty else 1
    for r in range(lo, n + 1):
        yield from combinations(range(1, n + 1), r)


def antichains(n):
    subs = [frozenset(s) for s in subsets(n, include_empty=False)]
    out = [[]]

    def rec(start, fam):
        for i in range(start, len(subs)):
            if all(not (subs[i] <= t or t <= subs[i]) for t in fam):
                out.append(fam + [subs[i]])
                rec(i + 1, fam + [subs[i]])

    rec(0, [])
    return out


# ---------------------------------------------------------------------------
# the subset factory


def test_subset_factory_shape():
    for n in range(1, 6):
        g = gen_subset(n)
        assert g.dfa.state_count == 7 * n
        assert g.dfa.initial == g["b1"]
        assert g.dfa.finals == frozenset({g[f"b{n + 1}"]})


def test_subset_factory_manufactures_every_subset():
    for n in (1, 2, 3):
        g = gen_subset(n, closure="accept")
        start = game_state([[g["b1"]]])
        for s in subsets(n):
            run = winning_run(g.dfa, start, subset_word(n, s))
            target = g.named_state(subset_targets(n, s))
            assert game_states_equivalent(g.dfa, run, target), (n, s)


def test_subset_word_validation():
    assert subset_word(3, {1, 3}) == "BAABBA"
    assert subset_word(2, set()) == "ABAB"
    with pytest.raises(ValueError):
        subset_word(2, {3})


@pytest.mark.parametrize(
    "call",
    [
        lambda: gen_subset(0),
        lambda: gen_subset(1, closure="maybe"),
        lambda: state_word(2, [[3]]),
        lambda: probe_word(2, [3]),
        lambda: exact_ones_wsize(0),
        lambda: exact_ones_winset_member(2, "AX"),
    ],
    ids=[
        "gen_subset-0", "closure", "state_word-range", "test_word-range", "wsize-0", "member-AX"
    ],
)
def test_gadget_arguments_are_checked(call):
    with pytest.raises(ValueError):
        call()


# ---------------------------------------------------------------------------
# the game-state factory, checked inside the full composition


def test_state_factory_plants_antichains():
    for n in (1, 2):
        g = lower_bound_gadget(n)
        tester = {g["r"], g["r'"]} | {g[f"q{i}"] for i in range(1, 2 * n + 1)}
        tester_mask = sum(1 << q for q in tester)
        start = game_state([[g["a1"]]])
        for fam in antichains(n):
            run = winning_run(g.dfa, start, state_word(n, [sorted(s) for s in fam]))
            expected = {1 << g["a1"]} | {
                sum(1 << g[f"r{i}"] for i in s) for s in fam
            }
            on_gadget = {m for m in run if not m & tester_mask}
            assert on_gadget == expected, (n, fam)
            # every extra member leaked into the tester
            assert all(m & tester_mask for m in set(run) - expected)


def test_state_word_validation():
    assert state_word(2, []) == ""
    assert len(state_word(2, [[1], [2]])) == 2 * (3 * 2 + 1)
    with pytest.raises(ValueError):
        state_word(2, [[]])
    with pytest.raises(ValueError):
        state_word(2, [[1], [1, 2]])  # not an antichain


# ---------------------------------------------------------------------------
# the tester


def test_tester_accepts_exactly_contained_subsets():
    for n in (1, 2, 3):
        g = build_tester(n)
        for i_set in subsets(n):
            planted = game_state([[g[f"q{i}"] for i in i_set]])
            for p_set in subsets(n):
                run = winning_run(g.dfa, planted, probe_word(n, p_set))
                assert is_accepting(g.dfa, run) == (set(i_set) <= set(p_set))


def test_tester_dies_after_two_n_steps():
    rng = random.Random(51)
    for n in (1, 2, 3):
        g = build_tester(n)
        size = g.dfa.state_count
        for _ in range(8):
            masks = [rng.randrange(1, 1 << size) for _ in range(rng.randint(1, 2))]
            for length in (2 * n, 2 * n + 1, 2 * n + 2):
                for word in enumerate_words("AB", length):
                    run = winning_run(g.dfa, masks, word)
                    assert not is_accepting(g.dfa, run)


# ---------------------------------------------------------------------------
# the composed lower-bound family


def test_lower_bound_state_count():
    for n in range(1, 11):
        assert lower_bound_dfa(n).state_count == 15 * n + 3


FAMILIES = {
    "gen_subset": lambda n: gen_subset(n).dfa,
    "gen_state": lambda n: gen_state(n).dfa,
    "testing": lambda n: build_tester(n).dfa,
    "lower_bound": lower_bound_dfa,
    "chain": lambda n: chain_dfa(n, []),
    "exact_ones": exact_ones_dfa,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_size_cap_is_the_state_count(family, monkeypatch):
    """The closed form each family checks against the budget is its exact
    state count: the largest size within a small budget builds, the next
    one raises before building."""
    build = FAMILIES[family]
    monkeypatch.setattr(gadgets, "STATE_BUDGET", build(3).state_count)
    assert build(3).state_count == gadgets.STATE_BUDGET
    with pytest.raises(BudgetExceededError):
        build(4)


def test_lower_bound_winset_exceeds_antichain_count():
    w = winset_dfa(lower_bound_dfa(1))
    assert w.state_count >= 3


# ---------------------------------------------------------------------------
# chains and the exact-ones language


def test_chain_accepts_by_ones_count():
    d = chain_dfa(5, {0, 2})
    for w in words_upto("01", 6):
        assert accepts(d, w) == (w.count("1") in {0, 2})


def test_chain_validation():
    with pytest.raises(ValueError):
        chain_dfa(3, {2})  # the trap cannot be final
    with pytest.raises(ValueError):
        chain_dfa(3, {5})


def test_chain_congruence_example():
    w = winset_dfa(chain_dfa(5, {1}))
    from winset.automata import congruent

    assert congruent(w, "BABB", "BBAB")


def test_exact_ones_winset_size_formula():
    assert [exact_ones_wsize(n) for n in range(1, 6)] == [5, 11, 21, 36, 57]
    for n in range(1, 5):
        assert winset_dfa(exact_ones_dfa(n)).state_count == exact_ones_wsize(n)


def test_exact_ones_membership_law():
    for n in range(1, 5):
        w = winset_dfa(exact_ones_dfa(n))
        for length in range(2 * n + 4):
            for word in enumerate_words("AB", length):
                assert accepts(w, word) == exact_ones_winset_member(n, word)


# ---------------------------------------------------------------------------
# bounds


def test_bounded_upper_bound_values():
    assert bounded_upper_bound((1, 1), 0) == 85
    assert bounded_upper_bound((2, 3), 1) == 475255
    assert bounded_upper_bound((), 0) == 3  # empty profile: base 2, two terms
    with pytest.raises(ValueError):
        bounded_upper_bound((0,), 0)
    with pytest.raises(ValueError):
        bounded_upper_bound((2,), -1)


def test_cycle_profile_of_families():
    cycles, ell = cycle_profile(chain_dfa(4, {0, 2}))
    assert cycles == (1, 1, 1) and ell == 0
    cycles, ell = cycle_profile(exact_ones_dfa(3))
    assert cycles == (1, 1, 1, 1) and ell == 0

    from winset.automata import Dfa

    def host(delta, finals):
        return Dfa(alphabet=("0", "1"), delta=delta, initial=0, finals=frozenset(finals))

    # a 3-cycle 1-2-3, a 2-cycle 4-5, transit states 0 and 6, dead sink 7
    delta = ((1, 4), (2, 7), (3, 7), (1, 7), (5, 7), (4, 6), (3, 7), (7, 7))
    assert cycle_profile(host(delta, {1, 4})) == ((2, 3), 2)
    # the trim part {0, 1, 2} is strongly connected with a chord 1 -> 0
    with pytest.raises(ValueError):
        cycle_profile(host(((1, 3), (2, 0), (0, 3), (3, 3)), {0}))
    # no finals: the trim part is empty
    assert cycle_profile(host(((1, 1), (0, 0)), ())) == ((), 0)
    # a 1,999-state transit chain numbered against its edges, from the
    # initial state 1999 down to the final state 1, then a dead sink 0
    n = 2000
    delta = ((0, 0), (0, 0)) + tuple((q - 1, q - 1) for q in range(2, n))
    chain = Dfa(alphabet=("0", "1"), delta=delta, initial=n - 1, finals=frozenset({1}))
    assert cycle_profile(chain) == ((), n - 1)


def test_cycle_profile_rejects_overlapping_cycles():
    from winset.automata import Dfa

    loop = Dfa(alphabet=("0", "1"), delta=((0, 0),), initial=0, finals=frozenset({0}))
    with pytest.raises(ValueError):
        cycle_profile(loop)


def test_winset_size_dominated_by_bound():
    for n in range(1, 6):
        host = exact_ones_dfa(n)
        cycles, ell = cycle_profile(host)
        assert winset_dfa(host).state_count <= bounded_upper_bound(cycles, ell)
    for n in range(2, 7):
        for finals in ({0}, set(range(n - 1))):
            chain = chain_dfa(n, finals)
            cycles, ell = cycle_profile(chain)
            assert winset_dfa(chain).state_count <= bounded_upper_bound(cycles, ell)


def test_a_iterates_become_periodic_within_bound():
    for host in (exact_ones_dfa(2), chain_dfa(4, {1})):
        found = a_period_bound_check(host, (1 << host.initial,))
        assert found is not None
        k, m = found
        assert k >= 0 and m >= 1

    from winset.automata import Dfa

    # transit states 0, 13 and 14 lead into a 5-cycle 1..5 and a 7-cycle
    # 6..12, finals 1 and 12; every other edge goes to the dead sink 15
    delta = [None] * 16
    delta[0], delta[13], delta[14], delta[15] = (13, 14), (1, 15), (6, 15), (15, 15)
    for i in range(5):
        delta[1 + i] = (1 + (i + 1) % 5, 15)
    for i in range(7):
        delta[6 + i] = (6 + (i + 1) % 7, 15)
    host = Dfa(alphabet=("0", "1"), delta=tuple(delta), initial=0, finals=frozenset({1, 12}))
    assert cycle_profile(host) == ((5, 7), 3)
    assert a_period_bound_check(host, (1,)) == (2, 35)


# ---------------------------------------------------------------------------
# the Dyck closed form


def test_dyck_closed_form_examples():
    assert dyck_closed_form(1, 1, 2)
    assert not dyck_closed_form(0, 1, 2)
    assert dyck_closed_form(0, 0, 0)
    with pytest.raises(ValueError):
        dyck_closed_form(-1, 0, 0)


def test_dyck_closed_form_matches_oracle_small():
    for i in range(0, 4):
        for j in range(0, 4):
            for k in range(0, 4):
                if 2 * (i + j + k) > 8:
                    continue
                word = "A" * 2 * i + "B" * 2 * j + "A" * 2 * k
                t = dyck_predicate(len(word))
                assert alice_wins(t, word) == dyck_closed_form(i, j, k)

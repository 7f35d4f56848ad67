import random
import sys
from itertools import combinations
from typing import Iterable, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winset import gadgets
from winset.automata import BudgetExceededError, Dfa, accepts, coaccessible, explore

from .conftest import enumerate_words, named_state, subset_targets, words_upto
from winset.gadgets import (
    test_word as probe_word,
    testing as build_tester,
    _lcm_terms,
    bounded_upper_bound,
    chain_dfa,
    dyck_closed_form,
    exact_ones_dfa,
    exact_ones_winset_member,
    exact_ones_wsize,
    gen_state,
    gen_subset,
    lower_bound_dfa,
    lower_bound_gadget,
    state_word,
    subset_word,
)
from winset.game import (
    _Host,
    game_state,
    game_states_equivalent,
    is_accepting,
    leq,
    winning_run,
    winset_dfa,
)
from winset.oracle import TargetPredicate, alice_wins, dyck_predicate


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
            target = named_state(g, subset_targets(n, s))
            assert game_states_equivalent(g.dfa, run, target), (n, s)


def test_subset_word_validation():
    assert subset_word(3, {1, 3}) == "BAABBA"
    assert subset_word(2, set()) == "ABAB"
    for word in (subset_word, probe_word):
        for bad in ({0}, {3}, {1, 2, 5}):
            with pytest.raises(ValueError) as got:
                word(2, bad)
            assert str(got.value) == f"subset {sorted(bad)} not within 1..2"


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


# What the library may be handed for a number: small ints, so that a valid
# draw builds in milliseconds, and values of other types
NUMBERS = st.one_of(
    st.integers(-3, 40), st.floats(), st.text(max_size=2), st.none(), st.booleans()
)
NUMERIC_CALLS = {
    "chain_dfa": lambda x, xs: chain_dfa(x, xs),
    "exact_ones_dfa": lambda x, xs: exact_ones_dfa(x),
    "gen_subset": lambda x, xs: gen_subset(x),
    "gen_state": lambda x, xs: gen_state(x),
    "testing": lambda x, xs: build_tester(x),
    "lower_bound_dfa": lambda x, xs: lower_bound_dfa(x),
    "exact_ones_wsize": lambda x, xs: exact_ones_wsize(x),
    "TargetPredicate": lambda x, xs: TargetPredicate(x, bool),
    "dyck_predicate": lambda x, xs: dyck_predicate(x),
    "bounded_upper_bound": lambda x, xs: bounded_upper_bound(xs, x),
    "dyck_closed_form": lambda x, xs: dyck_closed_form(x, *(xs + [0, 0])[:2]),
    "game_state": lambda x, xs: game_state([xs, [x]]),
    "leq": lambda x, xs: leq(tuple(xs), (x,)),
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(NUMERIC_CALLS)), NUMBERS, st.lists(NUMBERS, max_size=3))
def test_numeric_arguments_raise_only_value_errors(name, x, xs):
    try:
        NUMERIC_CALLS[name](x, xs)
    except (ValueError, BudgetExceededError):
        pass


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
    # each member is checked for emptiness, then range, member by member,
    # and the antichain only after every member has passed
    cases = [
        ([[]], "antichain members must be nonempty"),
        ([[3], []], "member [3] not within 1..2"),
        ([[], [3]], "antichain members must be nonempty"),
        ([[1], [1, 2], [3]], "member [3] not within 1..2"),
        ([[1], [1, 2]], "members must form an antichain"),
    ]
    for antichain, message in cases:
        with pytest.raises(ValueError) as got:
            state_word(2, antichain)
        assert str(got.value) == message, antichain


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


# what takes a size but builds no host: the closed form and the words
SIZED = {
    "exact_ones_wsize": exact_ones_wsize,
    "subset_word": lambda n: subset_word(n, set()),
    "test_word": lambda n: probe_word(n, []),
    "state_word": lambda n: state_word(n, [[1]]),
    "exact_ones_winset_member": lambda n: exact_ones_winset_member(n, "AB"),
}


@pytest.mark.parametrize("family", sorted(FAMILIES) + sorted(SIZED))
def test_a_size_must_be_an_int_of_at_least_1(family):
    build = FAMILIES.get(family) or SIZED[family]
    for bad in (0, -1, 0.5, 1.5, 2.0, "0", None):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            build(bad)


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
    with pytest.raises(ValueError, match="^the trap state cannot be final$"):
        chain_dfa(3, {2})
    # the Dfa checks the other finals
    for bad in (5, -1, 0.5, "0", None):
        with pytest.raises(ValueError) as got:
            chain_dfa(3, {bad})
        assert str(got.value) == f"final state {bad!r} out of range"


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


# ---------------------------------------------------------------------------
# bounded languages: the cycle profile and the A-period lemma


def cycle_profile(host: Dfa) -> tuple[tuple[int, ...], int]:
    """Cycle lengths and leftover-state count of the trim part of a host.

    Raises ValueError when some trim state lies on two cycles — those hosts
    have non-bounded languages and the A-period bound does not apply.
    """
    # Kosaraju: one forward DFS from the initial state finishes every
    # reachable state; the trim part is closed under paths between its
    # states, so its strongly connected parts are those of the whole graph
    delta = host.delta
    finish: list[int] = []
    seen = {host.initial}
    stack = [(host.initial, iter(delta[host.initial]))]
    while stack:
        v, targets = stack[-1]
        for t in targets:
            if t not in seen:
                seen.add(t)
                stack.append((t, iter(delta[t])))
                break
        else:
            stack.pop()
            finish.append(v)
    trim = coaccessible(host).intersection(finish)

    pred: dict[int, list[int]] = {v: [] for v in trim}
    for q in trim:
        for t in delta[q]:
            if t in trim:
                pred[t].append(q)
    # in decreasing finish order, the unplaced states that reach a state
    # are exactly its strongly connected part
    parts: list[list[int]] = []
    placed: set[int] = set()
    for v in reversed(finish):
        if v in trim and v not in placed:
            part = explore(v, lambda u: [p for p in pred[u] if p not in placed],
                           len(trim), "states")[0]
            placed.update(part)
            parts.append(part)

    cycles: list[int] = []
    ell = 0
    # by least state, so the first failure is fixed
    for part in sorted(parts, key=min):
        comp = set(part)
        inner = sum(1 for q in comp for t in delta[q] if t in comp)
        if len(comp) == 1:
            if inner == 0:
                ell += 1
            elif inner == 1:
                cycles.append(1)
            else:
                raise ValueError("a trim state carries two self-loops; cycles overlap")
        else:
            if inner != len(comp):
                raise ValueError("a strongly connected part is not a simple cycle")
            cycles.append(len(comp))
    return tuple(sorted(cycles)), ell


def a_period_bound_check(
    host: Dfa, g: Iterable[int]
) -> Optional[tuple[int, int]]:
    """Least (k, m) with the A-iterates of g equivalent at steps k and k+m.

    Searches only within the bounds the theory promises for hosts with
    disjoint cycles — k at most lcm + 2*states + max pairwise lcm, m at most
    the lcm of the cycle lengths — and returns None if no pair exists there,
    which would refute the bound.
    """
    ks, _ = cycle_profile(host)
    pair, lcm_all = _lcm_terms(ks)
    k_bound = lcm_all + 2 * host.state_count + pair
    m_bound = lcm_all

    h = _Host(host)
    iterates = [h.normalize(h.members(g))]
    for _ in range(k_bound + m_bound):
        iterates.append(h.step(iterates[-1], "A"))
    for k in range(k_bound + 1):
        for m in range(1, m_bound + 1):
            if h.equivalent(iterates[k], iterates[k + m]):
                return (k, m)
    return None


def test_bounded_upper_bound_values():
    assert bounded_upper_bound((1, 1), 0) == 85
    assert bounded_upper_bound((2, 3), 1) == 475255
    assert bounded_upper_bound((), 0) == 3  # empty profile: base 2, two terms
    # a cycle length that is not an int is refused, never truncated
    for bad in (0, 2.7, 2.0, "3", None):
        with pytest.raises(ValueError, match="^cycle lengths must be >= 1$"):
            bounded_upper_bound((2, bad), 0)
    for bad in (-1, 0.5, "0", None):
        with pytest.raises(ValueError, match="^ell must be >= 0$"):
            bounded_upper_bound((2,), bad)


def test_cycle_profile_of_families():
    cycles, ell = cycle_profile(chain_dfa(4, {0, 2}))
    assert cycles == (1, 1, 1) and ell == 0
    cycles, ell = cycle_profile(exact_ones_dfa(3))
    assert cycles == (1, 1, 1, 1) and ell == 0

    def host(delta, finals):
        return Dfa(alphabet=("0", "1"), delta=delta, initial=0, finals=frozenset(finals))

    # a 3-cycle 1-2-3, a 2-cycle 4-5, transit states 0 and 6, dead sink 7
    delta = ((1, 4), (2, 7), (3, 7), (1, 7), (5, 7), (4, 6), (3, 7), (7, 7))
    assert cycle_profile(host(delta, {1, 4})) == ((2, 3), 2)
    # the trim part {0, 1, 2} is strongly connected with a chord 1 -> 0
    with pytest.raises(ValueError):
        cycle_profile(host(((1, 3), (2, 0), (0, 3), (3, 3)), {0}))
    # the trim part {0, 1} is a 2-cycle whose arc 0 -> 1 is doubled
    with pytest.raises(ValueError, match="^a strongly connected part is not a simple cycle$"):
        cycle_profile(host(((1, 1), (0, 2), (2, 2)), {1}))
    # no finals: the trim part is empty
    assert cycle_profile(host(((1, 1), (0, 0)), ())) == ((), 0)
    # a 1,999-state transit chain numbered against its edges, from the
    # initial state 1999 down to the final state 1, then a dead sink 0
    n = 2000
    delta = ((0, 0), (0, 0)) + tuple((q - 1, q - 1) for q in range(2, n))
    chain = Dfa(alphabet=("0", "1"), delta=delta, initial=n - 1, finals=frozenset({1}))
    assert cycle_profile(chain) == ((), n - 1)


def test_cycle_profile_rejects_overlapping_cycles():
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


def test_a_period_bound_check_reports_a_refutation(monkeypatch):
    # the 2-cycle 0-1 with a dead sink 2: the A-iterates of {{0}} have period 2
    host = Dfa(alphabet=("0", "1"), delta=((1, 2), (0, 2), (2, 2)), initial=0,
               finals=frozenset({0}))
    g = game_state([[0]])
    assert a_period_bound_check(host, g) == (0, 2)
    # a profile promising period 1 puts the true period out of the search
    monkeypatch.setattr(sys.modules[__name__], "cycle_profile", lambda host: ((1,), 0))
    assert a_period_bound_check(host, g) is None


# ---------------------------------------------------------------------------
# the Dyck closed form


def test_dyck_closed_form_examples():
    assert dyck_closed_form(1, 1, 2)
    assert not dyck_closed_form(0, 1, 2)
    assert dyck_closed_form(0, 0, 0)
    for bad in (-1, 0.5, "0", None):
        for blocks in ((bad, 0, 0), (0, bad, 0), (0, 0, bad)):
            with pytest.raises(ValueError, match="^block lengths must be nonnegative$"):
                dyck_closed_form(*blocks)


def test_dyck_closed_form_matches_oracle_small():
    for i in range(0, 4):
        for j in range(0, 4):
            for k in range(0, 4):
                if 2 * (i + j + k) > 8:
                    continue
                word = "A" * 2 * i + "B" * 2 * j + "A" * 2 * k
                t = dyck_predicate(len(word))
                assert alice_wins(t, word) == dyck_closed_form(i, j, k)

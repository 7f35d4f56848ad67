import hashlib
import random
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winset import automata, game
from winset.automata import (
    Dfa,
    Nfa,
    accepts,
    determinize,
    determinize_reverse,
    dfa_to_text,
    equivalent,
    explore,
    minimize,
    preimages,
)
from winset.game import (
    REVERSAL_SUBSETS,
    TURNS,
    BudgetExceededError,
    ReversalDfa,
    _forward_winset_dfa,
    game_state,
    game_states_equivalent,
    is_accepting,
    leq,
    normalize,
    winning_run,
    winning_step,
    winset_dfa,
    winset_nfa,
)
from winset.decision import intersect_nonempty
from winset.enumeration import max_winset_complexity
from winset.gadgets import (
    testing as build_tester,
    chain_dfa,
    exact_ones_dfa,
    exact_ones_winset_member,
    exact_ones_wsize,
    gen_state,
    gen_subset,
    lower_bound_dfa,
)
from winset.oracle import alice_wins, dfa_predicate, parity_predicate
from .conftest import (
    count_words,
    dfas,
    enumerate_words,
    nfa_to_text,
    random_host,
    raw_run,
    raw_successors,
    relabeled,
    shift_steps,
    words_upto,
)

PARITY = Dfa(alphabet=("0", "1"), delta=((0, 1), (1, 0)), initial=0, finals=frozenset({1}))

# ends-with-A over the turn alphabet
ENDS_WITH_A = Dfa(
    alphabet=("A", "B"), delta=((1, 0), (1, 0)), initial=0, finals=frozenset({1})
)


def test_parity_winset_is_ends_with_a():
    w = winset_dfa(PARITY)
    assert w.state_count == 2
    assert equivalent(w, ENDS_WITH_A)


def test_game_state_constructor_sorts_and_dedups():
    assert game_state([[1, 0], [0, 1], [2]]) == (3, 4)
    assert game_state([[]]) == (0,)
    assert game_state([]) == ()


def test_normalize_drops_strict_supersets():
    assert normalize(PARITY, (0b01, 0b11)) == (0b01,)


def test_normalize_strips_accepting_sinks():
    host = Dfa(
        alphabet=("0", "1"), delta=((0, 1), (1, 1)), initial=0, finals=frozenset({1})
    )
    assert normalize(host, (0b11,)) == (0b01,)
    # the stripped member then absorbs what it covers
    assert normalize(host, (0b11, 0b01)) == (0b01,)


def test_normalize_drops_dead_members():
    host = Dfa(
        alphabet=("0", "1"),
        delta=((1, 2), (2, 2), (2, 2)),
        initial=0,
        finals=frozenset({1}),
    )
    # state 2 cannot reach the finals, so any member holding it is lost for Alice
    assert normalize(host, (0b100, 0b001)) == (0b001,)
    assert normalize(host, (0b100,)) == ()


def test_empty_member_absorbs_everything():
    assert normalize(PARITY, (0, 0b01, 0b10)) == (0,)
    assert is_accepting(PARITY, (0,))
    assert not is_accepting(PARITY, ())


def test_winning_step_on_parity():
    g = game_state([[0]])
    assert winning_step(PARITY, g, "A") == (0b01, 0b10)
    assert winning_step(PARITY, g, "B") == (0b11,)
    with pytest.raises(ValueError):
        winning_step(PARITY, g, "0")


def test_every_turn_letter_check_gives_one_message():
    g, rev, h = game_state([[0]]), ReversalDfa(PARITY), game._Host(PARITY)
    # entry points that read one letter refuse the empty word and a word of two
    letters = {
        "winning_step": lambda c: winning_step(PARITY, g, c),
        "_Host.step": lambda c: h.step(g, c),
        "ReversalDfa.step": lambda c: rev.step(1, c),
    }
    for name, call in letters.items():
        for bad in ("X", "", "AB"):
            with pytest.raises(ValueError) as got:
                call(bad)
            assert str(got.value) == f"turn symbol must be A or B, got {bad!r}", name
    # entry points that read a word name the first bad letter they read
    words = {
        "winning_run": lambda w: winning_run(PARITY, g, w),
        "ReversalDfa.accepts": rev.accepts,
        "alice_wins": lambda w: alice_wins(parity_predicate(len(w)), w),
        "exact_ones_winset_member": lambda w: exact_ones_winset_member(2, w),
    }
    for name, call in words.items():
        for w in ("X", "AXB", "BAXAY", "ABBA\n"):
            bad = next(c for c in w if c not in "AB")
            with pytest.raises(ValueError) as got:
                call(w)
            assert str(got.value) == f"turn symbol must be A or B, got {bad!r}", (name, w)


def test_every_game_state_entry_point_refuses_a_member_outside_the_host():
    # a member is a set of host states, a mask below 1 << state_count
    calls = {
        "normalize": (PARITY, lambda g: normalize(PARITY, g)),
        "is_accepting": (PARITY, lambda g: is_accepting(PARITY, g)),
        "winning_step A": (PARITY, lambda g: winning_step(PARITY, g, "A")),
        "winning_step B": (PARITY, lambda g: winning_step(PARITY, g, "B")),
        "winning_run": (PARITY, lambda g: winning_run(PARITY, g, "AB")),
        "game_states_equivalent g": (PARITY, lambda g: game_states_equivalent(PARITY, g, (1,))),
        "game_states_equivalent h": (PARITY, lambda g: game_states_equivalent(PARITY, (1,), g)),
    }
    # game_state and leq have no host, so they check only that each state,
    # or each member, is a non-negative int
    for bad in (-1, "a", 1.0, 0.5, "0", None):
        with pytest.raises(ValueError) as got:
            game_state([[0], [1, bad]])
        assert str(got.value) == f"game-state state {bad!r} is not a non-negative int", bad
        for g, h in (((1,), (2, bad)), ((2, bad), (1,))):
            with pytest.raises(ValueError) as got:
                leq(g, h)
            assert str(got.value) == f"game-state member {bad!r} is not a non-negative int"
    assert leq([1], (m for m in (1, 2))) and not leq((m for m in (1, 2)), [2])
    for name, (host, call) in calls.items():
        n = host.state_count
        for bad in (1 << n, 1 << (n + 3), -1, "a", 1.5, 0.5, "0", None):
            with pytest.raises(ValueError) as got:
                call((1, bad))
            assert str(got.value) == (
                f"game-state member {bad!r} is not a set of the host's {n} states"
            ), (name, bad)
        # every member in range passes, the full set included, and so does
        # a game state handed in as a generator
        call((1, (1 << n) - 1))
        call(m for m in (1, (1 << n) - 1))


def test_winset_rejects_turn_alphabet_host():
    with pytest.raises(ValueError):
        winset_dfa(ENDS_WITH_A)


def test_leq_is_a_preorder_and_step_is_monotone():
    rng = random.Random(21)
    for _ in range(60):
        host = random_host(rng, rng.randint(1, 4))
        n = host.state_count
        g = normalize(host, [rng.randrange(1, 1 << n) for _ in range(2)])
        h = normalize(host, list(g) + [rng.randrange(1, 1 << n)])
        assert leq(g, g)
        for a, b in ((g, h), (h, g)):
            if leq(a, b):
                for c in "AB":
                    assert leq(winning_step(host, a, c), winning_step(host, b, c))
                if is_accepting(host, a):
                    assert is_accepting(host, b)


def test_winset_nfa_matches_winset_dfa(sampled_hosts):
    for host in sampled_hosts[:25]:
        assert equivalent(minimize(determinize(winset_nfa(host))), winset_dfa(host))


def test_normalized_and_raw_runs_agree(sampled_hosts):
    rng = random.Random(22)
    for host in sampled_hosts[:20]:
        for _ in range(10):
            w = "".join(rng.choice("AB") for _ in range(rng.randint(0, 6)))
            start = (1 << host.initial,)
            raw = raw_run(host, start, w)
            norm = winning_run(host, start, w)
            assert normalize(host, raw) == norm
            assert is_accepting(host, raw) == is_accepting(host, norm)
    with pytest.raises(ValueError):
        raw_run(PARITY, (1,), "X")


def test_reversal_recognizes_reversed_winset(sampled_hosts):
    for host in sampled_hosts[:30]:
        w = winset_dfa(host)
        rev = ReversalDfa(host)
        for word in words_upto("AB", 6):
            assert rev.accepts(word[::-1]) == accepts(w, word)


def test_reversal_to_dfa_matches_lazy_steps():
    rng = random.Random(23)
    for _ in range(15):
        host = random_host(rng, rng.randint(1, 3))
        rev = ReversalDfa(host)
        d = rev.to_dfa()
        for word in words_upto("AB", 5):
            assert accepts(d, word) == rev.accepts(word)


def test_slice_cardinality_matches_host(sampled_hosts):
    for host in sampled_hosts[:30]:
        w = winset_dfa(host)
        for n in range(9):
            assert count_words(w, n) == count_words(host, n)


def test_winset_is_downward_closed(sampled_hosts):
    for host in sampled_hosts[:20]:
        w = winset_dfa(host)
        for word in words_upto("AB", 6):
            if accepts(w, word):
                for i, c in enumerate(word):
                    if c == "B":
                        assert accepts(w, word[:i] + "A" + word[i + 1:])


def test_singleton_acceptance_determines_left_contexts(sampled_hosts):
    # if every singleton {{q}} accepts after v exactly when it accepts
    # after u, then u1+v and u1+u land in the winning set together for
    # every prefix u1 (sets in game states evolve independently)
    rng = random.Random(24)
    words = enumerate_words("AB", 3)
    prefixes = words_upto("AB", 4)
    for host in sampled_hosts[:15]:
        w = winset_dfa(host)
        for _ in range(20):
            v, u = rng.choice(words), rng.choice(words)
            same = all(
                is_accepting(host, winning_run(host, (1 << q,), v))
                == is_accepting(host, winning_run(host, (1 << q,), u))
                for q in range(host.state_count)
            )
            if same:
                for u1 in prefixes:
                    assert accepts(w, u1 + v) == accepts(w, u1 + u)


def test_game_states_equivalent_is_consistent(sampled_hosts):
    rng = random.Random(25)
    for host in sampled_hosts[:15]:
        n = host.state_count
        g = normalize(host, [rng.randrange(1, 1 << n)])
        h = normalize(host, [rng.randrange(1, 1 << n)])
        assert game_states_equivalent(host, g, g)
        verdict = game_states_equivalent(host, g, h)
        brute = all(
            is_accepting(host, winning_run(host, g, word))
            == is_accepting(host, winning_run(host, h, word))
            for word in words_upto("AB", 6)
        )
        # equivalence implies agreement everywhere; a length-6 discrepancy
        # refutes it
        if verdict:
            assert brute
        elif not brute:
            assert not verdict


def test_winset_budget_is_enforced():
    with pytest.raises(BudgetExceededError):
        winset_dfa(lower_bound_dfa(1), max_game_states=5)
    # a budget of 0 is exceeded even by a one-state result, on both routes
    empty = Dfa(alphabet=("0", "1"), delta=((0, 0),), initial=0, finals=frozenset())
    assert winset_dfa(empty).state_count == 1
    with pytest.raises(BudgetExceededError):
        winset_dfa(empty, max_game_states=0)
    with pytest.raises(BudgetExceededError):
        _forward_winset_dfa(empty, 0)


def test_a_budget_that_is_not_a_number_is_refused():
    # every route into explore compares the budget first, the reversal
    # engine's determinize_reverse and the forward engine's members included,
    # and so do the product search and the enumeration's deadline
    a_star = Nfa(TURNS, ((frozenset({0}), frozenset()),), frozenset({0}), frozenset({0}))
    builds = {
        "winset_dfa": lambda b: winset_dfa(PARITY, max_game_states=b),
        "forward": lambda b: _forward_winset_dfa(PARITY, b),
        "to_dfa": lambda b: ReversalDfa(PARITY).to_dfa(max_states=b),
        "determinize_reverse": lambda b: determinize_reverse(PARITY, b),
        "explore": lambda b: explore(0, lambda x: (), b, "states"),
        "intersect_nonempty": lambda b: intersect_nonempty(PARITY, a_star, budget=b),
        "max_winset_complexity": lambda b: max_winset_complexity(2, b),
    }
    for name, build in builds.items():
        # nan compares false with everything, so it would cap nothing, and
        # a bool is no count
        bads = ["5", None, (5,), float("nan"), True, False]
        what = "budget"
        if name == "max_winset_complexity":
            # there None sets no deadline
            bads.remove(None)
            what = "budget_seconds"
        for bad in bads:
            with pytest.raises(ValueError) as got:
                build(bad)
            assert str(got.value) == f"{what} must be a number, got {bad!r}", name
        # a float budget works as an int one does
        assert build(5.0) == build(5), name


def test_every_game_state_entry_point_refuses_a_host_that_is_not_binary():
    # the compiled host checks its host, so none of them can skip the check
    ab = Dfa(alphabet=TURNS, delta=((0, 1), (1, 1)), initial=0, finals=frozenset({1}))
    calls = {
        "normalize": lambda: normalize(ab, [1]),
        "is_accepting": lambda: is_accepting(ab, (1,)),
        "winning_step": lambda: winning_step(ab, (1,), "A"),
        "winning_run": lambda: winning_run(ab, (1,), "AB"),
        "game_states_equivalent": lambda: game_states_equivalent(ab, (1,), (2,)),
        "winset_nfa": lambda: winset_nfa(ab),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError) as got:
            call()
        assert str(got.value) == "host DFA must be over the 01 alphabet", name


def test_forward_route_budget_counts_normalized_game_states():
    # the forward engine's game states, antichains of member closures
    host = lower_bound_dfa(2)
    assert winset_dfa(host, max_game_states=217).state_count == 215
    with pytest.raises(BudgetExceededError, match="more than 216 game states"):
        winset_dfa(host, max_game_states=216)


def test_forward_route_budget_caps_the_members_first():
    # lower_bound_dfa(3) has 997 members and 3,691 game states
    host = lower_bound_dfa(3)
    with pytest.raises(BudgetExceededError, match="more than 996 members"):
        winset_dfa(host, max_game_states=996)
    with pytest.raises(BudgetExceededError, match="more than 3690 game states"):
        winset_dfa(host, max_game_states=3690)


def test_public_algebra_keeps_its_own_game_states():
    # normalize and _Host.step do not use the game preorder
    for n, count in ((1, 35), (2, 622)):
        host = lower_bound_dfa(n)
        h = game._Host(host)
        order, _ = explore(
            normalize(host, (1 << host.initial,)),
            lambda g: (h.step(g, "A"), h.step(g, "B")),
            10_000,
            "game states",
        )
        assert len(order) == count


def host_with_sinks(rng: random.Random, n: int) -> Dfa:
    """A random n-state host, n >= 2, whose last two states are an
    accepting sink and a dead state."""
    delta = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(n - 2))
    delta += ((n - 2, n - 2), (n - 1, n - 1))
    finals = frozenset(q for q in range(n - 2) if rng.random() < 0.5) | {n - 2}
    return Dfa(alphabet=("0", "1"), delta=delta, initial=0, finals=finals)


def seeded_hosts(seed: int) -> list[Dfa]:
    """36 random hosts of at most 6 states; every third has an accepting
    sink and a dead state."""
    rng = random.Random(seed)
    return [
        host_with_sinks(rng, rng.randint(2, 6)) if i % 3 == 0 else random_host(rng, rng.randint(1, 6))
        for i in range(36)
    ]


def oracle_wins(host: Dfa, words: list[str]) -> list[list[bool]]:
    """Per host state p, does Alice win each of ``words`` from p?"""
    return [
        [alice_wins(dfa_predicate(replace(host, initial=p), len(w)), w) for w in words]
        for p in range(host.state_count)
    ]


def naive_game_preorder(host: Dfa) -> list[int]:
    """The game preorder by its definition, one pair of states at a time:
    start from the pairs (p, q) with p final only if q is, and drop a pair
    until every successor of p lies below some successor of q and every
    successor of q above some successor of p."""
    n, delta = host.state_count, host.delta
    rel = {(p, q) for p in range(n) for q in range(n) if p not in host.finals or q in host.finals}
    changed = True
    while changed:
        changed = False
        for p, q in sorted(rel):
            if not (
                all(any((pi, qj) in rel for qj in delta[q]) for pi in delta[p])
                and all(any((pi, qj) in rel for pi in delta[p]) for qj in delta[q])
            ):
                rel.discard((p, q))
                changed = True
    return [sum(1 << q for q in range(n) if (p, q) in rel) for p in range(n)]


def test_game_preorder_is_exact():
    # the worklist finds the greatest relation itself, not a sound part of
    # it: up and above, and so the game states explored, depend on that
    rng = random.Random(3030)
    hosts = seeded_hosts(2112) + seeded_hosts(2113)
    hosts += [random_host(rng, rng.randint(7, 10)) for _ in range(30)]
    hosts += [host_with_sinks(rng, rng.randint(7, 10)) for _ in range(30)]
    strict = 0
    for host in hosts:
        rel = game._game_preorder(host.delta, automata._mask(host.finals))
        assert rel == naive_game_preorder(host), host
        strict += sum(row.bit_count() - 1 for row in rel)
    assert strict > 200


def test_forward_engine_counts_on_the_lower_bound_gadget():
    # members, their distinct closures and the game states explored: a lost
    # pruning leaves the minimal DFA's bytes as they are but not these
    for n, counts in ((1, (29, 22, 25)), (2, (202, 84, 217)), (3, (997, 254, 3691))):
        h, start, rel = game._member_closures(lower_bound_dfa(n), 10_000)
        order, _ = explore(start, h.steps, 10_000, "game states")
        assert (len(rel), len({r | t for t, r in rel.items()}), len(order)) == counts, n


def test_game_preorder_is_sound_against_the_oracle():
    words = words_upto("AB", 6)
    strict = 0
    for host in seeded_hosts(2112):
        n = host.state_count
        rel = game._game_preorder(host.delta, automata._mask(host.finals))
        wins = oracle_wins(host, words)
        for p in range(n):
            assert rel[p] >> p & 1
            for q in range(n):
                if rel[p] >> q & 1:
                    strict += p != q
                    assert all(wq for wp, wq in zip(wins[p], wins[q]) if wp), (host, p, q)
        everyone = (1 << n) - 1
        dead = everyone & ~automata._mask(automata.coaccessible(host))
        for q in range(n):
            if q in host.finals and host.delta[q] == (q, q):
                assert all(rel[p] >> q & 1 for p in range(n))
            if dead >> q & 1:
                assert rel[q] == everyone
    # the sample relates distinct states, so the implication was tested
    assert strict > 50


def test_member_closures_are_sound_against_the_oracle():
    words = words_upto("AB", 6)
    members = beyond = 0
    for host in seeded_hosts(2114):
        _, _, rel = game._member_closures(host, 10_000)
        wins = oracle_wins(host, words)
        for t, r in rel.items():
            assert t & ~r == 0, (host, t, r)
            members += 1
            states = [q for q in range(host.state_count) if t >> q & 1]
            won = [all(wins[q][k] for q in states) for k in range(len(words))]
            for q in range(host.state_count):
                if r >> q & 1:
                    beyond += not t >> q & 1
                    assert all(wq for wt, wq in zip(won, wins[q]) if wt), (host, t, q)
    # the closures reach past their members, so the implication was tested
    assert members > 100 and beyond > 20


def test_step_is_normalized_successors(sampled_hosts):
    for host in sampled_hosts:
        h = game._Host(host)
        order, _ = explore(
            h.normalize((1 << host.initial,)),
            lambda g: (h.step(g, "A"), h.step(g, "B")),
            10_000,
            "game states",
        )
        fresh = game._Host(host)
        for g in order:
            for c in TURNS:
                want = fresh.normalize(raw_successors(fresh, g, c))
                assert h.step(g, c) == want
                assert winning_step(host, g, c) == want
    # unnormalized game states: unsorted, repeated, comparable or empty
    # members, and members holding an accepting sink or a dead state
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(3, 7)
        host = host_with_sinks(rng, n)
        h = game._Host(host)
        sink, dead = 1 << n - 2, 1 << n - 1
        states = [(), (0,), (sink,), (dead,), (0, dead)]
        for _ in range(10):
            members = [
                rng.randrange(1 << n) | rng.choice((0, 0, sink, dead, sink | dead))
                for _ in range(rng.randint(1, 4))
            ]
            members += rng.sample(members, rng.randint(0, len(members)))
            states.append(tuple(members + [0] * (rng.random() < 0.2)))
        for g in states:
            for c in TURNS:
                want = h.normalize(raw_successors(h, g, c))
                assert h.step(g, c) == want
                assert winning_step(host, g, c) == want


# sha256 of the serialized constructions over the <= 3-state corpus and the
# gadget families: they pin every state number, not just the languages
GADGETS = [exact_ones_dfa(n) for n in range(1, 9)] + [lower_bound_dfa(n) for n in (1, 2)]
PINNED = {
    "winset_dfa": (
        lambda h: dfa_to_text(winset_dfa(h)), GADGETS,
        "47dbd151e62fc73a669944a267edffb4af58187277a76d0c05a2b32655cd87f8",
    ),
    "winset_nfa": (
        lambda h: nfa_to_text(winset_nfa(h)), GADGETS,
        "0316019f4dbab2c5751b2ce7416b4c4784cc63264d513f680becdb80cb1ec5c6",
    ),
    "determinize": (
        lambda h: dfa_to_text(determinize(winset_nfa(h))), GADGETS[:6],
        "3be4049bcd92ce465445cdca09d81668d3fbff47288d36553f3ca0ff66850ae2",
    ),
    "reversal": (
        lambda h: dfa_to_text(ReversalDfa(h).to_dfa()), GADGETS,
        "c6b65263bc7a54942fdb016a7a4fea15ff5d0927ce60919a2e802ce767e08a4f",
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_serialized_output_is_pinned(name, small_hosts):
    build, gadgets, digest = PINNED[name]
    h = hashlib.sha256()
    for host in small_hosts + gadgets:
        h.update(build(host).encode())
    assert h.hexdigest() == digest


# ---------------------------------------------------------------------------
# the reversal step: the gather, the sparse route and the shift step


def reference_step(host: Dfa, mask: int, c: str) -> int:
    """The reversal step as a loop over the host states."""
    out = 0
    for q, (t0, t1) in enumerate(host.delta):
        in0, in1 = mask >> t0 & 1, mask >> t1 & 1
        out |= ((in0 | in1) if c == "A" else (in0 & in1)) << q
    return out


@settings(max_examples=150, deadline=None)
@given(dfas(max_states=12), st.data())
def test_gather_step_matches_the_per_state_loop(host, data):
    # masks reach 8 bits past the states; the compiled step ignores the
    # stray bits, and the automaton refuses them
    mask = data.draw(st.integers(min_value=0, max_value=(1 << host.state_count + 8) - 1))
    rev = ReversalDfa(host)
    # the automaton's masks are over its trimmed, breadth-first numbered host
    want = tuple(reference_step(rev.host, mask, c) for c in TURNS)
    p0, p1 = preimages(rev.host.delta)(mask)
    assert (p0 | p1, p0 & p1) == want
    inside = mask & (1 << rev.host.state_count) - 1
    assert rev.successors(inside) == want
    assert tuple(rev.step(inside, c) for c in TURNS) == want
    if inside != mask:
        with pytest.raises(ValueError):
            rev.successors(mask)


def test_gather_step_on_one_state_hosts():
    for finals in (frozenset(), frozenset({0})):
        host = Dfa(alphabet=("0", "1"), delta=((0, 0),), initial=0, finals=finals)
        rev, pre = ReversalDfa(host), preimages(host.delta)
        for mask in range(8):
            assert pre(mask) == (mask & 1, mask & 1)
        for mask in range(2):
            want = tuple(reference_step(host, mask, c) for c in TURNS)
            assert rev.successors(mask) == want == (mask, mask)
            assert tuple(rev.step(mask, c) for c in TURNS) == want
        for bad in ("0", "", "AB"):
            with pytest.raises(ValueError):
                rev.step(1, bad)


def test_reversal_methods_refuse_a_mask_outside_the_trimmed_host():
    # the host's unreachable state 2 is trimmed away
    host = Dfa(alphabet=("0", "1"), delta=((1, 0), (1, 1), (2, 0)), initial=0,
               finals=frozenset({1}))
    rev = ReversalDfa(host)
    n = rev.host.state_count
    assert n == 2
    calls = {
        "successors": rev.successors,
        "step A": lambda m: rev.step(m, "A"),
        "step B": lambda m: rev.step(m, "B"),
        "is_final": rev.is_final,
    }
    for name, call in calls.items():
        for bad in (-1, 1 << n, "a", 1.5, 0.5, "0", None):
            with pytest.raises(ValueError) as got:
                call(bad)
            assert str(got.value) == f"mask {bad!r} is not a set of the trimmed host's 2 states", name
        call((1 << n) - 1)
    assert rev.is_final(1) and not rev.is_final(2)


def reference_preimages(host: Dfa, mask: int) -> tuple[int, int]:
    """``preimages``' pair as a loop over the host states."""
    return tuple(
        sum((mask >> row[i] & 1) << q for q, row in enumerate(host.delta)) for i in (0, 1)
    )


def masks_of_every_density(rng: random.Random, n: int) -> list[int]:
    """Masks with none, one, a few, half, all but a few, all but one and all
    of the n bits set, on both sides of the sparse route's density limit;
    each has stray bits set above bit n - 1."""
    lo = n // automata._SPARSE_DENSITY
    sizes = (0, 1, rng.randint(1, lo), lo, lo + 1, n // 2, n - lo - 1, n - lo, n - 1, n)
    masks = []
    for k in sizes:
        m = sum(1 << q for q in rng.sample(range(n), k))
        masks.append(m | (rng.getrandbits(8) | 1) << n)
    return masks


def masks_of_every_route(rng: random.Random, host: Dfa) -> list[int]:
    """:func:`masks_of_every_density` on the host's states, then the state
    with the most sources alone and alone cleared."""
    n = host.state_count
    [(top, _)] = Counter(t for row in host.delta for t in row).most_common(1)
    return masks_of_every_density(rng, n) + [1 << top, ((1 << n) - 1) ^ (1 << top)]


def sink_host(rng: random.Random, n: int, s: int) -> Dfa:
    """A random n-state host whose accepting sink, state n - 1, has s
    sources: its own two loops and s - 2 other states' moves on 0."""
    sink = n - 1
    delta = [[rng.randrange(sink), rng.randrange(sink)] for _ in range(sink)]
    for q in rng.sample(range(sink), s - 2):
        delta[q][0] = sink
    return Dfa(alphabet=("0", "1"), delta=tuple(map(tuple, delta)) + ((sink, sink),),
               initial=0, finals=frozenset({sink}))


def test_both_step_routes_match_the_per_state_loop():
    rng = random.Random(2611)
    sizes = [60, automata._GATHER_STATES, automata._GATHER_STATES + 1, 66, 100, 203, 400]
    hosts = [random_host(rng, n) for n in sizes + [rng.randint(60, 400) for _ in range(5)]]
    # a funnel: every state moves to state 0 on 1, so one target has n sources
    hosts.append(Dfa(alphabet=("0", "1"), delta=tuple(((q + 1) % 150, 0) for q in range(150)),
                     initial=0, finals=frozenset({149})))
    # a sink with as many sources as the sparse route's limit allows, and one more
    lo = 400 // automata._SPARSE_DENSITY
    hosts += [sink_host(rng, 400, s) for s in (lo, lo + 1)]
    for host in hosts:
        n = host.state_count
        pre, rev = preimages(host.delta), ReversalDfa(host)
        for mask in masks_of_every_route(rng, host):
            assert pre(mask) == reference_preimages(host, mask), (n, mask.bit_count())
        for mask in masks_of_every_route(rng, rev.host):
            mask &= (1 << rev.host.state_count) - 1
            want = tuple(reference_step(rev.host, mask, c) for c in TURNS)
            assert rev.successors(mask) == want
            assert tuple(rev.step(mask, c) for c in TURNS) == want
        for bad in ("0", "", "AB"):
            with pytest.raises(ValueError):
                rev.step(1, bad)


def held_by_a_compiled_step(delta, masks) -> int:
    """Bytes that ``preimages(delta)`` still holds after stepping through
    ``masks``."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pre = preimages(delta)
        for m in masks:
            pre(m)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def test_sparse_step_table_is_linear_and_lazy():
    held = {}
    for n in (25_000, 50_000):
        rng = random.Random(n)
        delta = tuple((rng.randrange(n), rng.randrange(n)) for _ in range(n))
        gather_only = held_by_a_compiled_step(delta, [(1 << n // 2) - 1, (1 << n) - 2])
        held[n] = held_by_a_compiled_step(delta, [1 << n // 3])
        # the sparse route's table is built on its first step, not before;
        # a mask with half or all but one of its bits set takes the gather
        assert gather_only < 0.75 * held[n]
    # a table of predecessor masks would grow 4x
    assert held[50_000] < 2.5 * held[25_000]


def table_with_offsets(n: int, offsets) -> tuple[tuple[int, int], ...]:
    """An n-state table whose transitions have exactly ``offsets`` as their
    offsets, target minus source; 0 must be one of them.  State q moves by
    the (q mod len)-th offset on 0 where that stays in range, and stays put
    on 1."""
    offsets = list(offsets)
    rows = []
    for q in range(n):
        t = q + offsets[q % len(offsets)]
        rows.append((t if 0 <= t < n else q, q))
    return tuple(rows)


def test_shift_step_matches_the_per_state_loop(monkeypatch):
    rng = random.Random(1907)
    cap, small = automata._SHIFT_RUNS, automata._GATHER_STATES
    banded = {
        "chain": chain_dfa(150, range(0, 149, 3)).delta,
        # offsets 1 and -3, and -(n - 1) and n - 3 where the cycle wraps
        "cycle": tuple(((q + 1) % 131, (q - 3) % 131) for q in range(131)),
        "exact-ones, breadth-first": minimize(relabeled(exact_ones_dfa(200), rng)).delta,
        "cap": table_with_offsets(300, range(-15, cap - 15)),
        "gather states + 1": table_with_offsets(small + 1, range(-3, 5)),
    }
    assert len({t - q for q, row in enumerate(banded["cap"]) for t in row}) == cap
    # its offset past the cap first shows at row 40, so only a check over
    # the whole table rejects it
    scattered = table_with_offsets(300, range(-16, cap - 15))
    assert len({t - q for q, row in enumerate(scattered) for t in row}) == cap + 1
    built = shift_steps(monkeypatch)
    tables = [*banded.items(), ("cap + 1", scattered),
              ("gather states", table_with_offsets(small, range(-3, 5)))]
    for name, delta in tables:
        host = Dfa(alphabet=("0", "1"), delta=delta, initial=0, finals=frozenset())
        n = len(delta)
        pre = preimages(delta)
        # a table of at most _GATHER_STATES states takes the gather and asks
        # for no shift step; a larger one asks once, as it is compiled, and
        # past the cap there is none
        if name == "gather states":
            assert built == []
        else:
            [step] = built
            built.clear()
            assert (step is None) == (name == "cap + 1"), name
            assert (pre is step) == (name != "cap + 1"), name
        # every mask has stray bits above n - 1, which the step ignores
        for mask in masks_of_every_density(rng, n):
            assert pre(mask) == reference_preimages(host, mask), (name, mask.bit_count())
        assert built == [], name


def test_shift_step_table_is_linear_and_built_once(monkeypatch):
    build, built = automata._shift_step, []
    monkeypatch.setattr(automata, "_shift_step", lambda delta: built.append(delta) or build(delta))
    rng = random.Random(534)
    held = {}
    for n in (25_000, 50_000):
        delta = table_with_offsets(n, range(-15, automata._SHIFT_RUNS - 15))
        pre = preimages(delta)
        # the shift step is built once, as the table is compiled, and then
        # serves masks of every density with no further build
        assert built == [delta]
        for mask in masks_of_every_density(rng, n):
            pre(mask)
        assert built == [delta]
        built.clear()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            step = build(delta)
            held[n] = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert step is not None
        # _SHIFT_RUNS masks of 2n bits each
        assert held[n] >= automata._SHIFT_RUNS * 2 * n // 8
    assert held[50_000] < 2.5 * held[25_000]


# ---------------------------------------------------------------------------
# the two winset_dfa engines


ENGINE_GADGETS = (
    [exact_ones_dfa(n) for n in range(1, 13)]
    + [chain_dfa(n, range(first, n - 1, 2)) for n in range(2, 11) for first in (0, 1)]
    + [lower_bound_dfa(n) for n in (1, 2)]
)


def test_engines_agree_on_corpus_and_gadgets(small_hosts):
    for host in small_hosts + ENGINE_GADGETS:
        reversal = determinize_reverse(ReversalDfa(host).to_dfa())
        assert dfa_to_text(reversal) == dfa_to_text(_forward_winset_dfa(host))


@settings(max_examples=40, deadline=None)
@given(dfas(max_states=7))
def test_engines_agree_on_random_hosts(host):
    reversal = determinize_reverse(ReversalDfa(host).to_dfa())
    assert dfa_to_text(reversal) == dfa_to_text(_forward_winset_dfa(host))


FACTORY_GADGETS = [
    build(n).dfa
    for build in (gen_subset, lambda n: gen_subset(n, closure="accept"), gen_state, build_tester)
    for n in (1, 2, 3)
]


def test_engines_agree_on_many_seeded_hosts():
    rng = random.Random(2113)
    hosts = [random_host(rng, rng.randint(1, 7)) for _ in range(2000)] + FACTORY_GADGETS
    # the reversal engine trims these first: unreachable states, initial not 0
    shuffled = [relabeled(random_host(rng, rng.randint(2, 7)), rng) for _ in range(400)]
    reached = [len(explore(h.initial, h.delta.__getitem__, h.state_count, "states")[0])
               for h in shuffled]
    assert sum(r < h.state_count and h.initial != 0 for r, h in zip(reached, shuffled)) > 50
    hosts += shuffled
    for host in hosts:
        reversal = determinize_reverse(ReversalDfa(host).to_dfa())
        assert dfa_to_text(reversal) == dfa_to_text(_forward_winset_dfa(host)), host


def test_hosts_over_the_threshold_take_the_forward_route(monkeypatch):
    deep, wide = lower_bound_dfa(2), exact_ones_dfa(6)
    assert len(ReversalDfa(deep).to_dfa().delta) > REVERSAL_SUBSETS
    with pytest.raises(BudgetExceededError):
        ReversalDfa(deep).to_dfa(max_states=REVERSAL_SUBSETS)
    forward, calls = game._forward_winset_dfa, []

    def spy(host, max_game_states):
        # the give-up is no longer being handled, so its traceback is freed
        assert sys.exc_info() == (None, None, None)
        calls.append(host)
        return forward(host, max_game_states)

    monkeypatch.setattr(game, "_forward_winset_dfa", spy)
    assert winset_dfa(wide).state_count == exact_ones_wsize(6)
    assert calls == []
    assert winset_dfa(deep).state_count == 215
    assert calls == [deep]


def test_reversal_route_budget_caps_the_result(monkeypatch):
    host, size = exact_ones_dfa(4), exact_ones_wsize(4)
    assert winset_dfa(host, max_game_states=size).state_count == size
    # a cap hit while determinizing is the caller's budget, not a give-up
    calls = []
    monkeypatch.setattr(game, "_forward_winset_dfa", lambda *args: calls.append(args))
    with pytest.raises(BudgetExceededError):
        winset_dfa(host, max_game_states=size - 1)
    assert calls == []


# ---------------------------------------------------------------------------
# complement duality: by determinacy, on every turn order one side forces
# its goal, so Alice wins for the complement on w exactly when she loses
# for L on w with the roles swapped


def test_complement_duality(small_hosts):
    swap = str.maketrans("AB", "BA")
    words = words_upto("AB", 8)
    for host in small_hosts:
        co = Dfa(
            alphabet=host.alphabet,
            delta=host.delta,
            initial=host.initial,
            finals=frozenset(range(host.state_count)) - host.finals,
        )
        w, wc = winset_dfa(host), winset_dfa(co)
        assert wc.state_count == w.state_count
        for word in words:
            assert accepts(wc, word) != accepts(w, word.translate(swap)), (host, word)

import random
from itertools import islice, permutations, product

import pytest

from winset.automata import Dfa, dfa_to_text, equivalent, preimages
from winset.enumeration import _bfs_ordered, _structure_sizes, _structures, max_winset_complexity
from winset.game import _forward_winset_dfa, winset_dfa
from winset.oracle import dfa_predicate, winning_slice
from .conftest import (
    count_words,
    host_corpus,
    language_slice,
    random_host,
    relabeled_host_corpus,
    relabelings,
    structure_hosts,
)


def test_small_sequence():
    assert max_winset_complexity(1).max_size == 1
    assert max_winset_complexity(2).max_size == 4
    assert max_winset_complexity(3).max_size == 16


def test_label_swap_never_changes_the_winset():
    rng = random.Random(71)
    for _ in range(30):
        host = random_host(rng, rng.randint(1, 4))
        swapped_delta = tuple(
            (t1, t0) if rng.random() < 0.5 else (t0, t1)
            for t0, t1 in host.delta
        )
        swapped = Dfa(
            alphabet=host.alphabet,
            delta=swapped_delta,
            initial=host.initial,
            finals=host.finals,
        )
        assert equivalent(winset_dfa(host), winset_dfa(swapped))


def test_relabeling_never_changes_the_winset():
    rng = random.Random(72)
    for _ in range(20):
        n = rng.randint(1, 4)
        host = random_host(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        delta = [None] * n
        for q in range(n):
            t0, t1 = host.delta[q]
            delta[perm[q]] = (perm[t0], perm[t1])
        relabeled = Dfa(
            alphabet=host.alphabet,
            delta=tuple(delta),
            initial=perm[host.initial],
            finals=frozenset(perm[q] for q in host.finals),
        )
        assert equivalent(winset_dfa(host), winset_dfa(relabeled))


def test_corpus_is_reachable_and_complete():
    hosts = list(host_corpus(2))
    assert len(hosts) % 4 == 0  # all four final sets per structure
    for h in hosts:
        seen = {h.initial}
        stack = [h.initial]
        while stack:
            q = stack.pop()
            for t in h.delta[q]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        assert len(seen) == 2
    # the non-canonical corpus is a superset realized by relabeling
    assert len(list(relabeled_host_corpus(2))) >= len(hosts)


def test_witness_attains_the_maximum_deterministically():
    first = max_winset_complexity(2)
    second = max_winset_complexity(2)
    assert first.exhausted and second.exhausted
    assert first.witness == second.witness
    assert winset_dfa(first.witness).state_count == first.max_size


def test_observe_sees_every_size():
    sizes = []
    result = max_winset_complexity(2, observe=sizes.append)
    assert result.exhausted
    assert max(sizes) == result.max_size
    assert all(s >= 1 for s in sizes)
    assert len(sizes) == len(list(host_corpus(2)))


def test_budget_returns_partial_result():
    result = max_winset_complexity(4, budget_seconds=0.0)
    assert not result.exhausted
    assert result.max_size <= 62


def test_nan_budget_is_refused():
    with pytest.raises(ValueError, match="^budget_seconds must be a number, got nan$"):
        max_winset_complexity(3, budget_seconds=float("nan"))
    # so is a budget that is not a number at all
    for bad in ("1", [1]):
        with pytest.raises(ValueError) as got:
            max_winset_complexity(2, budget_seconds=bad)
        assert str(got.value) == f"budget_seconds must be a number, got {bad!r}"


def test_a_budget_past_every_float_sets_no_deadline():
    # 10**400 seconds is no float, so it cannot be added to the clock
    unbounded = max_winset_complexity(2)
    assert unbounded.exhausted
    assert max_winset_complexity(2, 10**400) == max_winset_complexity(2, float("inf")) == unbounded
    assert max_winset_complexity(2, -10**400) == max_winset_complexity(2, float("-inf"))
    assert not max_winset_complexity(2, -10**400).exhausted


def test_size_guard():
    # a size that is not an int is out of range too
    for n in (0, 7, 2.5, 2.0, "2", None):
        with pytest.raises(ValueError, match="^n must be between 1 and 6$"):
            max_winset_complexity(n)
    with pytest.raises(ValueError):
        next(host_corpus(0))
    assert not max_winset_complexity(6, budget_seconds=0.0).exhausted


def test_progress_callback_counts_structures():
    calls = []
    max_winset_complexity(2, progress=lambda done, total: calls.append((done, total)))
    assert calls and all(t == calls[0][1] for _, t in calls)
    assert calls[-1][0] <= calls[0][1]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_structure_sizes_match_winset_dfa(n):
    for _, delta in _structures(n):
        sizes = _structure_sizes(delta, n)
        assert sizes == [winset_dfa(host).state_count for host in structure_hosts(delta, n)]


def _reversal_graph_by_definition(delta, n):
    """G and each mask's reach set, built from the definitions alone: the
    A successor of a state-set m holds the states with some move into m,
    the B successor those with both moves into m; reach by depth-first
    search."""
    graph = []
    for m in range(1 << n):
        a = sum(1 << q for q, (t0, t1) in enumerate(delta) if m >> t0 & 1 or m >> t1 & 1)
        b = sum(1 << q for q, (t0, t1) in enumerate(delta) if m >> t0 & 1 and m >> t1 & 1)
        graph.append((a, b))
    reach = []
    for f in range(1 << n):
        seen, stack = 1 << f, [f]
        while stack:
            for t in graph[stack.pop()]:
                if not seen >> t & 1:
                    seen |= 1 << t
                    stack.append(t)
        reach.append(seen)
    return graph, reach


def _check_restriction_argument(delta, n, rng):
    graph, reach = _reversal_graph_by_definition(delta, n)
    pre_g = preimages(tuple(graph))
    for r in reach:
        # closed under G: both successors of every member are members
        assert all(r >> a & r >> b & 1 for m, (a, b) in enumerate(graph) if r >> m & 1)
        for _ in range(8):
            s = rng.getrandbits(1 << n)
            a, b = pre_g(s)
            ar, br = pre_g(s & r)
            assert (a & r, b & r) == (ar & r, br & r)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_restriction_to_reach_commutes_with_pre_g(n):
    rng = random.Random(90 + n)
    for _, delta in _structures(n):
        _check_restriction_argument(delta, n, rng)


def test_restriction_to_reach_commutes_with_pre_g_on_seeded_n5_structures():
    rng = random.Random(95)
    for _ in range(50):
        delta = tuple((rng.randrange(5), rng.randrange(5)) for _ in range(5))
        _check_restriction_argument(delta, 5, rng)


def test_structure_sizes_match_winset_dfa_on_an_n5_sample():
    sample = list(islice(_structures(5), 0, None, 97))
    assert len(sample) > 100
    for _, delta in sample:
        sizes = _structure_sizes(delta, 5)
        assert sizes == [winset_dfa(host).state_count for host in structure_hosts(delta, 5)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_observe_sees_the_winset_dfa_sizes_in_corpus_order(n):
    sizes = []
    max_winset_complexity(n, observe=sizes.append)
    assert sizes == [winset_dfa(host).state_count for host in host_corpus(n)]


def test_n4_witness_is_pinned():
    result = max_winset_complexity(4)
    assert result.max_size == 62 and result.exhausted
    assert result.witness == Dfa(
        alphabet=("0", "1"),
        delta=((1, 1), (2, 2), (3, 3), (0, 1)),
        initial=0,
        finals=frozenset({0, 2}),
    )


# the n = 6 witness: a 5-cycle 0 -> 1 -> ... -> 4 -> 0 whose last step also
# reaches a sixth state 5, which moves to 1 or stays
N6_DELTA = ((1, 1), (2, 2), (3, 3), (4, 4), (0, 5), (1, 5))


def test_n6_witness_is_pinned():
    assert all(r >= N6_DELTA for r in relabelings(N6_DELTA, 6))
    sizes = _structure_sizes(N6_DELTA, 6)
    assert max(sizes) == 15_624
    assert [f for f, s in enumerate(sizes) if s == 15_624] == [0b010101, 0b101010]
    for finals, words in (({0, 2, 4}, 2_592), ({1, 3, 5}, 1_504)):
        host = Dfa(alphabet=("0", "1"), delta=N6_DELTA, initial=0, finals=frozenset(finals))
        w = winset_dfa(host)
        assert w.state_count == 15_624
        if finals == {0, 2, 4}:
            assert dfa_to_text(w) == dfa_to_text(_forward_winset_dfa(host))
        slice12 = language_slice(w, 12)
        assert slice12 == winning_slice(dfa_predicate(host, 12))
        assert len(slice12) == count_words(host, 12) == words


# ---------------------------------------------------------------------------
# the breadth-first generator against by-definition references


def _sorted_pair_products(n):
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    return product(pairs, repeat=n)


def _reaches_all_by_dfs(delta, n):
    seen, stack = {0}, [0]
    while stack:
        for t in delta[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return len(seen) == n


def _least_relabeling(delta, n):
    least = delta
    for perm in permutations(range(1, n)):
        pi = (0,) + perm
        relabeled = [None] * n
        for q, (a, b) in enumerate(delta):
            relabeled[pi[q]] = tuple(sorted((pi[a], pi[b])))
        least = min(least, tuple(relabeled))
    return least


def _reachable_structures(n):
    return [d for d in _sorted_pair_products(n) if _reaches_all_by_dfs(d, n)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_canonical_structures_match_the_reference_in_order(n):
    reference = [d for d in _reachable_structures(n) if _least_relabeling(d, n) == d]
    assert [d for _, d in _structures(n)] == reference


@pytest.mark.parametrize("n, count", [(1, 1), (2, 6), (3, 108), (4, 3960)])
def test_full_corpus_is_every_reachable_structure_once(n, count):
    hosts = [(h.delta, h.finals) for h in relabeled_host_corpus(n)]
    assert len(hosts) == len(set(hosts))
    reference = {
        (d, frozenset(q for q in range(n) if f >> q & 1))
        for d in _reachable_structures(n)
        for f in range(1 << n)
    }
    assert len(reference) == count << n
    assert set(hosts) == reference


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_every_bfs_candidate_reaches_all_states(n):
    assert all(_reaches_all_by_dfs(d, n) for d in _bfs_ordered(n))


def test_progress_total_counts_bfs_candidates():
    calls = []
    max_winset_complexity(3, progress=lambda done, total: calls.append((done, total)))
    assert {total for _, total in calls} == {72}
    assert [done for done, _ in calls] == [p for p, _ in _structures(3)]


def test_breadth_first_canonicity_matches_all_relabelings_on_n5_candidates():
    kept = [d for d in _bfs_ordered(5) if all(r >= d for r in relabelings(d, 5))]
    assert [d for _, d in _structures(5)] == kept


def test_structure_sizes_match_winset_dfa_on_seeded_n6_structures():
    rng = random.Random(6)
    sample = set()
    while len(sample) < 80:
        delta = tuple(tuple(sorted((rng.randrange(6), rng.randrange(6)))) for _ in range(6))
        if _reaches_all_by_dfs(delta, 6):
            sample.add(_least_relabeling(delta, 6))
    for delta in sorted(sample):
        sizes = _structure_sizes(delta, 6)
        assert sizes == [winset_dfa(host).state_count for host in structure_hosts(delta, 6)]


def test_bfs_candidate_and_canonical_counts():
    assert [sum(1 for _ in _bfs_ordered(n)) for n in range(1, 6)] == [1, 6, 72, 1080, 20925]
    assert sum(1 for _ in _structures(5)) == 10398

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winset import automata
from winset.automata import (
    BINARY,
    TURNS,
    BudgetExceededError,
    Dfa,
    FormatError,
    GraphBuilder,
    Nfa,
    STATE_BUDGET,
    accepts,
    as_nfa,
    coaccessible,
    congruent,
    determinize,
    determinize_reverse,
    dfa_to_json,
    dfa_to_text,
    equivalent,
    explore,
    minimize,
    nfa_accepts,
    parse_dfa,
    parse_nfa,
    to_dot,
    transformation,
)
from winset.circuits import circuit_value_instance, parse_circuit
from winset.cli import main
from .conftest import (
    count_words,
    dfas,
    language_slice,
    nfa_to_text,
    random_host,
    token_soup,
    words_upto,
)


def _reachable(d: Dfa) -> list[int]:
    """The states reachable from the initial one, in BFS discovery order."""
    return explore(d.initial, d.delta.__getitem__, d.state_count, "states")[0]


def minimize_moore(d: Dfa) -> Dfa:
    """Moore's algorithm; kept as an independent check of :func:`minimize`."""
    states = _reachable(d)
    cls = {q: int(q in d.finals) for q in states}
    while True:
        sig = {
            q: (cls[q], cls[d.delta[q][0]], cls[d.delta[q][1]]) for q in states
        }
        renum: dict[tuple[int, int, int], int] = {}
        new_cls = {}
        for q in states:
            new_cls[q] = renum.setdefault(sig[q], len(renum))
        if len(set(new_cls.values())) == len(set(cls.values())):
            cls = new_cls
            break
        cls = new_cls
    start = cls[d.initial]
    rep = {cls[q]: q for q in reversed(states)}
    number = {start: 0}
    order = [start]
    i = 0
    while i < len(order):
        q = rep[order[i]]
        for sym in range(2):
            t = cls[d.delta[q][sym]]
            if t not in number:
                number[t] = len(order)
                order.append(t)
        i += 1
    delta = tuple(
        tuple(number[cls[d.delta[rep[b]][sym]]] for sym in range(2)) for b in order
    )
    finals = frozenset(number[b] for b in order if rep[b] in d.finals)
    return Dfa(alphabet=d.alphabet, delta=delta, initial=0, finals=finals)


PARITY_TEXT = """\
# odd number of 1s
dfa 2 01
initial 0
finals 1
0 0 0
0 1 1
1 0 1
1 1 0
"""


def random_nfa(rng: random.Random, n: int) -> Nfa:
    delta = tuple(
        tuple(
            frozenset(q for q in range(n) if rng.random() < 0.4) for _ in range(2)
        )
        for _ in range(n)
    )
    initial = frozenset({0} | {q for q in range(n) if rng.random() < 0.2})
    finals = frozenset(q for q in range(n) if rng.random() < 0.4)
    return Nfa(alphabet=("0", "1"), delta=delta, initial=initial, finals=finals)


def test_parse_dfa_basic():
    d = parse_dfa(PARITY_TEXT)
    assert d.state_count == 2
    assert d.delta == ((0, 1), (1, 0))
    assert accepts(d, "0110") is False
    assert accepts(d, "010") is True


def test_graph_builder_numbers_names_in_mention_order():
    b = GraphBuilder()
    b.arc(("x", 1), "y", ("x", 1))
    b.arc("y", "y")
    b.state("y", final=True)
    d = b.build("y")
    assert d == Dfa(("0", "1"), ((1, 0), (1, 1)), 1, frozenset({1}))
    assert b.labels == {("x", 1): 0, "y": 1}
    b.arc("y", "y")  # repeating an arc is allowed
    with pytest.raises(ValueError, match="conflicting transition from 'y' on 1"):
        b.arc("y", "y", ("x", 1))
    b.state("z")
    with pytest.raises(ValueError, match="state 'z' has no transition on 0"):
        b.build("y")


def test_dfa_text_round_trip():
    rng = random.Random(7)
    for _ in range(50):
        d = random_host(rng, rng.randint(1, 5))
        assert parse_dfa(dfa_to_text(d)) == d


def test_nfa_text_round_trip():
    rng = random.Random(8)
    for _ in range(50):
        n = random_nfa(rng, rng.randint(1, 4))
        assert parse_nfa(nfa_to_text(n)) == n


def test_parse_nfa_accepts_dfa_text():
    n = parse_nfa(PARITY_TEXT)
    for w in words_upto("01", 5):
        assert nfa_accepts(n, w) == (w.count("1") % 2 == 1)


@st.composite
def nfas(draw, max_states: int = 4) -> Nfa:
    """NFAs with 0 to ``max_states`` states over either alphabet."""
    n = draw(st.integers(min_value=0, max_value=max_states))
    sets = st.frozensets(st.integers(min_value=0, max_value=n - 1)) if n else st.just(frozenset())
    delta = tuple((draw(sets), draw(sets)) for _ in range(n))
    return Nfa(draw(st.sampled_from([BINARY, TURNS])), delta, draw(sets), draw(sets))


def noisy_text(rng: random.Random, a: Dfa | Nfa, initial, transitions) -> str:
    """Text of automaton ``a``, whose initial states are ``initial``, with
    every liberty the format allows: the transition lines
    ``(q, symbol, targets)`` in any order, blank and comment lines, trailing
    comments, tabs and runs of blanks, ``\\r\\n`` line ends, and state
    tokens such as ``007`` and ``+3``."""

    def state(q: int) -> str:
        return rng.choice(["", "0", "00", "+"]) + str(q)

    def line(tokens: list[str]) -> str:
        indent, sep = rng.choice(["", " ", "\t"]), rng.choice([" ", "\t", "  ", " \t "])
        return indent + sep.join(tokens) + rng.choice(["", "", " # note", "#", "\t# 0 1 2"])

    kind = "dfa" if isinstance(a, Dfa) else "nfa"
    body = [line([state(q), c, *map(state, t)]) for q, c, t in transitions]
    rng.shuffle(body)
    text = ""
    for ln in [line([kind, state(a.state_count), "".join(a.alphabet)]),
               line(["initial", *map(state, initial)]), line(["finals", *map(state, a.finals)]),
               *body]:
        for extra in rng.choices(["", "  ", "# a comment", "\t#"], k=rng.randint(0, 2)):
            text += extra + rng.choice(["\n", "\r\n"])
        text += ln + rng.choice(["\n", "\r\n"])
    return text


@settings(max_examples=150, deadline=None)
@given(dfas(max_states=6), nfas(), st.randoms(use_true_random=False))
def test_parsers_read_noisy_text(d, n, rng):
    rows = [(q, c, [t]) for q, row in enumerate(d.delta) for c, t in zip(d.alphabet, row)]
    text = noisy_text(rng, d, [d.initial], rows)
    assert parse_dfa(text) == d
    assert parse_nfa(text) == as_nfa(d)
    # a pair with no targets may have a line of its own or none at all
    rows = [(q, c, sorted(t)) for q, row in enumerate(n.delta) for c, t in zip(n.alphabet, row)
            if t or rng.random() < 0.5]
    assert parse_nfa(noisy_text(rng, n, n.initial, rows)) == n


def test_a_large_circuit_value_host_reads_back():
    # the shape of the benchmark's deep circuits, which gives 4,467 states
    lines = [f"input x{j}" for j in range(4)]
    prev = "x3"
    for g in range(30):
        kind = "not" if g % 5 == 4 else ("and", "or")[g % 2]
        lines.append(f"{kind} g{g} {prev}" + ("" if kind == "not" else f" x{g % 4}"))
        prev = f"g{g}"
    host, _ = circuit_value_instance(parse_circuit("\n".join(lines + [f"output y {prev}"])),
                                     (True, False, True, False))
    assert host.state_count == 4_467
    text = dfa_to_text(host)
    assert parse_dfa(text) == host
    assert parse_nfa(text) == as_nfa(host)
    lines = text.splitlines()
    body = lines[3:]
    random.Random(5).shuffle(body)
    assert parse_dfa("\n".join(lines[:3] + body)) == host


DFA_ERRORS = [
    ("", "empty input"),
    ("dfa x 01\n", "line 1"),
    ("dfa 1 02\n", "alphabet"),
    ("dfa 1 01\ninitial 0\nfinals 0\n0 0 0\n0 1 9\n", "line 5"),
    ("dfa 1 01\ninitial 0\nfinals 0\n0 0 0\n0 0 0\n0 1 0\n", "duplicate"),
    ("dfa 2 01\ninitial 0\nfinals\n0 0 0\n0 1 1\n1 0 1\n", "missing transition"),
    ("dfa 0 01\n", "line 1: state count must be at least 1"),
    ("dfa 2 01\ninitial 0 1\nfinals 1\n", "line 2: expected 'initial <q>'"),
    ("dfa 1 01\ninitial 0\nfinal 0\n0 0 0\n0 1 0\n", "line 3: expected 'finals"),
    ("dfa 1 01\ninitial 0\nfinals 0\n0 0\n0 1 0\n", "line 4: expected '<state>"),
    ("dfa 1 01\ninitial 0\nfinals 0\n0 2 0\n0 1 0\n", "line 4: symbol '2' not in"),
    # a missing line is named before a bad token on the lines that are there
    ("dfa 2 01\ninitial x\n", "missing 'initial' or 'finals' line"),
    # a line's first fault is named, in the order the line is read
    ("dfa 2 01\ninitial 0\nfinals\n0 2 x\n", "line 4: symbol '2' not in"),
    ("dfa 2 01\ninitial 0\nfinals\n0 0 1\n0 0 x\n", "line 5: duplicate transition"),
    ("dfa 2 01\ninitial 0\nfinals\n0 0 1\n2 0 x\n", "line 5: state index 2 out of"),
]


@pytest.mark.parametrize("text,fragment", DFA_ERRORS)
def test_parse_dfa_errors(text, fragment, tmp_path, capsys):
    with pytest.raises(FormatError, match=fragment):
        parse_dfa(text)
    path = tmp_path / "bad.dfa"
    path.write_text(text)
    assert main(["wdfa", str(path)]) == 2
    assert fragment in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty input"),
        ("# only a comment\n\n", "empty input"),
        ("nfa x AB\n", "line 1: bad state count 'x'"),
        ("nfa 1 AB extra\n", "line 1: expected header 'nfa <state_count> <alphabet>'"),
        ("nfa 1 02\n", "line 1: alphabet must be 01 or AB, got '02'"),
        ("nfa -1 AB\n", "line 1: state count must be at least 0"),
        ("nfa 2 AB\ninitial x\n", "missing 'initial' or 'finals' line"),
        ("nfa 2 AB\ninitial 0 x\nfinals 1\n", "line 2: bad state index 'x'"),
        ("nfa 1 AB\ninitial 0\nfinal 0\n", "line 3: expected 'finals <q>...'"),
        ("nfa 1 AB\ninitial 0\nfinals 0\n0\n", "line 4: expected '<state> <symbol> <target>...'"),
        ("nfa 1 AB\ninitial 0\nfinals 0\n0 0 0\n", "line 4: symbol '0' not in alphabet"),
        ("nfa 1 AB\ninitial 0\nfinals 0\n0 A 0\n0 B 0 9\n", "line 5: state index 9 out of"),
        ("nfa 1 AB\ninitial 0\nfinals 0\n0 A\n0 A 0\n", "line 5: duplicate transition"),
        ("nfa 2 AB\ninitial\nfinals\nx Z 9\n", "line 4: bad state index 'x'"),
        ("nfa 2 AB\ninitial\nfinals\n1 B 0 -1\n", "line 4: state index -1 out of range 0..1"),
    ],
)
def test_parse_nfa_errors(text, fragment, tmp_path, capsys):
    with pytest.raises(FormatError, match=fragment):
        parse_nfa(text)
    host, path = tmp_path / "host.dfa", tmp_path / "bad.nfa"
    host.write_text(PARITY_TEXT)
    path.write_text(text)
    assert main(["decide", "intersect", str(host), str(path)]) == 2
    assert fragment in capsys.readouterr().err


def test_each_parse_reads_its_text_once(monkeypatch):
    calls = []
    tokenize = automata._tokenize
    monkeypatch.setattr(automata, "_tokenize", lambda text: calls.append(text) or tokenize(text))
    nfa_text = "nfa 2 AB\ninitial 0 1\nfinals 1\n0 A 0 1\n"
    for parse, text in ((parse_dfa, PARITY_TEXT), (parse_nfa, PARITY_TEXT), (parse_nfa, nfa_text)):
        calls.clear()
        parse(text)
        assert calls == [text], parse
    # parse_nfa reads DFA text as parse_dfa does, faults included, and
    # names the nfa header when the header is neither
    assert parse_nfa(PARITY_TEXT) == as_nfa(parse_dfa(PARITY_TEXT))
    for text, _ in DFA_ERRORS:
        with pytest.raises(FormatError) as want:
            parse_dfa(text)
        with pytest.raises(FormatError) as got:
            parse_nfa(text)
        assert str(got.value) == str(want.value), text
    with pytest.raises(FormatError, match="^line 1: expected header 'dfa <state_count>"):
        parse_dfa("nfa 1 AB\n")
    with pytest.raises(FormatError, match="^line 1: expected header 'nfa <state_count>"):
        parse_nfa("xyz 1 AB\n")


NO_MOVES = (frozenset(), frozenset())
# the one message for a container of the wrong type, which would leave the
# automaton unhashable or mutable
FIELDS = "^an automaton's delta must be a tuple and its state sets frozensets$"


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Dfa(BINARY, (), 0, frozenset()), "at least one state"),
        (lambda: Dfa(("0", "1", "2"), ((0, 0),), 0, frozenset()), "exactly 2 symbols"),
        (lambda: Dfa(BINARY, ((0, 0),), 1, frozenset()), "initial state 1 out of range"),
        (lambda: Dfa(BINARY, ((0, 1),), 0, frozenset()), "target 1 out of range"),
        (lambda: Dfa(BINARY, ((0, 0),), 0, frozenset({1})), "final state 1 out of range"),
        (lambda: Dfa(BINARY, ((0, 0, 0),), 0, frozenset()), "a target per symbol"),
        (lambda: Dfa(BINARY, ((0, 0),), -1, frozenset()), "^initial state -1 out of range$"),
        (lambda: Dfa(BINARY, ((0, -1),), 0, frozenset()), "^target -1 out of range$"),
        (lambda: Dfa(BINARY, ((0, 0),), 0, frozenset({-1})), "^final state -1 out of range$"),
        # a state that is not an int is out of range, named by its repr
        (lambda: Dfa(BINARY, ((0, 0.5), (1, 1)), 0, frozenset({1})), "^target 0.5 out of range$"),
        (lambda: Dfa(BINARY, ((0, "0"),), 0, frozenset()), "^target '0' out of range$"),
        (lambda: Dfa(BINARY, ((None, 0),), 0, frozenset()), "^target None out of range$"),
        (lambda: Dfa(BINARY, ((0, 0),), 0.5, frozenset()), "^initial state 0.5 out of range$"),
        (lambda: Dfa(BINARY, ((0, 0),), "0", frozenset()), "^initial state '0' out of range$"),
        (lambda: Dfa(BINARY, ((0, 0),), None, frozenset()), "^initial state None out of range$"),
        (lambda: Dfa(BINARY, ((0, 1), (1, 1)), 0, frozenset({0.5})),
         "^final state 0.5 out of range$"),
        (lambda: Dfa(BINARY, ((0, 0),), 0, frozenset({"0"})), "^final state '0' out of range$"),
        (lambda: Dfa(BINARY, ((0, 0),), 0, frozenset({None})), "^final state None out of range$"),
        # lists and sets would leave the automaton unhashable and mutable
        (lambda: Dfa(BINARY, [[0, 1], [1, 1]], 0, frozenset({1})), FIELDS),
        (lambda: Dfa(BINARY, None, 0, frozenset()), FIELDS),
        (lambda: Dfa(BINARY, ((0, 0),), 0, {0}), FIELDS),
        (lambda: Dfa(BINARY, ((0, 1), [1, 1]), 0, frozenset({1})),
         "^state 1: need a target per symbol$"),
        (lambda: Nfa(("0",), (NO_MOVES,), frozenset({0}), frozenset()), "exactly 2 symbols"),
        (lambda: Nfa(BINARY, ((frozenset({1}), frozenset()),), frozenset(), frozenset()),
         "target 1 out of range"),
        (lambda: Nfa(BINARY, (NO_MOVES,), frozenset({1}), frozenset()), "state 1 out of range"),
        (lambda: Nfa(BINARY, ((frozenset(), frozenset({2})),), frozenset(), frozenset()),
         "^target 2 out of range$"),
        (lambda: Nfa(BINARY, (NO_MOVES,), frozenset(), frozenset({-1})),
         "^state -1 out of range$"),
        (lambda: Nfa(BINARY, ((frozenset({0.5}), frozenset()),), frozenset(), frozenset()),
         "^target 0.5 out of range$"),
        (lambda: Nfa(BINARY, ((frozenset(), frozenset({"0"})),), frozenset(), frozenset()),
         "^target '0' out of range$"),
        (lambda: Nfa(BINARY, (NO_MOVES,), frozenset({"0"}), frozenset()),
         "^state '0' out of range$"),
        (lambda: Nfa(BINARY, (NO_MOVES,), frozenset(), frozenset({None})),
         "^state None out of range$"),
        (lambda: Nfa(BINARY, [NO_MOVES], frozenset({0}), frozenset()), FIELDS),
        (lambda: Nfa(BINARY, (NO_MOVES,), [0], frozenset()), FIELDS),
        (lambda: Nfa(BINARY, (NO_MOVES,), frozenset({0}), {0}), FIELDS),
        (lambda: Nfa(BINARY, (NO_MOVES, NO_MOVES, (set(), frozenset())), frozenset({0}),
                     frozenset()), "^state 2: need a target set per symbol$"),
        (lambda: Nfa(BINARY, (NO_MOVES, NO_MOVES, NO_MOVES, [frozenset(), frozenset()]),
                     frozenset({0}), frozenset()), "^state 3: need a target set per symbol$"),
        (lambda: Nfa(TURNS, ((frozenset(),),), frozenset({0}), frozenset({0})),
         "^state 0: need a target set per symbol$"),
        (lambda: Nfa(BINARY, (NO_MOVES, NO_MOVES + (frozenset(),)), frozenset({0}), frozenset()),
         "^state 1: need a target set per symbol$"),
        (lambda: Dfa(("0", "0"), ((0, 0),), 0, frozenset()),
         "^alphabet must have exactly 2 symbols, and they must differ$"),
        (lambda: Nfa(("A", "A"), (NO_MOVES,), frozenset({0}), frozenset()),
         "^alphabet must have exactly 2 symbols, and they must differ$"),
        # a list alphabet would leave the automaton unhashable
        (lambda: Dfa(["0", "1"], ((0, 0),), 0, frozenset()),
         "^alphabet must have exactly 2 symbols, and they must differ$"),
        (lambda: Dfa(None, ((0, 0),), 0, frozenset()),
         "^alphabet must have exactly 2 symbols, and they must differ$"),
        (lambda: Nfa(["A", "B"], (NO_MOVES,), frozenset({0}), frozenset()),
         "^alphabet must have exactly 2 symbols, and they must differ$"),
        (lambda: Nfa(None, (NO_MOVES,), frozenset({0}), frozenset()),
         "^alphabet must have exactly 2 symbols, and they must differ$"),
    ],
)
def test_constructors_reject_malformed_automata(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_symbol_outside_the_alphabet_gives_one_message():
    d = Dfa(BINARY, ((0, 0),), 0, frozenset())
    for read in (lambda: d.symbol_index("X"), lambda: accepts(d, "01X"),
                 lambda: nfa_accepts(as_nfa(d), "01X")):
        with pytest.raises(ValueError, match="^symbol 'X' not in alphabet 01$"):
            read()


def test_parse_nfa_shares_the_row_of_states_without_transitions():
    n = parse_nfa("nfa 4 AB\ninitial 0\nfinals 3\n0 A 1\n2 B\n")
    assert n.delta[1] is n.delta[3]
    assert n.delta[1] == (frozenset(), frozenset())
    assert n.delta[0] == (frozenset({1}), frozenset())
    assert n.delta[2] == (frozenset(), frozenset())


@pytest.mark.parametrize("kind,alphabet", [("nfa", "AB"), ("dfa", "01")])
def test_parse_rejects_state_counts_over_the_budget(kind, alphabet):
    parse = parse_nfa if kind == "nfa" else parse_dfa
    header = f"{kind} {STATE_BUDGET + 1} {alphabet}\ninitial 0\nfinals 0\n"
    with pytest.raises(FormatError, match="line 1: .*budget"):
        parse(header)
    with pytest.raises(FormatError, match="budget"):
        parse(f"{kind} 3000000 {alphabet}\ninitial 0\nfinals 0\n")


def test_minimize_agrees_with_moore():
    rng = random.Random(9)
    for _ in range(150):
        d = random_host(rng, rng.randint(1, 5))
        a, b = minimize(d), minimize_moore(d)
        assert a == b  # both are canonical, so equality is the right bar


@settings(max_examples=200, deadline=None)
@given(dfas(max_states=12))
def test_minimize_agrees_with_moore_property(d):
    assert minimize(d) == minimize_moore(d)


def test_minimize_scales_on_a_long_counter():
    # length mod N with one final state is already minimal; a split that
    # pays for the larger half makes Hopcroft quadratic on it
    n = 20_000
    d = Dfa(
        alphabet=("0", "1"),
        delta=tuple(((q + 1) % n, (q + 1) % n) for q in range(n)),
        initial=0,
        finals=frozenset({0}),
    )
    t0 = time.perf_counter()
    m = minimize(d)
    elapsed = time.perf_counter() - t0
    assert m == d
    assert elapsed < 5.0, f"minimize of a {n}-state counter took {elapsed:.1f} s"


def test_minimize_preserves_language_and_shrinks():
    rng = random.Random(10)
    for _ in range(60):
        d = random_host(rng, rng.randint(1, 5))
        m = minimize(d)
        assert m.state_count <= d.state_count
        assert minimize(m) == m
        for w in words_upto("01", 4):
            assert accepts(m, w) == accepts(d, w)


def test_equivalent_matches_slice_comparison():
    rng = random.Random(11)
    for _ in range(80):
        a = random_host(rng, rng.randint(1, 3))
        b = random_host(rng, rng.randint(1, 3))
        # a distinguishing word, if any, has length < 3 + 3
        brute = all(
            accepts(a, w) == accepts(b, w) for w in words_upto("01", 5)
        )
        assert equivalent(a, b) == brute


# a -> c, b;  c -> d, a;  b -> d;  d has no successors
GRAPH = {"a": ("c", "b"), "b": ("d",), "c": ("d", "a"), "d": ()}


def test_explore_numbers_states_in_bfs_discovery_order():
    order, rows = explore("a", GRAPH.__getitem__, 4, "nodes")
    assert order == ["a", "c", "b", "d"]
    assert rows == [(1, 2), (3, 0), (3,), ()]  # tuples, in successor order


def test_explore_budget_is_exact():
    assert len(explore("a", GRAPH.__getitem__, 4, "nodes")[0]) == 4
    with pytest.raises(BudgetExceededError, match="more than 3 nodes"):
        explore("a", GRAPH.__getitem__, 3, "nodes")
    # below 1, even the start state is over the budget
    with pytest.raises(BudgetExceededError, match="more than 0 x"):
        explore(0, lambda x: (), 0, "x")
    with pytest.raises(BudgetExceededError, match="more than -1 nodes"):
        explore("a", GRAPH.__getitem__, -1, "nodes")


def test_determinize_preserves_language():
    rng = random.Random(12)
    for _ in range(60):
        n = random_nfa(rng, rng.randint(1, 4))
        d = determinize(n)
        for w in words_upto("01", 6):
            assert accepts(d, w) == nfa_accepts(n, w)


def test_transformation_composes():
    d = parse_dfa(PARITY_TEXT)
    assert transformation(d, "") == (0, 1)
    assert transformation(d, "1") == (1, 0)
    assert transformation(d, "10") == (1, 0)
    rng = random.Random(6)
    for _ in range(30):
        h = random_host(rng, rng.randint(1, 4))
        v = "".join(rng.choice("01") for _ in range(rng.randint(0, 4)))
        w = "".join(rng.choice("01") for _ in range(rng.randint(0, 4)))
        tv, tw = transformation(h, v), transformation(h, w)
        assert transformation(h, v + w) == tuple(tw[q] for q in tv)


def test_congruent_is_sound():
    rng = random.Random(13)
    contexts = words_upto("01", 3)
    for _ in range(40):
        d = minimize(random_host(rng, rng.randint(1, 4)))
        v = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
        w = "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
        if congruent(d, v, w):
            for u1 in contexts:
                for u2 in contexts:
                    assert accepts(d, u1 + v + u2) == accepts(d, u1 + w + u2)


def test_congruent_rejects_distinguishable_words():
    d = minimize(parse_dfa(PARITY_TEXT))
    assert congruent(d, "1", "111")
    assert not congruent(d, "0", "1")


def test_count_words_matches_slice():
    rng = random.Random(14)
    for _ in range(30):
        d = random_host(rng, rng.randint(1, 4))
        for n in range(6):
            assert count_words(d, n) == len(language_slice(d, n))


def test_dot_and_json_exports():
    d = parse_dfa(PARITY_TEXT)
    dot = to_dot(d)
    assert "digraph" in dot and "->" in dot
    blob = dfa_to_json(d)
    assert '"initial": 0' in blob


@settings(max_examples=300, deadline=None)
@given(st.one_of(token_soup, st.text()))
def test_parsers_raise_only_format_errors(text):
    for parse in (parse_dfa, parse_nfa, parse_circuit):
        try:
            parse(text)
        except FormatError:
            pass


@settings(max_examples=60, deadline=None)
@given(dfas(), st.text(alphabet="01", max_size=8))
def test_minimize_acceptance_property(d, w):
    assert accepts(minimize(d), w) == accepts(d, w)


@settings(max_examples=60, deadline=None)
@given(dfas())
def test_text_round_trip_property(d):
    assert parse_dfa(dfa_to_text(d)) == d


@settings(max_examples=60, deadline=None)
@given(dfas())
def test_coaccessible_matches_forward_search(d):
    # q is co-accessible iff the finals meet the states reachable from q
    def reach(q):
        return set(_reachable(Dfa(d.alphabet, d.delta, q, d.finals)))

    assert coaccessible(d) == {q for q in range(d.state_count) if reach(q) & d.finals}


def reverse_nfa(d: Dfa) -> Nfa:
    rows = [[set(), set()] for _ in range(d.state_count)]
    for q, row in enumerate(d.delta):
        for i, t in enumerate(row):
            rows[t][i].add(q)
    return Nfa(
        alphabet=d.alphabet,
        delta=tuple((frozenset(a), frozenset(b)) for a, b in rows),
        initial=d.finals,
        finals=frozenset({d.initial}),
    )


@settings(max_examples=80, deadline=None)
@given(dfas())
def test_determinize_reverse_is_minimal_on_accessible_dfas(d):
    # the accessible part of d, then Brzozowski's reversal against the
    # textbook route: reverse, determinize, minimize
    order, rows = explore(d.initial, d.delta.__getitem__, d.state_count, "states")
    finals = frozenset(i for i, q in enumerate(order) if q in d.finals)
    acc = Dfa(d.alphabet, tuple(rows), 0, finals)
    assert dfa_to_text(determinize_reverse(acc)) == dfa_to_text(
        minimize(determinize(reverse_nfa(acc)))
    )
    size = determinize_reverse(acc).state_count
    if size > 1:  # explore always numbers the start state
        with pytest.raises(BudgetExceededError):
            determinize_reverse(acc, budget=size - 1)


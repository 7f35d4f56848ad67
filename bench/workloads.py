"""The benchmark's workloads: seeded inputs, timed jobs and their references.

Every host reaches the library as text the benchmark writes itself and
``parse_dfa`` reads back; gadget and circuit hosts are first built through
the library, then relabeled by a seeded permutation.  Relabeling changes the
bitmasks the library sees but not its answers, and the work only slightly,
so different seeds give different inputs at nearly the same cost.

While building, every call into the library goes through ``lib``, which
times it for ``setup_s``; the benchmark's own input generation between those
calls is not timed.

A job's ``run`` is the timed call.  Its ``check`` runs afterwards, outside
the timed region, and returns ``None`` or the reason the answer is wrong.
See README.md for why each workload exists.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, NamedTuple, Optional


class Job(NamedTuple):
    name: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


WORKLOADS = ("enum4", "wdfa-wide", "wdfa-deep", "decide")

# Minimal winning-set DFA sizes of lower_bound_dfa(n); a minimal DFA's size
# does not depend on how the host's states are numbered.
LOWER_BOUND_SIZES = {1: 23, 2: 215, 3: 3689}

EXACT_ONES_WIDE = range(8, 12)
# chain hosts' cost depends on their finals, so those are fixed
CHAINS = ((11, range(1, 10, 2)), (12, range(0, 11, 2)))
RANDOM_HOSTS, RANDOM_HOST_STATES = 40, 6
CV_CIRCUITS, CV_INPUTS, CV_GATES = 3, 4, 30
EXACT_ONES_DECIDE, DECIDE_WORDS = 200, 60
COUNTER_BITS = 6
SAMPLE_WORDS, ORACLE_LENGTH = 24, 10


def _call(fn, *args, **kwargs):
    return fn(*args, **kwargs)


def build(name: str, winset, seed: int, lib=_call, tracer=None) -> list[Job]:
    """Jobs of workload ``name``.  ``lib(fn, *args)`` makes each library call
    of the build; in traced runs ``tracer`` receives the enumeration
    callbacks."""
    rng = random.Random(f"{name}:{seed}")
    return {
        "enum4": _enum4,
        "wdfa-wide": _wdfa_wide,
        "wdfa-deep": _wdfa_deep,
        "decide": _decide,
    }[name](winset, rng, lib, tracer)


# ---------------------------------------------------------------------------
# input generation, independent of the library


def host_text(delta, initial: int, finals) -> str:
    lines = [f"dfa {len(delta)} 01", f"initial {initial}"]
    lines.append(" ".join(["finals", *map(str, sorted(finals))]))
    for q, (t0, t1) in enumerate(delta):
        lines += [f"{q} 0 {t0}", f"{q} 1 {t1}"]
    return "\n".join(lines) + "\n"


def relabeled_text(host, rng: random.Random) -> str:
    n = host.state_count
    perm = list(range(n))
    rng.shuffle(perm)
    delta = [None] * n
    for q, (t0, t1) in enumerate(host.delta):
        delta[perm[q]] = (perm[t0], perm[t1])
    return host_text(delta, perm[host.initial], {perm[q] for q in host.finals})


def random_host_text(rng: random.Random, n: int) -> str:
    delta = [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
    finals = {q for q in range(n) if rng.random() < 0.5}
    return host_text(delta, 0, finals)


def turn_words(rng: random.Random, count: int, max_len: int) -> list[str]:
    """Random turn words of mixed lengths and A-densities, so both answers occur."""
    words = []
    for i in range(count):
        p_a = 0.3 + 0.6 * i / max(1, count - 1)
        length = rng.randint(0, max_len)
        words.append("".join("A" if rng.random() < p_a else "B" for _ in range(length)))
    return words


def deep_circuit_text(rng: random.Random, inputs: int, gates: int) -> str:
    """A deep circuit: each gate takes the previous gate as an argument.

    Every fifth gate is a NOT; the others also read input g mod ``inputs``
    and are AND or OR as the seed picks.  The shape alone fixes the host's
    size, which with random wiring varied by 2x and with it the cost.
    """
    lines = [f"input x{j}" for j in range(inputs)]
    prev = f"x{inputs - 1}"
    for g in range(gates):
        if g % 5 == 4:
            lines.append(f"not g{g} {prev}")
        else:
            lines.append(f"{rng.choice(('and', 'or'))} g{g} {prev} x{g % inputs}")
        prev = f"g{g}"
    lines.append(f"output y {prev}")
    return "\n".join(lines) + "\n"


def counter_text(k: int, dead: Optional[int] = None) -> str:
    """k-bit increment (bit 0 first), optionally with output ``dead`` held false."""
    lines = [f"input x{j}" for j in range(k)] + ["not y0 x0"]
    outs, carry = ["y0"], "x0"
    for j in range(1, k):
        lines += [
            f"or o{j} x{j} {carry}",
            f"and a{j} x{j} {carry}",
            f"not n{j} a{j}",
            f"and y{j} o{j} n{j}",
        ]
        outs.append(f"y{j}")
        carry = f"a{j}"
    if dead is not None:
        lines += [f"not nd x{dead}", f"and z x{dead} nd"]
        outs[dead] = "z"
    lines += [f"output out{j} {src}" for j, src in enumerate(outs)]
    return "\n".join(lines) + "\n"


def lasso_nfa_text(base: str, period: str) -> str:
    """NFA text for base·period*."""
    word, m = base + period, len(base)
    lines = [f"nfa {len(word)} AB", "initial 0", f"finals {m}"]
    for s, c in enumerate(word):
        lines.append(f"{s} {c} {s + 1 if s + 1 < len(word) else m}")
    return "\n".join(lines) + "\n"


def bits_of(value: int, k: int) -> tuple[bool, ...]:
    return tuple(bool(value >> j & 1) for j in range(k))


# ---------------------------------------------------------------------------
# references


def _witness(circuits, c, bits: tuple[bool, ...], i: int, base: str, period: str):
    """base·period^t for the first t at which iterating or_with_index(c, i)
    from ``bits`` reaches all-true; None once a state repeats."""
    prime = circuits.or_with_index(c, i)
    seen, state, t = set(), bits, 0
    while state != (True,) * len(bits):
        if state in seen:
            return None
        seen.add(state)
        state, t = prime.evaluate(state), t + 1
    return base + period * t


def _check_winset(winset, host, words, *, size=None, law=None):
    """Reference checks for a built winning-set DFA ``w``: its size where one
    is known, agreement with ``member`` and any closed-form ``law`` on the
    sample words, and with the brute-force oracle on the short ones."""
    from winset.automata import accepts
    from winset.oracle import alice_wins, dfa_predicate

    def check(w) -> Optional[str]:
        if size is not None and w.state_count != size:
            return f"{w.state_count} states, expected {size}"
        for word in words:
            got = accepts(w, word)
            if got != winset.decision.member(host, word):
                return f"disagrees with member on {word!r}"
            if law is not None and got != law(word):
                return f"disagrees with the closed form on {word!r}"
            if len(word) <= ORACLE_LENGTH and got != alice_wins(
                dfa_predicate(host, len(word)), word
            ):
                return f"disagrees with the oracle on {word!r}"
        return None

    return check


def _expect(reference: Callable[[], object]) -> Callable[[object], Optional[str]]:
    def check(got) -> Optional[str]:
        want = reference()
        return None if got == want else f"got {got!r}, expected {want!r}"

    return check


# ---------------------------------------------------------------------------
# workloads


def _enum4(winset, rng, lib, tracer):
    callbacks = {} if tracer is None else {"observe": tracer.observe, "progress": tracer.progress}

    def check(result) -> Optional[str]:
        if not result.exhausted:
            return "search did not finish"
        return None if result.max_size == 62 else f"max size {result.max_size}, expected 62"

    return [Job("max_winset_complexity(4)",
                lambda: winset.enumeration.max_winset_complexity(4, **callbacks), check)]


def _wdfa_job(winset, name, host, rng, **ref) -> Job:
    words = turn_words(rng, SAMPLE_WORDS, 3 * host.state_count)
    return Job(name, lambda: winset.game.winset_dfa(host),
               _check_winset(winset, host, words, **ref))


def _wdfa_wide(winset, rng, lib, tracer):
    parse, gadgets = winset.automata.parse_dfa, winset.gadgets
    jobs = []
    for n in EXACT_ONES_WIDE:
        host = lib(parse, relabeled_text(lib(gadgets.exact_ones_dfa, n), rng))
        jobs.append(_wdfa_job(
            winset, f"exact_ones({n})", host, rng, size=gadgets.exact_ones_wsize(n),
            law=lambda w, n=n: gadgets.exact_ones_winset_member(n, w)))
    for n, finals in CHAINS:
        host = lib(parse, relabeled_text(lib(gadgets.chain_dfa, n, finals), rng))
        jobs.append(_wdfa_job(winset, f"chain({n},{list(finals)})", host, rng))
    for i in range(RANDOM_HOSTS):
        host = lib(parse, random_host_text(rng, RANDOM_HOST_STATES))
        jobs.append(_wdfa_job(winset, f"random#{i}", host, rng))
    return jobs


def _wdfa_deep(winset, rng, lib, tracer):
    parse, gadgets = winset.automata.parse_dfa, winset.gadgets
    return [
        _wdfa_job(winset, f"lower_bound({n})",
                  lib(parse, relabeled_text(lib(gadgets.lower_bound_dfa, n), rng)), rng, size=size)
        for n, size in LOWER_BOUND_SIZES.items()
    ]


def _decide(winset, rng, lib, tracer):
    parse_dfa, parse_nfa = winset.automata.parse_dfa, winset.automata.parse_nfa
    circuits, gadgets = winset.circuits, winset.gadgets
    member, intersect = winset.decision.member, winset.decision.intersect_nonempty
    jobs = []

    # circuit value: member on deep circuits
    for i in range(CV_CIRCUITS):
        c = lib(circuits.parse_circuit, deep_circuit_text(rng, CV_INPUTS, CV_GATES))
        bits = tuple(rng.random() < 0.5 for _ in range(CV_INPUTS))
        dfa, word = lib(circuits.circuit_value_instance, c, bits)
        host = lib(parse_dfa, relabeled_text(dfa, rng))
        jobs.append(Job(f"circuit_value#{i}", lambda h=host, w=word: member(h, w),
                        _expect(lambda c=c, b=bits: c.evaluate(b)[0])))

    # many short words on one large exact-ones host
    n = EXACT_ONES_DECIDE
    host = lib(parse_dfa, relabeled_text(lib(gadgets.exact_ones_dfa, n), rng))
    for i in range(DECIDE_WORDS):
        length = n + i
        b = rng.randint(0, length - n)
        letters = ["A"] * (length - b) + ["B"] * b
        rng.shuffle(letters)
        word = "".join(letters)
        jobs.append(Job(f"exact_ones({n})#{i}", lambda h=host, w=word: member(h, w),
                        _expect(lambda w=word: gadgets.exact_ones_winset_member(n, w))))

    # iterated counters against base·period*.  The two nonempty starts are
    # complementary, so their iteration counts always sum to 2^(k-1); the
    # empty case (top bit held false) cycles through 2^(k-1) states from any
    # start.  The seed thus changes the instances but not the total work.
    k, top = COUNTER_BITS, COUNTER_BITS - 1
    a = rng.randrange(1, 1 << top)
    cases = [(counter_text(k), a), (counter_text(k), (1 << top) - a),
             (counter_text(k, dead=top), rng.randrange(1 << top))]
    for i, (text, start) in enumerate(cases):
        c = lib(circuits.parse_circuit, text)
        bits = bits_of(start, k)
        dfa, base, period = lib(circuits.iterated_instance, c, bits, top)
        host = lib(parse_dfa, relabeled_text(dfa, rng))
        lasso = lib(parse_nfa, lasso_nfa_text(base, period))
        jobs.append(Job(f"counter#{i}(start={start})",
                        lambda h=host, b=lasso: intersect(h, b),
                        _expect(functools.partial(_witness, circuits, c, bits, top, base, period))))
    return jobs

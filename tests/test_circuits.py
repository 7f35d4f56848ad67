import hashlib
import random
from itertools import product

import pytest

from winset.automata import FormatError, dfa_to_text
from winset.circuits import (
    Circuit,
    circuit_to_dfa,
    circuit_value_instance,
    consistent_inputs,
    iterated_instance,
    or_with_index,
    parse_circuit,
)
from winset.cli import main
from winset.decision import member
from winset.game import winning_run
from .conftest import random_circuit

MAJORITY_TEXT = """\
# majority of three
input x0
input x1
input x2
and a x0 x1
and b x0 x2
and c x1 x2
or ab a b
or maj ab c
output y maj
"""


def all_bits(k):
    return list(product((False, True), repeat=k))


def test_parse_and_evaluate_majority():
    c = parse_circuit(MAJORITY_TEXT)
    assert c.input_count == 3 and c.output_count == 1
    for bits in all_bits(3):
        assert c.evaluate(bits) == (sum(bits) >= 2,)


def test_parse_gate_shorthand_equivalence():
    a = parse_circuit("input x\ngate g NOT x\noutput y g\n")
    b = parse_circuit("input x\nnot g x\noutput y g\n")
    assert a == b


@pytest.mark.parametrize(
    "text",
    [
        "input x\ngate g XOR x x\noutput y g\n",  # unknown kind
        "input x\nand g x\noutput y g\n",  # wrong arity
        "input x\ninput x\nnot g x\noutput y g\n",  # duplicate name
        "input x\nnot g z\noutput y g\n",  # unknown argument
        "input x\n",  # no outputs
        "input x\nfrob g x\noutput y g\n",  # unknown line
        "input x\nnot g x\nnot g x\noutput y g\n",  # duplicate gate
        "input x\noutput y x\noutput y x\n",  # duplicate output
        "input x\noutput y z\n",  # unknown output source
    ],
)
def test_parse_rejects_malformed(text, tmp_path, capsys):
    with pytest.raises(FormatError):
        parse_circuit(text)
    path = tmp_path / "bad.circuit"
    path.write_text(text)
    assert main(["gadget", "circuit", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_reduction_shape():
    art = circuit_to_dfa(parse_circuit(MAJORITY_TEXT))
    assert art.p >= 1 and art.p % 2 == 1  # p = 2d - 3
    assert len(art.input_states) == 3
    assert len(art.output_states) == 1
    assert art.dfa.finals == frozenset()


def rail_mask(art, vector, rails):
    mask = 0
    for (t, f), bit in zip(rails, vector):
        mask |= 1 << (t if bit else f)
    return mask


def inputs_all_live(c: Circuit) -> bool:
    """Does every input feed some output?  Dead inputs never show up on the
    input rails, so the preimage check only makes sense without them."""
    gate_map = {g[0]: g for g in c.gates}
    live = set()
    stack = [src for _, src in c.outputs]
    while stack:
        x = stack.pop()
        if x in live:
            continue
        live.add(x)
        if x in gate_map:
            stack.extend(gate_map[x][2])
    return all(x in live for x in c.inputs)


def test_consistent_preimages_match_brute_force():
    rng = random.Random(61)
    done = 0
    while done < 40:
        k = rng.randint(1, 3)
        m = rng.randint(1, 2)
        c = random_circuit(rng, k, rng.randint(0, 4), m)
        if not inputs_all_live(c):
            continue
        done += 1
        art = circuit_to_dfa(c)
        for out_vec in all_bits(m):
            start = rail_mask(art, out_vec, art.output_states)
            run = winning_run(
                art.dfa, [start], "AAB" * art.p, normalized=False
            )
            expected = {a for a in all_bits(k) if c.evaluate(a) == out_vec}
            assert consistent_inputs(art, run) == expected


def test_consistent_inputs_drops_members_holding_both_rails():
    art = circuit_to_dfa(parse_circuit("input a\ninput b\nand g a b\noutput y g\n"))
    (ta, fa), (tb, fb) = art.input_states
    both = 1 << ta | 1 << fa | 1 << tb  # both rails of wire a: excessive
    consistent = 1 << ta | 1 << fb
    assert consistent_inputs(art, [both, consistent]) == {(True, False)}


def test_value_instance_decides_circuit_value():
    rng = random.Random(62)
    for _ in range(25):
        c = random_circuit(rng, rng.randint(1, 3), rng.randint(0, 4))
        for bits in all_bits(c.input_count):
            dfa, word = circuit_value_instance(c, bits)
            assert member(dfa, word) == c.evaluate(bits)[0]


def test_value_instance_validation():
    c = random_circuit(random.Random(0), 2, 2, 2)
    with pytest.raises(ValueError):
        circuit_value_instance(c, (True, False))  # two outputs
    c1 = random_circuit(random.Random(0), 2, 2, 1)
    with pytest.raises(ValueError):
        circuit_value_instance(c1, (True,))  # arity mismatch


def test_or_with_index_semantics():
    rng = random.Random(63)
    for _ in range(20):
        k = rng.randint(1, 3)
        c = random_circuit(rng, k, rng.randint(0, 3), k)
        i = rng.randrange(k)
        prime = or_with_index(c, i)
        for bits in all_bits(k):
            base = c.evaluate(bits)
            assert prime.evaluate(bits) == tuple(b or base[i] for b in base)


def iterate(c: Circuit, bits, t: int):
    for _ in range(t):
        bits = c.evaluate(bits)
    return tuple(bits)


def test_iterated_instance_tracks_iteration():
    rng = random.Random(64)
    for _ in range(12):
        k = rng.randint(1, 3)
        c = random_circuit(rng, k, rng.randint(0, 4), k)
        i = rng.randrange(k)
        prime = or_with_index(c, i)
        for bits in all_bits(k):
            dfa, base, period = iterated_instance(c, bits, i)
            for t in range(5):
                want = iterate(prime, bits, t) == (True,) * k
                assert member(dfa, base + period * t) == want


def test_iterated_not_gate_toggles():
    c = parse_circuit("input x\nnot g x\noutput y g\n")
    dfa, base, period = iterated_instance(c, (False,), 0)
    for t in range(6):
        assert member(dfa, base + period * t) == (t % 2 == 1)


def test_iterated_validation():
    c = random_circuit(random.Random(1), 2, 2, 1)
    with pytest.raises(ValueError):
        iterated_instance(c, (True, False), 0)  # output arity mismatch
    c2 = random_circuit(random.Random(1), 2, 2, 2)
    with pytest.raises(ValueError):
        iterated_instance(c2, (True, False), 5)  # index out of range
    with pytest.raises(ValueError):
        iterated_instance(c2, (True,), 0)  # assignment too short


# sha256 of every reduction over a seeded corpus: it pins each state number,
# the round count and the rail pairs, not just the decided answers
REDUCTIONS_DIGEST = "70218ed7467fd2f22c96d326233427e9bb5e8bd5223c701cfe563ca24819c93a"


def test_reductions_are_pinned():
    rng = random.Random(66)
    h = hashlib.sha256()
    for _ in range(12):
        for k in (1, 2, 3, 4):
            bits = tuple(rng.random() < 0.5 for _ in range(k))
            c = random_circuit(rng, k, rng.randint(0, 6), rng.randint(1, 3))
            art = circuit_to_dfa(c)
            h.update(dfa_to_text(art.dfa).encode())
            h.update(f"{art.p} {art.input_states} {art.output_states}\n".encode())
            dfa, word = circuit_value_instance(random_circuit(rng, k, rng.randint(0, 6)), bits)
            h.update(f"{dfa_to_text(dfa)}{word}\n".encode())
            square = random_circuit(rng, k, rng.randint(0, 6), k)
            dfa, base, period = iterated_instance(square, bits, rng.randrange(k))
            h.update(f"{dfa_to_text(dfa)}{base} {period}\n".encode())
    assert h.hexdigest() == REDUCTIONS_DIGEST

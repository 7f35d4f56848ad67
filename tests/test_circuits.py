import hashlib
import random
from itertools import product
from typing import Iterable

import pytest

from winset.automata import FormatError, dfa_to_text
from winset.circuits import (
    Circuit,
    ReductionArtifact,
    _levelize,
    circuit_to_dfa,
    circuit_value_instance,
    iterated_instance,
    or_with_index,
    parse_circuit,
)
from winset.cli import main
from winset.decision import member
from .conftest import random_circuit, raw_run

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


# each malformed circuit text and the message that refuses it
MALFORMED = {
    "input x\ngate g XOR x x\noutput y g\n": "unknown gate kind 'XOR'",
    "input x\nand g x\noutput y g\n": "gate 'g': AND takes 2 arguments",
    "input x\ninput x\nnot g x\noutput y g\n": "duplicate node name 'x'",
    "input x\nnot g z\noutput y g\n": "gate 'g': unknown argument 'z'",
    "input x\n": "a circuit needs at least one output",
    "input x\nfrob g x\noutput y g\n": "line 2: unrecognized line 'frob g x'",
    "input x\nnot g x\nnot g x\noutput y g\n": "duplicate node name 'g'",
    "input x\noutput y x\noutput y x\n": "duplicate node name 'y'",
    "input x\noutput y z\n": "output 'y': unknown source 'z'",
    # a gate is defined only after its arguments are checked
    "input x\nnot g g\noutput y g\n": "gate 'g': unknown argument 'g'",
    # an output's source is an input or a gate, not another output
    "input x\noutput y x\noutput z y\n": "output 'z': unknown source 'y'",
    # a duplicate name is named before the node's other faults
    "input g\ngate g XOR x\noutput y g\n": "duplicate node name 'g'",
    "input x\noutput x z\n": "duplicate node name 'x'",
}


@pytest.mark.parametrize("text", list(MALFORMED))
def test_parse_rejects_malformed(text, tmp_path, capsys):
    with pytest.raises(FormatError) as got:
        parse_circuit(text)
    assert str(got.value) == MALFORMED[text]
    path = tmp_path / "bad.circuit"
    path.write_text(text)
    assert main(["gadget", "circuit", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {MALFORMED[text]}\n"


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


def consistent_inputs(
    art: ReductionArtifact, raw_state: Iterable[int]
) -> set[tuple[bool, ...]]:
    """Input vectors encoded by the consistent members of a raw game state."""
    rail_of = {}
    for j, (t, f) in enumerate(art.input_states):
        rail_of[t] = (j, True)
        rail_of[f] = (j, False)
    found = set()
    for mask in raw_state:
        assignment: dict[int, bool] = {}
        ok = True
        m = mask
        while m:
            q = (m & -m).bit_length() - 1
            m &= m - 1
            if q not in rail_of:
                ok = False
                break
            j, val = rail_of[q]
            if assignment.setdefault(j, val) != val:
                ok = False  # both rails of one wire: excessive
                break
        if ok and len(assignment) == len(art.input_states):
            found.add(tuple(assignment[j] for j in range(len(art.input_states))))
    return found


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
            run = raw_run(art.dfa, [start], "AAB" * art.p)
            expected = {a for a in all_bits(k) if c.evaluate(a) == out_vec}
            assert consistent_inputs(art, run) == expected


def test_consistent_inputs_drops_members_holding_both_rails():
    art = circuit_to_dfa(parse_circuit("input a\ninput b\nand g a b\noutput y g\n"))
    (ta, fa), (tb, fb) = art.input_states
    both = 1 << ta | 1 << fa | 1 << tb  # both rails of wire a: excessive
    consistent = 1 << ta | 1 << fb
    assert consistent_inputs(art, [both, consistent]) == {(True, False)}
    # a member holding a rail that is no input rail is dropped too
    ty = art.output_states[0][0]
    stray = 1 << ta | 1 << fb | 1 << ty
    assert consistent_inputs(art, [stray, 1 << ta | 1 << tb]) == {(True, True)}


def test_leveled_form():
    def leveled(body):
        c = parse_circuit("input a\ninput b\n" + body)
        return circuit_to_dfa(c), _levelize(c)

    art, (_, _, out_srcs) = leveled("and g a b\noutput y g\n")
    assert art.p == 1 and out_srcs == (("gate", "g"),)
    # a top-level source named by two outputs needs a pad level above it
    art, (_, lgates, out_srcs) = leveled("and g a b\noutput y g\noutput z g\n")
    assert art.p == 3 and len(set(out_srcs)) == 2
    assert all(lgates[s] == (2, "PASS", (("gate", "g"),)) for s in out_srcs)
    art, _ = leveled("output y a\n")
    assert art.p == 1
    # distinct sources at two levels: no bump, and the lower one is padded
    art, (_, lgates, out_srcs) = leveled("and g1 a b\nor g2 g1 a\noutput y g2\noutput z g1\n")
    assert art.p == 3 and out_srcs[0] == ("gate", "g2")
    assert lgates[out_srcs[1]] == (2, "PASS", (("gate", "g1"),))
    live, _ = leveled("and g a b\noutput y g\n")
    dead, _ = leveled("and g a b\nor h a b\noutput y g\n")
    assert dfa_to_text(dead.dfa) == dfa_to_text(live.dfa)


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
    for a in ((True,), (True, False, True)):
        with pytest.raises(ValueError, match="^assignment length must match the input count$"):
            circuit_value_instance(c1, a)


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
    # an index that is not an int is out of range too
    for i in (5, 2, -1, 0.5, 1.0, "0", None):
        with pytest.raises(ValueError, match="^persistent index out of range$"):
            iterated_instance(c2, (True, False), i)
        # -1 would pick the last output
        with pytest.raises(ValueError, match="^persistent index out of range$"):
            or_with_index(c2, i)
    for a in ((True,), (True, False, True)):
        with pytest.raises(ValueError, match="^assignment length must match the input count$"):
            iterated_instance(c2, a, 0)


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

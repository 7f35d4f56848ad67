"""Boolean circuits and their encoding as acyclic winning-set hosts.

A circuit is compiled into a DFA read from the output side toward the
inputs: truth values ride dual rails (a T-state and an F-state per wire),
and each reading of AAB pushes a game state one gadget layer down,
replacing a set over output rails by all sets over argument rails that
evaluate to it.  Sets that pick both rails of some wire are "excessive"
and stay excessive forever, so they never become accepting.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

from .automata import Dfa, FormatError, GraphBuilder, _check_range, _fail, _tokenize

GATE_ARITY = {"AND": 2, "OR": 2, "NOT": 1}


@dataclass(frozen=True)
class Circuit:
    """A gate-level DAG; ``gates`` is topologically ordered by construction,
    since every argument must already be defined."""

    inputs: tuple[str, ...]
    gates: tuple[tuple[str, str, tuple[str, ...]], ...]
    outputs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        # tuples all the way down keep a circuit hashable, and a list could
        # change after it is checked
        if type(self.inputs) is not tuple:
            raise ValueError("circuit inputs must be a tuple")
        for field, rows, k in (("gates", self.gates, 3), ("outputs", self.outputs, 2)):
            if type(rows) is not tuple or any(type(r) is not tuple or len(r) != k for r in rows):
                raise ValueError(f"circuit {field} must be a tuple of {k}-tuples")
        # every node name defined so far; a gate's own name joins after its
        # arguments are checked, so a gate cannot name itself
        seen: set[str] = set()

        def fresh(name: str) -> str:
            if name in seen:
                raise ValueError(f"duplicate node name {name!r}")
            return name

        for name in self.inputs:
            seen.add(fresh(name))
        for name, kind, args in self.gates:
            fresh(name)
            if kind not in GATE_ARITY:
                raise ValueError(f"unknown gate kind {kind!r}")
            if type(args) is not tuple:
                raise ValueError(f"gate {name!r}: arguments must be a tuple")
            if len(args) != GATE_ARITY[kind]:
                raise ValueError(
                    f"gate {name!r}: {kind} takes {GATE_ARITY[kind]} arguments"
                )
            for a in args:
                if a not in seen:
                    raise ValueError(f"gate {name!r}: unknown argument {a!r}")
            seen.add(name)
        if not self.outputs:
            raise ValueError("a circuit needs at least one output")
        # an output's source is an input or a gate, never another output
        sources = frozenset(seen)
        for name, src in self.outputs:
            seen.add(fresh(name))
            if src not in sources:
                raise ValueError(f"output {name!r}: unknown source {src!r}")

    @property
    def input_count(self) -> int:
        return len(self.inputs)

    @property
    def output_count(self) -> int:
        return len(self.outputs)

    def evaluate(self, bits: Iterable[bool]) -> tuple[bool, ...]:
        values = dict(zip(self.inputs, bits, strict=True))
        for name, kind, args in self.gates:
            vals = [values[a] for a in args]
            if kind == "AND":
                values[name] = vals[0] and vals[1]
            elif kind == "OR":
                values[name] = vals[0] or vals[1]
            else:
                values[name] = not vals[0]
        return tuple(values[src] for _, src in self.outputs)


def parse_circuit(text: str) -> Circuit:
    """Line format: ``input x``, ``gate g OR a b`` (or the shorthand
    ``or g a b`` / ``and`` / ``not``), ``output y src``; # comments.
    Malformed text raises :class:`~winset.automata.FormatError`."""
    inputs: list[str] = []
    gates: list[tuple[str, str, tuple[str, ...]]] = []
    outputs: list[tuple[str, str]] = []
    for lineno, parts in _tokenize(text):
        head = parts[0].lower()
        if head == "input" and len(parts) == 2:
            inputs.append(parts[1])
        elif head == "gate" and len(parts) >= 3:
            gates.append((parts[1], parts[2].upper(), tuple(parts[3:])))
        elif head in ("and", "or", "not") and len(parts) >= 2:
            gates.append((parts[1], head.upper(), tuple(parts[2:])))
        elif head == "output" and len(parts) == 3:
            outputs.append((parts[1], parts[2]))
        else:
            _fail(lineno, f"unrecognized line {' '.join(parts)!r}")
    try:
        return Circuit(tuple(inputs), tuple(gates), tuple(outputs))
    except ValueError as e:
        raise FormatError(str(e)) from None


@dataclass(frozen=True)
class ReductionArtifact:
    """The compiled host: acyclic apart from sinks, read in rounds of AAB.

    ``input_states[j]`` and ``output_states[i]`` are (T-state, F-state)
    pairs; the dfa's default initial state is the first output's T-rail.
    """

    dfa: Dfa
    p: int
    input_states: tuple[tuple[int, int], ...]
    output_states: tuple[tuple[int, int], ...]


# ---------------------------------------------------------------------------
# leveled intermediate form


def _levelize(c: Circuit):
    """Flatten to a DAG where every edge joins adjacent levels and each
    output node has a dedicated predecessor at the top gate level.

    Returns (d, lgates, out_srcs): lgates maps node id -> (level, kind,
    args); inputs appear as ("in", j) at level 0; pads are PASS gates.
    """
    # gates are in topological order, so one backward pass keeps exactly
    # the gates that feed some output (live also collects input names)
    live = {src for _, src in c.outputs}
    for name, _, args in reversed(c.gates):
        if name in live:
            live.update(args)

    level: dict[str, int] = {name: 0 for name in c.inputs}
    for name, _, args in c.gates:
        if name in live:
            level[name] = 1 + max(level[a] for a in args)
    srcs = [src for _, src in c.outputs]
    d_raw = 1 + max(level[src] for src in srcs)

    # A source at the top gate level d_raw - 1 feeds no live gate (that gate
    # would sit at d_raw, above every output source), and an input there
    # means d_raw = 1, bumped anyway; so it is shared, and needs a pad level
    # above it, exactly when more than one output names it.
    bump = d_raw < 2 or any(
        level[src] == d_raw - 1 and srcs.count(src) > 1 for src in srcs
    )
    d = d_raw + 1 if bump else d_raw

    in_index = {name: j for j, name in enumerate(c.inputs)}
    lgates: dict[tuple, tuple[int, str, tuple[tuple, ...]]] = {}
    pad_ids = itertools.count()

    def node_id(name: str):
        return ("in", in_index[name]) if name in in_index else ("gate", name)

    def pad_chain(src: str, upto_level: int) -> tuple:
        """PASS gates at levels level[src]+1 .. upto_level; returns the id of
        the node now sitting at upto_level."""
        cur = node_id(src)
        for lv in range(level[src] + 1, upto_level + 1):
            pid = ("pad", next(pad_ids))
            lgates[pid] = (lv, "PASS", (cur,))
            cur = pid
        return cur

    for name, kind, args in c.gates:
        if name in live:
            lv = level[name]
            lgates[("gate", name)] = (lv, kind, tuple(pad_chain(a, lv - 1) for a in args))

    return d, lgates, tuple(pad_chain(src, d - 1) for src in srcs)


# ---------------------------------------------------------------------------
# DFA assembly


def _assemble(c: Circuit, *, merge: bool = False):
    """Lay out the reduction automaton of ``c`` on an open builder.

    Returns ``(b, p, inputs, outputs)``: the builder, the round count and
    the (T, F) rail names of each input and output.  Merged automata
    identify input rails with output rails.
    """
    d, lgates, out_srcs = _levelize(c)
    k, m = c.input_count, c.output_count

    # consumer slots of every non-top node, in deterministic order
    slots: dict[tuple, list[tuple]] = {}
    gate_order = sorted(lgates, key=lambda gid: (lgates[gid][0], repr(gid)))
    for gid in gate_order:
        _, _, srcs = lgates[gid]
        for pos, src in enumerate(srcs):
            slots.setdefault(src, []).append((gid, pos))

    b = GraphBuilder()
    outputs = tuple((("p", i, "T"), ("p", i, "F")) for i in range(m))
    rail = "p" if merge else "q"
    inputs = tuple(((rail, j, "T"), (rail, j, "F")) for j in range(k))
    # rails come first so artifact indices are stable and readable
    for t, f in outputs if merge else outputs + inputs:
        b.state(t)
        b.state(f)

    fresh_names = itertools.count(1)

    def fresh() -> tuple:
        name = ("x", next(fresh_names))
        b.state(name)
        return name

    def t_slot(gid: tuple, bit: str) -> tuple:
        """Where gate gid's result rail lives: the output rail for top-level
        gates, otherwise the collect side of its fanout gadget."""
        if gid in top_of:
            return ("p", top_of[gid], bit)
        return ("fan_in", gid, bit)

    def s_slot(gid: tuple, pos: int, bit: str) -> tuple:
        src = lgates[gid][2][pos]
        if src[0] == "in":
            return (rail, src[1], bit)
        return ("fan_out", src, slots[src].index((gid, pos)), bit)

    top_of = {gid: i for i, gid in enumerate(out_srcs)}

    for gid in gate_order:
        lv, kind, srcs = lgates[gid]
        if kind in ("OR", "AND"):
            hi, lo = ("T", "F") if kind == "OR" else ("F", "T")
            a1, a2, a3 = fresh(), fresh(), fresh()
            b1, b2, b3, b4 = fresh(), fresh(), fresh(), fresh()
            b.arc(t_slot(gid, hi), a1, a2)
            b.arc(t_slot(gid, lo), a3)
            b.arc(a1, b1, b2)
            b.arc(a2, b3)
            b.arc(a3, b4)
            b.arc(b1, s_slot(gid, 0, hi), s_slot(gid, 1, hi))
            b.arc(b2, s_slot(gid, 0, hi), s_slot(gid, 1, lo))
            b.arc(b3, s_slot(gid, 0, lo), s_slot(gid, 1, hi))
            b.arc(b4, s_slot(gid, 0, lo), s_slot(gid, 1, lo))
        else:  # NOT and PASS: forced three-step chains, NOT crossing rails
            for b_in, b_out in (("T", "F"), ("F", "T")) if kind == "NOT" else (
                ("T", "T"),
                ("F", "F"),
            ):
                u, v = fresh(), fresh()
                b.arc(t_slot(gid, b_in), u)
                b.arc(u, v)
                b.arc(v, s_slot(gid, 0, b_out))
        if gid not in top_of:
            # fanout gadget: all copies funnel back to the single result rail
            for bit in ("T", "F"):
                u, v = fresh(), fresh()
                for j in range(len(slots.get(gid, []))):
                    b.arc(("fan_out", gid, j, bit), u)
                b.arc(u, v)
                b.arc(v, ("fan_in", gid, bit))

    if not merge:
        b.arc(("sink",), ("sink",))
        for t, f in inputs:
            b.arc(t, ("sink",))
            b.arc(f, ("sink",))
    return b, 2 * d - 3, inputs, outputs


def _instance(b: GraphBuilder, initial, inputs, a: Iterable[bool]) -> Dfa:
    """Build ``b`` from ``initial``, accepting on the input rails that
    spell the assignment ``a``, one bit per input."""
    bits = tuple(a)
    if len(bits) != len(inputs):
        raise ValueError("assignment length must match the input count")
    for (t, f), bit in zip(inputs, bits):
        b.state(t if bit else f, final=True)
    return b.build(initial)


def circuit_to_dfa(c: Circuit) -> ReductionArtifact:
    """Compile a circuit; reading (AAB)^p from a set of output rails yields
    exactly the consistent input-rail sets evaluating to it, plus excessive
    leftovers."""
    b, p, inputs, outputs = _assemble(c)
    return ReductionArtifact(
        dfa=b.build(outputs[0][0]),
        p=p,
        input_states=tuple((b.state(t), b.state(f)) for t, f in inputs),
        output_states=tuple((b.state(t), b.state(f)) for t, f in outputs),
    )


def circuit_value_instance(
    c: Circuit, a: Iterable[bool]
) -> tuple[Dfa, str]:
    """Membership instance whose answer is the circuit's value on ``a``:
    start at the output's T-rail, accept on the input rails spelling ``a``."""
    if c.output_count != 1:
        raise ValueError("the value instance needs exactly one output")
    b, p, inputs, outputs = _assemble(c)
    return _instance(b, outputs[0][0], inputs, a), "AAB" * p


def iterated_instance(
    c: Circuit, a: Iterable[bool], i: int
) -> tuple[Dfa, str, str]:
    """Cyclic instance tracking repeated application of the circuit.

    The circuit (equal input and output arity) is first modified so output j
    computes y_j = x_j or x_i, making wire i's truth persistent; input and
    output rails are then merged into one cyclic automaton, entered through
    a fan-in tree that seeds every input's T-rail.  Returns (dfa, base,
    period): base·period^t is in the winning set iff t-fold application of
    the modified circuit to ``a`` gives all-true.
    """
    k = c.input_count
    if c.output_count != k:
        raise ValueError("iterated instances need matching input/output arity")

    b, p, inputs, _ = _assemble(or_with_index(c, i), merge=True)
    # fan-in tree: depth rounds of AAB turn {root} into all k T-rails; for
    # k = 1 the root is the input's T-rail itself and the base is empty
    depth = math.ceil(math.log2(k))

    def tree(lo: int, hi: int, lv: int):
        if lv == depth:
            return inputs[min(lo, k - 1)][0]
        mid = (lo + hi) // 2
        left, right = tree(lo, mid, lv + 1), tree(mid, hi, lv + 1)
        v, u, w = (("tree", lo, hi, x) for x in "vuw")
        b.arc(v, left, right)
        b.arc(u, v)
        b.arc(w, u)
        return w

    root = tree(0, 1 << depth, 0)
    return _instance(b, root, inputs, a), "AAB" * depth, "AAB" * p


def or_with_index(c: Circuit, i: int) -> Circuit:
    """Replace each output y_j by y_j or y_i (computed on fresh OR gates)."""
    srcs = [src for _, src in c.outputs]
    _check_range((i,), 0, len(srcs), "persistent index out of range")
    gates = list(c.gates)
    outputs = []
    for j, src in enumerate(srcs):
        name = f"$or{j}"
        gates.append((name, "OR", (src, srcs[i])))
        outputs.append((f"$y{j}", name))
    return Circuit(c.inputs, tuple(gates), tuple(outputs))

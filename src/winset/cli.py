"""Command-line front end.

Exit codes: 0 for success (including positive decisions), 1 for negative
answers (not a member, for any of the words asked, not equivalent, empty
intersection), 2 for usage errors, malformed inputs, and exceeded resource
budgets.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from . import automata, circuits, decision, enumeration, gadgets, game, oracle
from .automata import BudgetExceededError, Dfa, FormatError


def _read_dfa(path: str) -> Dfa:
    return automata.parse_dfa(Path(path).read_text())


def _emit_dfa(d: Dfa, fmt: str) -> str:
    if fmt == "dot":
        return automata.to_dot(d)
    if fmt == "json":
        return automata.dfa_to_json(d)
    return automata.dfa_to_text(d)


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise FormatError(f"{what} must be an integer, got {text!r}") from None


def _target(spec: str, n: int) -> oracle.TargetPredicate:
    if spec == "dyck":
        return oracle.dyck_predicate(n)
    if spec == "parity":
        return oracle.parity_predicate(n)
    if spec == "contains-011":
        return oracle.contains_011_predicate(n)
    if spec.startswith("exact-ones:"):
        k = _int(spec.split(":", 1)[1], "the count in target exact-ones:<k>")
        return oracle.exact_ones_predicate(n, k)
    return oracle.dfa_predicate(_read_dfa(spec), n)


def _parse_bits(text: str) -> tuple[bool, ...]:
    lookup = {"T": True, "F": False, "1": True, "0": False}
    try:
        return tuple(lookup[c] for c in text)
    except KeyError:
        raise FormatError(f"assignment must be over T/F (or 1/0), got {text!r}")


def _cmd_wdfa(args) -> int:
    print(_emit_dfa(game.winset_dfa(_read_dfa(args.dfa)), args.emit), end="")
    return 0


def _cmd_minimize(args) -> int:
    print(_emit_dfa(automata.minimize(_read_dfa(args.dfa)), args.emit), end="")
    return 0


def _cmd_equiv(args) -> int:
    ok = automata.equivalent(_read_dfa(args.a), _read_dfa(args.b))
    print("equivalent" if ok else "not equivalent")
    return 0 if ok else 1


def _cmd_congruent(args) -> int:
    d = automata.minimize(_read_dfa(args.dfa))
    ok = automata.congruent(d, args.v, args.w)
    print("congruent" if ok else "not congruent")
    return 0 if ok else 1


def _cmd_decide_member(args) -> int:
    host = _read_dfa(args.dfa)
    # every answer before the first line, so a bad word prints none
    answers = [decision.member(host, w) for w in args.words]
    for ok in answers:
        print("member" if ok else "not member")
    return 0 if all(answers) else 1


def _cmd_decide_intersect(args) -> int:
    b = automata.parse_nfa(Path(args.nfa).read_text())
    witness = decision.intersect_nonempty(_read_dfa(args.dfa), b, budget=args.budget)
    if witness is None:
        print("empty", file=sys.stderr)
        return 1
    print(witness)
    return 0


def _cmd_oracle_member(args) -> int:
    ok = oracle.alice_wins(_target(args.target, len(args.word)), args.word)
    print("member" if ok else "not member")
    return 0 if ok else 1


def _cmd_oracle_slice(args) -> int:
    for w in sorted(oracle.winning_slice(_target(args.target, args.n))):
        print(w)
    return 0


_GADGETS = {
    "gen-subset": lambda args: gadgets.gen_subset(args.n).dfa,
    "gen-state": lambda args: gadgets.gen_state(args.n).dfa,
    "testing": lambda args: gadgets.testing(args.n).dfa,
    "lower-bound": lambda args: gadgets.lower_bound_dfa(args.n),
    "chain": lambda args: gadgets.chain_dfa(args.n, args.finals),
    "exact-ones": lambda args: gadgets.exact_ones_dfa(args.n),
}


def _cmd_gadget(args) -> int:
    print(_emit_dfa(_GADGETS[args.family](args), args.emit), end="")
    return 0


def _cmd_gadget_circuit(args) -> int:
    c = circuits.parse_circuit(Path(args.file).read_text())
    if args.value is not None:
        dfa, word = circuits.circuit_value_instance(c, _parse_bits(args.value))
        tail = [f"word {word}"]
    elif args.iterate is not None:
        bits, idx = args.iterate
        dfa, base, period = circuits.iterated_instance(
            c, _parse_bits(bits), _int(idx, "--iterate INDEX")
        )
        tail = [f"base {base}", f"period {period}"]
    else:
        art = circuits.circuit_to_dfa(c)
        dfa, tail = art.dfa, [f"rounds {art.p}"]
    print(_emit_dfa(dfa, args.emit), end="")
    print(*tail, sep="\n")
    return 0


def _progress_printer(clock=time.monotonic):
    """A ``progress(done, total)`` callback that prints to stderr at most
    once a second of ``clock``, with the rate and the time left."""
    start = last = clock()

    def progress(done: int, total: int):
        nonlocal last
        now = clock()
        if now - last < 1.0:
            return
        last = now
        rate = done / (now - start)
        eta = (total - done) / rate
        print(f"{done}/{total} structures, {rate:.0f}/s, ETA {eta:.0f} s", file=sys.stderr)

    return progress


def _cmd_enumerate(args) -> int:
    result = enumeration.max_winset_complexity(
        args.n, budget_seconds=args.budget, progress=_progress_printer()
    )
    if args.emit_witness and result.witness is not None:
        Path(args.emit_witness).write_text(automata.dfa_to_text(result.witness))
    print(f"n={args.n} max={result.max_size} exhausted={str(result.exhausted).lower()}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="winset",
        description="Winning sets of binary regular languages under "
        "two-player word-construction games.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def emit_flag(p, default="text"):
        p.add_argument("--emit", choices=("text", "dot", "json"), default=default)

    p = sub.add_parser("wdfa", help="minimal winning-set DFA of a host DFA")
    p.add_argument("dfa")
    emit_flag(p)
    p.set_defaults(func=_cmd_wdfa)

    p = sub.add_parser("minimize", help="canonical minimal DFA")
    p.add_argument("dfa")
    emit_flag(p)
    p.set_defaults(func=_cmd_minimize)

    p = sub.add_parser("equiv", help="language equivalence of two DFAs")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("congruent", help="syntactic congruence of two words")
    p.add_argument("dfa")
    p.add_argument("v")
    p.add_argument("w")
    p.set_defaults(func=_cmd_congruent)

    p = sub.add_parser("decide", help="winning-set decision procedures")
    dsub = p.add_subparsers(dest="decide_command", required=True)
    q = dsub.add_parser("member", help="are the turn words in the winning set")
    q.add_argument("dfa")
    q.add_argument("words", nargs="+", metavar="word", help="one answer line per word")
    q.set_defaults(func=_cmd_decide_member)
    q = dsub.add_parser("intersect", help="winning set meets a regular set?")
    q.add_argument("dfa")
    q.add_argument("nfa")
    q.add_argument("--budget", type=int, default=automata.STATE_BUDGET)
    q.set_defaults(func=_cmd_decide_intersect)

    p = sub.add_parser("oracle", help="brute-force ground truth")
    osub = p.add_subparsers(dest="oracle_command", required=True)
    q = osub.add_parser("member", help="decide one turn word by brute force")
    q.add_argument("target", help="DFA file or builtin "
                   "(dyck, parity, contains-011, exact-ones:<k>)")
    q.add_argument("word")
    q.set_defaults(func=_cmd_oracle_member)
    q = osub.add_parser("slice", help="all winning turn words of one length")
    q.add_argument("target")
    q.add_argument("n", type=int)
    q.set_defaults(func=_cmd_oracle_slice)

    p = sub.add_parser("gadget", help="generate an automaton family member")
    # --emit may come before the family name too; a family's parser sets it
    # only when it is given there
    emit_flag(p)
    gsub = p.add_subparsers(dest="family", required=True)
    for name in _GADGETS:
        q = gsub.add_parser(name, help=f"the {name} family at size n")
        q.add_argument("n", type=int, help="size")
        if name == "chain":
            q.add_argument("--finals", type=int, nargs="*", default=[], help="final states")
        emit_flag(q, argparse.SUPPRESS)
        q.set_defaults(func=_cmd_gadget)
    q = gsub.add_parser("circuit", help="reductions of a circuit file")
    q.add_argument("file", help="circuit file")
    mode = q.add_mutually_exclusive_group()
    mode.add_argument("--value", help="input assignment, e.g. TFT")
    mode.add_argument("--iterate", nargs=2, metavar=("BITS", "INDEX"))
    emit_flag(q, argparse.SUPPRESS)
    q.set_defaults(func=_cmd_gadget_circuit)

    p = sub.add_parser("enumerate", help="worst-case winning-set size for n states")
    p.add_argument("n", type=int)
    p.add_argument("--budget", type=float, default=None, metavar="SECONDS")
    p.add_argument("--emit-witness", metavar="FILE")
    p.set_defaults(func=_cmd_enumerate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BudgetExceededError, FormatError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

import io
import json
import random
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from winset.automata import TURNS, Dfa, dfa_to_text, equivalent, parse_dfa
from winset.circuits import circuit_to_dfa, iterated_instance, parse_circuit
from winset.cli import _progress_printer, main
from winset.gadgets import exact_ones_dfa, lower_bound_dfa

from .conftest import dfas, relabeled, shift_steps, token_soup

PARITY_TEXT = """\
dfa 2 01
initial 0
finals 1
0 0 0
0 1 1
1 0 1
1 1 0
"""

ENDS_WITH_A_TEXT = """\
dfa 2 AB
initial 0
finals 1
0 A 1
0 B 0
1 A 1
1 B 0
"""

BA_STAR_NFA = """\
nfa 2 AB
initial 0
finals 0
0 B 1
1 A 0
"""

NOT_CIRCUIT = "input x\nnot g x\noutput y g\n"


def deep_circuit_text() -> str:
    """A deep circuit, each gate reading the one before it.  Its
    circuit-value hosts stay scattered once trimmed, so member's walks on
    them take the sparse route and the gather, not the shift step."""
    lines, prev = [f"input x{j}" for j in range(4)], "x3"
    for g in range(30):
        if g % 5 == 4:
            lines.append(f"not g{g} {prev}")
        else:
            lines.append(f"{('and', 'or')[g % 2]} g{g} {prev} x{g % 4}")
        prev = f"g{g}"
    return "\n".join(lines + [f"output y {prev}"]) + "\n"


@pytest.fixture
def parity_file(tmp_path):
    p = tmp_path / "parity.dfa"
    p.write_text(PARITY_TEXT)
    return str(p)


def write_hosts(tmp_path, **hosts: Dfa) -> dict[str, str]:
    """Each host's text in a file named after it; the paths by name."""
    paths = {}
    for name, host in hosts.items():
        paths[name] = str(tmp_path / f"{name}.dfa")
        Path(paths[name]).write_text(dfa_to_text(host))
    return paths


@pytest.fixture
def exact_ones_200(tmp_path) -> dict[str, str]:
    """``exact_ones_dfa(200)`` and a seeded relabeling of it, as files."""
    host = exact_ones_dfa(200)
    return write_hosts(tmp_path, gadget=host, relabeled=relabeled(host, random.Random(1)))


def test_wdfa_computes_parity_winset(parity_file, capsys):
    assert main(["wdfa", parity_file]) == 0
    out = parse_dfa(capsys.readouterr().out)
    assert out.state_count == 2
    assert equivalent(out, parse_dfa(ENDS_WITH_A_TEXT))


def test_emit_dot_and_json(parity_file, capsys):
    assert main(["wdfa", parity_file, "--emit", "dot"]) == 0
    assert "digraph" in capsys.readouterr().out
    assert main(["wdfa", parity_file, "--emit", "json"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["initial"] == 0


def test_minimize_roundtrip(parity_file, capsys):
    assert main(["minimize", parity_file]) == 0
    assert parse_dfa(capsys.readouterr().out).state_count == 2


def test_equiv_exit_codes(tmp_path, parity_file, capsys):
    other = tmp_path / "other.dfa"
    other.write_text(PARITY_TEXT.replace("finals 1", "finals 0"))
    assert main(["equiv", parity_file, parity_file]) == 0
    assert main(["equiv", parity_file, str(other)]) == 1
    assert "not equivalent" in capsys.readouterr().out
    turns = tmp_path / "turns.dfa"
    turns.write_text(ENDS_WITH_A_TEXT)
    with pytest.raises(ValueError, match="alphabet mismatch"):
        equivalent(parse_dfa(PARITY_TEXT), parse_dfa(ENDS_WITH_A_TEXT))
    assert main(["equiv", parity_file, str(turns)]) == 2
    assert capsys.readouterr().err == "error: alphabet mismatch\n"


def test_congruent_command(tmp_path, capsys):
    w = tmp_path / "w.dfa"
    w.write_text(ENDS_WITH_A_TEXT)
    assert main(["congruent", str(w), "A", "BA"]) == 0
    assert main(["congruent", str(w), "A", "B"]) == 1


def test_decide_member(parity_file, exact_ones_200, monkeypatch, capsys):
    assert main(["decide", "member", parity_file, "A"]) == 0
    assert main(["decide", "member", parity_file, "B"]) == 1
    assert main(["decide", "member", parity_file, "X"]) == 2
    capsys.readouterr()
    # the target is exactly 200 ones: Alice wins A^200, and B·A^200 whatever
    # the opponent's letter, but not A^199, nor A^200·B, where the opponent
    # adds a 201st one
    built, a = shift_steps(monkeypatch), "A" * 200
    for name, path in exact_ones_200.items():
        for word, code in ((a, 0), (a[1:], 1), ("B" + a, 0), (a + "B", 1)):
            assert main(["decide", "member", path, word]) == code, (name, len(word))
        assert capsys.readouterr().out == "member\nnot member\nmember\nnot member\n"
    # each call compiles its host; the relabeled one is renumbered
    # breadth-first, so both walk through the shift step, sparse masks too
    assert len(built) == 8 and None not in built


def test_member_commands_name_the_bad_turn_letter(parity_file, exact_ones_200, capsys):
    for argv in (["decide", "member", parity_file, "ABX"], ["oracle", "member", "parity", "ABX"],
                 ["decide", "member", exact_ones_200["gadget"], "ABX"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr() == ("", "error: turn symbol must be A or B, got 'X'\n"), argv


def test_decide_member_answers_each_word_in_order(parity_file, exact_ones_200, capsys):
    # parity's winning set is the turn words that end in A
    assert main(["decide", "member", parity_file, "A", "BBA", "B", ""]) == 1
    assert capsys.readouterr().out == "member\nmember\nnot member\nnot member\n"
    assert main(["decide", "member", parity_file, "BA", "A"]) == 0
    assert capsys.readouterr().out == "member\nmember\n"
    # a bad letter in any word exits 2 before any answer line
    for words in (["A", "ABX"], ["ABX", "A"], ["B", "A", "AxB"]):
        assert main(["decide", "member", parity_file, *words]) == 2, words
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: turn symbol must be A or B"), words
    assert "required: word" in _usage_error(["decide", "member", parity_file], capsys)
    # one compiled host answers a run of words on a large host too
    a = "A" * 200
    assert main(["decide", "member", exact_ones_200["gadget"], a, a[1:]]) == 1
    assert capsys.readouterr().out == "member\nnot member\n"


def test_decide_intersect(tmp_path, parity_file, capsys):
    bstar = tmp_path / "b.nfa"
    bstar.write_text("nfa 1 AB\ninitial 0\nfinals 0\n0 B 0\n")
    assert main(["decide", "intersect", parity_file, str(bstar)]) == 1
    assert "empty" in capsys.readouterr().err
    nfa = tmp_path / "ba.nfa"
    nfa.write_text(BA_STAR_NFA)
    # (BA)* meets the winset of exactly-one-1
    ones = tmp_path / "ones.dfa"
    ones.write_text(
        "dfa 3 01\ninitial 0\nfinals 1\n"
        "0 0 0\n0 1 1\n1 0 1\n1 1 2\n2 0 2\n2 1 2\n"
    )
    assert main(["decide", "intersect", str(ones), str(nfa)]) == 0
    assert capsys.readouterr().out.strip() == "BA"


@pytest.mark.parametrize(
    "text",
    [
        "nfa 2 AB\n",
        "nfa 2 AB\ninitial 0\n",
        "nfa two AB\ninitial 0\nfinals 0\n",
        "nfa 2 AB\ninitial zero\nfinals 0\n",
        "nfa 2 AB\ninitial 0\nfinals 0\n0 A one\n",
        "nfa 3000000 AB\ninitial 0\nfinals 0\n",
    ],
)
def test_decide_intersect_malformed_nfa(tmp_path, parity_file, capsys, text):
    nfa = tmp_path / "bad.nfa"
    nfa.write_text(text)
    assert main(["decide", "intersect", parity_file, str(nfa)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "line" in err and "Traceback" not in err


def test_decide_intersect_budget(tmp_path, parity_file, capsys):
    nfa = tmp_path / "a.nfa"
    nfa.write_text("nfa 1 AB\ninitial 0\nfinals 0\n0 A 0\n")
    assert main(["decide", "intersect", parity_file, str(nfa), "--budget", "1"]) == 2
    # a budget below 1 is refused before any search, even where the empty
    # word is a witness at the start state
    everything = tmp_path / "all.dfa"
    everything.write_text("dfa 1 01\ninitial 0\nfinals 0\n0 0 0\n0 1 0\n")
    assert main(["decide", "intersect", str(everything), str(nfa), "--budget", "1"]) == 0
    assert main(["decide", "intersect", str(everything), str(nfa), "--budget", "0"]) == 2


def test_oracle_member_builtin(capsys):
    assert main(["oracle", "member", "parity", "BBA"]) == 0
    assert main(["oracle", "member", "parity", "BBB"]) == 1
    assert main(["oracle", "member", "dyck", "AAB"]) == 2  # odd length
    assert main(["oracle", "member", "parity", "A" * 40]) == 2  # over the limit
    assert "exceeds the limit" in capsys.readouterr().err
    for target in ("exact-ones:x", "exact-ones:"):
        assert main(["oracle", "member", target, "AB"]) == 2
        k = target.split(":")[1]
        assert capsys.readouterr() == (
            "", f"error: the count in target exact-ones:<k> must be an integer, got {k!r}\n"
        )


def test_oracle_slice(capsys):
    assert main(["oracle", "slice", "exact-ones:1", "2"]) == 0
    lines = capsys.readouterr().out.split()
    assert lines == ["AA", "BA"]
    assert main(["oracle", "slice", "contains-011", "4"]) == 0
    assert capsys.readouterr().out == "AAAA\nAAAB\nABAA\nBAAA\n"
    assert main(["oracle", "slice", "parity", "25"]) == 2  # over the limit
    assert "exceeds the limit" in capsys.readouterr().err
    assert main(["oracle", "slice", "dyck", "-2"]) == 2
    assert capsys.readouterr().err == "error: length must be nonnegative\n"


def test_oracle_slice_from_file(parity_file, capsys):
    assert main(["oracle", "slice", parity_file, "2"]) == 0
    assert capsys.readouterr().out.split() == ["AA", "BA"]


def test_gadget_lower_bound(capsys):
    assert main(["gadget", "lower-bound", "1"]) == 0
    assert parse_dfa(capsys.readouterr().out).state_count == 18


def test_gadget_chain(capsys):
    assert main(["gadget", "chain", "3", "--finals", "0", "1"]) == 0
    d = parse_dfa(capsys.readouterr().out)
    assert d.finals == frozenset({0, 1})


@pytest.mark.parametrize(
    "name", ["gen-subset", "gen-state", "testing", "lower-bound", "chain", "exact-ones"]
)
def test_gadget_sizes_over_the_budget_exit_2(name, capsys):
    assert main(["gadget", name, "100000000000000000000"]) == 2
    assert "budget" in capsys.readouterr().err


def _usage_error(argv, capsys) -> str:
    """argparse's stderr for an argument vector it refuses with exit 2,
    after checking that nothing reached stdout."""
    with pytest.raises(SystemExit) as e:
        main(argv)
    assert e.value.code == 2, argv
    out, err = capsys.readouterr()
    assert out == "" and "error:" in err, argv
    return err


def test_gadget_errors(capsys):
    assert "invalid choice: 'frobnicate'" in _usage_error(["gadget", "frobnicate", "3"], capsys)
    assert "arguments are required: n" in _usage_error(["gadget", "gen-subset"], capsys)
    assert "arguments are required: file" in _usage_error(["gadget", "circuit"], capsys)
    for family, n in (("chain", "abc"), ("exact-ones", "x")):
        assert f"argument n: invalid int value: '{n}'" in _usage_error(
            ["gadget", family, n], capsys
        )


@pytest.fixture
def not_circuit(tmp_path):
    p = tmp_path / "not.circuit"
    p.write_text(NOT_CIRCUIT)
    return str(p)


def test_gadget_circuit_value(not_circuit, tmp_path, monkeypatch, capsys):
    assert main(["gadget", "circuit", not_circuit, "--value", "TX"]) == 2
    assert "assignment must be over T/F" in capsys.readouterr().err
    deep = tmp_path / "deep.circuit"
    deep.write_text(deep_circuit_text())
    built, values = shift_steps(monkeypatch), set()
    for circuit, bits in ((not_circuit, "F"), (str(deep), "TFTF"), (str(deep), "FFTT")):
        assert main(["gadget", "circuit", circuit, "--value", bits]) == 0
        # the host, then a trailing "word W" line
        host_text, word = capsys.readouterr().out.rsplit("word ", 1)
        host = tmp_path / "cv.dfa"
        host.write_text(host_text)
        (value,) = parse_circuit(Path(circuit).read_text()).evaluate(b == "T" for b in bits)
        # the word is a member exactly when the circuit's value is true
        assert main(["decide", "member", str(host), word.strip()]) == (0 if value else 1), bits
        assert capsys.readouterr().out == ("member\n" if value else "not member\n")
        values.add(value)
    assert values == {False, True}
    # the last two compiles, the deep circuit's hosts, built no shift step
    assert built[-2:] == [None, None]


def test_gadget_circuit_reduction(not_circuit, capsys):
    assert main(["gadget", "circuit", not_circuit]) == 0
    art = circuit_to_dfa(parse_circuit(NOT_CIRCUIT))
    assert capsys.readouterr().out == f"{dfa_to_text(art.dfa)}rounds {art.p}\n"


@pytest.mark.parametrize(
    "argv,named",
    [
        (["exact-ones", "2", "--value", "TF"], "unrecognized arguments: --value TF"),
        (["chain", "3", "--iterate", "TF", "0"], "unrecognized arguments: --iterate TF 0"),
        (["exact-ones", "2", "--finals", "1"], "unrecognized arguments: --finals 1"),
        (["circuit", "FILE", "--finals", "1"], "unrecognized arguments: --finals 1"),
        (["circuit", "FILE", "--value", "T", "--iterate", "T", "0"],
         "argument --iterate: not allowed with argument --value"),
    ],
    ids=[f"argv{i}" for i in range(5)],
)
def test_gadget_flags_that_do_not_apply_exit_2(argv, named, not_circuit, capsys):
    argv = [not_circuit if a == "FILE" else a for a in argv]
    assert named in _usage_error(["gadget", *argv], capsys)


def test_gadget_emit_may_precede_the_family(not_circuit, capsys):
    assert main(["gadget", "--emit", "json", "exact-ones", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["states"] == 4
    assert main(["gadget", "--emit", "json", "circuit", not_circuit, "--value", "F"]) == 0
    assert capsys.readouterr().out.startswith("{")
    # a family's own options do not
    _usage_error(["gadget", "--value", "F", "circuit", not_circuit], capsys)


def test_gadget_circuit_iterate(not_circuit, capsys):
    assert main(["gadget", "circuit", not_circuit, "--iterate", "T", "0"]) == 0
    dfa, base, period = iterated_instance(parse_circuit(NOT_CIRCUIT), (True,), 0)
    assert capsys.readouterr().out == f"{dfa_to_text(dfa)}base {base}\nperiod {period}\n"
    assert main(["gadget", "circuit", not_circuit, "--iterate", "T", "x"]) == 2
    assert capsys.readouterr() == ("", "error: --iterate INDEX must be an integer, got 'x'\n")


def test_wdfa_on_the_lower_bound_gadget_at_3(tmp_path, capsys):
    # its reversal automaton passes the reversal engine's subset limit, so
    # the forward engine computes it
    assert main(["gadget", "lower-bound", "3"]) == 0
    path = tmp_path / "lb3.dfa"
    path.write_text(capsys.readouterr().out)
    assert path.read_text() == dfa_to_text(lower_bound_dfa(3))
    assert main(["wdfa", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "dfa 3689 AB"


def test_wdfa_and_minimize_do_not_depend_on_the_host_numbering(tmp_path, capsys):
    host = exact_ones_dfa(12)
    paths = write_hosts(tmp_path, gadget=host, relabeled=relabeled(host, random.Random(1)))
    assert Path(paths["gadget"]).read_text() != Path(paths["relabeled"]).read_text()
    out = {}
    for cmd in ("wdfa", "minimize"):
        for name, path in paths.items():
            assert main([cmd, path]) == 0
            out[cmd, name] = capsys.readouterr().out
    assert out["wdfa", "gadget"] == out["wdfa", "relabeled"]
    # minimize numbers states breadth-first, so the relabeled host comes back
    # as the gadget, which is minimal and numbered that way
    assert out["minimize", "gadget"] == out["minimize", "relabeled"] == dfa_to_text(host)


def test_enumerate_line_format(tmp_path, capsys):
    witness = tmp_path / "witness.dfa"
    assert main(["enumerate", "2", "--emit-witness", str(witness)]) == 0
    assert capsys.readouterr().out.strip() == "n=2 max=4 exhausted=true"
    from winset.game import winset_dfa

    assert winset_dfa(parse_dfa(witness.read_text())).state_count == 4


def test_enumerate_refuses_a_nan_budget(capsys):
    assert main(["enumerate", "3", "--budget", "nan"]) == 2
    assert capsys.readouterr() == ("", "error: budget_seconds must be a number, got nan\n")


def test_enumerate_budget_reports_partial(capsys):
    # the full n = 4 search takes 0.06-0.1 s, so it could end before a
    # 0.05 s budget did; 1 ms is far below any full run
    assert main(["enumerate", "4", "--budget", "0.001"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("n=4 max=") and out.endswith("exhausted=false")


def test_enumerate_progress_prints_at_most_once_a_second(capsys):
    now = [100.0]
    progress = _progress_printer(lambda: now[0])
    for done, t in [(10, 100.5), (20, 101.0), (30, 101.9), (40, 102.0), (50, 104.0)]:
        now[0] = t
        progress(done, 100)
    assert capsys.readouterr().err.splitlines() == [
        "20/100 structures, 20/s, ETA 4 s",
        "40/100 structures, 20/s, ETA 3 s",
        "50/100 structures, 12/s, ETA 4 s",
    ]


def test_missing_file_is_a_usage_error(capsys):
    assert main(["wdfa", "/nonexistent/path.dfa"]) == 2
    assert "error:" in capsys.readouterr().err


def test_console_script_entry_point():
    for module in ("winset.cli", "winset"):
        proc = subprocess.run(
            [sys.executable, "-m", module, "enumerate", "1"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, module
        assert proc.stdout.strip() == "n=1 max=1 exhausted=true", module


# Pieces of an argument vector, each a list of arguments.  A ("file", name)
# item stands for a path in the example's directory: "a" and "b" hold drawn
# text, "missing" does not exist and "" is the directory itself.
def _one(strategy):
    return strategy.map(lambda x: [x])


def _lit(*args):
    return st.just(list(args))


def _maybe(*args):
    return st.one_of(st.just([]), st.tuples(*args).map(lambda ps: sum(ps, [])))


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: sum(ps, []))


_files = _one(st.sampled_from(["a", "b", "missing", ""]).map(lambda n: ("file", n)))
_words = _one(st.one_of(st.text(alphabet="AB", max_size=10), st.text(max_size=10)))
_bits = _one(st.one_of(st.text(alphabet="01TF", max_size=4), st.text(max_size=4)))
# the sizes stay at most 3, or over every state budget, so no example is
# slow; int() also reads the odd spellings
_sizes = _one(st.one_of(
    st.integers(-2, 3).map(str),
    st.sampled_from(["", "x", "1.5", " 2", "+3", "-0", "\u0663", "100000000000000000000"]),
))
_targets = st.one_of(
    _one(st.sampled_from(["dyck", "parity", "contains-011", "exact-ones:", "exact-ones:x"])),
    _one(st.integers(-2, 12).map("exact-ones:{}".format)),
    _files,
)
_emit = _maybe(_lit("--emit"), _one(st.sampled_from(["text", "dot", "json", "pdf"])))

_COMMANDS = st.one_of(
    _argv(_one(st.sampled_from(["wdfa", "minimize"])), _files, _emit),
    _argv(_lit("equiv"), _files, _files),
    _argv(_lit("congruent"), _files, _bits, _bits),
    _argv(_lit("decide", "member"), _files, _words, _maybe(_words, _words)),
    _argv(_lit("decide", "intersect"), _files, _files,
          _maybe(_lit("--budget"), _one(st.integers(-1, 50).map(str)))),
    _argv(_lit("oracle", "member"), _targets, _words),
    _argv(_lit("oracle", "slice"), _targets,
          _one(st.one_of(st.integers(-2, 10).map(str), st.just("x")))),
    _argv(
        _lit("gadget"),
        _one(st.sampled_from(["gen-subset", "gen-state", "testing", "lower-bound",
                              "exact-ones", "chain", "circuit", "frobnicate"])),
        st.one_of(st.just([]), _sizes, _files),
        _maybe(_lit("--finals"), st.lists(st.integers(-3, 5).map(str), max_size=3)),
        _maybe(_lit("--value"), _bits),
        _maybe(_lit("--iterate"), _bits, _sizes),
        _emit,
    ),
    _argv(
        _lit("enumerate"),
        _sizes,
        _maybe(_lit("--budget"), _one(st.sampled_from(["0", "0.01", "-1", "nan", "inf", "x"]))),
        _maybe(_lit("--emit-witness"), _files),
    ),
    # argparse's own errors, and its help, exit through SystemExit
    _argv(st.lists(st.one_of(st.text(max_size=6), st.sampled_from(["-h", "--emit", "decide"])),
                   max_size=3)),
)


# file text: well-formed hosts, turn-order DFAs and circuits, so the
# commands get past their parsers, as well as junk
_TEXTS = st.one_of(
    token_soup,
    st.text(),
    dfas(max_states=3).map(dfa_to_text),
    dfas(max_states=3).map(lambda d: dfa_to_text(Dfa(TURNS, d.delta, 0, d.finals))),
    st.sampled_from([BA_STAR_NFA, NOT_CIRCUIT, "input x\ninput y\nand g x y\noutput z g\n"]),
)


@settings(max_examples=300, deadline=None)
@given(_COMMANDS, _TEXTS, _TEXTS)
def test_cli_exits_only_0_1_or_2(argv, a, b):
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        (d / "a").write_text(a)
        (d / "b").write_text(b)
        argv = [str(d / x[1]) if isinstance(x, tuple) else x for x in argv]
        out = io.StringIO()
        try:
            with redirect_stdout(out), redirect_stderr(out):
                code = main(argv)
        except SystemExit as e:
            code = e.code
    assert code in (0, 1, 2), argv

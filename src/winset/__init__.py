"""Winning sets of binary regular languages under two-player
word-construction games.

Alice and Bob build a binary word following a fixed turn order; the winning
set of a language L is the set of turn orders on which Alice can force the
result into L.  This package computes winning-set automata exactly,
decides membership and intersection questions in polynomial time via a
reversal construction, generates the automaton families that witness
doubly-exponential blowup and P/PSPACE-hardness, and reproduces the known
worst-case state-complexity sequence by exhaustive search.
"""

from .automata import (
    BudgetExceededError,
    Dfa,
    FormatError,
    Nfa,
    accepts,
    congruent,
    determinize,
    dfa_to_text,
    equivalent,
    minimize,
    parse_dfa,
    parse_nfa,
)
from .game import (
    GameState,
    game_state,
    game_states_equivalent,
    leq,
    normalize,
    winning_step,
    winset_dfa,
    winset_nfa,
)
from .oracle import TargetPredicate, alice_wins, dyck_predicate, winning_slice
from .decision import intersect_nonempty, member
from .gadgets import (
    bounded_upper_bound,
    chain_dfa,
    dyck_closed_form,
    exact_ones_dfa,
    exact_ones_winset_member,
    exact_ones_wsize,
    gen_state,
    gen_subset,
    lower_bound_dfa,
    state_word,
    subset_word,
    test_word,
    testing,
)
from .circuits import (
    Circuit,
    circuit_to_dfa,
    circuit_value_instance,
    iterated_instance,
    parse_circuit,
)
from .enumeration import max_winset_complexity

__all__ = [
    "BudgetExceededError",
    "Circuit",
    "Dfa",
    "FormatError",
    "GameState",
    "Nfa",
    "TargetPredicate",
    "accepts",
    "alice_wins",
    "bounded_upper_bound",
    "chain_dfa",
    "circuit_to_dfa",
    "circuit_value_instance",
    "congruent",
    "determinize",
    "dfa_to_text",
    "dyck_closed_form",
    "dyck_predicate",
    "equivalent",
    "exact_ones_dfa",
    "exact_ones_winset_member",
    "exact_ones_wsize",
    "game_state",
    "game_states_equivalent",
    "gen_state",
    "gen_subset",
    "intersect_nonempty",
    "iterated_instance",
    "leq",
    "lower_bound_dfa",
    "max_winset_complexity",
    "member",
    "minimize",
    "normalize",
    "parse_circuit",
    "parse_dfa",
    "parse_nfa",
    "state_word",
    "subset_word",
    "test_word",
    "testing",
    "winning_slice",
    "winning_step",
    "winset_dfa",
    "winset_nfa",
]

__version__ = "0.1.0"

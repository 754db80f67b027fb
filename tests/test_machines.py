"""Machine dataclass validation and simulator semantics."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promata import (
    EPSILON,
    FAILS,
    ROLE_ACCEPTING,
    ROLE_NEUTRAL,
    ROLE_REJECTING,
    SOLVES,
    InputDomainError,
    OneWayAfa,
    OneWayDfa,
    OneWayNfa,
    OneWayPfa,
    PromiseProblem,
    ResourceCapError,
    TwoWayMachine,
    afa_accepts,
    dfa_run,
    disjointness_check,
    evenodd_dfa,
    machine_accepts,
    nfa_accepts,
    nfa_to_dfa,
    parity_dfa,
    promise_check,
    remove_epsilon,
    twoway_accepts,
)
from promata import machines
from promata.machines import (
    DEFAULT_STATE_CAP, LEFT, RIGHT, STAY, RunResult, _fold, _image, _mask, _run, _stepper
)


def test_dfa_partial_transitions_stick():
    dfa = OneWayDfa(
        state_count=2,
        alphabet=("a", "b"),
        initial=0,
        transitions={(0, "a"): 1},
        accepting=frozenset({1}),
    )
    assert dfa_run(dfa, "a").outcome == "accept"
    result = dfa_run(dfa, "ab")
    assert result.outcome == "stuck"
    assert result.position == 1
    assert dfa_run(dfa, "b").position == 0
    assert not machine_accepts(dfa, "b")


def test_dfa_rejects_nonaccepting_final_state():
    dfa = OneWayDfa(
        state_count=2,
        alphabet=("a",),
        initial=0,
        transitions={(0, "a"): 1, (1, "a"): 0},
        accepting=frozenset({0}),
    )
    assert machine_accepts(dfa, "")
    assert not machine_accepts(dfa, "a")
    assert machine_accepts(dfa, "aa")


def test_dfa_validation_errors():
    with pytest.raises(ValueError):
        OneWayDfa(0, ("a",), 0, {}, frozenset())
    with pytest.raises(ValueError):
        OneWayDfa(1, ("a",), 1, {}, frozenset())
    with pytest.raises(ValueError):
        OneWayDfa(1, ("a",), 0, {(0, "b"): 0}, frozenset())
    with pytest.raises(ValueError):
        OneWayDfa(1, ("a",), 0, {(0, "a"): 5}, frozenset())
    with pytest.raises(ValueError):
        OneWayDfa(1, (), 0, {}, frozenset())


def _build(kind, states=2, alphabet=("a",), initial=0, accepting=(1,), existential=(),
           labels=None, symbol="a"):
    """A valid two-state machine of the kind unless an argument breaks it;
    every type is built positionally."""
    labels = {} if labels is None else labels
    if kind is OneWayDfa:
        return OneWayDfa(states, alphabet, initial, {(0, symbol): 0}, accepting, labels)
    if kind is OneWayNfa:
        return OneWayNfa(states, alphabet, initial, {(0, symbol, 0)}, accepting, labels)
    if kind is TwoWayMachine:
        return TwoWayMachine(
            states, alphabet, initial, {(0, symbol, 0, RIGHT)}, accepting, False, labels
        )
    if kind is OneWayAfa:
        return OneWayAfa(
            states, alphabet, initial, {(0, symbol, 0)}, accepting, existential, 3, labels
        )
    roles = {q: ROLE_ACCEPTING for q in range(states)}
    return OneWayPfa(
        states, alphabet, initial, {(0, symbol): ((0, Fraction(1)),)}, roles, labels
    )


_KINDS = (OneWayDfa, OneWayNfa, TwoWayMachine, OneWayAfa, OneWayPfa)
_SHARED_FAULTS = {
    "no-states": ({"states": 0}, "state_count must be at least 1"),
    "empty-alphabet": ({"alphabet": ()}, "alphabet must be non-empty"),
    "repeated-symbol": ({"alphabet": ("a", "a")}, "alphabet symbols must be distinct"),
    "long-symbol": (
        {"alphabet": ("ab",), "symbol": "ab"},
        "alphabet symbol 'ab' must be a single character",
    ),
    "empty-symbol": (
        {"alphabet": ("",), "symbol": ""},
        "alphabet symbol '' must be a non-empty string",
    ),
    "non-string-symbol": (
        {"alphabet": (1,), "symbol": 1},
        "alphabet symbol 1 must be a non-empty string",
    ),
    "initial": ({"initial": 2}, "initial state 2 outside 0..1"),
    "accepting": ({"accepting": (5,)}, "accepting state 5 outside 0..1"),
    "existential": ({"existential": (5,)}, "existential state 5 outside 0..1"),
    # bool is an int to Python; JSON's true and false are not state numbers.
    "bool-states": ({"states": True}, "state_count True must be an integer"),
    "bool-initial": ({"initial": False}, "initial state False outside 0..1"),
    "bool-accepting": ({"accepting": (True,)}, "accepting state True outside 0..1"),
    "bool-existential": ({"existential": (True,)}, "existential state True outside 0..1"),
    "label-type": ({"labels": {0: 7}}, "label for state 0 must be a string"),
    "labeled-state": ({"labels": {9: "x"}}, "labeled state 9 outside 0..1"),
    "foreign-symbol": ({"symbol": "b"}, "transition symbol 'b' not in alphabet"),
}


@pytest.mark.parametrize(
    "kind,fault",
    [
        pytest.param(kind, fault, id=f"{kind.__name__}-{fault}")
        for kind in _KINDS
        for fault in _SHARED_FAULTS
        if not (fault.endswith("accepting") and kind is OneWayPfa)
        and not (fault.endswith("existential") and kind is not OneWayAfa)
    ],
)
def test_shared_faults_give_one_message_on_every_type(kind, fault):
    _build(kind)
    arguments, message = _SHARED_FAULTS[fault]
    if kind is TwoWayMachine and fault == "foreign-symbol":
        # Two-way transitions may also read the endmarkers.
        message = "tape symbol 'b' not in alphabet or endmarkers"
    with pytest.raises(ValueError) as info:
        _build(kind, **arguments)
    assert str(info.value) == message


def test_problem_alphabet_symbols_are_single_characters():
    with pytest.raises(ValueError, match="single character"):
        PromiseProblem(("ab",), lambda w: True, lambda w: False)


def test_word_symbols_must_be_in_alphabet():
    dfa = OneWayDfa(1, ("a",), 0, {(0, "a"): 0}, frozenset({0}))
    with pytest.raises(ValueError):
        dfa_run(dfa, "ab")


def test_nfa_tables_grow_with_the_moves_not_the_declared_states():
    # Every one of 2^20 states accepts, and three moves touch the highest
    # ones: only the silent state gets a closure of its own.
    last = DEFAULT_STATE_CAP - 1
    nfa = OneWayNfa(
        state_count=DEFAULT_STATE_CAP,
        alphabet=("a",),
        initial=0,
        transitions=frozenset({(0, "a", last), (last, EPSILON, last - 1), (last - 1, "a", 5)}),
        accepting=frozenset(range(DEFAULT_STATE_CAP)),
    )
    assert nfa._closure == {last: 3 << (last - 1)}
    assert nfa._succ == {"a": {0: 3 << (last - 1), last - 1: 1 << 5}}
    assert nfa_accepts(nfa, "aa")
    assert not nfa_accepts(nfa, "aaa")
    assert remove_epsilon(nfa).transitions == {
        (0, "a", last), (0, "a", last - 1), (last, "a", 5), (last - 1, "a", 5)
    }


def test_state_masks_set_exactly_the_listed_bits():
    rng = random.Random("masks")
    for size in (0, 1, 7, 8, 9, 100):
        states = rng.sample(range(300), size)
        assert _mask(states) == sum(1 << state for state in states)


def test_nfa_epsilon_closure_reaches_accept():
    # 0 --eps--> 1 --a--> 2, and 2 accepts: "a" is the whole language.
    nfa = OneWayNfa(
        state_count=3,
        alphabet=("a",),
        initial=0,
        transitions=frozenset({(0, EPSILON, 1), (1, "a", 2)}),
        accepting=frozenset({2}),
    )
    assert nfa_accepts(nfa, "a")
    assert not nfa_accepts(nfa, "")
    assert not nfa_accepts(nfa, "aa")


def _breadth_first_closures(eps):
    """Each silent state's EPSILON closure by its own breadth-first search
    over bitmasks: the reference for OneWayNfa's pass over components."""
    closure = {}
    for state in eps:
        reach = frontier = 1 << state
        while frontier:
            frontier = _image(frontier, eps) & ~reach
            reach |= frontier
        closure[state] = reach
    return closure


def test_nfa_closures_match_breadth_first_search():
    rng = random.Random("closures")
    cyclic = 0
    for _ in range(300):
        size = rng.randint(1, 30)
        moves = {
            (rng.randrange(size), rng.choice(("a", EPSILON, EPSILON)), rng.randrange(size))
            for _ in range(rng.randint(0, 3 * size))
        }
        eps = {}
        for src, sym, dst in moves:
            if sym is EPSILON:
                eps[src] = eps.get(src, 0) | 1 << dst
        nfa = OneWayNfa(size, ("a",), 0, frozenset(moves), frozenset())
        expected = _breadth_first_closures(eps)
        assert nfa._closure == expected
        # Two silent states reach each other: a cycle through both.
        cyclic += any(
            expected[dst] >> src & 1
            for src, reach in expected.items() for dst in expected if dst != src and reach >> dst & 1
        )
    assert cyclic > 100


def test_nfa_long_epsilon_chain_closes_in_one_pass():
    """A breadth-first search from each silent state made this cubic: an
    8,000-state chain took over a minute to construct."""
    size = 20_000

    def timed(successor):
        start = time.perf_counter()
        nfa = OneWayNfa(
            state_count=size,
            alphabet=("a",),
            initial=0,
            transitions=frozenset((q, EPSILON, successor(q)) for q in range(size - 1)),
            accepting=frozenset({size - 1}),
        )
        assert time.perf_counter() - start < 1
        return nfa

    chain = timed(lambda q: q + 1)
    # The chain's silent states, closed into one component.
    loop = timed(lambda q: (q + 1) % (size - 1))
    assert chain._closure[0] == (1 << size) - 1
    assert chain._closure[size - 2] == 3 << (size - 2)
    assert loop._closure == dict.fromkeys(range(size - 1), (1 << (size - 1)) - 1)
    assert nfa_accepts(chain, "")
    assert not nfa_accepts(chain, "a")


def test_nfa_closure_masks_are_charged_once_per_component(monkeypatch):
    """The closures of a 200-state silent chain hold 199 masks of 200 bits;
    the 199 states of a silent cycle share one mask of 199 bits."""

    def build(successor):
        return OneWayNfa(
            200, ("a",), 0, frozenset((q, EPSILON, successor(q)) for q in range(199)), frozenset()
        )

    monkeypatch.setattr(machines, "CLOSURE_BIT_CAP", 199 * 200)
    build(lambda q: q + 1)
    monkeypatch.setattr(machines, "CLOSURE_BIT_CAP", 199 * 200 - 1)
    with pytest.raises(ResourceCapError, match="EPSILON closures"):
        build(lambda q: q + 1)
    monkeypatch.setattr(machines, "CLOSURE_BIT_CAP", 199)
    build(lambda q: (q + 1) % 199)
    monkeypatch.setattr(machines, "CLOSURE_BIT_CAP", 198)
    with pytest.raises(ResourceCapError, match="EPSILON closures"):
        build(lambda q: (q + 1) % 199)


def test_nfa_accepts_iff_some_branch_does():
    nfa = OneWayNfa(
        state_count=3,
        alphabet=("a",),
        initial=0,
        transitions=frozenset({(0, "a", 1), (0, "a", 2), (2, "a", 2)}),
        accepting=frozenset({2}),
    )
    assert nfa_accepts(nfa, "a")
    assert nfa_accepts(nfa, "aaa")
    assert not nfa_accepts(nfa, "")


def test_afa_universal_branch_needs_both():
    # Initial universal state branches on 'a' to two states; only one accepts
    # the remaining "b".
    afa = OneWayAfa(
        state_count=3,
        alphabet=("a", "b"),
        initial=0,
        transitions=frozenset({(0, "a", 1), (0, "a", 2), (1, "b", 1), (2, "b", 2)}),
        accepting=frozenset({1}),
        existential=frozenset(),
        max_eps_chain=0,
    )
    assert not afa_accepts(afa, "ab")
    both = OneWayAfa(
        state_count=3,
        alphabet=("a", "b"),
        initial=0,
        transitions=frozenset({(0, "a", 1), (0, "a", 2), (1, "b", 1), (2, "b", 2)}),
        accepting=frozenset({1, 2}),
        existential=frozenset(),
        max_eps_chain=0,
    )
    assert afa_accepts(both, "ab")


def test_afa_halt_value_needs_empty_suffix():
    # A state with no moves accepts only when the input is exhausted.
    afa = OneWayAfa(
        state_count=1,
        alphabet=("a",),
        initial=0,
        transitions=frozenset(),
        accepting=frozenset({0}),
        existential=frozenset({0}),
        max_eps_chain=0,
    )
    assert afa_accepts(afa, "")
    assert not afa_accepts(afa, "a")


def test_afa_silent_moves_consume_no_input():
    # 0 --eps--> 1 --a--> 2: the silent hop costs nothing, so the language
    # is exactly {"a"}.
    afa = OneWayAfa(
        state_count=3,
        alphabet=("a",),
        initial=0,
        transitions=frozenset({(0, EPSILON, 1), (1, "a", 2)}),
        accepting=frozenset({2}),
        existential=frozenset({0, 1, 2}),
        max_eps_chain=1,
    )
    assert afa_accepts(afa, "a")
    assert not afa_accepts(afa, "")
    assert not afa_accepts(afa, "aa")


def test_afa_states_cannot_mix_silent_and_symbol_moves():
    with pytest.raises(ValueError, match=r"states \[0, 1\] mix EPSILON and symbol"):
        OneWayAfa(
            state_count=3,
            alphabet=("a",),
            initial=0,
            transitions=frozenset({(0, EPSILON, 1), (0, "a", 2), (1, "a", 2), (1, EPSILON, 2)}),
            accepting=frozenset({2}),
            existential=frozenset({0, 1, 2}),
            max_eps_chain=2,
        )


@pytest.mark.parametrize("bound", [2.5, float("nan"), True, "3", None], ids=repr)
def test_afa_eps_chain_bound_must_be_an_integer(bound):
    with pytest.raises(ValueError, match="max_eps_chain must be an integer"):
        OneWayAfa(1, ("a",), 0, frozenset(), frozenset(), frozenset(), bound)


def test_afa_rejects_epsilon_cycles():
    with pytest.raises(ValueError):
        OneWayAfa(
            state_count=2,
            alphabet=("a",),
            initial=0,
            transitions=frozenset({(0, EPSILON, 1), (1, EPSILON, 0)}),
            accepting=frozenset(),
            existential=frozenset({0, 1}),
            max_eps_chain=2,
        )


def test_afa_rejects_chain_longer_than_declared():
    with pytest.raises(ValueError):
        OneWayAfa(
            state_count=3,
            alphabet=("a",),
            initial=0,
            transitions=frozenset({(0, EPSILON, 1), (1, EPSILON, 2)}),
            accepting=frozenset(),
            existential=frozenset({0, 1, 2}),
            max_eps_chain=1,
        )


def test_afa_long_epsilon_chain():
    def chain(bound):
        return OneWayAfa(
            state_count=1201,
            alphabet=("a",),
            initial=0,
            transitions=frozenset((q, EPSILON, q + 1) for q in range(1200)),
            accepting=frozenset({1200}),
            existential=frozenset(range(1201)),
            max_eps_chain=bound,
        )

    afa = chain(1200)
    assert afa_accepts(afa, "")
    assert not afa_accepts(afa, "a")
    with pytest.raises(ValueError, match="1200 edges"):
        chain(1199)


def test_twoway_accepts_by_halting_anywhere():
    # Move right to the right marker, then halt in the accepting state.
    machine = TwoWayMachine(
        state_count=2,
        alphabet=("a",),
        initial=0,
        transitions=frozenset(
            {
                (0, "⊢", 0, 1),
                (0, "a", 0, 1),
                (0, "⊣", 1, 0),
            }
        ),
        accepting=frozenset({1}),
        deterministic=True,
    )
    assert twoway_accepts(machine, "")
    assert twoway_accepts(machine, "aaa")


def test_twoway_rejects_by_looping():
    # The loop never halts, so its accepting state does not count, and the
    # walk finds it long before the s·(|w|+2) cap on a long word.
    machine = TwoWayMachine(
        state_count=1,
        alphabet=("a",),
        initial=0,
        transitions=frozenset({(0, "⊢", 0, 0)}),
        accepting=frozenset({0}),
        deterministic=True,
    )
    assert not twoway_accepts(machine, "a")
    start = time.perf_counter()
    assert not twoway_accepts(machine, "a" * 10**5)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "moves",
    [
        {(0, "⊢", 0, STAY)},
        {(0, "⊢", 0, RIGHT), (0, "a", 0, RIGHT), (0, "⊣", 0, STAY)},
        # Bounces between ⊣ and the last a: a loop of two configurations.
        {(0, "⊢", 0, RIGHT), (0, "a", 0, RIGHT), (0, "⊣", 1, LEFT), (1, "a", 0, RIGHT)},
    ],
    ids=["stay-on-left-marker", "stay-on-right-marker", "bounce-at-right-marker"],
)
def test_twoway_short_loop_costs_its_length_not_the_declared_states(moves):
    # The machine declares 2^20 states but loops among one or two, so the
    # walk must stop on the loop, not after s·(|w|+2) ≈ 12.6 million steps.
    machine = TwoWayMachine(
        DEFAULT_STATE_CAP, ("a",), 0, frozenset(moves), frozenset({0, 1}), deterministic=True
    )
    start = time.perf_counter()
    assert not twoway_accepts(machine, "a" * 10)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize(
    "moves",
    [
        # One state walks right off ⊢ and over every a, and halts on ⊣.
        {(0, "⊢", 0, RIGHT), (0, "a", 0, RIGHT)},
        # State 0 walks right to ⊣, turns into state 1 there, which walks back
        # and halts on ⊢: every one of the 2(|w|+2) configurations is visited.
        {(0, "⊢", 0, RIGHT), (0, "a", 0, RIGHT), (0, "⊣", 1, STAY),
         (1, "⊣", 1, LEFT), (1, "a", 1, LEFT)},
    ],
    ids=["one-state", "two-state-sweep"],
)
@pytest.mark.parametrize("length", [0, 1, 2, 5, 40])
def test_deterministic_twoway_run_halting_at_the_step_bound_accepts(moves, length):
    # The run takes s·(|w|+2) − 1 steps, the most a halting run can take, so
    # a walk cut one step short would reject.
    states = 1 + max(dst for _, _, dst, _ in moves)
    machine = TwoWayMachine(
        states, ("a",), 0, frozenset(moves), frozenset(range(states)), deterministic=True
    )
    assert twoway_accepts(machine, "a" * length)


def test_twoway_can_sweep_both_directions():
    # Walk right to the end marker, come back left, accept at the left marker.
    machine = TwoWayMachine(
        state_count=3,
        alphabet=("a",),
        initial=0,
        transitions=frozenset(
            {
                (0, "⊢", 0, 1),
                (0, "a", 0, 1),
                (0, "⊣", 1, -1),
                (1, "a", 1, -1),
                (1, "⊢", 2, 0),
            }
        ),
        accepting=frozenset({2}),
        deterministic=True,
    )
    assert twoway_accepts(machine, "aa")
    assert twoway_accepts(machine, "")


def test_deterministic_twoway_rejects_two_moves_on_one_cell():
    moves = frozenset({(0, "⊢", 0, RIGHT), (0, "a", 0, RIGHT), (0, "a", 1, 0)})
    nondeterministic = TwoWayMachine(2, ("a",), 0, moves, frozenset({1}))
    assert twoway_accepts(nondeterministic, "a")
    with pytest.raises(
        ValueError, match=r"deterministic machine has two transitions on \(0, 'a'\)"
    ):
        TwoWayMachine(2, ("a",), 0, moves, frozenset({1}), deterministic=True)


@pytest.mark.parametrize("flag", ["no", 1, 0, None], ids=repr)
def test_twoway_deterministic_flag_must_be_a_bool(flag):
    with pytest.raises(ValueError, match="deterministic must be a bool"):
        TwoWayMachine(1, ("a",), 0, frozenset(), frozenset(), deterministic=flag)


def test_pfa_rows_must_be_stochastic():
    with pytest.raises(ValueError):
        OneWayPfa(
            state_count=2,
            alphabet=("a",),
            initial=0,
            transitions={(0, "a"): ((0, Fraction(1, 2)), (1, Fraction(1, 3)))},
            roles={0: ROLE_NEUTRAL, 1: ROLE_ACCEPTING},
        )
    with pytest.raises(ValueError):
        OneWayPfa(
            state_count=1,
            alphabet=("a",),
            initial=0,
            transitions={(0, "a"): ((0, 0.5), (0, 0.5))},
            roles={0: ROLE_NEUTRAL},
        )


_HALF, _THIRD = Fraction(1, 2), Fraction(1, 3)


@pytest.mark.parametrize(
    "row,message",
    [
        (((0, _HALF), (1, _THIRD)), "probabilities on (0, 'a') sum to 5/6, not 1"),
        (((0, 2 * _THIRD), (1, 2 * _THIRD)), "probabilities on (0, 'a') sum to 4/3, not 1"),
        ((), "probabilities on (0, 'a') sum to 0, not 1"),
        (((0, -_HALF), (1, 3 * _HALF)), "probability -1/2 on (0, 'a') outside [0, 1]"),
        (((0, 3 * _HALF), (1, -_HALF)), "probability 3/2 on (0, 'a') outside [0, 1]"),
        (((0, 0.5), (1, 0.5)), "probability 0.5 on (0, 'a') must be a Fraction"),
        (((True, Fraction(1)),), "transition target True outside 0..1"),
        (((2, Fraction(1)),), "transition target 2 outside 0..1"),
    ],
    ids=["short", "over", "empty", "negative", "above-one", "float", "bool-target", "target"],
)
def test_pfa_row_faults_name_the_entry_or_the_sum(row, message):
    with pytest.raises(ValueError) as info:
        OneWayPfa(2, ("a",), 0, {(0, "a"): row}, {0: ROLE_NEUTRAL, 1: ROLE_ACCEPTING})
    assert str(info.value) == message


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.lists(st.fractions(min_value=0, max_value=1, max_denominator=60), max_size=5),
    st.booleans(),
)
def test_pfa_row_check_matches_the_fraction_sum(probs, complete):
    """The integer check accepts a row exactly when its Fractions sum to 1."""
    total = sum(probs, Fraction(0))
    if complete and total <= 1:
        probs, total = probs + [1 - total], Fraction(1)
    row = tuple((0, prob) for prob in probs)
    try:
        OneWayPfa(1, ("a",), 0, {(0, "a"): row}, {0: ROLE_NEUTRAL})
    except ValueError as exc:
        assert total != 1
        assert str(exc) == f"probabilities on (0, 'a') sum to {total}, not 1"
    else:
        assert total == 1


def test_pfa_roles_must_cover_all_states():
    with pytest.raises(ValueError):
        OneWayPfa(
            state_count=2,
            alphabet=("a",),
            initial=0,
            transitions={},
            roles={0: ROLE_ACCEPTING},
        )
    with pytest.raises(ValueError):
        OneWayPfa(
            state_count=1,
            alphabet=("a",),
            initial=0,
            transitions={},
            roles={0: "winning"},
        )


def test_pfa_row_order_is_canonical():
    rows_one = {(0, "a"): ((1, Fraction(1, 2)), (0, Fraction(1, 2)))}
    rows_two = {(0, "a"): ((0, Fraction(1, 2)), (1, Fraction(1, 2)))}
    roles = {0: ROLE_NEUTRAL, 1: ROLE_ACCEPTING}
    left = OneWayPfa(2, ("a",), 0, rows_one, roles)
    right = OneWayPfa(2, ("a",), 0, rows_two, roles)
    assert left == right


def _parity_problem(alphabet=("a",)):
    return PromiseProblem(
        alphabet=alphabet,
        yes_member=lambda w: len(w) % 2 == 0,
        no_member=lambda w: len(w) % 2 == 1,
        name="parity",
    )


def test_promise_check_solves_and_fails():
    even = OneWayDfa(
        state_count=2,
        alphabet=("a",),
        initial=0,
        transitions={(0, "a"): 1, (1, "a"): 0},
        accepting=frozenset({0}),
    )
    report = promise_check(even, _parity_problem(), 9)
    assert report.verdict == SOLVES
    assert report.measured["instances"] == 10

    odd = OneWayDfa(
        state_count=2,
        alphabet=("a",),
        initial=0,
        transitions={(0, "a"): 1, (1, "a"): 0},
        accepting=frozenset({1}),
    )
    report = promise_check(odd, _parity_problem(), 9)
    assert report.verdict == FAILS
    assert report.counterexample is not None
    word, expected, observed = report.counterexample
    assert word == ""
    assert expected == "yes"
    assert observed == "reject"


def test_promise_check_empty_promise_is_vacuous():
    nothing = PromiseProblem(
        alphabet=("a",),
        yes_member=lambda w: False,
        no_member=lambda w: False,
    )
    dfa = OneWayDfa(1, ("a",), 0, {(0, "a"): 0}, frozenset({0}))
    report = promise_check(dfa, nothing, 5)
    assert report.verdict == SOLVES
    assert report.measured["instances"] == 0


def test_promise_check_alphabet_mismatch():
    dfa = OneWayDfa(1, ("b",), 0, {(0, "b"): 0}, frozenset({0}))
    with pytest.raises(ValueError):
        promise_check(dfa, _parity_problem(), 5)


def _enumerated(*coded):
    return PromiseProblem(
        alphabet=("a",),
        yes_member=lambda w: True,
        no_member=lambda w: False,
        enumerator=lambda max_length: coded,
    )


def test_problem_enumerator_beyond_length_is_rejected():
    bad = _enumerated((0, "aa", "yes"), (1, "aaa", "yes"))
    with pytest.raises(ValueError, match="enumerator produced 'aaaa' beyond length 3"):
        bad.enumerate_instances(3)
    with pytest.raises(ValueError, match="beyond length 3"):
        promise_check(parity_dfa(), bad, 3)


@pytest.mark.parametrize(
    "coded",
    [((1, "a", "yes"),), ((0, "a", "yes"), (2, "", "no")), ((0, "a", "yes"), (-1, "", "no"))],
)
def test_problem_enumerator_keeping_more_than_the_previous_word_is_rejected(coded):
    with pytest.raises(ValueError, match=r"enumerator kept -?\d+ symbols of a word of length"):
        _enumerated(*coded).enumerate_instances(3)


@pytest.mark.parametrize("cls", ["maybe", "", None])
def test_problem_enumerator_with_a_bad_class_is_rejected(cls):
    with pytest.raises(ValueError, match="enumerator produced class"):
        _enumerated((0, "a", "yes"), (1, "", cls)).enumerate_instances(3)


def test_problem_enumerator_foreign_symbol_is_rejected_at_its_own_instance():
    """The foreign symbol comes before a later instance's length fault, and
    listing the instances rejects it too."""
    bad = _enumerated((0, "a", "yes"), (1, "b", "no"), (0, "aaaa", "yes"))
    for call in (bad._coded, bad.enumerate_instances):
        with pytest.raises(InputDomainError, match="^symbol 'b' not in alphabet$"):
            call(3)


@pytest.mark.parametrize("enumerated", [False, True])
def test_negative_max_length_is_rejected_with_or_without_an_enumerator(enumerated):
    problem = _enumerated((0, "a", "yes")) if enumerated else _parity_problem()
    for call in (problem._coded, problem.enumerate_instances):
        with pytest.raises(ValueError, match="^max_length must be non-negative$"):
            call(-1)
    with pytest.raises(ValueError, match="^max_length must be non-negative$"):
        promise_check(parity_dfa(), problem, -1)


def test_overlapping_classes_are_rejected_when_brute_forced():
    both = PromiseProblem(("a", "b"), lambda w: len(w) == 2, lambda w: w == "ab")
    nothing = OneWayDfa(1, ("a", "b"), 0, {}, frozenset())
    for call in (both._coded, both.enumerate_instances, lambda n: promise_check(nothing, both, n)):
        with pytest.raises(ValueError, match="^promise classes overlap on 'ab'$"):
            call(3)
    # An enumerator's classes are taken as given, so a word may come in both.
    assert _enumerated((0, "a", "yes"), (1, "", "no")).enumerate_instances(1) == [
        ("a", "yes"),
        ("a", "no"),
    ]


def test_probabilistic_machines_are_not_acceptors():
    pfa = OneWayPfa(1, ("a",), 0, {(0, "a"): ((0, Fraction(1)),)}, {0: ROLE_ACCEPTING})
    with pytest.raises(TypeError, match="unsupported machine type OneWayPfa"):
        machine_accepts(pfa, "a")
    with pytest.raises(TypeError, match="unsupported machine type OneWayPfa"):
        promise_check(pfa, _parity_problem(), 3)


def _shortest_first(alphabet, max_length):
    """Every word up to max_length, one whole length after another."""
    words, layer = [], [""]
    for _ in range(max_length + 1):
        words += layer
        layer = [word + sym for word in layer for sym in alphabet]
    return words


def test_brute_force_walks_visit_words_shortest_first_in_alphabet_order():
    alphabet = ("b", "a", "#")
    expected = _shortest_first(alphabet, 4)
    assert expected[:7] == ["", "b", "a", "#", "bb", "ba", "b#"]
    seen = []

    def yes_member(word):
        seen.append(word)
        return word.count("a") % 2 == 0

    problem = PromiseProblem(alphabet, yes_member, lambda word: word.count("a") % 2 == 1)
    assert [word for word, _ in problem.enumerate_instances(4)] == expected
    assert seen == expected
    # Brute-forced words come whole, each with keep 0.
    classes = ["yes" if word.count("a") % 2 == 0 else "no" for word in expected]
    assert problem._coded(4) == [(0, word, cls) for word, cls in zip(expected, classes)]
    seen.clear()
    report = disjointness_check(problem, 4)
    assert report.verdict == SOLVES
    assert report.measured["words"] == len(expected)
    assert seen == expected


def test_roles_partition_helper():
    pfa = OneWayPfa(
        state_count=3,
        alphabet=("a",),
        initial=0,
        transitions={},
        roles={0: ROLE_NEUTRAL, 1: ROLE_ACCEPTING, 2: ROLE_REJECTING},
    )
    assert pfa.states_with_role(ROLE_ACCEPTING) == frozenset({1})
    assert pfa.states_with_role(ROLE_REJECTING) == frozenset({2})


# --- property tests ---


@st.composite
def unary_dfas(draw):
    size = draw(st.integers(min_value=1, max_value=6))
    transitions = {}
    for state in range(size):
        target = draw(st.integers(min_value=-1, max_value=size - 1))
        if target >= 0:
            transitions[(state, "a")] = target
    accepting = frozenset(
        state for state in range(size) if draw(st.booleans())
    )
    initial = draw(st.integers(min_value=0, max_value=size - 1))
    return OneWayDfa(size, ("a",), initial, transitions, accepting)


@given(unary_dfas(), st.integers(min_value=0, max_value=30), st.randoms())
@settings(deadline=None, max_examples=100)
def test_dfa_outcome_invariant_under_state_renaming(dfa, length, rng):
    """Permuting state numbers never changes any run outcome."""
    perm = list(range(dfa.state_count))
    rng.shuffle(perm)
    renamed = OneWayDfa(
        state_count=dfa.state_count,
        alphabet=dfa.alphabet,
        initial=perm[dfa.initial],
        transitions={
            (perm[src], sym): perm[dst] for (src, sym), dst in dfa.transitions.items()
        },
        accepting=frozenset(perm[q] for q in dfa.accepting),
    )
    word = "a" * length
    assert dfa_run(dfa, word).outcome == dfa_run(renamed, word).outcome


@st.composite
def existential_afas(draw):
    """All-existential machines whose accepting states have no silent moves.

    With a forced silent move out of an accepting state, the alternating
    semantics differs from the nondeterministic one (the silent move is
    mandatory, closure is optional), so the comparison below restricts to
    machines where that case cannot arise.
    """
    size = draw(st.integers(min_value=1, max_value=5))
    accepting = frozenset(state for state in range(size) if draw(st.booleans()))
    transitions = set()
    for src in range(size):
        uses_eps = src not in accepting and draw(st.booleans())
        if uses_eps and src + 1 < size:
            # Forward-only silent edges keep the silent graph acyclic.
            for dst in range(src + 1, size):
                if draw(st.booleans()):
                    transitions.add((src, EPSILON, dst))
        if not any(t[0] == src and t[1] is EPSILON for t in transitions):
            for sym in ("a", "b"):
                for dst in range(size):
                    if draw(st.booleans()):
                        transitions.add((src, sym, dst))
    afa = OneWayAfa(
        state_count=size,
        alphabet=("a", "b"),
        initial=draw(st.integers(min_value=0, max_value=size - 1)),
        transitions=frozenset(transitions),
        accepting=accepting,
        existential=frozenset(range(size)),
        max_eps_chain=size,
    )
    return afa


@given(existential_afas(), st.text(alphabet="ab", max_size=12))
@settings(deadline=None, max_examples=150)
def test_existential_afa_agrees_with_nfa(afa, word):
    """An all-existential machine accepts exactly like the same-shape NFA."""
    nfa = OneWayNfa(
        state_count=afa.state_count,
        alphabet=afa.alphabet,
        initial=afa.initial,
        transitions=afa.transitions,
        accepting=afa.accepting,
    )
    assert afa_accepts(afa, word) == nfa_accepts(nfa, word)


@st.composite
def complete_nfas(draw):
    """Silent-free machines with at least one move per state and symbol."""
    size = draw(st.integers(min_value=1, max_value=4))
    transitions = set()
    for src in range(size):
        for sym in ("a", "b"):
            targets = draw(
                st.sets(st.integers(min_value=0, max_value=size - 1), min_size=1, max_size=size)
            )
            for dst in targets:
                transitions.add((src, sym, dst))
    accepting = frozenset(state for state in range(size) if draw(st.booleans()))
    return OneWayNfa(
        state_count=size,
        alphabet=("a", "b"),
        initial=draw(st.integers(min_value=0, max_value=size - 1)),
        transitions=frozenset(transitions),
        accepting=accepting,
    )


def _one_way_as_twoway(nfa: OneWayNfa) -> TwoWayMachine:
    """Embed a complete silent-free NFA as a right-moving two-way machine.

    A fresh start state hops off the left marker, then every original move
    becomes a right move; no move is defined on the right marker, so a branch
    halts there and accepts iff its state accepts.
    """
    start = nfa.state_count
    moves = {(start, "⊢", nfa.initial, 1)}
    for src, sym, dst in nfa.transitions:
        moves.add((src, sym, dst, 1))
    return TwoWayMachine(
        state_count=nfa.state_count + 1,
        alphabet=nfa.alphabet,
        initial=start,
        transitions=frozenset(moves),
        accepting=frozenset(nfa.accepting),
        deterministic=False,
    )


@given(complete_nfas(), st.text(alphabet="ab", max_size=10))
@settings(deadline=None, max_examples=150)
def test_twoway_embedding_agrees_with_nfa(nfa, word):
    """Right-moving two-way machines accept the same words as their source."""
    assert twoway_accepts(_one_way_as_twoway(nfa), word) == nfa_accepts(nfa, word)


def test_dfa_run_is_repeatable():
    dfa = OneWayDfa(2, ("a",), 0, {(0, "a"): 1, (1, "a"): 0}, frozenset({1}))
    first = dfa_run(dfa, "aaa")
    second = dfa_run(dfa, "aaa")
    assert first == second
    assert first.outcome == second.outcome
    assert first.position == second.position


@given(unary_dfas(), st.randoms())
@settings(deadline=None, max_examples=60)
def test_promise_check_verdict_invariant_under_state_renaming(dfa, rng):
    """Relabeling states never changes whether a machine solves a problem."""
    parity = PromiseProblem(
        alphabet=("a",),
        yes_member=lambda w: len(w) % 2 == 0,
        no_member=lambda w: len(w) % 2 == 1,
    )
    perm = list(range(dfa.state_count))
    rng.shuffle(perm)
    renamed = OneWayDfa(
        state_count=dfa.state_count,
        alphabet=dfa.alphabet,
        initial=perm[dfa.initial],
        transitions={
            (perm[src], sym): perm[dst] for (src, sym), dst in dfa.transitions.items()
        },
        accepting=frozenset(perm[q] for q in dfa.accepting),
    )
    original = promise_check(dfa, parity, 8)
    permuted = promise_check(renamed, parity, 8)
    assert original.verdict == permuted.verdict


# --- single-word runs: unary orbits and the per-call step memo ---


def _random_dfa(rng, symbols):
    """A partial DFA: about a fifth of the moves are missing, so some runs
    get stuck."""
    size = rng.randint(1, 6)
    return OneWayDfa(
        size,
        symbols,
        rng.randrange(size),
        {(q, s): rng.randrange(size) for q in range(size) for s in symbols if rng.random() < 0.8},
        frozenset(q for q in range(size) if rng.random() < 0.5),
    )


def _random_nfa(rng, symbols):
    """An NFA with EPSILON moves, silent cycles allowed."""
    size = rng.randint(1, 6)
    labels = (*symbols, EPSILON)
    moves = {
        (rng.randrange(size), rng.choice(labels), rng.randrange(size))
        for _ in range(rng.randint(0, 3 * size))
    }
    return OneWayNfa(
        size,
        symbols,
        rng.randrange(size),
        frozenset(moves),
        frozenset(q for q in range(size) if rng.random() < 0.4),
    )


def _random_afa(rng, symbols):
    """An AFA with existential and universal states; silent moves only go
    to higher states, so the silent graph is acyclic."""
    size = rng.randint(1, 6)
    moves = set()
    for src in range(size):
        if src + 1 < size and rng.random() < 0.3:
            for dst in rng.sample(range(src + 1, size), rng.randint(1, size - src - 1)):
                moves.add((src, EPSILON, dst))
        else:
            for _ in range(rng.randint(0, 2 * len(symbols))):
                moves.add((src, rng.choice(symbols), rng.randrange(size)))
    return OneWayAfa(
        size,
        symbols,
        rng.randrange(size),
        frozenset(moves),
        frozenset(q for q in range(size) if rng.random() < 0.5),
        frozenset(q for q in range(size) if rng.random() < 0.5),
        max_eps_chain=size,
    )


def _plain_dfa_run(dfa, word):
    """dfa_run as a per-symbol loop: (outcome, position)."""
    state = dfa.initial
    for i, sym in enumerate(word):
        state = dfa.transitions.get((state, sym))
        if state is None:
            return "stuck", i
    return ("accept" if state in dfa.accepting else "reject"), None


def _differential_words(rng, machine):
    """Every unary word up to 3 * (states + 2) symbols, and mixed words."""
    words = [
        sym * n for sym in machine.alphabet for n in range(3 * (machine.state_count + 2) + 1)
    ]
    for _ in range(12):
        words.append("".join(rng.choice(machine.alphabet) for _ in range(rng.randint(0, 40))))
    return words


def _counting(stepper):
    """The stepper with a step that counts its calls in calls[0]."""
    calls = [0]
    step = stepper.step

    def counted(value, sym):
        calls[0] += 1
        return step(value, sym)

    return stepper._replace(step=counted), calls


def _fold_trace(stepper, word):
    """The distinct values and distinct (value, symbol) steps of a plain fold."""
    value = stepper.start
    values, steps = {value}, set()
    for sym in reversed(word) if stepper.reverse else word:
        steps.add((value, sym))
        value = stepper.step(value, sym)
        values.add(value)
    return values, steps


@pytest.mark.parametrize("symbols", [("a",), ("a", "b")], ids=["unary", "binary"])
def test_single_word_runs_agree_with_the_per_symbol_fold(symbols):
    rng = random.Random(1405)
    for _ in range(60):
        dfa = _random_dfa(rng, symbols)
        nfa = _random_nfa(rng, symbols)
        afa = _random_afa(rng, symbols)
        for word in _differential_words(rng, dfa):
            run = dfa_run(dfa, word)
            assert (run.outcome, run.position) == _plain_dfa_run(dfa, word), word
            assert machine_accepts(dfa, word) == _fold(_stepper(dfa), word), word
        for word in _differential_words(rng, nfa):
            assert nfa_accepts(nfa, word) == _fold(_stepper(nfa), word), word
            assert machine_accepts(nfa, word) == _fold(_stepper(nfa), word), word
        for word in _differential_words(rng, afa):
            assert afa_accepts(afa, word) == _fold(_stepper(afa), word), word
            assert machine_accepts(afa, word) == _fold(_stepper(afa), word), word


def test_a_unary_word_shorter_than_its_orbit():
    dfa = evenodd_dfa(9)  # a cycle of 1,024 states
    stepper, calls = _counting(_stepper(dfa))
    assert dfa_run(dfa, "a" * 5) == RunResult("reject")
    assert _run(stepper, "a" * 5) is False
    assert calls[0] == 5
    assert dfa_run(dfa, "a" * 1024).accepted


def test_single_word_runs_compute_each_distinct_step_once():
    """A unary run steps at most min(n, distinct values) times; any other
    run steps once per distinct (value, symbol)."""
    rng = random.Random(6671)
    for _ in range(60):
        for build in (_random_dfa, _random_nfa, _random_afa):
            machine = build(rng, ("a", "b"))
            for word in _differential_words(rng, machine):
                stepper, calls = _counting(_stepper(machine))
                assert _run(stepper, word) == _fold(_stepper(machine), word)
                values, steps = _fold_trace(_stepper(machine), word)
                if len(set(word)) == 1:
                    assert calls[0] <= min(len(word), len(values)), word
                else:
                    assert calls[0] == len(steps), word


def test_unary_nfa_runs_agree_with_their_subset_construction():
    rng = random.Random(2014)
    for _ in range(40):
        nfa = _random_nfa(rng, ("a",))
        dfa = nfa_to_dfa(nfa)
        for n in range(3 * (nfa.state_count + 2) + 1):
            assert nfa_accepts(nfa, "a" * n) == dfa_run(dfa, "a" * n).accepted, n

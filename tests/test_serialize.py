"""JSON interchange format: round-trips, stability, and malformed input."""

import json
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promata import (
    EPSILON,
    LasVegasPfa,
    afa_accepts,
    MachineFormatError,
    OneWayAfa,
    OneWayDfa,
    OneWayNfa,
    OneWayPfa,
    TwoWayMachine,
    dfa_to_nfa,
    dumps,
    evenodd_afa_epsfree,
    evenodd_afa_rt,
    evenodd_dfa,
    load,
    loads,
    machine_from_dict,
    machine_to_dict,
    save,
    trios_lasvegas_pfa,
    trios_twoway_dfa,
    up_pfa,
)
from promata import cli
from promata.machines import RIGHT
from promata.serialize import stable_json


def _sample_machines():
    return [
        evenodd_dfa(1),
        evenodd_dfa(3),
        dfa_to_nfa(evenodd_dfa(2)),
        evenodd_afa_rt(1),
        evenodd_afa_rt(3),
        evenodd_afa_epsfree(4),
        trios_twoway_dfa(1, 2),
        trios_twoway_dfa(2, 1),
        trios_lasvegas_pfa(1, 1),
        trios_lasvegas_pfa(3, 2),
        up_pfa(Fraction(1, 2)),
        up_pfa(Fraction(9, 10)),
    ]


@pytest.mark.parametrize("machine", _sample_machines(), ids=lambda m: type(m).__name__)
def test_round_trip_identity(machine):
    text = dumps(machine)
    back = loads(text)
    assert back == machine
    assert type(back) is type(machine)
    assert dumps(back) == text


def test_dumps_is_deterministic():
    machine = trios_lasvegas_pfa(2, 2)
    assert dumps(machine) == dumps(machine)
    rebuilt = loads(dumps(machine))
    assert dumps(rebuilt) == dumps(machine)


def test_states_key_holds_the_count():
    data = json.loads(dumps(evenodd_dfa(2)))
    assert data["states"] == 8
    assert data["type"] == "dfa"
    assert data["initial"] == 0


def test_epsilon_serialized_as_empty_string():
    nfa = OneWayNfa(
        state_count=2,
        alphabet=("a",),
        initial=0,
        transitions=frozenset({(0, EPSILON, 1), (1, "a", 1)}),
        accepting=frozenset({1}),
    )
    data = json.loads(dumps(nfa))
    assert [0, "", 1] in data["transitions"]
    back = loads(dumps(nfa))
    assert (0, EPSILON, 1) in back.transitions


def test_twoway_moves_serialized_as_letters():
    data = json.loads(dumps(trios_twoway_dfa(1, 1)))
    moves = {row[3] for row in data["transitions"]}
    assert moves <= {"L", "S", "R"}


def test_pfa_probabilities_are_fraction_strings():
    data = json.loads(dumps(up_pfa(Fraction(9, 10))))
    probs = {row[3] for row in data["transitions"]}
    assert probs == {"9/10", "1/10", "1/1"}
    assert data["type"] == "pfa"


def test_lasvegas_flag_round_trips():
    machine = trios_lasvegas_pfa(2, 1)
    data = json.loads(dumps(machine))
    assert data["lasvegas"] is True
    assert isinstance(loads(dumps(machine)), LasVegasPfa)


def test_save_and_load_files(tmp_path):
    path = tmp_path / "machine.json"
    machine = evenodd_afa_rt(2)
    save(machine, str(path))
    assert load(str(path)) == machine


def test_labels_round_trip():
    dfa = OneWayDfa(
        state_count=2,
        alphabet=("a",),
        initial=0,
        transitions={(0, "a"): 1, (1, "a"): 0},
        accepting=frozenset({0}),
        labels={0: "even", 1: "odd"},
    )
    back = loads(dumps(dfa))
    assert back.labels == {0: "even", 1: "odd"}


def test_unknown_type_rejected():
    with pytest.raises(MachineFormatError):
        machine_from_dict({"type": "mealy", "states": 1, "alphabet": ["a"], "initial": 0})


def test_missing_fields_rejected():
    data = machine_to_dict(evenodd_dfa(1))
    del data["transitions"]
    with pytest.raises(MachineFormatError):
        machine_from_dict(data)


def test_malformed_numbers_rejected():
    data = machine_to_dict(evenodd_dfa(1))
    data["initial"] = "zero"
    with pytest.raises(MachineFormatError):
        machine_from_dict(data)


@pytest.mark.parametrize("field", ["labels", "roles"])
def test_state_maps_must_be_objects(field):
    data = json.loads(dumps(up_pfa(Fraction(1, 2))))
    data[field] = [1]
    with pytest.raises(MachineFormatError, match=field):
        loads(json.dumps(data))


@pytest.mark.parametrize(
    "machine",
    list({type(m): m for m in _sample_machines()}.values()),
    ids=lambda m: type(m).__name__,
)
def test_multi_character_symbols_rejected(machine):
    data = machine_to_dict(machine)
    data["alphabet"] = ["ab"]
    with pytest.raises(MachineFormatError, match="single character"):
        loads(json.dumps(data))


@pytest.mark.parametrize("prob", [1, 0.5, True, None, ["1/2"], {"1": 2}], ids=repr)
def test_non_string_probability_rejected(prob):
    data = machine_to_dict(up_pfa(Fraction(1, 2)))
    data["transitions"][0][3] = prob
    with pytest.raises(MachineFormatError, match="num/den"):
        loads(json.dumps(data))


@pytest.mark.parametrize(
    "machine,states",
    [
        (dfa_to_nfa(evenodd_dfa(1)), 2**70),
        (evenodd_afa_rt(1), 2**70),
        (up_pfa(Fraction(1, 2)), 2**70),
        (evenodd_dfa(1), 4.0),
    ],
    ids=["OneWayNfa", "OneWayAfa", "OneWayPfa", "OneWayDfa-float"],
)
def test_state_count_must_be_an_integer_within_the_cap(machine, states):
    data = machine_to_dict(machine)
    data["states"] = states
    with pytest.raises(MachineFormatError, match="integer up to the cap"):
        loads(json.dumps(data))


def test_unhashable_type_tag_is_an_unknown_type():
    data = machine_to_dict(evenodd_dfa(1))
    data["type"] = ["dfa"]
    with pytest.raises(MachineFormatError, match=r"unknown machine type \['dfa'\]"):
        machine_from_dict(data)


@pytest.mark.parametrize(
    "machine,key,value",
    [
        (trios_twoway_dfa(1, 1), "deterministic", "no"),
        (trios_twoway_dfa(1, 1), "deterministic", 1),
        (evenodd_afa_rt(1), "eps_chain", 2.5),
        (evenodd_afa_rt(1), "eps_chain", float("nan")),
        (evenodd_afa_rt(1), "eps_chain", True),
    ],
    ids=repr,
)
def test_loosely_typed_fields_rejected(machine, key, value):
    data = machine_to_dict(machine)
    data[key] = value
    with pytest.raises(MachineFormatError, match=f"invalid {data['type']} machine"):
        loads(json.dumps(data))


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no integer digit limit"
)
def test_integer_literal_above_the_digit_limit_rejected():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(MachineFormatError, match="not valid JSON"):
            loads('{"type": "dfa", "states": ' + "9" * 5000 + "}")
    finally:
        sys.set_int_max_str_digits(limit)


def test_bad_move_letter_rejected():
    data = machine_to_dict(trios_twoway_dfa(1, 1))
    data["transitions"][0][3] = "X"
    with pytest.raises(MachineFormatError):
        machine_from_dict(data)


def test_invalid_json_rejected():
    with pytest.raises(MachineFormatError):
        loads("this is not json")


def test_non_object_json_rejected():
    with pytest.raises(MachineFormatError):
        loads("[1, 2, 3]")


def test_deeply_nested_json_rejected():
    with pytest.raises(MachineFormatError, match="nests too deeply"):
        loads("[" * 100_000 + "]" * 100_000)


def test_semantics_preserved_through_round_trip():
    machine = evenodd_afa_rt(2)
    back = loads(dumps(machine))
    for n in range(0, 17, 4):
        assert afa_accepts(back, "a" * n) == afa_accepts(machine, "a" * n)


# Every builder's machine (k = 3 is the least every evenodd builder takes),
# plus an NFA with a silent move, which no builder makes.
_BUILDER_ARGS = {"k": 3, "n": 1, "r": 1, "p": Fraction(1, 2)}
_FUZZ_MACHINES = [
    build(*(_BUILDER_ARGS[flag] for flag in flags)) for build, flags in cli._BUILDS.values()
] + [OneWayNfa(2, ("a",), 0, frozenset({(0, "a", 0), (0, EPSILON, 1)}), frozenset({1}))]

_JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)

# Values of the same JSON type that a valid file might hold there.
_NUDGES = {
    bool: st.booleans(),
    int: st.integers(-1, 4),
    float: st.floats(),
    str: st.sampled_from(["", "a", "b", "#", "L", "S", "R", "⊢", "⊣", "1/2", "1/0"]),
}


def _paths(value, path=()):
    """The path (keys and indexes from the top) of every value in a JSON tree."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield from _paths(item, path + (key,))


def _retyped(value):
    """The same content under another JSON type."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return str(value)
    if isinstance(value, str):
        return list(value)
    if isinstance(value, list):
        return {str(i): item for i, item in enumerate(value)}
    if isinstance(value, dict):
        return list(value.values())
    return False


@st.composite
def _mutants(draw):
    """A builder's machine dict after one or two random mutations: a key or
    element dropped, a value replaced by junk or by another of its type,
    retyped, or nested one level."""
    data = [machine_to_dict(draw(st.sampled_from(_FUZZ_MACHINES)))]  # a parent for the root
    for _ in range(draw(st.integers(1, 2))):
        # Reversed, so the first path, which hypothesis draws most, is a leaf.
        path = (0,) + draw(st.sampled_from(list(_paths(data[0]))[:0:-1]))
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        action = draw(st.sampled_from(["drop", "junk", "retype", "nest", "nudge"]))
        if action == "drop":
            del parent[key]
        elif action == "nudge":
            parent[key] = draw(_NUDGES.get(type(parent[key]), _JUNK))
        elif action == "junk":
            parent[key] = draw(_JUNK)
        elif action == "retype":
            parent[key] = _retyped(parent[key])
        else:
            parent[key] = [parent[key]] if draw(st.booleans()) else {"x": parent[key]}
    return json.dumps(data[0])


def _check_mutant(text):
    try:
        machine = loads(text)
    except MachineFormatError:
        return
    again = loads(dumps(machine))
    assert again == machine
    assert type(again) is type(machine)
    assert dumps(again) == dumps(machine)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_mutants())
def test_mutated_machine_files_are_rejected_or_round_trip(text):
    _check_mutant(text)


@pytest.mark.slow
@settings(max_examples=5000, derandomize=True, deadline=None)
@given(_mutants())
def test_mutated_machine_files_are_rejected_or_round_trip_at_length(text):
    _check_mutant(text)


def _reference(value):
    return json.dumps(value, sort_keys=True, indent=2)


def _written(write, value):
    """What a writer makes of a value: its text, or the type of its error."""
    try:
        return write(value)
    except (TypeError, ValueError) as exc:
        return type(exc)


# Strings holding what the writer's layout relies on the encoder escaping.
_TRICKY = st.sampled_from(["\n", "]\n[", "\0", "]\0[", '"', "\\", "é", "⊢", "\u2028", ""])
_SCALAR = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=10**40)
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0])
    | st.text(max_size=3)
    | _TRICKY
)
# Keys of one type per dict (sorted by json, then quoted) or of mixed types.
_KEY = st.one_of(
    st.text(max_size=2) | _TRICKY,
    st.integers(-3, 3),
    st.floats(allow_nan=False),
    st.booleans(),
    st.none(),
)
_JSON = st.recursive(
    _SCALAR,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.lists(st.lists(_SCALAR, max_size=3), max_size=3)  # rows, some of them empty
    | st.one_of(*(st.dictionaries(key, inner, max_size=4) for key in _KEY.branches))
    | st.dictionaries(_KEY, inner, max_size=3),
    max_leaves=16,
)


@settings(max_examples=1000, derandomize=True, deadline=None)
@given(_JSON)
def test_stable_json_matches_json_dumps(value):
    assert _written(stable_json, value) == _written(_reference, value)


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        [[]],
        [[], [1]],
        [[1], []],
        [[1, 2], [3, "]\n["]],
        [(1, "\0"), [2, None]],
        {"t": [[0, "a", 1], [1, "a", 0]], "s": 2, "e": {}, "l": [[]]},
        {2: "b", 1: "a"},
        {True: 1, False: 2},
        {1.5: [1], -1.0: {}},
        {"x": {"y": {"z": [[[1]]]}}},
        "\n",
        float("nan"),
        10**30,
    ],
    ids=repr,
)
def test_stable_json_layout_cases(value):
    assert stable_json(value) == _reference(value)


@pytest.mark.parametrize(
    "value",
    [
        pytest.param(object(), id="object()"),
        pytest.param([1, object()], id="[1, object()]"),
        [[1, Fraction(1, 2)]],
        pytest.param([[1], [object()]], id="[[1], [object()]]"),
        {"a": {1, 2}},
        {"a": [1, object()]},
        {1: 0, "a": 0},
        {1: [], "a": []},
        {(1, 2): 0},
        {(1, 2): []},
        {"a": [[1], (2,)], (1,): [[1]]},
    ],
    ids=repr,
)
def test_stable_json_raises_what_json_dumps_raises(value):
    with pytest.raises(TypeError) as expected:
        _reference(value)
    with pytest.raises(TypeError) as got:
        stable_json(value)
    assert str(got.value) == str(expected.value)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no integer digit limit"
)
@pytest.mark.parametrize("shape", ["bare", "flat", "rows", "nested"])
def test_stable_json_refuses_an_integer_past_the_digit_limit(shape):
    big = 10**5000
    value = {"bare": big, "flat": [1, big], "rows": [[1], [big]], "nested": {"a": [{"b": big}]}}
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ValueError, match="limit"):
            _reference(value[shape])
        with pytest.raises(ValueError, match="limit"):
            stable_json(value[shape])
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize(
    "machine",
    _FUZZ_MACHINES + [evenodd_dfa(7), trios_lasvegas_pfa(4, 2), trios_twoway_dfa(3, 2)],
    ids=lambda m: type(m).__name__,
)
def test_every_builders_machine_is_written_as_json_dumps_writes_it(machine):
    assert dumps(machine) == _reference(machine_to_dict(machine))


# Each place a state number is read, with a bool alone and with a bool that
# an equal state listed before it would fold into inside a set.
_BOOL_STATES = {
    "states": lambda data, tail: data.update(states=True),
    "initial": lambda data, tail: data.update(initial=False),
    "accepting": lambda data, tail: data.update(accepting=[True]),
    "accepting-folded": lambda data, tail: data["accepting"].append(True),
    "existential": lambda data, tail: data.update(existential=[False]),
    "existential-folded": lambda data, tail: data["existential"].append(False),
    "source": lambda data, tail: data["transitions"].append([True, "b", 0, *tail]),
    "source-folded": lambda data, tail: data["transitions"].append([False, "a", 1, *tail]),
    "target": lambda data, tail: data["transitions"].append([0, "b", False, *tail]),
    "target-folded": lambda data, tail: data["transitions"].append([0, "a", True, *tail]),
}
# Two-state machines with the one move (0, "a") -> 1; a row appended to a
# 2way or pfa machine ends as its "tail" says (a pfa row with mass 0).
_BOOL_MACHINES = {
    "dfa": (OneWayDfa(2, ("a", "b"), 0, {(0, "a"): 1}, frozenset({1})), ()),
    "nfa": (OneWayNfa(2, ("a", "b"), 0, frozenset({(0, "a", 1)}), frozenset({1})), ()),
    "afa": (
        OneWayAfa(2, ("a", "b"), 0, frozenset({(0, "a", 1)}), frozenset({1}), frozenset({0})),
        (),
    ),
    "2way": (
        TwoWayMachine(2, ("a", "b"), 0, frozenset({(0, "a", 1, RIGHT)}), frozenset({1})),
        ("R",),
    ),
    "pfa": (
        OneWayPfa(2, ("a", "b"), 0, {(0, "a"): ((1, Fraction(1)),)}, {0: "neutral", 1: "accepting"}),
        ("0/1",),
    ),
}


@pytest.mark.parametrize(
    "tag,field",
    [
        (tag, field)
        for tag in _BOOL_MACHINES
        for field in _BOOL_STATES
        if not (field.startswith("existential") and tag != "afa")
        and not (field.startswith("accepting") and tag == "pfa")
    ],
)
def test_json_booleans_are_not_state_numbers(tag, field):
    machine, tail = _BOOL_MACHINES[tag]
    data = machine_to_dict(machine)
    assert loads(json.dumps(data)) == machine
    _BOOL_STATES[field](data, tail)
    with pytest.raises(MachineFormatError, match="True|False|duplicate"):
        loads(json.dumps(data))


# Each way a machine file can list one entry twice: a transition row, or a
# state in a state set, written twice or once as a state and once as the
# JSON bool equal to it.
_REPEATS = {
    "row": lambda data: data["transitions"].append(list(data["transitions"][0])),
    "accepting": lambda data: data["accepting"].append(1),
    "accepting-as-bool": lambda data: data["accepting"].append(True),
    "existential": lambda data: data["existential"].append(0),
}


@pytest.mark.parametrize(
    "tag,repeat",
    [
        (tag, repeat)
        for tag in _BOOL_MACHINES
        for repeat in _REPEATS
        if not (repeat == "existential" and tag != "afa")
        and not (repeat.startswith("accepting") and tag == "pfa")
    ],
)
def test_an_entry_listed_twice_is_refused(tag, repeat):
    data = machine_to_dict(_BOOL_MACHINES[tag][0])
    _REPEATS[repeat](data)
    with pytest.raises(MachineFormatError, match="duplicate"):
        loads(json.dumps(data))


def test_a_pfa_target_listed_twice_in_a_row_is_refused(tmp_path, capsys):
    data = machine_to_dict(_BOOL_MACHINES["pfa"][0])
    data["transitions"] = [[0, "a", 1, "1/2"], [0, "a", 1, "1/2"]]
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(data))
    assert cli.main(["simulate", "--machine", str(path), "--word", "a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: duplicate (state, symbol, target) transitions\n"


def test_a_boolean_state_count_exits_2(tmp_path, capsys):
    data = machine_to_dict(evenodd_dfa(1))
    data["states"] = True
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(data))
    assert cli.main(["simulate", "--machine", str(path), "--word", "a"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: states True must be an integer up to the cap 1048576\n"
    )

"""Command-line interface: exit codes, JSON reports, file round-trips."""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import promata
from promata import (
    EPSILON,
    OneWayAfa,
    OneWayNfa,
    TwoWayMachine,
    dfa_minimize,
    dumps,
    evenodd_afa_epsfree,
    evenodd_afa_rt,
    evenodd_dfa,
    loads,
    machine_accepts,
    nfa_to_dfa,
    parity_dfa,
    remove_epsilon,
    save,
    trios_dfa,
    trios_lasvegas_pfa,
    trios_twoway_dfa,
    twoway_to_dfa,
    unary_afa_to_dfa,
    up_dfa,
    up_pfa,
)
from promata import cli, serialize
from promata.acceptance import CriterionResult
from promata.cli import main
from promata.machines import RIGHT
from promata.serialize import load


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _big_fraction(text):
    """A report's num/den field, which may run past the interpreter's
    default integer digit limit; main lifts that limit only while it runs."""
    if not hasattr(sys, "set_int_max_str_digits"):
        return Fraction(text)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return Fraction(text)
    finally:
        sys.set_int_max_str_digits(previous)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no integer digit limit")
def test_main_restores_the_int_digit_limit(capsys):
    before = sys.get_int_max_str_digits()
    assert run_cli(capsys, "build", "parity-dfa")[0] == 0
    assert sys.get_int_max_str_digits() == before
    assert run_cli(capsys, "bogus")[0] == 2
    assert sys.get_int_max_str_digits() == before


def test_build_prints_machine_json(capsys):
    code, out, _ = run_cli(capsys, "build", "evenodd-afa", "--k", "3")
    assert code == 0
    data = json.loads(out)
    assert data["states"] == 23
    assert data["type"] == "afa"


def test_build_writes_file(tmp_path, capsys):
    path = tmp_path / "machine.json"
    code, out, _ = run_cli(capsys, "build", "evenodd-dfa", "--k", "1", "--out", str(path))
    assert code == 0
    assert out == ""
    machine = loads(path.read_text())
    assert machine.state_count == 4


def test_build_missing_parameter_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "build", "evenodd-dfa")
    assert code == 2
    assert "--k" in err


_BUILD_CASES = [
    (("evenodd-dfa", "--k", "2"), lambda: evenodd_dfa(2)),
    (("evenodd-afa", "--k", "2"), lambda: evenodd_afa_rt(2)),
    (("evenodd-afa-epsfree", "--k", "4"), lambda: evenodd_afa_epsfree(4)),
    (("trios-pfa", "--n", "2", "--r", "1"), lambda: trios_lasvegas_pfa(2, 1)),
    (("trios-dfa", "--n", "3", "--r", "2"), lambda: trios_dfa(3, 2)),
    (("trios-2dfa", "--n", "2", "--r", "1"), lambda: trios_twoway_dfa(2, 1)),
    (("up-pfa", "--p", "3/5"), lambda: up_pfa(Fraction(3, 5))),
    (("up-dfa", "--p", "9/10"), lambda: up_dfa(Fraction(9, 10))),
    (("parity-dfa",), parity_dfa),
]


@pytest.mark.parametrize(
    "argv,machine", _BUILD_CASES, ids=[argv[0] for argv, _ in _BUILD_CASES]
)
def test_build_prints_the_builders_machine(capsys, argv, machine):
    code, out, _ = run_cli(capsys, "build", *argv)
    assert code == 0
    assert out == dumps(machine()) + "\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (("build", "trios-pfa", "--n", "2"), "--r is required for trios-pfa"),
        (("build", "up-dfa"), "--p is required for up-dfa"),
        (("verify", "lv-trios"), "--n and --r are required for trios"),
        (
            ("minsize", "--kind", "dfa", "--max-states", "3", "--max-length", "7"),
            "--problem is required",
        ),
        (("verify", "disjoint"), "--problem is required"),
    ],
)
def test_missing_flags_are_named(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


# Every command that reads a num/den flag: its other arguments, the flag,
# a value with a zero denominator (or a bad literal), and the machine file
# the command reads, if any.
_BAD_FRACTION_CASES = [
    (("build", "up-dfa"), "--p", "1/0", None),
    (("build", "up-pfa"), "--p", "3/0", None),
    (("build", "up-dfa"), "--p", "abc", None),
    (("prob", "lasvegas", "--problem", "up"), "--p", "1/0", "pfa"),
    (("minsize", "--kind", "dfa", "--problem", "up", "--max-states", "3", "--max-length", "7"),
     "--p", "1/0", None),
    (("verify", "promise", "--problem", "up"), "--p", "1/0", "dfa"),
    (("verify", "disjoint", "--problem", "up"), "--p", "1/0", None),
    (("prob", "rounds"), "--sigma", "1/0", None),
    (("prob", "expeq-params", "--c", "3", "--m", "1", "--n", "1"), "--r", "1/0", None),
    (("verify", "lv-trios", "--n", "2", "--r", "1"), "--threshold", "2/0", None),
]


@pytest.mark.parametrize(
    "argv,flag,text,machine",
    _BAD_FRACTION_CASES,
    ids=[f"{argv[0]}-{argv[1]}{flag}={text}" for argv, flag, text, _ in _BAD_FRACTION_CASES],
)
def test_bad_fraction_flag_is_a_named_usage_error(
    capsys, machine_files, argv, flag, text, machine
):
    if machine:
        argv += ("--machine", machine_files[machine])
    code, out, err = run_cli(capsys, *argv, flag, text)
    assert code == 2
    assert out == ""
    assert err == (
        f"error: {flag} must be a fraction num/den with a nonzero denominator, not '{text}'\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("evenodd-afa", "--k", "100000000"),
        ("evenodd-afa-epsfree", "--k", "100000000"),
        ("trios-pfa", "--n", "100000000", "--r", "2"),
        ("trios-2dfa", "--n", "100000000", "--r", "1"),
        ("evenodd-dfa", "--k", "1000000000000"),
        ("trios-dfa", "--n", "1000000000000", "--r", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_build_above_the_state_cap_exits_3(capsys, argv):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "build", *argv)
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert err.startswith("resource cap:") and err.count("\n") == 1


@pytest.mark.parametrize("kind", ["evenodd-afa", "evenodd-afa-epsfree"])
def test_build_above_the_move_cap_exits_3(capsys, kind):
    """rt(100000) has 700,002 states, within the state cap, but about
    1.5e10 moves; epsfree(100000) is above the state cap."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "build", kind, "--k", "100000")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert err.startswith("resource cap:") and err.count("\n") == 1


def test_simulate_dfa(tmp_path, capsys):
    path = tmp_path / "d.json"
    run_cli(capsys, "build", "evenodd-dfa", "--k", "1", "--out", str(path))
    code, out, _ = run_cli(capsys, "simulate", "--machine", str(path), "--word", "aaaa")
    assert code == 0
    payload = json.loads(out)
    assert payload["outcome"] == "accept"
    code, out, _ = run_cli(capsys, "simulate", "--machine", str(path), "--word", "aa")
    assert json.loads(out)["outcome"] == "reject"


def test_simulate_pfa_distribution(tmp_path, capsys):
    path = tmp_path / "p.json"
    run_cli(capsys, "build", "up-pfa", "--p", "1/2", "--out", str(path))
    code, out, _ = run_cli(capsys, "simulate", "--machine", str(path), "--word", "aa")
    assert code == 0
    payload = json.loads(out)
    assert payload["distribution"]["accept"] == "1/4"


def test_convert_round_trip(tmp_path, capsys):
    src = tmp_path / "afa.json"
    run_cli(capsys, "build", "evenodd-afa", "--k", "1", "--out", str(src))
    code, out, _ = run_cli(capsys, "convert", "--from", str(src), "--algorithm", "unary-afa-dfa")
    assert code == 0
    big = loads(out)
    for n in range(0, 17):
        assert machine_accepts(big, "a" * n) == (n % 4 == 0)


def test_convert_wrong_machine_type(tmp_path, capsys):
    src = tmp_path / "dfa.json"
    run_cli(capsys, "build", "evenodd-dfa", "--k", "1", "--out", str(src))
    code, _, err = run_cli(capsys, "convert", "--from", str(src), "--algorithm", "subset")
    assert code == 2
    assert "nondeterministic" in err


def test_convert_missing_file(capsys):
    code, _, err = run_cli(capsys, "convert", "--from", "/nonexistent.json", "--algorithm", "minimize")
    assert code == 2


def test_bounds_report(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--formula", "svfa-to-dfa", "--n", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == "10"
    assert payload["real_value"] == 10.0

    code, out, _ = run_cli(capsys, "bounds", "--formula", "afa-to-dfa", "--n", "2")
    assert json.loads(out)["value"] == "256"


def test_bounds_report_beyond_float_range(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--formula", "svfa-to-dfa", "--n", "1940")
    assert code == 0
    payload = json.loads(out)
    assert "real_value" not in payload
    assert len(payload["value"]) == 309


def test_simulate_long_epsilon_chain(tmp_path, capsys):
    chain = OneWayAfa(
        state_count=1201,
        alphabet=("a",),
        initial=0,
        transitions=frozenset((q, EPSILON, q + 1) for q in range(1200)),
        accepting=frozenset({1200}),
        existential=frozenset(range(1201)),
        max_eps_chain=1200,
    )
    path = tmp_path / "chain.json"
    save(chain, str(path))
    code, out, _ = run_cli(capsys, "simulate", "--machine", str(path), "--word", "")
    assert code == 0
    assert json.loads(out)["outcome"] == "accept"


def test_simulate_above_the_closure_cap_exits_3(tmp_path, capsys):
    """A 30,000-state silent chain needs about 9 * 10^8 bits of closure
    masks, above the cap; the 20,000-state chain needs 4 * 10^8 and runs."""
    for size, code in ((30_000, 3), (20_000, 0)):
        chain = {
            "type": "nfa",
            "states": size,
            "alphabet": ["a"],
            "initial": 0,
            "accepting": [size - 1],
            "transitions": [[q, "", q + 1] for q in range(size - 1)],
        }
        path = tmp_path / f"chain{size}.json"
        path.write_text(json.dumps(chain))
        got, out, err = run_cli(capsys, "simulate", "--machine", str(path), "--word", "a")
        assert got == code, err
        if code:
            assert err.startswith("resource cap: EPSILON closures exceed")
        else:
            assert json.loads(out)["outcome"] == "reject"


def test_prob_exact_and_neutral_merge(tmp_path, capsys):
    path = tmp_path / "p.json"
    run_cli(capsys, "build", "trios-pfa", "--n", "1", "--r", "1", "--out", str(path))
    code, out, _ = run_cli(capsys, "prob", "exact", "--machine", str(path), "--word", "#001")
    assert code == 0
    assert json.loads(out)["accept"] == "1/1"

    code, out, _ = run_cli(
        capsys,
        "prob",
        "exact",
        "--machine",
        str(path),
        "--word",
        "#0",
        "--neutral-as-reject",
    )
    payload = json.loads(out)
    assert payload["neutral"] == "0/1"
    assert payload["reporting_mode"] == "neutral-as-reject"


def test_prob_mc_records_seed_and_algorithm(tmp_path, capsys):
    path = tmp_path / "p.json"
    run_cli(capsys, "build", "up-pfa", "--p", "1/2", "--out", str(path))
    code, out, _ = run_cli(
        capsys,
        "prob",
        "mc",
        "--machine",
        str(path),
        "--word",
        "a",
        "--trials",
        "1000",
        "--seed",
        "7",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["seed"] == 7
    assert payload["trials"] == 1000
    assert payload["algorithm"] == "exact-count-vector-binomial"
    num, den = payload["accept"].split("/")
    assert abs(int(num) / int(den) - 0.5) < 0.1


def test_prob_mc_is_byte_stable(tmp_path, capsys):
    path = tmp_path / "p.json"
    run_cli(capsys, "build", "up-pfa", "--p", "9/10", "--out", str(path))
    args = ("prob", "mc", "--machine", str(path), "--word", "aa", "--trials", "500", "--seed", "3")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    # Pinned, so a change of generator, seeding or binomial draw shows on every
    # Python version the suite runs on.
    assert first == (
        "{\n"
        '  "accept": "411/500",\n'
        '  "algorithm": "exact-count-vector-binomial",\n'
        '  "neutral": "0/1",\n'
        '  "reject": "89/500",\n'
        '  "seed": 3,\n'
        '  "trials": 500,\n'
        '  "word": "aa"\n'
        "}\n"
    )


def test_prob_lasvegas_verdict_exit(tmp_path, capsys):
    path = tmp_path / "lv.json"
    run_cli(capsys, "build", "trios-pfa", "--n", "2", "--r", "1", "--out", str(path))
    code, out, _ = run_cli(
        capsys,
        "prob",
        "lasvegas",
        "--machine",
        str(path),
        "--problem",
        "trios",
        "--n",
        "2",
        "--r",
        "1",
        "--max-length",
        "7",
        "--threshold",
        "1/2",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "solves"

    code, out, _ = run_cli(
        capsys,
        "prob",
        "lasvegas",
        "--machine",
        str(path),
        "--problem",
        "trios",
        "--n",
        "2",
        "--r",
        "1",
        "--max-length",
        "7",
        "--threshold",
        "9/10",
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "fails"


def test_prob_expeq_params(capsys):
    code, out, _ = run_cli(capsys, "prob", "expeq-params", "--c", "3", "--m", "1", "--n", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["a"] == "1/972"
    assert payload["t"] == "1944"


def test_prob_expeq_compose_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "prob", "expeq-compose", "--c", "3", "--m", "1", "--n", "1", "--r", "1/2916"
    )
    assert code == 0
    payload = json.loads(out)
    accept = _big_fraction(payload["accept"])
    assert accept > Fraction(1, 2)

    code, _, err = run_cli(
        capsys, "prob", "expeq-compose", "--c", "10", "--m", "1", "--n", "1", "--r", "1/600"
    )
    assert code == 3
    assert "cap" in err


def test_prob_rounds(capsys):
    code, out, _ = run_cli(capsys, "prob", "rounds", "--sigma", "1/2")
    assert code == 0
    assert json.loads(out)["expected_rounds"] == "2/1"


def test_minsize_report(capsys):
    code, out, _ = run_cli(
        capsys,
        "minsize",
        "--kind",
        "unary-dfa",
        "--problem",
        "evenodd",
        "--k",
        "1",
        "--max-states",
        "18",
        "--max-length",
        "32",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 4
    assert payload["witness"]["states"] == 4
    assert payload["bounded_by"] == {"max_states": 18, "max_length": 32}
    assert "fooling_set" not in payload


def test_minsize_not_found_exits_one(capsys):
    code, out, _ = run_cli(
        capsys,
        "minsize",
        "--kind",
        "dfa",
        "--problem",
        "trios",
        "--n",
        "2",
        "--r",
        "1",
        "--max-states",
        "3",
        "--max-length",
        "7",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["size"] is None
    assert payload["witness"] is None
    assert payload["fooling_set"] == ["#00", "#01", "#10"]
    assert payload["candidates_checked"] == 8053


def test_minsize_fooling_set_explains_an_empty_search(capsys):
    # Seven prefixes need seven states, more than --max-states allows, so
    # the search visits no node.
    code, out, _ = run_cli(
        capsys,
        "minsize",
        "--kind",
        "dfa",
        "--problem",
        "trios",
        "--n",
        "3",
        "--r",
        "1",
        "--max-states",
        "6",
        "--max-length",
        "10",
    )
    assert code == 1
    payload = json.loads(out)
    assert (payload["size"], payload["candidates_checked"]) == (None, 0)
    assert payload["fooling_set"] == ["#000", "#001", "#010", "#011", "#100", "#101", "#110"]


def test_pumping_cli(tmp_path, capsys):
    path = tmp_path / "d.json"
    run_cli(capsys, "build", "evenodd-dfa", "--k", "1", "--out", str(path))
    code, out, _ = run_cli(capsys, "pumping", "--machine", str(path), "--m", "4")
    assert code == 0
    assert json.loads(out)["verdict"] == "solves"

    code, _, err = run_cli(capsys, "pumping", "--machine", str(path), "--m", "13")
    assert code == 3

    for h in ("", ","):
        assert run_cli(capsys, "pumping", "--machine", str(path), "--m", "4", "--h", h) == (
            2,
            "",
            "error: pumping_check needs at least one h value\n",
        )


def test_verify_promise(tmp_path, capsys):
    path = tmp_path / "d.json"
    run_cli(capsys, "build", "evenodd-dfa", "--k", "2", "--out", str(path))
    code, out, _ = run_cli(
        capsys,
        "verify",
        "promise",
        "--machine",
        str(path),
        "--problem",
        "evenodd",
        "--k",
        "2",
        "--max-length",
        "64",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "solves"


def test_verify_promise_failing_machine(tmp_path, capsys):
    path = tmp_path / "d.json"
    run_cli(capsys, "build", "evenodd-dfa", "--k", "1", "--out", str(path))
    code, out, _ = run_cli(
        capsys,
        "verify",
        "promise",
        "--machine",
        str(path),
        "--problem",
        "evenodd",
        "--k",
        "2",
        "--max-length",
        "32",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fails"
    assert payload["counterexample"] is not None


def test_verify_lv_trios_defaults(capsys):
    code, out, _ = run_cli(capsys, "verify", "lv-trios", "--n", "2", "--r", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "solves"
    assert payload["measured"]["min_success"] == "1/2"


def test_verify_lv_trios_horizon_is_the_word_length(capsys):
    # TRIOS(3,2) words have length 20, beyond the other modes' default of 16.
    code, out, _ = run_cli(capsys, "verify", "lv-trios", "--n", "3", "--r", "2")
    assert code == 0
    measured = json.loads(out)["measured"]
    assert measured["instances"] == 2738
    assert measured["min_success"] == "5/9"
    code, out, _ = run_cli(
        capsys, "verify", "lv-trios", "--n", "3", "--r", "2", "--max-length", "19"
    )
    assert code == 0
    assert json.loads(out)["measured"]["instances"] == 0


def test_verify_promise_and_disjoint_default_horizon_is_16(tmp_path, capsys):
    path = tmp_path / "e.json"
    run_cli(capsys, "build", "evenodd-dfa", "--k", "1", "--out", str(path))
    code, out, _ = run_cli(
        capsys, "verify", "promise", "--machine", str(path), "--problem", "evenodd", "--k", "1"
    )
    assert code == 0
    assert json.loads(out)["measured"] == {"instances": 9, "max_length": 16}
    code, out, _ = run_cli(capsys, "verify", "disjoint", "--problem", "evenodd", "--k", "1")
    assert code == 0
    assert json.loads(out)["measured"]["words"] == 17  # a^0 .. a^16


def test_verify_promise_on_trios_defaults_to_the_word_length(tmp_path, capsys):
    # TRIOS(3, 2) words have length 20: a horizon of 16 would check no
    # instance and let a machine that accepts everything pass.
    path = tmp_path / "all.json"
    save(
        promata.OneWayDfa(
            state_count=1,
            alphabet=("0", "1", "#"),
            initial=0,
            transitions={(0, sym): 0 for sym in "01#"},
            accepting=frozenset({0}),
        ),
        path,
    )
    trios = ("--problem", "trios", "--n", "3", "--r", "2")
    code, out, _ = run_cli(capsys, "verify", "promise", "--machine", str(path), *trios)
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fails"
    assert payload["counterexample"][1:] == ["no", "accept"]
    assert payload["measured"] == {"instances": 2738, "max_length": 20}


def test_prob_lasvegas_defaults_to_the_problem_horizon(tmp_path, capsys):
    path = tmp_path / "lv.json"
    run_cli(capsys, "build", "trios-pfa", "--n", "3", "--r", "2", "--out", str(path))
    lv = ("prob", "lasvegas", "--machine", str(path), "--problem", "trios", "--n", "3", "--r", "2")
    # TRIOS(3, 2) words have length r(3n+1) = 20, past the general default of 16.
    code, out, _ = run_cli(capsys, *lv)
    assert code == 0
    assert json.loads(out)["measured"] == {
        "instances": 2738,
        "min_success": "5/9",
        "threshold": "0/1",
    }
    code, out, _ = run_cli(capsys, *lv, "--max-length", "0")
    assert json.loads(out)["measured"]["instances"] == 0
    path = tmp_path / "up.json"
    run_cli(capsys, "build", "up-pfa", "--p", "1/2", "--out", str(path))
    code, out, _ = run_cli(
        capsys, "prob", "lasvegas", "--machine", str(path), "--problem", "up", "--p", "1/2"
    )
    assert code == 1
    assert json.loads(out)["measured"]["instances"] == 16  # a^1 .. a^16


def test_prob_mc_work_cap_exits_3(tmp_path, capsys, monkeypatch):
    path = tmp_path / "p.json"
    run_cli(capsys, "build", "up-pfa", "--p", "1/2", "--out", str(path))
    mc = ("prob", "mc", "--machine", str(path), "--word", "aaaaa")
    with monkeypatch.context() as patch:
        # The cap is checked before sampling starts, so the sampler never runs.
        patch.setattr(cli, "monte_carlo", lambda *args: pytest.fail("sampled past the cap"))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *mc, "--trials", "1000000000")
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert "work cap" in err
        assert run_cli(capsys, *mc, "--work-cap", "499999")[0] == 3
        patch.setenv("PROMATA_WORK_CAP", "499999")
        assert run_cli(capsys, *mc)[0] == 3
    code, out, _ = run_cli(capsys, *mc)
    assert code == 0
    assert json.loads(out)["trials"] == 10**5


def test_verify_disjoint(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify",
        "disjoint",
        "--problem",
        "evenodd",
        "--k",
        "1",
        "--max-length",
        "16",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "solves"


@pytest.mark.parametrize(
    "mode", [("disjoint",), ("lv-trios",), ("promise", "--machine", "trios.json")]
)
def test_verify_negative_horizon_is_usage_error(tmp_path, capsys, mode):
    build = ("build", "trios-dfa", "--n", "2", "--r", "1", "--out", str(tmp_path / "trios.json"))
    run_cli(capsys, *build)
    mode = tuple(str(tmp_path / arg) if arg.endswith(".json") else arg for arg in mode)
    code, out, err = run_cli(
        capsys, "verify", *mode, "--problem", "trios", "--n", "2", "--r", "1", "--max-length", "-2"
    )
    assert code == 2
    assert out == ""
    assert err == "error: max_length must be non-negative\n"


def test_unknown_subcommand_is_usage_error(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_alphabet_mismatch_is_usage_error(tmp_path, capsys):
    path = tmp_path / "d.json"
    run_cli(capsys, "build", "parity-dfa", "--out", str(path))
    code, _, err = run_cli(
        capsys,
        "verify",
        "promise",
        "--machine",
        str(path),
        "--problem",
        "trios",
        "--n",
        "1",
        "--r",
        "1",
        "--max-length",
        "4",
    )
    assert code == 2
    assert "alphabet" in err


def test_malformed_labels_are_usage_error(tmp_path, capsys):
    path = tmp_path / "d.json"
    run_cli(capsys, "build", "parity-dfa", "--out", str(path))
    data = json.loads(path.read_text())
    data["labels"] = [1]
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "simulate", "--machine", str(path), "--word", "aa")
    assert code == 2
    assert "labels" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "build,key,value,message",
    [
        (("trios-2dfa", "--n", "1", "--r", "1"), "deterministic", "no", "deterministic"),
        (("evenodd-afa", "--k", "1"), "eps_chain", 2.5, "max_eps_chain"),
        (("evenodd-afa", "--k", "1"), "eps_chain", float("nan"), "max_eps_chain"),
    ],
    ids=["deterministic-no", "eps-chain-2.5", "eps-chain-nan"],
)
def test_loosely_typed_machine_fields_are_usage_errors(
    tmp_path, capsys, build, key, value, message
):
    path = tmp_path / "m.json"
    run_cli(capsys, "build", *build, "--out", str(path))
    data = json.loads(path.read_text())
    data[key] = value
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "simulate", "--machine", str(path), "--word", "a")
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid ") and message in err


def test_deeply_nested_machine_file_is_usage_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "simulate", "--machine", str(path), "--word", "a")
    assert code == 2
    assert out == ""
    assert err == "error: JSON nests too deeply to be a machine\n"


def test_verify_promise_needs_a_machine(capsys):
    code, out, err = run_cli(capsys, "verify", "promise", "--problem", "evenodd", "--k", "1")
    assert code == 2
    assert out == ""
    assert err == "error: --machine is required for verify promise\n"


@pytest.mark.parametrize(
    "mode,message",
    [
        (
            ("lv-trios", "--n", "2", "--r", "1"),
            "verify lv-trios, which checks the built-in TRIOS Las Vegas machine; "
            "use prob lasvegas --machine to check a machine file",
        ),
        (
            ("disjoint", "--problem", "evenodd", "--k", "1"),
            "verify disjoint, which checks the problem alone",
        ),
    ],
)
def test_verify_modes_without_a_machine_refuse_one(tmp_path, capsys, mode, message):
    # A machine file these modes would not read is refused, not ignored.
    missing = str(tmp_path / "missing.json")
    code, out, err = run_cli(capsys, "verify", *mode, "--machine", missing)
    assert (code, out) == (2, "")
    assert err == f"error: --machine is not read by {message}\n"


def test_unexpected_error_is_one_line_usage_error(tmp_path, capsys, monkeypatch):
    path = tmp_path / "d.json"
    run_cli(capsys, "build", "parity-dfa", "--out", str(path))

    def broken(*args):
        raise RuntimeError("simulator fault")

    monkeypatch.setattr("promata.cli.dfa_run", broken)
    code, out, err = run_cli(capsys, "simulate", "--machine", str(path), "--word", "aa")
    assert code == 2
    assert out == ""
    assert err == "internal error: RuntimeError: simulator fault\n"


def test_running_out_of_memory_is_one_line_resource_cap(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_bounds", exhausted)
    code, out, err = run_cli(capsys, "bounds", "--formula", "2nfa-to-dfa", "--n", "2")
    assert (code, out) == (3, "")
    assert err == "resource cap: out of memory\n"


def test_jobs_flag_is_rejected(capsys):
    code, out, err = run_cli(
        capsys, "--jobs", "4", "bounds", "--formula", "2nfa-to-dfa", "--n", "2"
    )
    assert code == 2
    assert out == ""
    assert "promata: error:" in err
    # The unknown option is named, not its value read as the command.
    assert err.endswith("promata: error: unrecognized arguments: --jobs\n")


def test_unknown_global_option_is_named(capsys):
    code, out, err = run_cli(capsys, "--bogus", "bounds", "--formula", "2nfa-to-dfa", "--n", "2")
    assert code == 2
    assert out == ""
    assert err.endswith("promata: error: unrecognized arguments: --bogus\n")


def test_minsize_unary_nfa_work_cap_exits_3(capsys):
    code, out, err = run_cli(
        capsys,
        "minsize",
        "--kind",
        "unary-nfa",
        "--problem",
        "evenodd",
        "--k",
        "2",
        "--max-states",
        "4",
        "--max-length",
        "40",
        "--work-cap",
        "1000",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("resource cap:")
    assert "1000 search nodes" in err


def test_minsize_unary_dfa_work_cap_exits_3(capsys):
    code, out, err = run_cli(
        capsys,
        "minsize",
        "--kind",
        "unary-dfa",
        "--problem",
        "evenodd",
        "--k",
        "1",
        "--max-states",
        "4",
        "--max-length",
        "64",
        "--work-cap",
        "100",
    )
    assert code == 3
    assert out == ""
    assert err.startswith("resource cap:") and err.count("\n") == 1
    assert "100 instance checks" in err


def test_multi_character_symbol_is_usage_error(tmp_path, capsys):
    path = tmp_path / "d.json"
    run_cli(capsys, "build", "parity-dfa", "--out", str(path))
    data = json.loads(path.read_text())
    data["alphabet"] = ["ab"]
    data["transitions"] = [[src, "ab", dst] for src, _, dst in data["transitions"]]
    path.write_text(json.dumps(data))
    code, out, err = run_cli(capsys, "simulate", "--machine", str(path), "--word", "ab")
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert "single character" in err
    assert "Traceback" not in err


def test_explicit_cap_flag_beats_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PROMATA_WORK_CAP", "10")
    code, out, _ = run_cli(
        capsys,
        "verify",
        "disjoint",
        "--problem",
        "trios",
        "--n",
        "1",
        "--r",
        "1",
        "--max-length",
        "8",
        "--work-cap",
        "100000",
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "solves"


def test_env_cap_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PROMATA_WORK_CAP", "10")
    code, _, err = run_cli(
        capsys,
        "verify",
        "disjoint",
        "--problem",
        "trios",
        "--n",
        "1",
        "--r",
        "1",
        "--max-length",
        "8",
    )
    assert code == 3
    assert "cap" in err.lower()


def test_missing_required_flag_exits_2(capsys):
    code, out, err = run_cli(capsys, "bounds", "--formula", "svfa-to-dfa")
    assert (code, out) == (2, "")
    assert err.endswith("error: the following arguments are required: --n\n")
    code, out, err = run_cli(capsys, "prob")
    assert (code, out) == (2, "")
    assert "the following arguments are required: mode" in err


def test_cap_flag_exits_3(capsys):
    disjoint = ("verify", "disjoint", "--problem", "trios", "--n", "1", "--r", "1")
    code, out, err = run_cli(capsys, *disjoint, "--max-length", "8", "--work-cap", "10")
    assert (code, out) == (3, "")
    assert err == "resource cap: 9841 words above the 10 cap\n"


_NFA = OneWayNfa(
    state_count=3,
    alphabet=("a", "b"),
    initial=0,
    transitions=frozenset(
        {(0, "a", 0), (0, "b", 0), (0, "a", 1), (1, EPSILON, 2), (1, "b", 2)}
    ),
    accepting=frozenset({2}),
)


@pytest.fixture
def machine_files(tmp_path):
    """One machine file per type the commands below read, by type tag."""
    machines = {
        "nfa": _NFA,
        "afa": evenodd_afa_rt(1),
        "dfa": evenodd_dfa(1),
        "pfa": up_pfa(Fraction(1, 2)),
        "2way": trios_twoway_dfa(2, 1),
    }
    paths = {}
    for tag, machine in machines.items():
        paths[tag] = str(tmp_path / f"{tag}.json")
        save(machine, paths[tag])
    return paths


# Each cap: its flag, a command that finishes under the default cap, the
# machine file the command reads (if any), and a cap value that stops it.
_CAP_CASES = [
    ("subset-cap", ("convert", "--algorithm", "subset", "--from"), "nfa", "1"),
    ("vector-cap", ("convert", "--algorithm", "unary-afa-dfa", "--from"), "afa", "1"),
    ("work-cap", ("prob", "mc", "--word", "aaaaa", "--trials", "100", "--machine"), "pfa", "10"),
    (
        "work-cap",
        ("minsize", "--kind", "dfa", "--problem", "trios", "--n", "2", "--r", "1",
         "--max-states", "8", "--max-length", "7"),
        None,
        "5",
    ),
    (
        "work-cap",
        ("verify", "disjoint", "--problem", "trios", "--n", "1", "--r", "1",
         "--max-length", "8"),
        None,
        "10",
    ),
    (
        "digit-cap",
        ("prob", "expeq-compose", "--c", "3", "--m", "1", "--n", "1", "--r", "1/2916"),
        None,
        "10",
    ),
]


@pytest.mark.parametrize(
    "flag,argv,machine,low", _CAP_CASES, ids=[f"{c[0]}-{c[1][0]}" for c in _CAP_CASES]
)
def test_each_cap_from_flag_and_environment(
    capsys, monkeypatch, machine_files, flag, argv, machine, low
):
    argv = argv + ((machine_files[machine],) if machine else ())
    variable = "PROMATA_" + flag.replace("-", "_").upper()
    monkeypatch.delenv(variable, raising=False)
    assert run_cli(capsys, *argv)[0] == 0
    for cap in (low, "0"):
        code, out, err = run_cli(capsys, *argv, f"--{flag}", cap)
        assert (code, out) == (3, "")
        assert err.startswith("resource cap:") and err.count("\n") == 1
    monkeypatch.setenv(variable, low)
    assert run_cli(capsys, *argv)[:2] == (3, "")
    monkeypatch.setenv(variable, "ten")
    assert run_cli(capsys, *argv) == (
        2,
        "",
        f"error: environment variable {variable} must be an integer\n",
    )
    monkeypatch.setenv(variable, "-1")
    assert run_cli(capsys, *argv) == (
        2,
        "",
        f"error: environment variable {variable} must be non-negative\n",
    )
    assert run_cli(capsys, *argv, f"--{flag}", "-1") == (
        2,
        "",
        f"error: --{flag} must be non-negative\n",
    )


def test_twoway_dfa_reads_the_subset_cap(capsys, monkeypatch, machine_files):
    argv = ("convert", "--algorithm", "twoway-dfa", "--from", machine_files["2way"])
    monkeypatch.delenv("PROMATA_SUBSET_CAP", raising=False)
    assert run_cli(capsys, *argv)[0] == 0
    assert run_cli(capsys, *argv, "--subset-cap", "3") == (
        3,
        "",
        "resource cap: crossing construction exceeds 3 states\n",
    )
    monkeypatch.setenv("PROMATA_SUBSET_CAP", "3")
    assert run_cli(capsys, *argv)[:2] == (3, "")


# Each algorithm: the machine type it reads, the library call, and its error
# on a machine of the wrong type.
_CONVERT_CASES = [
    ("subset", "nfa", nfa_to_dfa, "the subset algorithm needs a nondeterministic machine"),
    ("eps-remove", "nfa", remove_epsilon, "silent-move removal needs a nondeterministic machine"),
    (
        "unary-afa-dfa",
        "afa",
        unary_afa_to_dfa,
        "valuation determinization needs an alternating machine",
    ),
    ("minimize", "dfa", dfa_minimize, "minimization needs a deterministic machine"),
    ("twoway-dfa", "2way", twoway_to_dfa, "the crossing construction needs a two-way machine"),
]


@pytest.mark.parametrize(
    "algorithm,tag,convert,message", _CONVERT_CASES, ids=[c[0] for c in _CONVERT_CASES]
)
def test_convert_each_algorithm(capsys, machine_files, algorithm, tag, convert, message):
    argv = ("convert", "--algorithm", algorithm, "--from")
    code, out, err = run_cli(capsys, *argv, machine_files[tag])
    assert (code, err) == (0, "")
    assert out == dumps(convert(load(machine_files[tag]))) + "\n"
    for other in machine_files:
        if other != tag:
            assert run_cli(capsys, *argv, machine_files[other]) == (2, "", f"error: {message}\n")


def _fake_results(failing=()):
    return [
        CriterionResult(number, f"title {number}", number not in failing, [f"d{number}"])
        for number in range(1, 12)
    ]


def test_reproduce_all_prints_lines_and_writes_json_only_under_out(
    tmp_path, capsys, monkeypatch
):
    tiers = []
    monkeypatch.setattr(
        cli.acceptance, "run_all", lambda tier: tiers.append(tier) or _fake_results()
    )
    code, out, err = run_cli(capsys, "reproduce-all")
    assert (code, err, tiers) == (0, "", ["fast"])
    assert out.splitlines() == [f"criterion {n}: PASS - title {n}" for n in range(1, 12)]
    path = tmp_path / "report.json"
    code, out_with_file, _ = run_cli(capsys, "reproduce-all", "--tier", "slow", "--out", str(path))
    assert (code, out_with_file, tiers[-1]) == (0, out, "slow")
    report = json.loads(path.read_text())
    assert report["tier"] == "slow" and report["all_passed"] is True
    assert report["criteria"][3] == {
        "number": 4,
        "title": "title 4",
        "passed": True,
        "details": ["d4"],
        "deviations": [],
    }


def test_reproduce_all_exits_1_when_a_criterion_fails(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli.acceptance, "run_all", lambda tier: _fake_results(failing={7}))
    path = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "reproduce-all", "--out", str(path))
    assert code == 1
    assert out.splitlines()[6] == "criterion 7: FAIL - title 7"
    assert json.loads(path.read_text())["all_passed"] is False


@pytest.mark.parametrize(
    "formula,n",
    [
        ("afa-to-dfa", 16),
        ("afa-to-dfa", 19),
        ("afa-to-dfa", 10**9),
        ("2nfa-to-dfa", 724),
        ("2nfa-to-dfa", 10**12),
        ("svfa-to-dfa", 330790),
        ("svfa-to-dfa", 4000002),
        ("svfa-to-dfa", 10**15),
    ],
)
def test_bounds_above_the_bit_cap_exit_3_at_once(capsys, formula, n):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bounds", "--formula", formula, "--n", str(n))
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err == f"resource cap: bound at n={n} exceeds the 524288-bit cap\n"


def test_bounds_2nfa_at_400_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "bounds", "--formula", "2nfa-to-dfa", "--n", "400")
    assert time.perf_counter() - start < 1
    assert code == 0
    assert len(json.loads(out)["value"]) == 47930


def _child_cli(*argv, timeout):
    """Exit code, stdout, stderr and wall seconds of the CLI run in a fresh
    interpreter, which the timeout stops if the command hangs."""
    src = str(Path(promata.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "promata.cli", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    return done.returncode, done.stdout, done.stderr, time.perf_counter() - start


def test_up_dfa_near_one_builds_in_seconds():
    code, out, _, _ = _child_cli("build", "up-dfa", "--p", "99999/100000", timeout=30)
    assert code == 0
    assert json.loads(out)["states"] == 28769


def test_up_dfa_past_the_iteration_cap_exits_3_within_a_second():
    *_, startup = _child_cli("bounds", "--formula", "2nfa-to-dfa", "--n", "1", timeout=30)
    code, out, err, seconds = _child_cli("build", "up-dfa", "--p", "999999/1000000", timeout=30)
    assert (code, out) == (3, "")
    assert err == "resource cap: critical lengths exceed the iteration cap 1000000\n"
    assert seconds - startup < 1



# --- every command that reads a machine file ends in a documented exit code ---

# Unary machines, one per type, so the evenodd problem fits each alphabet.
_READ_MACHINES = {
    "dfa": evenodd_dfa(1),
    "nfa": OneWayNfa(
        3, ("a",), 0, frozenset({(0, "a", 1), (1, EPSILON, 2), (2, "a", 0)}), frozenset({2})
    ),
    "afa": evenodd_afa_rt(1),
    "2way": TwoWayMachine(
        2,
        ("a",),
        0,
        frozenset({(0, "⊢", 0, RIGHT), (0, "a", 1, RIGHT), (1, "a", 0, RIGHT)}),
        frozenset({0}),
        True,
    ),
    "pfa": up_pfa(Fraction(1, 2)),
}
# The commands that read a machine file, which is appended to each.
_READERS = [
    ("simulate", "--word", "aaa", "--machine"),
    *(("convert", "--algorithm", name, "--from") for name in cli._CONVERSIONS),
    ("pumping", "--m", "2", "--machine"),
    ("verify", "promise", "--problem", "evenodd", "--k", "1", "--max-length", "3", "--machine"),
    ("prob", "exact", "--word", "aa", "--machine"),
    ("prob", "mc", "--word", "aa", "--trials", "50", "--machine"),
    ("prob", "lasvegas", "--problem", "evenodd", "--k", "1", "--max-length", "3", "--machine"),
]
_JUNK_VALUES = [None, True, False, -1, 0, 1, 2, 7, 1.5, "", "a", "b", "⊣", "R", "1/2", "1/0",
                [], [0], [0, "a", 1], {}, {"0": "accepting"}]


def _slots(value):
    """(container, key) for every value inside a JSON tree."""
    keys = value if isinstance(value, dict) else range(len(value))
    for key in keys:
        yield value, key
        if isinstance(value[key], (dict, list)):
            yield from _slots(value[key])


def _mutated(rng, data):
    """data after one or two seeded edits: mostly an integer set to 0..3,
    otherwise an entry dropped, repeated or replaced by junk."""
    data = json.loads(json.dumps(data))
    for _ in range(rng.randint(1, 2)):
        slots = list(_slots(data))
        numbers = [(parent, key) for parent, key in slots if type(parent[key]) is int]
        if numbers and rng.random() < 0.6:
            parent, key = rng.choice(numbers)
            parent[key] = rng.randrange(4)
            continue
        parent, key = rng.choice(slots)
        action = rng.choice(["drop", "repeat", "junk"])
        if action == "drop":
            del parent[key]
        elif action == "repeat" and isinstance(parent, list):
            parent.append(parent[key])
        else:
            parent[key] = rng.choice(_JUNK_VALUES)
    return data


def _assert_documented_exits(capsys, path, succeed=()):
    """Every reader exits 0-3 with no internal error, and those in succeed exit 0."""
    for reader in _READERS:
        code, _, err = run_cli(capsys, *reader, path)
        assert code in (0, 1, 2, 3) and "internal error" not in err, (reader, err)
        assert code == 0 or reader not in succeed, (reader, err)


def test_mutated_machine_files_end_in_a_documented_exit(capsys, monkeypatch, tmp_path):
    for variable in ("SUBSET_CAP", "VECTOR_CAP", "WORK_CAP"):
        monkeypatch.delenv(f"PROMATA_{variable}", raising=False)
    rng = random.Random("machine-file-readers")
    path = tmp_path / "mutant.json"
    for tag, machine in _READ_MACHINES.items():
        data = serialize.machine_to_dict(machine)
        for _ in range(12):
            path.write_text(json.dumps(_mutated(rng, data)))
            _assert_documented_exits(capsys, str(path))


def test_machine_files_declaring_2_20_states_end_in_a_documented_exit(capsys, tmp_path):
    # One move from state 0, which accepts, to the last of 1,048,576 states:
    # the NFA solves EvenOdd(1) up to length 3. Closing every state of such
    # an NFA once took O(states^2) bits and ran out of memory.
    last = (1 << 20) - 1
    one_move = {
        "dfa": [[0, "a", last]],
        "nfa": [[0, "a", last]],
        "afa": [[0, "a", last]],
        "2way": [[0, "a", last, "R"]],
    }
    for tag, transitions in one_move.items():
        data = serialize.machine_to_dict(_READ_MACHINES[tag])
        data.update(states=last + 1, transitions=transitions, accepting=[0], labels={})
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(data))
        succeed = [_READERS[0]]
        if tag == "nfa":
            succeed += [("convert", "--algorithm", "subset", "--from"), _READERS[-4]]
        _assert_documented_exits(capsys, str(path), succeed)


@pytest.mark.slow
def test_a_pfa_file_declaring_2_20_states_ends_in_a_documented_exit(capsys, tmp_path):
    # A PFA's roles cover every state, so its file runs to 22 MB and each
    # command takes over a second to read it: it goes through the commands
    # that take a PFA, and the all-neutral machine fails the Las Vegas check.
    last = (1 << 20) - 1
    data = serialize.machine_to_dict(_READ_MACHINES["pfa"])
    data.update(
        states=last + 1,
        transitions=[[0, "a", last, "1"]],
        roles=dict.fromkeys(map(str, range(last + 1)), "neutral"),
        labels={},
    )
    path = tmp_path / "pfa.json"
    path.write_text(json.dumps(data))
    for reader in (_READERS[0], *_READERS[-3:]):
        code, out, err = run_cli(capsys, *reader, str(path))
        assert (code, err) == (1 if "lasvegas" in reader else 0, ""), reader

"""Construction correctness against independent oracles.

Every machine family is checked two ways: the closed-form state count, and
agreement with a directly computed predicate (divisibility, segment
comparison, geometric decay) over an explicit range of inputs.
"""

import decimal
import hashlib
import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from promata import (
    SOLVES,
    PromiseProblem,
    ResourceCapError,
    afa_accepts,
    critical_lengths,
    dfa_run,
    dumps,
    evenodd_afa_epsfree,
    evenodd_afa_rt,
    evenodd_dfa,
    evenodd_problem,
    machine_accepts,
    outcome_dist,
    parity_dfa,
    parity_problem,
    promise_check,
    trios_dfa,
    trios_ladder,
    trios_lasvegas_pfa,
    trios_problem,
    trios_twoway_dfa,
    up_dfa,
    up_pfa,
    up_problem,
)
from promata.constructions import _first_length


# --- evenodd family ---


@pytest.mark.parametrize("k", range(1, 9))
def test_evenodd_dfa_size(k):
    assert evenodd_dfa(k).state_count == 2 ** (k + 1)


def _evenodd_afa_moves(k):
    return (3 * k * k + 23 * k + 4) // 2


@pytest.mark.parametrize("k", range(1, 9))
def test_evenodd_afa_size(k):
    machine = evenodd_afa_rt(k)
    assert machine.state_count == 7 * k + 2
    assert len(machine.transitions) == _evenodd_afa_moves(k)


@pytest.mark.parametrize("k", range(3, 9))
def test_evenodd_afa_epsfree_size(k):
    machine = evenodd_afa_epsfree(k)
    assert machine.state_count == 11 * k - 14
    assert len(machine.transitions) == _evenodd_afa_moves(k - 2) + 4 * k - 2


def test_evenodd_constructions_reject_bad_order():
    with pytest.raises(ValueError):
        evenodd_dfa(0)
    with pytest.raises(ValueError):
        evenodd_afa_rt(0)
    with pytest.raises(ValueError):
        evenodd_afa_epsfree(2)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_evenodd_dfa_counts_modulo(k):
    dfa = evenodd_dfa(k)
    modulus = 2 ** (k + 1)
    for n in range(4 * modulus + 1):
        assert machine_accepts(dfa, "a" * n) == (n % modulus == 0)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_evenodd_afa_divisibility_everywhere(k):
    """The alternating machine decides divisibility on all inputs, not just
    promise instances: a^n is accepted iff 2^{k+1} divides n."""
    afa = evenodd_afa_rt(k)
    modulus = 2 ** (k + 1)
    for n in range(4 * modulus + 1):
        assert afa_accepts(afa, "a" * n) == (n % modulus == 0), n


def test_evenodd_afa_accepts_empty_word():
    assert afa_accepts(evenodd_afa_rt(2), "")


def test_evenodd_afa_rejects_half_period():
    assert not afa_accepts(evenodd_afa_rt(1), "aa")


@pytest.mark.parametrize("k", [3, 4])
def test_evenodd_epsfree_quarters_the_length(k):
    """Every original step costs four letters after padding, so on inputs
    of length 4m the machine accepts iff the (k-2)-order machine accepts
    a^m; both amount to divisibility by 2^{k+1}."""
    machine = evenodd_afa_epsfree(k)
    small = evenodd_afa_rt(k - 2)
    for m in range(4 * 2 ** (k - 1) + 1):
        got = afa_accepts(machine, "a" * (4 * m))
        assert got == afa_accepts(small, "a" * m), m
        assert got == (4 * m % 2 ** (k + 1) == 0), m


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_evenodd_machines_solve_their_problem(k):
    problem = evenodd_problem(k)
    horizon = 2 ** (k + 3)
    assert promise_check(evenodd_dfa(k), problem, horizon).verdict == SOLVES
    assert promise_check(evenodd_afa_rt(k), problem, horizon).verdict == SOLVES


@pytest.mark.parametrize("k", [3, 4])
def test_evenodd_epsfree_solves_its_problem(k):
    problem = evenodd_problem(k)
    horizon = 2 ** (k + 3)
    assert promise_check(evenodd_afa_epsfree(k), problem, horizon).verdict == SOLVES


def test_evenodd_epsfree_language_on_all_lengths():
    """Acceptance off the padded grid is also pinned down: a^n is accepted
    iff n is a multiple of 4 whose quarter passes the order-1 machine, which
    collapses to divisibility by 16."""
    machine = evenodd_afa_epsfree(3)
    for n in range(129):
        assert afa_accepts(machine, "a" * n) == (n % 16 == 0), n


def test_evenodd_epsfree_has_no_silent_moves():
    from promata import EPSILON

    machine = evenodd_afa_epsfree(5)
    assert all(sym is not EPSILON for _, sym, _ in machine.transitions)


# sha256 of dumps(machine): every state, label, move and state set of the
# EvenOdd alternating machines as they were first built from named states.
_EVENODD_AFA_SHA256 = {
    ("rt", 1): "eaeecd5b6bbd938f77d5644bb73fabde7bb46b9aae82c01be1811ea9ba4e6133",
    ("rt", 2): "04b76c5130cef3c592c9f8828190a22a9c8e61785635f611d607295c4b8a9340",
    ("rt", 3): "10f9487b0e914b955522542572f0c904c17c3b874c6ebe82be871b6cb3d68bcc",
    ("rt", 4): "f1edfaa99677e72d6676079ae3157d81c1c8446f96d8f15fdb0a035458691db4",
    ("rt", 5): "c3b990529fd7b6b0f8995f2d333434c6c69677cadd71d0e0ed08283595618669",
    ("rt", 6): "0716eb28d01327bbb08e40514e43a43c153b1cb5ce362c53392ff8eb153df5cc",
    ("rt", 7): "2b9b443106dc0482c15ecc301831e07f7ca48cedca865436c2fe5e0c301ec76e",
    ("rt", 8): "af1d63703bbeec486324e8f9c453eec1b46eef28b4f2af6238fabc8a911a29bb",
    ("epsfree", 3): "47b15d76751edcec63daa978d9ab5a722e1c480a826b02a8b2d7c955f24ceb2f",
    ("epsfree", 4): "647bf2d25047fe687468008dd7d3c172de76b75dd2aed6a3adc8e43a1af1776c",
    ("epsfree", 5): "a5ef403a54f288dc2f5fb036c629c1c0abb9f125eb5fb06084494914437b3d20",
    ("epsfree", 6): "5df541610f19bf90138021c98aa0c52a6e42d848ce93f8b5b741752c1417de16",
    ("epsfree", 7): "9c20bc7d65a248d2c3ab6fddb82387eadea07660ba2d63950133ae92ee06b094",
    ("epsfree", 8): "73a334886e4f571f80ab1b78013d83165b89d541831b3c0733e4af9ef8138727",
}


@pytest.mark.parametrize("kind, k", sorted(_EVENODD_AFA_SHA256), ids=str)
def test_evenodd_afas_keep_their_serialized_form(kind, k):
    build = {"rt": evenodd_afa_rt, "epsfree": evenodd_afa_epsfree}[kind]
    digest = hashlib.sha256(dumps(build(k)).encode()).hexdigest()
    assert digest == _EVENODD_AFA_SHA256[kind, k]


def test_evenodd_afas_cap_their_moves_before_building_them():
    """rt(833) has 5,833 states but 1,050,415 moves, above the cap of 2^20;
    the state check still comes first."""
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match="^evenodd_afa_rt needs 1050415 moves, "):
        evenodd_afa_rt(833)
    with pytest.raises(ResourceCapError, match="^evenodd_afa_rt needs 15001150002 moves, "):
        evenodd_afa_rt(100_000)
    with pytest.raises(ResourceCapError, match="^evenodd_afa_epsfree needs 1048730 moves, "):
        evenodd_afa_epsfree(833)
    with pytest.raises(ResourceCapError, match="^evenodd_afa_rt needs 700000002 states, "):
        evenodd_afa_rt(100_000_000)
    with pytest.raises(ResourceCapError, match="^evenodd_afa_epsfree needs 1099986 states, "):
        evenodd_afa_epsfree(100_000)
    assert time.perf_counter() - start < 1


def test_evenodd_problem_classification():
    problem = evenodd_problem(2)
    # promise: length divisible by 4; yes iff divisible by 8
    assert problem.yes_member("")
    assert problem.yes_member("a" * 8)
    assert problem.no_member("a" * 4)
    assert problem.no_member("a" * 12)
    assert not problem.yes_member("a" * 2)
    assert not problem.no_member("a" * 2)


# --- trios family ---


@pytest.mark.parametrize("n", range(1, 9))
def test_trios_pfa_size(n):
    assert trios_lasvegas_pfa(n, 2).state_count == 4 * n + 3


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_trios_dfa_size(n):
    assert trios_dfa(n, 1).state_count == 3 * 2**n + n - 2


@pytest.mark.parametrize("n", range(1, 9))
def test_trios_twoway_size(n):
    assert trios_twoway_dfa(n, 1).state_count == max(9 * n + 1, 11) <= 12 * n + 8


# sha256 of dumps(machine) for trios_dfa(n, 1), trios_twoway_dfa(n, 1) and
# trios_lasvegas_pfa(n, 2): every state, label, move, probability and state
# set of the TRIOS machines as they were first built from named states.
_TRIOS_SHA256 = {
    ("dfa", 1): "a0c0a028c408422ffd9a320f442850741a1f9399b272f2a0e2ab6052156dc1e9",
    ("dfa", 2): "13461b3d8ee41a263cbd56f7253d7c59a26a26792797ea75dbf6536fdcaac16c",
    ("dfa", 3): "af7410ba2c2b09f79d937b0cf9e372a46fac841296e85333e57bec7dbf54b68d",
    ("dfa", 4): "23072f0428f06aec373a26afdbfea561ee2c9b8782444b6a9358e62ede244494",
    ("dfa", 5): "045411e287e77a564704f76a41df20981c60df8d3c1cddfb3bfa126927ad9ca5",
    ("dfa", 6): "796b2daaf569ba55851ab4c8acc836a54244e75f639dbb8be165d5a60c9f88b4",
    ("twoway", 1): "16b90ed697514d15a7918c3d393039922bc45be9e28b3b80a5cfae32b93b2f5e",
    ("twoway", 2): "3fb34c7e7119626841b4e529b129f1fd092e589e3a80031094974bb7fc0048bb",
    ("twoway", 3): "312a70cf3f58dee9333c5c84ea2aeef7b52c30f91c3ca5d2ca6dd7bcbd0ec5c4",
    ("twoway", 4): "cbad1c4825edb5900437c37a094c87f409127211bbf44bc0aa876a3bb078f9a0",
    ("twoway", 5): "00f7be1daa4ed50a1449466dc661e956e419bf683c7064dbafb37f359a324c65",
    ("twoway", 6): "944223c91f469ef32aed5885756ffb987fb09e36d00d2b861d0b50851a4baf5f",
    ("twoway", 7): "285d9e6313a9ababdf7cf79246b99c89dd427d9d3421f3e4560dbfd9c109f496",
    ("twoway", 8): "5eb55eab4a3109c8986a2890f23209a92e8087b0028d9faecc41e35983484b5d",
    ("pfa", 1): "352b24e991e551c24ca1f080dc991a936b9093e0d5db65bc0d85513c14706a33",
    ("pfa", 2): "55c1bac0d20cb3f4b280d90661e7922a2a60f04b05cce9039f399235accec379",
    ("pfa", 3): "627afe1291adc5034dc62a4ab78101fdf9596a6fb4a2aff8cf3c6f1c48caf337",
    ("pfa", 4): "5bc47d474b36ac80482131a78f0f4eef897be6d4f64419864775dcbf86ec1765",
    ("pfa", 5): "d98e9a6dffe2266617cb9569969bbdc85603e9e1d640e65b19ede12e8d877fc8",
    ("pfa", 6): "c209c85573a5eec3faeeba03b38d8a2cb647908437f5d2e4d186ef5e96b29c96",
    ("pfa", 7): "7c3ff4b5c89e768e2a49f5f19b01600ffe3f81441116c042b22e499f1c8fe240",
    ("pfa", 8): "76fe3ba5bff15d7f3d4b4c90c776994ab7b255267ddc73376c629b9852cb094b",
}


@pytest.mark.parametrize("kind, n", sorted(_TRIOS_SHA256), ids=str)
def test_trios_machines_keep_their_serialized_form(kind, n):
    machine = {
        "dfa": lambda: trios_dfa(n, 1),
        "twoway": lambda: trios_twoway_dfa(n, 1),
        "pfa": lambda: trios_lasvegas_pfa(n, 2),
    }[kind]()
    assert hashlib.sha256(dumps(machine).encode()).hexdigest() == _TRIOS_SHA256[kind, n]


def test_trios_ladder_probabilities():
    for n in range(1, 11):
        ladder = trios_ladder(n)
        assert len(ladder) == n
        assert ladder == tuple(Fraction(1, n - j + 1) for j in range(1, n + 1))
        assert ladder[-1] == 1


def test_trios_problem_segments():
    problem = trios_problem(1, 1)
    assert problem.yes_member("#001")
    assert problem.no_member("#101")
    assert not problem.yes_member("#000")
    assert not problem.no_member("#000")
    assert not problem.yes_member("#001#001")


def test_trios_problem_multi_segment():
    problem = trios_problem(1, 2)
    assert problem.yes_member("#001#001")
    assert problem.no_member("#101#101")
    assert not problem.yes_member("#001")


def test_trios_instances_counted():
    # n=1, r=1: yes = {#001}, no = {#101}
    instances = trios_problem(1, 1).enumerate_instances(4)
    assert sorted(instances) == [("#001", "yes"), ("#101", "no")]


@pytest.mark.parametrize("n,r", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_trios_machines_agree(n, r):
    problem = trios_problem(n, r)
    horizon = r * (1 + 3 * n)
    for machine in (trios_dfa(n, r), trios_twoway_dfa(n, r)):
        assert promise_check(machine, problem, horizon).verdict == SOLVES


def test_trios_twoway_decides_promise_words():
    machine = trios_twoway_dfa(1, 1)
    assert machine_accepts(machine, "#001")
    assert not machine_accepts(machine, "#101")


def test_trios_pfa_never_lies():
    """On promise instances, all non-neutral probability mass agrees with
    the classification: accepting mass on no-instances is exactly zero and
    vice versa."""
    for n, r in [(1, 1), (2, 1), (2, 2)]:
        pfa = trios_lasvegas_pfa(n, r)
        for word, cls in trios_problem(n, r).enumerate_instances(r * (1 + 3 * n)):
            dist = outcome_dist(pfa, word)
            if cls == "yes":
                assert dist.reject == 0, (n, r, word)
                assert dist.accept > 0, (n, r, word)
            else:
                assert dist.accept == 0, (n, r, word)
                assert dist.reject > 0, (n, r, word)


def test_trios_pfa_success_follows_ladder():
    # n=1: the single comparison position is found with probability 1.
    pfa = trios_lasvegas_pfa(1, 1)
    assert outcome_dist(pfa, "#001").accept == 1
    assert outcome_dist(pfa, "#101").reject == 1


# --- up family ---


@pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)])
def test_up_pfa_geometric_decay(p):
    pfa = up_pfa(p)
    assert pfa.state_count == 2
    for j in range(30):
        assert outcome_dist(pfa, "a" * j).accept == p**j


@pytest.mark.parametrize(
    "p", [Fraction(1, 3), Fraction(1, 2), Fraction(9, 10), Fraction(49, 50)]
)
def test_up_enumerator_matches_brute_force(p):
    problem = up_problem(p)
    brute = PromiseProblem(problem.alphabet, problem.yes_member, problem.no_member)
    for max_length in (0, 1, 2, 30, 120):
        assert problem.enumerate_instances(max_length) == brute.enumerate_instances(
            max_length
        )


def test_up_pfa_rejects_bad_probability():
    with pytest.raises(ValueError):
        up_pfa(Fraction(0))
    with pytest.raises(ValueError):
        up_pfa(Fraction(1))
    with pytest.raises(ValueError):
        up_pfa(Fraction(3, 2))


@pytest.mark.parametrize(
    "p,expected",
    [
        (Fraction(1, 2), (0, 2)),
        (Fraction(9, 10), (2, 14)),
        (Fraction(3, 4), (1, 5)),
    ],
)
def test_critical_lengths_pinned(p, expected):
    assert critical_lengths(p) == expected


def test_critical_lengths_definition():
    """A_p is the last length with acceptance >= 3/4; R_p the first with
    acceptance <= 1/4."""
    for p in (Fraction(1, 2), Fraction(2, 3), Fraction(9, 10)):
        accept_at, reject_at = critical_lengths(p)
        assert p**accept_at >= Fraction(3, 4)
        assert p ** (accept_at + 1) < Fraction(3, 4)
        assert p**reject_at <= Fraction(1, 4)
        if reject_at:
            assert p ** (reject_at - 1) > Fraction(1, 4)


def _critical_lengths_by_iteration(p, iteration_cap):
    """The reference: step the exact powers p^0, p^1, ... one at a time."""
    power = Fraction(1)
    last_high = 0
    for j in range(iteration_cap + 1):
        if power >= Fraction(3, 4):
            last_high = j
        if power <= Fraction(1, 4):
            return last_high, j
        power *= p
    raise ResourceCapError(f"critical lengths exceed the iteration cap {iteration_cap}")


def test_critical_lengths_match_iteration_on_seeded_p():
    rng = random.Random(52017)
    checked = capped = 0
    while checked < 300:
        den = rng.choice([rng.randint(2, 50), rng.randint(2, 10**6), 10 ** rng.randint(1, 9)])
        num = rng.randint(max(1, den - max(1, den // rng.choice([1, 10, 1000]))), den - 1)
        p = Fraction(num, den)
        if math.log(4) > 1900 * -math.log(p):  # R is near or above the oracle's cap
            continue
        expected = _critical_lengths_by_iteration(p, 2000)
        cap = rng.choice([2000, expected[1], expected[1] - 1])
        if cap < expected[1]:
            with pytest.raises(ResourceCapError):
                critical_lengths(p, cap)
            capped += 1
        else:
            assert critical_lengths(p, cap) == expected, p
        checked += 1
    assert capped > 50


def _root_neighbours(level, j, digits=40):
    """The two fractions over 10^digits around level^(1/j): p_lo^j <= level < p_hi^j."""
    with decimal.localcontext() as ctx:
        ctx.prec = 2 * digits
        low = int((Decimal(level.numerator) / level.denominator) ** (Decimal(1) / j) * 10**digits)
    den = 10**digits
    while low**j * level.denominator > level.numerator * den**j:
        low -= 1
    while (low + 1) ** j * level.denominator <= level.numerator * den**j:
        low += 1
    return Fraction(low, den), Fraction(low + 1, den)


@pytest.mark.parametrize("j", [1, 2, 7, 100, 300])
@pytest.mark.parametrize("level", [Fraction(1, 4), Fraction(3, 4)])
def test_critical_lengths_at_close_boundaries(level, j):
    """p^j lands within 10^-38 of 1/4 or 3/4, closer than a float logarithm
    can tell, or exactly on it (1/2 and 1/4 to 1/4, 3/4 to 3/4)."""
    cases = list(_root_neighbours(level, j))
    cases += [p for p in (Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)) if p**j == level]
    for p in cases:
        if 0 < p < 1:
            assert critical_lengths(p) == _critical_lengths_by_iteration(p, 2000), p


@pytest.mark.parametrize("answer", [0, 1, 2, 37, 1000])
def test_first_length_does_not_depend_on_the_guess(answer):
    for guess in [0, 1, answer - 1, answer, answer + 1, 3 * answer + 7, 10**6]:
        assert _first_length(lambda j: j >= answer, max(guess, 0)) == answer


def test_critical_lengths_within_float_precision_of_0_and_1():
    assert critical_lengths(Fraction(1, 10**400)) == (0, 1)
    assert critical_lengths(Fraction(1, 3**5000)) == (0, 1)
    for p in (Fraction(10**400 - 1, 10**400), 1 - Fraction(1, 2**60), Fraction(999999, 1000000)):
        with pytest.raises(ResourceCapError):
            critical_lengths(p)


def test_critical_lengths_near_one():
    assert critical_lengths(Fraction(99999, 100000)) == (28768, 138629)


@pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(3, 5), Fraction(9, 10)])
def test_up_dfa_solves_the_chain_problem(p):
    accept_at, reject_at = critical_lengths(p)
    dfa = up_dfa(p)
    assert dfa.state_count == accept_at + 1
    report = promise_check(dfa, up_problem(p), reject_at + 5)
    assert report.verdict == SOLVES


def test_up_problem_is_two_point():
    p = Fraction(1, 2)
    accept_at, reject_at = critical_lengths(p)
    problem = up_problem(p)
    assert problem.yes_member("a" * accept_at)
    assert problem.no_member("a" * reject_at)
    assert not problem.yes_member("a" * (accept_at + 1))
    instances = problem.enumerate_instances(reject_at)
    assert len(instances) == 2


def test_up_enumeration_stops_multiplying_past_the_first_no_instance():
    # Past R every length is a no instance; the powers p^j need not grow.
    p = Fraction(999, 1000)
    accept_at, reject_at = critical_lengths(p)
    start = time.perf_counter()
    coded = up_problem(p)._coded(100_000)
    assert time.perf_counter() - start < 1.0
    lengths = [(keep + len(suffix), cls) for keep, suffix, cls in coded]
    expected = [(j, "yes") for j in range(accept_at + 1)]
    expected += [(j, "no") for j in range(reject_at, 100_001)]
    assert lengths == expected


def test_up_dfa_sticks_past_the_accept_length():
    p = Fraction(9, 10)
    accept_at, reject_at = critical_lengths(p)
    dfa = up_dfa(p)
    assert dfa_run(dfa, "a" * accept_at).outcome == "accept"
    longer = dfa_run(dfa, "a" * reject_at)
    assert longer.outcome == "stuck"


# --- parity ---


def test_parity_dfa_two_states():
    dfa = parity_dfa()
    assert dfa.state_count == 2
    for n in range(10):
        assert machine_accepts(dfa, "a" * n) == (n % 2 == 0)


def test_parity_problem_round_trip():
    problem = parity_problem(lambda n: True)
    report = promise_check(parity_dfa(), problem, 9)
    assert report.verdict == SOLVES

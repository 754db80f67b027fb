"""Acceptance gate: one check per shipped claim, one printed line each.

Each test runs a registered criterion, prints its pass/fail line (visible
with pytest -s or on failure), and asserts the criterion holds. The slow
variant at the bottom widens the exhaustive-search criterion.
"""

import pytest

from promata.acceptance import (
    CRITERIA,
    TIER_FAST,
    TIER_SLOW,
    _chain_holds,
    run_criterion,
)
from promata.conversions import _floor_cbrt

TITLES = [
    "construction state counts",
    "divisibility machines solve their problems",
    "minimal unary sizes and pumping",
    "determinization reproduces the counter",
    "trade-off formulas",
    "zero-error segment machines meet the bound",
    "three-state exhaustion for segments",
    "stochastic chain analysis",
    "round composition bounds and traversal pumping",
    "sampled frequencies track exact probabilities",
    "restart-round accounting",
]


def _run(number, tier=TIER_FAST):
    result = run_criterion(number, tier)
    print(result.line)
    assert result.passed, result.line + "\n" + "\n".join(result.details)
    return result


def test_criterion_01_construction_state_counts():
    _run(1)


def test_criterion_02_divisibility_machines_solve():
    _run(2)


def test_criterion_03_minimal_unary_sizes_and_pumping():
    _run(3)


def test_criterion_04_determinization_reproduces_counter():
    _run(4)


def test_criterion_05_tradeoff_formulas():
    _run(5)


def test_criterion_06_zero_error_success_bound():
    _run(6)


def test_criterion_07_three_state_exhaustion():
    _run(7)


def test_criterion_08_stochastic_chain_analysis():
    _run(8)


def test_criterion_09_round_composition_and_traversal():
    _run(9)


def test_criterion_10_sampling_tracks_exact():
    _run(10)


def test_criterion_11_restart_round_accounting():
    _run(11)


def test_registry_holds_each_criterion_once_in_order():
    assert list(CRITERIA) == list(range(1, 12))
    results = [run_criterion(number) for number in CRITERIA]
    assert [result.number for result in results] == list(range(1, 12))
    assert [result.title for result in results] == TITLES
    assert [result.number for result in results if result.deviations] == [2, 5, 9]
    assert [CRITERIA[number].__name__ for number in CRITERIA] == [
        f"criterion_{number}" for number in range(1, 12)
    ]


def test_exponent_chain_matches_a_direct_power_comparison():
    # At s = 32 fractional bits, hi / 2^s bounds 1 + 3^((n-1)/3) from above
    # closely enough that raising it to the 1000th power decides the chain.
    s = 32
    for n in range(1, 31):
        scaled = 3 ** (n - 1) << 3 * s
        c = _floor_cbrt(scaled)
        hi = (1 << s) + c + (c**3 != scaled)
        assert _chain_holds(n) == (hi**1000 <= 1 << (529 * n + 1000 * s)), n
    assert [n for n in range(1, 31) if not _chain_holds(n)] == [1, 2, 3]


@pytest.mark.slow
def test_criterion_03_wider_search_slice():
    _run(3, tier=TIER_SLOW)

"""The built-in enumerators' front-coded streams against word-building oracles.

Each oracle lists a problem's (word, class) instances the way the
enumerators did before they were front-coded: one whole word per instance.
A built-in stream must decode to the oracle's list, in the same order, and
each of its keeps must be the exact longest common prefix with the previous
word, so verification steps over no symbol twice.
"""

import os
from fractions import Fraction
from itertools import product

import pytest

from promata import (
    SOLVES,
    evenodd_problem,
    expeq_problem,
    parity_problem,
    promise_check,
    trios_dfa,
    trios_problem,
    up_problem,
)
from promata import machines
from promata.constructions import _trios_pairs
from promata.exactmath import ceil_ln
from promata.machines import Stepper


def _evenodd_oracle(k, max_length):
    block, period = 1 << k, 1 << (k + 1)
    return [
        ("a" * n, "yes" if n % period == 0 else "no") for n in range(0, max_length + 1, block)
    ]


def _parity_oracle(member, max_length):
    return [
        ("a" * length, "yes" if length % 2 == 0 else "no")
        for length in range(max_length + 1)
        if member(length // 2)
    ]


def _up_oracle(p, max_length):
    out = []
    for j in range(max_length + 1):
        if p**j >= Fraction(3, 4):
            out.append(("a" * j, "yes"))
        elif p**j <= Fraction(1, 4):
            out.append(("a" * j, "no"))
    return out


def _trios_oracle(n, r, max_length):
    if r * (3 * n + 1) > max_length:
        return []
    out = []
    for cls in ("yes", "no"):
        for combo in product(_trios_pairs(n, cls), repeat=r):
            if cls == "yes":
                out.append(("".join(f"#{x}{x}{y}" for x, y in combo), cls))
            else:
                out.append(("".join(f"#{x}{y}{x}" for x, y in combo), cls))
    return out


def _expeq_rounds(c, total):
    return 3 * (2 * c * c) ** total * ceil_ln(c)


def _expeq_oracle(c, max_length):
    out = []
    total = 2
    while total * _expeq_rounds(c, total) <= max_length:
        for m in range(1, total):
            word = ("a" * m + "b" * (total - m)) * _expeq_rounds(c, total)
            out.append((word, "yes" if 2 * m == total else "no"))
        total += 1
    return out


def _lcp(a, b):
    return len(os.path.commonprefix([a, b]))


def _check_stream(problem, oracle, max_length):
    expected = oracle(max_length)
    assert problem.enumerate_instances(max_length) == expected
    word = ""
    for (keep, suffix, cls), (expected_word, expected_cls) in zip(
        problem.enumerator(max_length), expected, strict=True
    ):
        assert keep == _lcp(word, expected_word)
        word = word[:keep] + suffix
        assert (word, cls) == (expected_word, expected_cls)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_evenodd_stream_matches_oracle(k):
    for max_length in (0, 1, 2, 31, 64, 70):
        _check_stream(evenodd_problem(k), lambda n: _evenodd_oracle(k, n), max_length)


MEMBER_SETS = {
    "all": lambda m: True,
    "none": lambda m: False,
    "multiples_of_3": lambda m: m % 3 == 0,
    "odd": lambda m: m % 2 == 1,
    "sparse": lambda m: m in {0, 2, 5, 7, 19},
}


@pytest.mark.parametrize("name", sorted(MEMBER_SETS))
def test_parity_stream_matches_oracle(name):
    member = MEMBER_SETS[name]
    for max_length in (0, 1, 2, 15, 40):
        _check_stream(parity_problem(member), lambda n: _parity_oracle(member, n), max_length)


@pytest.mark.parametrize("p", [(1, 2), (3, 5), (4, 5), (9, 10), (19, 20), (49, 50)])
def test_up_stream_matches_oracle(p):
    p = Fraction(*p)
    for max_length in (0, 1, 2, 30, 120):
        _check_stream(up_problem(p), lambda n: _up_oracle(p, n), max_length)


@pytest.mark.parametrize("n, r", [(1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_trios_stream_matches_oracle(n, r):
    total = r * (3 * n + 1)
    for max_length in (total - 1, total, total + 3):
        _check_stream(trios_problem(n, r), lambda m: _trios_oracle(n, r, m), max_length)


def test_expeq_stream_matches_oracle():
    """Up to total 4 every way a word's first block can follow the previous
    word's last one occurs: after the empty word, after ab and after aab."""
    horizon = 4 * _expeq_rounds(3, 4)
    assert len(_expeq_oracle(3, horizon)) == 1 + 2 + 3
    for max_length in (0, 2 * _expeq_rounds(3, 2), horizon - 1, horizon):
        _check_stream(expeq_problem(3), lambda n: _expeq_oracle(3, n), max_length)


def test_promise_check_steps_only_the_unshared_symbols(monkeypatch):
    """promise_check on TRIOS(2,2) steps len(w) - LCP(previous, w) times per
    instance w, and no more."""
    steps = []
    stepper_of = machines._stepper

    def counting(machine):
        inner = stepper_of(machine)

        def step(value, sym):
            steps.append(sym)
            return inner.step(value, sym)

        return Stepper(inner.start, step, inner.outcome, inner.reverse)

    monkeypatch.setattr(machines, "_stepper", counting)
    words = [word for word, _ in _trios_oracle(2, 2, 14)]
    report = promise_check(trios_dfa(2, 2), trios_problem(2, 2), 14)
    assert report.verdict == SOLVES
    assert report.measured["instances"] == len(words)
    expected = sum(len(w) - _lcp(v, w) for v, w in zip(["", *words], words))
    assert len(steps) == expected
    assert expected < sum(map(len, words)) // 2

"""The benchmark's workloads: seeded job lists, job runners and known answers.

A job is a kind plus plain parameters, drawn from the seed alone. Running a
job calls promata's public functions through the module objects handed in,
so the tracer's wrappers are seen, and builds every machine and problem from
the parameters inside the timed call. Checking a job compares its result with
a known answer: a closed form, a known search minimum, or an independent
exact computation done outside the timed region.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("sweep", "long", "search")


@dataclass(frozen=True)
class Job:
    ident: int
    kind: str
    params: tuple


def digest(jobs: list[Job]) -> str:
    """Hash of every generated input, in job order."""
    text = repr([(job.kind, job.params) for job in jobs])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build_jobs(workload: str, seed: int) -> list[Job]:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    specs = _GENERATORS[workload](rng)
    rng.shuffle(specs)
    return [Job(i, kind, params) for i, (kind, params) in enumerate(specs)]


# ---------------------------------------------------------------------------
# Generators: (kind, params) lists drawn from the workload's random stream.
#
# Each workload has a fixed shape: the parameters that set a job's cost
# (orders, horizons, lengths, state counts) come from the tables below, and
# the seed draws what does not move the cost much: job order, word contents,
# machine structure and labels, promise classes of random instances, signs
# and small jitters. Different seeds thus give different inputs but nearly
# the same amount of work, so run-to-run spread measures the program rather
# than the draw.


def _gen_sweep(rng: random.Random) -> list:
    specs = []
    # EvenOdd machines against their own problem. Every horizon is at least
    # 2^k, so it holds a no instance.
    for model, ks, horizons in (
        ("dfa", range(1, 7), (128, 256, 512)),
        ("nfa_view", range(1, 6), (64, 128, 256)),
        ("afa_rt", range(1, 6), (32, 64)),
        ("afa_epsfree", range(3, 6), (32, 64)),
    ):
        for k in ks:
            for horizon in horizons:
                specs.append(("evenodd_check", (model, k, k, horizon)))
    # A minority that must fail: the machine of order k against order k+1.
    for model, ks, horizon in (
        ("dfa", range(1, 5), 256),
        ("afa_rt", range(1, 4), 64),
        ("nfa_view", range(1, 4), 256),
    ):
        for k in ks:
            specs.append(("evenodd_check", (model, k, k + 1, horizon)))
    for model in ("dfa", "2dfa"):
        for n, r in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1)):
            specs.append(("trios_check", (model, n, r)))
    specs.append(("trios_check", ("dfa", 3, 2)))
    for p in _UP_PS:
        specs.append(("up_check", (p, rng.randrange(0, 30))))
    for q in (2, 3, 4, 5):
        for horizon in (100, 200, 300):
            residues = tuple(sorted(rng.sample(range(q), max(1, q // 2))))
            specs.append(("parity_check", (q, residues, horizon)))
    for n, r in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)):
        specs.append(("lasvegas", (n, r, "bound")))
    for n, r in ((2, 1), (2, 2), (3, 1)):
        specs.append(("lasvegas", (n, r, "above")))
    specs += [("criterion", (1,)), ("criterion", (11,))]
    return specs


_UP_PS = ((1, 2), (3, 5), (4, 5), (9, 10), (19, 20), (49, 50))


def _trios_word(rng: random.Random, n: int, segments: int, cls: str) -> str:
    """A TRIOS(n, segments) instance of the given class."""
    parts = []
    witness = ("0", "1") if cls == "yes" else ("1", "0")
    for _ in range(segments):
        while True:
            x = "".join(rng.choice("01") for _ in range(n))
            y = "".join(rng.choice("01") for _ in range(n))
            if any((a, b) == witness for a, b in zip(x, y)):
                break
        parts.append(f"#{x}{x}{y}" if cls == "yes" else f"#{x}{y}{x}")
    return "".join(parts)


def _random_nfa(rng: random.Random, states: int) -> tuple:
    """(state_count, alphabet, transitions, accepting) over {a, b}.

    Every state has exactly two moves on every symbol and one silent move is
    added, so the subset simulation never empties out and every symbol is
    really processed.
    """
    moves = {
        (q, sym, p) for q in range(states) for sym in "ab" for p in rng.sample(range(states), 2)
    }
    moves.add((rng.randrange(states), None, rng.randrange(states)))
    accepting = tuple(q for q in range(states) if rng.random() < 0.4) or (0,)
    return states, ("a", "b"), tuple(sorted(moves, key=repr)), accepting


def _nth_from_last_nfa(rng: random.Random, n: int) -> tuple:
    """NFA for "the n-th symbol from the end is x" over {a, b, c}, relabelled.

    Its subset construction reaches exactly 2^n subsets, 2^(n-1) of them
    accepting, whatever the seed-drawn state numbering and choice of x.
    """
    label = [0, *rng.sample(range(1, n + 1), n)]
    mark = rng.choice("abc")
    moves = {(label[0], sym, label[0]) for sym in "abc"}
    moves.add((label[0], mark, label[1]))
    for i in range(1, n):
        moves |= {(label[i], sym, label[i + 1]) for sym in "abc"}
    return n + 1, ("a", "b", "c"), tuple(sorted(moves, key=repr)), (label[n],)


def _unary_length(rng: random.Random, k: int, length: int) -> int:
    """About ``length``: a multiple of 2^(k+1), or one off it, by the seed."""
    period = 2 ** (k + 1)
    length -= length % period
    return length if rng.random() < 0.5 else length + rng.randrange(1, period)


def _gen_long(rng: random.Random) -> list:
    specs = []
    for model, k in (
        ("afa_rt", 2),
        ("afa_rt", 3),
        ("afa_rt", 4),
        ("afa_rt", 5),
        ("afa_epsfree", 3),
        ("afa_epsfree", 4),
    ):
        specs.append(("afa_word", (model, k, _unary_length(rng, k, 600))))
    for k in range(1, 10):
        for length in (3000, 6000):
            specs.append(("dfa_word", (k, _unary_length(rng, k, length))))
    for k in range(1, 6):
        for length in (1000, 2000):
            specs.append(("nfa_view_word", (k, _unary_length(rng, k, length))))
    for model, length, classes in (
        ("dfa", 4000, ("yes", "yes", "no")),
        ("2dfa", 2000, ("yes", "no")),
    ):
        for n in (1, 2, 3):
            for cls in classes:
                segments = length // (3 * n + 1)
                specs.append(("trios_word", (model, n, cls, _trios_word(rng, n, segments, cls))))
    for n in (2, 3):
        for cls in ("yes", "no"):
            specs.append(("trios_word", ("sampler", n, cls, _trios_word(rng, n, 30, cls))))
    for states in (5, 6, 7, 8, 9, 5, 6, 7, 8, 9, 6, 8):
        word = "".join(rng.choice("ab") for _ in range(800))
        specs.append(("nfa_word", (_random_nfa(rng, states), word)))
    for p in _UP_PS:
        specs.append(("up_prob", (p, 200 + rng.randrange(-10, 11))))
    for n in (6, 7, 8, 9):
        specs.append(("nfa_to_dfa", (_nth_from_last_nfa(rng, n), n)))
    for k, copies in ((5, 1), (4, 4), (6, 2)):
        specs.append(("minimize", (k, copies)))
    for model, k in (("afa_rt", 1), ("afa_rt", 2), ("afa_rt", 3), ("afa_epsfree", 3)):
        specs.append(("afa_determinize", (model, k)))
    for base, exponent in (
        ((1, 2), 100_000),
        ((2, 3), 30_000),
        ((9, 10), 200_000),
        ((99, 100), 100_000),
        ((1, 2), 30_000),
        ((9, 10), 60_000),
    ):
        specs.append(("pow", _pow_params(rng, base, exponent)))
    for c, m, n in ((3, 1, 1), (10, 1, 2), (100, 2, 1), (3, 1, 2), (10, 2, 1), (100, 1, 1)):
        delta = rng.choice((-1, 1)) * rng.uniform(0.02, 0.5)
        specs.append(("tail", (c, m, n, rng.choice(("yes", "no")), delta)))
    for builder in _ROUNDTRIPS:
        specs.append(("roundtrip", builder))
    for p, length in (((1, 2), 3), ((9, 10), 20), ((19, 20), 30)):
        specs.append(("sampled", (("up", p), "a" * length, 150, rng.randrange(2**31))))
    for n, cls in ((2, "yes"), (3, "no")):
        word = _trios_word(rng, n, 20, cls)
        specs.append(("sampled", (("trios", n, cls), word, 150, rng.randrange(2**31))))
    for side in ("yes", "no"):
        specs.append(("compose", (3, 1, 1, side)))
    specs += [("criterion", (4,)), ("criterion", (5,))]
    return specs


_ROUNDTRIPS = (
    ("evenodd_dfa", (9,)),
    ("evenodd_dfa", (8,)),
    ("evenodd_afa_rt", (8,)),
    ("evenodd_afa_epsfree", (8,)),
    ("trios_dfa", (5, 1)),
    ("trios_twoway_dfa", (8, 1)),
    ("trios_lasvegas_pfa", (8, 2)),
)


def _pow_params(rng: random.Random, base: tuple, exponent: int) -> tuple:
    """(base, exponent, k): base^exponent < 2^-k is decided by a wide margin.

    The exponent moves by up to 1% and k lies one or two bits to either
    side of exponent * log2(1 / base), so the float estimate is safe.
    """
    while True:
        e = exponent + rng.randrange(-exponent // 100, exponent // 100 + 1)
        bits = e * math.log2(base[1] / base[0])
        k = math.floor(bits) + rng.choice((-1, 1, 2))
        if abs(bits - k) >= 0.25:
            return base, e, k


def _up_horizon(p: tuple) -> int:
    """The instance bound criterion 8 uses for UP(p): R + A + 2."""
    accept_until, reject_from = _critical_lengths(Fraction(*p))
    return reject_from + accept_until + 2


def _gen_search(rng: random.Random) -> list:
    # Criterion 7 is the exhaustion of TRIOS(2,1) up to 3 states.
    specs = [("criterion", (3,)), ("criterion", (7,)), ("criterion", (8,))]
    for problem, max_states, length in (
        (("trios", 1, 1), 2, 4),
        (("trios", 1, 1), 3, 4),
        (("mod", 2, 0, 1), 2, 6),
        (("mod", 2, 1, 0), 3, 7),
        (("mod", 3, 0, 1), 3, 6),
    ):
        specs.append(("min_dfa", (problem, max_states, length)))
    specs.append(("min_unary_nfa", (("evenodd", 1), 4, 24)))
    for q, horizon in ((2, 12), (3, 20), (4, 28)):
        specs.append(("min_unary_nfa", (("parity", q), 3, horizon)))
    for p in ((1, 2), (4, 5), (9, 10)):
        specs.append(("min_unary_nfa", (("up", p), 3, _up_horizon(p))))
    for k in (1, 2, 3):
        specs.append(("min_unary_dfa", (("evenodd", k), 2 ** (k + 4))))
    for p in _UP_PS:
        specs.append(("min_unary_dfa", (("up", p), _up_horizon(p))))
    for i in range(64):
        size = 1 + i % 8
        dfa = (
            size,
            tuple((q, rng.randrange(size)) for q in range(size) if rng.random() < 0.85),
            tuple(q for q in range(size) if rng.random() < 0.5),
            rng.randrange(size),
        )
        specs.append(("pumping_dfa", (dfa, rng.randint(size, 12))))
    for i in range(60):
        size = 1 + i % 5
        nfa = (
            size,
            tuple((q, p) for q in range(size) for p in range(size) if rng.random() < 0.5),
            tuple(q for q in range(size) if rng.random() < 0.5),
            rng.randrange(size),
        )
        specs.append(("pumping_nfa", (nfa, rng.randint(size, 8))))
    for problem, length in (
        (("trios", 1, 1), 7),
        (("trios", 2, 1), 7),
        (("trios", 2, 1), 6),
        (("mod", 2, *rng.sample(range(2), 2)), 10),
        (("mod", 3, *rng.sample(range(3), 2)), 9),
        (("mod", 3, *rng.sample(range(3), 2)), 10),
        (("evenodd", 2), 300),
        (("evenodd", 4), 200),
    ):
        specs.append(("disjoint", (problem, length)))
    return specs


_GENERATORS = {
    "sweep": _gen_sweep,
    "long": _gen_long,
    "search": _gen_search,
}


# ---------------------------------------------------------------------------
# Runners: the timed part of a job. ``pm`` holds promata's modules by layer.


def _evenodd_machine(pm, model: str, k: int):
    c = pm.constructions
    if model == "dfa":
        return c.evenodd_dfa(k)
    if model == "nfa_view":
        return pm.conversions.dfa_to_nfa(c.evenodd_dfa(k))
    if model == "afa_rt":
        return c.evenodd_afa_rt(k)
    if model == "afa_epsfree":
        return c.evenodd_afa_epsfree(k)
    raise ValueError(f"unknown evenodd model {model!r}")


def _problem(pm, spec: tuple):
    c = pm.constructions
    kind = spec[0]
    if kind == "trios":
        return c.trios_problem(spec[1], spec[2])
    if kind == "evenodd":
        return c.evenodd_problem(spec[1])
    if kind == "up":
        return c.up_problem(Fraction(*spec[1]))
    if kind == "parity":
        q = spec[1]
        return c.parity_problem(lambda m: m % q == 0)
    if kind == "mod":
        _, q, y, z = spec
        return pm.machines.PromiseProblem(
            alphabet=("a", "b"),
            yes_member=lambda w: w.count("a") % q == y,
            no_member=lambda w: w.count("a") % q == z,
            name=f"mod({q},{y},{z})",
        )
    raise ValueError(f"unknown problem {spec!r}")


def _report(report) -> tuple:
    return report.verdict, report.counterexample, dict(report.measured)


def run_criterion(pm, n):
    result = pm.acceptance.run_criterion(n, "fast")
    return result.passed, result.details


def run_evenodd_check(pm, model, k, problem_k, horizon):
    machine = _evenodd_machine(pm, model, k)
    problem = pm.constructions.evenodd_problem(problem_k)
    return _report(pm.machines.promise_check(machine, problem, horizon))


def run_trios_check(pm, model, n, r):
    c = pm.constructions
    machine = c.trios_dfa(n, r) if model == "dfa" else c.trios_twoway_dfa(n, r)
    return _report(pm.machines.promise_check(machine, c.trios_problem(n, r), r * (3 * n + 1)))


def run_up_check(pm, p, extra):
    p = Fraction(*p)
    _, reject_from = pm.constructions.critical_lengths(p)
    machine = pm.constructions.up_dfa(p)
    problem = pm.constructions.up_problem(p)
    return _report(pm.machines.promise_check(machine, problem, reject_from + extra))


def run_parity_check(pm, q, residues, horizon):
    problem = pm.constructions.parity_problem(lambda m: m % q in residues)
    return _report(pm.machines.promise_check(pm.constructions.parity_dfa(), problem, horizon))


def run_lasvegas(pm, n, r, threshold):
    c = pm.constructions
    bound = pm.probabilistic.trios_success_bound(n, r)
    if threshold == "above":
        bound += (1 - bound) / 2
    report = pm.probabilistic.lasvegas_success(
        c.trios_lasvegas_pfa(n, r), c.trios_problem(n, r), r * (3 * n + 1), bound
    )
    return _report(report)


def run_afa_word(pm, model, k, length):
    return pm.machines.afa_accepts(_evenodd_machine(pm, model, k), "a" * length)


def run_dfa_word(pm, k, length):
    return pm.machines.dfa_run(pm.constructions.evenodd_dfa(k), "a" * length).accepted


def run_nfa_view_word(pm, k, length):
    nfa = pm.conversions.dfa_to_nfa(pm.constructions.evenodd_dfa(k))
    return pm.machines.nfa_accepts(nfa, "a" * length)


def run_trios_word(pm, model, n, cls, word):
    c = pm.constructions
    segments = len(word) // (3 * n + 1)
    if model == "dfa":
        return pm.machines.dfa_run(c.trios_dfa(n, segments), word).accepted
    if model == "2dfa":
        return pm.machines.twoway_accepts(c.trios_twoway_dfa(n, segments), word)
    dist = pm.probabilistic.outcome_dist(c.trios_lasvegas_pfa(n, segments), word)
    return dist.accept, dist.reject


def _nfa(pm, spec: tuple):
    states, alphabet, moves, accepting = spec
    return pm.machines.OneWayNfa(
        state_count=states,
        alphabet=alphabet,
        initial=0,
        transitions=frozenset(moves),
        accepting=frozenset(accepting),
    )


def run_nfa_word(pm, nfa, word):
    return pm.machines.nfa_accepts(_nfa(pm, nfa), word)


def run_up_prob(pm, p, length):
    return pm.probabilistic.accept_prob(pm.constructions.up_pfa(Fraction(*p)), "a" * length)


def run_nfa_to_dfa(pm, nfa, n):
    dfa = pm.conversions.nfa_to_dfa(_nfa(pm, nfa))
    return dfa.state_count, len(dfa.accepting), len(dfa.transitions)


def _counter(pm, k: int, copies: int):
    """A cyclic counter of copies * 2^(k+1) states accepting every 2^(k+1)-th."""
    if copies == 1:
        return pm.constructions.evenodd_dfa(k)
    period = 2 ** (k + 1)
    size = copies * period
    return pm.machines.OneWayDfa(
        state_count=size,
        alphabet=("a",),
        initial=0,
        transitions={(i, "a"): (i + 1) % size for i in range(size)},
        accepting=frozenset(range(0, size, period)),
    )


def run_minimize(pm, k, copies):
    return pm.conversions.dfa_minimize(_counter(pm, k, copies))


def run_afa_determinize(pm, model, k):
    afa = _evenodd_machine(pm, model, k)
    big = pm.conversions.unary_afa_to_dfa(afa)
    small = pm.conversions.dfa_minimize(big)
    same = pm.conversions.dfa_equivalent(small, pm.constructions.evenodd_dfa(k))
    return afa.state_count, big.state_count, small, same


def run_pow(pm, base, exponent, k):
    return pm.exactmath.pow_less_than(Fraction(*base), exponent, Fraction(1, 2**k))


def _round_model(pm, c, m, n, side):
    base = pm.probabilistic.expeq_params(c, m, n)
    return base.with_reject(base.a / c if side == "yes" else base.a * c)


def _tail_bound(model, delta: float) -> Fraction:
    """exp(log tail + delta): above the tail when delta > 0, below when < 0."""
    log_tail = model.t * math.log1p(-float(model.a + model.r))
    return Fraction(math.exp(log_tail + delta))


def run_tail(pm, c, m, n, side, delta):
    model = _round_model(pm, c, m, n, side)
    return pm.probabilistic.expeq_tail_below(model, _tail_bound(model, delta))


def run_sampled(pm, machine, word, trials, seed):
    c = pm.constructions
    if machine[0] == "up":
        pfa = c.up_pfa(Fraction(*machine[1]))
    else:
        pfa = c.trios_lasvegas_pfa(machine[1], len(word) // (3 * machine[1] + 1))
    return pm.probabilistic.monte_carlo(pfa, word, trials, seed)


def run_compose(pm, c, m, n, side):
    return pm.probabilistic.expeq_compose(_round_model(pm, c, m, n, side))


def run_roundtrip(pm, builder, args):
    machine = getattr(pm.constructions, builder)(*args)
    text = pm.serialize.dumps(machine)
    return machine, text, pm.serialize.loads(text)


def _search_spec(pm, kind, problem, max_states, max_length):
    return pm.boundslab.SearchSpec(kind, max_states, _problem(pm, problem), max_length)


def run_min_dfa(pm, problem, max_states, max_length):
    spec = _search_spec(pm, "dfa", problem, max_states, max_length)
    result = pm.boundslab.min_dfa_size(spec)
    return result.size, result.candidates_checked


def run_min_unary_nfa(pm, problem, max_states, max_length):
    spec = _search_spec(pm, "unary-nfa", problem, max_states, max_length)
    result = pm.boundslab.min_unary_nfa_size(spec)
    return result.size, result.candidates_checked


def run_min_unary_dfa(pm, problem, max_length):
    spec = _search_spec(pm, "unary-dfa", problem, 18, max_length)
    return pm.boundslab.min_unary_dfa_size(spec).size


def run_pumping_dfa(pm, dfa, m):
    size, moves, accepting, initial = dfa
    machine = pm.machines.OneWayDfa(
        state_count=size,
        alphabet=("a",),
        initial=initial,
        transitions={(q, "a"): p for q, p in moves},
        accepting=frozenset(accepting),
    )
    return pm.boundslab.pumping_check(machine, m, (1, 2)).verdict


def run_pumping_nfa(pm, nfa, m):
    size, moves, accepting, initial = nfa
    machine = pm.machines.OneWayNfa(
        state_count=size,
        alphabet=("a",),
        initial=initial,
        transitions=frozenset((q, "a", p) for q, p in moves),
        accepting=frozenset(accepting),
    )
    return pm.boundslab.pumping_check(machine, m, (1,)).verdict


def run_disjoint(pm, problem, max_length):
    return _report(pm.boundslab.disjointness_check(_problem(pm, problem), max_length))


RUNNERS = {
    "criterion": run_criterion,
    "evenodd_check": run_evenodd_check,
    "trios_check": run_trios_check,
    "up_check": run_up_check,
    "parity_check": run_parity_check,
    "lasvegas": run_lasvegas,
    "afa_word": run_afa_word,
    "dfa_word": run_dfa_word,
    "nfa_view_word": run_nfa_view_word,
    "trios_word": run_trios_word,
    "nfa_word": run_nfa_word,
    "up_prob": run_up_prob,
    "nfa_to_dfa": run_nfa_to_dfa,
    "minimize": run_minimize,
    "afa_determinize": run_afa_determinize,
    "pow": run_pow,
    "tail": run_tail,
    "roundtrip": run_roundtrip,
    "sampled": run_sampled,
    "compose": run_compose,
    "min_dfa": run_min_dfa,
    "min_unary_nfa": run_min_unary_nfa,
    "min_unary_dfa": run_min_unary_dfa,
    "pumping_dfa": run_pumping_dfa,
    "pumping_nfa": run_pumping_nfa,
    "disjoint": run_disjoint,
}


def run_job(pm, job: Job):
    return RUNNERS[job.kind](pm, *job.params)


# ---------------------------------------------------------------------------
# Known answers. Each checker returns True when the result is right; the
# independent computations here use no promata code unless noted.


def _critical_lengths(p: Fraction) -> tuple[int, int]:
    """Last j with p^j >= 3/4 and first j with p^j <= 1/4, by exact powers."""
    power, j, last_high = Fraction(1), 0, 0
    while power > Fraction(1, 4):
        if power >= Fraction(3, 4):
            last_high = j
        power *= p
        j += 1
    return last_high, j


def _trios_pairs(n: int) -> int:
    """Block pairs (x, y) with a witness position: 4^n - 3^n for either class."""
    return 4**n - 3**n


def _trios_success(word: str, n: int, cls: str) -> Fraction:
    """Closed-form decision probability of the zero-error TRIOS sampler.

    A segment is decided when the sampler's uniformly chosen bit position
    is a witness, so the word is decided with 1 - prod(1 - w_i / n).
    """
    undecided = Fraction(1)
    step = 3 * n + 1
    for start in range(0, len(word), step):
        seg = word[start + 1 : start + step]
        x, y = seg[:n], (seg[2 * n :] if cls == "yes" else seg[n : 2 * n])
        wit = ("0", "1") if cls == "yes" else ("1", "0")
        witnesses = sum((a, b) == wit for a, b in zip(x, y))
        undecided *= 1 - Fraction(witnesses, n)
    return 1 - undecided


def _trios_class(word: str, n: int) -> str | None:
    """'yes', 'no' or None for a word over {0,1,#}, per the TRIOS definition."""
    step = 3 * n + 1
    if not word or len(word) % step:
        return None
    yes = no = True
    for start in range(0, len(word), step):
        seg = word[start : start + step]
        if seg[0] != "#" or set(seg[1:]) - {"0", "1"}:
            return None
        b1, b2, b3 = seg[1 : n + 1], seg[n + 1 : 2 * n + 1], seg[2 * n + 1 :]
        yes = yes and b2 == b1 and any(p + q == "01" for p, q in zip(b1, b3))
        no = no and b3 == b1 and any(p + q == "10" for p, q in zip(b1, b2))
    return "yes" if yes else "no" if no else None


def check_criterion(pm, params, result, cache) -> bool:
    return result[0] is True


def check_evenodd_check(pm, params, result, cache) -> bool:
    model, k, problem_k, horizon = params
    verdict, counterexample, measured = result
    if measured.get("instances") != horizon // 2**problem_k + 1:
        return False
    if problem_k == k:
        return verdict == "solves"
    # The order-k machine accepts every multiple of 2^(k+1), so the first
    # no instance of order k+1, a^(2^(k+1)), is accepted.
    return verdict == "fails" and counterexample == ("a" * 2 ** (k + 1), "no", "accept")


def check_trios_check(pm, params, result, cache) -> bool:
    model, n, r = params
    verdict, _, measured = result
    return verdict == "solves" and measured.get("instances") == 2 * _trios_pairs(n) ** r


def check_up_check(pm, params, result, cache) -> bool:
    p, extra = params
    accept_until, reject_from = _critical_lengths(Fraction(*p))
    verdict, _, measured = result
    expected = accept_until + 1 + extra + 1
    return verdict == "solves" and measured.get("instances") == expected


def check_parity_check(pm, params, result, cache) -> bool:
    q, residues, horizon = params
    expected = sum(1 for n in range(horizon + 1) if (n // 2) % q in residues)
    verdict, _, measured = result
    return verdict == "solves" and measured.get("instances") == expected


def check_lasvegas(pm, params, result, cache) -> bool:
    n, r, threshold = params
    verdict, counterexample, measured = result
    bound = 1 - Fraction(n - 1, n) ** r
    if measured.get("instances") != 2 * _trios_pairs(n) ** r:
        return False
    if threshold == "bound":
        return verdict == "solves" and measured.get("min_success") == bound
    if verdict != "fails":
        return False
    word, cls, outcome = counterexample
    success = _trios_success(word, n, cls)
    accept, reject = (success, 0) if cls == "yes" else (0, success)
    return (
        _trios_class(word, n) == cls
        and success < bound + (1 - bound) / 2
        and outcome == f"accept={accept} reject={reject}"
    )


def _divisible(length: int, k: int) -> bool:
    return length % 2 ** (k + 1) == 0


def check_afa_word(pm, params, result, cache) -> bool:
    model, k, length = params
    return result is _divisible(length, k)


def check_dfa_word(pm, params, result, cache) -> bool:
    k, length = params
    return result is _divisible(length, k)


check_nfa_view_word = check_dfa_word


def check_trios_word(pm, params, result, cache) -> bool:
    model, n, cls, word = params
    if model in ("dfa", "2dfa"):
        return result is (cls == "yes")
    success = _trios_success(word, n, cls)
    return result == ((success, Fraction(0)) if cls == "yes" else (Fraction(0), success))


def check_nfa_word(pm, params, result, cache) -> bool:
    nfa, word = params
    # Cross-model reference: the subset construction, then a deterministic run.
    if "expected" not in cache:
        dfa = pm.conversions.nfa_to_dfa(_nfa(pm, nfa))
        cache["expected"] = pm.machines.dfa_run(dfa, word).accepted
    return result is cache["expected"]


def check_up_prob(pm, params, result, cache) -> bool:
    p, length = params
    return result == Fraction(*p) ** length


def check_nfa_to_dfa(pm, params, result, cache) -> bool:
    # Every reachable subset holds the looping start state, so the subsets
    # are the 2^n choices of the last n positions, each with three moves.
    n = params[1]
    return result == (2**n, 2 ** (n - 1), 3 * 2**n)


def _unary_lasso_accepts(dfa, steps: int) -> list[bool]:
    """Acceptance of a^0 .. a^steps by walking the machine's own tables."""
    state, out = dfa.initial, []
    for _ in range(steps + 1):
        out.append(state is not None and state in dfa.accepting)
        state = dfa.transitions.get((state, "a")) if state is not None else None
    return out


def _is_counter(dfa, k: int) -> bool:
    period = 2 ** (k + 1)
    return dfa.state_count == period and _unary_lasso_accepts(dfa, 3 * period) == [
        n % period == 0 for n in range(3 * period + 1)
    ]


def check_minimize(pm, params, result, cache) -> bool:
    k, copies = params
    return _is_counter(result, k)


def check_afa_determinize(pm, params, result, cache) -> bool:
    model, k = params
    afa_states, big_states, small, same = result
    return same is True and big_states <= 2**afa_states and _is_counter(small, k)


def check_pow(pm, params, result, cache) -> bool:
    base, exponent, k = params
    return result is (exponent * math.log2(base[1] / base[0]) > k)


def check_tail(pm, params, result, cache) -> bool:
    return result is (params[4] > 0)


def check_sampled(pm, params, result, cache) -> bool:
    """Sampled acceptance within six standard deviations of the exact one."""
    machine, word, trials, _ = params
    if machine[0] == "up":
        exact = Fraction(*machine[1]) ** len(word)
    else:
        _, n, cls = machine
        exact = _trios_success(word, n, cls) if cls == "yes" else Fraction(0)
    sigma = (float(exact) * (1 - float(exact)) / trials) ** 0.5
    total = result.accept + result.reject + result.neutral
    return total == 1 and abs(float(result.accept) - float(exact)) <= 6 * sigma + 1e-12


def check_compose(pm, params, result, cache) -> bool:
    # Decided mass splits a : r = 1 : 1/c (yes) or 1 : c (no), and with the
    # tail below 1/c the winning side exceeds 1 - 2/(c+1) (criterion 9).
    c, _, _, side = params
    ratio = Fraction(1, c) if side == "yes" else Fraction(c)
    win = result.accept if side == "yes" else result.reject
    return (
        result.reject == result.accept * ratio
        and result.neutral < Fraction(1, c)
        and win > 1 - Fraction(2, c + 1)
    )


def check_roundtrip(pm, params, result, cache) -> bool:
    machine, text, back = result
    return back == machine and type(back) is type(machine) and pm.serialize.dumps(back) == text


def check_min_dfa(pm, params, result, cache) -> bool:
    problem, max_states, max_length = params
    size, _ = result
    minimum = 3 if problem == ("mod", 3, 0, 1) else 2
    return size == (minimum if minimum <= max_states else None)


def check_min_unary_nfa(pm, params, result, cache) -> bool:
    problem, max_states, max_length = params
    size, candidates = result
    if problem[0] == "evenodd":
        return size == 4
    if problem[0] == "parity":
        return size == 2
    accept_until, _ = _critical_lengths(Fraction(*problem[1]))
    return size == accept_until + 1


def check_min_unary_dfa(pm, params, result, cache) -> bool:
    problem, max_length = params
    if problem[0] == "evenodd":
        return result == 2 ** (problem[1] + 1)
    accept_until, _ = _critical_lengths(Fraction(*problem[1]))
    return result == accept_until + 1


def _orbit_at(step, start, length: int):
    """Position after ``length`` steps of the map ``step`` from ``start``."""
    trace, seen = [start], {start: 0}
    while True:
        nxt = step(trace[-1])
        if nxt in seen:
            entry = seen[nxt]
            if length < len(trace):
                return trace[length]
            return trace[entry + (length - entry) % (len(trace) - entry)]
        seen[nxt] = len(trace)
        trace.append(nxt)


def check_pumping_dfa(pm, params, result, cache) -> bool:
    # Theory: a unary run is in its cycle after state_count steps, and the
    # cycle length divides m!, so the check must always pass.
    return result == "solves"


def check_pumping_nfa(pm, params, result, cache) -> bool:
    (size, moves, accepting, initial), m = params
    succ = [0] * size
    for q, p in moves:
        succ[q] |= 1 << p

    def step(subset: int) -> int:
        out = 0
        for q in range(size):
            if subset >> q & 1:
                out |= succ[q]
        return out

    start = 1 << initial
    same = _orbit_at(step, start, m) == _orbit_at(step, start, m + math.factorial(m))
    return result == ("solves" if same else "fails")


def check_disjoint(pm, params, result, cache) -> bool:
    problem, max_length = params
    verdict, _, measured = result
    if problem[0] == "trios":
        _, n, r = problem
        words = (3 ** (max_length + 1) - 1) // 2
        count = _trios_pairs(n) ** r if max_length >= r * (3 * n + 1) else 0
        yes = no = count
    elif problem[0] == "mod":
        _, q, y, z = problem
        words = 2 ** (max_length + 1) - 1
        by_residue = [0] * q
        for length in range(max_length + 1):
            for a_count in range(length + 1):
                by_residue[a_count % q] += math.comb(length, a_count)
        yes, no = by_residue[y], by_residue[z]
    else:
        k = problem[1]
        words = max_length + 1
        yes = max_length // 2 ** (k + 1) + 1
        no = max_length // 2**k + 1 - yes
    return verdict == "solves" and measured == {"words": words, "yes": yes, "no": no}


CHECKERS = {kind: globals()[f"check_{kind}"] for kind in RUNNERS}


def check_job(pm, job: Job, result, cache: dict) -> bool:
    return CHECKERS[job.kind](pm, job.params, result, cache)

"""Command-line front door.

Every subcommand prints a deterministic JSON report (machines in the
interchange format, rationals as "num/den" strings, big naturals as decimal
strings), so repeated runs with the same arguments and seeds are
byte-identical. Exit codes: 0 when the requested check solves/succeeds,
1 when a verification fails or a search finds no machine, 2 on usage errors,
3 when a resource cap stops the computation.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from fractions import Fraction

from . import acceptance, serialize
from .boundslab import (
    DEFAULT_WORD_CAP,
    DEFAULT_WORK_CAP,
    SearchSpec,
    disjointness_check,
    min_dfa_size,
    min_unary_dfa_size,
    min_unary_nfa_size,
    pumping_check,
)
from .constructions import (
    evenodd_afa_epsfree,
    evenodd_afa_rt,
    evenodd_dfa,
    evenodd_problem,
    parity_dfa,
    parity_problem,
    trios_dfa,
    trios_lasvegas_pfa,
    trios_problem,
    trios_twoway_dfa,
    up_dfa,
    up_pfa,
    up_problem,
)
from .conversions import (
    DEFAULT_SUBSET_CAP,
    DEFAULT_VECTOR_CAP,
    bound_2nfa_to_dfa,
    bound_afa_to_dfa,
    bound_svfa_to_dfa,
    dfa_minimize,
    nfa_to_dfa,
    remove_epsilon,
    twoway_to_dfa,
    unary_afa_to_dfa,
)
from .errors import PromataError, ResourceCapError
from .machines import (
    SOLVES,
    OneWayAfa,
    OneWayDfa,
    OneWayNfa,
    OneWayPfa,
    TwoWayMachine,
    dfa_run,
    machine_accepts,
    promise_check,
)
from .probabilistic import (
    DEFAULT_DIGIT_CAP,
    expected_rounds,
    expeq_compose,
    expeq_params,
    lasvegas_success,
    monte_carlo,
    outcome_dist,
    restart_bound,
    trios_success_bound,
)
from .serialize import fraction_to_str

MC_ALGORITHM = "exact-count-vector-binomial"


def _cap(args: argparse.Namespace, name: str, default: int) -> int:
    """Resolve a resource cap: the flag, then PROMATA_<NAME>, then the library default."""
    value = getattr(args, name)
    source = "--" + name.replace("_", "-")
    if value is None:
        variable = f"PROMATA_{name.upper()}"
        raw = os.environ.get(variable)
        if raw is None:
            return default
        source = f"environment variable {variable}"
        try:
            value = int(raw)
        except ValueError as exc:
            raise ValueError(f"{source} must be an integer") from exc
    if value < 0:
        raise ValueError(f"{source} must be non-negative")
    return value


def _measured_payload(measured: dict) -> dict:
    out = {}
    for key, value in measured.items():
        if isinstance(value, Fraction):
            out[key] = fraction_to_str(value)
        elif isinstance(value, int):
            out[key] = value
        elif isinstance(value, tuple):
            out[key] = list(value)
        else:
            out[key] = str(value)
    return out


def _verdict(report) -> tuple[dict, int]:
    """A verification report's payload, and exit 0 when it solves, else 1."""
    payload = {
        "verdict": report.verdict,
        "counterexample": list(report.counterexample) if report.counterexample else None,
        "measured": _measured_payload(report.measured),
    }
    return payload, 0 if report.verdict == SOLVES else 1


def _dist_payload(dist) -> dict:
    return {
        "accept": fraction_to_str(dist.accept),
        "reject": fraction_to_str(dist.reject),
        "neutral": fraction_to_str(dist.neutral),
    }


# Problem families and machine builders by CLI name: the callable and the
# flags it takes, in order.
_PROBLEMS = {
    "evenodd": (evenodd_problem, ("k",)),
    "trios": (trios_problem, ("n", "r")),
    "up": (up_problem, ("p",)),
    "parity": (lambda: parity_problem(lambda _n: True), ()),
}
_BUILDS = {
    "evenodd-dfa": (evenodd_dfa, ("k",)),
    "evenodd-afa": (evenodd_afa_rt, ("k",)),
    "evenodd-afa-epsfree": (evenodd_afa_epsfree, ("k",)),
    "trios-pfa": (trios_lasvegas_pfa, ("n", "r")),
    "trios-dfa": (trios_dfa, ("n", "r")),
    "trios-2dfa": (trios_twoway_dfa, ("n", "r")),
    "up-pfa": (up_pfa, ("p",)),
    "up-dfa": (up_dfa, ("p",)),
    "parity-dfa": (parity_dfa, ()),
}


def _fraction(flag: str, text: str) -> Fraction:
    """--flag's num/den text as a Fraction, naming the flag when it does not parse.

    Fraction raises ZeroDivisionError for a zero denominator, so that case
    is turned into the same usage error as any other bad literal.
    """
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"--{flag} must be a fraction num/den with a nonzero denominator, not {text!r}"
        ) from None


# How each flag's text becomes a builder argument (`prob` reads --r as text).
_FLAG_TYPES = {"k": int, "n": int, "r": int, "p": lambda text: _fraction("p", text)}


def _from_flags(table: dict, name: str, args: argparse.Namespace):
    """Call the table's entry for name on its flags, naming any that are missing."""
    builder, flags = table[name]
    missing = [f"--{flag}" for flag in flags if getattr(args, flag) is None]
    if missing:
        verb = "is" if len(missing) == 1 else "are"
        raise ValueError(f"{' and '.join(missing)} {verb} required for {name}")
    return builder(*(_FLAG_TYPES[flag](getattr(args, flag)) for flag in flags))


def _problem_from_args(args: argparse.Namespace):
    if args.problem is None:
        raise ValueError("--problem is required")
    return _from_flags(_PROBLEMS, args.problem, args)


def _cmd_build(args: argparse.Namespace) -> tuple[dict, int]:
    return serialize.machine_to_dict(_from_flags(_BUILDS, args.kind, args)), 0


def _cmd_simulate(args: argparse.Namespace) -> tuple[dict, int]:
    machine = serialize.load(args.machine)
    kind = serialize.type_tag(machine)
    payload: dict = {"word": args.word, "machine": args.machine, "kind": kind}
    if kind == "pfa":
        payload["distribution"] = _dist_payload(outcome_dist(machine, args.word))
    elif kind == "dfa":
        result = dfa_run(machine, args.word)
        payload["outcome"] = result.outcome
        if result.position is not None:
            payload["position"] = result.position
    else:
        payload["outcome"] = "accept" if machine_accepts(machine, args.word) else "reject"
    return payload, 0


# Each conversion: the machine type it needs, the error naming that type,
# and the call.
_CONVERSIONS = {
    "subset": (
        OneWayNfa,
        "the subset algorithm needs a nondeterministic machine",
        lambda machine, args: nfa_to_dfa(
            machine, subset_cap=_cap(args, "subset_cap", DEFAULT_SUBSET_CAP)
        ),
    ),
    "eps-remove": (
        OneWayNfa,
        "silent-move removal needs a nondeterministic machine",
        lambda machine, args: remove_epsilon(machine),
    ),
    "unary-afa-dfa": (
        OneWayAfa,
        "valuation determinization needs an alternating machine",
        lambda machine, args: unary_afa_to_dfa(
            machine, vector_cap=_cap(args, "vector_cap", DEFAULT_VECTOR_CAP)
        ),
    ),
    "minimize": (
        OneWayDfa,
        "minimization needs a deterministic machine",
        lambda machine, args: dfa_minimize(machine),
    ),
    "twoway-dfa": (
        TwoWayMachine,
        "the crossing construction needs a two-way machine",
        lambda machine, args: twoway_to_dfa(
            machine, subset_cap=_cap(args, "subset_cap", DEFAULT_SUBSET_CAP)
        ),
    ),
}


def _cmd_convert(args: argparse.Namespace) -> tuple[dict, int]:
    machine = serialize.load(getattr(args, "from"))
    needed, message, convert = _CONVERSIONS[args.algorithm]
    if not isinstance(machine, needed):
        raise ValueError(message)
    return serialize.machine_to_dict(convert(machine, args)), 0


_BOUNDS = {
    "afa-to-dfa": bound_afa_to_dfa,
    "2nfa-to-dfa": bound_2nfa_to_dfa,
    "svfa-to-dfa": bound_svfa_to_dfa,
}


def _cmd_bounds(args: argparse.Namespace) -> tuple[dict, int]:
    bound = _BOUNDS[args.formula](args.n)
    payload = {
        "formula": bound.formula,
        "n": bound.argument,
        "value": str(bound.value),
        "exact": bound.is_exact,
    }
    if bound.real_value is not None:
        payload["real_value"] = bound.real_value
    return payload, 0


def _cmd_prob(args: argparse.Namespace) -> tuple[dict, int]:
    mode = args.mode
    if mode in ("exact", "mc", "lasvegas"):
        if not args.machine:
            raise ValueError(f"--machine is required for prob {mode}")
        machine = serialize.load(args.machine)
        if not isinstance(machine, OneWayPfa):
            raise ValueError(f"prob {mode} needs a probabilistic machine")
    elif mode == "rounds":
        if not args.sigma:
            raise ValueError("--sigma is required for prob rounds")
    elif args.c is None or args.m is None or args.n is None:
        raise ValueError("--c, --m, and --n are required")
    elif mode == "expeq-compose" and not args.r:
        raise ValueError("--r is required to compose rounds")

    if mode == "exact":
        dist = outcome_dist(machine, args.word)
        payload = {"word": args.word, **_dist_payload(dist)}
        if args.neutral_as_reject:
            payload["reject"] = fraction_to_str(dist.reject + dist.neutral)
            payload["neutral"] = fraction_to_str(Fraction(0))
            payload["reporting_mode"] = "neutral-as-reject"
        return payload, 0
    if mode == "mc":
        work_cap = _cap(args, "work_cap", DEFAULT_WORK_CAP)
        if args.trials * max(1, len(args.word)) > work_cap:
            raise ResourceCapError(
                f"{args.trials} trials of {len(args.word)} symbols exceed the "
                f"{work_cap}-step work cap"
            )
        dist = monte_carlo(machine, args.word, args.trials, args.seed)
        return {
            "word": args.word,
            "trials": args.trials,
            "seed": args.seed,
            "algorithm": MC_ALGORITHM,
            **_dist_payload(dist),
        }, 0
    if mode == "lasvegas":
        problem = _problem_from_args(args)
        threshold = _fraction("threshold", args.threshold) if args.threshold else Fraction(0)
        return _verdict(lasvegas_success(machine, problem, _verify_horizon(args), threshold))
    if mode == "rounds":
        sigma = _fraction("sigma", args.sigma)
        payload = {
            "sigma": fraction_to_str(sigma),
            "expected_rounds": fraction_to_str(expected_rounds(sigma)),
        }
        if args.n is not None:
            payload["closed_form_bound"] = restart_bound(args.n)
        return payload, 0
    model = expeq_params(args.c, args.m, args.n)
    if args.r:
        model = model.with_reject(_fraction("r", args.r))
    payload = {"c": model.c, "m": model.m, "n": model.n, "t": str(model.t)}
    if mode == "expeq-params":
        payload["a"] = fraction_to_str(model.a)
        payload["r"] = fraction_to_str(model.r) if model.r is not None else None
    else:
        digit_cap = _cap(args, "digit_cap", DEFAULT_DIGIT_CAP)
        payload.update(_dist_payload(expeq_compose(model, digit_cap=digit_cap)))
    return payload, 0


_SEARCHES = {
    "unary-dfa": min_unary_dfa_size,
    "dfa": min_dfa_size,
    "unary-nfa": min_unary_nfa_size,
}


def _cmd_minsize(args: argparse.Namespace) -> tuple[dict, int]:
    problem = _problem_from_args(args)
    spec = SearchSpec(args.kind, args.max_states, problem, args.max_length)
    search = _SEARCHES[args.kind]
    result = search(spec, work_cap=_cap(args, "work_cap", DEFAULT_WORK_CAP))
    payload = {
        "kind": args.kind,
        "problem": args.problem,
        "bounded_by": {"max_states": args.max_states, "max_length": args.max_length},
        "size": result.size,
        "candidates_checked": result.candidates_checked,
        "witness": serialize.machine_to_dict(result.witness) if result.witness else None,
    }
    if args.kind == "dfa":
        payload["fooling_set"] = list(result.fooling_set)
    return payload, 0 if result.found else 1


def _cmd_pumping(args: argparse.Namespace) -> tuple[dict, int]:
    machine = serialize.load(args.machine)
    if not isinstance(machine, (OneWayDfa, OneWayNfa)):
        raise ValueError("pumping checks need a one-way machine")
    h_values = tuple(int(part) for part in args.h.split(",") if part)
    return _verdict(pumping_check(machine, args.m, h_values))


def _verify_horizon(args: argparse.Namespace) -> int:
    """The longest instance an instance check reads: --max-length when given
    (0 included); else r(3n+1), the length of every TRIOS(n, r) instance, for
    TRIOS problems; else 16."""
    if args.max_length is not None:
        return args.max_length
    if args.problem == "trios" or args.mode == "lv-trios":
        return _FLAG_TYPES["r"](args.r) * (1 + 3 * args.n)
    return 16


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    if args.mode == "promise":
        if not args.machine:
            raise ValueError("--machine is required for verify promise")
        machine = serialize.load(args.machine)
        problem = _problem_from_args(args)
        return _verdict(promise_check(machine, problem, _verify_horizon(args)))
    if args.machine is not None:
        raise ValueError(
            "--machine is not read by verify lv-trios, which checks the built-in "
            "TRIOS Las Vegas machine; use prob lasvegas --machine to check a machine file"
            if args.mode == "lv-trios"
            else "--machine is not read by verify disjoint, which checks the problem alone"
        )
    if args.mode == "lv-trios":
        problem = _from_flags(_PROBLEMS, "trios", args)
        machine = trios_lasvegas_pfa(args.n, args.r)
        max_length = _verify_horizon(args)
        threshold = (
            _fraction("threshold", args.threshold)
            if args.threshold
            else trios_success_bound(args.n, args.r)
        )
        return _verdict(lasvegas_success(machine, problem, max_length, threshold))
    problem = _problem_from_args(args)
    work_cap = _cap(args, "work_cap", DEFAULT_WORD_CAP)
    return _verdict(disjointness_check(problem, _verify_horizon(args), work_cap=work_cap))


def _cmd_reproduce_all(args: argparse.Namespace) -> tuple[dict | None, int]:
    results = acceptance.run_all(args.tier)
    for result in results:
        print(result.line)
    payload = {
        "tier": args.tier,
        "criteria": [dataclasses.asdict(result) for result in results],
        "all_passed": all(result.passed for result in results),
    }
    # The criterion lines are the report on stdout; the JSON goes only to --out.
    return payload if args.out else None, 0 if payload["all_passed"] else 1


# The problem-family flags: argparse type and help text. `build` and `prob`
# take them without help, and `prob` reads --r as text, since its expeq modes
# use --r as a reject probability.
_FAMILY_FLAGS = {
    "k": (int, "order of the evenodd problem"),
    "n": (int, "block width of the trios problem"),
    "r": (int, "segment count of the trios problem"),
    "p": (None, "stay probability for the up problem, as num/den"),
}


def _add_family_flags(
    parser: argparse.ArgumentParser, problem: bool = True, r_type=int, helps: bool = True
) -> None:
    if problem:
        parser.add_argument("--problem", choices=_PROBLEMS)
    for flag, (kind, text) in _FAMILY_FLAGS.items():
        parser.add_argument(
            f"--{flag}", type=r_type if flag == "r" else kind, help=text if helps else None
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promata",
        description="Finite-automata workbench: build, simulate, convert, and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help: str) -> argparse.ArgumentParser:
        subparser = sub.add_parser(name, help=help)
        subparser.set_defaults(handler=handler)
        return subparser

    p_build = command("build", _cmd_build, "construct a machine and print it as JSON")
    p_build.add_argument("kind", choices=_BUILDS)
    _add_family_flags(p_build, problem=False, helps=False)

    p_sim = command("simulate", _cmd_simulate, "run a machine file on one word")
    p_sim.add_argument("--machine", required=True)
    p_sim.add_argument("--word", required=True)

    p_conv = command("convert", _cmd_convert, "run a conversion algorithm on a machine file")
    p_conv.add_argument("--from", required=True, dest="from")
    p_conv.add_argument("--algorithm", required=True, choices=_CONVERSIONS)
    p_conv.add_argument(
        "--subset-cap", type=int, help="max subsets or crossing tables before giving up"
    )
    p_conv.add_argument("--vector-cap", type=int, help="max valuation vectors before giving up")

    p_bounds = command("bounds", _cmd_bounds, "evaluate a closed-form trade-off bound")
    p_bounds.add_argument("--formula", required=True, choices=_BOUNDS)
    p_bounds.add_argument("--n", type=int, required=True)

    p_prob = command("prob", _cmd_prob, "exact, sampled, and composed probabilities")
    p_prob.add_argument(
        "mode",
        choices=["exact", "mc", "lasvegas", "expeq-params", "expeq-compose", "rounds"],
    )
    p_prob.add_argument("--machine")
    p_prob.add_argument("--word", default="")
    p_prob.add_argument("--trials", type=int, default=10**5)
    p_prob.add_argument("--seed", type=int, default=0)
    p_prob.add_argument("--neutral-as-reject", action="store_true")
    _add_family_flags(p_prob, r_type=None, helps=False)
    p_prob.add_argument("--c", type=int)
    p_prob.add_argument("--m", type=int)
    p_prob.add_argument(
        "--max-length",
        type=int,
        help="longest instance checked by lasvegas (default 16; --problem trios: r(3n+1))",
    )
    p_prob.add_argument("--threshold")
    p_prob.add_argument("--sigma")
    p_prob.add_argument("--digit-cap", type=int, help="max digits for exact composition")
    p_prob.add_argument("--work-cap", type=int, help="max trials x symbols sampled by mc")

    p_min = command("minsize", _cmd_minsize, "exhaustive minimal-size search")
    p_min.add_argument("--kind", required=True, choices=_SEARCHES)
    _add_family_flags(p_min)
    p_min.add_argument("--max-states", type=int, required=True)
    p_min.add_argument("--max-length", type=int, required=True)
    p_min.add_argument(
        "--work-cap", type=int, help="max search nodes, or instance checks for unary-dfa"
    )

    p_pump = command("pumping", _cmd_pumping, "block-pumping agreement check")
    p_pump.add_argument("--machine", required=True)
    p_pump.add_argument("--m", type=int, required=True)
    p_pump.add_argument("--h", default="1,2", help="comma-separated pump multiples")

    p_verify = command("verify", _cmd_verify, "promise, zero-error, and disjointness checks")
    p_verify.add_argument("mode", choices=["promise", "lv-trios", "disjoint"])
    p_verify.add_argument("--machine")
    _add_family_flags(p_verify)
    p_verify.add_argument(
        "--max-length",
        type=int,
        help="longest instance checked (default 16; lv-trios and --problem trios: r(3n+1))",
    )
    p_verify.add_argument("--threshold")
    p_verify.add_argument(
        "--work-cap", type=int, help="max words scanned by disjoint, and max symbols in them"
    )

    p_repro = command("reproduce-all", _cmd_reproduce_all, "run the acceptance checks")
    p_repro.add_argument("--tier", default="fast", choices=["fast", "slow"])

    for subparser in sub.choices.values():
        subparser.add_argument("--out")
    return parser


def _check_global_options(parser: argparse.ArgumentParser, argv: list[str]) -> None:
    """Reject an unknown option placed before the command by its name.

    Left to argparse, `--jobs 4 bounds` reports `invalid choice: '4'`,
    because the unknown option's value is read as the command.
    """
    for token in argv:
        if token in ("-", "--") or not token.startswith("-"):
            return
        if token != "-h" and not (len(token) > 2 and "--help".startswith(token)):
            parser.error(f"unrecognized arguments: {token}")


def main(argv=None) -> int:
    # Exact round composition produces rationals with hundreds of thousands
    # of digits; lift the interpreter's int-to-str guard so reports can
    # print them, and put it back for the caller afterwards.
    if not hasattr(sys, "set_int_max_str_digits"):
        return _main(argv)
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(2_000_000)
    try:
        return _main(argv)
    finally:
        sys.set_int_max_str_digits(previous)


def _main(argv) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        _check_global_options(parser, argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        payload, code = args.handler(args)
        if payload is not None:
            text = serialize.stable_json(payload) + "\n"
            if args.out:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(text)
            else:
                sys.stdout.write(text)
        return code
    except MemoryError:
        # Report after the except block ends: the exception's frames hold
        # the data that filled memory, and leaving the block frees them.
        pass
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (PromataError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # last resort: one line and a usage exit, never a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print("resource cap: out of memory", file=sys.stderr)
    return 3


if __name__ == "__main__":
    sys.exit(main())

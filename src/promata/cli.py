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
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from . import acceptance, serialize
from .boundslab import (
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
    bound_2nfa_to_dfa,
    bound_afa_to_dfa,
    bound_svfa_to_dfa,
    dfa_minimize,
    nfa_to_dfa,
    remove_epsilon,
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
    expected_rounds,
    expeq_compose,
    expeq_params,
    lasvegas_success,
    monte_carlo,
    outcome_dist,
    restart_bound,
)

MC_ALGORITHM = "exact-integer-draws-per-4096-block"

# Commands whose first argument is positional, and the parameter that fills it.
_POSITIONALS = {"build": "kind", "prob": "mode", "verify": "mode"}

# Cap flags a config may set; each falls back to an environment variable,
# then to its conservative default.
_CAP_FLAGS = ("subset-cap", "vector-cap", "work-cap", "digit-cap")


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully described invocation: command, parameters, output, caps.

    ``parameters`` uses the flag names (dashes or underscores both work);
    boolean True emits a bare flag. The config is validated against the
    command's argument schema before anything executes.
    """

    command: str
    parameters: Mapping[str, object] = field(default_factory=dict)
    output_path: str | None = None
    seed: int | None = None
    caps: Mapping[str, int] = field(default_factory=dict)


def _config_argv(config: ExperimentConfig) -> list[str]:
    argv = [config.command]
    parameters = {k.replace("_", "-"): v for k, v in config.parameters.items()}
    positional = _POSITIONALS.get(config.command)
    if positional is not None:
        if positional not in parameters:
            raise ValueError(f"{config.command} needs a {positional!r} parameter")
        argv.append(str(parameters.pop(positional)))
    for name in sorted(parameters):
        value = parameters[name]
        if value is None or value is False:
            continue
        if value is True:
            argv.append(f"--{name}")
        else:
            argv.extend([f"--{name}", str(value)])
    if config.seed is not None and "seed" not in parameters:
        argv.extend(["--seed", str(config.seed)])
    if config.output_path is not None:
        argv.extend(["--out", config.output_path])
    for name in sorted(config.caps):
        flag = name.replace("_", "-")
        if flag not in _CAP_FLAGS:
            raise ValueError(f"unknown cap {name!r}; known caps: {', '.join(_CAP_FLAGS)}")
        argv.extend([f"--{flag}", str(config.caps[name])])
    return argv


def run(config: ExperimentConfig) -> int:
    """Validate the config against the command schema, execute, return status.

    Exit status meanings match the command line: 0 solved/succeeded, 1 a
    verification failed or a search was exhausted, 2 usage error, 3 resource
    cap reached.
    """
    try:
        argv = _config_argv(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return main(argv)


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"environment variable {name} must be an integer") from exc


def _cap(args: argparse.Namespace, attr: str, env_name: str, default: int) -> int:
    """Resolve a resource cap: explicit flag, then environment, then default."""
    value = getattr(args, attr, None)
    if value is not None:
        return value
    return _env_int(env_name, default)


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2)


def _rational(value) -> str:
    fraction = Fraction(value)
    return f"{fraction.numerator}/{fraction.denominator}"


def _measured_payload(measured: dict) -> dict:
    out = {}
    for key, value in measured.items():
        if isinstance(value, Fraction):
            out[key] = _rational(value)
        elif isinstance(value, bool) or isinstance(value, int):
            out[key] = value
        elif isinstance(value, tuple):
            out[key] = list(value)
        else:
            out[key] = str(value)
    return out


def _report_payload(report) -> dict:
    return {
        "verdict": report.verdict,
        "counterexample": list(report.counterexample) if report.counterexample else None,
        "measured": _measured_payload(report.measured),
    }


def _dist_payload(dist) -> dict:
    return {
        "accept": _rational(dist.accept),
        "reject": _rational(dist.reject),
        "neutral": _rational(dist.neutral),
    }


def _verdict_exit(report) -> int:
    return 0 if report.verdict == SOLVES else 1


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

# How each flag's text becomes a builder argument (`prob` reads --r as text).
_FLAG_TYPES = {"k": int, "n": int, "r": int, "p": Fraction}


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


def _cmd_build(args: argparse.Namespace) -> int:
    _emit(args, serialize.dumps(_from_flags(_BUILDS, args.kind, args)))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    machine = serialize.load(args.machine)
    payload: dict = {"word": args.word, "machine": args.machine}
    if isinstance(machine, OneWayPfa):
        dist = outcome_dist(machine, args.word)
        payload["kind"] = "pfa"
        payload["distribution"] = _dist_payload(dist)
    elif isinstance(machine, OneWayDfa):
        result = dfa_run(machine, args.word)
        payload["kind"] = "dfa"
        payload["outcome"] = result.outcome
        if result.position is not None:
            payload["position"] = result.position
    else:
        payload["kind"] = (
            "afa"
            if isinstance(machine, OneWayAfa)
            else "2way" if isinstance(machine, TwoWayMachine) else "nfa"
        )
        payload["outcome"] = "accept" if machine_accepts(machine, args.word) else "reject"
    _emit(args, _json(payload))
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    machine = serialize.load(getattr(args, "from"))
    algorithm = args.algorithm
    if algorithm == "subset":
        if not isinstance(machine, OneWayNfa):
            raise ValueError("the subset algorithm needs a nondeterministic machine")
        converted = nfa_to_dfa(
            machine, subset_cap=_cap(args, "subset_cap", "PROMATA_SUBSET_CAP", 1 << 16)
        )
    elif algorithm == "eps-remove":
        if not isinstance(machine, OneWayNfa):
            raise ValueError("silent-move removal needs a nondeterministic machine")
        converted = remove_epsilon(machine)
    elif algorithm == "unary-afa-dfa":
        if not isinstance(machine, OneWayAfa):
            raise ValueError("valuation determinization needs an alternating machine")
        converted = unary_afa_to_dfa(
            machine, vector_cap=_cap(args, "vector_cap", "PROMATA_VECTOR_CAP", 1 << 20)
        )
    elif algorithm == "minimize":
        if not isinstance(machine, OneWayDfa):
            raise ValueError("minimization needs a deterministic machine")
        converted = dfa_minimize(machine)
    else:
        raise ValueError(f"unknown algorithm {algorithm!r}")
    _emit(args, serialize.dumps(converted))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    formula = {
        "afa-to-dfa": bound_afa_to_dfa,
        "2nfa-to-dfa": bound_2nfa_to_dfa,
        "svfa-to-dfa": bound_svfa_to_dfa,
    }[args.formula]
    bound = formula(args.n)
    payload = {
        "formula": bound.formula,
        "n": bound.argument,
        "value": str(bound.value),
        "exact": bound.is_exact,
    }
    if bound.real_value is not None:
        payload["real_value"] = bound.real_value
    _emit(args, _json(payload))
    return 0


def _cmd_prob(args: argparse.Namespace) -> int:
    mode = args.mode
    if mode in ("exact", "mc", "lasvegas"):
        machine = serialize.load(args.machine)
        if not isinstance(machine, OneWayPfa):
            raise ValueError(f"prob {mode} needs a probabilistic machine")
    if mode == "exact":
        dist = outcome_dist(machine, args.word)
        payload = {"word": args.word, **_dist_payload(dist)}
        if args.neutral_as_reject:
            payload["reject"] = _rational(dist.reject + dist.neutral)
            payload["neutral"] = _rational(Fraction(0))
            payload["reporting_mode"] = "neutral-as-reject"
        _emit(args, _json(payload))
        return 0
    if mode == "mc":
        work = args.trials * max(1, len(args.word))
        work_cap = _cap(args, "work_cap", "PROMATA_WORK_CAP", 10**8)
        if work > work_cap:
            raise ResourceCapError(
                f"{args.trials} trials of {len(args.word)} symbols exceed the "
                f"{work_cap}-step work cap"
            )
        dist = monte_carlo(machine, args.word, args.trials, args.seed)
        payload = {
            "word": args.word,
            "trials": args.trials,
            "seed": args.seed,
            "algorithm": MC_ALGORITHM,
            **_dist_payload(dist),
        }
        _emit(args, _json(payload))
        return 0
    if mode == "lasvegas":
        problem = _problem_from_args(args)
        threshold = Fraction(args.threshold) if args.threshold else Fraction(0)
        horizon = _trios_length(args) if args.problem == "trios" else 16
        report = lasvegas_success(machine, problem, _verify_horizon(args, horizon), threshold)
        _emit(args, _json(_report_payload(report)))
        return _verdict_exit(report)
    if mode == "expeq-params":
        model = expeq_params(args.c, args.m, args.n)
        if args.r:
            model = model.with_reject(Fraction(args.r))
        payload = {
            "c": model.c,
            "m": model.m,
            "n": model.n,
            "a": _rational(model.a),
            "r": _rational(model.r) if model.r is not None else None,
            "t": str(model.t),
        }
        _emit(args, _json(payload))
        return 0
    if mode == "expeq-compose":
        if not args.r:
            raise ValueError("--r is required to compose rounds")
        model = expeq_params(args.c, args.m, args.n).with_reject(Fraction(args.r))
        dist = expeq_compose(
            model, digit_cap=_cap(args, "digit_cap", "PROMATA_DIGIT_CAP", 500_000)
        )
        payload = {
            "c": model.c,
            "m": model.m,
            "n": model.n,
            "t": str(model.t),
            **_dist_payload(dist),
        }
        _emit(args, _json(payload))
        return 0
    if mode == "rounds":
        sigma = Fraction(args.sigma)
        payload = {"sigma": _rational(sigma), "expected_rounds": _rational(expected_rounds(sigma))}
        if args.n is not None:
            payload["closed_form_bound"] = restart_bound(args.n)
        _emit(args, _json(payload))
        return 0
    raise ValueError(f"unknown prob mode {mode!r}")


def _cmd_minsize(args: argparse.Namespace) -> int:
    problem = _problem_from_args(args)
    spec = SearchSpec(args.kind, args.max_states, problem, args.max_length)
    search = {
        "unary-dfa": min_unary_dfa_size,
        "dfa": min_dfa_size,
        "unary-nfa": min_unary_nfa_size,
    }[args.kind]
    work_cap = _cap(args, "work_cap", "PROMATA_WORK_CAP", 10**8)
    result = search(spec) if args.kind == "unary-dfa" else search(spec, work_cap=work_cap)
    payload = {
        "kind": args.kind,
        "problem": args.problem,
        "bounded_by": {"max_states": args.max_states, "max_length": args.max_length},
        "size": result.size,
        "candidates_checked": result.candidates_checked,
        "witness": serialize.machine_to_dict(result.witness) if result.witness else None,
    }
    _emit(args, _json(payload))
    return 0 if result.found else 1


def _cmd_pumping(args: argparse.Namespace) -> int:
    machine = serialize.load(args.machine)
    if not isinstance(machine, (OneWayDfa, OneWayNfa)):
        raise ValueError("pumping checks need a one-way machine")
    h_values = tuple(int(part) for part in args.h.split(",") if part)
    report = pumping_check(machine, args.m, h_values)
    _emit(args, _json(_report_payload(report)))
    return _verdict_exit(report)


def _verify_horizon(args: argparse.Namespace, default: int) -> int:
    """--max-length when given (0 included), else the mode's own horizon."""
    return default if args.max_length is None else args.max_length


def _trios_length(args: argparse.Namespace) -> int:
    """r(3n+1), the length of every TRIOS(n, r) instance."""
    return _FLAG_TYPES["r"](args.r) * (1 + 3 * args.n)


def _cmd_verify(args: argparse.Namespace) -> int:
    mode = args.mode
    if mode == "promise":
        machine = serialize.load(args.machine)
        problem = _problem_from_args(args)
        report = promise_check(machine, problem, _verify_horizon(args, 16))
        _emit(args, _json(_report_payload(report)))
        return _verdict_exit(report)
    if mode == "lv-trios":
        problem = _from_flags(_PROBLEMS, "trios", args)
        machine = trios_lasvegas_pfa(args.n, args.r)
        max_length = _verify_horizon(args, _trios_length(args))
        threshold = (
            Fraction(args.threshold)
            if args.threshold
            else 1 - Fraction(args.n - 1, args.n) ** args.r
        )
        report = lasvegas_success(machine, problem, max_length, threshold)
        _emit(args, _json(_report_payload(report)))
        return _verdict_exit(report)
    if mode == "disjoint":
        problem = _problem_from_args(args)
        report = disjointness_check(
            problem,
            _verify_horizon(args, 16),
            work_cap=_cap(args, "work_cap", "PROMATA_WORK_CAP", 10**7),
        )
        _emit(args, _json(_report_payload(report)))
        return _verdict_exit(report)
    raise ValueError(f"unknown verify mode {mode!r}")


def _cmd_reproduce_all(args: argparse.Namespace) -> int:
    results = acceptance.run_all(args.tier)
    for result in results:
        print(result.line)
    payload = {
        "tier": args.tier,
        "criteria": [
            {
                "number": result.number,
                "title": result.title,
                "passed": result.passed,
                "details": result.details,
                "deviations": result.deviations,
            }
            for result in results
        ],
        "all_passed": all(result.passed for result in results),
    }
    if getattr(args, "out", None):
        _emit(args, _json(payload))
    return 0 if payload["all_passed"] else 1


def _add_problem_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--problem", choices=_PROBLEMS)
    parser.add_argument("--k", type=int, help="order of the evenodd problem")
    parser.add_argument("--n", type=int, help="block width of the trios problem")
    parser.add_argument("--r", type=int, help="segment count of the trios problem")
    parser.add_argument("--p", help="stay probability for the up problem, as num/den")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="promata",
        description="Finite-automata workbench: build, simulate, convert, and verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a machine and print it as JSON")
    p_build.add_argument("kind", choices=_BUILDS)
    p_build.add_argument("--k", type=int)
    p_build.add_argument("--n", type=int)
    p_build.add_argument("--r", type=int)
    p_build.add_argument("--p")
    p_build.add_argument("--out")
    p_build.set_defaults(handler=_cmd_build)

    p_sim = sub.add_parser("simulate", help="run a machine file on one word")
    p_sim.add_argument("--machine", required=True)
    p_sim.add_argument("--word", required=True)
    p_sim.add_argument("--out")
    p_sim.set_defaults(handler=_cmd_simulate)

    p_conv = sub.add_parser("convert", help="run a conversion algorithm on a machine file")
    p_conv.add_argument("--from", required=True, dest="from")
    p_conv.add_argument(
        "--algorithm",
        required=True,
        choices=["subset", "eps-remove", "unary-afa-dfa", "minimize"],
    )
    p_conv.add_argument("--subset-cap", type=int, help="max subsets before giving up")
    p_conv.add_argument("--vector-cap", type=int, help="max valuation vectors before giving up")
    p_conv.add_argument("--out")
    p_conv.set_defaults(handler=_cmd_convert)

    p_bounds = sub.add_parser("bounds", help="evaluate a closed-form trade-off bound")
    p_bounds.add_argument(
        "--formula", required=True, choices=["afa-to-dfa", "2nfa-to-dfa", "svfa-to-dfa"]
    )
    p_bounds.add_argument("--n", type=int, required=True)
    p_bounds.add_argument("--out")
    p_bounds.set_defaults(handler=_cmd_bounds)

    p_prob = sub.add_parser("prob", help="exact, sampled, and composed probabilities")
    p_prob.add_argument(
        "mode",
        choices=["exact", "mc", "lasvegas", "expeq-params", "expeq-compose", "rounds"],
    )
    p_prob.add_argument("--machine")
    p_prob.add_argument("--word", default="")
    p_prob.add_argument("--trials", type=int, default=10**5)
    p_prob.add_argument("--seed", type=int, default=0)
    p_prob.add_argument("--neutral-as-reject", action="store_true")
    p_prob.add_argument("--problem", choices=_PROBLEMS)
    p_prob.add_argument("--k", type=int)
    p_prob.add_argument("--n", type=int)
    p_prob.add_argument("--r")
    p_prob.add_argument("--p")
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
    p_prob.add_argument("--out")
    p_prob.set_defaults(handler=_cmd_prob_dispatch)

    p_min = sub.add_parser("minsize", help="exhaustive minimal-size search")
    p_min.add_argument("--kind", required=True, choices=["unary-dfa", "dfa", "unary-nfa"])
    _add_problem_flags(p_min)
    p_min.add_argument("--max-states", type=int, required=True)
    p_min.add_argument("--max-length", type=int, required=True)
    p_min.add_argument(
        "--work-cap",
        type=int,
        help="max search nodes (dfa and unary-nfa)",
    )
    p_min.add_argument("--out")
    p_min.set_defaults(handler=_cmd_minsize)

    p_pump = sub.add_parser("pumping", help="block-pumping agreement check")
    p_pump.add_argument("--machine", required=True)
    p_pump.add_argument("--m", type=int, required=True)
    p_pump.add_argument("--h", default="1,2", help="comma-separated pump multiples")
    p_pump.add_argument("--out")
    p_pump.set_defaults(handler=_cmd_pumping)

    p_verify = sub.add_parser("verify", help="promise, zero-error, and disjointness checks")
    p_verify.add_argument("mode", choices=["promise", "lv-trios", "disjoint"])
    p_verify.add_argument("--machine")
    _add_problem_flags(p_verify)
    p_verify.add_argument(
        "--max-length",
        type=int,
        help="longest instance checked (default 16; lv-trios: the TRIOS word length r(3n+1))",
    )
    p_verify.add_argument("--threshold")
    p_verify.add_argument("--work-cap", type=int, help="max words scanned by disjoint")
    p_verify.add_argument("--out")
    p_verify.set_defaults(handler=_cmd_verify)

    p_repro = sub.add_parser("reproduce-all", help="run the acceptance checks")
    p_repro.add_argument("--tier", default="fast", choices=["fast", "slow"])
    p_repro.add_argument("--out")
    p_repro.set_defaults(handler=_cmd_reproduce_all)

    return parser


def _cmd_prob_dispatch(args: argparse.Namespace) -> int:
    if args.mode in ("exact", "mc", "lasvegas") and not args.machine:
        raise ValueError(f"--machine is required for prob {args.mode}")
    if args.mode in ("expeq-params", "expeq-compose"):
        if args.c is None or args.m is None or args.n is None:
            raise ValueError("--c, --m, and --n are required")
    if args.mode == "rounds" and not args.sigma:
        raise ValueError("--sigma is required for prob rounds")
    return _cmd_prob(args)


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
    # print them.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(2_000_000)
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        _check_global_options(parser, argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    try:
        return args.handler(args)
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


if __name__ == "__main__":
    sys.exit(main())

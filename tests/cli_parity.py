"""Compare the command line tool of two source trees, byte for byte.

    python tests/cli_parity.py OLD_SRC NEW_SRC

Runs every command listed in cli_parity_commands.txt once with each tree's
source directory on PYTHONPATH, each tree in its own fresh work directory,
and reports every command whose exit code, stdout, stderr or --out file
differs between the two. A line is the argument list of `python -m
promata.cli`, optionally preceded by NAME=value environment settings;
commands run in order, so a `build --out` line makes a machine file that
later lines read. Every command runs with a fresh random hash seed, so
comparing a tree with itself checks that no output depends on set or dict
order. Exits 1 when any command differs, 0 otherwise.
"""

from __future__ import annotations

import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

COMMANDS = Path(__file__).with_name("cli_parity_commands.txt")

# Machine files no builder produces: an NFA with a silent move, and a
# malformed file.
FIXTURES = {
    "nfa.json": json.dumps(
        {
            "type": "nfa",
            "states": 3,
            "alphabet": ["a", "b"],
            "initial": 0,
            "accepting": [2],
            "transitions": [[0, "a", 0], [0, "b", 0], [0, "a", 1], [1, "", 2], [1, "b", 2]],
            "labels": {},
        }
    ),
    "bad.json": '{"type": "dfa", "states": 2, "labels": [1]}',
}


def parse(line: str) -> tuple[dict[str, str], list[str]]:
    tokens = shlex.split(line)
    env = {}
    while tokens and "=" in tokens[0] and not tokens[0].startswith("-"):
        name, _, value = tokens.pop(0).partition("=")
        env[name] = value
    return env, tokens


def out_path(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv[:-1] else None


def run_all(src: str, lines: list[str]) -> list[tuple]:
    results = []
    with tempfile.TemporaryDirectory() as work:
        for name, text in FIXTURES.items():
            Path(work, name).write_text(text)
        for line in lines:
            extra, argv = parse(line)
            env = {
                **os.environ,
                "PYTHONHASHSEED": "random",
                "PYTHONPATH": str(Path(src).resolve()),
                **extra,
            }
            done = subprocess.run(
                [sys.executable, "-m", "promata.cli", *argv],
                cwd=work,
                env=env,
                capture_output=True,
            )
            target = out_path(argv)
            out_file = None
            if target is not None and Path(work, target).exists():
                out_file = Path(work, target).read_bytes()
            results.append((done.returncode, done.stdout, done.stderr, out_file))
    return results


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tests/cli_parity.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    lines = [
        line.strip()
        for line in COMMANDS.read_text().splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    old, new = (run_all(src, lines) for src in argv)
    fields = ("exit code", "stdout", "stderr", "--out file")
    differing = 0
    for line, left, right in zip(lines, old, new):
        changed = [field for field, a, b in zip(fields, left, right) if a != b]
        if changed:
            differing += 1
            print(f"DIFFERS ({', '.join(changed)}): {line}")
    print(f"{len(lines) - differing} of {len(lines)} commands identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

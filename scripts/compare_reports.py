"""Compare the CLI reports of two checkouts of nctorus, command by command.

    python3 scripts/compare_reports.py PARENT_ROOT CHANGE_ROOT
    python3 scripts/compare_reports.py PARENT_ROOT CHANGE_ROOT \
        --command "--seed 3 verify --suite all" --command "instanton"

Each command runs as `python -m nctorus.cli ARGS` with PYTHONPATH=<root>/src
in each tree.  For each command the script prints the command, then `same`
when the exit codes and stdout are identical; otherwise both exit codes and
every leaf of the JSON stdout that differs, with both values (a CSV or other
non-JSON stdout is compared line by line).  stderr is not compared.  With no
--command it runs the list in DEFAULT_COMMANDS.  Exit code 0 when every
command is the same, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

DEFAULT_COMMANDS = [
    "instanton",
    "--theta 0.3 --lambda-re 0.4 --lambda-im -0.2 instanton",
    "--theta 0.5 instanton",
    "--theta 0.05 instanton",
    "--trunc 3 instanton",
    "--trunc 40 instanton",
    "--trunc 16 sweep --param theta --values 0.05,0.15,0.2,0.3,0.5,0.618",
    "--trunc 8 sweep --param theta --values 0.2,1.7",
    "--trunc 8 sweep --param theta --values 0.35,0.45,0.75,0.95",
    "--trunc 12 --format csv sweep --param lambda --values=-1,0,1",
    "--theta 0.5 verify --suite all",
    "--theta 0.05 verify --suite models",
    "--theta 0.5 verify --suite algebra",
    "models --model chiral --mn 1,2",
    "models --model endo --matrix 2,1,1,1",
    "models --model su2 --matrix 1,1,1,1",
    "--theta 0.6180339887498949 models --model endo --matrix 2,1,1,1",
    "models --model chiral",
]

_ABSENT = "<absent>"
# Seconds allowed for one command in one tree; verify --suite all takes a few.
TIMEOUT_S = 600


def run(root: Path, args: list[str]) -> tuple[int, str]:
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-m", "nctorus.cli", *args], cwd=root, env=env,
                          capture_output=True, text=True, timeout=TIMEOUT_S)
    return done.returncode, done.stdout


def leaves(value, path: str = "") -> dict[str, object]:
    """Every scalar of a JSON value, keyed by its path."""
    if isinstance(value, dict):
        items = ((f"{path}.{key}" if path else str(key), v) for key, v in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return {path: value}
    out = {}
    for key, v in items:
        out.update(leaves(v, key))
    return out


def parse(text: str) -> dict[str, object]:
    try:
        return leaves(json.loads(text))
    except json.JSONDecodeError:
        return {f"line {i + 1}": line for i, line in enumerate(text.splitlines())}


def differences(parent: tuple[int, str], change: tuple[int, str]) -> list[str]:
    """Lines describing how change differs from parent; empty when the same."""
    if parent == change:
        return []
    out = [f"exit: {parent[0]} -> {change[0]}"]
    before, after = parse(parent[1]), parse(change[1])
    for key in list(before) + [k for k in after if k not in before]:
        old, new = before.get(key, _ABSENT), after.get(key, _ABSENT)
        if repr(old) != repr(new):  # exact for floats, and NaN equals NaN
            out.append(f"{key}: {old!r} -> {new!r}")
    if len(out) == 1 and parent[1] != change[1]:
        out.append("stdout: same values, different bytes")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("change", type=Path, help="root of the changed checkout")
    parser.add_argument("--command", action="append", dest="commands",
                        help="CLI arguments of one command; repeat for more")
    args = parser.parse_args(argv)
    all_same = True
    for command in args.commands or DEFAULT_COMMANDS:
        argv_ = shlex.split(command)
        diff = differences(run(args.parent.resolve(), argv_), run(args.change.resolve(), argv_))
        print(f"$ nctorus {command}")
        print("  same" if not diff else "\n".join(f"  {line}" for line in diff))
        all_same = all_same and not diff
    return 0 if all_same else 1


if __name__ == "__main__":
    sys.exit(main())

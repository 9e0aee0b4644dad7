"""Command-line front end.

Commands: solve (dispatch on the instance's problem kind), check
(re-validate a solution file's certificate without re-solving), and the star
and mcm utilities which accept instance files whose "problem" field may be
omitted.  Each writes one JSON document in io.serialize_solution's layout:
the solution, which check reads back, or check's verdict.  Exit codes: 0
success, 1 infeasible or divergent, 2 input or output error, 3 certificate
violation.  Results go to stdout unless --output is given; diagnostics go to
stderr.
"""

from __future__ import annotations

import argparse
import sys

from .core import DEFAULT_TOL
from .errors import (CertificateViolationError, DimensionMismatchError,
                     FiniteRequiredError, InstanceFormatError)
from .io import (EXIT_CERTIFICATE, EXIT_INPUT, EXIT_OK, check_solution_text,
                 parse_instance, serialize_solution, solve_to_payload)


_PARSER = argparse.ArgumentParser(
    prog="troplp",
    description="Max-plus linear algebra and tropical LP/ILP solvers.")
_PARSER.add_argument(
    "command", choices=("solve", "check", "star", "mcm"),
    help="solve: solve the instance according to its problem kind; "
         "check: re-validate a solution file's certificate; "
         "star: Kleene star of a square matrix instance; "
         "mcm: maximum cycle mean of a square matrix instance")
_PARSER.add_argument("--input", required=True, help="input file path")
_PARSER.add_argument("--output", default=None,
                     help="output file path (default: stdout)")
_PARSER.add_argument("--tol", type=float, default=None,
                     help=f"absolute tolerance (default: the file's tol, else {DEFAULT_TOL})")


def _write(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"troplp: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_INPUT

    problems: list[str] = []
    try:
        if args.command == "check":
            problems = check_solution_text(text, args.tol)
            payload = {"status": "violated" if problems else "passed",
                       "problems": problems}
            code = EXIT_CERTIFICATE if problems else EXIT_OK
        else:
            default_kind = args.command if args.command in ("star", "mcm") else None
            inst = parse_instance(text, default_problem=default_kind)
            if default_kind is not None and inst.problem != default_kind:
                print(f"troplp: {args.command} expects a {default_kind!r} instance, "
                      f"got {inst.problem!r}", file=sys.stderr)
                return EXIT_INPUT
            payload, code = solve_to_payload(inst, args.tol)
    except (InstanceFormatError, FiniteRequiredError, DimensionMismatchError) as exc:
        print(f"troplp: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CertificateViolationError as exc:
        print(f"troplp: internal certificate violation: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATE

    try:
        _write(serialize_solution(payload), args.output)
    except OSError as exc:
        where = "stdout" if args.output is None else args.output
        print(f"troplp: cannot write {where}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    for problem in problems:
        print(f"troplp: certificate violation: {problem}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
